"""Atomic replacement of the text files the toolkit writes."""

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path):
    """Open a UTF-8 text file that replaces ``path`` once the block completes.
    If the block raises, ``path`` keeps its old content. There is no fsync:
    the replace is atomic, not durable across a power loss."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise

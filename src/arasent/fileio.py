"""Reading and atomic replacement of the text files the toolkit uses."""

import os
from contextlib import contextmanager
from pathlib import Path

from .errors import ParseError


def read_lines(path):
    """Yield ``(line_no, line)`` for each line of the UTF-8 text file at
    ``path``, numbered from 1, with universal newlines. A line that is not
    valid UTF-8 raises ``ParseError`` at its line."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")  # an undecodable byte became a lone surrogate
            except UnicodeEncodeError:
                raise ParseError(path, line_no, "not valid utf-8 text") from None
            yield line_no, line


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

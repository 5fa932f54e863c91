"""Reading and atomic replacement of the text files the toolkit uses."""

import os
from contextlib import contextmanager
from pathlib import Path

from .errors import ParseError


class read_lines:
    """The lines of the UTF-8 text file at ``path`` (universal newlines);
    ``line_no`` counts the lines yielded so far. A line that is not valid
    UTF-8 is a ``ParseError`` at its line. As a context manager around the
    loop over its lines, it turns a ``ValueError`` raised in the block into
    a ``ParseError`` at the line being handled, so loaders raise plain
    ``ValueError`` and the error names the file and line at fault."""

    def __init__(self, path):
        self.path, self.line_no = path, 0

    def __iter__(self):
        with open(self.path, encoding="utf-8", errors="surrogateescape") as fh:
            for self.line_no, line in enumerate(fh, start=1):
                try:
                    line.encode("utf-8")  # an undecodable byte became a lone surrogate
                except UnicodeEncodeError:
                    raise ParseError(self.path, self.line_no, "not valid utf-8 text") from None
                yield line

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if isinstance(exc, ValueError):
            raise ParseError(self.path, self.line_no, str(exc)) from None


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

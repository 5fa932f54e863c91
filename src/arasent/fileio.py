"""Reading and atomic replacement of the text files the toolkit uses."""

import io
import os
from contextlib import contextmanager
from pathlib import Path

from .errors import ParseError


class read_lines:
    """The lines of the UTF-8 text file at ``path`` (universal newlines), a
    byte-order mark at its start dropped, or, given ``stream``, of that open
    binary stream (such as ``sys.stdin.buffer``), read to its end and decoded
    as a file is, errors then naming ``path``; ``line_no`` is the number of
    the last line read. A line that is not valid UTF-8 is a ``ParseError`` at
    its line. As a context manager around the loop over its lines, it turns a
    ``ValueError`` raised in the block into a ``ParseError`` at the line
    being handled (or at the whole file, before its first line), so loaders
    raise plain ``ValueError`` and the error names the file and line at
    fault."""

    def __init__(self, path, stream=None):
        self.path, self.stream, self.line_no = path, stream, 0

    def __iter__(self):
        # a stream is copied, so closing the wrapper leaves it open
        data = open(self.path, "rb") if self.stream is None else io.BytesIO(self.stream.read())
        with io.TextIOWrapper(data, encoding="utf-8-sig", errors="surrogateescape") as fh:
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
            raise ParseError(self.path, self.line_no or None, str(exc)) from None


class read_data(read_lines):
    """``read_lines``, each line stripped and blank lines skipped."""

    def __iter__(self):
        for line in super().__iter__():
            if line := line.strip():
                yield line


class read_rows(read_lines):
    """``read_lines`` as the tab-separated fields of each line; blank lines
    and lines led by ``#`` are skipped."""

    def __iter__(self):
        for line in super().__iter__():
            line = line.rstrip("\n")
            if line.strip() and not line.lstrip().startswith("#"):
                yield line.split("\t")


class read_terms(read_lines):
    """``read_lines`` as the text of each line before its first ``#``,
    stripped; lines that leave nothing are skipped."""

    def __iter__(self):
        for line in super().__iter__():
            if term := line.partition("#")[0].strip():
                yield term


@contextmanager
def _about(path):
    """Re-raise an ``OSError`` of the block as one about ``path`` alone."""
    try:
        yield
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None


@contextmanager
def atomic_write(path):
    """Open a UTF-8 text file that replaces ``path`` once the block completes.
    If the block raises, ``path`` keeps its old content. There is no fsync:
    the replace is atomic, not durable across a power loss. An error in
    creating or replacing the file names ``path``, never the temporary file
    beside it."""
    target = Path(path)
    tmp = target.parent / f".{target.name}.{os.urandom(4).hex()}.tmp"
    with _about(path):
        fh = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with fh:
            yield fh
        with _about(path):
            os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise

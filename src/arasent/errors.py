"""Exception types shared across the toolkit.

The CLI maps any ArasentError to exit code 2 (data error); everything else
is a bug. A refused file line is a ``ParseError`` (see ``fileio.read_lines``),
and a refused setting or data set an ``ArasentError``.
"""


class ArasentError(Exception):
    """Base class for all toolkit errors."""


class ParseError(ArasentError):
    """A file could not be parsed: at ``line_no``, or as a whole when it is None."""

    def __init__(self, source, line_no, reason):
        self.source = str(source)
        self.line_no = line_no
        self.reason = reason
        where = self.source if line_no is None else f"{self.source}:{line_no}"
        super().__init__(f"{where}: {reason}")


class ProviderError(ArasentError):
    """A synset provider could not answer a fetch (transient, not semantic)."""

    def __init__(self, word, reason=""):
        self.word = word
        super().__init__(f"provider failed for {word!r}: {reason}" if reason
                         else f"provider failed for {word!r}")

"""Exception types shared across the toolkit.

The CLI maps any ArasentError to exit code 2 (data error); everything else
is a bug.
"""


class ArasentError(Exception):
    """Base class for all toolkit errors."""


class ParseError(ArasentError):
    """A resource file could not be parsed."""

    def __init__(self, source, line_no, reason):
        self.source = str(source)
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"{self.source}:{line_no}: {reason}")


class DuplicateWord(ArasentError):
    """The same word was added to a sentiment lexicon twice."""


class DuplicatePhrase(ArasentError):
    """The same token sequence was added to an idiom lexicon twice."""


class InvalidPolarity(ArasentError):
    """An operator answer did not name a usable polarity."""


class ProviderError(ArasentError):
    """A synset provider could not answer a fetch (transient, not semantic)."""

    def __init__(self, word, reason=""):
        self.word = word
        super().__init__(f"provider failed for {word!r}: {reason}" if reason
                         else f"provider failed for {word!r}")


class EmptyTrainingSet(ArasentError):
    """train() was called with no data."""


class SingleClassTrainingSet(ArasentError):
    """train() was called with only one label present."""


class InvalidSplitSpec(ArasentError):
    """Split fractions are not positive or do not sum to 1."""


class UndefinedMetric(ArasentError):
    """A metric denominator is zero; the value is absent, not 0."""


class InsufficientRaters(ArasentError):
    """Agreement needs at least two raters per item."""


class EmptyItems(ArasentError):
    """Agreement needs at least one rated item."""

"""Normalization, sentence splitting, tokenization and POS tagging.

Everything downstream (lexicon lookups, idiom matching, cue detection)
assumes the canonical form produced here: alef variants unified, alef
maqsura mapped to ya, diacritics and tatweel stripped, and every
non-Arabic character dropped. Whitespace and the sentence delimiter set
survive normalization so that sentence splitting still works afterwards.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Collection, Mapping, Protocol, Sequence

from .errors import ParseError, TaggerFailure
from .fileio import read_lines

# Idiom mask words are the only non-Arabic words a masked sentence holds.
PO_MASK = "PO_Phrase"
NG_MASK = "NG_Phrase"
MASK_TOKENS = frozenset({PO_MASK, NG_MASK})

# alef variants (hamza above/below, madda, wasla) -> bare alef; maqsura -> ya.
# Ta marbuta is deliberately left alone: folding it into ha would merge
# distinct lexicon surfaces. Harakat (U+064B-065F), superscript alef
# (U+0670), Quranic marks (U+06D6-06ED) and tatweel (U+0640) are deleted in
# place so that they never split a word.
_CHAR_MAP = str.maketrans({
    "أ": "ا",  # أ
    "إ": "ا",  # إ
    "آ": "ا",  # آ
    "ٱ": "ا",  # ٱ
    "ى": "ي",  # ى -> ي
    **dict.fromkeys([*range(0x064B, 0x0660), 0x0670, *range(0x06D6, 0x06EE), 0x0640]),
})

_ARABIC_LETTERS = "ء-غف-ي"
_DELIMITERS = ".!?؟؛"  # . ! ? ؟ ؛  (newline counts as well)

# Each run of anything but Arabic letters, delimiters and newlines (other
# whitespace included) becomes a single space.
_DROP_RE = re.compile(f"[^{_ARABIC_LETTERS}{re.escape(_DELIMITERS)}\\n]+")
_NEWLINE_RE = re.compile(r"\s*\n\s*")
_SENTENCE_RE = re.compile(f"[{re.escape(_DELIMITERS)}\n]")
_WORD_RE = re.compile(f"[{_ARABIC_LETTERS}]+")


class PosTag(Enum):
    JJ = "JJ"
    NN = "NN"
    VB = "VB"
    OTHER = "OTHER"


def normalize_text(raw: str) -> str:
    """Map Arabic text to its canonical form.

    Idempotent; total over arbitrary unicode input. Keeps Arabic letters,
    whitespace and sentence delimiters, drops everything else.
    """
    text = _DROP_RE.sub(" ", raw.translate(_CHAR_MAP))
    return _NEWLINE_RE.sub("\n", text).strip()


def split_sentences(text: str) -> list[str]:
    """Split normalized text on { . ! ? ؟ ؛ newline }, dropping empties."""
    return [part for part in (p.strip() for p in _SENTENCE_RE.split(text)) if part]


def preprocess(text: str, stopwords: Collection[str] = frozenset()) -> list[list[str]]:
    """Normalized, split and tokenized text minus stopwords: one word list
    per sentence."""
    sentences = [_WORD_RE.findall(s) for s in split_sentences(normalize_text(text))]
    if stopwords:
        sentences = [[w for w in words if w not in stopwords] for words in sentences]
    return sentences


class PosTagger(Protocol):
    def tag(self, words: Sequence[str]) -> Sequence[PosTag]: ...


class TableTagger:
    """Word-to-tag lookup with an OTHER fallback for unknown words.

    The table is immutable after construction, so a single instance is safe
    to share across threads.
    """

    def __init__(self, table: Mapping[str, PosTag] | None = None):
        self._table = dict(table or {})

    @classmethod
    def from_file(cls, path) -> "TableTagger":
        """Load a TSV tag table: ``word<TAB>tag``, tag in {JJ, NN, VB, OTHER}."""
        return cls(load_tag_table(path))

    def tag(self, words: Sequence[str]) -> list[PosTag]:
        return [self._table.get(w, PosTag.OTHER) for w in words]


def load_tag_table(path) -> dict[str, PosTag]:
    table: dict[str, PosTag] = {}
    for line_no, line in read_lines(path):
        line = line.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(path, line_no, "expected 2 tab-separated columns")
        word, tag = normalize_text(parts[0]), parts[1].strip()
        try:
            table[word] = PosTag(tag)
        except ValueError:
            raise ParseError(path, line_no, f"unknown tag {tag!r}") from None
    return table


def tag_words(words: Sequence[str], tagger: PosTagger) -> list[PosTag]:
    """One tag per word via the given tagger. Raises TaggerFailure when a
    pluggable tagger misbehaves and returns a different number of tags."""
    tags = list(tagger.tag(words))
    if len(tags) != len(words):
        raise TaggerFailure(f"tagger returned {len(tags)} tags for {len(words)} tokens")
    return tags


def load_stopwords(path) -> frozenset[str]:
    """One normalized word per line; ``#`` starts a comment."""
    words = set()
    for _, line in read_lines(path):
        word = line.split("#", 1)[0].strip()
        if word:
            words.add(normalize_text(word))
    words.discard("")
    return frozenset(words)

"""Normalization, sentence splitting and tokenization.

Every word table in the package (the lexicon and its prevent list, the tag
table, the synsets, the cue lists, the stopwords and the idioms) is a plain
mapping or set keyed by single words in the canonical form produced here:
alef variants unified, alef maqsura mapped to ya, diacritics and tatweel
stripped, and every non-Arabic character dropped. The code that reads a
file, or adds an entry, normalizes with ``normalize_word``; readers look
words up as they are given. In ``normalize_text``, which serves the
``normalize`` subcommand, whitespace and the sentence delimiters survive.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Collection

from .errors import ParseError
from .fileio import read_lines

# Idiom mask words are the only non-Arabic words a masked sentence holds.
PO_MASK = "PO_Phrase"
NG_MASK = "NG_Phrase"

# alef variants (hamza above/below, madda, wasla) -> bare alef; maqsura -> ya.
# Ta marbuta is deliberately left alone: folding it into ha would merge
# distinct lexicon surfaces. Harakat (U+064B-065F), superscript alef
# (U+0670), Quranic marks (U+06D6-06ED) and tatweel (U+0640) are deleted in
# place so that they never split a word. str.translate would do both in one
# pass, but it looks every non-ASCII character up in a dict; these scans run
# in C and take a fraction of its time on Arabic text.
_FOLDS = (("أ", "ا"), ("إ", "ا"), ("آ", "ا"), ("ٱ", "ا"), ("ى", "ي"))
_MARK_RE = re.compile("[\u064b-\u065f\u0670\u06d6-\u06ed\u0640]")

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


def _fold(text: str) -> str:
    """``text`` with alef variants and maqsura folded and marks deleted."""
    for variant, letter in _FOLDS:
        text = text.replace(variant, letter)
    return _MARK_RE.sub("", text)


def normalize_text(raw: str) -> str:
    """Map Arabic text to its canonical form.

    Idempotent; total over arbitrary unicode input. Keeps Arabic letters,
    whitespace and sentence delimiters, drops everything else.
    """
    text = _DROP_RE.sub(" ", _fold(raw))
    return _NEWLINE_RE.sub("\n", text).strip()


def normalize_word(word: str, name: str = "word") -> str:
    """The one normalized word that ``word`` holds, as the walk would see it.

    A ValueError, its message led by ``name``, says that it holds no word
    or several words: such an entry could never match."""
    words = _WORD_RE.findall(_fold(word))
    if len(words) != 1:
        raise ValueError(f"{name} is {'several words' if words else 'empty'} "
                         "after normalization")
    return words[0]


def preprocess(text: str, stopwords: Collection[str] = frozenset()) -> list[list[str]]:
    """Normalized, split and tokenized text minus stopwords: one word list
    per sentence, the sentences ending at { . ! ? ؟ ؛ newline }."""
    # Only Arabic letters form words, so the characters normalize_text drops
    # or folds into spaces never change a sentence's words, and a piece
    # between delimiters that holds no word is exactly one it strips away.
    pieces = map(_WORD_RE.findall, _SENTENCE_RE.split(_fold(text)))
    if stopwords:
        return [[w for w in words if w not in stopwords] for words in pieces if words]
    return [words for words in pieces if words]


def load_tag_table(path) -> dict[str, PosTag]:
    """Load a TSV tag table: ``word<TAB>tag``, tag in {JJ, NN, VB, OTHER}."""
    table: dict[str, PosTag] = {}
    for line_no, line in read_lines(path):
        line = line.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(path, line_no, "expected 2 tab-separated columns")
        tag = parts[1].strip()
        try:
            word = normalize_word(parts[0])
        except ValueError as exc:
            raise ParseError(path, line_no, str(exc)) from None
        try:
            table[word] = PosTag(tag)
        except ValueError:
            raise ParseError(path, line_no, f"unknown tag {tag!r}") from None
    return table


def load_stopwords(path) -> frozenset[str]:
    """One word per line, normalized on load; ``#`` starts a comment."""
    words = set()
    for line_no, line in read_lines(path):
        word = line.split("#", 1)[0].strip()
        if word:
            try:
                words.add(normalize_word(word))
            except ValueError as exc:
                raise ParseError(path, line_no, str(exc)) from None
    return frozenset(words)

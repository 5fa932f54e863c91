"""Sentiment word lexicon and idiom phrase lexicon.

The word lexicon follows the five-column layout (word, English gloss,
Buckwalter transliteration, polarity, term frequency) stored as UTF-8 TSV
with one header line. Words confirmed to carry no sentiment live in a
prevent list persisted as a one-word-per-line sidecar next to the lexicon
file. A loaded lexicon is treated as immutable by readers; growing
operations copy first.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .errors import DuplicatePhrase, DuplicateWord, ParseError
from .fileio import atomic_write, read_lines
from .preprocess import normalize_word, preprocess

LEXICON_HEADER = "word\tgloss\ttranslit\tpolarity\ttf"


class Polarity(Enum):
    PO = "PO"
    NG = "NG"
    NU = "NU"

    def flipped(self) -> "Polarity":
        if self is Polarity.PO:
            return Polarity.NG
        if self is Polarity.NG:
            return Polarity.PO
        return Polarity.NU


class LexiconEntry(NamedTuple):
    word: str
    polarity: Polarity
    gloss: str = ""
    translit: str = ""
    tf: int = 0


class SentimentLexicon:
    """Map of normalized word -> entry, plus the disjoint prevent list.

    ``add`` and ``add_prevent`` normalize the words they are given, and
    ``add`` refuses a negative tf; the readers (``lookup``, ``is_prevented``,
    ``in``) take normalized words."""

    def __init__(self, entries: Iterable[LexiconEntry] = (),
                 prevent: Iterable[str] = ()):
        self._entries: dict[str, LexiconEntry] = {}
        self._prevent: set[str] = set()
        for entry in entries:
            self.add(entry)
        for word in prevent:
            self.add_prevent(word)

    def add(self, entry: LexiconEntry) -> None:
        word = normalize_word(entry.word, "lexicon word")
        if entry.tf < 0:
            raise ValueError(f"negative term frequency for {word!r}")
        if word != entry.word:
            entry = entry._replace(word=word)
        if word in self._entries:
            raise DuplicateWord(word)
        if word in self._prevent:
            raise DuplicateWord(f"{word} is on the prevent list")
        self._entries[word] = entry

    def add_prevent(self, word: str) -> None:
        w = normalize_word(word, "prevent-list word")
        if w in self._entries:
            raise DuplicateWord(f"{w} is already a lexicon entry")
        self._prevent.add(w)

    def lookup(self, word: str) -> LexiconEntry | None:
        """Entry for the normalized word ``word``, or None."""
        return self._entries.get(word)

    def words(self) -> list[str]:
        return list(self._entries)

    @property
    def entries(self) -> dict[str, LexiconEntry]:
        return dict(self._entries)

    @property
    def prevent_list(self) -> frozenset[str]:
        """A snapshot of the prevent list; see ``is_prevented`` for lookups."""
        return frozenset(self._prevent)

    def is_prevented(self, word: str) -> bool:
        """True when the normalized word ``word`` is on the prevent list."""
        return word in self._prevent

    def copy(self) -> "SentimentLexicon":
        fresh = SentimentLexicon()
        fresh._entries = dict(self._entries)
        fresh._prevent = set(self._prevent)
        return fresh

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, word: str) -> bool:
        return word in self._entries

    def __iter__(self) -> Iterator[LexiconEntry]:
        return iter(self._entries.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SentimentLexicon):
            return NotImplemented
        return self._entries == other._entries and self._prevent == other._prevent


def _prevent_path(path) -> Path:
    return Path(path).with_suffix(".prevent")


def load_sentiment_lexicon(path) -> SentimentLexicon:
    """Load a five-column TSV lexicon plus its prevent-list sidecar."""
    lex = SentimentLexicon()
    for line_no, line in read_lines(path):
        line = line.rstrip("\n")
        if line_no == 1:
            if line != LEXICON_HEADER:
                raise ParseError(path, 1, "missing lexicon header line")
            continue
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise ParseError(path, line_no, f"expected 5 columns, got {len(parts)}")
        word, gloss, translit, pol, tf = parts
        try:
            polarity = Polarity(pol.strip())
        except ValueError:
            raise ParseError(path, line_no,
                             f"polarity must be PO, NG or NU, got {pol!r}") from None
        try:
            freq = int(tf)
            if freq < 0:
                raise ValueError
        except ValueError:
            raise ParseError(path, line_no,
                             f"term frequency must be a non-negative integer, got {tf!r}") from None
        try:
            lex.add(LexiconEntry(word, polarity, gloss, translit, freq))
        except ValueError as exc:
            raise ParseError(path, line_no, str(exc)) from None
        except DuplicateWord as exc:
            raise DuplicateWord(f"{path}:{line_no}: duplicate word {exc}") from None
    sidecar = _prevent_path(path)
    if sidecar.exists():
        for line_no, line in read_lines(sidecar):
            word = line.split("#", 1)[0].strip()
            if not word:
                continue
            try:
                lex.add_prevent(word)
            except (ValueError, DuplicateWord) as exc:
                raise ParseError(sidecar, line_no, str(exc)) from None
    return lex


def clean_field(text: str) -> str:
    """``text`` with tabs and line breaks replaced by spaces, so that it stays
    one field of one TSV row when read back."""
    return text.replace("\t", " ").replace("\n", " ").replace("\r", " ")


def save_sentiment_lexicon(lex: SentimentLexicon, path) -> None:
    """Write the lexicon TSV and its prevent-list sidecar. Each file is
    replaced atomically, and neither is replaced if writing either one fails.

    Tabs and line breaks inside gloss/translit are replaced by spaces so the
    row stays parseable; load(save(lex)) is structurally equal otherwise.
    """
    with atomic_write(path) as fh, atomic_write(_prevent_path(path)) as sidecar:
        fh.write(LEXICON_HEADER + "\n")
        for entry in lex:
            fh.write(f"{entry.word}\t{clean_field(entry.gloss)}\t{clean_field(entry.translit)}"
                     f"\t{entry.polarity.value}\t{entry.tf}\n")
        for word in sorted(lex.prevent_list):
            sidecar.write(word + "\n")


class IdiomEntry(NamedTuple):
    phrase: tuple[str, ...]
    polarity: Polarity
    gloss: str = ""


class IdiomLexicon:
    """Idiom phrases indexed by first token for multi-token matching.

    ``add`` normalizes each word of the phrase it is given and refuses a
    phrase of one word or an NU polarity; ``match_at`` takes normalized
    words."""

    def __init__(self, entries: Iterable[IdiomEntry] = ()):
        self._entries: list[IdiomEntry] = []
        self._by_first: dict[str, list[IdiomEntry]] = {}
        self._seen: set[tuple[str, ...]] = set()
        for entry in entries:
            self.add(entry)

    def add(self, entry: IdiomEntry) -> None:
        phrase = tuple(normalize_word(word, f"idiom word {word!r}") for word in entry.phrase)
        if len(phrase) < 2:
            raise ValueError("idiom phrases need at least 2 tokens")
        if entry.polarity is Polarity.NU:
            raise ValueError("idiom polarity must be PO or NG")
        if phrase != entry.phrase:
            entry = entry._replace(phrase=phrase)
        if entry.phrase in self._seen:
            raise DuplicatePhrase(" ".join(entry.phrase))
        self._seen.add(entry.phrase)
        self._entries.append(entry)
        bucket = self._by_first.setdefault(entry.phrase[0], [])
        bucket.append(entry)
        bucket.sort(key=lambda e: -len(e.phrase))

    def match_at(self, surfaces: list[str], i: int) -> IdiomEntry | None:
        """Longest idiom whose tokens equal surfaces[i:i+len], if any."""
        for entry in self._by_first.get(surfaces[i], ()):
            n = len(entry.phrase)
            if tuple(surfaces[i:i + n]) == entry.phrase:
                return entry
        return None

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[IdiomEntry]:
        return iter(self._entries)


def load_idiom_lexicon(path) -> IdiomLexicon:
    """Load a 2-3 column TSV: ``phrase<TAB>polarity[<TAB>gloss]``."""
    idioms = IdiomLexicon()
    for line_no, line in read_lines(path):
        line = line.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) not in (2, 3):
            raise ParseError(path, line_no, f"expected 2 or 3 columns, got {len(parts)}")
        phrase = tuple(word for words in preprocess(parts[0]) for word in words)
        try:
            polarity = Polarity(parts[1].strip())
        except ValueError:
            raise ParseError(path, line_no,
                             f"polarity must be PO or NG, got {parts[1]!r}") from None
        gloss = parts[2] if len(parts) == 3 else ""
        try:
            idioms.add(IdiomEntry(phrase, polarity, gloss))
        except ValueError as exc:
            raise ParseError(path, line_no, str(exc)) from None
    return idioms


def update_term_frequencies(lex: SentimentLexicon, corpus) -> SentimentLexicon:
    """Recount every entry's tf over the normalized, tokenized corpus.

    Entries absent from the corpus get tf 0. Returns a new lexicon; the
    input is untouched.
    """
    counts = count_corpus_tokens(corpus)
    fresh = [e._replace(tf=counts.get(word, 0)) for word, e in lex.entries.items()]
    return SentimentLexicon(fresh, lex.prevent_list)


def count_corpus_tokens(corpus) -> Counter:
    """Word occurrence counts over normalized corpus topics."""
    counts: Counter = Counter()
    for topic in corpus:
        for words in preprocess(topic.text):
            counts.update(words)
    return counts

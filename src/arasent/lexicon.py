"""Sentiment word lexicon and idiom phrase lexicon.

The word lexicon follows the five-column layout (word, English gloss,
Buckwalter transliteration, polarity, term frequency) stored as UTF-8 TSV
with one header line. Words confirmed to carry no sentiment live in a
prevent list persisted as a one-word-per-line sidecar next to the lexicon
file. A loaded lexicon is treated as immutable by readers; growing
operations copy first. ``Polarity`` is ``arasent.schema.Polarity``.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .fileio import atomic_write, read_rows, read_terms
from .preprocess import normalize_word, words
from .schema import Polarity

LEXICON_HEADER = "word\tgloss\ttranslit\tpolarity\ttf"
_BLOCK_TOPICS = 64  # topics whose texts one bulk word count joins


class LexiconEntry(NamedTuple):
    word: str
    polarity: Polarity
    gloss: str = ""
    translit: str = ""
    tf: int = 0


class SentimentLexicon:
    """Map of normalized word -> entry, plus the disjoint prevent list.

    ``add`` and ``add_prevent`` normalize the words they are given and refuse
    with ``ValueError`` a word already in the lexicon or on the prevent list;
    ``add`` also refuses a negative tf. The readers (``lookup``,
    ``is_prevented``, ``in``) take normalized words."""

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
            raise ValueError(f"duplicate word {word!r}")
        if word in self._prevent:
            raise ValueError(f"{word!r} is on the prevent list")
        self._entries[word] = entry

    def add_prevent(self, word: str) -> None:
        w = normalize_word(word, "prevent-list word")
        if w in self._entries:
            raise ValueError(f"{w!r} is already a lexicon entry")
        if w in self._prevent:
            raise ValueError(f"{w!r} is already on the prevent list")
        self._prevent.add(w)

    def lookup(self, word: str) -> LexiconEntry | None:
        """Entry for the normalized word ``word``, or None."""
        return self._entries.get(word)

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
        """The entries in the order they were added; each ``.word`` is the
        normalized word it is held under."""
        return iter(self._entries.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SentimentLexicon):
            return NotImplemented
        return self._entries == other._entries and self._prevent == other._prevent


def prevent_path(path) -> Path:
    """The prevent-list sidecar of the lexicon file at ``path``."""
    return Path(path).with_suffix(".prevent")


def load_sentiment_lexicon(path) -> SentimentLexicon:
    """Load a five-column TSV lexicon plus its prevent-list sidecar."""
    lex = SentimentLexicon()
    with read_rows(path) as reader:
        rows = iter(reader)
        if next(rows, None) != LEXICON_HEADER.split("\t"):
            raise ValueError("missing lexicon header line")
        for parts in rows:
            if len(parts) != 5:
                raise ValueError(f"expected 5 columns, got {len(parts)}")
            word, gloss, translit, pol, tf = parts
            try:
                polarity = Polarity(pol.strip())
            except ValueError:
                raise ValueError(f"polarity must be PO, NG or NU, got {pol!r}") from None
            try:
                freq = int(tf)
            except ValueError:
                raise ValueError(
                    f"term frequency must be a non-negative integer, got {tf!r}") from None
            lex.add(LexiconEntry(word, polarity, gloss, translit, freq))
    sidecar = prevent_path(path)
    if sidecar.exists():
        with read_terms(sidecar) as terms:
            for word in terms:
                lex.add_prevent(word)
    return lex


def clean_field(text: str) -> str:
    """``text`` with tabs and line breaks replaced by spaces, so that it stays
    one field of one TSV row when read back."""
    return text.replace("\t", " ").replace("\n", " ").replace("\r", " ")


def save_sentiment_lexicon(lex: SentimentLexicon, path) -> None:
    """Write the lexicon TSV and its prevent-list sidecar. Each file is
    replaced atomically, and neither is replaced if writing either one fails.

    Tabs and line breaks inside gloss/translit are replaced by spaces so the
    row stays parseable; load(save(lex)) is structurally equal otherwise. A
    ``path`` that is its own sidecar, ``*.prevent``, is a ``ValueError``.
    """
    if prevent_path(path) == Path(path):
        raise ValueError(f"{path}: a lexicon file cannot be its own .prevent sidecar")
    with atomic_write(path) as fh, atomic_write(prevent_path(path)) as sidecar:
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

    ``add`` normalizes each word of the phrase it is given and refuses with
    ``ValueError`` a phrase of one word, an NU polarity or a phrase it holds
    already; ``match_at`` takes normalized words."""

    def __init__(self, entries: Iterable[IdiomEntry] = ()):
        self._entries: list[IdiomEntry] = []
        self._by_first: dict[str, list[IdiomEntry]] = {}
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
        bucket = self._by_first.setdefault(entry.phrase[0], [])
        if any(held.phrase == entry.phrase for held in bucket):
            raise ValueError(f"duplicate idiom {' '.join(entry.phrase)!r}")
        self._entries.append(entry)
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
    with read_rows(path) as rows:
        for parts in rows:
            if len(parts) not in (2, 3):
                raise ValueError(f"expected 2 or 3 columns, got {len(parts)}")
            phrase = tuple(words(parts[0]))
            try:
                polarity = Polarity(parts[1].strip())
            except ValueError:
                raise ValueError(f"polarity must be PO or NG, got {parts[1]!r}") from None
            gloss = parts[2] if len(parts) == 3 else ""
            idioms.add(IdiomEntry(phrase, polarity, gloss))
    return idioms


def update_term_frequencies(lex: SentimentLexicon, corpus) -> SentimentLexicon:
    """Recount every entry's tf over the normalized, tokenized corpus.

    Entries absent from the corpus get tf 0. Returns a new lexicon; the
    input is untouched.
    """
    counts = count_corpus_tokens(corpus)
    fresh = [e._replace(tf=counts.get(e.word, 0)) for e in lex]
    return SentimentLexicon(fresh, lex.prevent_list)


def count_corpus_tokens(corpus) -> Counter:
    """Word occurrence counts over normalized corpus topics, keyed in the
    order in which each word first occurs."""
    # Sentence breaks never split or join a word, so the words of a block of
    # topic texts joined by newlines are the words of its topics in order;
    # a bounded block keeps the joined text small.
    counts: Counter = Counter()
    topics = iter(corpus)
    while block := list(islice(topics, _BLOCK_TOPICS)):
        counts.update(words("\n".join(topic.text for topic in block)))
    return counts

"""Automatic lexicon expansion with three-case orientation detection.

Candidates are the distinct adjective/noun/verb tokens not yet known to the
lexicon. Each is looked up through a synset provider; synonyms vote with
their lexicon polarity, antonyms vote flipped. A unanimous vote adopts the
word immediately (so later candidates see it as evidence), a split vote is
a conflict of synonyms and changes nothing, and an empty answer routes the
word to human review or, non-interactively, to a pending file.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Protocol

from .errors import ArasentError, ProviderError
from .fileio import read_lines
from .lexicon import (
    LexiconEntry,
    Polarity,
    SentimentLexicon,
    clean_field,
)
from .preprocess import PosTag, normalize_word, preprocess

CANDIDATE_TAGS = frozenset({PosTag.JJ, PosTag.NN, PosTag.VB})

PENDING = "PENDING"
ACCEPTED = "ACCEPTED"
REJECTED = "REJECTED"


class SynsetResult(NamedTuple):
    """Provider answer: optional translation plus synonym and antonym words."""

    translation: str | None = None
    synonyms: tuple[str, ...] = ()
    antonyms: tuple[str, ...] = ()

    @property
    def is_empty(self) -> bool:
        return self.translation is None and not self.synonyms


class SynsetProvider(Protocol):
    def fetch(self, word: str) -> SynsetResult:
        """The answer for a normalized word, its synonyms and antonyms
        normalized too."""


class FixtureProvider:
    """Offline provider backed by a TSV table.

    Row format: ``word<TAB>translation<TAB>syn1,syn2,...<TAB>ant1,ant2,...``
    with empty fields allowed. Words absent from the table answer with an
    empty result (the out-of-vocabulary case), never an error. ``table``
    holds normalized words only, as ``from_file`` builds it.
    """

    def __init__(self, table: Mapping[str, SynsetResult] | None = None):
        self._table = dict(table or {})

    @classmethod
    def from_file(cls, path) -> "FixtureProvider":
        table: dict[str, SynsetResult] = {}
        with read_lines(path) as lines:
            for line in lines:
                line = line.rstrip("\n")
                if not line.strip() or line.lstrip().startswith("#"):
                    continue
                parts = line.split("\t")
                if not 1 <= len(parts) <= 4:
                    raise ValueError(f"expected 1-4 columns, got {len(parts)}")
                parts += [""] * (4 - len(parts))
                word, result = normalize_word(parts[0]), _parse_row(parts)
                if word in table:
                    raise ValueError(f"duplicate word {word!r}")
                table[word] = result
        return cls(table)

    def fetch(self, word: str) -> SynsetResult:
        return self._table.get(word, SynsetResult())


def _parse_row(parts: list[str]) -> SynsetResult:
    """The answer held by a four-column fixture row; a ValueError names a
    synonym or antonym that is not one word when normalized."""
    return SynsetResult(translation=parts[1].strip() or None,
                        synonyms=_parse_word_list(parts[2]),
                        antonyms=_parse_word_list(parts[3]))


def _parse_word_list(text: str) -> tuple[str, ...]:
    """The normalized words of a comma-separated field; blank items are skipped."""
    items = (item.strip() for item in text.split(","))
    return tuple(normalize_word(item, f"word {item!r}") for item in items if item)


def _is_word(text: str) -> bool:
    try:
        normalize_word(text)
    except ValueError:
        return False
    return True


def _word_field(words) -> str:
    """``words`` as one comma-separated field, without the items that
    ``_parse_word_list`` would refuse."""
    items = clean_field(",".join(words)).split(",")
    return ",".join(filter(_is_word, items))


class CachingProvider:
    """File-backed cache around a live provider.

    Answers already in the cache file never hit the inner provider, so an
    online thesaurus client can be plugged in without refetching across
    runs. Cache rows use the fixture TSV format, with tabs and line breaks
    in the fields replaced by spaces and without the synonyms or antonyms
    that are not one word when normalized. A fetch answers what a later load
    of the cache reads back; a word that is not one word when normalized has
    no row, so its answer is not kept.
    """

    def __init__(self, inner: SynsetProvider, cache_path):
        self._inner = inner
        self._path = Path(cache_path)
        self._cache: dict[str, SynsetResult] = {}
        if self._path.exists():
            self._cache = dict(FixtureProvider.from_file(self._path)._table)

    def fetch(self, word: str) -> SynsetResult:
        try:
            key = normalize_word(word)
        except ValueError:  # no cache row can hold it
            key = None
        if key in self._cache:
            return self._cache[key]
        result = self._inner.fetch(word if key is None else key)
        row = [key or "", clean_field(result.translation or ""),
               _word_field(result.synonyms), _word_field(result.antonyms)]
        result = _parse_row(row)
        if key is not None:
            self._cache[key] = result
            with open(self._path, "a", encoding="utf-8", newline="\n") as fh:
                fh.write("\t".join(row) + "\n")
        return result


class Outcome(Enum):
    ADOPT = "ADOPT"
    COS = "COS"
    OOV = "OOV"


class OrientationDecision(NamedTuple):
    outcome: Outcome
    polarity: Polarity | None = None
    evidence: tuple[tuple[str, Polarity], ...] = ()


class ReviewItem:
    """An out-of-vocabulary word; ``resolve_oov`` sets its status and polarity."""

    def __init__(self, word: str, status: str = PENDING, polarity: Polarity | None = None):
        self.word, self.status, self.polarity = word, status, polarity


class ExpansionReport(NamedTuple):
    """The words of each outcome, in the order they were decided."""

    adopted: list[str]
    cos: list[str]
    oov_pending: list[str]
    oov_accepted: list[str]
    oov_rejected: list[str]
    errors: list[tuple[str, str]]

    def counts(self) -> dict[str, int]:
        return {
            "adopted": len(self.adopted),
            "cos": len(self.cos),
            "oov_pending": len(self.oov_pending),
            "oov_accepted": len(self.oov_accepted),
            "oov_rejected": len(self.oov_rejected),
            "errors": len(self.errors),
        }


def detect_orientation(syn: SynsetResult, lex: SentimentLexicon) -> OrientationDecision:
    """Classify a candidate by its synonym/antonym votes.

    Synonyms vote with their lexicon polarity, antonyms vote flipped;
    neutral or unknown words abstain. No translation and no synonyms is
    out-of-vocabulary outright; so is an all-abstain vote.
    """
    if syn.is_empty:
        return OrientationDecision(Outcome.OOV)
    evidence: list[tuple[str, Polarity]] = []
    for w in syn.synonyms:
        entry = lex.lookup(w)
        if entry is not None and entry.polarity is not Polarity.NU:
            evidence.append((w, entry.polarity))
    for w in syn.antonyms:
        entry = lex.lookup(w)
        if entry is not None and entry.polarity is not Polarity.NU:
            evidence.append((w, entry.polarity.flipped()))
    if not evidence:
        return OrientationDecision(Outcome.OOV)
    polarities = {p for _, p in evidence}
    if len(polarities) == 1:
        return OrientationDecision(Outcome.ADOPT, polarities.pop(), tuple(evidence))
    return OrientationDecision(Outcome.COS, None, tuple(evidence))


def resolve_oov(lex: SentimentLexicon, item: ReviewItem, answer: str,
                tf: int = 0) -> SentimentLexicon:
    """Apply an operator's verdict on a pending review item.

    ``p``/``po`` and ``n``/``ng`` insert the word with that polarity and an
    empty gloss; ``r``/``reject`` appends it to the prevent list. Returns a
    new lexicon and updates the item's status in place.
    """
    if item.status != PENDING:
        raise ValueError(f"review item {item.word!r} is already {item.status}")
    verdict = answer.strip().lower()
    fresh = lex.copy()
    if verdict in ("p", "po"):
        polarity = Polarity.PO
    elif verdict in ("n", "ng"):
        polarity = Polarity.NG
    elif verdict in ("r", "reject"):
        fresh.add_prevent(item.word)
        item.status = REJECTED
        return fresh
    else:
        raise ArasentError(f"expected p, n or r, got {answer!r}")
    fresh.add(LexiconEntry(item.word, polarity, tf=tf))
    item.status = ACCEPTED
    item.polarity = polarity
    return fresh


def _load_pending_words(path) -> set[str]:
    """The words of a pending file's rows, normalized; a row whose first
    column is not one word is a ParseError at its line."""
    words = set()
    if not Path(path).exists():
        return words
    with read_lines(path) as lines:
        for line in lines:
            if line.strip():
                words.add(normalize_word(line.split("\t", 1)[0], "pending word"))
    return words


def _append_pending(path, item: ReviewItem) -> None:
    with open(path, "a", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{item.word}\t{item.status}\n")


def expand_lexicon(corpus, lex: SentimentLexicon, provider: SynsetProvider, *,
                   tags: Mapping[str, PosTag] = {},
                   stopwords: Iterable[str] = frozenset(),
                   pending_path=None,
                   ask: Callable[[ReviewItem, SynsetResult], str] | None = None,
                   ) -> tuple[SentimentLexicon, ExpansionReport]:
    """Run the four expansion steps over a corpus.

    ``tags`` maps words to their tag; a word it lacks is no candidate.
    Adopted words are inserted immediately, so later candidates can use
    them as evidence; processing order is first occurrence in the corpus.
    Provider errors skip the candidate (they are transient, not evidence
    that the word carries no sentiment). Out-of-vocabulary words go to
    ``pending_path``, unless an ``ask`` callback is given: then it supplies
    the operator's answer (``s`` skips to pending).
    """
    stop = set(stopwords)

    working = lex.copy()
    report = ExpansionReport([], [], [], [], [], [])
    # candidates are never stopwords, so counting after their removal keeps every tf
    tf_counts: Counter = Counter()
    already_pending = _load_pending_words(pending_path) if pending_path else set()

    # distinct JJ/NN/VB words unknown to the lexicon and the prevent list,
    # in first-occurrence order
    candidates: dict[str, None] = {}
    for topic in corpus:
        for words in preprocess(topic.text, stop):
            tf_counts.update(words)
            for word in words:
                if (tags.get(word) in CANDIDATE_TAGS and word not in candidates
                        and working.lookup(word) is None and not working.is_prevented(word)):
                    candidates[word] = None

    def to_pending(item: ReviewItem) -> None:
        report.oov_pending.append(item.word)
        if pending_path and item.word not in already_pending:
            _append_pending(pending_path, item)
            already_pending.add(item.word)

    for word in candidates:
        try:
            syn = provider.fetch(word)
        except ProviderError as exc:
            report.errors.append((word, str(exc)))
            continue
        decision = detect_orientation(syn, working)
        if decision.outcome is Outcome.ADOPT:
            working.add(LexiconEntry(word, decision.polarity, gloss=syn.translation or "",
                                     tf=tf_counts.get(word, 0)))
            report.adopted.append(word)
        elif decision.outcome is Outcome.COS:
            report.cos.append(word)
        else:
            item = ReviewItem(word)
            if ask is None:
                to_pending(item)
                continue
            answer = ask(item, syn)
            if answer.strip().lower() in ("s", "skip"):
                to_pending(item)
                continue
            working = resolve_oov(working, item, answer, tf=tf_counts.get(word, 0))
            if item.status == ACCEPTED:
                report.oov_accepted.append(word)
            else:
                report.oov_rejected.append(word)

    return working, report

"""Automatic lexicon expansion with three-case orientation detection.

Candidates are the distinct adjective/noun/verb tokens not yet known to the
lexicon. Each is looked up through a synset provider; synonyms vote with
their lexicon polarity, antonyms vote flipped. A unanimous vote adopts the
word immediately (so later candidates see it as evidence), a split vote is
a conflict of synonyms and changes nothing, and an answer with no vote
routes the word to human review or, non-interactively, to a pending file.
"""

from __future__ import annotations

from contextlib import ExitStack
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Protocol

from .errors import ArasentError, ProviderError
from .fileio import read_rows
from .lexicon import LexiconEntry, SentimentLexicon, count_corpus_tokens
from .preprocess import PosTag, normalize_word
from .schema import Polarity

CANDIDATE_TAGS = frozenset({PosTag.JJ, PosTag.NN, PosTag.VB})

# Each answer a reviewer may give, and its verdict: a polarity, "reject"
# (onto the prevent list) or "skip" (into the pending file).
ANSWERS = {"p": Polarity.PO, "po": Polarity.PO, "n": Polarity.NG, "ng": Polarity.NG,
           "r": "reject", "reject": "reject", "s": "skip", "skip": "skip"}


class SynsetResult(NamedTuple):
    """Provider answer: optional translation plus synonym and antonym words."""

    translation: str | None = None
    synonyms: tuple[str, ...] = ()
    antonyms: tuple[str, ...] = ()


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
        with read_rows(path) as rows:
            for parts in rows:
                if not 1 <= len(parts) <= 4:
                    raise ValueError(f"expected 1-4 columns, got {len(parts)}")
                word, translation, synonyms, antonyms = parts + [""] * (4 - len(parts))
                word = normalize_word(word)
                result = SynsetResult(translation.strip() or None, _parse_word_list(synonyms),
                                      _parse_word_list(antonyms))
                if word in table:
                    raise ValueError(f"duplicate word {word!r}")
                table[word] = result
        return cls(table)

    def fetch(self, word: str) -> SynsetResult:
        return self._table.get(word, SynsetResult())


def _parse_word_list(text: str) -> tuple[str, ...]:
    """The normalized words of a comma-separated field; blank items are skipped."""
    items = (item.strip() for item in text.split(","))
    return tuple(normalize_word(item, f"word {item!r}") for item in items if item)


class Outcome(Enum):
    ADOPT = "ADOPT"
    COS = "COS"
    OOV = "OOV"


class OrientationDecision(NamedTuple):
    outcome: Outcome
    polarity: Polarity | None = None
    evidence: tuple[tuple[str, Polarity], ...] = ()


class ExpansionReport(NamedTuple):
    """The words of each outcome, in the order they were decided."""

    adopted: list[str]
    cos: list[str]
    oov_pending: list[str]
    oov_accepted: list[str]
    oov_rejected: list[str]
    errors: list[tuple[str, str]]

    def counts(self) -> dict[str, int]:
        """How many words each outcome holds, by field name."""
        return {name: len(words) for name, words in zip(self._fields, self)}


def detect_orientation(syn: SynsetResult, lex: SentimentLexicon) -> OrientationDecision:
    """Classify a candidate by its synonym/antonym votes.

    Synonyms vote with their lexicon polarity, antonyms vote flipped;
    neutral or unknown words abstain, and the translation never votes. An
    answer with no vote, an empty one included, is out-of-vocabulary.
    """
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


def _load_pending_words(path) -> set[str]:
    """The words of a pending file's rows, normalized; a row whose first
    column is not one word is a ParseError at its line."""
    if not Path(path).exists():
        return set()
    with read_rows(path) as rows:
        return {normalize_word(parts[0], "pending word") for parts in rows}


def _append_pending(pending, word: str) -> None:
    """Write one pending-review row to the open pending file; the traced
    benchmark counts these calls as ``expansion.pending_writes``."""
    pending.write(f"{word}\tPENDING\n")


def expand_lexicon(corpus, lex: SentimentLexicon, provider: SynsetProvider, *,
                   tags: Mapping[str, PosTag] = {},
                   stopwords: Iterable[str] = frozenset(),
                   pending_path=None,
                   ask: Callable[[str, SynsetResult], str] | None = None,
                   ) -> tuple[SentimentLexicon, ExpansionReport]:
    """Run the four expansion steps over a corpus.

    The candidates are the distinct words of the corpus that are no
    stopword, that ``tags`` tags JJ, NN or VB (a word it lacks is no
    candidate) and that the lexicon neither holds nor prevents; each is
    looked up once, in order of first occurrence, and an adopted word
    carries its count over the corpus as ``tf``.
    Adopted words are inserted immediately, so later candidates can use
    them as evidence. Provider errors skip the candidate (they are
    transient, not evidence that the word carries no sentiment).
    Out-of-vocabulary words go to ``pending_path``, unless an ``ask``
    callback is given: then it supplies the reviewer's answer, one of
    ``ANSWERS``. A polarity adds the word with an empty gloss and its corpus
    ``tf``, a reject puts it on the prevent list, a skip sends it to pending,
    and any other answer is an ``ArasentError``. ``lex`` itself is never
    changed: the grown copy is returned. The pending file gets one row per
    word it does not hold yet, in decision order; it is opened at the first
    such word and closed on every way out, an exception from ``ask``
    included, so the rows decided before an interrupted review are kept.
    """
    working = lex.copy()
    report = ExpansionReport([], [], [], [], [], [])
    # count_corpus_tokens keeps the order of first occurrence, and deleting
    # the stopwords leaves it as it is
    tf_counts = count_corpus_tokens(corpus)
    for word in set(stopwords).intersection(tf_counts):
        del tf_counts[word]
    candidates = [word for word in tf_counts
                  if word not in working and not working.is_prevented(word)
                  and tags.get(word) in CANDIDATE_TAGS]
    already_pending = _load_pending_words(pending_path) if pending_path else set()

    with ExitStack() as stack:
        pending = None
        for word in candidates:
            try:
                syn = provider.fetch(word)
            except ProviderError as exc:
                report.errors.append((word, str(exc)))
                continue
            decision = detect_orientation(syn, working)
            if decision.outcome is Outcome.ADOPT:
                working.add(LexiconEntry(word, decision.polarity, gloss=syn.translation or "",
                                         tf=tf_counts[word]))
                report.adopted.append(word)
            elif decision.outcome is Outcome.COS:
                report.cos.append(word)
            else:
                answer = ask(word, syn) if ask else "skip"
                verdict = ANSWERS.get(answer.strip().lower())
                if verdict is None:
                    raise ArasentError(f"expected p, n or r, got {answer!r}")
                if verdict == "skip":
                    report.oov_pending.append(word)
                    if pending_path and word not in already_pending:
                        if pending is None:
                            # under review, line buffering puts each row on disk as decided
                            pending = stack.enter_context(open(
                                pending_path, "a", encoding="utf-8", newline="\n",
                                buffering=1 if ask else -1))
                        _append_pending(pending, word)
                        already_pending.add(word)
                    continue
                if verdict == "reject":
                    working.add_prevent(word)
                    report.oov_rejected.append(word)
                else:
                    working.add(LexiconEntry(word, verdict, tf=tf_counts[word]))
                    report.oov_accepted.append(word)

    return working, report

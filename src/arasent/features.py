"""Feature extraction: idiom masking, valence shifting, position weighting,
cue detection, conflict phrases, and the rule-based net-score baseline.

The feature schema is fixed at 17 slots; slot indices are frozen for the
lifetime of any trained model. A feature vector is a plain tuple of the 17
slot values as floats, slot ``s`` at index ``s - 1``; the SVM-light file
holds only its nonzero slots.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple

from .errors import ArasentError
from .lexicon import IdiomLexicon, Polarity, SentimentLexicon
from .preprocess import (
    NG_MASK,
    PO_MASK,
    PosTag,
    load_stopwords,
    preprocess,
)

SCHEMA_VERSION = 1
N_SLOTS = 17

HAS_PO_SENTI = 1
HAS_NG_SENTI = 2
HAS_PO_PH = 3
HAS_NG_PH = 4
W_PO = 5
W_NG = 6
W_NU = 7
PO_W_POSITION = 8
NG_W_POSITION = 9
NO_OF_WORDS = 10
IS_NEGATION = 11
N_O_NEGATION = 12
IS_QUESTION = 13
N_O_QUESTION = 14
IS_WISHFUL = 15
N_O_WISHFUL = 16
N_O_CONFLICT = 17

SLOT_NAMES = dict(enumerate((
    "has_PO_senti", "has_NG_senti", "has_PO_ph", "has_NG_ph", "W_PO", "W_NG", "W_NU",
    "PO_W_Position", "NG_W_Position", "No_of_words", "Is_Negation", "N_O_Negation",
    "Is_Question", "N_O_Question", "Is_wishful", "N_O_wishful", "N_O_Conflict"), start=1))

DEFAULT_NEGATION_WINDOW = 3
DEFAULT_INTENSIFIER_WINDOW = 2


class CueLists(NamedTuple):
    """Valence shifter and cue term sets, normalized on load."""

    negators: frozenset[str] = frozenset()
    intensifiers: frozenset[str] = frozenset()
    question_terms: frozenset[str] = frozenset()
    wishful_terms: frozenset[str] = frozenset()

    @classmethod
    def load(cls, negators, intensifiers, questions, wishful) -> "CueLists":
        """Each list in the stopword-list format: one term per line, ``#``
        comments."""
        return cls(
            negators=load_stopwords(negators),
            intensifiers=load_stopwords(intensifiers),
            question_terms=load_stopwords(questions),
            wishful_terms=load_stopwords(wishful),
        )


# The rules work on one sentence held as a list of words, the lexicon value
# of each (+1, -1, 0 for NU, None for unknown words and masks) and the
# positions of the words with a nonzero value: only those can be shifted,
# resolved or weighted.
_SIGN = {Polarity.PO: 1, Polarity.NG: -1, Polarity.NU: 0}
_CONFLICT_TAGS = {PosTag.NN, PosTag.JJ}


def _mask_phrases(words, idioms: IdiomLexicon):
    """Collapse each leftmost-longest idiom match into one mask word; returns
    the new words and the (PO, NG) phrase counts."""
    out, counts = [], {Polarity.PO: 0, Polarity.NG: 0}
    i = 0
    while i < len(words):
        hit = idioms.match_at(words, i)
        if hit is None:
            out.append(words[i])
            i += 1
        else:
            counts[hit.polarity] += 1
            out.append(PO_MASK if hit.polarity is Polarity.PO else NG_MASK)
            i += len(hit.phrase)
    return out, counts[Polarity.PO], counts[Polarity.NG]


def _resolve_conflicts(words, hits, shifted, tag_of) -> int:
    """Resolves, in place in ``shifted`` (the values of the words at ``hits``),
    each pair of adjacent words of opposite sign tagged noun and adjective;
    returns their number."""
    count = k = 0
    while k < len(hits) - 1:
        i = hits[k]
        if (hits[k + 1] == i + 1 and shifted[k] * shifted[k + 1] < 0
                and {tag_of(words[i]), tag_of(words[i + 1])} == _CONFLICT_TAGS):
            count += 1
            shifted[k], shifted[k + 1] = -1, 0
            k += 2
        else:
            k += 1
    return count


def _placed(hits, values, n) -> list[int]:
    """The values of the words at ``hits`` spread over a sentence of ``n`` words."""
    out = [0] * n
    for i, value in zip(hits, values):
        out[i] = value
    return out


class SentenceTrace(NamedTuple):
    """One sentence as the walk leaves it, in parallel lists."""

    words: list[str]               # after stopword removal and idiom masking
    tags: list[PosTag]
    values: list[int | None]       # lexicon value: +1, -1, 0 for NU, None if unknown
    shifted: list[int]             # after negation flips and intensifier doubling
    resolved: list[int]            # after conflict resolution


class Analyzer:
    """Featurizes topics in one walk per sentence over plain lists.

    Built once from the resources, it sees the lexicon (kept as a word ->
    {+1, -1, 0} map), the word -> tag table and the idioms as they were then;
    words missing from the tag table are tagged OTHER. Read-only, so safe to
    share across threads."""

    def __init__(self, lex: SentimentLexicon, idioms: IdiomLexicon, cues: CueLists, *,
                 stopwords: Iterable[str] = frozenset(), tags: Mapping[str, PosTag] = {},
                 negation_window: int = DEFAULT_NEGATION_WINDOW,
                 intensifier_window: int = DEFAULT_INTENSIFIER_WINDOW):
        self.idioms, self.cues = idioms, cues
        self.stopwords = frozenset(stopwords)
        for entry in idioms:  # stopwords are dropped before masking
            for word in self.stopwords.intersection(entry.phrase):
                raise ArasentError(f"idiom {' '.join(entry.phrase)!r} contains the "
                                   f"stopword {word!r}, so it can never match")
        self.tags = dict(tags)
        self.windows = (negation_window, intensifier_window)
        self._values = {entry.word: _SIGN[entry.polarity] for entry in lex}
        self._idiom_starts = frozenset(entry.phrase[0] for entry in idioms)

    def _walk(self, text: str, sink: list | None = None):
        """The feature vector and net score of a topic; ``sink`` also gets
        each sentence's trace."""
        cues, values, tag_of, other = self.cues, self._values, self.tags.get, PosTag.OTHER
        negators, intensifiers = cues.negators, cues.intensifiers
        negation_window, intensifier_window = self.windows
        w_po = w_ng = w_nu = n_words = po_ph = ng_ph = conflicts = net = 0
        negations = questions = wishes = 0
        po_pos = ng_pos = 0.0
        for words in preprocess(text, self.stopwords):
            if not self._idiom_starts.isdisjoint(words):
                words, po, ng = _mask_phrases(words, self.idioms)
                po_ph += po
                ng_ph += ng
            n = len(words)
            n_words += n
            bases = list(map(values.get, words))
            w_nu += bases.count(0)  # NU words always keep a 0 value
            hits = [i for i, base in enumerate(bases) if base]
            negated = None
            if not negators.isdisjoint(words):
                negated = list(map(negators.__contains__, words))
                negations += sum(negated)
            questions += sum(map(cues.question_terms.__contains__, words))
            wishes += sum(map(cues.wishful_terms.__contains__, words))
            has_intensifier = not intensifiers.isdisjoint(words)
            shifted = []
            for i in hits:
                value = bases[i]
                if negated and sum(negated[max(0, i - negation_window):i]) % 2:
                    value = -value
                if has_intensifier and not intensifiers.isdisjoint(
                        words[i + 1:i + 1 + intensifier_window]):
                    value *= 2
                shifted.append(value)
            net += sum(shifted)
            unresolved = shifted[:] if sink is not None else None
            if len(hits) > 1:
                conflicts += _resolve_conflicts(words, hits, shifted, tag_of)
            for i, value in zip(hits, shifted):
                if value > 0:
                    w_po += value
                    po_pos += n / (i + 1)
                elif value < 0:
                    w_ng -= value
                    ng_pos += n / (i + 1)
            if sink is not None:
                sink.append(SentenceTrace(words, [tag_of(w, other) for w in words], bases,
                                          _placed(hits, unresolved, n), _placed(hits, shifted, n)))
        vector = tuple(map(float, (  # in slot order, HAS_PO_SENTI to N_O_CONFLICT
            w_po > 0, w_ng > 0, po_ph > 0, ng_ph > 0, w_po, w_ng, w_nu, po_pos, ng_pos,
            n_words, negations > 0, negations, questions > 0, questions, wishes > 0, wishes,
            conflicts)))
        return vector, net + 3 * po_ph - 3 * ng_ph

    def vector(self, text: str) -> tuple[float, ...]:
        """The feature vector of one topic: slot ``s`` at index ``s - 1``."""
        return self._walk(text)[0]

    def rule_score(self, text: str) -> tuple[float, Polarity]:
        """Rule-based net score: shifted word values in [-2, +2] plus +-3 per
        masked phrase. The label is the sign of the net score."""
        net = self._walk(text)[1]
        return float(net), Polarity.PO if net > 0 else Polarity.NG if net < 0 else Polarity.NU

    def analyze(self, text: str) -> list[SentenceTrace]:
        """What the walk decided for each word, one row per sentence."""
        sink: list[SentenceTrace] = []
        self._walk(text, sink)
        return sink

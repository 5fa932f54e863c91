"""Frozen reference of the per-token featurization pipeline.

This is the composition of per-token stages that featurized topics before
the one-pass ``features.Analyzer``: every stage builds fresh
``Token``/``ScoredToken`` objects, every sentence is tagged through a tagger
object, and normalization runs one regular expression per step. It stays
here, unoptimized and with its own copies of the token types and of the
table tagger, so that differential tests can check the analyzer against it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from arasent.features import (
    HAS_NG_PH,
    HAS_NG_SENTI,
    HAS_PO_PH,
    HAS_PO_SENTI,
    IS_NEGATION,
    IS_QUESTION,
    IS_WISHFUL,
    N_O_CONFLICT,
    N_O_NEGATION,
    N_O_QUESTION,
    N_O_WISHFUL,
    NG_W_POSITION,
    NO_OF_WORDS,
    PO_W_POSITION,
    W_NG,
    W_NU,
    W_PO,
)
from arasent.lexicon import Polarity
from arasent.preprocess import (
    MASK_TOKENS,
    NG_MASK,
    PO_MASK,
    PosTag,
    split_sentences,
)

_CHAR_MAP = str.maketrans({"أ": "ا", "إ": "ا", "آ": "ا", "ٱ": "ا", "ى": "ي"})
_DIACRITICS_RE = re.compile("[\u064b-\u065f\u0670\u06d6-\u06ed\u0640]")
_DROP_RE = re.compile("[^\u0621-\u063a\u0641-\u064a.!?\u061f\u061b\\s]+")
_SPACE_RE = re.compile(r"[^\S\n]+")
_NEWLINE_RE = re.compile(r"\s*\n\s*")
_TOKEN_RE = re.compile(f"{NG_MASK}|{PO_MASK}|[ء-غف-ي]+")


@dataclass(frozen=True)
class Token:
    surface: str
    position: int  # 1-based within its sentence
    tag: PosTag = PosTag.OTHER


@dataclass
class Sentence:
    tokens: list[Token] = field(default_factory=list)

    @property
    def word_count(self):
        return len(self.tokens)

    def surfaces(self):
        return [t.surface for t in self.tokens]


@dataclass
class ScoredToken:
    token: Token
    base: int        # -1, 0, +1 from lexicon polarity
    adjusted: int    # after negation flip and intensifier doubling
    neutral: bool = False  # True when the lexicon marks the word NU


@dataclass
class TopicAnalysis:
    sentences: list[Sentence]            # post-stopword, post-mask
    raw_scores: list[list[ScoredToken]]  # shifted values, pre-conflict
    scores: list[list[ScoredToken]]      # after conflict resolution
    po_phrases: int
    ng_phrases: int
    conflicts: int
    negator_count: int
    question_count: int
    wishful_count: int

    @property
    def word_count(self):
        return sum(s.word_count for s in self.sentences)


class TableTagger:
    """Word-to-tag lookup with an OTHER fallback for unknown words."""

    def __init__(self, table: Mapping[str, PosTag] | None = None):
        self._table = dict(table or {})

    def tag(self, words: Sequence[str]) -> list[PosTag]:
        return [self._table.get(w, PosTag.OTHER) for w in words]


def normalize_text(raw):
    text = raw.translate(_CHAR_MAP)
    text = _DIACRITICS_RE.sub("", text)
    text = _DROP_RE.sub(" ", text)
    text = _SPACE_RE.sub(" ", text)
    text = _NEWLINE_RE.sub("\n", text)
    return text.strip()


def tokenize(sentence):
    words = _TOKEN_RE.findall(sentence)
    return Sentence([Token(w, i + 1) for i, w in enumerate(words)])


def remove_stopwords(s, stoplist):
    stop = set(stoplist)
    kept = [t for t in s.tokens if t.surface in MASK_TOKENS or t.surface not in stop]
    return Sentence([replace(t, position=i + 1) for i, t in enumerate(kept)])


def pos_tag(s, tagger):
    tags = list(tagger.tag(s.surfaces()))
    assert len(tags) == len(s.tokens)
    return Sentence([replace(t, tag=tag) for t, tag in zip(s.tokens, tags)])


def mask_idioms(sentences, idioms):
    po = ng = 0
    out = []
    for s in sentences:
        surfaces = s.surfaces()
        kept = []
        i = 0
        while i < len(surfaces):
            hit = idioms.match_at(surfaces, i)
            if hit is not None:
                if hit.polarity is Polarity.PO:
                    kept.append(PO_MASK)
                    po += 1
                else:
                    kept.append(NG_MASK)
                    ng += 1
                i += len(hit.phrase)
            else:
                kept.append(s.tokens[i])
                i += 1
        tokens = []
        for pos, item in enumerate(kept, start=1):
            if isinstance(item, str):
                tokens.append(Token(item, pos))
            else:
                tokens.append(replace(item, position=pos))
        out.append(Sentence(tokens))
    return out, (po, ng)


def score_tokens(s, lex, cues, negation_window, intensifier_window):
    toks = s.tokens
    scored = []
    for i, tok in enumerate(toks):
        if tok.surface in MASK_TOKENS:
            scored.append(ScoredToken(tok, 0, 0))
            continue
        entry = lex.lookup(tok.surface)
        if entry is None:
            scored.append(ScoredToken(tok, 0, 0))
            continue
        if entry.polarity is Polarity.NU:
            scored.append(ScoredToken(tok, 0, 0, neutral=True))
            continue
        base = 1 if entry.polarity is Polarity.PO else -1
        lo = max(0, i - negation_window)
        flips = sum(1 for p in toks[lo:i] if p.surface in cues.negators)
        adjusted = -base if flips % 2 else base
        trailing = toks[i + 1:i + 1 + intensifier_window]
        if any(n.surface in cues.intensifiers for n in trailing):
            adjusted *= 2
        scored.append(ScoredToken(tok, base, adjusted))
    return scored


def detect_conflict_phrases(s, scored):
    out = [replace(st) for st in scored]
    count = 0
    i = 0
    while i < len(out) - 1:
        a, b = out[i], out[i + 1]
        tags = {a.token.tag, b.token.tag}
        if tags == {PosTag.NN, PosTag.JJ} and a.adjusted * b.adjusted < 0:
            count += 1
            a.adjusted = -1
            b.adjusted = 0
            i += 2
        else:
            i += 1
    return count, out


def analyze_topic(text, lex, idioms, cues, stopwords=frozenset(), tagger=None,
                  negation_window=3, intensifier_window=2):
    tagger = tagger if tagger is not None else TableTagger()
    stop = set(stopwords)
    sentences = []
    for raw_sentence in split_sentences(normalize_text(text)):
        s = tokenize(raw_sentence)
        if stop:
            s = remove_stopwords(s, stop)
        sentences.append(pos_tag(s, tagger))
    sentences, (po_ph, ng_ph) = mask_idioms(sentences, idioms)

    raw_scores = []
    scores = []
    conflicts = 0
    for s in sentences:
        raw = score_tokens(s, lex, cues, negation_window, intensifier_window)
        n, resolved = detect_conflict_phrases(s, raw)
        conflicts += n
        raw_scores.append(raw)
        scores.append(resolved)

    negators = questions = wishes = 0
    for s in sentences:
        for tok in s.tokens:
            if tok.surface in cues.negators:
                negators += 1
            if tok.surface in cues.question_terms:
                questions += 1
            if tok.surface in cues.wishful_terms:
                wishes += 1

    return TopicAnalysis(sentences, raw_scores, scores, po_ph, ng_ph,
                         conflicts, negators, questions, wishes)


def extract_features(text, lex, idioms, cues, **kw):
    a = analyze_topic(text, lex, idioms, cues, **kw)
    w_po = w_ng = w_nu = 0
    po_pos = ng_pos = 0.0
    for sentence, scored in zip(a.sentences, a.scores):
        words = sentence.word_count
        for st in scored:
            if st.adjusted > 0:
                w_po += st.adjusted
                po_pos += words / st.token.position
            elif st.adjusted < 0:
                w_ng += -st.adjusted
                ng_pos += words / st.token.position
            elif st.neutral:
                w_nu += 1

    v = {}
    v[HAS_PO_SENTI] = 1 if w_po > 0 else 0
    v[HAS_NG_SENTI] = 1 if w_ng > 0 else 0
    v[HAS_PO_PH] = 1 if a.po_phrases > 0 else 0
    v[HAS_NG_PH] = 1 if a.ng_phrases > 0 else 0
    v[W_PO] = w_po
    v[W_NG] = w_ng
    v[W_NU] = w_nu
    v[PO_W_POSITION] = po_pos
    v[NG_W_POSITION] = ng_pos
    v[NO_OF_WORDS] = a.word_count
    v[IS_NEGATION] = 1 if a.negator_count else 0
    v[N_O_NEGATION] = a.negator_count
    v[IS_QUESTION] = 1 if a.question_count else 0
    v[N_O_QUESTION] = a.question_count
    v[IS_WISHFUL] = 1 if a.wishful_count else 0
    v[N_O_WISHFUL] = a.wishful_count
    v[N_O_CONFLICT] = a.conflicts
    return tuple(float(v[slot]) for slot in sorted(v))


def lexicon_rule_score(text, lex, idioms, cues, **kw):
    a = analyze_topic(text, lex, idioms, cues, **kw)
    net = 0.0
    for scored in a.raw_scores:
        for st in scored:
            net += max(-2, min(2, st.adjusted))
    net += 3 * a.po_phrases - 3 * a.ng_phrases
    if net > 0:
        label = Polarity.PO
    elif net < 0:
        label = Polarity.NG
    else:
        label = Polarity.NU
    return net, label

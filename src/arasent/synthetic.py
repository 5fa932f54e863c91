"""Deterministic synthetic corpus over the packaged word lists.

The files under ``arasent/data`` are the one copy of the word lists: the
seed and full lexicons, the tag table, the idioms, the stopword and cue
lists and the synset fixture. This module reads all but the synset fixture
at import, through the package's own loaders, into the tables below, and
builds from them short MSA/Egyptian-dialect topics whose gold labels are
known by construction (plain, negated, intensified, idiom-bearing,
conflict-bearing, question and supplication topics). ``write_data_files``
regenerates the files the generator decides: the corpus and the two
lexicons, whose ``tf`` columns count the corpus. The other files are
edited by hand.
"""

from __future__ import annotations

import random
from itertools import cycle
from pathlib import Path

from .evaluation import Topic, save_corpus
from .fileio import read_terms
from .lexicon import (
    load_idiom_lexicon,
    load_sentiment_lexicon,
    save_sentiment_lexicon,
    update_term_frequencies,
)
from .preprocess import load_tag_table
from .resources import data_path
from .schema import Polarity

PO = Polarity.PO
NG = Polarity.NG
NU = Polarity.NU

_SEED = load_sentiment_lexicon(data_path("lexicon_seed.tsv"))
_FULL = load_sentiment_lexicon(data_path("lexicon.tsv"))
_TAGS = {word: tag.value for word, tag in load_tag_table(data_path("tags.tsv")).items()}

# (word, polarity, tag, gloss, buckwalter) of each seed-lexicon word
VOCAB = [(e.word, e.polarity, _TAGS[e.word], e.gloss, e.translit) for e in _SEED]

# (word, polarity, tag, gloss) of each word the seed lexicon withholds; the
# synset fixture recovers each one from unanimous seed-word synonyms.
HELDOUT = [(e.word, e.polarity, _TAGS[e.word], e.gloss) for e in _FULL if e.word not in _SEED]

# words that carry the walkthrough but belong to no lexicon; they still need
# tags to become expansion candidates
EXTRA_TAGGED = {word: tag for word, tag in _TAGS.items() if word not in _FULL}

# (phrase, polarity, gloss)
IDIOMS = [(" ".join(e.phrase), e.polarity, e.gloss)
          for e in load_idiom_lexicon(data_path("idioms.tsv"))]


def _terms(name: str) -> list[str]:
    """The words of the word-per-line file ``name``, as stored and in order."""
    with read_terms(data_path(name)) as terms:
        return list(terms)


STOPWORDS = _terms("stopwords.txt")
NEGATORS = _terms("negators.txt")
INTENSIFIERS = _terms("intensifiers.txt")
QUESTIONS = _terms("questions.txt")
WISHFUL = _terms("wishful.txt")


GENRES = ("tweet", "hotel", "product", "tv")

_SHARED_FILLERS = ["المكان", "الناس", "اليوم", "الموضوع", "حاجة", "شوية",
                   "فعلا", "كده", "بصراحة", "بجد", "يعني"]
_GENRE_FILLERS = {
    "tweet": ["الحكومة", "الوزير", "القرار", "البلد", "الاخبار"],
    "hotel": ["الفندق", "الغرفة", "الاستقبال", "السرير", "المطعم", "الاقامة"],
    "product": ["المنتج", "التوصيل", "التغليف", "السعر", "الجهاز", "الشركة"],
    "tv": ["البرنامج", "الحلقة", "المسلسل", "المقدم", "القناة", "القصة"],
}

# noun/adjective pairs of opposite polarity for conflict topics
CONFLICT_PAIRS = [("خدمة", "سيئة"), ("فساد", "اخلاقي"), ("سعادة", "وهمية")]

# The corpus draws its sentiment signals from these fixed pools. Together
# with the ten held-out words they make 50 distinct sentiment words, so the
# seed lexicon withholds exactly 20% of the corpus sentiment vocabulary.
CORPUS_PO = [
    "رائع", "جميل", "ممتاز", "لطيف", "مريح", "نظيف", "سريع", "طيب",
    "مبهج", "فاخر", "رائعة", "جميلة", "ممتازة", "خدمة", "سعادة", "نجاح",
    "امانة", "اخلاقي", "احب", "استمتع",
]
CORPUS_NG = [
    "سيء", "قذر", "بطيء", "مزعج", "مقرف", "ممل", "وسخ", "رديء",
    "كئيب", "وقح", "سيئة", "قذرة", "مملة", "وهمية", "فشل", "ملل",
    "فساد", "زحمة", "اكره", "ندمت",
]


def _words(polarity):
    return CORPUS_PO if polarity is PO else CORPUS_NG


def heldout_words(polarity=None):
    return [w for w, p, _, _ in HELDOUT if polarity is None or p is polarity]


def _fillers(rng, genre, n):
    pool = _SHARED_FILLERS + _GENRE_FILLERS[genre]
    return rng.sample(pool, n)


def _finish(rng, words):
    text = " ".join(words) + rng.choice(["", "", ".", "!", "!!"])
    if rng.random() < 0.2:
        text += rng.choice([" 123", " :)", ""])
    return text


def _plain(rng, genre, polarity):
    signal = rng.sample(_words(polarity), rng.choice([1, 1, 2]))
    f = _fillers(rng, genre, 2)
    words = [f[0]] + [signal[0]]
    if len(signal) == 2:
        words += [f[1], signal[1]]
    else:
        words.append(f[1])
    return _finish(rng, words), polarity


def _negated(rng, genre, polarity):
    word = rng.choice(_words(polarity))
    f = _fillers(rng, genre, 2)
    words = [f[0], rng.choice(NEGATORS), word, f[1]]
    return _finish(rng, words), polarity.flipped()


def _intensified(rng, genre, polarity):
    word = rng.choice(_words(polarity))
    f = _fillers(rng, genre, 2)
    words = [f[0], word, rng.choice(INTENSIFIERS), f[1]]
    return _finish(rng, words), polarity


def _idiom(rng, genre, polarity):
    phrase = rng.choice([p for p, pol, _ in IDIOMS if pol is polarity])
    f = _fillers(rng, genre, 2)
    words = [f[0], f[1]] + phrase.split()
    return _finish(rng, words), polarity


def _conflict(rng, genre):
    noun, adj = rng.choice(CONFLICT_PAIRS)
    f = _fillers(rng, genre, 2)
    words = [f[0], noun, adj, f[1]]
    return _finish(rng, words), NG


def _question(rng, genre):
    word = rng.choice(_words(NG))
    words = [rng.choice(QUESTIONS), rng.choice(_fillers(rng, genre, 1)), word]
    return _finish(rng, words), NG


def _wishful(rng, genre):
    word = rng.choice(_words(NG))
    words = [rng.choice(WISHFUL), rng.choice(_fillers(rng, genre, 1)), word]
    return _finish(rng, words), NG


def _heldout(rng, genre, word, polarity):
    f = _fillers(rng, genre, 2)
    words = [f[0], word, f[1]]
    return _finish(rng, words), polarity


def sample_corpus(seed: int = 42) -> list[Topic]:
    """200 topics, 50 per genre, with programmatically known gold labels."""
    rng = random.Random(seed)
    # round-robin so every held-out word occurs in the corpus
    held_po = cycle(heldout_words(PO))
    held_ng = cycle(heldout_words(NG))
    topics = []
    for genre in GENRES:
        recipe = (
            [lambda r, g: _plain(r, g, PO)] * 10
            + [lambda r, g: _plain(r, g, NG)] * 10
            + [lambda r, g: _negated(r, g, PO)] * 5
            + [lambda r, g: _negated(r, g, NG)] * 4
            + [lambda r, g: _intensified(r, g, PO)] * 4
            + [lambda r, g: _intensified(r, g, NG)] * 4
            + [lambda r, g: _idiom(r, g, PO)] * 2
            + [lambda r, g: _idiom(r, g, NG)] * 2
            + [_conflict] * 2
            + [_question] * 2
            + [_wishful] * 1
            + [lambda r, g: _heldout(r, g, next(held_po), PO)] * 2
            + [lambda r, g: _heldout(r, g, next(held_ng), NG)] * 2
        )
        built = [make(rng, genre) for make in recipe]
        rng.shuffle(built)
        for i, (text, gold) in enumerate(built):
            topics.append(Topic(f"{genre}-{i:03d}", text, gold, genre))
    return topics


def write_data_files(directory) -> None:
    """Write ``corpus.jsonl``, ``lexicon.tsv`` and ``lexicon_seed.tsv`` into
    ``directory``, each lexicon with its ``tf`` column counted on the corpus
    and its ``.prevent`` sidecar."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    corpus = sample_corpus()
    save_corpus(corpus, directory / "corpus.jsonl")

    for name, lex in (("lexicon.tsv", _FULL), ("lexicon_seed.tsv", _SEED)):
        save_sentiment_lexicon(update_term_frequencies(lex, corpus), directory / name)

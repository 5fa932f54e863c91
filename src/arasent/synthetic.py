"""Deterministic synthetic corpus and fixture resources.

The generator builds short MSA/Egyptian-dialect topics whose gold labels
are known by construction (plain, negated, intensified, idiom-bearing,
conflict-bearing, question and supplication topics). The same word tables
also produce the packaged lexicon, tag table, cue lists and synset fixture,
so every shipped resource stays consistent. ``write_data_files`` regenerates
the whole data directory byte for byte.
"""

from __future__ import annotations

import random
from itertools import cycle
from pathlib import Path

from .lexicon import (
    LexiconEntry,
    Polarity,
    SentimentLexicon,
    save_sentiment_lexicon,
    update_term_frequencies,
)
from .evaluation import Topic, save_corpus
from .fileio import atomic_write

PO = Polarity.PO
NG = Polarity.NG
NU = Polarity.NU

# (word, polarity, tag, gloss, buckwalter) -- words are already normalized
VOCAB = [
    # positive adjectives
    ("رائع", PO, "JJ", "wonderful", ""),
    ("رائعة", PO, "JJ", "wonderful", ""),
    ("جميل", PO, "JJ", "beautiful", "jmyl"),
    ("جميلة", PO, "JJ", "beautiful", ""),
    ("ممتاز", PO, "JJ", "excellent", ""),
    ("ممتازة", PO, "JJ", "excellent", ""),
    ("لطيف", PO, "JJ", "nice", ""),
    ("لطيفة", PO, "JJ", "nice", ""),
    ("مريح", PO, "JJ", "comfortable", ""),
    ("مريحة", PO, "JJ", "comfortable", ""),
    ("نظيف", PO, "JJ", "clean", ""),
    ("نظيفة", PO, "JJ", "clean", ""),
    ("سريع", PO, "JJ", "fast", ""),
    ("سريعة", PO, "JJ", "fast", ""),
    ("طيب", PO, "JJ", "kind", ""),
    ("مبهج", PO, "JJ", "cheerful", ""),
    ("مبهجة", PO, "JJ", "cheerful", ""),
    ("فاخر", PO, "JJ", "luxurious", ""),
    ("ودود", PO, "JJ", "friendly", ""),
    ("انيق", PO, "JJ", "elegant", ""),
    ("حلو", PO, "JJ", "sweet", ""),
    ("حلوة", PO, "JJ", "sweet", ""),
    ("عظيم", PO, "JJ", "great", ""),
    ("عظيمة", PO, "JJ", "great", ""),
    ("مفيد", PO, "JJ", "useful", ""),
    ("مفيدة", PO, "JJ", "useful", ""),
    ("ممتع", PO, "JJ", "enjoyable", ""),
    ("ممتعة", PO, "JJ", "enjoyable", ""),
    ("محترم", PO, "JJ", "respectable", ""),
    ("محترمة", PO, "JJ", "respectable", ""),
    ("صادق", PO, "JJ", "honest", ""),
    ("امين", PO, "JJ", "trustworthy", ""),
    ("كريم", PO, "JJ", "generous", ""),
    ("شجاع", PO, "JJ", "brave", ""),
    ("ذكي", PO, "JJ", "smart", ""),
    ("هايل", PO, "JJ", "", ""),   # dialect: terrific
    ("هايلة", PO, "JJ", "", ""),
    ("جامد", PO, "JJ", "", ""),   # dialect: awesome
    ("جامدة", PO, "JJ", "", ""),
    ("اخلاقي", PO, "JJ", "moral", ""),
    # negative adjectives
    ("سيء", NG, "JJ", "bad", ""),
    ("سيئة", NG, "JJ", "bad", ""),
    ("قذر", NG, "JJ", "dirty", ""),
    ("قذرة", NG, "JJ", "dirty", ""),
    ("بطيء", NG, "JJ", "slow", ""),
    ("بطيئة", NG, "JJ", "slow", ""),
    ("مزعج", NG, "JJ", "annoying", ""),
    ("مزعجة", NG, "JJ", "annoying", ""),
    ("مقرف", NG, "JJ", "disgusting", ""),
    ("مقرفة", NG, "JJ", "disgusting", ""),
    ("ممل", NG, "JJ", "boring", ""),
    ("مملة", NG, "JJ", "boring", ""),
    ("وسخ", NG, "JJ", "filthy", ""),
    ("رديء", NG, "JJ", "lousy", ""),
    ("رديئة", NG, "JJ", "lousy", ""),
    ("كئيب", NG, "JJ", "gloomy", ""),
    ("كئيبة", NG, "JJ", "gloomy", ""),
    ("وقح", NG, "JJ", "rude", ""),
    ("حزين", NG, "JJ", "sad", ""),
    ("غالي", NG, "JJ", "overpriced", ""),
    ("فاشل", NG, "JJ", "failing", ""),
    ("فاشلة", NG, "JJ", "failing", ""),
    ("غبي", NG, "JJ", "stupid", ""),
    ("غبية", NG, "JJ", "stupid", ""),
    ("بايظ", NG, "JJ", "", ""),   # dialect: broken
    ("بايظة", NG, "JJ", "", ""),
    ("مزيف", NG, "JJ", "fake", ""),
    ("مزيفة", NG, "JJ", "fake", ""),
    ("وهمية", NG, "JJ", "fake", ""),
    ("مهين", NG, "JJ", "humiliating", ""),
    ("مزري", NG, "JJ", "deplorable", ""),
    ("بائس", NG, "JJ", "miserable", ""),
    ("محبط", NG, "JJ", "frustrating", ""),
    ("محبطة", NG, "JJ", "frustrating", ""),
    ("مرعب", NG, "JJ", "terrifying", ""),
    ("مرعبة", NG, "JJ", "terrifying", ""),
    ("خايب", NG, "JJ", "", ""),   # dialect: disappointing
    ("خايبة", NG, "JJ", "", ""),
    ("وحش", NG, "JJ", "", ""),    # dialect: bad
    ("وحشة", NG, "JJ", "", ""),
    # positive nouns
    ("نجاح", PO, "NN", "success", ""),
    ("سعادة", PO, "NN", "happiness", ""),
    ("راحة", PO, "NN", "comfort", ""),
    ("امانة", PO, "NN", "honesty", ""),
    ("جمال", PO, "NN", "beauty", ""),
    ("كرم", PO, "NN", "generosity", ""),
    ("خدمة", PO, "NN", "favor", ""),
    ("حب", PO, "NN", "love", ""),
    ("خير", PO, "NN", "goodness", ""),
    ("متعة", PO, "NN", "pleasure", ""),
    ("بهجة", PO, "NN", "delight", ""),
    ("فرحة", PO, "NN", "joy", ""),
    ("نظافة", PO, "NN", "cleanliness", ""),
    ("سرعة", PO, "NN", "speed", ""),
    ("ذوق", PO, "NN", "good taste", ""),
    ("احترام", PO, "NN", "respect", ""),
    ("اتقان", PO, "NN", "mastery", ""),
    ("ابداع", PO, "NN", "creativity", ""),
    ("روعة", PO, "NN", "magnificence", ""),
    ("تحفة", PO, "NN", "", ""),   # dialect: masterpiece
    # negative nouns
    ("فشل", NG, "NN", "failure", ""),
    ("ملل", NG, "NN", "boredom", ""),
    ("ضجيج", NG, "NN", "noise", ""),
    ("فساد", NG, "NN", "corruption", ""),
    ("خيانة", NG, "NN", "betrayal", ""),
    ("اهمال", NG, "NN", "negligence", ""),
    ("زحمة", NG, "NN", "crowding", ""),
    ("غش", NG, "NN", "cheating", ""),
    ("قرف", NG, "NN", "disgust", ""),
    ("وساخة", NG, "NN", "filth", ""),
    ("تاخير", NG, "NN", "delay", ""),
    ("غلاء", NG, "NN", "high prices", ""),
    ("احتيال", NG, "NN", "fraud", ""),
    ("نصب", NG, "NN", "swindling", ""),
    ("خداع", NG, "NN", "deception", ""),
    ("كذب", NG, "NN", "lying", ""),
    ("بهدلة", NG, "NN", "", ""),  # dialect: shambles
    ("وجع", NG, "NN", "pain", ""),
    ("مصيبة", NG, "NN", "calamity", ""),
    ("كارثة", NG, "NN", "disaster", ""),
    ("عك", NG, "NN", "", ""),     # dialect: mess
    # positive verbs
    ("احب", PO, "VB", "to love", ""),
    ("اعجب", PO, "VB", "to admire", ""),
    ("استمتع", PO, "VB", "to enjoy", ""),
    ("انصح", PO, "VB", "to recommend", ""),
    ("عجبني", PO, "VB", "", ""),
    ("بهرني", PO, "VB", "", ""),
    ("اسعدني", PO, "VB", "", ""),
    ("ريحني", PO, "VB", "", ""),
    # negative verbs
    ("اكره", NG, "VB", "to hate", ""),
    ("ازعج", NG, "VB", "to disturb", ""),
    ("زهق", NG, "VB", "", ""),
    ("ندمت", NG, "VB", "to regret", ""),
    ("ضايقني", NG, "VB", "", ""),
    ("عصبني", NG, "VB", "", ""),
    ("خنقني", NG, "VB", "", ""),
    ("كرهت", NG, "VB", "to hate", ""),
    ("مللت", NG, "VB", "to get bored", ""),
    ("زهقت", NG, "VB", "", ""),
    # neutral words
    ("عادي", NU, "JJ", "ordinary", ""),
    ("متوسط", NU, "JJ", "average", ""),
    ("معقول", NU, "JJ", "reasonable", ""),
    ("محايد", NU, "JJ", "neutral", ""),
    # synonym vocabulary backing the synset fixture entries
    ("فرحان", PO, "JJ", "Pleased", "frHAn"),
    ("سعيد", PO, "JJ", "Happy", "sEyd"),
    ("مبتهج", PO, "JJ", "Glad", "mbthj"),
    ("قوي", PO, "JJ", "strong", "qwy"),
    ("حاد", PO, "JJ", "keen", "HAd"),
    ("عنيف", NG, "JJ", "violent", "Enyf"),
    ("تافه", NG, "JJ", "Fiddling", "tAfh"),
    ("ابله", NG, "JJ", "Idiot", "Ablh"),
    ("مستهتر", NG, "JJ", "Playboy", "msthtr"),
]

# Withheld from lexicon_seed.tsv; the synset fixture recovers each one from
# unanimous seed-word synonyms.
HELDOUT = [
    ("مدهش", PO, "JJ", "amazing"),
    ("ساحر", PO, "JJ", "charming"),
    ("فخم", PO, "JJ", "plush"),
    ("مذهل", PO, "JJ", "stunning"),
    ("عبقري", PO, "JJ", "brilliant"),
    ("بشع", NG, "JJ", "hideous"),
    ("شنيع", NG, "JJ", "atrocious"),
    ("مروع", NG, "JJ", "horrific"),
    ("مقزز", NG, "JJ", "revolting"),
    ("سخيف", NG, "JJ", "silly"),
]

# word -> (translation, synonyms, antonyms)
SYNSETS = {
    "مسرور": ("Delighted", ["فرحان", "سعيد", "مبتهج"], []),
    "شديد": ("Intense", ["قوي", "عنيف", "حاد"], []),
    "هايف": ("", [], []),
    "قبيح": ("Ugly", [], ["جميل", "رائع"]),
    "مدهش": ("amazing", ["رائع", "جميل", "ممتاز"], []),
    "ساحر": ("charming", ["جميل", "لطيف", "رائع"], []),
    "فخم": ("plush", ["فاخر", "انيق", "ممتاز"], []),
    "مذهل": ("stunning", ["رائع", "مبهج", "ممتاز"], []),
    "عبقري": ("brilliant", ["ممتاز", "رائع", "طيب"], []),
    "بشع": ("hideous", ["قذر", "مقرف", "رديء"], []),
    "شنيع": ("atrocious", ["رديء", "مزعج", "سيء"], []),
    "مروع": ("horrific", ["مزعج", "كئيب", "سيء"], []),
    "مقزز": ("revolting", ["مقرف", "قذر", "وسخ"], []),
    "سخيف": ("silly", ["ممل", "رديء", "تافه"], []),
}

# (phrase, polarity, gloss)
IDIOMS = [
    ("تسليم القط مفتاح الكرار", NG, "give the thief the key of the safe"),
    ("دموع التماسيح", NG, "crocodile tears"),
    ("قلبه ابيض", PO, "he bears no grudge"),
    ("قلبه اسود", NG, "he is spiteful"),
    ("دمه خفيف", PO, "he is funny"),
    ("دمه تقيل", NG, "he is tiresome"),
    ("زي العسل", PO, "like honey"),
    ("زي الفل", PO, "like jasmine, perfect"),
    ("فوق الوصف", PO, "beyond description"),
    ("تحت الصفر", NG, "below zero"),
]

STOPWORDS = [
    "في", "من", "الي", "علي", "عن", "مع", "بين", "بعد", "قبل", "عند",
    "لدي", "حتي", "اذا", "كما", "بعض", "كل", "اي", "هذا", "هذه", "ذلك",
    "تلك", "التي", "الذي", "ان", "او", "ثم", "قد", "لقد", "كان", "كانت",
    "يكون", "هو", "هي", "هم", "نحن", "انا", "انت", "لكن", "لان", "حيث",
    "منذ", "هنا", "هناك",
]

NEGATORS = ["لا", "ليس", "ليست", "لست", "لن", "لم", "مش", "بلا", "مو"]
INTENSIFIERS = ["جدا", "اوي", "بشدة", "خالص", "للغاية", "تماما", "كتير"]
QUESTIONS = ["هل", "اين", "متي", "لماذا", "كيف", "ماذا", "ليه", "ازاي",
             "فين", "امتي", "مين"]
WISHFUL = ["يارب", "اتمني", "ليت", "ياريت", "عسي", "اللهم"]

# words that carry the walkthrough but belong to no lexicon; they still need
# tags to become expansion candidates
EXTRA_TAGGED = {"مسرور": "JJ", "شديد": "JJ", "هايف": "JJ", "قبيح": "JJ"}

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


def full_vocab_lexicon(include_heldout: bool = True) -> SentimentLexicon:
    entries = [LexiconEntry(w, p, gloss, translit)
               for w, p, _, gloss, translit in VOCAB]
    if include_heldout:
        entries += [LexiconEntry(w, p, gloss) for w, p, _, gloss in HELDOUT]
    return SentimentLexicon(entries)


def write_data_files(directory) -> None:
    """Regenerate every packaged resource file deterministically."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    corpus = sample_corpus()
    save_corpus(corpus, directory / "corpus.jsonl")

    for name, include_heldout in (("lexicon.tsv", True), ("lexicon_seed.tsv", False)):
        lex = update_term_frequencies(full_vocab_lexicon(include_heldout), corpus)
        save_sentiment_lexicon(lex, directory / name)

    tags = [(word, tag) for word, _, tag, *_ in VOCAB + HELDOUT] + list(EXTRA_TAGGED.items())
    files = {
        "idioms.tsv": [f"{phrase}\t{polarity.value}\t{gloss}"
                       for phrase, polarity, gloss in IDIOMS],
        "stopwords.txt": STOPWORDS, "negators.txt": NEGATORS, "intensifiers.txt": INTENSIFIERS,
        "questions.txt": QUESTIONS, "wishful.txt": WISHFUL,
        "tags.tsv": [f"{word}\t{tag}" for word, tag in tags],
        "synsets.tsv": [f"{word}\t{translation}\t{','.join(syns)}\t{','.join(ants)}"
                        for word, (translation, syns, ants) in SYNSETS.items()],
    }
    for name, lines in files.items():
        with atomic_write(directory / name) as fh:
            fh.writelines(line + "\n" for line in lines)

"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import random
import time

import pytest

from arasent import classifier, expansion, features, resources
from arasent.classifier import LabeledVector
from arasent.evaluation import (
    SplitSpec,
    Topic,
    cohen_kappa,
    f_measure,
    load_corpus,
    split_corpus,
)
from arasent.expansion import FixtureProvider, Outcome, SynsetResult
from arasent.features import (
    Analyzer,
    HAS_NG_PH,
    N_O_CONFLICT,
    N_SLOTS,
    NG_W_POSITION,
    PO_W_POSITION,
    W_NG,
    W_PO,
)
from arasent.lexicon import (
    IdiomLexicon,
    LexiconEntry,
    Polarity,
    SentimentLexicon,
    load_sentiment_lexicon,
    save_sentiment_lexicon,
)
from arasent.preprocess import PosTag

PO, NG, NU = Polarity.PO, Polarity.NG, Polarity.NU

FILLERS = ["المكان", "الناس", "الموضوع", "اليوم", "حاجة", "شوية", "بصراحة"]


def report(n, text):
    print(f"\ncriterion {n:02d} PASS: {text}")


@pytest.fixture(scope="module")
def shipped():
    res = resources.load()
    return {
        "resources": res,
        "lexicon": res.lexicon,
        "idioms": res.idioms,
        "cues": res.cues,
        "stopwords": res.stopwords,
        "tags": res.word_tags,
        "corpus": load_corpus(resources.data_path("corpus.jsonl")),
    }


def test_criterion_01_f_measure_reproduction():
    rows = [
        (0.9331104, 0.9117647, 0.922314),
        (0.9431438, 0.9215686, 0.932231),
        (0.841804, 1.0, 0.9141085),
        (0.96, 1.0, 0.9795918),
        (1.0, 0.9333333, 0.9655172),
    ]
    for p, r, expected in rows:
        assert f_measure(p, r) == pytest.approx(expected, abs=1e-5)
    report(1, "reference precision/recall pairs reproduce F within 1e-3 points")


def test_criterion_02_expansion_walkthrough(tmp_path):
    lex = SentimentLexicon([
        LexiconEntry("فرحان", PO), LexiconEntry("سعيد", PO),
        LexiconEntry("مبتهج", PO), LexiconEntry("قوي", PO),
        LexiconEntry("عنيف", NG), LexiconEntry("حاد", PO),
    ])
    provider = FixtureProvider({
        "مسرور": SynsetResult("Delighted",
                              ("فرحان", "سعيد", "مبتهج")),
        "شديد": SynsetResult("Intense",
                             ("قوي", "عنيف", "حاد")),
    })
    tags = {w: PosTag.JJ for w in ("مسرور", "شديد", "هايف")}
    corpus = [Topic("t1", "الموظف مسرور"), Topic("t2", "الزحام شديد"),
              Topic("t3", "الفيلم هايف")]

    d = expansion.detect_orientation(provider.fetch("مسرور"), lex)
    assert d.outcome is Outcome.ADOPT and d.polarity is PO
    d = expansion.detect_orientation(provider.fetch("شديد"), lex)
    assert d.outcome is Outcome.COS
    d = expansion.detect_orientation(provider.fetch("هايف"), lex)
    assert d.outcome is Outcome.OOV

    grown, rep = expansion.expand_lexicon(corpus, lex, provider, tags=tags,
                                          pending_path=tmp_path / "pending.tsv")
    assert rep.adopted == ["مسرور"] and grown.lookup("مسرور").polarity is PO
    assert rep.cos == ["شديد"] and grown.lookup("شديد") is None
    assert rep.oov_pending == ["هايف"]

    grown2, rep2 = expansion.expand_lexicon(corpus, lex, provider, tags=tags,
                                            ask=lambda item, syn: "n")
    assert rep2.oov_accepted == ["هايف"]
    assert grown2.lookup("هايف").polarity is NG
    report(2, "three-case walkthrough: adopt PO, conflict unchanged, review NG")


def test_criterion_03_valence_shifters(shipped):
    analyzer = Analyzer(shipped["lexicon"], IdiomLexicon(), shipped["cues"])
    cues = shipped["cues"]

    def adjusted(text, word):
        for row in analyzer.analyze(text):
            if word in row.words:
                return row.shifted[row.words.index(word)]
        raise AssertionError(word)

    assert adjusted("هذه المرأة جميلة اوي", "جميلة") == 2
    assert adjusted("هذا المكان قذر جدا", "قذر") == -2
    assert adjusted("انا لا احب هذا الكتاب", "احب") == -1

    negators = sorted(cues.negators)
    intensifiers = sorted(cues.intensifiers)
    polar = ["رائع", "جميلة", "قذر", "ممل", "احب", "سيئة"]
    rng = random.Random(42)
    for _ in range(1000):
        context = rng.sample(FILLERS, rng.randint(0, 4))
        target = rng.choice(polar)
        pos = rng.randint(0, len(context))
        plain = context[:pos] + [target] + context[pos:]
        base = adjusted(" ".join(plain), target)
        negated = context[:pos] + [rng.choice(negators), target] + context[pos:]
        assert adjusted(" ".join(negated), target) == -base
        boosted = context[:pos] + [target, rng.choice(intensifiers)] + context[pos:]
        assert adjusted(" ".join(boosted), target) == 2 * base
    report(3, "shifter examples +2/-2/-1 and 1000-sentence involution/doubling")


def test_criterion_04_position_feature(shipped):
    analyzer = Analyzer(shipped["lexicon"], shipped["idioms"], shipped["cues"])
    v = analyzer.vector("هذا المسلسل رائع لكن يوجد ملل في بعض حلقاته")
    assert v[PO_W_POSITION - 1] == pytest.approx(3.0)
    assert v[NG_W_POSITION - 1] == pytest.approx(1.5)

    rng = random.Random(4)
    for _ in range(200):
        context = rng.sample(FILLERS, rng.randint(3, 6))
        weights = []
        for pos in range(len(context) + 1):
            words = context[:pos] + ["رائع"] + context[pos:]
            vv = analyzer.vector(" ".join(words))
            weights.append(vv[PO_W_POSITION - 1])
        assert all(a > b for a, b in zip(weights, weights[1:]))
    report(4, "position weights 3.0/1.5 on the 9-token example, monotone in 1/pos")


def test_criterion_05_conflict_phrases(shipped):
    analyzer = Analyzer(shipped["lexicon"], IdiomLexicon(), shipped["cues"],
                        tags=shipped["tags"])

    def conflicts(text):
        [row] = analyzer.analyze(text)
        return analyzer.vector(text)[N_O_CONFLICT - 1], sum(row.resolved)

    assert conflicts("خدمة سيئة") == (1, -1)
    assert conflicts("فساد أخلاقي") == (1, -1)

    same_sign_pairs = [("خدمة", "جميلة"), ("نجاح", "رائع"), ("فساد", "سيئة"),
                       ("ملل", "مزعج"), ("سعادة", "ممتازة")]
    rng = random.Random(5)
    for _ in range(200):
        noun, adj = rng.choice(same_sign_pairs)
        n, _ = conflicts(f"{noun} {adj}")
        assert n == 0
    report(5, "opposite-polarity noun/adjective bigrams score one negative unit")


def test_criterion_06_idiom_masking(shipped):
    analyzer = Analyzer(shipped["lexicon"], shipped["idioms"], shipped["cues"])
    text = "تسليم السلطة للبرلمان تعني تسليم القط مفتاح الكرار"
    [row] = analyzer.analyze(text)
    assert row.words == ["تسليم", "السلطة", "للبرلمان", "تعني", "NG_Phrase"]
    v = analyzer.vector(text)
    assert v[HAS_NG_PH - 1] == 1
    assert v[W_PO - 1] == 0 and v[W_NG - 1] == 0
    report(6, "proverb masks to one NG_Phrase with no word-level double count")


def _separator_points(w_star, n, seed, margin=0.5):
    rng = random.Random(seed)
    points = []
    while len(points) < n:
        values = {slot: rng.uniform(-2, 2)
                  for slot in rng.sample(range(1, N_SLOTS + 1), 5)}
        score = sum(w_star[slot - 1] * v for slot, v in values.items())
        if abs(score) < margin:
            continue
        vector = tuple(values.get(slot, 0.0) for slot in range(1, N_SLOTS + 1))
        points.append(LabeledVector(vector, 1 if score > 0 else -1))
    return points


def test_criterion_07_classifier_sanity(tmp_path):
    start = time.perf_counter()
    rng = random.Random(70)
    w_star = [rng.uniform(-1, 1) for _ in range(N_SLOTS)]
    train_data = _separator_points(w_star, 200, seed=71)
    model = classifier.train(train_data)
    assert classifier.accuracy(model, train_data) >= 0.99
    fresh = _separator_points(w_star, 100, seed=72)
    assert classifier.accuracy(model, fresh) >= 0.95

    again = classifier.train(train_data)
    p1, p2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
    classifier.save_model(model, p1)
    classifier.save_model(again, p2)
    assert p1.read_bytes() == p2.read_bytes()
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(7, f"oracle separator recovered, identical model files ({elapsed:.2f}s)")


def _labeled(topics, lex, idioms, cues, stopwords, tags):
    analyzer = Analyzer(lex, idioms, cues, stopwords=stopwords, tags=tags)
    return [LabeledVector(analyzer.vector(t.text), 1 if t.label is PO else -1, t.id)
            for t in topics]


def test_criterion_08_end_to_end_pipeline(shipped):
    start = time.perf_counter()
    corpus = shipped["corpus"]
    lex, idioms, cues = shipped["lexicon"], shipped["idioms"], shipped["cues"]
    stop, tags = shipped["stopwords"], shipped["tags"]

    train_t, dev_t, test_t = split_corpus(corpus, SplitSpec())
    assert (len(train_t), len(dev_t), len(test_t)) == (160, 20, 20)
    model = classifier.train(_labeled(train_t, lex, idioms, cues, stop, tags))
    test_acc = classifier.accuracy(
        model, _labeled(test_t, lex, idioms, cues, stop, tags))
    assert test_acc >= 0.90

    analyzer = Analyzer(lex, idioms, cues, stopwords=stop, tags=tags)
    agree = sum(1 for t in corpus if analyzer.rule_score(t.text)[1] is t.label)
    rule_rate = agree / len(corpus)
    assert rule_rate >= 0.85
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(8, f"test accuracy {100 * test_acc:.1f}%, rule agreement "
              f"{100 * rule_rate:.1f}% ({elapsed:.2f}s)")


def test_criterion_09_expansion_effect_direction(shipped):
    start = time.perf_counter()
    corpus = shipped["corpus"]
    idioms, cues, stop = shipped["idioms"], shipped["cues"], shipped["stopwords"]
    from arasent.lexicon import count_corpus_tokens
    from arasent.synthetic import heldout_words

    seed_lex = resources.seed_lexicon()
    full_lex = shipped["lexicon"]
    counts = count_corpus_tokens(corpus)
    used = [w for w in full_lex.words() if counts.get(w, 0) > 0]
    held = [w for w in heldout_words() if counts.get(w, 0) > 0]
    assert all(seed_lex.lookup(w) is None for w in held)
    assert len(held) / len(used) == pytest.approx(0.20, abs=0.02)

    train_t, _, test_t = split_corpus(corpus, SplitSpec())

    tags = shipped["resources"]._replace(lexicon=seed_lex).word_tags
    pre_model = classifier.train(
        _labeled(train_t, seed_lex, idioms, cues, stop, tags))
    pre_acc = classifier.accuracy(
        pre_model, _labeled(test_t, seed_lex, idioms, cues, stop, tags))

    provider = FixtureProvider.from_file(resources.data_path("synsets.tsv"))
    grown, rep = expansion.expand_lexicon(corpus, seed_lex, provider, tags=tags,
                                          stopwords=stop)
    assert set(rep.adopted) == set(held)

    tags_g = shipped["resources"]._replace(lexicon=grown).word_tags
    post_model = classifier.train(
        _labeled(train_t, grown, idioms, cues, stop, tags_g))
    post_acc = classifier.accuracy(
        post_model, _labeled(test_t, grown, idioms, cues, stop, tags_g))

    assert post_acc >= pre_acc
    assert post_acc > pre_acc  # strict on the shipped fixture
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(9, f"expansion lifts test accuracy {100 * pre_acc:.1f}% -> "
              f"{100 * post_acc:.1f}% ({elapsed:.2f}s)")


def test_criterion_10_format_fidelity(tmp_path):
    rng = random.Random(10)
    data = []
    for i in range(1000):
        slots = sorted(rng.sample(range(1, N_SLOTS + 1), rng.randint(0, 6)))
        values = {s: v for s in slots if (v := rng.randint(-999000, 999000) / 1000)}
        vector = tuple(values.get(s, 0.0) for s in range(1, N_SLOTS + 1))
        data.append(LabeledVector(vector, rng.choice([1, -1]), f"t{i}"))
    path = tmp_path / "vectors.svml"
    classifier.write_svmlight(data, path)
    assert ([(v.vector, v.label, v.comment) for v in classifier.read_svmlight(path)]
            == [(v.vector, v.label, v.comment) for v in data])

    lex = resources.load().lexicon
    out = tmp_path / "lexicon.tsv"
    save_sentiment_lexicon(lex, out)
    assert load_sentiment_lexicon(out) == lex
    report(10, "svmlight and lexicon TSV round trips are structurally exact")


def test_criterion_11_kappa():
    assert cohen_kappa([("PO", "PO")] * 7 + [("NG", "NG")] * 5) == 1.0

    items = ([("PO", "PO")] * 4 + [("NG", "NG")] * 3
             + [("PO", "NG")] * 2 + [("NG", "PO")] * 1)
    assert cohen_kappa(items) == 0.4

    rng = random.Random(1100)
    simulated = [(rng.choice("PN"), rng.choice("PN")) for _ in range(10_000)]
    assert abs(cohen_kappa(simulated)) < 0.05
    report(11, "kappa: perfect 1.0, worked example 0.4 exactly, chance near 0")

import random

import pytest
from hypothesis import given, strategies as st

from arasent.classifier import read_svmlight
from arasent.features import (
    Analyzer,
    CueLists,
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
from arasent.lexicon import (
    IdiomEntry,
    IdiomLexicon,
    LexiconEntry,
    Polarity,
    SentimentLexicon,
)
from arasent.preprocess import PosTag
from arasent.schema import N_SLOTS

PO, NG, NU = Polarity.PO, Polarity.NG, Polarity.NU

POS_WORDS = ["رائع", "جميلة", "احب", "ممتاز", "خدمة", "اخلاقي", "لطيف"]
NEG_WORDS = ["قذر", "سيئة", "ملل", "فساد", "مزعج", "رديء", "وهمية"]
NEUTRAL_LEX = ["عادي", "متوسط"]
FILLERS = ["المكان", "الناس", "الموضوع", "كلام", "اليوم", "حاجة", "الكتاب", "المراة"]
NEGATORS = ["لا", "مش", "ليس"]
INTENSIFIERS = ["اوي", "جدا", "بشدة"]
QUESTIONS = ["هل", "ليه"]
WISHFUL = ["يارب", "اتمني"]


@pytest.fixture
def lex():
    entries = [LexiconEntry(w, PO) for w in POS_WORDS]
    entries += [LexiconEntry(w, NG) for w in NEG_WORDS]
    entries += [LexiconEntry(w, NU) for w in NEUTRAL_LEX]
    return SentimentLexicon(entries)


@pytest.fixture
def cues():
    return CueLists(negators=frozenset(NEGATORS),
                    intensifiers=frozenset(INTENSIFIERS),
                    question_terms=frozenset(QUESTIONS),
                    wishful_terms=frozenset(WISHFUL))


@pytest.fixture
def idioms():
    return IdiomLexicon([
        IdiomEntry(("تسليم", "القط", "مفتاح", "الكرار"), NG),
        IdiomEntry(("زي", "العسل"), PO),
    ])


@pytest.fixture
def tags(lex):
    table = {w: PosTag.JJ for w in POS_WORDS + NEG_WORDS + NEUTRAL_LEX}
    table.update({"خدمة": PosTag.NN, "فساد": PosTag.NN, "ملل": PosTag.NN,
                  "احب": PosTag.VB})
    return table


def features(text, lex, idioms, cues, **options):
    return Analyzer(lex, idioms, cues, **options).vector(text)


def rule_score(text, lex, idioms, cues):
    return Analyzer(lex, idioms, cues).rule_score(text)


def scored_for(text, lex, cues, tags={}, idioms=IdiomLexicon()):
    """(word, lexicon value, shifted value, resolved value) per word."""
    rows = Analyzer(lex, idioms, cues, tags=tags).analyze(text)
    return [scored for row in rows
            for scored in zip(row.words, row.values, row.shifted, row.resolved)]


def adjusted_of(text, word, lex, cues):
    for surface, _, shifted, _ in scored_for(text, lex, cues):
        if surface == word:
            return shifted
    raise AssertionError(f"{word} not found in {text}")


def conflicts(text, lex, cues, tags):
    """The conflict count and the resolved values of a one-sentence topic."""
    analyzer = Analyzer(lex, IdiomLexicon(), cues, tags=tags)
    [row] = analyzer.analyze(text)
    return analyzer.vector(text)[N_O_CONFLICT - 1], row.resolved


def masked(text, idioms):
    """The words of each sentence after masking, and the (PO, NG) phrase counts."""
    words = [row.words for row in Analyzer(SentimentLexicon(), idioms, CueLists()).analyze(text)]
    return words, (sum(ws.count("PO_Phrase") for ws in words),
                   sum(ws.count("NG_Phrase") for ws in words))


# intensifier examples: base value doubles

def test_intensifier_doubles_positive(lex, cues):
    assert adjusted_of("هذه المراة جميلة اوي", "جميلة", lex, cues) == 2


def test_intensifier_doubles_negative(lex, cues):
    assert adjusted_of("هذا المكان قذر جدا", "قذر", lex, cues) == -2


def test_negation_flips_polarity(lex, cues):
    assert adjusted_of("انا لا احب هذا الكتاب", "احب", lex, cues) == -1


def test_negation_window_is_three_tokens(lex, cues):
    assert adjusted_of("مش المكان كلام رائع", "رائع", lex, cues) == -1
    assert adjusted_of("مش المكان كلام اليوم رائع", "رائع", lex, cues) == 1


@pytest.mark.parametrize("n_negators, sign", [(1, -1), (2, 1), (3, -1)])
def test_each_negator_in_the_window_flips_again(lex, cues, idioms, n_negators, sign):
    """Two negators before a sentiment word cancel; one or three flip it."""
    text = " ".join(NEGATORS[:n_negators] + ["رائع"])
    assert rule_score(text, lex, idioms, cues) == (sign, PO if sign > 0 else NG)
    vector = features(text, lex, idioms, cues)
    assert (vector[W_PO - 1], vector[W_NG - 1]) == (max(sign, 0), max(-sign, 0))


def test_intensifier_window_is_two_tokens(lex, cues):
    assert adjusted_of("رائع المكان جدا", "رائع", lex, cues) == 2
    assert adjusted_of("رائع المكان كلام جدا", "رائع", lex, cues) == 1


def test_flip_applies_with_doubling(lex, cues):
    assert adjusted_of("مش جميلة اوي", "جميلة", lex, cues) == -2


def test_neutral_words_tracked_but_score_zero(lex, cues):
    assert scored_for("المكان عادي", lex, cues) == [("المكان", None, 0, 0), ("عادي", 0, 0, 0)]


def test_mask_tokens_score_zero(lex, cues, idioms):
    scored = scored_for("تسليم القط مفتاح الكرار رائع", lex, cues, idioms=idioms)
    assert scored == [("NG_Phrase", None, 0, 0), ("رائع", 1, 1, 1)]


def test_negation_involution_1000_random_sentences(lex, cues):
    """Inserting one negator directly before a sentiment word negates it."""
    rng = random.Random(7)
    for _ in range(1000):
        words = rng.sample(FILLERS, rng.randint(0, 4))
        target = rng.choice(POS_WORDS + NEG_WORDS)
        pos = rng.randint(0, len(words))
        plain = words[:pos] + [target] + words[pos:]
        negated = words[:pos] + [rng.choice(NEGATORS)] + [target] + words[pos:]
        before = adjusted_of(" ".join(plain), target, lex, cues)
        after = adjusted_of(" ".join(negated), target, lex, cues)
        assert after == -before


def test_negation_before_plain_word_changes_only_cue_slots(lex, cues, idioms):
    """A negator out of reach of any sentiment word touches slots 11-12 only."""
    rng = random.Random(11)
    for _ in range(200):
        words = rng.sample(FILLERS, 4) + [rng.choice(POS_WORDS + NEG_WORDS)]
        v1 = features(" ".join(words), lex, idioms, cues)
        v2 = features(" ".join([rng.choice(NEGATORS)] + words), lex, idioms, cues)
        assert v2[IS_NEGATION - 1] == 1 and v2[N_O_NEGATION - 1] == 1
        assert v1[W_PO - 1] == v2[W_PO - 1] and v1[W_NG - 1] == v2[W_NG - 1]
        assert v2[NO_OF_WORDS - 1] == v1[NO_OF_WORDS - 1] + 1


def test_intensifier_doubling_1000_random_sentences(lex, cues):
    """Appending an intensifier directly after a sentiment word doubles it."""
    rng = random.Random(13)
    for _ in range(1000):
        words = rng.sample(FILLERS, rng.randint(0, 4))
        target = rng.choice(POS_WORDS + NEG_WORDS)
        pos = rng.randint(0, len(words))
        plain = words[:pos] + [target] + words[pos:]
        boosted = words[:pos] + [target, rng.choice(INTENSIFIERS)] + words[pos:]
        before = adjusted_of(" ".join(plain), target, lex, cues)
        after = adjusted_of(" ".join(boosted), target, lex, cues)
        assert after == 2 * before
        # other tokens' scores unchanged
        others_before = [shifted for word, _, shifted, _
                         in scored_for(" ".join(plain), lex, cues) if word != target]
        others_after = [shifted for word, value, shifted, _
                        in scored_for(" ".join(boosted), lex, cues)
                        if word != target and value != 0 and word not in INTENSIFIERS]
        assert others_before == others_after


# conflict phrases

def test_conflict_service_bad(lex, cues, tags):
    n, resolved = conflicts("خدمة سيئة", lex, cues, tags)
    assert n == 1
    assert sum(resolved) == -1


def test_conflict_moral_corruption(lex, cues, tags):
    n, resolved = conflicts("فساد أخلاقي", lex, cues, tags)
    assert n == 1
    assert sum(resolved) == -1


def test_conflict_requires_opposite_signs(lex, cues, tags):
    n, resolved = conflicts("خدمة جميلة", lex, cues, tags)  # NN + JJ same sign
    assert n == 0
    assert resolved == [1, 1]


def test_conflict_requires_nn_jj_pair(lex, cues):
    tags = {"خدمة": PosTag.NN, "ملل": PosTag.NN}
    n, _ = conflicts("خدمة ملل", lex, cues, tags)  # NN + NN, opposite signs
    assert n == 0


def test_conflict_scan_non_overlapping(lex, cues, tags):
    # JJ(+) NN(-) JJ(+): the first pair resolves, the survivor cannot re-pair
    n, resolved = conflicts("اخلاقي فساد اخلاقي", lex, cues,
                            {"اخلاقي": PosTag.JJ, "فساد": PosTag.NN})
    assert n == 1
    assert resolved == [-1, 0, 1]


# idiom masking

def test_mask_idioms_table1_example(lex, idioms):
    words, counts = masked("تسليم السلطة للبرلمان تعني تسليم القط مفتاح الكرار", idioms)
    assert words == [["تسليم", "السلطة", "للبرلمان", "تعني", "NG_Phrase"]]
    assert counts == (0, 1)


def test_mask_idioms_positive(idioms):
    words, counts = masked("المكان زي العسل", idioms)
    assert words == [["المكان", "PO_Phrase"]]
    assert counts == (1, 0)


def test_mask_idioms_no_match(idioms):
    words, counts = masked("المكان جميل", idioms)
    assert words == [["المكان", "جميل"]]
    assert counts == (0, 0)


def test_masked_idiom_never_double_counts(lex, cues, idioms):
    v = features("تسليم السلطة للبرلمان تعني تسليم القط مفتاح الكرار", lex, idioms, cues)
    assert v[HAS_NG_PH - 1] == 1
    assert v[W_PO - 1] == 0 and v[W_NG - 1] == 0


# feature vectors

def test_position_feature_series_example(lex, cues, idioms):
    v = features("هذا المسلسل رائع لكن يوجد ملل في بعض حلقاته", lex, idioms, cues)
    assert v[NO_OF_WORDS - 1] == 9
    assert v[PO_W_POSITION - 1] == pytest.approx(3.0)
    assert v[NG_W_POSITION - 1] == pytest.approx(1.5)
    assert v[W_PO - 1] == 1 and v[W_NG - 1] == 1


def test_empty_topic_all_zero(lex, cues, idioms):
    v = features("", lex, idioms, cues)
    assert v == (0.0,) * N_SLOTS


def test_negation_example_slots(lex, cues, idioms):
    v = features("انا لا احب هذا الكتاب", lex, idioms, cues)
    assert v[IS_NEGATION - 1] == 1 and v[N_O_NEGATION - 1] == 1
    assert v[W_NG - 1] == 1 and v[W_PO - 1] == 0
    assert v[HAS_NG_SENTI - 1] == 1 and v[HAS_PO_SENTI - 1] == 0


def test_neutral_count_slot(lex, cues, idioms):
    v = features("المكان عادي متوسط", lex, idioms, cues)
    assert v[W_NU - 1] == 2


def test_question_and_wishful_slots(lex, cues, idioms):
    v = features("هل المكان قذر ليه", lex, idioms, cues)
    assert v[IS_QUESTION - 1] == 1 and v[N_O_QUESTION - 1] == 2
    v2 = features("يارب اتمني الفرج", lex, idioms, cues)
    assert v2[IS_WISHFUL - 1] == 1 and v2[N_O_WISHFUL - 1] == 2


def test_position_monotone_in_word_position(lex, cues, idioms):
    """A single positive word later in the sentence weighs strictly less."""
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(3, 7)
        fillers = rng.sample(FILLERS, n)
        values = []
        for pos in range(n + 1):
            words = fillers[:pos] + ["رائع"] + fillers[pos:]
            v = features(" ".join(words), lex, idioms, cues)
            values.append(v[PO_W_POSITION - 1])
        assert all(a > b for a, b in zip(values, values[1:]))


def test_has_flags_match_weights(lex, cues, idioms):
    rng = random.Random(5)
    vocab = POS_WORDS + NEG_WORDS + FILLERS + NEGATORS + INTENSIFIERS
    for _ in range(300):
        words = [rng.choice(vocab) for _ in range(rng.randint(0, 8))]
        v = features(" ".join(words), lex, idioms, cues)
        assert (v[HAS_PO_SENTI - 1] == 1) == (v[W_PO - 1] > 0)
        assert (v[HAS_NG_SENTI - 1] == 1) == (v[W_NG - 1] > 0)


def test_extract_features_deterministic(lex, cues, idioms, tags):
    text = "خدمة سيئة والمكان زي العسل. مش ممتاز جدا هل كده"
    v1 = features(text, lex, idioms, cues, tags=tags)
    v2 = features(text, lex, idioms, cues, tags=tags)
    assert v1 == v2


def test_extract_runs_full_pipeline_with_stopwords(lex, cues, idioms):
    v = features("هذا المكان رائِع 123!", lex, idioms, cues, stopwords={"هذا"})
    assert v[W_PO - 1] == 1
    assert v[NO_OF_WORDS - 1] == 2  # هذا removed, digits stripped


def test_conflict_slot_via_extract(lex, cues, idioms, tags):
    v = features("المكان خدمة سيئة فعلا", lex, idioms, cues,
                         tags=tags)
    assert v[N_O_CONFLICT - 1] == 1
    assert v[W_NG - 1] == 1 and v[W_PO - 1] == 0


# rule-based scorer

def test_rule_score_idiom_plus_word(lex, cues, idioms):
    net, label = rule_score("تسليم القط مفتاح الكرار والمكان جميلة", lex, idioms, cues)
    assert net == -2  # -3 idiom + 1 word
    assert label is NG


def test_rule_score_no_hits_is_neutral(lex, cues, idioms):
    net, label = rule_score("المكان كلام", lex, idioms, cues)
    assert net == 0 and label is NU


def test_rule_score_intensified_positive(lex, cues, idioms):
    net, label = rule_score("هذه المراة جميلة اوي", lex, idioms, cues)
    assert net == 2 and label is PO


def test_rule_score_antisymmetric_under_polarity_flip(cues, idioms):
    """Flipping every lexicon and idiom polarity flips the label."""
    rng = random.Random(17)
    lex = SentimentLexicon([LexiconEntry(w, PO) for w in POS_WORDS]
                           + [LexiconEntry(w, NG) for w in NEG_WORDS])
    flipped_lex = SentimentLexicon(
        [e._replace(polarity=e.polarity.flipped()) for e in lex])
    flipped_idioms = IdiomLexicon(
        [IdiomEntry(e.phrase, e.polarity.flipped()) for e in idioms])
    vocab = POS_WORDS + NEG_WORDS + FILLERS + NEGATORS + INTENSIFIERS + \
        ["زي", "العسل", "تسليم", "القط", "مفتاح", "الكرار"]
    for _ in range(300):
        words = [rng.choice(vocab) for _ in range(rng.randint(0, 9))]
        text = " ".join(words)
        net1, label1 = rule_score(text, lex, idioms, cues)
        net2, label2 = rule_score(text, flipped_lex, flipped_idioms, cues)
        assert net2 == -net1
        assert label2 is label1.flipped()


def test_slot_domains_over_random_topics(lex, cues, idioms, tags):
    """Binary slots stay in {0,1}, count slots are non-negative integers,
    position slots are non-negative reals."""
    rng = random.Random(23)
    vocab = POS_WORDS + NEG_WORDS + NEUTRAL_LEX + FILLERS + NEGATORS + \
        INTENSIFIERS + QUESTIONS + WISHFUL + ["زي", "العسل"]
    binary = {HAS_PO_SENTI, HAS_NG_SENTI, HAS_PO_PH, HAS_NG_PH, IS_NEGATION, 13, 15}
    counts = {W_PO, W_NG, W_NU, NO_OF_WORDS, N_O_NEGATION, 14, 16, N_O_CONFLICT}
    for _ in range(300):
        words = [rng.choice(vocab) for _ in range(rng.randint(0, 10))]
        v = features(" ".join(words), lex, idioms, cues,
                             tags=tags)
        for slot in binary:
            assert v[slot - 1] in (0.0, 1.0)
        for slot in counts:
            value = v[slot - 1]
            assert value >= 0 and value == int(value)
        assert v[PO_W_POSITION - 1] >= 0 and v[NG_W_POSITION - 1] >= 0


def test_scored_token_magnitude_invariant(lex, cues):
    """A shifted value is 0, +-value or +-2*value; a zero or unknown value
    never shifts."""
    rng = random.Random(29)
    vocab = POS_WORDS + NEG_WORDS + NEUTRAL_LEX + FILLERS + NEGATORS + INTENSIFIERS
    for _ in range(500):
        words = [rng.choice(vocab) for _ in range(rng.randint(1, 8))]
        for _, value, shifted, _ in scored_for(" ".join(words), lex, cues):
            base = value or 0
            assert abs(shifted) in (0, abs(base), 2 * abs(base))
            if base == 0:
                assert shifted == 0


@given(st.dictionaries(st.integers(1, 17), st.floats(-5, 5, allow_nan=False),
                       max_size=8))
def test_feature_vector_get_set_consistent(tmp_path_factory, values):
    """Slot s, set by number in an SVM-light line, reads back at index s - 1."""
    path = tmp_path_factory.mktemp("svml") / "f.svml"
    pairs = " ".join(f"{slot}:{values[slot]!r}" for slot in sorted(values))
    path.write_text(f"+1 {pairs}\n", encoding="utf-8")
    (loaded,) = read_svmlight(path)
    assert len(loaded.vector) == N_SLOTS
    for slot in range(1, N_SLOTS + 1):
        assert loaded.vector[slot - 1] == values.get(slot, 0.0)


def test_a_file_of_schema_version_1_reads_as_this_schema(tmp_path):
    """Every SVM-light and model file written so far names schema 1, the 17
    slots in the order above."""
    path = tmp_path / "f.svml"
    path.write_text("# schema_version: 1\n+1 1:1 17:2\n", encoding="utf-8")
    (row,) = read_svmlight(path)
    assert (N_SLOTS, row.vector[HAS_PO_SENTI - 1], row.vector[N_O_CONFLICT - 1]) == (17, 1, 2)

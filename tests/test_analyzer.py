"""Differential tests: the one-pass Analyzer against the frozen per-token
reference pipeline in ``reference_pipeline.py``."""

import pytest
from hypothesis import given, settings, strategies as st

import reference_pipeline as ref
from arasent import resources
from arasent.errors import ArasentError
from arasent.features import Analyzer, SentenceTrace
from arasent.lexicon import IdiomEntry, IdiomLexicon, LexiconEntry, Polarity, SentimentLexicon
from arasent.preprocess import PosTag, _WORD_RE, normalize_text, preprocess

RES = resources.load()
LEX, IDIOMS, CUES, STOPWORDS, TAGS = RES.lexicon, RES.idioms, RES.cues, RES.stopwords, RES.word_tags
TAGGER = ref.TableTagger(TAGS)


def _pool():
    words = sorted(LEX.words())
    words += sorted(CUES.negators | CUES.intensifiers | CUES.question_terms
                    | CUES.wishful_terms | STOPWORDS)
    for idiom in IDIOMS:
        words += idiom.phrase
        words.append(" ".join(idiom.phrase))
    words += ["المكان", "الناس", "كلام", "اليوم", "الخدمة", "غيرمعروف"]
    # raw forms that only match after normalization, and noise it drops
    words += ["أحب", "رائِع", "جميـلة", "إتقان", "abc", "123", "NG_Phrase"]
    return words


def _signed(tag, polarity):
    return sorted(e.word for e in LEX if TAGS.get(e.word) is tag and e.polarity is polarity)


@st.composite
def conflict_pairs(draw):
    """A noun and an adjective of opposite polarity, in either order, adjacent
    or with an unscored adjective between them."""
    tags = draw(st.permutations([PosTag.NN, PosTag.JJ]))
    polarities = draw(st.permutations([Polarity.PO, Polarity.NG]))
    first, second = (draw(st.sampled_from(_signed(t, p))) for t, p in zip(tags, polarities))
    between = draw(st.sampled_from(["", "", "عادي ", "مسرور "]))  # NU, not in the lexicon
    return f"{first} {between}{second}"


WORDS = st.one_of(st.sampled_from(_pool()), conflict_pairs())
DELIMITERS = st.sampled_from([" ", " ", " ", ". ", "! ", "؟ ", "؛ ", "\n", " , ",
                              # noise that normalization drops or turns into a space
                              "\r", "\r\n", "\x85", "\xa0", " 12 ", "7", " abc ", "x"])
# tatweel, harakat and superscript alef: deleted in place, so never a separator
MARKS = st.sampled_from(["", "", "\u0640", "\u064e", "\u0651", "\u0652", "\u0670"])


@st.composite
def topics(draw):
    text = ""
    for word in draw(st.lists(WORDS, max_size=30)):
        at = draw(st.integers(0, len(word)))
        text += word[:at] + draw(MARKS) + word[at:] + draw(DELIMITERS)
    return text


def _rows(analysis):
    """The reference's per-token objects as the analyzer's per-sentence rows."""
    return [SentenceTrace([t.surface for t in sentence.tokens], [t.tag for t in sentence.tokens],
                          [st.base if st.base or st.neutral else None for st in raw],
                          [st.adjusted for st in raw], [st.adjusted for st in resolved])
            for sentence, raw, resolved in zip(analysis.sentences, analysis.raw_scores,
                                               analysis.scores)]


def _options(use_stop, negation_window, intensifier_window):
    return {"stopwords": STOPWORDS if use_stop else frozenset(),
            "negation_window": negation_window, "intensifier_window": intensifier_window}


@settings(max_examples=300, deadline=None)
@given(topics(), st.booleans(), st.integers(0, 4), st.integers(0, 3))
def test_analyzer_matches_reference(text, use_stop, negation_window, intensifier_window):
    options = _options(use_stop, negation_window, intensifier_window)
    analyzer = Analyzer(LEX, IDIOMS, CUES, tags=TAGS, **options)
    options["tagger"] = TAGGER
    want_vector = ref.extract_features(text, LEX, IDIOMS, CUES, **options)
    want_net, want_label = ref.lexicon_rule_score(text, LEX, IDIOMS, CUES, **options)

    assert analyzer.vector(text) == want_vector
    net, label = analyzer.rule_score(text)
    assert type(net) is float and net == want_net and label is want_label
    assert analyzer.analyze(text) == _rows(ref.analyze_topic(text, LEX, IDIOMS, CUES,
                                                             **options))


NOISY_ARABIC = st.text(st.one_of(
    st.characters(min_codepoint=0x0600, max_codepoint=0x06FF),
    # range ends of the kept letters and of the deleted marks, and separators
    st.sampled_from("\u0620\u0621\u063a\u063b\u0640\u0641\u064a\u064b\u065f\u0660"
                    "\u066f\u0670\u0671\u06d5\u06d6\u06ed\u06ee"),
    st.sampled_from(" \t\n\r\x0b\x0c\x1c\x85\xa0\u2028.!?؟؛,a1_#")), max_size=40)


@settings(max_examples=300)
@given(st.one_of(st.text(), NOISY_ARABIC))
def test_normalize_matches_reference(raw):
    assert normalize_text(raw) == ref.normalize_text(raw)


@pytest.mark.parametrize("mark, want", [
    # each end of the deleted ranges, and the non-letters just outside them
    *[(mark, "بب") for mark in "\u064b\u065f\u0670\u06d6\u06ed\u0640"],
    *[(char, "ب ب") for char in "\u0660\u066f\u06d5\u06ee"]])
def test_marks_are_deleted_inside_a_word(mark, want):
    raw = f"ب{mark}ب"
    assert normalize_text(raw) == ref.normalize_text(raw) == want
    assert preprocess(raw) == [want.split()]


@settings(max_examples=300)
@given(st.one_of(st.text(), NOISY_ARABIC, topics()), st.booleans())
def test_preprocess_matches_its_stages(raw, use_stop):
    """preprocess takes words straight from the folded text: the same
    words as normalizing, splitting and tokenizing one stage at a time."""
    stop = STOPWORDS if use_stop else frozenset()
    assert preprocess(raw, stop) == [[w for w in _WORD_RE.findall(s) if w not in stop]
                                     for s in ref.split_sentences(normalize_text(raw))]


def test_analyzer_snapshots_the_lexicon():
    lex = SentimentLexicon([LexiconEntry("رائع", Polarity.PO)])
    analyzer = Analyzer(lex, IDIOMS, CUES)
    lex.add(LexiconEntry("سيئ", Polarity.NG))
    assert analyzer.rule_score("رائع سيئ") == (1.0, Polarity.PO)
    assert Analyzer(lex, IDIOMS, CUES).rule_score("رائع سيئ") == (0.0, Polarity.NU)


def test_analyzer_drops_stopwords_before_masking():
    # "زي العسل" is a PO idiom: a stopword between its words is dropped
    # first and so does not block the match
    stop = frozenset({"في"})
    analyzer = Analyzer(LEX, IDIOMS, CUES, stopwords=stop)
    assert [row.words for row in analyzer.analyze("زي العسل")] == [["PO_Phrase"]]
    assert [row.words for row in analyzer.analyze("زي في العسل")] == [["PO_Phrase"]]
    assert [row.words for row in Analyzer(LEX, IDIOMS, CUES).analyze("زي في العسل")] == \
        [["زي", "في", "العسل"]]


def test_analyzer_rejects_an_idiom_that_contains_a_stopword():
    # stopwords are dropped before masking, so this idiom could never match
    idioms = IdiomLexicon([IdiomEntry(("في", "السما"), Polarity.PO)])
    with pytest.raises(ArasentError, match="'في السما' contains the stopword 'في'"):
        Analyzer(LEX, idioms, CUES, stopwords={"في"})
    assert [row.words for row in Analyzer(LEX, idioms, CUES).analyze("في السما")] == \
        [["PO_Phrase"]]
    assert IDIOMS and not any(STOPWORDS.intersection(e.phrase) for e in IDIOMS)


@pytest.mark.parametrize("key", ["negation_window", "intensifier_window"])
def test_analyzer_refuses_a_negative_window(key):
    with pytest.raises(ArasentError, match=f"^{key} must be a non-negative integer, got -1$"):
        RES.analyzer(**{key: -1})


def test_an_idiom_added_unnormalized_still_masks():
    idioms = IdiomLexicon([IdiomEntry(("زى", "العسل"), Polarity.PO)])
    assert [entry.phrase for entry in idioms] == [("زي", "العسل")]
    assert [row.words for row in Analyzer(LEX, idioms, CUES).analyze("زى العسل")] == \
        [["PO_Phrase"]]

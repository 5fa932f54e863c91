import unicodedata

import pytest
from hypothesis import given, strategies as st

from arasent import resources
from arasent.errors import ParseError
from arasent.features import Analyzer, CueLists
from arasent.lexicon import IdiomEntry, IdiomLexicon, Polarity, SentimentLexicon
from arasent.preprocess import (
    _WORD_RE,
    NG_MASK,
    PO_MASK,
    PosTag,
    _fold,
    load_stopwords,
    load_tag_table,
    normalize_text,
    normalize_word,
    preprocess,
)

ARABIC_LETTERS = set(chr(c) for c in range(0x0621, 0x063B)) | \
    set(chr(c) for c in range(0x0641, 0x064B))
DELIMITERS = set(".!?؟؛")


def oracle_normalize(raw):
    """Independent per-codepoint filter used to derive expected values."""
    mapped = []
    for ch in raw:
        ch = {"أ": "ا", "إ": "ا", "آ": "ا", "ٱ": "ا", "ى": "ي"}.get(ch, ch)
        if ch in "ـ" or unicodedata.combining(ch):
            continue  # in-word joiners vanish without splitting the word
        if ch in ARABIC_LETTERS or ch in DELIMITERS or ch.isspace():
            mapped.append(ch)
        else:
            mapped.append(" ")
    collapsed = []
    for part in "".join(mapped).split("\n"):
        collapsed.append(" ".join(part.split()))
    out = "\n".join(p for p in collapsed)
    while "\n\n" in out:
        out = out.replace("\n\n", "\n")
    return out.strip("\n ").strip()


# text mixing Arabic, diacritics, latin, digits and punctuation
_mixed_text = st.text(
    alphabet=st.sampled_from(
        list("ابتثجحخدذرزسشصضطظعغفقكلمنهويىأإآةءؤئ")
        + list("ًٌَِّْـ")
        + list("abcXYZ0123456789٠١٢٣")
        + list(" .!?،؛؟\n-_*")),
    max_size=80)


def test_normalize_alef_variants():
    assert normalize_text("أحب مصر") == "احب مصر"


def test_normalize_empty():
    assert normalize_text("") == ""


def test_normalize_mixed_input():
    # frozen from oracle_normalize: the ! delimiter survives, foreign
    # characters and digits do not
    raw = "Great! رائِع 123"
    assert oracle_normalize(raw) == "! رائع"
    assert normalize_text(raw) == "! رائع"


def test_normalize_strips_tatweel_and_maqsura():
    assert normalize_text("جمـــيل") == "جميل"
    assert normalize_text("مستشفى") == "مستشفي"


def test_normalize_keeps_ta_marbuta():
    assert normalize_text("خدمة") == "خدمة"


@given(_mixed_text)
def test_normalize_idempotent(text):
    once = normalize_text(text)
    assert normalize_text(once) == once


@given(_mixed_text)
def test_normalize_output_clean(text):
    out = normalize_text(text)
    for ch in out:
        assert not unicodedata.combining(ch)
        assert not ("a" <= ch.lower() <= "z")
        assert not ch.isdigit()


@given(_mixed_text)
def test_normalize_matches_oracle(text):
    assert normalize_text(text) == oracle_normalize(text)


@given(st.one_of(_mixed_text, st.text()))
def test_normalize_word_is_the_one_word_that_folding_leaves(text):
    found = _WORD_RE.findall(_fold(text))
    if len(found) == 1:
        assert normalize_word(text) == found[0]
    else:
        problem = "several words" if found else "empty"
        with pytest.raises(ValueError, match=f"^entry is {problem} after normalization$"):
            normalize_word(text, "entry")


def test_split_sentences_period():
    assert preprocess("المكان جميل. الخدمة سيئة") == [["المكان", "جميل"], ["الخدمة", "سيئة"]]


def test_split_sentences_no_delimiter():
    assert preprocess("رائع") == [["رائع"]]


def test_split_sentences_empty():
    assert preprocess("") == []
    assert preprocess(" .!\n؟ ") == []


def test_split_sentences_covers_input():
    text = "اهلا! كيف الحال؟ تمام\nخلاص"
    parts = [" ".join(words) for words in preprocess(text)]
    assert parts == ["اهلا", "كيف الحال", "تمام", "خلاص"]
    rest = text
    for p in parts:  # segments appear in order, nothing invented
        assert p in rest
        rest = rest.split(p, 1)[1]


def test_tokenize_positions():
    assert preprocess("هذا المسلسل رائع") == [["هذا", "المسلسل", "رائع"]]
    assert preprocess("هذا المسلسل. رائع") == [["هذا", "المسلسل"], ["رائع"]]


def test_tokenize_strips_punctuation():
    assert preprocess("رائع، جدا") == [["رائع", "جدا"]]


def test_tokenize_empty():
    assert preprocess("") == []
    assert preprocess(" ... ") == []


@given(st.lists(st.sampled_from(["رائع", "جميل", "سيئ", "NG_Phrase", "PO_Phrase", "كلام"]),
                max_size=10))
def test_tokenize_rejoin_stable(words):
    first = preprocess(" ".join(words))
    again = preprocess(" ".join(w for ws in first for w in ws))
    assert again == first


def test_remove_stopwords():
    assert preprocess("هذا المسلسل رائع", {"هذا"}) == [["المسلسل", "رائع"]]


def test_remove_stopwords_empty_stoplist_identity():
    assert preprocess("هذا المسلسل رائع", set()) == preprocess("هذا المسلسل رائع")


def test_remove_stopwords_empty_sentence():
    assert preprocess("هذا", {"هذا"}) == [[]]
    assert preprocess("", {"هذا"}) == []


def test_remove_stopwords_keeps_masks():
    # stopwords are dropped before idioms are masked, so no stoplist removes a mask
    idioms = IdiomLexicon([IdiomEntry(("زي", "العسل"), Polarity.PO)])
    analyzer = Analyzer(SentimentLexicon(), idioms, CueLists(),
                        stopwords={"هذا", "PO_Phrase"})
    assert [row.words for row in analyzer.analyze("هذا زي العسل")] == [["PO_Phrase"]]


@given(st.lists(st.sampled_from(["في", "من", "رائع", "جميل", "كلام", "ملل"]), max_size=12))
def test_remove_stopwords_preserves_order(words):
    survivors = [w for w in words if w not in {"في", "من"}]
    assert preprocess(" ".join(words), {"في", "من"}) == ([survivors] if words else [])


def tags_of(text, tags, stopwords=frozenset()):
    """The tags the analyzer gives each sentence's words."""
    analyzer = Analyzer(SentimentLexicon(), IdiomLexicon(), CueLists(), stopwords=stopwords,
                        tags=tags)
    return [row.tags for row in analyzer.analyze(text)]


def test_pos_tag_with_table():
    tags = {"خدمة": PosTag.NN, "سيئة": PosTag.JJ}
    assert tags_of("خدمة سيئة", tags) == [[PosTag.NN, PosTag.JJ]]


def test_pos_tag_unknown_word_falls_back_to_other():
    assert tags_of("غموض", {}) == [[PosTag.OTHER]]


def test_pos_tag_empty_sentence():
    assert tags_of("في", {"في": PosTag.NN}, stopwords={"في"}) == [[]]


def test_pos_tag_total():
    words = ["كلمة", "اخري", "وثالثة"]
    assert [len(t) for t in tags_of(" ".join(words), {"اخري": PosTag.JJ})] == [len(words)]


def test_tag_table_file(tmp_path):
    path = tmp_path / "tags.tsv"
    path.write_text("خدمة\tNN\nسيئة\tJJ\nمستشفى\tNN\n", encoding="utf-8")
    assert load_tag_table(path) == {"خدمة": PosTag.NN, "سيئة": PosTag.JJ,
                                    "مستشفي": PosTag.NN}


def test_tag_table_rejects_unknown_tag(tmp_path):
    path = tmp_path / "tags.tsv"
    path.write_text("خدمة\tXX\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_tag_table(path)


def test_default_tagger_lexicon_words_default_jj():
    from arasent.lexicon import LexiconEntry
    lex = SentimentLexicon([LexiconEntry("رائع", Polarity.PO),
                            LexiconEntry("فساد", Polarity.NG)])
    res = resources.load()._replace(lexicon=lex, tags={"فساد": PosTag.NN})
    assert res.word_tags == {"رائع": PosTag.JJ, "فساد": PosTag.NN}


@pytest.mark.parametrize("key", ["tagtable", "stopwords", "negators", "intensifiers",
                                 "questions", "wishful"])
def test_loaders_reject_a_word_that_normalizes_to_nothing(tmp_path, key):
    # Latin letters and delimiters are dropped; a space or delimiter inside
    # leaves two words, which no single word of a sentence can equal
    path = tmp_path / f"{key}.txt"
    first, tag = ("في\tNN", "\tJJ") if key == "tagtable" else ("في", "")
    for word, problem in [("not", "empty"), ("!.", "empty"), ("مش كده", "several words"),
                          ("مش.كده", "several words")]:
        path.write_text(f"# comment\n{first}\n{word}{tag}\n", encoding="utf-8")
        with pytest.raises(ParseError,
                           match=f"{key}.txt:3: word is {problem} after normalization$"):
            resources.load({key: path})


def test_a_delimiter_next_to_a_listed_word_is_dropped(tmp_path):
    path = tmp_path / "negators.txt"
    path.write_text("لا.\n", encoding="utf-8")  # cue lists load as stopword lists do
    assert load_stopwords(path) == {"لا"}


def test_load_stopwords(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("هذا\n# تعليق\nفي  # another\n\nأو\n", encoding="utf-8")
    words = load_stopwords(path)
    assert words == {"هذا", "في", "او"}


def test_mask_tokens_are_the_only_ascii_surfaces():
    assert (PO_MASK, NG_MASK) == ("PO_Phrase", "NG_Phrase")
    assert preprocess(f"{PO_MASK} {NG_MASK}") == []  # no text can spell a mask


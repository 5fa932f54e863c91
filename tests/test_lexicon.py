from collections import Counter

import pytest
from hypothesis import given, strategies as st

from arasent import resources
from arasent.errors import DuplicatePhrase, DuplicateWord, ParseError
from arasent.evaluation import Topic
from arasent.lexicon import (
    IdiomEntry,
    IdiomLexicon,
    LEXICON_HEADER,
    LexiconEntry,
    Polarity,
    SentimentLexicon,
    load_idiom_lexicon,
    load_sentiment_lexicon,
    save_sentiment_lexicon,
    update_term_frequencies,
)

PO, NG, NU = Polarity.PO, Polarity.NG, Polarity.NU


def write_lexicon_file(path, rows):
    lines = [LEXICON_HEADER] + ["\t".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_small_lexicon(tmp_path):
    path = tmp_path / "lex.tsv"
    write_lexicon_file(path, [
        ("رائع", "wonderful", "rA}E", "PO", 3),
        ("ملل", "boredom", "", "NG", 1),
        ("عادي", "ordinary", "", "NU", 0),
    ])
    lex = load_sentiment_lexicon(path)
    assert len(lex) == 3
    assert lex.lookup("رائع").polarity is PO
    assert lex.lookup("رائع").tf == 3


def test_load_class_counts_at_full_scale(tmp_path):
    # 5244 generated rows: 2003 PO, 2829 NG, 412 NU
    rows = []
    letters = "ابتثجحخدذرزسشصضطظعغفقكلمنهوي"

    def fake_word(i):
        out = []
        n = i
        for _ in range(4):
            out.append(letters[n % len(letters)])
            n //= len(letters)
        return "".join(out)

    for i in range(5244):
        pol = "PO" if i < 2003 else ("NG" if i < 2003 + 2829 else "NU")
        rows.append((fake_word(i), "", "", pol, 0))
    path = tmp_path / "big.tsv"
    write_lexicon_file(path, rows)
    lex = load_sentiment_lexicon(path)
    counts = Counter(entry.polarity for entry in lex)
    assert len(lex) == 5244
    assert counts[PO] == 2003 and counts[NG] == 2829 and counts[NU] == 412
    assert sum(counts.values()) == len(lex)


def test_load_rejects_bad_polarity(tmp_path):
    path = tmp_path / "lex.tsv"
    write_lexicon_file(path, [("رائع", "", "", "XX", 0)])
    with pytest.raises(ParseError) as err:
        load_sentiment_lexicon(path)
    assert err.value.line_no == 2


def test_load_rejects_wrong_column_count(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text(LEXICON_HEADER + "\nرائع\tPO\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_sentiment_lexicon(path)


def test_load_rejects_duplicate_word(tmp_path):
    path = tmp_path / "lex.tsv"
    write_lexicon_file(path, [("رائع", "", "", "PO", 0), ("رائِع", "", "", "NG", 0)])
    with pytest.raises(DuplicateWord, match="lex.tsv:3: duplicate word رائع$"):
        load_sentiment_lexicon(path)  # duplicate after normalization too


@pytest.mark.parametrize("word, reason", [
    ("hello", "prevent-list word is empty after normalization"),
    ("رائِع", "رائع is already a lexicon entry"),
    ("?", "prevent-list word is empty after normalization"),
    ("مش كده", "prevent-list word is several words after normalization")],
    ids=["empty", "lexicon-entry", "delimiter", "several-words"])
def test_load_rejects_bad_prevent_line(tmp_path, word, reason):
    path = tmp_path / "lex.tsv"
    write_lexicon_file(path, [("رائع", "", "", "PO", 0)])
    (tmp_path / "lex.prevent").write_text(f"كلام\n# a comment\n{word}\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"lex.prevent:3: {reason}$"):
        load_sentiment_lexicon(path)


@pytest.mark.parametrize("word, problem", [("...", "empty"), ("مش كده", "several words"),
                                            ("حلو.جدا", "several words")],
                         ids=["delimiters", "space", "delimiter-inside"])
def test_load_rejects_a_lexicon_word_that_is_not_one_word(tmp_path, word, problem):
    path = tmp_path / "lex.tsv"
    write_lexicon_file(path, [("رائع", "", "", "PO", 0), (word, "", "", "NG", 0)])
    with pytest.raises(ParseError,
                       match=f"lex.tsv:3: lexicon word is {problem} after normalization$"):
        load_sentiment_lexicon(path)


def test_a_lexicon_word_next_to_a_delimiter_still_matches(tmp_path):
    path = tmp_path / "lex.tsv"
    write_lexicon_file(path, [("رائع!", "", "", "PO", 0)])
    assert load_sentiment_lexicon(path).words() == ["رائع"]
    analyzer = resources.load({"lexicon": path}).analyzer()
    assert analyzer.rule_score("المكان رائع") == (1.0, PO)


def test_load_rejects_missing_header(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("رائع\t\t\tPO\t0\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_sentiment_lexicon(path)


def test_lookup_normalizes_before_lookup():
    # normalization happens when the entry comes in; lookup takes normalized words
    lex = SentimentLexicon([LexiconEntry("رائِع", PO)])
    assert lex.lookup("رائع").word == "رائع"
    assert lex.lookup("مجهول") is None


def test_lookup_known_word_polarity():
    lex = SentimentLexicon([LexiconEntry("مسرور", PO, gloss="Delighted")])
    assert lex.lookup("مسرور").polarity is PO


@given(st.sampled_from(["رائع", "رائِع", "أحب", "مستشفى", "جمـيل"]))
def test_lookup_equals_lookup_of_normalized(word):
    """An entry added un-normalized is found by its normalized form, as if it
    had been added normalized."""
    from arasent.preprocess import normalize_text
    normalized = normalize_text(word)
    lex = SentimentLexicon([LexiconEntry(word, PO, "gloss")])
    assert lex.lookup(normalized) == LexiconEntry(normalized, PO, "gloss")
    assert lex == SentimentLexicon([LexiconEntry(normalized, PO, "gloss")])
    assert normalized in lex


def test_entries_normalized_on_add():
    lex = SentimentLexicon([LexiconEntry("أحب", PO)])
    assert "احب" in lex
    assert lex.lookup("احب").word == "احب"


def test_prevent_list_stays_disjoint():
    lex = SentimentLexicon([LexiconEntry("رائع", PO)], prevent=["كلام"])
    with pytest.raises(DuplicateWord):
        lex.add_prevent("رائع")
    with pytest.raises(DuplicateWord):
        lex.add(LexiconEntry("كلام", NG))
    assert lex.prevent_list & set(lex.words()) == set()


def test_save_load_round_trip(tmp_path):
    lex = SentimentLexicon(
        [LexiconEntry("رائع", PO, "wonderful", "rA}E", 5),
         LexiconEntry("ملل", NG, "boredom", "", 2),
         LexiconEntry("عادي", NU)],
        prevent=["كلام", "جدار"])
    path = tmp_path / "lex.tsv"
    save_sentiment_lexicon(lex, path)
    assert load_sentiment_lexicon(path) == lex
    assert (tmp_path / "lex.prevent").exists()


def test_save_empty_lexicon(tmp_path):
    path = tmp_path / "lex.tsv"
    save_sentiment_lexicon(SentimentLexicon(), path)
    loaded = load_sentiment_lexicon(path)
    assert len(loaded) == 0
    assert path.read_text(encoding="utf-8") == LEXICON_HEADER + "\n"


def test_save_escapes_tab_in_gloss(tmp_path):
    lex = SentimentLexicon([LexiconEntry("رائع", PO, gloss="with\ttab")])
    path = tmp_path / "lex.tsv"
    save_sentiment_lexicon(lex, path)
    loaded = load_sentiment_lexicon(path)
    assert loaded.lookup("رائع").gloss == "with tab"


_entry_strategy = st.builds(
    LexiconEntry,
    word=st.sampled_from(["رائع", "جميل", "ملل", "فساد", "عادي", "سعادة", "قذر"]),
    polarity=st.sampled_from([PO, NG, NU]),
    gloss=st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=10),
    translit=st.text(st.characters(min_codepoint=97, max_codepoint=122), max_size=8),
    tf=st.integers(min_value=0, max_value=99),
)


@given(st.lists(_entry_strategy, max_size=7, unique_by=lambda e: e.word))
def test_round_trip_property(tmp_path_factory, entries):
    lex = SentimentLexicon(entries)
    path = tmp_path_factory.mktemp("lex") / "lex.tsv"
    save_sentiment_lexicon(lex, path)
    assert load_sentiment_lexicon(path) == lex


def test_idiom_entry_validation():
    idioms = IdiomLexicon()
    with pytest.raises(ValueError, match="idiom phrases need at least 2 tokens"):
        idioms.add(IdiomEntry(("واحدة",), NG))
    with pytest.raises(ValueError, match="idiom polarity must be PO or NG"):
        idioms.add(IdiomEntry(("كلمتين", "هنا"), NU))
    assert len(idioms) == 0 and idioms.match_at(["كلمتين", "هنا"], 0) is None


def test_add_refuses_a_negative_tf():
    lex = SentimentLexicon([LexiconEntry("رائع", PO, tf=2)])
    with pytest.raises(ValueError, match="negative term frequency for 'ملل'"):
        lex.add(LexiconEntry("ملل", NG, tf=-1))
    with pytest.raises(ValueError, match="negative term frequency"):
        SentimentLexicon([LexiconEntry("ملل", NG, tf=-1)])
    assert lex.words() == ["رائع"]


def test_load_idiom_lexicon(tmp_path):
    path = tmp_path / "idioms.tsv"
    path.write_text("تسليم القط مفتاح الكرار\tNG\n"
                    "زي العسل\tPO\tlike honey\n", encoding="utf-8")
    idioms = load_idiom_lexicon(path)
    assert len(idioms) == 2
    entries = list(idioms)
    assert entries[0].phrase == ("تسليم", "القط", "مفتاح", "الكرار")
    assert entries[0].polarity is NG
    assert entries[1].gloss == "like honey"


def test_load_idiom_phrase_with_delimiters_inside(tmp_path):
    # a delimiter splits no word, so a phrase loads to the same words with or
    # without one
    path = tmp_path / "idioms.tsv"
    path.write_text("زي. العسل\tPO\n"
                    "تسليم القط؟ مفتاحُ الكرار!\tNG\n", encoding="utf-8")
    assert [entry.phrase for entry in load_idiom_lexicon(path)] == [
        ("زي", "العسل"), ("تسليم", "القط", "مفتاح", "الكرار")]


def test_load_idiom_rejects_single_token(tmp_path):
    path = tmp_path / "idioms.tsv"
    path.write_text("رائع\tNG\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_idiom_lexicon(path)


def test_load_idiom_empty_file(tmp_path):
    path = tmp_path / "idioms.tsv"
    path.write_text("", encoding="utf-8")
    assert len(load_idiom_lexicon(path)) == 0


def test_idiom_duplicate_phrase():
    idioms = IdiomLexicon([IdiomEntry(("زي", "العسل"), PO)])
    with pytest.raises(DuplicatePhrase):
        idioms.add(IdiomEntry(("زي", "العسل"), NG))


@pytest.mark.parametrize("word, problem", [("abc", "empty"), ("زي العسل", "several words"),
                                            ("زي.العسل", "several words")])
def test_idiom_add_rejects_a_word_that_is_not_one_word_when_normalized(word, problem):
    with pytest.raises(ValueError, match=f"idiom word {word!r} is {problem}"):
        IdiomLexicon([IdiomEntry((word, "جدا"), PO)])


def test_idiom_add_normalizes_and_dedups_the_normalized_phrase():
    idioms = IdiomLexicon([IdiomEntry(("زى", "العسـل"), PO)])
    with pytest.raises(DuplicatePhrase):
        idioms.add(IdiomEntry(("زي", "العسل"), NG))


def test_idiom_match_prefers_longest():
    idioms = IdiomLexicon([
        IdiomEntry(("زي", "العسل"), PO),
        IdiomEntry(("زي", "العسل", "الصافي"), PO),
    ])
    surfaces = ["زي", "العسل", "الصافي"]
    assert idioms.match_at(surfaces, 0).phrase == ("زي", "العسل", "الصافي")
    assert idioms.match_at(["زي", "الفل"], 0) is None


def oracle_flat_count(topics, word):
    """Independent tf oracle: flat count over the normalized text's words."""
    import re
    from arasent.preprocess import normalize_text
    return sum(re.split(r"[\s.!?؟؛]+", normalize_text(t.text)).count(word) for t in topics)


def test_update_term_frequencies():
    lex = SentimentLexicon([LexiconEntry("رائع", PO, tf=99), LexiconEntry("ملل", NG, tf=7)])
    topics = [Topic("1", "المكان رائع رائع. رائع فعلا"),
              Topic("2", "رائع وممتع"), Topic("3", "كلام رائع")]
    updated = update_term_frequencies(lex, topics)
    assert oracle_flat_count(topics, "رائع") == 5
    assert updated.lookup("رائع").tf == 5
    assert updated.lookup("ملل").tf == 0
    assert lex.lookup("رائع").tf == 99  # input untouched


def test_update_term_frequencies_empty_corpus():
    lex = SentimentLexicon([LexiconEntry("رائع", PO, tf=4)])
    assert update_term_frequencies(lex, []).lookup("رائع").tf == 0


def test_update_term_frequencies_counts_diacritized_occurrences():
    lex = SentimentLexicon([LexiconEntry("رائع", PO)])
    updated = update_term_frequencies(lex, [Topic("1", "المكان رائِع")])
    assert updated.lookup("رائع").tf == 1


@given(st.permutations([Topic("1", "رائع ملل"), Topic("2", "رائع"),
                        Topic("3", "ملل ملل"), Topic("4", "كلام")]))
def test_update_term_frequencies_order_independent(topics):
    lex = SentimentLexicon([LexiconEntry("رائع", PO), LexiconEntry("ملل", NG)])
    updated = update_term_frequencies(lex, topics)
    assert updated.lookup("رائع").tf == 2
    assert updated.lookup("ملل").tf == 3


def test_polarity_flip():
    assert PO.flipped() is NG
    assert NG.flipped() is PO
    assert NU.flipped() is NU


@given(st.sampled_from(["كلام", "أخبار", "إعلان", "مبنى", "جـدار"]))
def test_is_prevented_checks_the_normalized_word(word):
    """A prevent word added un-normalized is found by its normalized form."""
    from arasent.preprocess import normalize_text
    lex = SentimentLexicon([LexiconEntry("رائع", PO)], prevent=[word])
    assert lex.is_prevented(normalize_text(word))
    assert lex.prevent_list == {normalize_text(word)}
    assert not lex.is_prevented("رائع") and not lex.is_prevented("جدول")


def test_prevent_list_is_a_snapshot():
    lex = SentimentLexicon(prevent=["كلام"])
    snapshot = lex.prevent_list
    lex.add_prevent("جدار")
    assert snapshot == {"كلام"}
    assert lex.prevent_list == {"كلام", "جدار"} and lex.is_prevented("جدار")


def test_save_replaces_carriage_returns_in_gloss(tmp_path):
    lex = SentimentLexicon([LexiconEntry("رائع", PO, gloss="one\rtwo\r\nthree")])
    path = tmp_path / "lex.tsv"
    save_sentiment_lexicon(lex, path)
    assert load_sentiment_lexicon(path).lookup("رائع").gloss == "one two  three"

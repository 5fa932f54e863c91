import pytest
from hypothesis import assume, given, strategies as st

from arasent.errors import ArasentError, ParseError, ProviderError
from arasent.evaluation import Topic
from arasent.expansion import (
    ACCEPTED,
    CachingProvider,
    FixtureProvider,
    Outcome,
    PENDING,
    REJECTED,
    ReviewItem,
    SynsetResult,
    detect_orientation,
    expand_lexicon,
    resolve_oov,
)
from arasent.lexicon import LexiconEntry, Polarity, SentimentLexicon
from arasent.preprocess import PosTag, _WORD_RE, normalize_text

PO, NG, NU = Polarity.PO, Polarity.NG, Polarity.NU


def seed_entries():
    return [
        LexiconEntry("فرحان", PO, "Pleased"),
        LexiconEntry("سعيد", PO, "Happy"),
        LexiconEntry("مبتهج", PO, "Glad"),
        LexiconEntry("قوي", PO, "strong"),
        LexiconEntry("عنيف", NG, "violent"),
        LexiconEntry("حاد", PO, "keen"),
        LexiconEntry("عادي", NU),
        LexiconEntry("جميل", PO),
        LexiconEntry("رائع", PO),
    ]


def seed_lexicon():
    """The walkthrough base: does not know the three candidate words yet."""
    return SentimentLexicon(seed_entries(), prevent=["كلام"])


@pytest.fixture
def lex():
    return SentimentLexicon(
        seed_entries() + [LexiconEntry("مسرور", PO, "Delighted")],
        prevent=["كلام"])


@pytest.fixture
def provider():
    return FixtureProvider({
        "مسرور": SynsetResult("Delighted", ("فرحان", "سعيد", "مبتهج")),
        "شديد": SynsetResult("Intense", ("قوي", "عنيف", "حاد")),
        "قبيح": SynsetResult("Ugly", (), ("جميل", "رائع")),
    })


@pytest.fixture
def tags():
    return ({w: PosTag.JJ for w in ["مسرور", "شديد", "هايف", "قبيح", "هادي"]}
            | {"ضجة": PosTag.NN, "يفرح": PosTag.VB})


def candidates(texts, lex, tags):
    """The words expansion looks up over a corpus of ``texts``, in order."""
    asked = []

    class Recording:
        def fetch(self, word):
            asked.append(word)
            return SynsetResult()

    expand_lexicon([Topic(f"t{i}", text) for i, text in enumerate(texts)], lex, Recording(),
                   tags=tags)
    return asked


# candidate filtering

def test_filter_excludes_known_words(lex, tags):
    assert candidates(["مسرور شديد"], lex, tags) == ["شديد"]  # مسرور already in lexicon


def test_filter_excludes_other_tags(lex, tags):
    assert candidates(["غامض شديد"], lex, tags) == ["شديد"]  # غامض tagged OTHER


def test_filter_dedups_first_occurrence(lex, tags):
    assert candidates(["هايف شديد هايف", "هايف شديد"], lex, tags) == ["هايف", "شديد"]


def test_filter_excludes_prevent_listed(lex):
    assert candidates(["كلام ضجة"], lex, {"كلام": PosTag.NN, "ضجة": PosTag.NN}) == ["ضجة"]


def test_filter_accepts_nn_and_vb(lex, tags):
    assert candidates(["ضجة يفرح"], lex, tags) == ["ضجة", "يفرح"]


# orientation detection

def test_unanimous_synonyms_adopt(lex, provider):
    d = detect_orientation(provider.fetch("مسرور"), lex)
    assert d.outcome is Outcome.ADOPT and d.polarity is PO
    assert len(d.evidence) == 3


def test_conflicting_synonyms_cos(lex, provider):
    d = detect_orientation(provider.fetch("شديد"), lex)
    assert d.outcome is Outcome.COS and d.polarity is None


def test_no_translation_no_synonyms_oov(lex, provider):
    d = detect_orientation(provider.fetch("هايف"), lex)
    assert d.outcome is Outcome.OOV
    assert d.evidence == ()


def test_unknown_synonyms_route_to_oov(lex):
    syn = SynsetResult("Mysterious", ("غامض", "مبهم"))
    d = detect_orientation(syn, lex)
    assert d.outcome is Outcome.OOV


def test_neutral_synonyms_contribute_no_evidence(lex):
    syn = SynsetResult("Ordinary", ("عادي",))
    assert detect_orientation(syn, lex).outcome is Outcome.OOV


def test_antonyms_vote_flipped(lex, provider):
    d = detect_orientation(provider.fetch("قبيح"), lex)
    assert d.outcome is Outcome.ADOPT and d.polarity is NG


def test_never_adopt_neutral(lex):
    results = [
        SynsetResult("x", ("فرحان",), ("عنيف",)),
        SynsetResult("y", ("عادي", "قوي")),
        SynsetResult(None, (), ()),
    ]
    for syn in results:
        d = detect_orientation(syn, lex)
        assert not (d.outcome is Outcome.ADOPT and d.polarity is NU)


@given(st.lists(st.sampled_from(["فرحان", "سعيد", "عنيف", "قوي", "جميل"]), max_size=4),
       st.lists(st.sampled_from(["فرحان", "سعيد", "عنيف", "قوي", "جميل"]), max_size=4))
def test_antonym_flip_equivalence(syn_words, ant_words):
    """An antonym votes exactly like a synonym of the flipped polarity."""
    lex = SentimentLexicon([
        LexiconEntry("فرحان", PO), LexiconEntry("سعيد", PO),
        LexiconEntry("عنيف", NG), LexiconEntry("قوي", PO),
        LexiconEntry("جميل", PO),
        LexiconEntry("حزين", NG), LexiconEntry("مبسوط", PO),
        LexiconEntry("مرعب", NG),
    ])
    flip_map = {"فرحان": "حزين", "سعيد": "حزين", "عنيف": "مبسوط",
                "قوي": "مرعب", "جميل": "حزين"}
    as_given = SynsetResult("x", tuple(syn_words), tuple(ant_words))
    # replace each antonym by a synonym with flipped polarity
    flipped_syns = tuple(syn_words) + tuple(flip_map[w] for w in ant_words)
    as_synonyms = SynsetResult("x", flipped_syns, ())
    d1 = detect_orientation(as_given, lex)
    d2 = detect_orientation(as_synonyms, lex)
    assert d1.outcome is d2.outcome
    assert d1.polarity is d2.polarity


# OOV resolution

def test_resolve_oov_accept_negative(lex):
    item = ReviewItem("هايف")
    grown = resolve_oov(lex, item, "n", tf=4)
    assert item.status == ACCEPTED and item.polarity is NG
    entry = grown.lookup("هايف")
    assert entry.polarity is NG and entry.gloss == "" and entry.tf == 4
    assert lex.lookup("هايف") is None  # input lexicon untouched


def test_resolve_oov_reject_goes_to_prevent_list(lex):
    item = ReviewItem("هايف")
    grown = resolve_oov(lex, item, "reject")
    assert item.status == REJECTED
    assert "هايف" in grown.prevent_list
    assert grown.lookup("هايف") is None


def test_resolve_oov_invalid_answer(lex):
    with pytest.raises(ArasentError):
        resolve_oov(lex, ReviewItem("هايف"), "maybe")


def test_resolve_oov_rejects_already_resolved(lex):
    item = ReviewItem("هايف", status=ACCEPTED)
    with pytest.raises(ValueError):
        resolve_oov(lex, item, "p")


# fixture provider and cache

def test_fixture_provider_from_file(tmp_path):
    path = tmp_path / "syn.tsv"
    path.write_text("مسرور\tDelighted\tفرحان,سعيد\t\n"
                    "قبيح\tUgly\t\tجميل\n"
                    "هايف\t\t\t\n", encoding="utf-8")
    p = FixtureProvider.from_file(path)
    assert p.fetch("مسرور").translation == "Delighted"
    assert p.fetch("مسرور").synonyms == ("فرحان", "سعيد")
    assert p.fetch("قبيح").antonyms == ("جميل",)
    assert p.fetch("هايف").is_empty
    assert p.fetch("غيرموجود").is_empty


def test_fixture_provider_rejects_a_synonym_that_normalizes_to_nothing(tmp_path):
    path = tmp_path / "syn.tsv"
    path.write_text("قبيح\tUgly\t\tجميل\n"
                    "مسرور\tDelighted\thappy,سعيد\tsad\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"syn\.tsv:2: word 'happy' is empty after"):
        FixtureProvider.from_file(path)
    path.write_text("مسرور\tDelighted\tسعيد, ,\t \n", encoding="utf-8")  # blank items
    assert FixtureProvider.from_file(path).fetch("مسرور") == \
        SynsetResult("Delighted", ("سعيد",), ())


@pytest.mark.parametrize("row, error", [
    ("مش كده\tx\t\t", "word is several words"), ("!\tx\t\t", "word is empty"),
    ("مسرور\tx\tفرحان جدا\t", "word 'فرحان جدا' is several words"),
    ("مسرور\tx\t\tحزين.جدا", "word 'حزين.جدا' is several words")],
    ids=["word-space", "word-delimiter", "synonym-space", "antonym-delimiter"])
def test_fixture_provider_rejects_a_word_that_is_not_one_word(tmp_path, row, error):
    path = tmp_path / "syn.tsv"
    path.write_text(f"قبيح\tUgly\t\tجميل\n{row}\n", encoding="utf-8")
    with pytest.raises(ParseError, match=rf"syn\.tsv:2: {error} after normalization$"):
        FixtureProvider.from_file(path)


def test_fixture_provider_drops_a_delimiter_next_to_a_word(tmp_path):
    path = tmp_path / "syn.tsv"
    path.write_text("مسرور!\tDelighted\tسعيد.\t\n", encoding="utf-8")
    assert FixtureProvider.from_file(path).fetch("مسرور") == \
        SynsetResult("Delighted", ("سعيد",), ())


def test_fixture_provider_rejects_duplicates(tmp_path):
    path = tmp_path / "syn.tsv"
    path.write_text("مسرور\tx\t\t\nمسرور\ty\t\t\n", encoding="utf-8")
    with pytest.raises(ParseError):
        FixtureProvider.from_file(path)


def test_caching_provider_persists_answers(tmp_path):
    calls = []

    class Counting:
        def fetch(self, word):
            calls.append(word)
            return SynsetResult("Happy", ("سعيد",))

    cache = tmp_path / "cache.tsv"
    p1 = CachingProvider(Counting(), cache)
    assert p1.fetch("مبسوط").translation == "Happy"
    assert p1.fetch("مبسوط").translation == "Happy"
    assert calls == ["مبسوط"]
    # a fresh wrapper reads the file, no inner calls at all
    p2 = CachingProvider(Counting(), cache)
    assert p2.fetch("مبسوط").synonyms == ("سعيد",)
    assert calls == ["مبسوط"]


# the full expansion flow

def walkthrough_corpus():
    return [Topic("t1", "الموظف مسرور"), Topic("t2", "الزحام شديد"),
            Topic("t3", "الفيلم هايف")]


def test_expand_nothing_to_do(lex, provider, tags):
    grown, report = expand_lexicon([Topic("t1", "الموظف مسرور")], lex, provider,
                                   tags=tags)
    assert report.counts() == {"adopted": 0, "cos": 0, "oov_pending": 0,
                               "oov_accepted": 0, "oov_rejected": 0, "errors": 0}
    assert grown == lex


def test_expand_three_case_walkthrough(provider, tags, tmp_path):
    base = seed_lexicon()
    pending = tmp_path / "review.tsv"
    grown, report = expand_lexicon(walkthrough_corpus(), base, provider,
                                   tags=tags, pending_path=pending)
    assert report.adopted == ["مسرور"]
    assert report.cos == ["شديد"]
    assert report.oov_pending == ["هايف"]
    entry = grown.lookup("مسرور")
    assert entry.polarity is PO and entry.gloss == "Delighted" and entry.tf == 1
    assert grown.lookup("شديد") is None  # conflicts never mutate the lexicon
    assert pending.read_text(encoding="utf-8") == "هايف\tPENDING\n"


def test_expand_idempotent(provider, tags, tmp_path):
    base = seed_lexicon()
    pending = tmp_path / "review.tsv"
    grown, _ = expand_lexicon(walkthrough_corpus(), base, provider,
                              tags=tags, pending_path=pending)
    again, report = expand_lexicon(walkthrough_corpus(), grown, provider,
                                   tags=tags, pending_path=pending)
    assert report.counts()["adopted"] == 0
    assert len(again) == len(grown)
    # the pending file is not re-appended either
    assert pending.read_text(encoding="utf-8") == "هايف\tPENDING\n"


def test_expand_reads_pending_files_with_the_earlier_middle_column(provider, tags,
                                                                  tmp_path):
    pending = tmp_path / "review.tsv"
    pending.write_text("هايف\t\tPENDING\n", encoding="utf-8")
    _, report = expand_lexicon(walkthrough_corpus(), seed_lexicon(), provider,
                               tags=tags, pending_path=pending)
    assert report.oov_pending == ["هايف"]
    assert pending.read_text(encoding="utf-8") == "هايف\t\tPENDING\n"


def test_expand_reads_pending_files_with_unnormalized_words(provider, tags, tmp_path):
    pending = tmp_path / "review.tsv"
    pending.write_text("هايِف\tPENDING\n", encoding="utf-8")
    _, report = expand_lexicon(walkthrough_corpus(), seed_lexicon(), provider,
                               tags=tags, pending_path=pending)
    assert report.oov_pending == ["هايف"]
    assert pending.read_text(encoding="utf-8") == "هايِف\tPENDING\n"


@pytest.mark.parametrize("row", ["هايف!\tPENDING", " هايف.\tPENDING", "هايف"])
def test_expand_dedupes_a_hand_edited_pending_row(provider, tags, tmp_path, row):
    pending = tmp_path / "review.tsv"
    pending.write_text(f"{row}\n\n", encoding="utf-8")
    _, report = expand_lexicon(walkthrough_corpus(), seed_lexicon(), provider,
                               tags=tags, pending_path=pending)
    assert report.oov_pending == ["هايف"]
    assert pending.read_text(encoding="utf-8") == f"{row}\n\n"


@pytest.mark.parametrize("row, problem", [("!\tPENDING", "empty"),
                                          ("هايف جدا\tPENDING", "several words"),
                                          ("هايف.جدا", "several words")])
def test_expand_refuses_a_pending_row_that_is_not_one_word(provider, tags, tmp_path, row,
                                                           problem):
    pending = tmp_path / "review.tsv"
    pending.write_text(f"هايف\tPENDING\n{row}\n", encoding="utf-8")
    with pytest.raises(ParseError,
                       match=f"review.tsv:2: pending word is {problem} after normalization$"):
        expand_lexicon(walkthrough_corpus(), seed_lexicon(), provider, tags=tags,
                       pending_path=pending)


def test_expand_interactive_accepts_ng(provider, tags):
    base = seed_lexicon()
    answers = {"هايف": "n"}
    grown, report = expand_lexicon(
        walkthrough_corpus(), base, provider, tags=tags,
        ask=lambda item, syn: answers[item.word])
    assert report.oov_accepted == ["هايف"]
    assert grown.lookup("هايف").polarity is NG


def test_expand_interactive_reject_and_skip(provider, tags, tmp_path):
    base = seed_lexicon()
    pending = tmp_path / "review.tsv"
    grown, report = expand_lexicon(
        walkthrough_corpus() + [Topic("t4", "الجو هادي")], base, provider,
        tags=tags, pending_path=pending,
        ask=lambda item, syn: {"هايف": "r", "هادي": "s"}[item.word])
    assert report.oov_rejected == ["هايف"]
    assert report.oov_pending == ["هادي"]
    assert "هايف" in grown.prevent_list
    # rejected words never come back as candidates
    _, report2 = expand_lexicon(walkthrough_corpus(), grown, provider,
                                tags=tags)
    assert report2.counts()["oov_pending"] == 0


def test_expand_provider_error_skips_without_prevent_listing(tags):
    class Flaky:
        def fetch(self, word):
            raise ProviderError(word, "offline")

    base = seed_lexicon()
    grown, report = expand_lexicon(walkthrough_corpus(), base, Flaky(),
                                   tags=tags)
    assert report.counts()["errors"] == 3
    assert len(grown) == len(base)
    assert grown.prevent_list == base.prevent_list


def test_expand_insert_immediately_feeds_later_candidates(tags):
    """A word adopted early serves as evidence for a later candidate."""
    lex = SentimentLexicon([LexiconEntry("فرحان", PO), LexiconEntry("سعيد", PO)])
    provider = FixtureProvider({
        "مسرور": SynsetResult("Delighted", ("فرحان", "سعيد")),
        "هادي": SynsetResult("Calm", ("مسرور",)),  # only known post-adopt
    })
    corpus = [Topic("t1", "الموظف مسرور"), Topic("t2", "الجو هادي")]
    grown, report = expand_lexicon(corpus, lex, provider, tags=tags)
    assert report.adopted == ["مسرور", "هادي"]
    assert grown.lookup("هادي").polarity is PO


class _Fixed:
    """Inner provider that always gives one answer and counts its calls."""

    def __init__(self, result):
        self.result = result
        self.calls = 0

    def fetch(self, word):
        self.calls += 1
        return self.result


def test_caching_provider_survives_tabs_and_newlines_in_answers(tmp_path):
    cache = tmp_path / "cache.tsv"
    answer = SynsetResult("happy\tglad\nhi", ("سعيد\t", "فرحان\nمبسوط", "\nمبسوط"))
    first = CachingProvider(_Fixed(answer), cache).fetch("مبسوط")
    assert first.translation == "happy glad hi"
    assert first.synonyms == ("سعيد", "مبسوط")  # "فرحان مبسوط" is two words
    reload = _Fixed(SynsetResult())
    assert CachingProvider(reload, cache).fetch("مبسوط") == first
    assert reload.calls == 0


_field = st.text(st.one_of(st.characters(min_codepoint=0x0621, max_codepoint=0x064A),
                           st.sampled_from(" \t\n\r,#.x1")), max_size=12)


@given(word=_field, translation=st.none() | _field,
       synonyms=st.lists(_field, max_size=3), antonyms=st.lists(_field, max_size=3))
def test_caching_provider_round_trip(tmp_path_factory, word, translation, synonyms,
                                     antonyms):
    """fetch, then a fresh provider over the same cache file: same answer,
    without asking the inner provider again."""
    assume(len(_WORD_RE.findall(normalize_text(word))) == 1)  # only a word has a row
    answer = SynsetResult(translation, tuple(synonyms), tuple(antonyms))
    cache = tmp_path_factory.mktemp("cache") / "cache.tsv"
    first = CachingProvider(_Fixed(answer), cache).fetch(word)
    reload = _Fixed(SynsetResult("other"))
    assert CachingProvider(reload, cache).fetch(word) == first
    assert reload.calls == 0


def test_caching_provider_does_not_persist_a_word_that_normalizes_away(tmp_path):
    cache = tmp_path / "cache.tsv"
    for word in ("123", "!", "مش كده", "مش.كده"):
        assert CachingProvider(_Fixed(SynsetResult("x")), cache).fetch(word).translation == "x"
    assert not cache.exists()

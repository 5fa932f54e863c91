import pytest
from hypothesis import given, settings, strategies as st

import reference_pipeline as ref

from arasent.errors import ArasentError, ParseError, ProviderError
from arasent.evaluation import Topic
from arasent.expansion import (
    FixtureProvider,
    Outcome,
    SynsetResult,
    _load_pending_words,
    detect_orientation,
    expand_lexicon,
)
from arasent.lexicon import LexiconEntry, Polarity, SentimentLexicon, count_corpus_tokens
from arasent.preprocess import PosTag

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


# the bulk count against the sentence-by-sentence reference

# Normalized words: "في" is a stopword that the tag table tags JJ, "امل" a
# stopword tagged NN, "كلام" is prevented, "جميل" known, "غامض" untagged.
_WORDS = ["مسرور", "شديد", "هايف", "ضجة", "يفرح", "في", "امل", "كلام", "جميل", "غامض",
          "ذكي"]
_SCAN_TAGS = {"مسرور": PosTag.JJ, "شديد": PosTag.JJ, "هايف": PosTag.JJ, "ضجة": PosTag.NN,
              "يفرح": PosTag.VB, "في": PosTag.JJ, "امل": PosTag.NN, "كلام": PosTag.NN,
              "جميل": PosTag.JJ, "ذكي": PosTag.OTHER}
_SCAN_STOPWORDS = frozenset({"في", "امل"})
# each letter as written in a text: alef and ya variants that fold into it,
# each maybe followed by a mark or a tatweel that normalization deletes
_VARIANTS = {"ا": "اأإآٱ", "ي": "يى"}
_MARKS = ["", "", "", "\u064b", "\u0651", "\u0670", "\u0640", "\u06d6"]
# "" glues two words into one, and lets a text end in a letter
_SEPARATORS = ["", " ", " ", "  ", "\n", " \n ", ".", " . ", "!", "؟", "؛", "،", " x1 ",
               "\t", "\u00a0"]


@st.composite
def _written_word(draw):
    return "".join(draw(st.sampled_from(_VARIANTS.get(letter, letter)))
                   + draw(st.sampled_from(_MARKS))
                   for letter in draw(st.sampled_from(_WORDS)))


_text = st.lists(st.tuples(_written_word(), st.sampled_from(_SEPARATORS)), max_size=8).map(
    lambda pairs: "".join(word + sep for word, sep in pairs))


class _Adopting:
    """Adopts every word it is asked (a PO synonym), recording the order."""

    def __init__(self):
        self.asked = []

    def fetch(self, word):
        self.asked.append(word)
        return SynsetResult("x", ("سعيد",))


@settings(max_examples=60, deadline=None)
@given(head=st.lists(_text, min_size=1, max_size=6), filler=_text,
       n_fill=st.integers(256, 270), tail=st.lists(_text, max_size=6))
def test_bulk_count_asks_and_counts_as_the_sentence_scan(head, filler, n_fill, tail):
    """Over more than 256 topics, several blocks of the bulk count, so that
    the words of the tail first occur past a block boundary."""
    texts = head + [filler] * n_fill + tail
    lex = SentimentLexicon([LexiconEntry("جميل", PO), LexiconEntry("سعيد", PO)],
                           prevent=["كلام"])
    tf, want = ref.expansion_scan(texts, lex, _SCAN_TAGS, _SCAN_STOPWORDS)
    provider = _Adopting()
    grown, report = expand_lexicon([Topic(f"t{i}", text) for i, text in enumerate(texts)],
                                   lex, provider, tags=_SCAN_TAGS,
                                   stopwords=_SCAN_STOPWORDS)
    assert provider.asked == report.adopted == want
    assert {word: grown.lookup(word).tf for word in want} == {word: tf[word] for word in want}


@settings(max_examples=30, deadline=None)
@given(head=st.lists(_text, min_size=1, max_size=6), filler=_text,
       n_fill=st.integers(60, 140), tail=st.lists(_text, max_size=6))
def test_count_corpus_tokens_counts_as_the_sentence_scan(head, filler, n_fill, tail):
    """Over one to three blocks, every word's count, keyed in the order in
    which the words first occur."""
    texts = head + [filler] * n_fill + tail
    tf, _ = ref.expansion_scan(texts, SentimentLexicon(), {})
    counts = count_corpus_tokens(Topic(f"t{i}", text) for i, text in enumerate(texts))
    assert list(counts.items()) == list(tf.items())


def test_bulk_count_keeps_words_apart_across_topics_and_sentences(lex, tags):
    """Topics are joined by a newline: the last word of one topic and the
    first of the next stay two words, as do words around a delimiter."""
    assert candidates(["هاي", "ف شديد.مسرور", "هايِـف"], lex, tags) == ["شديد", "هايف"]


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
       st.lists(st.sampled_from(["فرحان", "سعيد", "عنيف", "قوي", "جميل"]), max_size=4),
       st.sampled_from([None, "x"]))
def test_antonym_flip_equivalence(syn_words, ant_words, translation):
    """An antonym votes exactly like a synonym of the flipped polarity, with
    or without a translation: an answer of antonyms alone votes too."""
    lex = SentimentLexicon([
        LexiconEntry("فرحان", PO), LexiconEntry("سعيد", PO),
        LexiconEntry("عنيف", NG), LexiconEntry("قوي", PO),
        LexiconEntry("جميل", PO),
        LexiconEntry("حزين", NG), LexiconEntry("مبسوط", PO),
        LexiconEntry("مرعب", NG),
    ])
    flip_map = {"فرحان": "حزين", "سعيد": "حزين", "عنيف": "مبسوط",
                "قوي": "مرعب", "جميل": "حزين"}
    as_given = SynsetResult(translation, tuple(syn_words), tuple(ant_words))
    # replace each antonym by a synonym with flipped polarity
    flipped_syns = tuple(syn_words) + tuple(flip_map[w] for w in ant_words)
    as_synonyms = SynsetResult(translation, flipped_syns, ())
    d1 = detect_orientation(as_given, lex)
    d2 = detect_orientation(as_synonyms, lex)
    assert d1.outcome is d2.outcome
    assert d1.polarity is d2.polarity


# fixture provider

def test_fixture_provider_from_file(tmp_path):
    path = tmp_path / "syn.tsv"
    path.write_text("مسرور\tDelighted\tفرحان,سعيد\t\n"
                    "قبيح\tUgly\t\tجميل\n"
                    "هايف\t\t\t\n", encoding="utf-8")
    p = FixtureProvider.from_file(path)
    assert p.fetch("مسرور").translation == "Delighted"
    assert p.fetch("مسرور").synonyms == ("فرحان", "سعيد")
    assert p.fetch("قبيح").antonyms == ("جميل",)
    assert p.fetch("هايف") == SynsetResult()
    assert p.fetch("غيرموجود") == SynsetResult()


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


def test_fixture_provider_reads_a_one_column_row_as_no_answer(tmp_path, lex):
    path = tmp_path / "syn.tsv"
    path.write_text("قبيح\tUgly\t\tجميل\nهايف\n", encoding="utf-8")
    answer = FixtureProvider.from_file(path).fetch("هايف")
    assert answer == SynsetResult()
    assert detect_orientation(answer, lex).outcome is Outcome.OOV


def test_fixture_provider_refuses_a_five_column_row(tmp_path):
    path = tmp_path / "syn.tsv"
    path.write_text("قبيح\tUgly\t\tجميل\nمسرور\tx\t\t\textra\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"syn\.tsv:2: expected 1-4 columns, got 5$"):
        FixtureProvider.from_file(path)


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


def test_expand_takes_a_pending_row_led_by_a_hash_for_a_comment(provider, tags, tmp_path):
    pending = tmp_path / "review.tsv"
    pending.write_text("# هايف\tPENDING\n", encoding="utf-8")
    assert _load_pending_words(pending) == set()
    _, report = expand_lexicon(walkthrough_corpus(), seed_lexicon(), provider,
                               tags=tags, pending_path=pending)
    assert report.oov_pending == ["هايف"]
    assert pending.read_text(encoding="utf-8") == "# هايف\tPENDING\nهايف\tPENDING\n"


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
        ask=lambda word, syn: answers[word])
    assert report.oov_accepted == ["هايف"]
    assert grown.lookup("هايف").polarity is NG


def test_expand_accept_adds_the_word_with_an_empty_gloss_and_its_corpus_tf(provider, tags):
    base = seed_lexicon()
    grown, report = expand_lexicon(
        walkthrough_corpus() + [Topic("t4", "هايف هايف")], base, provider, tags=tags,
        ask=lambda word, syn: " N ")
    assert report.oov_accepted == ["هايف"]
    assert grown.lookup("هايف") == LexiconEntry("هايف", NG, "", "", 3)
    assert base == seed_lexicon()  # the input lexicon is untouched


@pytest.mark.parametrize("answer", ["maybe", ""])
def test_expand_refuses_an_answer_outside_answers(provider, tags, answer):
    with pytest.raises(ArasentError, match=f"^expected p, n, r or s, got {answer!r}$"):
        expand_lexicon(walkthrough_corpus(), seed_lexicon(), provider, tags=tags,
                       ask=lambda word, syn: answer)


def test_expand_interactive_reject_and_skip(provider, tags, tmp_path):
    base = seed_lexicon()
    pending = tmp_path / "review.tsv"
    grown, report = expand_lexicon(
        walkthrough_corpus() + [Topic("t4", "الجو هادي")], base, provider,
        tags=tags, pending_path=pending,
        ask=lambda word, syn: {"هايف": "r", "هادي": "s"}[word])
    assert report.oov_rejected == ["هايف"]
    assert report.oov_pending == ["هادي"]
    assert "هايف" in grown.prevent_list and grown.lookup("هايف") is None
    assert base == seed_lexicon()
    # rejected words never come back as candidates
    _, report2 = expand_lexicon(walkthrough_corpus(), grown, provider,
                                tags=tags)
    assert report2.counts()["oov_pending"] == 0


def test_an_interrupted_review_keeps_the_pending_rows_written_so_far(provider, tags,
                                                                    tmp_path):
    pending = tmp_path / "review.tsv"
    answers = iter(["s"])

    def ask(word, syn):
        for answer in answers:
            return answer
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        expand_lexicon(walkthrough_corpus() + [Topic("t4", "الجو هادي")], seed_lexicon(),
                       provider, tags=tags, pending_path=pending, ask=ask)
    assert pending.read_text(encoding="utf-8") == "هايف\tPENDING\n"


def test_under_review_each_pending_row_is_on_disk_before_the_next_question(provider, tags,
                                                                          tmp_path):
    pending = tmp_path / "review.tsv"
    seen = []

    def ask(word, syn):
        seen.append(pending.read_text(encoding="utf-8") if pending.exists() else None)
        return "s"

    expand_lexicon(walkthrough_corpus() + [Topic("t4", "الجو هادي")], seed_lexicon(),
                   provider, tags=tags, pending_path=pending, ask=ask)
    assert seen == [None, "هايف\tPENDING\n"]


def test_a_failing_provider_leaves_the_pending_rows_written_so_far(provider, tags, tmp_path):
    """Without a reviewer the rows are buffered; the file is closed, and so
    written, on the way out of an error too."""
    class Failing:
        def fetch(self, word):
            if word == "هادي":
                raise RuntimeError("broken provider")
            return provider.fetch(word)

    pending = tmp_path / "review.tsv"
    # ``raised`` keeps the failed call's frame alive, and with it any file
    # object the call left open and unflushed
    with pytest.raises(RuntimeError) as raised:
        expand_lexicon(walkthrough_corpus() + [Topic("t4", "الجو هادي")], seed_lexicon(),
                       Failing(), tags=tags, pending_path=pending)
    assert pending.read_text(encoding="utf-8") == "هايف\tPENDING\n"
    assert raised.value.args == ("broken provider",)


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


_SEEDS = {"فرحان": PO, "سعيد": PO, "عنيف": NG, "حزين": NG}
_CANDIDATES = ["مسرور", "هادي", "هايف", "قبيح", "شديد", "ضجة"]
_POOL = [*_SEEDS, *_CANDIDATES]
_word_lists = st.lists(st.sampled_from(_POOL), max_size=3).map(tuple)
_fixtures = st.dictionaries(st.sampled_from(_CANDIDATES),
                            st.builds(SynsetResult, st.none() | st.just("gloss"),
                                      _word_lists, _word_lists))
_corpora = st.lists(st.lists(st.sampled_from(_POOL), min_size=1, max_size=4).map(" ".join),
                    max_size=4).map(lambda texts: [Topic(f"t{i}", t) for i, t in enumerate(texts)])


@settings(max_examples=60, deadline=None)
@given(_corpora, _corpora, _fixtures)
def test_two_runs_write_each_pending_word_once_in_decision_order(tmp_path_factory, first,
                                                                 second, table):
    """Two runs into one pending file, the second on the lexicon the first
    grew: the file holds each word either run left pending once, in the order
    decided, and reads back as exactly those words."""
    pending = tmp_path_factory.mktemp("pending") / "review.tsv"
    lex = SentimentLexicon(LexiconEntry(word, polarity) for word, polarity in _SEEDS.items())
    provider, tags = FixtureProvider(table), dict.fromkeys(_POOL, PosTag.JJ)
    decided = []
    for corpus in (first, second):
        lex, report = expand_lexicon(corpus, lex, provider, tags=tags, pending_path=pending)
        decided += report.oov_pending
    words = list(dict.fromkeys(decided))
    text = pending.read_text(encoding="utf-8") if pending.exists() else ""
    assert text == "".join(f"{word}\tPENDING\n" for word in words)
    assert _load_pending_words(pending) == set(words)

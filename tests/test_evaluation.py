import importlib.util
import json
import random
import re
import typing
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arasent import evaluation
from arasent.errors import ArasentError, ParseError
from arasent.evaluation import (
    SplitSpec,
    Topic,
    cohen_kappa,
    f_measure,
    format_report,
    genre_report,
    load_corpus,
    load_ratings,
    save_corpus,
    split_corpus,
)
from arasent.lexicon import Polarity

PO, NG, NU = Polarity.PO, Polarity.NG, Polarity.NU


def topics(n, genre=None):
    return [Topic(f"{genre or 'x'}-{i}", "نص", PO if i % 2 else NG, genre)
            for i in range(n)]


# corpus files

def test_corpus_round_trip(tmp_path):
    corpus = [Topic("a", "المكان رائع", PO, "hotel"),
              Topic("b", "نص بلا تقييم"),
              Topic("c", "ملل", NG, "tv")]
    path = tmp_path / "corpus.jsonl"
    save_corpus(corpus, path)
    assert load_corpus(path) == corpus


@pytest.mark.parametrize("topic_id", ["a\tb", "a\rb", "a\n"])
def test_corpus_save_refuses_an_id_that_load_refuses(tmp_path, topic_id):
    path = tmp_path / "corpus.jsonl"
    with pytest.raises(ValueError, match="holds a tab or a line break"):
        save_corpus([Topic("ok", "x"), Topic(topic_id, "y")], path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad, error", [
    (Topic("ok", "y"), "duplicate topic id 'ok'"),
    (Topic("b", "y", Polarity.NU), "topic labels are PO or NG only"),
    (Topic("b", "y", PO, "tv\n  99  100.0000%"), "genre 'tv\\n  99  100.0000%' holds a line break"),
    (Topic("b", "\ud800"), "'text' is not valid utf-8 text"),
    (Topic("b", "y", PO, "Total"), "genre 'Total' names a row the report writes itself"),
    (Topic("b", "y", None, "unlabeled"),
     "genre 'unlabeled' names a row the report writes itself"),
    (Topic("b", "y", PO, ""), "genre '' names a row the report writes itself")],
    ids=["repeated-id", "nu-label", "genre-line-break", "lone-surrogate", "total-genre",
         "unlabeled-genre", "empty-genre"])
def test_corpus_save_refuses_a_topic_that_load_refuses(tmp_path, bad, error):
    path = tmp_path / "corpus.jsonl"
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        save_corpus([Topic("ok", "x"), bad], path)
    assert list(tmp_path.iterdir()) == []


_TEXT = st.text(st.characters(codec="utf-8") | st.sampled_from('\t\r\n\\"\u2028\x85\ud800'),
                max_size=6)


def _loadable(topics) -> bool:
    """Whether a corpus file can hold ``topics`` so that load_corpus reads
    them back: ids unique and free of tabs and line breaks, labels PO or NG,
    genres non-empty, free of line breaks and not a row of the evaluate report,
    and no lone surrogate anywhere."""
    ids = [t.id for t in topics]
    strings = [s for t in topics for s in (t.id, t.text, t.genre or "")]
    return (len(set(ids)) == len(ids) and all(t.label is not Polarity.NU for t in topics)
            and not any(c in t.id for t in topics for c in "\t\r\n")
            and not any(c in (t.genre or "") for t in topics for c in "\r\n")
            and not any(t.genre in ("", "Total", "unlabeled") for t in topics)
            and not any("\ud800" <= c <= "\udfff" for s in strings for c in s))


@settings(max_examples=100)
@given(st.lists(st.builds(Topic, st.sampled_from(["a", "b"]) | _TEXT, _TEXT,
                          st.sampled_from([None, PO, NG, Polarity.NU]),
                          st.sampled_from([None, "", "Total", "unlabeled"]) | _TEXT),
                max_size=4))
def test_corpus_save_writes_exactly_what_load_reads_back(tmp_path_factory, topics):
    """Every topic list a corpus file can hold reads back equal; any other
    is a ValueError, and no file is written."""
    path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
    if _loadable(topics):
        save_corpus(topics, path)
        assert load_corpus(path) == topics
    else:
        with pytest.raises(ValueError):
            save_corpus(topics, path)
        assert not path.exists()


def test_failed_corpus_save_leaves_the_old_file(tmp_path):
    path = tmp_path / "corpus.jsonl"
    save_corpus([Topic("a", "المكان رائع", PO, "hotel")], path)
    before = path.read_bytes()

    def topics():
        yield Topic("b", "ملل", NG, "tv")
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError):
        save_corpus(topics(), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["corpus.jsonl"]


def test_corpus_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "text": "x"}\n{"id": "a", "text": "y"}\n',
                    encoding="utf-8")
    with pytest.raises(ParseError):
        load_corpus(path)


def test_corpus_rejects_bad_label(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "text": "x", "label": "GOOD"}\n', encoding="utf-8")
    with pytest.raises(ParseError, match="^.*corpus.jsonl:1: label must be PO or NG, got 'GOOD'$"):
        load_corpus(path)


def test_corpus_rejects_neutral_label(tmp_path):
    # gold topic labels are positive or negative only
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "text": "x", "label": "NU"}\n', encoding="utf-8")
    with pytest.raises(ParseError, match="^.*corpus.jsonl:1: topic labels are PO or NG only$"):
        load_corpus(path)


@pytest.mark.parametrize("label, shown", [
    ("1", "1"), ('["PO"]', r"\['PO'\]"), ('{"PO": 1}', r"\{'PO': 1\}"), ('"po"', "'po'"),
    ('"PO "', "'PO '"), ('""', "''"), ("true", "True"), ("1.5", "1.5")],
    ids=["int", "list", "object", "lowercase", "padded", "empty", "bool", "float"])
def test_corpus_refuses_a_label_at_its_line(tmp_path, label, shown):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "text": "x", "label": "PO"}\n\n'
                    f'{{"id": "b", "text": "y", "label": {label}}}\n', encoding="utf-8")
    with pytest.raises(ParseError,
                       match=f"^.*corpus.jsonl:3: label must be PO or NG, got {shown}$"):
        load_corpus(path)


def test_corpus_reads_escapes_and_backslashes(tmp_path):
    # only a line with a backslash can hold an escape; these give valid text
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "text": "\\u0627\\u0644", "label": "PO"}\n'
                    '{"id": "b\\\\c", "text": "x \\\\ y \\" z", "genre": "tv\\t"}\n'
                    '{"id": "\\ud83d\\ude00", "text": "\\n", "label": null}\n',
                    encoding="utf-8")
    assert load_corpus(path) == [Topic("a", "\u0627\u0644", PO),
                                 Topic("b\\c", 'x \\ y " z', None, "tv\t"),
                                 Topic("\U0001f600", "\n")]


def test_corpus_rejects_bad_json(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a"\n', encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_corpus(path)
    assert err.value.line_no == 1


@pytest.mark.parametrize("line, reason", [
    ('{"id": "b", "text": "y"} {"id": "c"}', "Extra data"),
    ('{"id": "b", "text": "y"}]', "Extra data"),
    ('{"id": "b", "text": "y",}', "Expecting property name enclosed in double quotes"),
    ("{'id': 'b'}", "Expecting property name enclosed in double quotes"),
    ('{"id": "b", "text": "\\x"}', r"Invalid \\escape"),
    ('{"id": "b", "text": "y}', "Unterminated string starting at"),
    ("nul", "Expecting value"), ("\ufeff{}", r"Unexpected UTF-8 BOM \(decode using utf-8-sig\)")],
    ids=["extra-value", "extra-bracket", "trailing-comma", "single-quotes", "bad-escape",
         "unterminated", "bad-literal", "bom"])
def test_corpus_names_the_json_error_at_its_line(tmp_path, line, reason):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "text": "x"}\n' + line + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"^.*corpus.jsonl:2: bad JSON: {reason}$"):
        load_corpus(path)


def test_corpus_rejects_deeply_nested_json(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "text": "x"}\n' + "[" * 100000 + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match="corpus.jsonl:2: bad JSON: nested too deeply"):
        load_corpus(path)


@pytest.mark.parametrize("record, field", [
    ('{"id": 1, "text": "x"}', "'id'"), ('{"id": null, "text": "x"}', "'id'"),
    ('{"id": "a", "text": 5}', "'text'"), ('{"id": "a", "text": ["رائع"]}', "'text'"),
    ('{"id": "a", "text": {"t": "x"}}', "'text'"),
    ('{"id": "a", "text": "x", "genre": 3}', "'genre'")],
    ids=["int-id", "null-id", "int-text", "list-text", "object-text", "int-genre"])
def test_corpus_rejects_a_field_that_is_not_a_string(tmp_path, record, field):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "ok", "text": "x"}\n' + record + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"corpus.jsonl:2: {field} must be a string"):
        load_corpus(path)


@pytest.mark.parametrize("record", ['[]', '"x"', '5', '{"id": "b"}', '{"text": "y"}'],
                         ids=["list", "string", "number", "no-text", "no-id"])
def test_corpus_refuses_a_record_without_id_and_text(tmp_path, record):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "text": "x"}\n' + record + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match="corpus.jsonl:2: record needs 'id' and 'text' fields$"):
        load_corpus(path)


@pytest.mark.parametrize("record, field", [
    ('{"id": "\\ud800", "text": "x"}', "'id'"), ('{"id": "a", "text": "x\\udfff"}', "'text'"),
    ('{"id": "a", "text": "x", "genre": "\\udc80"}', "'genre'")], ids=["id", "text", "genre"])
def test_corpus_rejects_a_lone_surrogate(tmp_path, record, field):
    path = tmp_path / "corpus.jsonl"
    path.write_text(record + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"corpus.jsonl:1: {field} is not valid utf-8 text"):
        load_corpus(path)


@pytest.mark.parametrize("genre, shown", [("Total", "Total"), ("unlabeled", "unlabeled"),
                                          ("\\u0054otal", "Total"), ("", "")],
                         ids=["total", "unlabeled", "escaped-total", "empty"])
def test_corpus_refuses_a_genre_that_names_a_report_row_at_its_line(tmp_path, genre, shown):
    """genre_report writes the Total and unlabeled rows itself: a genre of
    either name would forge or merge one of them, and so would an empty one,
    which it files under unlabeled."""
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "text": "x", "label": "PO", "genre": "tv"}\n'
                    f'{{"id": "b", "text": "y", "label": "PO", "genre": "{genre}"}}\n',
                    encoding="utf-8")
    with pytest.raises(ParseError, match=f"^.*corpus.jsonl:2: genre '{shown}' names a row "
                                         "the report writes itself$"):
        load_corpus(path)


def test_corpus_loads_an_id_with_a_line_separator(tmp_path):
    # file reading splits lines on CR and LF only, so U+2028 stays in one row
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a\\u2028b", "text": "x"}\n{"id": "c\u2029", "text": "y"}\n',
                    encoding="utf-8")
    assert [t.id for t in load_corpus(path)] == ["a\u2028b", "c\u2029"]


def test_corpus_names_the_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(b'{"id": "a", "text": "x"}\r\n{"id": "b", "text": "y"}\r'
                     b'{"id": "c", "text": "\xff"}\n')
    with pytest.raises(ParseError, match="corpus.jsonl:3: not valid utf-8 text"):
        load_corpus(path)


# splitting

def test_split_2000_topics_80_10_10():
    corpus = topics(2000)
    train, dev, test = split_corpus(corpus, SplitSpec())
    assert (len(train), len(dev), len(test)) == (1600, 200, 200)


def test_split_10_topics_floor_then_distribute():
    train, dev, test = split_corpus(topics(10), SplitSpec())
    assert (len(train), len(dev), len(test)) == (8, 1, 1)


def test_split_deterministic():
    corpus = topics(50, "tweet") + topics(30, "hotel")
    a = split_corpus(corpus, SplitSpec(seed=5))
    b = split_corpus(corpus, SplitSpec(seed=5))
    assert a == b
    c = split_corpus(corpus, SplitSpec(seed=6))
    assert a != c


def test_split_seed_defaults_to_42():
    corpus = topics(40)
    assert split_corpus(corpus, SplitSpec()) == split_corpus(corpus, SplitSpec(seed=42))
    assert split_corpus(corpus, SplitSpec()) != split_corpus(corpus, SplitSpec(seed=43))


def test_split_partitions_exactly():
    corpus = topics(41, "tweet") + topics(17, "hotel") + topics(29, "tv")
    train, dev, test = split_corpus(corpus, SplitSpec())
    ids = [t.id for t in train + dev + test]
    assert len(ids) == len(corpus)
    assert set(ids) == {t.id for t in corpus}


def test_split_stratifies_genres():
    corpus = topics(100, "tweet") + topics(50, "hotel")
    _, _, test = split_corpus(corpus, SplitSpec())
    by_genre = Counter(t.genre for t in test)
    assert by_genre == {"tweet": 10, "hotel": 5}


def test_split_unstratified_single_pool():
    corpus = topics(100, "tweet") + topics(50, "hotel")
    train, dev, test = split_corpus(corpus, SplitSpec(stratify=False))
    assert (len(train), len(dev), len(test)) == (120, 15, 15)


def test_split_rejects_bad_spec():
    with pytest.raises(ArasentError):
        split_corpus(topics(10), SplitSpec(0.5, 0.5, 0.5))
    with pytest.raises(ArasentError):
        split_corpus(topics(10), SplitSpec(-0.2, 0.6, 0.6))
    with pytest.raises(ArasentError):
        split_corpus(topics(10), SplitSpec(float("nan"), 0.1, 0.1))


def test_split_hands_the_remainder_to_train_then_dev_then_test():
    train, dev, test = split_corpus(topics(7, "tv"), SplitSpec(0.5, 0.25, 0.25))
    assert (len(train), len(dev), len(test)) == (4, 2, 1)


def test_split_hands_out_a_remainder_of_three():
    """Fractions inside validate's 1e-9 of summing to 1 floor 10 topics to
    7/0/0; the remainder of 3 goes to train, then dev, then test."""
    spec = SplitSpec(0.7999999999, 0.0999999999, 0.0999999999)
    assert [int(10 * f) for f in spec[:3]] == [7, 0, 0]
    train, dev, test = split_corpus(topics(10), spec)
    assert (len(train), len(dev), len(test)) == (8, 1, 1)


def test_split_refuses_a_negative_seed_and_takes_zero():
    """A negative seed once gave the split of its absolute value."""
    with pytest.raises(ArasentError, match="^seed must be a non-negative integer, got -1$"):
        split_corpus(topics(10), SplitSpec(seed=-1))
    assert sum(map(len, split_corpus(topics(10), SplitSpec(seed=0)))) == 10


def test_split_refuses_a_zero_fraction():
    with pytest.raises(ArasentError, match="fractions must be positive"):
        split_corpus(topics(10), SplitSpec(0.9, 0.1, 0.0))


@given(st.integers(1, 200), st.integers(0, 10_000))
def test_split_partition_property(n, seed):
    corpus = topics(n)
    train, dev, test = split_corpus(corpus, SplitSpec(seed=seed))
    assert len(train) + len(dev) + len(test) == n
    assert len({t.id for t in train} | {t.id for t in dev} | {t.id for t in test}) == n


# report metrics

def total_row(pairs):
    """The Total row of genre_report over one labeled topic per (gold,
    predicted) pair."""
    corpus = [Topic(str(i), "x", gold, "tv") for i, (gold, _) in enumerate(pairs)]
    return genre_report(corpus, [pred for _, pred in pairs])[-1]


def confusion(tp=0, fp=0, fn=0, tn=0):
    """(gold, predicted) pairs with these counts, PO the positive class."""
    return [(PO, PO)] * tp + [(NG, PO)] * fp + [(PO, NG)] * fn + [(NG, NG)] * tn


def metrics(row):
    return row["accuracy"], row["precision"], row["recall"]


def test_confusion_metrics_hand_example():
    acc, prec, rec = metrics(total_row(confusion(tp=3, fp=1, fn=2, tn=4)))
    assert acc == pytest.approx(0.7)
    assert prec == pytest.approx(0.75)
    assert rec == pytest.approx(0.6)


def test_confusion_metrics_all_correct():
    assert metrics(total_row(confusion(tp=5, tn=5))) == (1.0, 1.0, 1.0)


def test_precision_undefined():
    assert total_row(confusion(tp=0, fp=0, fn=2, tn=3))["precision"] is None


def test_recall_undefined():
    assert total_row(confusion(tp=0, fp=1, fn=0, tn=3))["recall"] is None


def test_precision_and_recall_at_one_half():
    assert total_row(confusion(tp=2, fp=2))["precision"] == 0.5
    assert total_row(confusion(tp=3, fn=3))["recall"] == 0.5


def test_accuracy_needs_observations():
    [row] = genre_report([Topic("1", "x", None, "tv")], [PO])
    assert (row["data"], row["count"], row["accuracy"]) == ("Total", 0, None)


@given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50), st.integers(0, 50))
def test_accuracy_class_relabel_symmetry(tp, fp, fn, tn):
    if tp + fp + fn + tn == 0:
        return
    pairs = confusion(tp, fp, fn, tn)
    a = total_row(pairs)["accuracy"]
    b = total_row([(gold.flipped(), pred.flipped()) for gold, pred in pairs])["accuracy"]
    assert a == pytest.approx(b)


def test_confusion_from_pairs():
    pairs = [(PO, PO), (PO, NG), (NG, PO), (NG, NG), (PO, PO)]
    row = total_row(pairs)  # tp 2, fp 1, fn 1, tn 1
    assert (row["count"], *metrics(row)) == (5, 3 / 5, 2 / 3, 2 / 3)


def test_genre_report_counts_an_nu_prediction_as_an_error():
    """A prediction is right only when it equals the gold label: an NU
    prediction was once filed as NG, and so right against NG gold."""
    rows = genre_report([Topic("1", "x", NG, "tv")], [NU])
    assert [(r["data"], r["accuracy"]) for r in rows] == [("tv", 0.0), ("Total", 0.0)]
    # against PO gold it is a PO missed, as an NG prediction is
    assert metrics(total_row([(PO, NU), (PO, PO), (NG, NU)])) == (1 / 3, 1.0, 0.5)


# F-measure

def test_f_measure_total_row_before_expansion():
    assert f_measure(0.9331104, 0.9117647) == pytest.approx(0.922314, abs=1e-5)


def test_f_measure_total_row_after_expansion():
    assert f_measure(0.9431438, 0.9215686) == pytest.approx(0.932231, abs=1e-5)


def test_f_measure_per_genre_rows():
    # tweets and hotel reference rows
    assert f_measure(0.841804, 1.0) == pytest.approx(0.9141085, abs=1e-5)
    assert f_measure(0.96, 1.0) == pytest.approx(0.9795918, abs=1e-5)


def test_f_measure_perfect():
    assert f_measure(1.0, 1.0) == 1.0


def test_f_measure_undefined():
    assert f_measure(0.0, 0.0) is None


@given(st.floats(0, 1), st.floats(0, 1))
def test_f_measure_symmetric_and_bounded(p, r):
    if p + r == 0:
        return
    f = f_measure(p, r)
    assert f == pytest.approx(f_measure(r, p))
    assert f <= (p + r) / 2 + 1e-12  # harmonic <= arithmetic mean


# Cohen's kappa

def test_kappa_perfect_agreement():
    assert cohen_kappa([("PO", "PO")] * 4 + [("NG", "NG")] * 6) == 1.0


def test_kappa_hand_example_exact():
    items = ([("PO", "PO")] * 4 + [("NG", "NG")] * 3
             + [("PO", "NG")] * 2 + [("NG", "PO")] * 1)
    assert cohen_kappa(items) == 0.4


def test_kappa_chance_level_monte_carlo():
    rng = random.Random(1234)
    items = [(rng.choice("PN"), rng.choice("PN")) for _ in range(10_000)]
    assert abs(cohen_kappa(items)) < 0.05


def test_kappa_three_raters_mean_pairwise():
    items = [("PO", "PO", "NG"), ("NG", "NG", "NG"), ("PO", "PO", "PO"),
             ("NG", "PO", "NG")]
    cols = list(zip(*items))
    expected = (cohen_kappa(list(zip(cols[0], cols[1])))
                + cohen_kappa(list(zip(cols[0], cols[2])))
                + cohen_kappa(list(zip(cols[1], cols[2])))) / 3
    assert cohen_kappa(items) == pytest.approx(expected)


def test_kappa_errors():
    with pytest.raises(ArasentError):
        cohen_kappa([])
    with pytest.raises(ArasentError):
        cohen_kappa([("PO",)])
    with pytest.raises(ArasentError):
        cohen_kappa([("PO", "NG"), ("PO",)])


def test_kappa_degenerate_constant_raters():
    assert cohen_kappa([("PO", "PO"), ("PO", "PO")]) == 1.0


@given(st.lists(st.tuples(st.sampled_from(["PO", "NG"]), st.sampled_from(["PO", "NG"])),
                min_size=1, max_size=40))
def test_kappa_relabel_invariance(items):
    flip = {"PO": "NG", "NG": "PO"}
    flipped = [(flip[a], flip[b]) for a, b in items]
    assert cohen_kappa(items) == pytest.approx(cohen_kappa(flipped))


@given(st.lists(st.tuples(st.sampled_from(["PO", "NG"]), st.sampled_from(["PO", "NG"])),
                min_size=2, max_size=40))
def test_kappa_is_one_iff_full_agreement(items):
    po = sum(1 for a, b in items if a == b) / len(items)
    counts_a = Counter(a for a, _ in items)
    counts_b = Counter(b for _, b in items)
    pe = sum(counts_a[l] * counts_b[l] for l in counts_a) / len(items) ** 2
    if pe == 1:  # degenerate constant case
        return
    assert (cohen_kappa(items) == 1.0) == (po == 1.0)


def test_kappa_brute_force_contingency_oracle():
    """Cross-check against an independent contingency-table computation."""
    rng = random.Random(99)
    for _ in range(25):
        items = [(rng.choice("PNU"), rng.choice("PNU")) for _ in range(rng.randint(2, 60))]
        table = Counter(items)
        n = len(items)
        po = sum(v for (a, b), v in table.items() if a == b) / n
        labels = {l for pair in items for l in pair}
        pe = sum((sum(v for (a, _), v in table.items() if a == l) / n)
                 * (sum(v for (_, b), v in table.items() if b == l) / n)
                 for l in labels)
        if pe == 1:
            continue
        expected = (po - pe) / (1 - pe)
        assert cohen_kappa(items) == pytest.approx(expected, abs=1e-12)


def test_kappa_annotations_resolve_as_a_type_checker_reads_them(monkeypatch):
    """Fraction, imported only inside the kappa functions at run time, is
    bound for a type checker too."""
    monkeypatch.setattr(typing, "TYPE_CHECKING", True)
    spec = importlib.util.spec_from_file_location("arasent.typed_evaluation",
                                                  evaluation.__file__)
    typed = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(typed)
    assert typing.get_type_hints(typed._pairwise_kappa)["return"] is Fraction


def test_load_ratings(tmp_path):
    path = tmp_path / "ratings.tsv"
    path.write_text("PO\tPO\tNG\n# comment\nNG\tNG\tNG\n", encoding="utf-8")
    assert load_ratings(path) == [("PO", "PO", "NG"), ("NG", "NG", "NG")]
    bad = tmp_path / "bad.tsv"
    bad.write_text("PO\t\tNG\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_ratings(bad)


@pytest.mark.parametrize("text, error", [
    ("PO\tPO\nNG\nNG\tNG\n", "2: expected 2 rater columns, got 1"),
    ("PO\tPO\n# comment\nNG\tNG\tPO\n", "3: expected 2 rater columns, got 3"),
    ("PO\nNG\n", "1: need at least 2 raters, got 1")],
    ids=["short-row", "long-row", "one-rater"])
def test_load_ratings_refuses_a_row_with_another_column_count_at_its_line(tmp_path, text, error):
    path = tmp_path / "ratings.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match=rf"ratings\.tsv:{error}$"):
        load_ratings(path)


# report

def test_genre_report_rows():
    corpus = [Topic("1", "x", PO, "tweet"), Topic("2", "x", NG, "tweet"),
              Topic("3", "x", PO, "hotel"), Topic("4", "x", NG, "hotel")]
    preds = [PO, PO, PO, NG]
    rows = genre_report(corpus, preds)
    assert [r["data"] for r in rows] == ["tweet", "hotel", "Total"]
    assert rows[0]["accuracy"] == pytest.approx(0.5)
    assert rows[1]["accuracy"] == pytest.approx(1.0)
    assert rows[2]["accuracy"] == pytest.approx(0.75)
    text = format_report(rows)
    assert "Total" in text and "75.0000%" in text


def test_genre_report_wants_one_prediction_per_topic():
    corpus = [Topic("1", "x", PO, "tv"), Topic("2", "x", NG, "tv")]
    with pytest.raises(ValueError, match="^one prediction per topic required$"):
        genre_report(corpus, [PO])


def test_genre_report_leaves_an_unlabeled_topic_out_of_every_row():
    corpus = [Topic("1", "x", PO, "tv"), Topic("2", "x", None, "tv"),
              Topic("3", "x", None, "hotel"), Topic("4", "x", NG, "tv")]
    rows = genre_report(corpus, [PO, NG, PO, NG])
    assert [(r["data"], r["count"], r["accuracy"]) for r in rows] == [
        ("tv", 2, 1.0), ("Total", 2, 1.0)]


def test_genre_report_absent_metric_rendered_as_dash():
    corpus = [Topic("1", "x", NG, "tv")]
    rows = genre_report(corpus, [NG])
    assert rows[0]["precision"] is None  # no positive predictions
    assert "-" in format_report(rows)


def test_genre_report_without_a_po_prediction():
    """Gold PO topics and no PO prediction: precision is undefined, recall is
    0, and so F is undefined."""
    [row, _] = genre_report([Topic("1", "x", PO, "tv"), Topic("2", "x", NG, "tv")], [NG, NG])
    assert (row["precision"], row["recall"], row["f_measure"]) == (None, 0.0, None)


def test_genre_report_gives_f_when_precision_and_recall_are_defined():
    [row, _] = genre_report([Topic("1", "x", PO, "tv"), Topic("2", "x", PO, "tv"),
                             Topic("3", "x", NG, "tv")], [PO, NG, PO])
    assert (row["precision"], row["recall"], row["f_measure"]) == (0.5, 0.5, 0.5)


def test_format_report_puts_each_metric_in_its_column():
    row = {"data": "tv", "count": 5, "accuracy": 0.6, "precision": 0.5, "recall": 0.25,
           "f_measure": 1 / 3}
    assert format_report([row]).splitlines()[2].split() == [
        "tv", "5", "60.0000%", "50.0000%", "25.0000%", "33.3333%"]


def test_genre_report_is_json_serializable():
    corpus = [Topic("1", "x", PO, "tv")]
    rows = genre_report(corpus, [PO])
    json.dumps(rows)

import json
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from arasent.errors import (
    EmptyItems,
    InsufficientRaters,
    InvalidSplitSpec,
    ParseError,
    UndefinedMetric,
)
from arasent.evaluation import (
    ConfusionCounts,
    SplitSpec,
    Topic,
    accuracy,
    cohen_kappa,
    f_measure,
    format_report,
    genre_report,
    load_corpus,
    load_ratings,
    precision,
    recall,
    save_corpus,
    split_corpus,
)
from arasent.lexicon import Polarity

PO, NG = Polarity.PO, Polarity.NG


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
    with pytest.raises(ParseError):
        load_corpus(path)


def test_corpus_rejects_neutral_label(tmp_path):
    # gold topic labels are positive or negative only
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "text": "x", "label": "NU"}\n', encoding="utf-8")
    with pytest.raises(ParseError):
        load_corpus(path)


def test_corpus_rejects_bad_json(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a"\n', encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_corpus(path)
    assert err.value.line_no == 1


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


@pytest.mark.parametrize("record, field", [
    ('{"id": "\\ud800", "text": "x"}', "'id'"), ('{"id": "a", "text": "x\\udfff"}', "'text'"),
    ('{"id": "a", "text": "x", "genre": "\\udc80"}', "'genre'")], ids=["id", "text", "genre"])
def test_corpus_rejects_a_lone_surrogate(tmp_path, record, field):
    path = tmp_path / "corpus.jsonl"
    path.write_text(record + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"corpus.jsonl:1: {field} is not valid utf-8 text"):
        load_corpus(path)


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
    train, dev, test = split_corpus(corpus, SplitSpec(), stratify=False)
    assert (len(train), len(dev), len(test)) == (120, 15, 15)


def test_split_rejects_bad_spec():
    with pytest.raises(InvalidSplitSpec):
        split_corpus(topics(10), SplitSpec(0.5, 0.5, 0.5))
    with pytest.raises(InvalidSplitSpec):
        split_corpus(topics(10), SplitSpec(-0.2, 0.6, 0.6))
    with pytest.raises(InvalidSplitSpec):
        split_corpus(topics(10), SplitSpec(float("nan"), 0.1, 0.1))


@given(st.integers(1, 200), st.integers(0, 10_000))
def test_split_partition_property(n, seed):
    corpus = topics(n)
    train, dev, test = split_corpus(corpus, SplitSpec(seed=seed))
    assert len(train) + len(dev) + len(test) == n
    assert len({t.id for t in train} | {t.id for t in dev} | {t.id for t in test}) == n


# confusion metrics

def test_confusion_metrics_hand_example():
    c = ConfusionCounts(tp=3, fp=1, fn=2, tn=4)
    acc, prec, rec = accuracy(c), precision(c), recall(c)
    assert acc == pytest.approx(0.7)
    assert prec == pytest.approx(0.75)
    assert rec == pytest.approx(0.6)


def test_confusion_metrics_all_correct():
    c = ConfusionCounts(tp=5, tn=5)
    assert (accuracy(c), precision(c), recall(c)) == (1.0, 1.0, 1.0)


def test_precision_undefined():
    with pytest.raises(UndefinedMetric):
        precision(ConfusionCounts(tp=0, fp=0, fn=2, tn=3))


def test_recall_undefined():
    with pytest.raises(UndefinedMetric):
        recall(ConfusionCounts(tp=0, fp=1, fn=0, tn=3))


def test_accuracy_needs_observations():
    with pytest.raises(UndefinedMetric):
        accuracy(ConfusionCounts())


@given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50), st.integers(0, 50))
def test_accuracy_class_relabel_symmetry(tp, fp, fn, tn):
    if tp + fp + fn + tn == 0:
        return
    a = accuracy(ConfusionCounts(tp, fp, fn, tn))
    b = accuracy(ConfusionCounts(tn, fn, fp, tp))  # swap tp<->tn, fp<->fn
    assert a == pytest.approx(b)


def test_confusion_from_pairs():
    pairs = [(PO, PO), (PO, NG), (NG, PO), (NG, NG), (PO, PO)]
    c = ConfusionCounts.from_pairs(pairs)
    assert (c.tp, c.fp, c.fn, c.tn) == (2, 1, 1, 1)


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
    with pytest.raises(UndefinedMetric):
        f_measure(0.0, 0.0)


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
    with pytest.raises(EmptyItems):
        cohen_kappa([])
    with pytest.raises(InsufficientRaters):
        cohen_kappa([("PO",)])
    with pytest.raises(InsufficientRaters):
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


def test_load_ratings(tmp_path):
    path = tmp_path / "ratings.tsv"
    path.write_text("PO\tPO\tNG\n# comment\nNG\tNG\tNG\n", encoding="utf-8")
    assert load_ratings(path) == [("PO", "PO", "NG"), ("NG", "NG", "NG")]
    bad = tmp_path / "bad.tsv"
    bad.write_text("PO\t\tNG\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_ratings(bad)


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


def test_genre_report_absent_metric_rendered_as_dash():
    corpus = [Topic("1", "x", NG, "tv")]
    rows = genre_report(corpus, [NG])
    assert rows[0]["precision"] is None  # no positive predictions
    assert "-" in format_report(rows)


def test_genre_report_is_json_serializable():
    corpus = [Topic("1", "x", PO, "tv")]
    rows = genre_report(corpus, [PO])
    json.dumps(rows)

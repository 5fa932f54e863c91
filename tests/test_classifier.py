import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from arasent import classifier
from arasent.classifier import (
    TOL,
    LabeledVector,
    Model,
    TrainConfig,
    accuracy,
    grid_search,
    load_model,
    objective,
    predict,
    read_svmlight,
    save_model,
    train,
    write_svmlight,
)
from arasent.errors import EmptyTrainingSet, ParseError, SingleClassTrainingSet
from arasent.features import N_SLOTS


def vec(values):
    """The vector holding ``values``, a slot -> value map, and zeros elsewhere."""
    return tuple(float(values.get(slot, 0)) for slot in range(1, N_SLOTS + 1))


def lv(values, label, comment=""):
    return LabeledVector(vec(values), label, comment)


def separator_points(w_star, n, seed, margin=0.5):
    """Points labeled by the oracle separator, kept clear of its boundary."""
    rng = random.Random(seed)
    data = []
    while len(data) < n:
        values = {slot: rng.uniform(-2, 2)
                  for slot in rng.sample(range(1, N_SLOTS + 1), 5)}
        score = sum(w_star[slot - 1] * val for slot, val in values.items())
        if abs(score) < margin:
            continue
        data.append(lv(values, 1 if score > 0 else -1))
    return data


def hidden_separator_data(n, seed, margin=0.5):
    """Oracle dataset: labels come from a known separator with a real margin."""
    rng = random.Random(seed)
    w_star = [rng.uniform(-1, 1) for _ in range(N_SLOTS)]
    return w_star, separator_points(w_star, n, seed * 7 + 1, margin)


# training

def test_train_axis_aligned_separable():
    data = [lv({5: 1}, 1) for _ in range(50)] + [lv({6: 1}, -1) for _ in range(50)]
    model = train(data)
    assert model.weights[4] > 0 > model.weights[5]
    assert accuracy(model, data) == 1.0


def test_train_rejects_empty():
    with pytest.raises(EmptyTrainingSet):
        train([])


def test_train_rejects_single_class():
    with pytest.raises(SingleClassTrainingSet):
        train([lv({1: 1}, 1), lv({2: 1}, 1)])


def test_train_recovers_hidden_separator():
    w_star, data = hidden_separator_data(200, seed=1)
    model = train(data)
    assert accuracy(model, data) >= 0.99
    fresh = separator_points(w_star, 100, seed=2)
    assert accuracy(model, fresh) >= 0.95


def test_train_deterministic_same_seed(tmp_path):
    _, data = hidden_separator_data(80, seed=3)
    m1 = train(data, TrainConfig(seed=42))
    m2 = train(data, TrainConfig(seed=42))
    assert m1 == m2
    p1, p2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
    save_model(m1, p1)
    save_model(m2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_train_differs_across_seeds():
    _, data = hidden_separator_data(80, seed=3)
    m1 = train(data, TrainConfig(seed=1))
    m2 = train(data, TrainConfig(seed=2))
    assert m1.weights != m2.weights


# objective() of the fixed-epoch Pegasos trainer the dual solver replaced (200
# epochs, default config) on the oracle datasets: the optimum lies at or below
PEGASOS_OBJECTIVE = {(200, 1): 0.07336439674531342, (120, 5): 0.07996567162362135,
                     (80, 3): 0.05410481173576279}


@pytest.mark.parametrize("n, seed", sorted(PEGASOS_OBJECTIVE))
def test_objective_no_worse_than_pegasos(n, seed):
    _, data = hidden_separator_data(n, seed)
    model = train(data)
    assert objective(model, data) <= PEGASOS_OBJECTIVE[n, seed]
    assert model.gap < TOL or model.passes == model.config.epochs


@pytest.mark.parametrize("n, seed, reg", [(80, 3, 1e-2), (80, 3, 1e-1), (120, 8, 1e-2),
                                          (200, 1, 1e-1)])
def test_stops_early_only_once_converged(n, seed, reg):
    _, data = hidden_separator_data(n, seed)
    model = train(data, TrainConfig(regularization=reg))
    assert model.passes < model.config.epochs and model.gap < TOL


def test_one_pass_cap_returns_a_finite_model():
    _, data = hidden_separator_data(120, seed=5)
    model = train(data, TrainConfig(epochs=1))
    assert model.passes == 1 and model.gap >= TOL
    assert all(map(math.isfinite, model.weights + (model.bias,)))


def test_seeds_reach_the_same_optimum():
    _, data = hidden_separator_data(80, seed=3)
    objectives = [objective(train(data, TrainConfig(seed=seed)), data)
                  for seed in (1, 2, 3, 42)]
    assert max(objectives) <= min(objectives) * (1 + 1e-3)


def test_objective_no_worse_than_zero_model():
    _, data = hidden_separator_data(120, seed=5)
    config = TrainConfig()
    zero = Model((0.0,) * N_SLOTS, 0.0, config)
    trained = train(data, config)
    assert objective(trained, data) <= objective(zero, data)


def test_separable_data_reaches_full_training_accuracy():
    rng = random.Random(9)
    for trial in range(3):
        data = [lv({1: rng.uniform(0.5, 2)}, 1) for _ in range(30)] + \
               [lv({1: -rng.uniform(0.5, 2)}, -1) for _ in range(30)]
        model = train(data, TrainConfig(epochs=300, seed=trial))
        assert accuracy(model, data) == 1.0


def test_max_scaling_still_separates():
    data = [lv({5: 1000}, 1) for _ in range(30)] + [lv({6: 900}, -1) for _ in range(30)]
    model = train(data, TrainConfig(scale_max=True))
    assert accuracy(model, data) == 1.0
    assert model.config.scale_max


# prediction

def test_predict_zero_model_tie_rule():
    model = Model((0.0,) * N_SLOTS, 0.0)
    label, margin = predict(model, vec({3: 5.0}))
    assert (label, margin) == (1, 0.0)


def test_predict_dot_product():
    weights = (0.0,) * 4 + (1.0,) + (0.0,) * (N_SLOTS - 5)  # slot 5
    model = Model(weights, 0.0)
    label, margin = predict(model, vec({5: 3}))
    assert label == 1 and margin == pytest.approx(3.0)


@given(st.floats(min_value=0.01, max_value=100),
       st.dictionaries(st.integers(1, 17), st.floats(-3, 3, allow_nan=False), max_size=6))
def test_predict_sign_invariant_under_positive_scaling(scale, values):
    rng = random.Random(0)
    weights = tuple(rng.uniform(-1, 1) for _ in range(N_SLOTS))
    model = Model(weights, 0.25)
    scaled = Model(tuple(w * scale for w in weights), 0.25 * scale)
    v = vec(values)
    assert predict(model, v)[0] == predict(scaled, v)[0]


@pytest.mark.parametrize("length", [0, N_SLOTS - 1, N_SLOTS + 1])
def test_labeled_vector_and_predict_refuse_a_vector_not_17_long(length):
    # a slot outside 1..17 cannot reach train or predict
    with pytest.raises(ValueError, match=f"vector must hold 17 slots, got {length}"):
        LabeledVector((1.0,) * length, 1)
    with pytest.raises(ValueError):
        predict(Model((0.0,) * N_SLOTS, 0.0), (1.0,) * length)


def test_grid_search_picks_best_deterministically(monkeypatch):
    _, data = hidden_separator_data(120, seed=8)
    fits = []
    monkeypatch.setattr(classifier, "train",
                        lambda data, config: fits.append(config) or train(data, config))
    config, model, dev_acc = grid_search(data[:80], data[80:], regularizations=(1e-2, 1e-1))
    assert dev_acc >= 0.9
    assert [c.regularization for c in fits] == [1e-2, 1e-1]
    config2, _, dev_acc2 = grid_search(data[:80], data[80:], regularizations=(1e-2, 1e-1))
    assert config == config2 and dev_acc == dev_acc2


# SVM-light format

def test_write_svmlight_line_format(tmp_path):
    path = tmp_path / "f.svml"
    write_svmlight([lv({1: 1, 5: 2, 8: 3.0}, 1, "t42")], path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# schema_version: 1"
    assert lines[1] == "+1 1:1 5:2 8:3 # t42"


def test_svmlight_empty_round_trip(tmp_path):
    path = tmp_path / "f.svml"
    write_svmlight([], path)
    assert path.read_text(encoding="utf-8") == ""
    assert read_svmlight(path) == []


def test_read_svmlight_rejects_non_increasing_indices(tmp_path):
    path = tmp_path / "f.svml"
    path.write_text("+1 3:1 2:1\n", encoding="utf-8")
    with pytest.raises(ParseError):
        read_svmlight(path)


def test_read_svmlight_rejects_missing_label(tmp_path):
    path = tmp_path / "f.svml"
    path.write_text("1:1 2:1\n", encoding="utf-8")
    with pytest.raises(ParseError):
        read_svmlight(path)


def test_read_svmlight_rejects_garbage_value(tmp_path):
    path = tmp_path / "f.svml"
    path.write_text("+1 1:abc\n", encoding="utf-8")
    with pytest.raises(ParseError):
        read_svmlight(path)


def test_read_svmlight_tolerates_whitespace_and_comments(tmp_path):
    path = tmp_path / "f.svml"
    path.write_text("# free comment\n\n+1   2:1.5\t10:4   # topic-7\n-1 1:2\n",
                    encoding="utf-8")
    data = read_svmlight(path)
    assert len(data) == 2
    assert data[0].vector == vec({2: 1.5, 10: 4.0})
    assert data[0].comment == "topic-7"
    assert data[1].label == -1


# the feature schema is checked where files come in

@pytest.mark.parametrize("text, error", [
    pytest.param("# schema_version: 2\n+1 1:1\n-1 2:1\n",
                 "1: unsupported schema_version 2", id="first-line"),
    pytest.param("+1 1:1\n-1 2:1\n# schema_version: 3\n+1 3:1\n",
                 "3: unsupported schema_version 3", id="after-valid-rows"),
    pytest.param("# schema_version: x\n+1 1:1\n", "1: bad schema_version header",
                 id="unparsable")])
def test_read_svmlight_rejects_another_schema(tmp_path, text, error):
    path = tmp_path / "f.svml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match=rf"f\.svml:{error}"):
        read_svmlight(path)


def test_svmlight_without_a_schema_header_trains(tmp_path):
    path = tmp_path / "f.svml"
    path.write_text("+1 5:1\n+1 5:2\n-1 6:1\n-1 6:2\n", encoding="utf-8")
    data = read_svmlight(path)
    assert [d.label for d in data] == [1, 1, -1, -1]
    assert accuracy(train(data), data) == 1.0


def grid_value(rng):
    # values that survive 6-significant-digit rendering exactly
    return rng.randint(-999000, 999000) / 1000


def test_svmlight_round_trip_1000_random_vectors(tmp_path):
    rng = random.Random(21)
    data = []
    for i in range(1000):
        slots = sorted(rng.sample(range(1, N_SLOTS + 1), rng.randint(0, 6)))
        values = {s: grid_value(rng) for s in slots}
        values = {s: v for s, v in values.items() if v}
        data.append(lv(values, rng.choice([1, -1]), f"t{i}"))
    path = tmp_path / "big.svml"
    write_svmlight(data, path)
    loaded = read_svmlight(path)
    assert ([(v.vector, v.label, v.comment) for v in loaded]
            == [(v.vector, v.label, v.comment) for v in data])


@settings(max_examples=50)
@given(st.lists(
    st.tuples(st.dictionaries(st.integers(1, 17),
                              st.floats(-1e4, 1e4, allow_nan=False), max_size=5),
              st.sampled_from([1, -1])),
    max_size=6))
def test_svmlight_round_trip_arbitrary_floats_within_tolerance(tmp_path_factory, rows):
    data = [lv(values, label) for values, label in rows]
    path = tmp_path_factory.mktemp("svml") / "f.svml"
    write_svmlight(data, path)
    loaded = read_svmlight(path)
    assert len(loaded) == len(data)
    for got, want in zip(loaded, data):
        assert got.label == want.label
        for slot, value in enumerate(want.vector, 1):
            assert bool(got.vector[slot - 1]) == bool(value)
            assert got.vector[slot - 1] == pytest.approx(value, rel=1e-5)


# model files

def test_model_save_load_round_trip(tmp_path):
    _, data = hidden_separator_data(60, seed=11)
    model = train(data, TrainConfig(regularization=0.05, epochs=50, seed=7))
    path = tmp_path / "model.txt"
    save_model(model, path)
    # weights, bias and config come back; how the fit ended is not kept
    assert load_model(path) == model._replace(passes=None, gap=None)


# the shipped-corpus model as the vectorised trainer wrote it
EARLIER_MODEL = """\
schema_version: 1
regularization: 0.01
epochs: 200
seed: 42
scaling: none
1: 0.25885290776705216
2: -0.2896497396855868
3: 1.0149999999999935
4: -0.9925051135042745
5: 0.2591397209861373
6: -0.2904488208473587
7: 0.0
8: 0.3482982636718648
9: -0.363574029721413
10: -0.0019019998505810402
11: 0.023516906395329436
12: 0.023516906395329436
13: -0.03500000023562276
14: -0.03500000023562276
15: -0.035000005379292466
16: -0.035000005379292466
17: -8.020347771816344e-07
bias: -0.00830194542281695
"""


def test_model_written_by_the_earlier_trainer_loads(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text(EARLIER_MODEL, encoding="utf-8")
    model = load_model(path)
    assert model.weights[2] == 1.0149999999999935 and model.bias == -0.00830194542281695
    save_model(model, path)
    assert path.read_text(encoding="utf-8") == EARLIER_MODEL


def test_load_model_rejects_another_schema_at_its_line(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text(EARLIER_MODEL.replace("schema_version: 1", "schema_version: 2"),
                    encoding="utf-8")
    with pytest.raises(ParseError, match=r"model\.txt:1: unsupported schema_version 2"):
        load_model(path)
    path.write_text("\n" + EARLIER_MODEL.replace("schema_version: 1\n", "")
                    + "schema_version: 0\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"model\.txt:24: unsupported schema_version 0"):
        load_model(path)


def test_load_model_rejects_truncated_file(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text("schema_version: 1\nbias: 0.0\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_model(path)


@pytest.mark.parametrize("field, value, line_no", [
    ("3", "nan", 8), ("bias", "inf", 23), ("17", "-inf", 22), ("17", "1e999", 22)])
def test_load_model_rejects_non_finite_values(tmp_path, field, value, line_no):
    path = tmp_path / "model.txt"
    path.write_text(EARLIER_MODEL.replace(
        next(line for line in EARLIER_MODEL.splitlines() if line.startswith(f"{field}: ")),
        f"{field}: {value}"), encoding="utf-8")
    with pytest.raises(ParseError, match=f"model.txt:{line_no}: non-finite {field}: {value}$"):
        load_model(path)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_feature_vector_rejects_non_finite_values(value):
    # a non-finite value cannot reach train or write_svmlight
    with pytest.raises(ValueError, match="slot 6 value .* is not finite"):
        LabeledVector(vec({3: 1.0, 6: value}), 1)


@pytest.mark.parametrize("pair", ["1:nan", "6:inf", "6:-inf", "2:1e999"])
def test_read_svmlight_rejects_non_finite_values(tmp_path, pair):
    path = tmp_path / "f.svml"
    path.write_text(f"+1 1:1\n-1 {pair}\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"f\.svml:2: non-finite value"):
        read_svmlight(path)


@pytest.mark.parametrize("pair, error", [
    ("18:1", "feature index 18 outside schema 1..17"),
    ("0:1", "indices must be strictly increasing at '0:1'"),
    ("-3:1", "indices must be strictly increasing at '-3:1'")], ids=["18", "0", "negative"])
def test_read_svmlight_rejects_an_index_outside_the_schema(tmp_path, pair, error):
    path = tmp_path / "f.svml"
    path.write_text(f"+1 1:1\n-1 {pair}\n", encoding="utf-8")
    with pytest.raises(ParseError, match=rf"f\.svml:2: {error}$"):
        read_svmlight(path)


def test_write_svmlight_writes_only_nonzero_slots(tmp_path):
    path = tmp_path / "f.svml"
    write_svmlight([lv({1: 1.0, 5: 0.0, 10: 9}, 1), lv({}, -1), lv({17: -0.5}, 1)], path)
    assert path.read_text(encoding="utf-8").splitlines()[1:] == ["+1 1:1 10:9", "-1",
                                                                 "+1 17:-0.5"]
    assert read_svmlight(path)[0].vector == vec({1: 1.0, 10: 9.0})

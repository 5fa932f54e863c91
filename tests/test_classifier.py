import functools
import math
import random
import re
from decimal import Decimal
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import reference_classifier
from reference_classifier import separator_points

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
from arasent.errors import ArasentError, ParseError
from arasent.schema import N_SLOTS


def vec(values):
    """The vector holding ``values``, a slot -> value map, and zeros elsewhere."""
    return tuple(float(values.get(slot, 0)) for slot in range(1, N_SLOTS + 1))


def lv(values, label, comment=""):
    return LabeledVector(vec(values), label, comment)


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
    with pytest.raises(ArasentError):
        train([])


def test_train_rejects_single_class():
    with pytest.raises(ArasentError):
        train([lv({1: 1}, 1), lv({2: 1}, 1)])


@pytest.mark.parametrize("setting, message", [
    ({"regularization": 0.0}, "regularization must be a positive finite number, got 0.0"),
    ({"regularization": -1.0}, "regularization must be a positive finite number, got -1.0"),
    ({"regularization": math.inf}, "regularization must be a positive finite number, got inf"),
    ({"regularization": math.nan}, "regularization must be a positive finite number, got nan"),
    ({"epochs": 0}, "epochs must be a positive integer, got 0"),
    # each of these once trained, and load_model refused the file of the model
    ({"regularization": True}, "regularization must be a positive finite number, got True"),
    ({"regularization": "0.01"}, "regularization must be a positive finite number, got 0.01"),
    ({"epochs": True}, "epochs must be a positive integer, got True"),
    ({"epochs": 1.5}, "epochs must be a positive integer, got 1.5"),
    ({"seed": 2.5}, "seed must be a non-negative integer, got 2.5"),
    ({"seed": False}, "seed must be a non-negative integer, got False")],
    ids=["reg-0", "reg-negative", "reg-inf", "reg-nan", "epochs-0", "reg-bool", "reg-str",
         "epochs-bool", "epochs-float", "seed-float", "seed-bool"])
def test_train_refuses_a_setting_without_a_usable_model(setting, message):
    with pytest.raises(ArasentError, match=f"^{message}$"):
        train([lv({1: 1}, 1), lv({2: 1}, -1)], TrainConfig(**setting))


def test_train_takes_an_integer_regularization(tmp_path):
    path = tmp_path / "model.txt"
    save_model(train([lv({1: 1}, 1), lv({2: 1}, -1)], TrainConfig(regularization=1)), path)
    assert load_model(path).config.regularization == 1.0


def test_train_refuses_a_negative_seed_and_takes_zero():
    """A negative seed once trained the model of its absolute value."""
    data = [lv({1: 1}, 1), lv({2: 1}, -1)]
    with pytest.raises(ArasentError, match="^seed must be a non-negative integer, got -1$"):
        train(data, TrainConfig(seed=-1))
    assert train(data, TrainConfig(seed=0)).config.seed == 0


@pytest.mark.parametrize("data, name", [
    ([lv({1: 1e300}, 1), lv({2: 1e300}, -1)], "vector 1"),
    ([lv({3: 1}, -1), lv({1: 1e154, 2: 1e154}, 1)], "vector 2")],
    ids=["square-overflows", "sum-of-squares-overflows"])
def test_train_refuses_a_vector_whose_squared_norm_overflows(data, name):
    """Unscaled, such a vector once gave an all-zero model or an OverflowError;
    scaled, every value is within 1 and the fit goes ahead."""
    with pytest.raises(ArasentError, match=f"^{name}: its squared norm overflows a float; "):
        train(data)
    assert train(data, TrainConfig(scale=True)).passes >= 1


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
    assert model.gap < TOL


@pytest.mark.parametrize("n, seed, reg", [(80, 3, 1e-2), (80, 3, 1e-1), (120, 8, 1e-2),
                                          (200, 1, 1e-1)])
def test_stops_early_only_once_converged(n, seed, reg):
    _, data = hidden_separator_data(n, seed)
    model = train(data, TrainConfig(regularization=reg))
    assert model.passes < model.config.epochs and model.gap < TOL


@st.composite
def solver_inputs(draw):
    """Rows of ±1, 0 and other values with both labels, some of them repeated,
    in any order, and a config over the settings the solver reads."""
    value = st.one_of(st.sampled_from([0.0, 0.0, 1.0, -1.0]), st.floats(-4, 4))
    rows = draw(st.lists(st.tuples(st.lists(value, min_size=N_SLOTS, max_size=N_SLOTS),
                                   st.sampled_from([1, -1])), min_size=2, max_size=24))
    rows[:2] = [(rows[0][0], 1), (rows[1][0], -1)]
    rows += draw(st.lists(st.sampled_from(rows), max_size=8))
    data = [LabeledVector(tuple(v), label) for v, label in draw(st.permutations(rows))]
    config = TrainConfig(regularization=10 ** draw(st.floats(-4, 0)),
                         epochs=draw(st.integers(1, 300)), seed=draw(st.integers(0, 2**32)),
                         scale=draw(st.booleans()))
    return data, config


# Repeated rows: their gradients tie the last pass's largest or smallest
# projected gradient, and a pass's largest or smallest can be exactly 0,
# which few random draws reach. The solver takes LIBLINEAR's side of each tie.
TIES = [lv(*row) for row in (
    ({1: 2, 2: -1}, -1), ({1: 2, 2: -1}, -1), ({1: 1, 2: -1}, 1), ({1: -1, 2: -1}, -1),
    ({1: 1}, -1), ({1: 1, 2: -1}, -1), ({1: 1, 2: 2}, 1), ({2: 1}, 1), ({1: 1, 2: -1}, -1),
    ({2: 1}, 1), ({2: 1}, 1), ({1: 1, 2: -1}, -1))]


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(solver_inputs())
@example((TIES, TrainConfig(epochs=20, seed=39)))
def test_train_computes_the_floats_of_the_reference_solver(inputs):
    data, config = inputs
    model = train(data, config)
    assert (model.weights, model.bias, model.passes, model.gap) == \
        reference_classifier.train(data, config)


@functools.cache
def full_pass_fit(n, seed, reg):
    """The oracle set ``(n, seed)`` and the fit of the solver before shrinking,
    which visits every row on every pass, as a model at ``reg``."""
    _, data = hidden_separator_data(n, seed)
    config = TrainConfig(regularization=reg)
    weights, bias, passes, gap = reference_classifier.train_full_passes(data, config)
    return data, Model(weights, bias, config, passes, gap)


# the oracle sets whose default fit stopped at the 200-pass cap before shrinking
DENSE_SETS = [(200, 1), (120, 5), (400, 3)]
ORACLE_FITS = [(n, seed, reg) for n in (80, 120, 200, 400) for seed in range(1, 9)
               for reg in (1e-3, 1e-2, 1e-1)]


@pytest.mark.parametrize("n, seed", DENSE_SETS)
def test_dense_sets_converge_within_the_default_budget(n, seed):
    data, before = full_pass_fit(n, seed, TrainConfig().regularization)
    model = train(data)
    assert before.passes == 200 and before.gap >= TOL
    assert model.gap < TOL and model.passes > model.config.epochs
    assert objective(model, data) <= objective(before, data)


def test_shrinking_optimizes_no_worse_where_full_passes_hit_the_cap():
    capped = converged = 0
    for n, seed, reg in ORACLE_FITS:
        data, before = full_pass_fit(n, seed, reg)
        if before.gap >= TOL:
            capped += 1
            model = train(data, before.config)
            converged += model.gap < TOL
            assert objective(model, data) <= objective(before, data), (n, seed, reg)
    assert capped == 44 and converged >= 39


def test_shrinking_reaches_the_full_pass_objective_where_both_converge():
    differences = []
    for n, seed, reg in ORACLE_FITS:
        data, before = full_pass_fit(n, seed, reg)
        model = train(data, before.config)
        if before.gap < TOL and model.gap < TOL:
            old = objective(before, data)
            differences.append((objective(model, data) - old) / old)
    assert len(differences) >= 40
    assert max(map(abs, differences)) <= 0.01


def test_the_epochs_cap_counts_row_visits_not_passes():
    """Shrunk passes are cheaper, so the cap allows more of them, and the fit
    may stop at the cap after more passes than ``epochs``."""
    _, data = hidden_separator_data(200, seed=1)
    model = train(data, TrainConfig(epochs=20))
    assert model.gap >= TOL and model.passes > 20


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


def test_objective_is_half_lambda_times_the_squared_norm_plus_the_mean_hinge():
    model = Model(vec({1: 1.0, 2: -2.0}), 0.5, TrainConfig(regularization=0.1))
    data = [lv({1: 1}, 1), lv({2: 1}, 1)]  # margins 1.5 and -1.5: hinges 0 and 2.5
    assert objective(model, data) == pytest.approx(0.5 * 0.1 * (1 + 4 + 0.25) + 2.5 / 2)


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
    model = train(data, TrainConfig(scale=True))
    assert accuracy(model, data) == 1.0
    assert model.config.scale


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


@pytest.mark.parametrize("label", [0, 2, -2])
def test_labeled_vector_refuses_a_label_other_than_plus_or_minus_one(label):
    with pytest.raises(ValueError, match=f"^label must be \\+1 or -1, got {label}$"):
        LabeledVector(vec({}), label)


def test_accuracy_refuses_an_empty_set():
    with pytest.raises(ArasentError, match="^no vectors to score$"):
        accuracy(Model((0.0,) * N_SLOTS, 0.0), [])


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


def every_fit_grid(train_data, dev_data, regularizations, config=TrainConfig()):
    """``grid_search`` as it was: one fit per regularization."""
    best = None
    for reg in regularizations:
        candidate = config._replace(regularization=reg)
        model = train(train_data, candidate)
        acc = accuracy(model, dev_data)
        if best is None or acc > best[2]:
            best = (candidate, model, acc)
    return best


def test_grid_search_skips_a_fit_that_would_repeat_the_last(monkeypatch):
    _, data = hidden_separator_data(120, seed=10, margin=1.5)
    fits = []
    monkeypatch.setattr(classifier, "train",
                        lambda data, config: fits.append(config) or train(data, config))
    config, model, dev_acc = grid_search(data[:80], data[80:])
    # the 1e-3 fit peaks under the 1e-2 box, which 1e-1 clips
    assert [c.regularization for c in fits] == [1e-3, 1e-1]
    assert (config, model, dev_acc) == every_fit_grid(data[:80], data[80:], (1e-3, 1e-2, 1e-1))


@pytest.mark.parametrize("bad", [0.0, -0.0, -1e-2, math.inf, math.nan])
def test_grid_search_refuses_a_regularization_after_a_fit(bad):
    _, data = hidden_separator_data(120, seed=10, margin=1.5)
    with pytest.raises(ArasentError, match="regularization must be a positive finite number"):
        grid_search(data[:80], data[80:], regularizations=(1e-3, bad))


def test_grid_search_refuses_a_bad_regularization_before_any_fit(monkeypatch):
    _, data = hidden_separator_data(120, seed=10, margin=1.5)
    fits = []
    monkeypatch.setattr(classifier, "train",
                        lambda data, config: fits.append(config) or train(data, config))
    with pytest.raises(ArasentError, match="^regularization must be a positive finite "
                                           "number, got 0.0$"):
        grid_search(data[:80], data[80:], (1e-3, 0.0))
    assert fits == []


@pytest.mark.parametrize("regularizations", [(), iter(())], ids=["tuple", "iterator"])
def test_grid_search_refuses_no_regularizations_before_any_fit(monkeypatch, regularizations):
    _, data = hidden_separator_data(120, seed=10, margin=1.5)
    fits = []
    monkeypatch.setattr(classifier, "train",
                        lambda data, config: fits.append(config) or train(data, config))
    with pytest.raises(ArasentError, match="^no regularizations to search$"):
        grid_search(data[:80], data[80:], regularizations)
    assert fits == []


def test_grid_search_refuses_no_dev_vectors_before_any_fit(monkeypatch):
    _, data = hidden_separator_data(120, seed=10, margin=1.5)
    fits = []
    monkeypatch.setattr(classifier, "train",
                        lambda data, config: fits.append(config) or train(data, config))
    with pytest.raises(ArasentError,
                       match="^no dev vectors: the dev split holds no labeled topic$"):
        grid_search(data, [])
    assert fits == []


def noisy_separator_data(n, seed, flip):
    """Oracle data with a ``flip`` share of labels turned, so that the clip engages."""
    rng = random.Random(seed)
    _, data = hidden_separator_data(n, seed)
    return [LabeledVector(p.vector, -p.label if rng.random() < flip else p.label)
            for p in data]


GRID_SETS = {"separable": hidden_separator_data(160, 4)[1],
             "wide margin": hidden_separator_data(160, 10, margin=1.5)[1],
             "noisy": noisy_separator_data(160, 6, 0.1)}
REGULARIZATION_ORDERS = [(1e-3, 1e-2, 1e-1), (1e-1, 1e-2, 1e-3), (1e-4, 3e-4, 1e-3, 1e-2, 1.0),
                         (1.0, 1e-2, 1e-3, 3e-4, 1e-4)]


@pytest.mark.parametrize("name", sorted(GRID_SETS))
@pytest.mark.parametrize("regularizations", REGULARIZATION_ORDERS)
def test_grid_search_equals_fitting_every_regularization(name, regularizations):
    data = GRID_SETS[name]
    config = TrainConfig(epochs=300)
    assert grid_search(data[:120], data[120:], regularizations, config) == \
        every_fit_grid(data[:120], data[120:], regularizations, config)


def test_a_fit_under_both_boxes_repeats_at_the_other_box():
    repeats = 0
    for data in GRID_SETS.values():
        fits = {reg: train(data, TrainConfig(regularization=reg))
                for reg in (1e-4, 3e-4, 1e-3, 1e-2, 1e-1, 1.0)}
        for (reg, model), (other, again) in permutations(fits.items(), 2):
            if model.peak < min(1 / (reg * len(data)), 1 / (other * len(data))):
                repeats += 1
                assert again == model._replace(config=again.config)
    assert repeats >= 10


# SVM-light format

def test_write_svmlight_line_format(tmp_path):
    path = tmp_path / "f.svml"
    write_svmlight([lv({1: 1, 5: 2, 8: 3.0}, 1, "t42")], path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# schema_version: 1"
    assert lines[1] == "+1 1:1 5:2 8:3 # t42"


@pytest.mark.parametrize("comment", ["a\nb", "a\rb", "a\r\n"])
def test_write_svmlight_refuses_a_comment_with_a_line_break(tmp_path, comment):
    path = tmp_path / "f.svml"
    with pytest.raises(ValueError, match="^row 2: comment .* holds a line break$"):
        write_svmlight([lv({1: 1}, 1, "t1"), lv({1: 1}, -1, comment)], path)
    assert list(tmp_path.iterdir()) == []


@settings(max_examples=60)
@given(st.lists(st.text(st.characters(blacklist_categories=("Cs",))
                        | st.sampled_from("#\t\u2028\x85 \n\r"), max_size=8), max_size=4))
def test_svmlight_comments_round_trip(tmp_path_factory, comments):
    """Every comment that write_svmlight accepts reads back, stripped, on
    one row per vector."""
    data = [lv({1: 1}, 1, comment) for comment in comments]
    path = tmp_path_factory.mktemp("svml") / "f.svml"
    try:
        write_svmlight(data, path)
    except ValueError:
        assert any("\n" in comment or "\r" in comment for comment in comments)
        return
    assert [v.comment for v in read_svmlight(path)] == [c.strip() for c in comments]


def test_svmlight_empty_round_trip(tmp_path):
    path = tmp_path / "f.svml"
    write_svmlight([], path)
    assert path.read_text(encoding="utf-8") == ""
    assert read_svmlight(path) == []


def test_read_svmlight_rejects_non_increasing_indices(tmp_path):
    path = tmp_path / "f.svml"
    for pairs, at in [("3:1 2:1", "2:1"), ("2:1 2:3", "2:3")]:  # a decrease, a repeat
        path.write_text(f"+1 {pairs}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"f\\.svml:1: indices must be strictly "
                                             f"increasing at '{at}'$"):
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


def test_read_svmlight_refuses_a_schema_version_with_a_second_colon(tmp_path):
    path = tmp_path / "f.svml"
    path.write_text("# schema_version: 1:2\n+1 1:1\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"f\.svml:1: bad schema_version header$"):
        read_svmlight(path)


def test_read_svmlight_quotes_a_bad_label(tmp_path):
    path = tmp_path / "f.svml"
    path.write_text("+1 1:1\n+2 1:1\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"f\.svml:2: label must be \+1 or -1, got '\+2'$"):
        read_svmlight(path)


def test_read_svmlight_skips_qid_tokens(tmp_path):
    path = tmp_path / "f.svml"
    path.write_text("+1 qid:3 1:1 4:2 # a\n-1 qid 2:1\n", encoding="utf-8")
    data = read_svmlight(path)
    assert [(d.vector, d.label, d.comment) for d in data] == [
        (vec({1: 1, 4: 2}), 1, "a"), (vec({2: 1}), -1, "")]


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
    assert load_model(path) == model._replace(passes=None, gap=None, peak=None)


def test_a_default_fit_records_the_documented_settings(tmp_path):
    _, data = hidden_separator_data(20, seed=1)
    path = tmp_path / "model.txt"
    save_model(train(data), path)
    assert path.read_text(encoding="utf-8").splitlines()[:5] == [
        "schema_version: 1", "regularization: 0.01", "epochs: 200", "seed: 42",
        "scaling: none"]


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


# settings that train takes, or any finite ones
_SETTINGS = (st.builds(TrainConfig, st.floats(0, exclude_min=True, allow_infinity=False),
                       st.integers(1), st.integers(0), st.booleans())
             | st.builds(TrainConfig, _FINITE, st.integers(), st.integers(), st.booleans()))


@settings(max_examples=60)
@given(st.builds(Model, st.tuples(*[_FINITE] * N_SLOTS), _FINITE, _SETTINGS,
                 st.none() | st.integers(), st.none() | _FINITE, st.none() | _FINITE))
def test_every_model_reads_back_from_its_file(tmp_path_factory, model):
    """load_model(save_model(m)) is m, but for how the fit ended, when m has
    settings that train takes; the file of any other is refused, naming them."""
    path = tmp_path_factory.mktemp("model") / "model.txt"
    save_model(model, path)
    try:
        model.config.validate()
    except ArasentError as exc:
        with pytest.raises(ParseError, match=rf"model\.txt: {re.escape(str(exc))}$"):
            load_model(path)
    else:
        assert load_model(path) == model._replace(passes=None, gap=None, peak=None)


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
    with pytest.raises(ParseError, match=r"model\.txt: missing model field 'regularization'$"):
        load_model(path)
    path.write_text(EARLIER_MODEL.replace("scaling: none\n", ""), encoding="utf-8")
    with pytest.raises(ParseError, match=r"model\.txt: missing model field 'scaling'$"):
        load_model(path)


@pytest.mark.parametrize("old, new, reason", [
    ("regularization: 0.01", "regularization: -1.0",
     "regularization must be a positive finite number, got -1.0"),
    ("epochs: 200", "epochs: 0", "epochs must be a positive integer, got 0"),
    ("seed: 42", "seed: -3", "seed must be a non-negative integer, got -3")],
    ids=["reg-negative", "epochs-0", "seed-negative"])
def test_load_model_refuses_settings_no_fit_could_have_had(tmp_path, old, new, reason):
    path = tmp_path / "model.txt"
    path.write_text(EARLIER_MODEL.replace(old, new), encoding="utf-8")
    with pytest.raises(ParseError, match=rf"model\.txt: {reason}$"):
        load_model(path)


def test_load_model_reads_an_integer_too_long_for_a_float(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text(EARLIER_MODEL.replace("epochs: 200", "epochs: " + "9" * 400),
                    encoding="utf-8")
    assert load_model(path).config.epochs == int("9" * 400)


@pytest.mark.parametrize("old, new, line_no, reason", [
    ("scaling: none", "scaling: Max", 5, "scaling must be max or none, got 'Max'"),
    ("bias:", "18: 5.0\nbias:", 23, "unknown model field '18'"),
    ("bias:", "bais: 3.0\nbias:", 23, "unknown model field 'bais'")],
    ids=["scaling-case", "slot-18", "misspelt-bias"])
def test_load_model_refuses_an_unknown_field_or_scaling_at_its_line(tmp_path, old, new,
                                                                    line_no, reason):
    path = tmp_path / "model.txt"
    path.write_text(EARLIER_MODEL.replace(old, new), encoding="utf-8")
    with pytest.raises(ParseError, match=f"model.txt:{line_no}: {reason}$"):
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


@pytest.mark.parametrize("model, reason", [
    (Model((math.nan,) + (0.0,) * 16, 0.0), "non-finite 1: nan"),
    (Model((0.0,) * 16 + (-math.inf,), 0.0), "non-finite 17: -inf"),
    (Model((0.0,) * 17, math.inf), "non-finite bias: inf"),
    (Model((0.0,) * 17, 0.0, TrainConfig(regularization=math.nan)),
     "non-finite regularization: nan")], ids=["slot-1", "slot-17", "bias", "regularization"])
def test_save_model_refuses_what_load_model_refuses(tmp_path, model, reason):
    with pytest.raises(ValueError, match=f"^{reason}$"):
        save_model(model, tmp_path / "model.txt")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_feature_vector_rejects_non_finite_values(value):
    # a non-finite value cannot reach train or write_svmlight
    with pytest.raises(ValueError, match="slot 6 value .* is not finite"):
        LabeledVector(vec({3: 1.0, 6: value}), 1)


def test_feature_vector_names_the_first_non_finite_slot():
    with pytest.raises(ValueError, match="^slot 2 value nan is not finite$"):
        LabeledVector(vec({2: math.nan, 5: 1.0, 9: math.inf}), 1)


@pytest.mark.parametrize("pair", ["1:nan", "6:inf", "6:-inf", "2:1e999"])
def test_read_svmlight_rejects_non_finite_values(tmp_path, pair):
    path = tmp_path / "f.svml"
    path.write_text(f"+1 1:1\n-1 {pair}\n", encoding="utf-8")
    slot, _, value = pair.partition(":")
    with pytest.raises(ParseError, match=rf"f\.svml:2: slot {slot} value {float(value)} "
                                         "is not finite$"):
        read_svmlight(path)


@pytest.mark.parametrize("pair, error", [
    ("18:1", "feature index 18 outside schema 1..17"),
    ("0:1", "feature index 0 outside schema 1..17"),
    ("-3:1", "feature index -3 outside schema 1..17")], ids=["18", "0", "negative"])
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


def _lines_formatted_per_value(data):
    """The SVM-light body lines of ``data``, each value formatted on its own."""
    lines = []
    for row in data:
        pairs = [f"{slot}:{classifier._format_value(value)}"
                 for slot, value in enumerate(row.vector, 1) if value]
        lines.append(" ".join([f"{row.label:+d}", *pairs]))
    return lines


# 1e15 is the first magnitude written in exponent form, so its neighbours
# format in both ways
BELOW_1E15 = math.nextafter(1e15, 0)


@pytest.mark.parametrize("rows", [
    # one value repeated across rows and slots, among others
    [vec({1: 0.1, 2: 1 / 3, 5: 0.1, 8: 2.5}), vec({2: 0.1, 3: 1 / 3, 17: 0.1}),
     vec({1: 2.5, 9: 1 / 3, 10: 0.1})],
    # ints from a library caller next to the equal floats
    [(3, 0, 1, 0, 0, 2, 0, 0, 0, 10**15, 0, 7, 0, 0, 0, 0, -4),
     vec({1: 3.0, 3: 1.0, 10: 1e15, 17: -4.0}),
     (1,) * N_SLOTS],
    # at and just under the 1e15 boundary, either sign
    [vec({1: 1e15, 2: BELOW_1E15, 3: 999999999999999.0, 4: -1e15, 5: -BELOW_1E15}),
     vec({1: BELOW_1E15, 2: 1e15, 3: -999999999999999.0, 4: 1e16, 5: 999999999999999.5})],
    # a Decimal equal to a float it does not format like
    [vec({1: 1.5, 2: 0.1}), (Decimal("1.50"), Decimal(0.1)) + (0,) * (N_SLOTS - 2)],
], ids=["repeated", "ints", "1e15", "decimal"])
def test_write_svmlight_formats_as_each_value_alone(tmp_path, rows):
    data = [LabeledVector(row, 1 if i % 2 else -1) for i, row in enumerate(rows)]
    path = tmp_path / "f.svml"
    write_svmlight(data, path)
    assert path.read_text(encoding="utf-8").splitlines()[1:] == _lines_formatted_per_value(data)


def test_write_svmlight_formats_equal_decimals_alike(tmp_path):
    path = tmp_path / "f.svml"
    write_svmlight([LabeledVector((Decimal("1.5"),) + (0,) * (N_SLOTS - 1), 1),
                    LabeledVector((Decimal("1.50"),) + (0,) * (N_SLOTS - 1), -1)], path)
    assert path.read_text(encoding="utf-8").splitlines()[1:] == ["+1 1:1.5", "-1 1:1.5"]


@pytest.mark.parametrize("values", [
    {1: Decimal("1.50"), 4: Decimal(0.1), 9: Decimal(-2)},
    {1: Fraction(1, 3), 4: Fraction(3, 2), 9: Fraction(-2)},
    {1: 1, 4: 3, 9: -2}], ids=["decimal", "fraction", "int"])
def test_a_vector_of_other_numbers_is_its_floats(tmp_path, values):
    """A vector of numbers that are not floats trains, predicts and writes as
    the equal float vector: a Decimal vector once crashed ``train``, and a
    Fraction vector ``write_svmlight`` on Python 3.10 and 3.11."""
    rows = [({slot: value * k for slot, value in values.items()}, 1 if k > 0 else -1)
            for k in (1, 2, -1, -3)]
    given = [LabeledVector(tuple(row.get(s, 0) for s in range(1, N_SLOTS + 1)), label)
             for row, label in rows]
    floats = [lv(row, label) for row, label in rows]
    assert all(type(v) is float for row in given for v in row.vector)
    model = train(given)
    assert model == train(floats)
    assert [predict(model, row.vector) for row in given] == \
        [predict(model, row.vector) for row in floats]
    write_svmlight(given, tmp_path / "given.svml")
    write_svmlight(floats, tmp_path / "floats.svml")
    assert (tmp_path / "given.svml").read_bytes() == (tmp_path / "floats.svml").read_bytes()


def test_format_value_around_1e15():
    assert [classifier._format_value(v) for v in (
        1e15, BELOW_1E15, 999999999999999.0, 10**15, 999999999999999.5)] == [
        "1e+15", "1e+15", "999999999999999", "1e+15", "1e+15"]

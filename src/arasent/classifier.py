"""Linear max-margin classifier over the fixed feature schema.

Training minimizes L2-regularized hinge loss, the problem SVM-light
solves, exactly: dual coordinate descent for the L1-loss linear SVM
(Hsieh et al., ICML 2008, the LIBLINEAR method), seeded and deterministic,
stopping once the projected-gradient gap falls under ``TOL``. The bias
rides along as a regularized constant feature. The sparse SVM-light file
format is supported for interchange with the original external tool.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, NamedTuple, Sequence

from .errors import ArasentError, ParseError
from .features import N_SLOTS, SCHEMA_VERSION
from .fileio import atomic_write, read_lines

# The solver stops once max PG - min PG over a pass falls under this.
TOL = 1e-3


class TrainConfig(NamedTuple):
    regularization: float = 1e-2
    epochs: int = 200
    seed: int = 42
    scale_max: bool = False


class LabeledVector:
    """One training row: ``vector`` (length N_SLOTS, index slot-1), ``label``
    +1 (PO) or -1 (NG) and a free ``comment``; refuses any other label,
    length or a non-finite value."""

    __slots__ = ("vector", "label", "comment")

    def __init__(self, vector: tuple[float, ...], label: int, comment: str = ""):
        if label not in (1, -1):
            raise ValueError(f"label must be +1 or -1, got {label}")
        if len(vector) != N_SLOTS:
            raise ValueError(f"vector must hold {N_SLOTS} slots, got {len(vector)}")
        for slot, value in enumerate(vector, 1):
            if not math.isfinite(value):
                raise ValueError(f"slot {slot} value {value} is not finite")
        self.vector, self.label, self.comment = vector, label, comment


class Model(NamedTuple):
    weights: tuple[float, ...]  # length N_SLOTS, index slot-1
    bias: float
    config: TrainConfig = TrainConfig()
    # how the fit ended; not part of the model file, so a loaded model has None
    passes: int | None = None
    gap: float | None = None


def train(data: Sequence[LabeledVector],
          config: TrainConfig | None = None) -> Model:
    """Fit a linear SVM by dual coordinate descent with ``C = 1/(λn)``.

    Each pass visits the rows in a seeded shuffled order and moves one dual
    variable at a time to its box-clipped optimum. Training stops when the
    projected-gradient gap of a pass falls under ``TOL`` or after
    ``config.epochs`` passes; the model records both. Deterministic: the
    same (data order, seed, config) reproduces the model bit for bit.
    Refuses a regularization that is not positive and finite, fewer than one
    pass, and data without both labels.
    """
    config = config or TrainConfig()
    if not 0 < config.regularization < math.inf:
        raise ArasentError("regularization must be a positive finite number, "
                           f"got {config.regularization}")
    if config.epochs < 1:
        raise ArasentError(f"epochs must be a positive integer, got {config.epochs}")
    if not data:
        raise ArasentError("no training vectors")
    labels = {lv.label for lv in data}
    if labels != {1, -1}:
        raise ArasentError(f"need both labels, got {sorted(labels)}")

    factors = [0.0] * (N_SLOTS + 1)  # column max |x| per slot, when scaling
    for lv in data:
        for slot, value in enumerate(lv.vector, 1):
            factors[slot] = max(factors[slot], abs(value))
    factors = [f if config.scale_max and f > 0 else 1.0 for f in factors]
    # label-signed (index, value) rows y_i x_i over the augmented weights:
    # index 0 is the bias riding on a constant 1, index s is slot s
    rows = [[(0, float(lv.label))]
            + [(s, lv.label * v / factors[s]) for s, v in enumerate(lv.vector, 1) if v]
            for lv in data]

    c = 1.0 / (config.regularization * len(rows))  # the dual box 0 <= alpha_i <= C
    q = [math.fsum(x * x for _, x in row) for row in rows]  # Q_ii >= 1, rounded alike everywhere
    w, alpha = [0.0] * (N_SLOTS + 1), [0.0] * len(rows)
    order, rng = list(range(len(rows))), random.Random(config.seed)
    passes, gap = 0, math.inf
    while passes < config.epochs and gap >= TOL:
        passes += 1
        rng.shuffle(order)
        hi, lo = -math.inf, math.inf
        for i in order:
            g = -1.0  # G = y_i (w . x_i) - 1; not sum(), which compensates on 3.12
            for j, x in rows[i]:
                g += w[j] * x
            a = alpha[i]
            pg = min(g, 0.0) if a == 0.0 else max(g, 0.0) if a == c else g
            hi, lo = max(hi, pg), min(lo, pg)
            if pg:
                alpha[i] = min(max(a - g / q[i], 0.0), c)
                for j, x in rows[i]:
                    w[j] += (alpha[i] - a) * x
        gap = hi - lo

    # fold scaling back so predict takes raw vectors
    weights = tuple(v / f for v, f in zip(w[1:], factors[1:]))
    return Model(weights=weights, bias=w[0], config=config, passes=passes, gap=gap)


def predict(model: Model, v: tuple[float, ...]) -> tuple[int, float]:
    """Label and margin for one vector. Margin 0 maps to +1."""
    margin = model.bias
    # the nonzero slots in slot order, so a margin of zero keeps its sign;
    # not sum(), which compensates on 3.12
    for weight, value in zip(model.weights, v, strict=True):
        if value:
            margin += weight * value
    return (1 if margin >= 0 else -1), float(margin)


def objective(model: Model, data: Sequence[LabeledVector]) -> float:
    """L2-regularized mean hinge loss of a model on a dataset."""
    lam = model.config.regularization
    reg = 0.5 * lam * (sum(w * w for w in model.weights) + model.bias ** 2)
    hinge = 0.0
    for lv in data:
        _, margin = predict(model, lv.vector)
        hinge += max(0.0, 1.0 - lv.label * margin)
    return reg + hinge / len(data)


def accuracy(model: Model, data: Sequence[LabeledVector]) -> float:
    if not data:
        raise ArasentError("no vectors to score")
    hits = sum(1 for lv in data if predict(model, lv.vector)[0] == lv.label)
    return hits / len(data)


def grid_search(train_data: Sequence[LabeledVector],
                dev_data: Sequence[LabeledVector],
                regularizations: Iterable[float] = (1e-3, 1e-2, 1e-1),
                config: TrainConfig = TrainConfig()) -> tuple[TrainConfig, Model, float]:
    """Pick the regularization with the best dev accuracy, one fit each.

    Every fit keeps the other settings of ``config``. Ties keep the first
    candidate in iteration order, so the search is deterministic.
    """
    best: tuple[TrainConfig, Model, float] | None = None
    for reg in regularizations:
        candidate = config._replace(regularization=reg)
        model = train(train_data, candidate)
        acc = accuracy(model, dev_data)
        if best is None or acc > best[2]:
            best = (candidate, model, acc)
    assert best is not None
    return best


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def _check_schema(version: int) -> None:
    """Refuse a file written for any feature schema but this one."""
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version} "
                         f"(only schema {SCHEMA_VERSION} exists)")


def write_svmlight(data: Sequence[LabeledVector], path) -> None:
    """Write ``<label> <index>:<value> ... # <comment>`` lines.

    Values carry up to 6 significant digits; integers drop the decimal
    point. The schema version goes in a leading comment line.
    """
    with atomic_write(path) as fh:
        if data:
            fh.write(f"# schema_version: {SCHEMA_VERSION}\n")
        for lv in data:
            body = " ".join(f"{i}:{_format_value(val)}"
                            for i, val in enumerate(lv.vector, 1) if val)
            line = f"{lv.label:+d}"
            if body:
                line += " " + body
            if lv.comment:
                line += f" # {lv.comment}"
            fh.write(line + "\n")


def read_svmlight(path) -> list[LabeledVector]:
    """Parse an SVM-light file written by this module or the original tool.

    Arbitrary whitespace between pairs is fine; ``#`` starts a comment. A
    ``# schema_version:`` header on any line must name ``SCHEMA_VERSION``; a
    file without one, as the original tool writes, is read as that schema.
    """
    out: list[LabeledVector] = []
    with read_lines(path) as lines:
        for line in lines:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                head = line.lstrip("#").strip()
                if head.startswith("schema_version:"):
                    try:
                        version = int(head.split(":", 1)[1])
                    except ValueError:
                        raise ValueError("bad schema_version header") from None
                    _check_schema(version)
                continue
            body, _, comment = line.partition("#")
            tokens = body.split()
            if not tokens:
                raise ValueError("missing label")
            if tokens[0] in ("+1", "1"):
                label = 1
            elif tokens[0] == "-1":
                label = -1
            else:
                raise ValueError(f"label must be +1 or -1, got {tokens[0]!r}")
            values = [0.0] * N_SLOTS
            last_index = 0
            for tok in tokens[1:]:
                if tok == "qid" or tok.startswith("qid:"):
                    continue
                index_s, sep, value_s = tok.partition(":")
                if not sep:
                    raise ValueError(f"expected index:value, got {tok!r}")
                try:
                    index = int(index_s)
                    value = float(value_s)
                except ValueError:
                    raise ValueError(f"non-numeric pair {tok!r}") from None
                if not math.isfinite(value):
                    raise ValueError(f"non-finite value {tok!r}")
                if index <= last_index:
                    raise ValueError(f"indices must be strictly increasing at {tok!r}")
                if index > N_SLOTS:
                    raise ValueError(f"feature index {index} outside schema 1..{N_SLOTS}")
                last_index = index
                values[index - 1] = value
            out.append(LabeledVector(tuple(values), label, comment.strip()))
    return out


def save_model(model: Model, path) -> None:
    """Persist a model as a small text file (full float precision)."""
    with atomic_write(path) as fh:
        fh.write(f"schema_version: {SCHEMA_VERSION}\n")
        fh.write(f"regularization: {model.config.regularization!r}\n")
        fh.write(f"epochs: {model.config.epochs}\n")
        fh.write(f"seed: {model.config.seed}\n")
        fh.write(f"scaling: {'max' if model.config.scale_max else 'none'}\n")
        for slot in range(1, N_SLOTS + 1):
            fh.write(f"{slot}: {float(model.weights[slot - 1])!r}\n")
        fh.write(f"bias: {float(model.bias)!r}\n")


def load_model(path) -> Model:
    fields: dict[str, tuple[int, str]] = {}  # key -> (line number, value)
    with read_lines(path) as lines:
        for line in lines:
            line = line.strip()
            if not line:
                continue
            key, sep, value = line.partition(":")
            if not sep:
                raise ValueError(f"expected key: value, got {line!r}")
            fields[key.strip()] = (lines.line_no, value.strip())

    def number(key, cast=float):
        if key not in fields:
            raise ParseError(path, None, f"missing model field {key!r}")
        line_no, text = fields[key]
        try:
            value = cast(text)
            if cast is float and not math.isfinite(value):  # an int is finite, however long
                raise ValueError(f"non-finite {key}: {text}")
            if key == "schema_version":
                _check_schema(value)
        except ValueError as exc:
            raise ParseError(path, line_no, str(exc)) from None
        return value

    number("schema_version", int)  # first: no other field is read from another schema
    config = TrainConfig(regularization=number("regularization"), epochs=number("epochs", int),
                         seed=number("seed", int),
                         scale_max=fields.get("scaling", (0, "none"))[1] == "max")
    return Model(weights=tuple(number(str(slot)) for slot in range(1, N_SLOTS + 1)),
                 bias=number("bias"), config=config)

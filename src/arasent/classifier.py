"""Linear max-margin classifier over the fixed feature schema.

Training minimizes L2-regularized hinge loss, the problem SVM-light
solves, exactly: dual coordinate descent for the L1-loss linear SVM
(Hsieh et al., ICML 2008, the LIBLINEAR method) with shrinking, seeded and
deterministic, stopping once the projected-gradient gap of a pass over every
row falls under ``TOL``. The bias rides along as a regularized constant
feature. The sparse SVM-light file format is supported for interchange with
the original external tool. The schema comes from ``arasent.schema``: this
module loads no text pipeline.
"""

from __future__ import annotations

import math
import random
from itertools import compress
from typing import Iterable, NamedTuple, Sequence

from .errors import ArasentError, ParseError
from .fileio import atomic_write, read_data
from .schema import N_SLOTS, SCHEMA_VERSION

# The solver stops once max PG - min PG over a pass falls under this.
TOL = 1e-3


class TrainConfig(NamedTuple):
    regularization: float = 1e-2
    epochs: int = 200
    seed: int = 42
    scale: bool = False  # divide each slot by its largest |value| in the training data


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
        if not all(map(math.isfinite, vector)):
            slot, value = next((slot, value) for slot, value in enumerate(vector, 1)
                               if not math.isfinite(value))
            raise ValueError(f"slot {slot} value {value} is not finite")
        self.vector, self.label, self.comment = vector, label, comment


class Model(NamedTuple):
    weights: tuple[float, ...]  # length N_SLOTS, index slot-1
    bias: float
    config: TrainConfig = TrainConfig()
    # how the fit ended; not part of the model file, so a loaded model has None
    passes: int | None = None
    gap: float | None = None
    peak: float | None = None  # the largest alpha_i the fit reached


def _box(regularization: float, n: int) -> float:
    """The upper bound C = 1/(λn) on each dual variable of an n-row fit."""
    return 1.0 / (regularization * n)


def _squared_norm(row) -> float:
    """The sum of the squared values of a row, or inf where it overflows: fsum
    returns inf for an inf square and raises for finite squares whose sum
    overflows."""
    try:
        return math.fsum(x * x for _, x in row)
    except OverflowError:
        return math.inf


def train(data: Sequence[LabeledVector],
          config: TrainConfig | None = None) -> Model:
    """Fit a linear SVM by dual coordinate descent with ``C = 1/(λn)``.

    Each pass visits the active rows in a seeded shuffled order and moves
    one dual variable at a time to its box-clipped optimum. Shrinking
    (LIBLINEAR's rule): a row at 0 whose gradient is above the last pass's
    largest projected gradient, or at C with one below its smallest, leaves
    the active rows. Once the active rows' projected-gradient gap falls under
    ``TOL``, every row is re-opened, and training stops at a pass over every
    row whose gap is under ``TOL``. ``config.epochs`` caps the work at
    ``epochs * n`` row visits, what that many passes over every row make, so
    the passes made may exceed it. The model records the passes, the last
    pass's gap (inf when the cap stops the fit right after a re-open) and
    ``peak``, the largest dual variable the fit reached. Deterministic: the
    same (data order, seed, config) reproduces the model bit for bit.
    Refuses a regularization that is not positive and finite, fewer than one
    pass, data without both labels, and a vector whose squared norm overflows
    a float (scaled, every value is within 1).
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

    factors = [1.0] * (N_SLOTS + 1)  # column max |x| per slot when scaling; x / 1.0 is x
    if config.scale:
        maxima = [0.0] * (N_SLOTS + 1)
        for lv in data:
            for slot, value in enumerate(lv.vector, 1):
                maxima[slot] = max(maxima[slot], abs(value))
        factors = [f if f > 0 else 1.0 for f in maxima]
    # label-signed (index, value) rows y_i x_i over the augmented weights:
    # index 0 is the bias riding on a constant 1, index s is slot s
    rows = [[(0, float(lv.label))]
            + [(s, lv.label * v / factors[s]) for s, v in enumerate(lv.vector, 1) if v]
            for lv in data]

    c = _box(config.regularization, len(rows))  # the dual box 0 <= alpha_i <= C
    q = [_squared_norm(row) for row in rows]  # Q_ii >= 1, rounded alike everywhere
    if math.inf in q:
        raise ArasentError(f"vector {q.index(math.inf) + 1}: its squared norm overflows a "
                           "float; scale=True (--scale) trains it")
    n = len(rows)
    w, alpha = [0.0] * (N_SLOTS + 1), [0.0] * n
    index, k, rng = list(range(n)), n, random.Random(config.seed)  # index[:k] is active
    budget, passes, gap, peak = config.epochs * n, 0, math.inf, 0.0  # budget: visits left
    above, below = math.inf, -math.inf  # the shrink thresholds
    # The comparisons below pick what min/max would: each keeps its first
    # operand on a tie, as min/max do, and no value in the loop is ever -0.0
    # (g starts at -1.0 and alpha at 0.0, and a sum that cancels is +0.0).
    # So the fit is bit for bit the one written with min/max.
    while k <= budget:
        passes += 1
        budget -= k
        active = index[:k]
        rng.shuffle(active)
        index[:k] = active
        hi, lo = -math.inf, math.inf
        s = 0
        while s < k:
            i = index[s]
            row = rows[i]
            g = -1.0  # G = y_i (w . x_i) - 1; not sum(), which compensates on 3.12
            for j, x in row:
                g += w[j] * x
            a = alpha[i]
            if a == 0.0:
                if g > above:  # shrink: swap the row out, and visit the last active one
                    k -= 1
                    index[s], index[k] = index[k], i
                    continue
                pg = 0.0 if g > 0.0 else g  # the projected gradient
            elif a == c:
                if g < below:
                    k -= 1
                    index[s], index[k] = index[k], i
                    continue
                pg = 0.0 if g < 0.0 else g
            else:
                pg = g
            if pg > hi:
                hi = pg
            if pg < lo:
                lo = pg
            if pg:
                b = a - g / q[i]  # the optimum along alpha_i, clipped to [0, C]
                if b < 0.0:
                    b = 0.0
                elif b > c:
                    b = c
                alpha[i] = b
                if b > peak:
                    peak = b
                d = b - a
                for j, x in row:
                    w[j] += d * x
            s += 1
        gap = hi - lo
        if gap >= TOL:  # LIBLINEAR's thresholds: one not past 0 shrinks no row
            above = hi if hi > 0.0 else math.inf
            below = lo if lo < 0.0 else -math.inf
        elif k == n:  # a pass over every row certifies the fit
            break
        else:  # the active rows are solved: re-open every row to check them all
            k, above, below, gap = n, math.inf, -math.inf, math.inf

    # fold scaling back so predict takes raw vectors
    weights = tuple(v / f for v, f in zip(w[1:], factors[1:]))
    return Model(weights=weights, bias=w[0], config=config, passes=passes, gap=gap, peak=peak)


def predict(model: Model, v: tuple[float, ...]) -> tuple[int, float]:
    """Label and margin for one vector. Margin 0 maps to +1."""
    margin = model.bias
    # the nonzero slots in slot order, so a margin of zero keeps its sign;
    # not sum(), which compensates on 3.12
    for weight, value in compress(zip(model.weights, v, strict=True), v):
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
    """Pick the regularization with the best dev accuracy.

    Every fit keeps the other settings of ``config``. Ties keep the first
    candidate in iteration order, so the search is deterministic. A
    regularization is not fitted when its fit would provably take the last
    fit's path: that fit's dual variables stayed under both boxes, so its
    clip at C never engaged and would not engage at the new C either, and
    shrinking read C only for a dual variable at C, which none reached. The
    model and dev accuracy would be the last fit's, which a tie never picks.
    Refuses an empty ``regularizations`` and an empty ``dev_data`` before any
    fit.
    """
    regularizations = tuple(regularizations)
    if not regularizations:
        raise ArasentError("no regularizations to search")
    if not dev_data:
        raise ArasentError("no dev vectors: the dev split holds no labeled topic")
    n = len(train_data)
    best: tuple[TrainConfig, Model, float] | None = None
    fit: Model | None = None  # the last model fitted
    for reg in regularizations:
        if (fit is not None and reg > 0  # train refuses any other
                and fit.peak < min(_box(fit.config.regularization, n), _box(reg, n))):
            continue
        candidate = config._replace(regularization=reg)
        fit = train(train_data, candidate)
        acc = accuracy(fit, dev_data)
        if best is None or acc > best[2]:
            best = (candidate, fit, acc)
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


class _Formatted(dict):
    """``_format_value`` of each float looked up, computed once."""

    def __missing__(self, value: float) -> str:
        text = self[value] = _format_value(value)
        return text


def write_svmlight(data: Sequence[LabeledVector], path) -> None:
    """Write ``<label> <index>:<value> ... # <comment>`` lines.

    Values carry up to 6 significant digits; integers drop the decimal
    point. The schema version goes in a leading comment line. A comment that
    holds a line break is a ValueError naming its row, and no file is written.
    """
    # Each distinct float is formatted once per file: equal floats format
    # alike (0.0 and -0.0 are never written). A value of another type, such
    # as an int or a Decimal from a library caller, is formatted each time:
    # Decimal("1.50") equals 1.5 but formats as "1.50".
    formatted = _Formatted()
    with atomic_write(path) as fh:
        if data:
            fh.write(f"# schema_version: {SCHEMA_VERSION}\n")
        for row, lv in enumerate(data, 1):
            body = " ".join([
                f"{i}:{formatted[val] if type(val) is float else _format_value(val)}"
                for i, val in enumerate(lv.vector, 1) if val])
            line = f"{lv.label:+d}"
            if body:
                line += " " + body
            if lv.comment:
                if "\n" in lv.comment or "\r" in lv.comment:
                    raise ValueError(f"row {row}: comment {lv.comment!r} holds a line break")
                line += f" # {lv.comment}"
            fh.write(line + "\n")


def read_svmlight(path) -> list[LabeledVector]:
    """Parse an SVM-light file written by this module or the original tool.

    Arbitrary whitespace between pairs is fine; ``#`` starts a comment. A
    ``# schema_version:`` header on any line must name ``SCHEMA_VERSION``; a
    file without one, as the original tool writes, is read as that schema.
    """
    out: list[LabeledVector] = []
    with read_data(path) as lines:
        for line in lines:
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
            tokens = body.split()  # the line is stripped and not led by #: a label leads it
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
                if index < 1 or index > N_SLOTS:
                    raise ValueError(f"feature index {index} outside schema 1..{N_SLOTS}")
                if index <= last_index:
                    raise ValueError(f"indices must be strictly increasing at {tok!r}")
                last_index = index
                values[index - 1] = value
            out.append(LabeledVector(tuple(values), label, comment.strip()))
    return out


def save_model(model: Model, path) -> None:
    """Persist a model as a small text file (full float precision). A
    non-finite weight, bias or regularization, which ``load_model`` refuses,
    is a ValueError naming the field, and no file is written."""
    values = {str(slot): float(model.weights[slot - 1]) for slot in range(1, N_SLOTS + 1)}
    values["bias"] = float(model.bias)
    for key, value in {"regularization": model.config.regularization, **values}.items():
        if not math.isfinite(value):
            raise ValueError(f"non-finite {key}: {value!r}")
    with atomic_write(path) as fh:
        fh.write(f"schema_version: {SCHEMA_VERSION}\n")
        fh.write(f"regularization: {model.config.regularization!r}\n")
        fh.write(f"epochs: {model.config.epochs}\n")
        fh.write(f"seed: {model.config.seed}\n")
        fh.write(f"scaling: {'max' if model.config.scale else 'none'}\n")
        fh.writelines(f"{key}: {value!r}\n" for key, value in values.items())


_MODEL_FIELDS = frozenset(["schema_version", "regularization", "epochs", "seed", "scaling",
                           "bias", *map(str, range(1, N_SLOTS + 1))])


def load_model(path) -> Model:
    """Read a model file; an unknown field, a scaling other than max or none
    and a field a line above already holds are each a ParseError at its line."""
    fields: dict[str, tuple[int, str]] = {}  # key -> (line number, value)
    with read_data(path) as lines:
        for line in lines:
            key, sep, value = line.partition(":")
            if not sep:
                raise ValueError(f"expected key: value, got {line!r}")
            key = key.strip()
            if key in fields:
                raise ValueError(f"duplicate model field {key!r}")
            fields[key] = (lines.line_no, value.strip())

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
    for key, (line_no, _) in fields.items():
        if key not in _MODEL_FIELDS:
            raise ParseError(path, line_no, f"unknown model field {key!r}")
    line_no, scaling = fields.get("scaling", (None, "none"))
    if scaling not in ("max", "none"):
        raise ParseError(path, line_no, f"scaling must be max or none, got {scaling!r}")
    config = TrainConfig(regularization=number("regularization"), epochs=number("epochs", int),
                         seed=number("seed", int), scale=scaling == "max")
    return Model(weights=tuple(number(str(slot)) for slot in range(1, N_SLOTS + 1)),
                 bias=number("bias"), config=config)

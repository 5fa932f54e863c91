"""Frozen references of the dual coordinate descent solver.

``train`` is ``classifier.train`` written with the ``min``/``max``
builtins, re-reading ``rows[i]`` and ``alpha[i]`` in the update, and with
no record of the largest dual variable. It stays here, unoptimized, so
that differential tests can check that the solver still computes the same
floats in the same order.

``train_full_passes`` is the solver as it was before shrinking: every pass
visits every row, for at most ``epochs`` passes. It is the oracle that the
shrinking solver must optimize at least as well as.

``separator_points`` draws the oracle data sets that the solver tests and
the acceptance suite train on.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

from arasent.classifier import TOL, LabeledVector, TrainConfig
from arasent.schema import N_SLOTS


def separator_points(w_star, n, seed, margin=0.5) -> list[LabeledVector]:
    """``n`` points on five random slots each, labeled by the oracle
    separator ``w_star`` and kept ``margin`` clear of its boundary."""
    rng = random.Random(seed)
    points = []
    while len(points) < n:
        values = {slot: rng.uniform(-2, 2)
                  for slot in rng.sample(range(1, N_SLOTS + 1), 5)}
        score = sum(w_star[slot - 1] * v for slot, v in values.items())
        if abs(score) < margin:
            continue
        vector = tuple(values.get(slot, 0.0) for slot in range(1, N_SLOTS + 1))
        points.append(LabeledVector(vector, 1 if score > 0 else -1))
    return points


def _rows(data: Sequence[LabeledVector], config: TrainConfig):
    """The label-signed rows, their squared norms and the factors to fold back."""
    factors = [0.0] * (N_SLOTS + 1)
    for lv in data:
        for slot, value in enumerate(lv.vector, 1):
            factors[slot] = max(factors[slot], abs(value))
    factors = [f if config.scale and f > 0 else 1.0 for f in factors]
    rows = [[(0, float(lv.label))]
            + [(s, lv.label * v / factors[s]) for s, v in enumerate(lv.vector, 1) if v]
            for lv in data]
    return rows, [math.fsum(x * x for _, x in row) for row in rows], factors


def train(data: Sequence[LabeledVector], config: TrainConfig,
          tol: float = TOL) -> tuple[tuple[float, ...], float, int, float]:
    """``(weights, bias, passes, gap)`` of the fit, stopping at the gap
    ``tol``; ``data`` holds both labels.

    A row at 0 whose gradient is above the last pass's largest projected
    gradient, or at C with one below its smallest, is swapped out of the
    active rows ``index[:k]``, and the last active row is visited in its
    place. Once the active rows' gap falls under ``tol`` every row is
    re-opened; a pass over every row under ``tol`` ends the fit. The fit
    makes at most ``epochs * n`` row visits.
    """
    rows, q, factors = _rows(data, config)
    n = len(rows)
    c = 1.0 / (config.regularization * n)
    w, alpha = [0.0] * (N_SLOTS + 1), [0.0] * n
    index, k, rng = list(range(n)), n, random.Random(config.seed)
    visits, passes, gap = 0, 0, math.inf
    above, below = math.inf, -math.inf
    while visits + k <= config.epochs * n:
        passes += 1
        visits += k
        active = index[:k]
        rng.shuffle(active)
        index[:k] = active
        hi, lo = -math.inf, math.inf
        s = 0
        while s < k:
            i = index[s]
            g = -1.0
            for j, x in rows[i]:
                g += w[j] * x
            a = alpha[i]
            if (a == 0.0 and g > above) or (a == c and g < below):
                k -= 1
                index[s], index[k] = index[k], index[s]
                continue
            pg = min(g, 0.0) if a == 0.0 else max(g, 0.0) if a == c else g
            hi, lo = max(hi, pg), min(lo, pg)
            if pg:
                alpha[i] = min(max(a - g / q[i], 0.0), c)
                for j, x in rows[i]:
                    w[j] += (alpha[i] - a) * x
            s += 1
        gap = hi - lo
        if gap >= tol:
            above = hi if hi > 0.0 else math.inf
            below = lo if lo < 0.0 else -math.inf
        elif k == n:
            break
        else:
            k, above, below, gap = n, math.inf, -math.inf, math.inf

    weights = tuple(v / f for v, f in zip(w[1:], factors[1:]))
    return weights, w[0], passes, gap


def train_full_passes(data: Sequence[LabeledVector],
                      config: TrainConfig) -> tuple[tuple[float, ...], float, int, float]:
    """``(weights, bias, passes, gap)`` of the fit that visits every row on
    every pass; ``data`` holds both labels."""
    rows, q, factors = _rows(data, config)
    c = 1.0 / (config.regularization * len(rows))
    w, alpha = [0.0] * (N_SLOTS + 1), [0.0] * len(rows)
    order, rng = list(range(len(rows))), random.Random(config.seed)
    passes, gap = 0, math.inf
    while passes < config.epochs and gap >= TOL:
        passes += 1
        rng.shuffle(order)
        hi, lo = -math.inf, math.inf
        for i in order:
            g = -1.0
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

    weights = tuple(v / f for v, f in zip(w[1:], factors[1:]))
    return weights, w[0], passes, gap

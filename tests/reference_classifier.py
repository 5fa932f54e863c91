"""Frozen reference of the dual coordinate descent solver.

This is ``classifier.train`` as it was written with the ``min``/``max``
builtins, re-reading ``rows[i]`` and ``alpha[i]`` in the update, and with
no record of the largest dual variable. It stays here, unoptimized, so
that differential tests can check that the solver still computes the same
floats in the same order.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

from arasent.classifier import TOL, LabeledVector, TrainConfig
from arasent.features import N_SLOTS


def train(data: Sequence[LabeledVector],
          config: TrainConfig) -> tuple[tuple[float, ...], float, int, float]:
    """``(weights, bias, passes, gap)`` of the fit; ``data`` holds both labels."""
    factors = [0.0] * (N_SLOTS + 1)
    for lv in data:
        for slot, value in enumerate(lv.vector, 1):
            factors[slot] = max(factors[slot], abs(value))
    factors = [f if config.scale and f > 0 else 1.0 for f in factors]
    rows = [[(0, float(lv.label))]
            + [(s, lv.label * v / factors[s]) for s, v in enumerate(lv.vector, 1) if v]
            for lv in data]

    c = 1.0 / (config.regularization * len(rows))
    q = [math.fsum(x * x for _, x in row) for row in rows]
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

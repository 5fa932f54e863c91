"""Corpus handling, train/dev/test splitting, classification metrics and
Cohen's kappa inter-annotator agreement.

Corpus files are UTF-8 JSON lines, one topic per line with fields ``id``,
``text`` and optional ``label`` (PO or NG) and ``genre``. With three or
more raters, agreement is reported as the mean of all pairwise Cohen
kappas.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from .errors import ArasentError
from .fileio import atomic_write, read_lines
from .lexicon import Polarity

GENRES = ("tweet", "hotel", "product", "tv")


class Topic(NamedTuple):
    id: str
    text: str
    label: Polarity | None = None
    genre: str | None = None


def load_corpus(path) -> list[Topic]:
    """Read a JSON-lines corpus; topic ids must be unique."""
    topics: list[Topic] = []
    seen: set[str] = set()
    with read_lines(path) as lines:
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"bad JSON: {exc.msg}") from None
            except RecursionError:
                raise ValueError("bad JSON: nested too deeply") from None
            if not isinstance(record, dict) or "id" not in record or "text" not in record:
                raise ValueError("record needs 'id' and 'text' fields")
            for key in ("id", "text", "genre"):
                value = record.get(key)
                if key == "genre" and value is None:
                    continue
                if not isinstance(value, str):
                    raise ValueError(f"{key!r} must be a string, got {type(value).__name__}")
                try:
                    value.encode("utf-8")  # a JSON escape can give a lone surrogate
                except UnicodeEncodeError:
                    raise ValueError(f"{key!r} is not valid utf-8 text") from None
            topic_id = record["id"]
            if topic_id in seen:
                raise ValueError(f"duplicate topic id {topic_id!r}")
            seen.add(topic_id)
            label = None
            if record.get("label") is not None:
                try:
                    label = Polarity(record["label"])
                except ValueError:
                    raise ValueError(
                        f"label must be PO or NG, got {record['label']!r}") from None
                if label is Polarity.NU:
                    raise ValueError("topic labels are PO or NG only")
            topics.append(Topic(topic_id, record["text"], label, record.get("genre")))
    return topics


def save_corpus(topics: Iterable[Topic], path) -> None:
    with atomic_write(path) as fh:
        for t in topics:
            record = {"id": t.id, "text": t.text}
            if t.label is not None:
                record["label"] = t.label.value
            if t.genre is not None:
                record["genre"] = t.genre
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


class SplitSpec(NamedTuple):
    train_frac: float = 0.8
    dev_frac: float = 0.1
    test_frac: float = 0.1
    seed: int = 42

    def validate(self) -> None:
        fracs = (self.train_frac, self.dev_frac, self.test_frac)
        if not all(f > 0 for f in fracs):  # also rejects NaN
            raise ArasentError(f"fractions must be positive: {fracs}")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ArasentError(f"fractions must sum to 1: {fracs}")


def _split_sizes(n: int, spec: SplitSpec) -> tuple[int, int, int]:
    # floor each fraction, then hand the remainder out in declaration order
    sizes = [int(n * spec.train_frac), int(n * spec.dev_frac), int(n * spec.test_frac)]
    i = 0
    while sum(sizes) < n:
        sizes[i % 3] += 1
        i += 1
    return tuple(sizes)


def split_corpus(corpus: Sequence[Topic], spec: SplitSpec,
                 stratify: bool = True,
                 ) -> tuple[list[Topic], list[Topic], list[Topic]]:
    """Seeded shuffle then exact slicing; every topic lands in one split.

    With stratification (the default) the slicing happens per genre, so the
    test set mirrors the corpus genre proportions.
    """
    spec.validate()
    rng = random.Random(spec.seed)
    if stratify:
        groups: dict[str | None, list[Topic]] = {}
        for t in corpus:
            groups.setdefault(t.genre, []).append(t)
    else:
        groups = {None: list(corpus)}
    train: list[Topic] = []
    dev: list[Topic] = []
    test: list[Topic] = []
    for _, topics in groups.items():
        topics = list(topics)
        rng.shuffle(topics)
        n_train, n_dev, _ = _split_sizes(len(topics), spec)
        train.extend(topics[:n_train])
        dev.extend(topics[n_train:n_train + n_dev])
        test.extend(topics[n_train + n_dev:])
    return train, dev, test


class ConfusionCounts(NamedTuple):
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Polarity, Polarity]],
                   positive: Polarity = Polarity.PO) -> "ConfusionCounts":
        """Build counts from (gold, predicted) label pairs."""
        tp = fp = fn = tn = 0
        for gold, pred in pairs:
            if pred is positive:
                if gold is positive:
                    tp += 1
                else:
                    fp += 1
            else:
                if gold is positive:
                    fn += 1
                else:
                    tn += 1
        return cls(tp, fp, fn, tn)


def accuracy(c: ConfusionCounts) -> float | None:
    if c.total == 0:
        return None
    return (c.tp + c.tn) / c.total


def precision(c: ConfusionCounts) -> float | None:
    if c.tp + c.fp == 0:
        return None
    return c.tp / (c.tp + c.fp)


def recall(c: ConfusionCounts) -> float | None:
    if c.tp + c.fn == 0:
        return None
    return c.tp / (c.tp + c.fn)


def f_measure(p: float, r: float) -> float | None:
    """Harmonic mean 2pr/(p+r); None when p + r is 0."""
    if p + r == 0:
        return None
    return 2 * p * r / (p + r)


def _pairwise_kappa(a: Sequence, b: Sequence) -> Fraction:
    from fractions import Fraction

    n = len(a)
    agree = sum(1 for x, y in zip(a, b) if x == y)
    po = Fraction(agree, n)
    counts_a = Counter(a)
    counts_b = Counter(b)
    pe = sum((Fraction(counts_a[label], n) * Fraction(counts_b.get(label, 0), n)
              for label in counts_a), start=Fraction(0))
    if pe == 1:
        # both raters constant and identical; full agreement by convention
        return Fraction(1)
    return (po - pe) / (1 - pe)


def cohen_kappa(ratings: Sequence[Sequence]) -> float:
    """Chance-corrected agreement over per-item label tuples.

    Two raters give Cohen's kappa; more raters give the mean of all
    pairwise kappas. Computed with exact rational arithmetic, so e.g. a
    0.4 comes out as exactly 0.4.
    """
    from fractions import Fraction

    items = [tuple(row) for row in ratings]
    if not items:
        raise ArasentError("no rated items")
    k = len(items[0])
    if k < 2:
        raise ArasentError(f"need at least 2 raters, got {k}")
    if any(len(row) != k for row in items):
        raise ArasentError("every item needs a label from every rater")
    columns = list(zip(*items))
    pairs = list(combinations(range(k), 2))
    total = sum((_pairwise_kappa(columns[i], columns[j]) for i, j in pairs),
                start=Fraction(0))
    return float(total / len(pairs))


def load_ratings(path) -> list[tuple[str, ...]]:
    """TSV ratings file: one item per line, one column per rater."""
    items: list[tuple[str, ...]] = []
    with read_lines(path) as lines:
        for line in lines:
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            labels = tuple(part.strip() for part in line.split("\t"))
            if any(not label for label in labels):
                raise ValueError("empty rating column")
            items.append(labels)
    return items


def genre_report(topics: Sequence[Topic],
                 predictions: Sequence[Polarity]) -> list[dict]:
    """Accuracy/precision/recall/F rows per genre plus a Total row.

    Metrics with a zero denominator are reported as None (absent).
    """
    if len(topics) != len(predictions):
        raise ValueError("one prediction per topic required")
    by_genre: dict[str, list[tuple[Polarity, Polarity]]] = {}
    all_pairs: list[tuple[Polarity, Polarity]] = []
    for topic, pred in zip(topics, predictions):
        if topic.label is None:
            continue
        pair = (topic.label, pred)
        all_pairs.append(pair)
        by_genre.setdefault(topic.genre or "unlabeled", []).append(pair)

    def row(name: str, pairs: list[tuple[Polarity, Polarity]]) -> dict:
        c = ConfusionCounts.from_pairs(pairs)
        p, r = precision(c), recall(c)
        f = None if p is None or r is None else f_measure(p, r)
        return {"data": name, "count": len(pairs), "accuracy": accuracy(c),
                "precision": p, "recall": r, "f_measure": f}

    rows = [row(genre, pairs) for genre, pairs in by_genre.items()]
    rows.append(row("Total", all_pairs))
    return rows


def format_report(rows: Sequence[dict]) -> str:
    """Fixed-width text table with percentages, one row per genre."""
    header = f"{'Data':<12} {'N':>5} {'Accuracy':>11} {'Precision':>11} {'Recall':>11} {'F-Measure':>11}"
    lines = [header, "-" * len(header)]
    for r in rows:
        cells = []
        for key in ("accuracy", "precision", "recall", "f_measure"):
            value = r[key]
            cells.append("-" if value is None else f"{100 * value:.4f}%")
        lines.append(f"{r['data']:<12} {r['count']:>5} "
                     f"{cells[0]:>11} {cells[1]:>11} {cells[2]:>11} {cells[3]:>11}")
    return "\n".join(lines)

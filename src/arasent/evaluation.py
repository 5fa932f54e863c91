"""Corpus handling, train/dev/test splitting, classification metrics and
Cohen's kappa inter-annotator agreement.

Corpus files are UTF-8 JSON lines, one topic per line with fields ``id``,
``text`` and optional ``label`` (PO or NG) and ``genre``. With three or
more raters, agreement is reported as the mean of all pairwise Cohen
kappas. Its labels come from ``arasent.schema``, not the lexicon.
"""

from __future__ import annotations

import json
import random
from collections import Counter, defaultdict
from itertools import combinations
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .errors import ArasentError
from .fileio import atomic_write, read_data, read_rows
from .schema import Polarity

if TYPE_CHECKING:  # fractions loads only where kappa is computed
    from fractions import Fraction


class Topic(NamedTuple):
    id: str
    text: str
    label: Polarity | None = None
    genre: str | None = None


_GOLD_LABELS = {"PO": Polarity.PO, "NG": Polarity.NG}
# the rows of the evaluate report that no genre names: all topics, and those
# without a genre
_TOTAL, _NO_GENRE = "Total", "unlabeled"


def _topic(record, seen: set[str], escaped: bool = True) -> Topic:
    """The topic of one corpus record, its id added to ``seen``; a record
    that ``load_corpus`` refuses, a repeated id included, is a ValueError.
    With ``escaped`` false the strings are known to hold no control
    character or surrogate, and are not searched for one."""
    if not isinstance(record, dict) or "id" not in record or "text" not in record:
        raise ValueError("record needs 'id' and 'text' fields")
    for key in ("id", "text", "genre"):
        value = record.get(key)
        if key == "genre" and value is None:
            continue
        if not isinstance(value, str):
            raise ValueError(f"{key!r} must be a string, got {type(value).__name__}")
        if escaped:
            try:
                value.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError(f"{key!r} is not valid utf-8 text") from None
            # an id is one field of the rows that extract, predict and score
            # write, and a genre names one row of the evaluate report; cleaning
            # either could merge two of them
            if key != "text" and ("\r" in value or "\n" in value or key == "id" and "\t" in value):
                breaks = "a tab or a line break" if key == "id" else "a line break"
                raise ValueError(f"{key} {value!r} holds {breaks}")
    genre = record.get("genre")
    if genre in ("", _TOTAL, _NO_GENRE):  # genre_report would file "" under unlabeled
        raise ValueError(f"genre {genre!r} names a row the report writes itself")
    topic_id = record["id"]
    if topic_id in seen:
        raise ValueError(f"duplicate topic id {topic_id!r}")
    seen.add(topic_id)
    raw = record.get("label")
    label = None
    if raw is not None:
        label = _GOLD_LABELS.get(raw) if isinstance(raw, str) else None
        if label is None:
            if raw == "NU":
                raise ValueError("topic labels are PO or NG only")
            raise ValueError(f"label must be PO or NG, got {raw!r}")
    return Topic(topic_id, record["text"], label, genre)


def load_corpus(path) -> list[Topic]:
    """Read a JSON-lines corpus; topic ids must be unique and hold no tab, CR
    or LF, and a genre holds no CR or LF and is neither empty, ``Total`` nor
    ``unlabeled``, the rows that ``genre_report`` writes itself."""
    topics: list[Topic] = []
    seen: set[str] = set()
    with read_data(path) as lines:
        for line in lines:
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"bad JSON: {exc.msg}") from None
            except RecursionError:
                raise ValueError("bad JSON: nested too deeply") from None
            # read_lines refused undecodable bytes and json.loads refuses raw
            # control characters in a string, so only a JSON escape, and so a
            # line with a backslash, can give a lone surrogate, a tab or a
            # line break
            topics.append(_topic(record, seen, escaped="\\" in line))
    return topics


def save_corpus(topics: Iterable[Topic], path) -> None:
    """Write a JSON-lines corpus that ``load_corpus`` reads back equal. A topic
    list it would refuse (a repeated id, an NU label, a lone surrogate, an id
    or genre with a line break, an empty or reserved genre) is a ValueError,
    and no file is written."""
    seen: set[str] = set()
    with atomic_write(path) as fh:
        for t in topics:
            record = {"id": t.id, "text": t.text}
            if t.label is not None:
                record["label"] = t.label.value
            if t.genre is not None:
                record["genre"] = t.genre
            _topic(record, seen)
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


class SplitSpec(NamedTuple):
    train_frac: float = 0.8
    dev_frac: float = 0.1
    test_frac: float = 0.1
    seed: int = 42
    stratify: bool = True

    def validate(self) -> None:
        fracs = (self.train_frac, self.dev_frac, self.test_frac)
        if not all(f > 0 for f in fracs):  # also rejects NaN
            raise ArasentError(f"fractions must be positive: {fracs}")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ArasentError(f"fractions must sum to 1: {fracs}")
        if self.seed < 0:
            raise ArasentError(f"seed must be a non-negative integer, got {self.seed}")


def _split_sizes(n: int, spec: SplitSpec) -> tuple[int, int, int]:
    # floor each fraction, then hand the remainder out in declaration order
    sizes = [int(n * spec.train_frac), int(n * spec.dev_frac), int(n * spec.test_frac)]
    # the floors lose under 3 topics and validate's 1e-9 slack under 1 more
    # while n < 10**9, so i stays under 3
    for i in range(n - sum(sizes)):
        sizes[i] += 1
    return tuple(sizes)


def split_corpus(corpus: Sequence[Topic],
                 spec: SplitSpec) -> tuple[list[Topic], list[Topic], list[Topic]]:
    """Seeded shuffle then exact slicing; every topic lands in one split.

    With ``spec.stratify`` (the default) the slicing happens per genre, so
    the test set mirrors the corpus genre proportions.
    """
    spec.validate()
    rng = random.Random(spec.seed)
    if spec.stratify:
        groups: dict[str | None, list[Topic]] = {}
        for t in corpus:
            groups.setdefault(t.genre, []).append(t)
    else:
        groups = {None: list(corpus)}
    train: list[Topic] = []
    dev: list[Topic] = []
    test: list[Topic] = []
    for topics in groups.values():  # each a list of its own
        rng.shuffle(topics)
        n_train, n_dev, _ = _split_sizes(len(topics), spec)
        train.extend(topics[:n_train])
        dev.extend(topics[n_train:n_train + n_dev])
        test.extend(topics[n_train + n_dev:])
    return train, dev, test


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
    """TSV ratings file: one item per line, one column per rater on every line."""
    items: list[tuple[str, ...]] = []
    with read_rows(path) as rows:
        for parts in rows:
            labels = tuple(part.strip() for part in parts)
            if any(not label for label in labels):
                raise ValueError("empty rating column")
            if items and len(labels) != len(items[0]):
                raise ValueError(f"expected {len(items[0])} rater columns, got {len(labels)}")
            if len(labels) < 2:
                raise ValueError(f"need at least 2 raters, got {len(labels)}")
            items.append(labels)
    return items


def _ratio(part: int, whole: int) -> float | None:
    return part / whole if whole else None


def _row(name: str, tally: Counter) -> dict:
    """The report row of a tally of (gold, predicted) pairs. A prediction is
    right only when it equals the gold label; PO is the positive class of
    precision and recall."""
    po = Polarity.PO
    count = sum(tally.values())
    right = sum(n for (gold, pred), n in tally.items() if pred == gold)
    predicted_po = sum(n for (_, pred), n in tally.items() if pred is po)
    gold_po = sum(n for (gold, _), n in tally.items() if gold is po)
    p, r = _ratio(tally[po, po], predicted_po), _ratio(tally[po, po], gold_po)
    f = None if p is None or r is None else f_measure(p, r)
    return {"data": name, "count": count, "accuracy": _ratio(right, count),
            "precision": p, "recall": r, "f_measure": f}


def genre_report(topics: Sequence[Topic],
                 predictions: Sequence[Polarity]) -> list[dict]:
    """Accuracy/precision/recall/F rows per genre plus a Total row, over the
    labeled topics.

    Metrics with a zero denominator are reported as None (absent).
    """
    if len(topics) != len(predictions):
        raise ValueError("one prediction per topic required")
    tallies: defaultdict[str, Counter] = defaultdict(Counter)  # genre -> (gold, pred) counts
    for topic, pred in zip(topics, predictions):
        if topic.label is not None:
            tallies[topic.genre or _NO_GENRE][topic.label, pred] += 1
    rows = [_row(genre, tally) for genre, tally in tallies.items()]
    rows.append(_row(_TOTAL, sum(tallies.values(), Counter())))
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

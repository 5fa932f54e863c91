"""Span recording around arasent's module functions, and span analysis.

The recorder is installed from outside the program: every public function
of each arasent module is replaced, in every arasent namespace that holds
it, by a wrapper that appends one span (name, start, end, parent) to
in-memory arrays. Counts are taken from the arguments and return values at
the same boundaries. Spans are written once, when the traced process ends,
and analysed by the benchmark process afterwards.

A span file pair is ``<stem>.json`` (names, counts, import times) plus
``<stem>.bin`` (four int64 arrays of equal length: name index, start ns,
end ns, parent span index or -1).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from array import array
from collections import Counter
from pathlib import Path

MODULES = ("preprocess", "lexicon", "features", "classifier", "expansion",
           "evaluation", "resources", "cli")

# Methods and private helpers that carry a per-layer metric; every public
# module-level function is wrapped as well.
EXTRA = (
    ("expansion", "FixtureProvider", "fetch"),
    ("expansion", "FixtureProvider", "from_file"),
    ("expansion", None, "_append_pending"),
    ("features", "CueLists", "load"),
    ("cli", "_Pipeline", "__init__"),
)

MASKS = frozenset({"PO_Phrase", "NG_Phrase"})


def _sign(x):
    return (x > 0) - (x < 0)


def _count_scores(counts, args, kwargs, scored):
    for st in scored:
        if st.token.surface in MASKS:
            continue
        counts["features.scored_tokens"] += 1
        if st.base or st.neutral:
            counts["features.lexicon_hits"] += 1
        if st.base and _sign(st.adjusted) != _sign(st.base):
            counts["features.negation_flips"] += 1
        if abs(st.adjusted) > abs(st.base) > 0:
            counts["features.intensified"] += 1


def _count_report(counts, args, kwargs, result):
    report = result[1]
    counts["expansion.adopted"] += len(report.adopted)
    counts["expansion.cos"] += len(report.cos)
    counts["expansion.oov"] += (len(report.oov_pending) + len(report.oov_accepted)
                                + len(report.oov_rejected))


def _count_train(counts, args, kwargs, model):
    counts["classifier.updates"] += model.config.epochs * len(args[0])


COUNTERS = {
    "preprocess.split_sentences":
        lambda c, a, k, r: c.update({"preprocess.sentences": len(r)}),
    "preprocess.tokenize":
        lambda c, a, k, r: c.update({"preprocess.tokens": len(r.tokens)}),
    "preprocess.remove_stopwords":
        lambda c, a, k, r: c.update(
            {"preprocess.stopwords_dropped": len(a[0].tokens) - len(r.tokens)}),
    "features.mask_idioms":
        lambda c, a, k, r: c.update({"features.idiom_masks": sum(r[1])}),
    "features.score_tokens": _count_scores,
    "features.detect_conflict_phrases":
        lambda c, a, k, r: c.update({"features.conflicts": r[0]}),
    "classifier.train": _count_train,
    "classifier.write_svmlight":
        lambda c, a, k, r: c.update({"classifier.vectors_written": len(a[0])}),
    "classifier.read_svmlight":
        lambda c, a, k, r: c.update({"classifier.vectors_read": len(r)}),
    "evaluation.load_corpus":
        lambda c, a, k, r: c.update({"evaluation.topics": len(r)}),
    "expansion.expand_lexicon": _count_report,
}


class Tracer:
    """In-memory span store for one single-threaded process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        count = COUNTERS.get(name)
        name_ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        stack, counts, clock = self._stack, self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    def install(self, package="arasent"):
        """Wrap the package's functions in every namespace that refers to them."""
        modules = {short: importlib.import_module(f"{package}.{short}")
                   for short in MODULES}
        wrapped = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[obj] = self.wrap(f"{short}.{attr}", obj)
        for short, cls_name, attr in EXTRA:
            owner = getattr(modules[short], cls_name) if cls_name else modules[short]
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                name = f"{short}.{cls_name}.{attr}"
                setattr(owner, attr, classmethod(self.wrap(name, raw.__func__)))
            elif cls_name:
                setattr(owner, attr, self.wrap(f"{short}.{cls_name}.{attr}", raw))
            else:
                wrapped[raw] = self.wrap(f"{short}.{attr}", raw)
        for ns in [importlib.import_module(package), *modules.values()]:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(ns, attr, wrapped[obj])

    def write(self, stem, extra: dict):
        stem = Path(stem)
        header = {"names": self.names, "counts": dict(self.counts),
                  "n": len(self.starts), **extra}
        stem.with_suffix(".json").write_text(json.dumps(header), encoding="utf-8")
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for arr in (self.name_ids, self.starts, self.ends, self.parents):
                arr.tofile(fh)


class CallProfile:
    """Per-name totals over the spans of one traced call.

    ``self_ns`` is each span's duration minus the time its child spans
    cover (children of one span never overlap: the process has one thread).
    """

    def __init__(self, stem):
        stem = Path(stem)
        header = json.loads(stem.with_suffix(".json").read_text(encoding="utf-8"))
        n = header["n"]
        arrays = []
        with open(stem.with_suffix(".bin"), "rb") as fh:
            for _ in range(4):
                arr = array("q")
                arr.fromfile(fh, n)
                arrays.append(arr)
        name_ids, starts, ends, parents = arrays
        names = header["names"]
        child_ns = [0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child_ns[p] += ends[i] - starts[i]
        self.calls: Counter = Counter()
        self.incl_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.root_ns = 0
        self.grid_fits = 0
        grid = names.index("classifier.grid_search") if "classifier.grid_search" in names else -1
        train = names.index("classifier.train") if "classifier.train" in names else -1
        for i in range(n):
            name = names[name_ids[i]]
            dur = ends[i] - starts[i]
            self.calls[name] += 1
            self.incl_ns[name] += dur
            self.self_ns[name] += dur - child_ns[i]
            p = parents[i]
            if p < 0:
                self.root_ns += dur
            elif name_ids[i] == train and name_ids[p] == grid:
                self.grid_fits += 1
        self.counts: Counter = Counter(header["counts"])
        self.import_ns = header["import_ns"]
        self.import_numpy_ns = header["import_numpy_ns"]


def _layer(name: str) -> str:
    layer = name.split(".", 1)[0]
    return "cli" if layer == "resources" else layer


def layer_metrics(profiles, traced_walls, untraced_walls) -> dict:
    """Per-layer metrics from the call profiles of the traced passes.

    ``traced_walls`` and ``untraced_walls`` are pass wall times in seconds,
    measured from outside the process. ``us_per_topic`` is self time per
    topic read by the pass's corpus loads; ``.ms`` is inclusive time per
    call; counts are per pass.
    """
    calls, incl, self_ns, counts = Counter(), Counter(), Counter(), Counter()
    root_ns = import_ns = numpy_ns = grid_fits = 0
    for p in profiles:
        calls.update(p.calls)
        incl.update(p.incl_ns)
        self_ns.update(p.self_ns)
        counts.update(p.counts)
        root_ns += p.root_ns
        import_ns += p.import_ns
        numpy_ns += p.import_numpy_ns
        grid_fits += p.grid_fits
    passes = len(traced_walls)
    wall_ns = sum(traced_walls) * 1e9
    topics = counts["evaluation.topics"]

    def ratio(a, b):
        return a / b if b else 0.0

    def per_topic(*names):
        return ratio(sum(self_ns[n] for n in names) / 1e3, topics)

    def ms_per_call(name):
        return ratio(incl[name] / 1e6, calls[name])

    layer_self = Counter()
    for name, ns in self_ns.items():
        layer_self[_layer(name)] += ns

    def frac(layer):
        return layer_self[layer] / wall_ns

    fetch = "expansion.FixtureProvider.fetch"
    us, ms, n, f = "us", "ms", "count", "fraction"
    m = {
        "preprocess.normalize_text.us_per_topic": (per_topic("preprocess.normalize_text"), us),
        "preprocess.split_tokenize.us_per_topic":
            (per_topic("preprocess.split_sentences", "preprocess.tokenize"), us),
        "preprocess.remove_stopwords.us_per_topic": (per_topic("preprocess.remove_stopwords"), us),
        "preprocess.pos_tag.us_per_topic": (per_topic("preprocess.pos_tag"), us),
        "preprocess.sentences": (counts["preprocess.sentences"] / passes, n),
        "preprocess.tokens": (counts["preprocess.tokens"] / passes, n),
        "preprocess.stopwords_dropped": (counts["preprocess.stopwords_dropped"] / passes, n),
        "preprocess.self_frac": (frac("preprocess"), f),
    }
    for fn in ("mask_idioms", "score_tokens", "detect_conflict_phrases", "analyze_topic",
               "extract_features", "lexicon_rule_score"):
        m[f"features.{fn}.us_per_topic"] = (per_topic(f"features.{fn}"), us)
    m.update({
        "features.idiom_masks": (counts["features.idiom_masks"] / passes, n),
        "features.negation_flips": (counts["features.negation_flips"] / passes, n),
        "features.intensified": (counts["features.intensified"] / passes, n),
        "features.conflicts": (counts["features.conflicts"] / passes, n),
        "features.lexicon_hit_ratio":
            (ratio(counts["features.lexicon_hits"], counts["features.scored_tokens"]), f),
        "features.self_frac": (frac("features"), f),
        "classifier.train.ms": (ms_per_call("classifier.train"), ms),
        "classifier.train.us_per_update":
            (ratio(incl["classifier.train"] / 1e3, counts["classifier.updates"]), us),
        "classifier.train.frac": (incl["classifier.train"] / wall_ns, f),
        "classifier.grid_search.fits": (grid_fits / passes, n),
        "classifier.predict.us_per_vector":
            (ratio(self_ns["classifier.predict"] / 1e3, calls["classifier.predict"]), us),
        "classifier.write_svmlight.us_per_vector":
            (ratio(incl["classifier.write_svmlight"] / 1e3,
                   counts["classifier.vectors_written"]), us),
        "classifier.read_svmlight.us_per_vector":
            (ratio(incl["classifier.read_svmlight"] / 1e3, counts["classifier.vectors_read"]), us),
        "classifier.save_model.ms": (ms_per_call("classifier.save_model"), ms),
        "classifier.load_model.ms": (ms_per_call("classifier.load_model"), ms),
        "classifier.self_frac": (frac("classifier"), f),
        "expansion.filter_candidates.us_per_topic":
            (per_topic("expansion.filter_candidates"), us),
        "expansion.fetch.us_per_call": (ratio(incl[fetch] / 1e3, calls[fetch]), us),
        "expansion.detect_orientation.us_per_candidate":
            (ratio(incl["expansion.detect_orientation"] / 1e3,
                   calls["expansion.detect_orientation"]), us),
        "expansion.candidates": (calls[fetch] / passes, n),
        "expansion.adopted": (counts["expansion.adopted"] / passes, n),
        "expansion.cos": (counts["expansion.cos"] / passes, n),
        "expansion.oov": (counts["expansion.oov"] / passes, n),
        "expansion.pending_writes": (calls["expansion._append_pending"] / passes, n),
        "expansion.adopt_ratio": (ratio(counts["expansion.adopted"], calls[fetch]), f),
        "expansion.self_frac": (frac("expansion"), f),
        "lexicon.load.ms": (ms_per_call("lexicon.load_sentiment_lexicon"), ms),
        "lexicon.save.ms": (ms_per_call("lexicon.save_sentiment_lexicon"), ms),
        "lexicon.count_corpus_tokens.us_per_topic": (per_topic("lexicon.count_corpus_tokens"), us),
        "lexicon.self_frac": (frac("lexicon"), f),
        "evaluation.load_corpus.us_per_topic": (per_topic("evaluation.load_corpus"), us),
        "evaluation.split_corpus.ms": (ms_per_call("evaluation.split_corpus"), ms),
        "evaluation.genre_report.ms": (ms_per_call("evaluation.genre_report"), ms),
        "evaluation.self_frac": (frac("evaluation"), f),
        "cli.import.ms": (ratio(import_ns / 1e6, len(profiles)), ms),
        "cli.import_numpy.ms": (ratio(numpy_ns / 1e6, len(profiles)), ms),
        "cli.resources.ms": (ms_per_call("cli._Pipeline.__init__"), ms),
        "cli.self_frac": (frac("cli"), f),
        "trace.unspanned_frac": ((wall_ns - root_ns) / wall_ns, f),
        "trace.overhead_frac":
            (statistics.median(traced_walls) / statistics.median(untraced_walls) - 1, f),
    })
    return m

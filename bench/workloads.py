"""Seeded inputs, CLI call plans and output checks for the three workloads.

Every input is generated from the workload seed; the program only ever
sees these generated files (plus its packaged resources). Each workload
lists its untimed set-up calls, the calls of one timed pass, and the calls
that measure set-up cost on an empty corpus.

- ``featurize-bulk``: extract, predict and score over a large corpus, so
  ``preprocess`` and ``features`` do most of the work.
- ``train-grid``: evaluate --grid, evaluate and train on a small corpus, so
  SGD training in ``classifier`` does most of the work.
- ``expand-vocab``: expand over a generated vocabulary whose expansion
  outcomes are known by construction, with a large prevent list.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import statistics
from collections import Counter
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path
from typing import Callable

from arasent import synthetic
from arasent.classifier import load_model, read_svmlight
from arasent.evaluation import Topic
from arasent.lexicon import Polarity, load_sentiment_lexicon

SIZES = {
    "full": {"bulk_topics": 4000, "model_topics": 1000, "grid_topics": 500,
             "expand_topics": 4000, "prevent_words": 4000, "candidates": 600},
    "quick": {"bulk_topics": 400, "model_topics": 200, "grid_topics": 200,
              "expand_topics": 400, "prevent_words": 400, "candidates": 60},
}

# Share of topics that are multi-sentence reviews; the rest are
# tweet-length topics exactly as synthetic.sample_corpus makes them.
REVIEW_SHARE = 0.2
REVIEW_SENTENCES = (3, 6)


class CheckFailed(Exception):
    """An output of a CLI call is not what its inputs require."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class Call:
    """One arasent CLI invocation and what it must produce."""

    role: str
    argv: list[str]
    stdout: Path
    stderr: Path
    topics: int = 0                      # topics (or vectors) the call reads
    expect_rc: int = 0
    check: Callable[["Call"], dict] | None = None   # returns measured values
    outputs: dict[str, Path] = field(default_factory=dict)  # digested files
    prepare: Callable[[], None] | None = None        # untimed, before the call


# --- corpus generation ------------------------------------------------------

def make_corpus(tag: str, seed: int, n: int, review_share: float) -> list[Topic]:
    """``n`` topics from synthetic.sample_corpus over seeds derived from
    ``seed``; a ``review_share`` of them join 3-6 same-genre, same-label
    topics into one multi-sentence review. Ids are unique.
    """
    seeds = random.Random(f"{tag}:{seed}:seeds")
    mix = random.Random(f"{tag}:{seed}:mix")

    def stream():
        for batch in count():
            for t in synthetic.sample_corpus(seeds.getrandbits(32)):
                yield Topic(f"{batch:03d}-{t.id}", t.text, t.label, t.genre)

    base = stream()
    n_reviews = round(n * review_share)
    topics = [next(base) for _ in range(n - n_reviews)]
    open_reviews: dict[tuple, tuple[int, list[Topic]]] = {}
    reviews = []
    while len(reviews) < n_reviews:
        t = next(base)
        key = (t.genre, t.label)
        want, parts = open_reviews.setdefault(key, (mix.randint(*REVIEW_SENTENCES), []))
        parts.append(t)
        if len(parts) == want:
            del open_reviews[key]
            text = ". ".join(p.text for p in parts)
            reviews.append(Topic(f"review-{len(reviews):05d}", text, t.label, t.genre))
    topics += reviews
    mix.shuffle(topics)
    return topics


def write_corpus(topics, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for t in topics:
            record = {"id": t.id, "text": t.text}
            if t.label is not None:
                record["label"] = t.label.value
            if t.genre is not None:
                record["genre"] = t.genre
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def corpus_stats(topics) -> dict:
    lengths = [len(t.text.split()) for t in topics]
    multi = sum(1 for t in topics if t.id.startswith("review-"))
    return {"topics": len(topics),
            "tokens_per_topic_quartiles": statistics.quantiles(lengths, n=4),
            "multi_sentence_share": multi / len(topics)}


def _lines(path) -> list[str]:
    return Path(path).read_text(encoding="utf-8").splitlines()


# --- workloads ----------------------------------------------------------------

class Workload:
    name = ""
    per_call = "seconds"        # or "throughput": how each call's time is reported
    accuracy = ("", "")         # (call role, measure) behind label_accuracy

    def __init__(self, work: Path, seed: int, sizes: dict):
        self.work = work
        self.seed = seed
        self.sizes = sizes
        self.inputs = work / "inputs"
        self.out = work / "out"

    def call(self, role, argv, **kw) -> Call:
        return Call(role, [str(a) for a in argv], self.out / f"{role}.stdout",
                    self.out / f"{role}.stderr", **kw)

    def generate(self, directory: Path) -> dict:
        """Write every input into ``directory``; return their properties."""
        raise NotImplementedError

    def setup(self) -> list[Call]:
        return []

    def pass_calls(self) -> list[Call]:
        raise NotImplementedError

    def setup_calls(self) -> list[Call]:
        raise NotImplementedError

    def check_svmlight(self, path, topics):
        def check(call: Call) -> dict:
            lines = _lines(path)
            require(len(lines) == len(topics) + 1,
                    f"{path.name}: {len(lines)} lines for {len(topics)} topics")
            data = read_svmlight(path)
            require([lv.comment for lv in data] == [t.id for t in topics],
                    f"{path.name}: vector ids differ from corpus ids")
            require([lv.label for lv in data]
                    == [1 if t.label is Polarity.PO else -1 for t in topics],
                    f"{path.name}: labels differ from gold")
            return {}
        return check


class FeaturizeBulk(Workload):
    name = "featurize-bulk"
    per_call = "throughput"
    accuracy = ("predict", "gold_accuracy")

    def generate(self, directory):
        self.topics = make_corpus(self.name, self.seed, self.sizes["bulk_topics"],
                                  REVIEW_SHARE)
        self.model_topics = make_corpus(f"{self.name}-model", self.seed,
                                        self.sizes["model_topics"], REVIEW_SHARE)
        write_corpus(self.topics, directory / "bulk.jsonl")
        write_corpus(self.model_topics, directory / "model.jsonl")
        (directory / "empty.jsonl").write_text("", encoding="utf-8")
        return {"bulk": corpus_stats(self.topics),
                "model_corpus": corpus_stats(self.model_topics)}

    def setup(self):
        svm = self.out / "model.svm"
        return [
            self.call("extract-model", ["extract", "--corpus", self.inputs / "model.jsonl",
                                        "--out", svm],
                      check=self.check_svmlight(svm, self.model_topics)),
            self.call("train-model", ["train", "--features", svm,
                                      "--model", self.inputs / "model.txt"]),
        ]

    def pass_calls(self):
        bulk, n = self.inputs / "bulk.jsonl", len(self.topics)
        svm, predicted = self.out / "bulk.svm", self.out / "predict.tsv"
        extract = self.call("extract", ["extract", "--corpus", bulk, "--out", svm],
                            topics=n, check=self.check_svmlight(svm, self.topics),
                            outputs={"svmlight": svm})
        predict = self.call("predict", ["predict", "--model", self.inputs / "model.txt",
                                        "--corpus", bulk, "--out", predicted],
                            topics=n, check=self.check_predict,
                            outputs={"predict": predicted})
        score = self.call("score", ["score", "--corpus", bulk], topics=n,
                          check=self.check_score)
        score.outputs["score"] = score.stdout
        return [extract, predict, score]

    def setup_calls(self):
        empty, scratch = self.inputs / "empty.jsonl", self.out / "empty"
        return [
            self.call("setup-extract", ["extract", "--corpus", empty, "--out", scratch]),
            self.call("setup-predict", ["predict", "--model", self.inputs / "model.txt",
                                        "--corpus", empty, "--out", scratch]),
            self.call("setup-score", ["score", "--corpus", empty]),
        ]

    def _agreement(self, path, label_column):
        rows = [line.split("\t") for line in _lines(path)]
        require(len(rows) == len(self.topics),
                f"{path.name}: {len(rows)} lines for {len(self.topics)} topics")
        require([r[0] for r in rows] == [t.id for t in self.topics],
                f"{path.name}: ids differ from corpus ids")
        labels = [r[label_column] for r in rows]
        require(set(labels) <= {"PO", "NG", "NU"}, f"{path.name}: unknown label")
        hits = sum(1 for label, t in zip(labels, self.topics) if label == t.label.value)
        return hits / len(rows)

    def check_predict(self, call):
        return {"gold_accuracy": self._agreement(call.outputs["predict"], 1)}

    def check_score(self, call):
        return {"rule_agreement": self._agreement(call.stdout, 2)}


class TrainGrid(Workload):
    name = "train-grid"
    accuracy = ("evaluate", "gold_accuracy")

    def generate(self, directory):
        self.topics = make_corpus(self.name, self.seed, self.sizes["grid_topics"],
                                  REVIEW_SHARE)
        write_corpus(self.topics, directory / "grid.jsonl")
        (directory / "empty.jsonl").write_text("", encoding="utf-8")
        return {"grid": corpus_stats(self.topics)}

    def setup(self):
        svm = self.inputs / "grid.svm"
        return [self.call("extract", ["extract", "--corpus", self.inputs / "grid.jsonl",
                                      "--out", svm],
                          check=self.check_svmlight(svm, self.topics))]

    def pass_calls(self):
        grid, n = self.inputs / "grid.jsonl", len(self.topics)
        model = self.out / "model.txt"
        calls = [
            self.call("evaluate-grid", ["evaluate", "--grid", "--json", "--corpus", grid],
                      topics=n, check=self.check_report),
            self.call("evaluate", ["evaluate", "--json", "--corpus", grid],
                      topics=n, check=self.check_report),
            self.call("train", ["train", "--features", self.inputs / "grid.svm",
                                "--model", model],
                      topics=n, check=self.check_model, outputs={"model": model}),
        ]
        for c in calls[:2]:
            c.outputs["evaluate"] = c.stdout
        return calls

    def setup_calls(self):
        # An empty corpus leaves no training vectors: evaluate loads every
        # resource, then exits 2 with a one-line error.
        empty = self.inputs / "empty.jsonl"
        return [self.call("setup-evaluate", ["evaluate", "--json", "--corpus", empty],
                          expect_rc=2),
                self.call("setup-evaluate-grid",
                          ["evaluate", "--grid", "--json", "--corpus", empty],
                          expect_rc=2)]

    def check_report(self, call):
        text = call.stdout.read_text(encoding="utf-8")
        grid = "--grid" in call.argv
        if grid:
            head, _, text = text.partition("\n")
            require(head.startswith("grid pick:"), f"{call.role}: no grid pick line")
        rows = json.loads(text)
        total = rows[-1]
        require(total["data"] == "Total", f"{call.role}: last row is not Total")
        require(total["count"] == sum(r["count"] for r in rows[:-1]) > 0,
                f"{call.role}: genre counts do not add up to the total")
        return {"grid_gold_accuracy" if grid else "gold_accuracy": total["accuracy"]}

    def check_model(self, call):
        require(_lines(call.stdout)[0].startswith(f"trained on {len(self.topics)} "),
                f"{call.role}: unexpected stdout")
        load_model(call.outputs["model"])
        return {}


# Letters that normalize_text leaves unchanged; generated words use only these.
LETTERS = "ابتثجحخدذرزسشصضطظعغفقكلمنهوي"
CANDIDATE_TAGS = ("JJ", "NN", "VB")
PO, NG, NU = Polarity.PO, Polarity.NG, Polarity.NU
# Fixed shares of candidate outcomes; each is known by construction.
ADOPT_SHARE, COS_SHARE = 0.5, 0.25


class ExpandVocab(Workload):
    name = "expand-vocab"
    accuracy = ("expand", "adopt_polarity_accuracy")

    def generate(self, directory):
        rng = random.Random(f"{self.name}:{self.seed}")
        seed_words = {w: (p, tag) for w, p, tag, _, _ in synthetic.VOCAB}
        taken = set(seed_words) | set(synthetic.heldout_words()) | set(synthetic.STOPWORDS)
        for phrase, _, _ in synthetic.IDIOMS:
            taken.update(phrase.split())
        taken.update(synthetic.NEGATORS + synthetic.INTENSIFIERS + synthetic.QUESTIONS
                     + synthetic.WISHFUL + list(synthetic.EXTRA_TAGGED))

        def fresh_words(n):
            out = []
            while len(out) < n:
                w = "".join(rng.choice(LETTERS) for _ in range(rng.randint(5, 7)))
                if w not in taken:
                    taken.add(w)
                    out.append(w)
            return out

        n_cand = self.sizes["candidates"]
        prevent = fresh_words(self.sizes["prevent_words"])
        candidates = fresh_words(n_cand)
        fillers = fresh_words(300)
        pools = {p: [w for w, (q, _) in seed_words.items() if q is p] for p in (PO, NG, NU)}

        n_adopt, n_cos = int(n_cand * ADOPT_SHARE), int(n_cand * COS_SHARE)
        outcomes = ["ADOPT"] * n_adopt + ["COS"] * n_cos + ["OOV"] * (n_cand - n_adopt - n_cos)
        rng.shuffle(outcomes)
        self.expected = {"ADOPT": {}, "COS": set(), "OOV": set()}
        rows = []
        for i, (word, outcome) in enumerate(zip(candidates, outcomes)):
            if outcome == "ADOPT":
                pol = rng.choice((PO, NG))
                syns = rng.sample(pools[pol], 3)
                ants = rng.sample(pools[pol.flipped()], 1) if i % 2 else []
                rows.append(f"{word}\tgloss {i}\t{','.join(syns)}\t{','.join(ants)}")
                self.expected["ADOPT"][word] = pol
            elif outcome == "COS":
                syns = rng.sample(pools[PO], 2) + rng.sample(pools[NG], 1)
                rng.shuffle(syns)
                rows.append(f"{word}\tgloss {i}\t{','.join(syns)}\t")
                self.expected["COS"].add(word)
            else:
                # three ways to know nothing: no row, an empty row, or
                # synonyms that are all neutral and so abstain
                if i % 3 == 1:
                    rows.append(f"{word}\t\t\t")
                elif i % 3 == 2:
                    rows.append(f"{word}\tgloss {i}\t{','.join(rng.sample(pools[NU], 2))}\t")
                self.expected["OOV"].add(word)

        topics = []
        for i in range(self.sizes["expand_topics"]):
            words = [candidates[i] if i < n_cand else rng.choice(candidates)]
            if rng.random() < 0.5:
                words.append(rng.choice(candidates))
            words += rng.sample(prevent, rng.randint(2, 3))
            words += rng.sample(list(seed_words), rng.randint(1, 2))
            words += rng.sample(fillers, rng.randint(3, 5))
            words += rng.sample(synthetic.STOPWORDS, rng.randint(1, 2))
            rng.shuffle(words)
            topics.append(Topic(f"expand-{i:05d}", " ".join(words)))
        self.n_topics = len(topics)
        self.tf = Counter(w for t in topics for w in t.text.split())
        self.prevent = set(prevent)
        self.n_seed = len(seed_words)

        with open(directory / "lexicon.tsv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write("word\tgloss\ttranslit\tpolarity\ttf\n")
            for w, p, _, gloss, translit in synthetic.VOCAB:
                fh.write(f"{w}\t{gloss}\t{translit}\t{p.value}\t0\n")
        (directory / "lexicon.prevent").write_text(
            "".join(w + "\n" for w in prevent), encoding="utf-8")
        with open(directory / "tags.tsv", "w", encoding="utf-8", newline="\n") as fh:
            for w, (_, tag) in seed_words.items():
                fh.write(f"{w}\t{tag}\n")
            for w in prevent + candidates:
                fh.write(f"{w}\t{rng.choice(CANDIDATE_TAGS)}\n")
        (directory / "synsets.tsv").write_text(
            "".join(r + "\n" for r in rows), encoding="utf-8")
        write_corpus(topics, directory / "corpus.jsonl")
        (directory / "empty.jsonl").write_text("", encoding="utf-8")
        return {"corpus": corpus_stats(topics), "prevent_list_size": len(prevent),
                "candidates": n_cand,
                "outcome_shares": {k: len(v) / n_cand for k, v in self.expected.items()}}

    def _expand(self, role, corpus, check=None, topics=0):
        run_dir = self.work / "expand"
        lexicon, pending = run_dir / "out" / "lexicon.tsv", run_dir / "out" / "pending.tsv"

        def fresh_copies():
            shutil.rmtree(run_dir, ignore_errors=True)
            shutil.copytree(self.inputs, run_dir / "in")
            (run_dir / "out").mkdir()

        argv = ["expand", "--corpus", run_dir / "in" / corpus,
                "--provider", run_dir / "in" / "synsets.tsv",
                "--lexicon", run_dir / "in" / "lexicon.tsv",
                "--tagtable", run_dir / "in" / "tags.tsv",
                "--out", lexicon, "--pending", pending]
        call = self.call(role, argv, topics=topics, prepare=fresh_copies, check=check,
                         outputs={"lexicon": lexicon, "pending": pending})
        call.outputs["report"] = call.stdout
        return call

    def pass_calls(self):
        return [self._expand("expand", "corpus.jsonl", self.check_expand, self.n_topics)]

    def setup_calls(self):
        call = self._expand("setup-expand", "empty.jsonl")
        call.outputs = {}  # an empty corpus leaves no pending file
        return [call]

    def check_expand(self, call):
        report = {}
        for line in _lines(call.stdout):
            key, sep, value = line.partition(": ")
            if sep and value.isdigit():
                report[key] = int(value)
        want = {"adopted": len(self.expected["ADOPT"]), "cos": len(self.expected["COS"]),
                "oov_pending": len(self.expected["OOV"]), "oov_accepted": 0,
                "oov_rejected": 0, "errors": 0}
        require(report == want, f"expand report {report} != by-construction {want}")
        pending = {line.split("\t")[0] for line in _lines(call.outputs["pending"])}
        require(len(_lines(call.outputs["pending"])) == len(pending) == want["oov_pending"]
                and pending == self.expected["OOV"], "pending file differs from the OOV words")
        lex = load_sentiment_lexicon(call.outputs["lexicon"])
        require(len(lex) == self.n_seed + want["adopted"], "output lexicon size")
        require(lex.prevent_list == self.prevent, "output prevent list differs from input")
        right = 0
        for word, pol in self.expected["ADOPT"].items():
            entry = lex.lookup(word)
            require(entry is not None, f"adopted word {word} missing from lexicon")
            require(entry.tf == self.tf[word], f"tf of {word}: {entry.tf} != {self.tf[word]}")
            right += entry.polarity is pol
        return {"adopt_polarity_accuracy": right / want["adopted"]}


WORKLOADS = {cls.name: cls for cls in (FeaturizeBulk, TrainGrid, ExpandVocab)}

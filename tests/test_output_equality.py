"""Byte-for-byte pins on what the CLI writes.

The extract, score and evaluate digests below were taken from the
implementation that built features through per-token ``Token``/``ScoredToken``
copies, the ``predict_labels`` digests (id and label columns only) from the
earlier, vectorised SGD trainer. The train and predict digests pin the
dual coordinate descent solver with shrinking. Dual coordinate descent
replaced fixed-epoch SGD, and shrinking, which skips the rows that sit at a
bound, replaced its passes over every row; each time the margins moved,
within the solver's stopping tolerance, but no predicted label did. Any
change to featurization, scoring or training that alters a single output
byte fails here, on the shipped corpus and on a generated multi-sentence
corpus. The expand pins cover lexicon growth on the shipped corpus and on
a small corpus that reaches every outcome.
"""

import hashlib
import json
import random
import subprocess
import sys
from itertools import count
from pathlib import Path

from child_env import child_env

from arasent import synthetic
from arasent.cli import run
from arasent.resources import data_path

SHIPPED = {
    "extract": "0af0eb083236971462d03a150758e2eb870f6d97f5e8da11043470fe96b91430",
    "train": "3d7a3c25d3149325650711aa012ccafe3836a1e6a431e4abce25d5a144a8bc15",
    "predict": "afcf9e519781d284596e8d89f65877273b6c0ec73e8675bbfba13505560e998e",
    "predict_labels": "e0a3a878cfdbb0ca0bf1b9912d7506f25654f4b397a3d1ef8c34376d124e894f",
    "score": "c66d40cbd172ee43b144a8e131ced458e21859b91198ed91240c0f14489e9107",
    "evaluate": "7ff94ed1f8ab11ce6389d05a74d6df0c93e099e1ce5b1fc9ddd396027fcec83d",
}

REVIEWS = {
    "extract": "b08e65bcede0dc6688e181466c7710f7fe209f1087d7143211f225390df096a1",
    "predict": "67a3621e31435800766e59a97419560f354076506d9266c6583f7df5e1a48852",
    "predict_labels": "cceb2e0cef80c054bc0b43b2e2784aae1d8aa75e9c9ce63902045419409c005f",
    "score": "6abffa4f3ef9d8d56d3275e084e807f93aacf82ca0c6ce2c9404cb102d63b282",
}


def review_corpus(seed: int, n: int, review_share: float = 0.2) -> list[dict]:
    """``n`` topics from ``synthetic.sample_corpus`` over derived seeds; a
    ``review_share`` of them join 3-6 same-genre, same-label topics into
    one multi-sentence review.
    """
    seeds = random.Random(f"reviews:{seed}:seeds")
    mix = random.Random(f"reviews:{seed}:mix")

    def stream():
        for batch in count():
            for t in synthetic.sample_corpus(seeds.getrandbits(32)):
                yield {"id": f"{batch:03d}-{t.id}", "text": t.text,
                       "label": t.label.value, "genre": t.genre}

    base = stream()
    n_reviews = round(n * review_share)
    topics = [next(base) for _ in range(n - n_reviews)]
    open_reviews: dict[tuple, tuple[int, list]] = {}
    reviews = []
    while len(reviews) < n_reviews:
        t = next(base)
        key = (t["genre"], t["label"])
        want, parts = open_reviews.setdefault(key, (mix.randint(3, 6), []))
        parts.append(t)
        if len(parts) == want:
            del open_reviews[key]
            reviews.append({"id": f"review-{len(reviews):05d}",
                            "text": ". ".join(p["text"] for p in parts),
                            "label": t["label"], "genre": t["genre"]})
    topics += reviews
    mix.shuffle(topics)
    return topics


def _digest(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _outputs(corpus, model, work, capsys, train=False, evaluate=False) -> dict:
    digests = {}
    svm, predicted = work / "features.svm", work / "predict.tsv"
    assert run(["extract", "--corpus", str(corpus), "--out", str(svm)]) == 0
    digests["extract"] = _digest(svm.read_bytes())
    if train:
        assert run(["train", "--features", str(svm), "--model", str(model)]) == 0
        digests["train"] = _digest(model.read_bytes())
    assert run(["predict", "--model", str(model), "--corpus", str(corpus),
                "--out", str(predicted)]) == 0
    digests["predict"] = _digest(predicted.read_bytes())
    rows = (line.split("\t")[:2] for line in predicted.read_text(encoding="utf-8").splitlines())
    digests["predict_labels"] = _digest("".join(f"{id_}\t{label}\n" for id_, label in rows))
    capsys.readouterr()
    assert run(["score", "--corpus", str(corpus)]) == 0
    digests["score"] = _digest(capsys.readouterr().out)
    if evaluate:
        assert run(["evaluate", "--json", "--corpus", str(corpus)]) == 0
        digests["evaluate"] = _digest(capsys.readouterr().out)
    return digests


def test_shipped_corpus_outputs_are_pinned(tmp_path, capsys):
    got = _outputs(data_path("corpus.jsonl"), tmp_path / "model.txt", tmp_path, capsys,
                   train=True, evaluate=True)
    assert got == SHIPPED


def test_review_corpus_outputs_are_pinned(tmp_path, capsys):
    # the model comes from the shipped corpus, as in the shipped-corpus pin
    model = tmp_path / "model.txt"
    shipped_svm = tmp_path / "shipped.svm"
    assert run(["extract", "--corpus", str(data_path("corpus.jsonl")),
                "--out", str(shipped_svm)]) == 0
    assert run(["train", "--features", str(shipped_svm), "--model", str(model)]) == 0
    corpus = tmp_path / "reviews.jsonl"
    topics = review_corpus(seed=2, n=2000)
    corpus.write_text("".join(json.dumps(t, ensure_ascii=False) + "\n" for t in topics),
                      encoding="utf-8")
    assert sum(1 for t in topics if t["id"].startswith("review-")) == 400
    assert _outputs(corpus, model, tmp_path, capsys) == REVIEWS


# expand: the grown lexicon, its .prevent sidecar, the pending file (None when
# none is written) and the report with the output path taken out; taken from
# the implementation whose lexicon readers normalized every word they were given
EXPAND = {
    "shipped": {
        "lexicon": "22a0d60873b1d82ba76667f9a6069b404b50f8f802bb2bb80b3d229d1cdc3cc3",
        "prevent": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "pending": None,  # every candidate is adopted
        "report": "d53f909c3a5b43d8cc315afc480b60ce5b84ab3a70a86aa628b6e65e2bac6f0a",
    },
    "walkthrough": {
        "lexicon": "2fcfe10347c2b4efd765574f912f158bf591eaa255ebe7b9f172936d29a50870",
        "prevent": "7e6ac1d025d5cc10fb7831fe7d8b9451a9cf80a5338c1e08fd5e17c63c05ba99",
        "pending": "686a1f960f7c4b4f3220a136cae015356ccef96dd2ae785ae5e32c08223ce0ab",
        "report": "f8a5591b16ebedb7a2afbfaa1d6f51ac8ace66ff88811629f775d05f215fd5fd",
    },
}


def _expand_digests(out, report: str) -> dict:
    pending = out.with_suffix(".pending.tsv")
    return {"lexicon": _digest(out.read_bytes()),
            "prevent": _digest(out.with_suffix(".prevent").read_bytes()),
            "pending": _digest(pending.read_bytes()) if pending.exists() else None,
            "report": _digest(report.replace(str(out), "OUT"))}


def _expand(work, capsys, *flags) -> dict:
    out = work / "grown.tsv"
    capsys.readouterr()
    assert run(["expand", "--out", str(out), *flags]) == 0
    return _expand_digests(out, capsys.readouterr().out)


def _shipped_expand_flags() -> list[str]:
    return ["--corpus", str(data_path("corpus.jsonl")),
            "--provider", str(data_path("synsets.tsv")),
            "--lexicon", str(data_path("lexicon_seed.tsv"))]


def test_shipped_expand_outputs_are_pinned(tmp_path, capsys):
    assert _expand(tmp_path, capsys, *_shipped_expand_flags()) == EXPAND["shipped"]


def test_shipped_expand_in_a_new_process_is_pinned(tmp_path):
    """``expand`` imports the expansion module only when it runs."""
    out = tmp_path / "grown.tsv"
    done = subprocess.run([sys.executable, "-m", "arasent.cli", "expand", "--out", str(out),
                           *_shipped_expand_flags()], capture_output=True, text=True,
                          env=child_env(), timeout=120, check=True)
    assert _expand_digests(out, done.stdout) == EXPAND["shipped"]


def test_walkthrough_expand_outputs_are_pinned(tmp_path, capsys):
    """Candidates that adopt (one by synonyms, one by antonyms), conflict and
    go to pending, read from files that hold words in un-normalized forms."""
    files = {
        "lexicon.tsv": "word\tgloss\ttranslit\tpolarity\ttf\n"
                       "فَرْحان\tPleased\t\tPO\t0\nسعيد\tHappy\t\tPO\t0\nمُبتهج\tGlad\t\tPO\t0\n"
                       "قوي\tstrong\t\tPO\t0\nعنيـف\tviolent\t\tNG\t0\nحادّ\tkeen\t\tPO\t0\n"
                       "جميل\t\t\tPO\t0\nرائع\t\t\tPO\t0\nعادى\t\t\tNU\t0\n",
        "lexicon.prevent": "كلام\n",
        "tags.tsv": "مسـرور\tJJ\nشديد\tJJ\nهايف\tJJ\nقبيح\tJJ\nكلام\tNN\n",
        "synsets.tsv": "مسرورٌ\tDelighted\tفرحانٌ,سعيد,مبتهج\t\n"
                       "شديد\tIntense\tقوي,عنيف,حاد\t\nهايف\t\t\t\n"
                       "قبيح\tUgly\tعادي\tجميل,رائع\n",
        "corpus.jsonl": "".join(json.dumps({"id": f"t{i}", "text": text}, ensure_ascii=False)
                                + "\n" for i, text in enumerate([
                                    "الموظف مسرورٌ", "الزحام شديد", "الفيلم هايف",
                                    "المنظر قبيح. كلام مسرور", "أنا مسـرور"])),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    got = _expand(tmp_path, capsys, "--corpus", str(tmp_path / "corpus.jsonl"),
                  "--provider", str(tmp_path / "synsets.tsv"),
                  "--lexicon", str(tmp_path / "lexicon.tsv"),
                  "--tagtable", str(tmp_path / "tags.tsv"))
    assert got == EXPAND["walkthrough"]

"""Fuzz gate: whatever a file input holds, the CLI ends with exit code 0, 1
or 2 and raises nothing, and what a run that exits 0 wrote reads back.

Each input kind starts from a small valid file. An example is that file
with random bytes or one token spliced in, random bytes, or lines assembled
from tokens: the file's own words and punctuation plus values that parsers
trip on (non-finite numbers, empty fields, stray separators, a lone
surrogate escape, deep JSON nesting).
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from arasent import resources
from arasent.classifier import load_model
from arasent.cli import run
from arasent.evaluation import load_corpus
from arasent.lexicon import load_sentiment_lexicon

DATA = resources.data_path("corpus.jsonl").parent
CORPUS = "".join((DATA / "corpus.jsonl").read_text(encoding="utf-8").splitlines(True)[:3])
MODEL = "".join(
    ["schema_version: 1\nregularization: 0.01\nepochs: 200\nseed: 42\nscaling: none\n"]
    + [f"{slot}: {0.1 * slot - 0.8}\n" for slot in range(1, 18)] + ["bias: -0.01\n"])


def _head(name, lines=4):
    return "".join((DATA / name).read_text(encoding="utf-8").splitlines(True)[:lines])


# kind -> (a valid file of that kind, the argv that reads it as ``{f}``)
KINDS = {
    "corpus": (CORPUS, ["score", "--corpus", "{f}"]),
    "svmlight": ("# schema_version: 1\n+1 1:1 6:2.5 # a\n-1 2:1 17:-0.25\n",
                 ["train", "--features", "{f}", "--model", "{d}/model.txt"]),
    "model": (MODEL, ["predict", "--model", "{f}", "--corpus", "{d}/corpus.jsonl"]),
    "config": ("seed = 7  # comment\nepochs = 5\nscale = yes\ntrain_frac = 0.8\n"
               "negation_window = 3\nlexicon = {d}/lexicon.tsv\n",
               ["evaluate", "--corpus", "{d}/empty.jsonl", "--config", "{f}"]),
    "ratings": ("PO\tPO\nNG\tPO\nNG\tNG\n", ["kappa", "--ratings", "{f}"]),
    "prevent": ("كلام\n# comment\nجدار\n",
                ["score", "--corpus", "{d}/corpus.jsonl", "--lexicon", "{d}/lexicon.tsv"]),
    "synsets": (_head("synsets.tsv"),
                ["expand", "--corpus", "{d}/corpus.jsonl", "--provider", "{f}",
                 "--lexicon", "{d}/lexicon.tsv", "--out", "{d}/grown.tsv"]),
    **{key: (_head(name), ["score", "--corpus", "{d}/corpus.jsonl", f"--{key}", "{f}"])
       for key, name in resources.FILES.items()},
}
SPECIALS = ["nan", "inf", "-inf", "1e999", "-1", "0", "2", "", "null", "true", "PO", "NG",
            "NU", "#", "\t", " ", "=", ":", ",", "\r", '"', "{", "}", "schema_version",
            "\\ud800", "[" * 5000]


def _contents(valid: str):
    data = valid.encode("utf-8")
    pieces = st.sampled_from(sorted(set(re.findall(r"\w+|\W", valid)) | set(SPECIALS)))
    line = st.lists(st.one_of(pieces, st.text(max_size=3)), max_size=8).map("".join)
    return st.one_of(
        st.lists(line, max_size=6).map(lambda ls: "\n".join(ls).encode("utf-8")),
        st.binary(max_size=40),
        st.tuples(st.integers(0, len(data)), st.integers(0, 4), st.binary(max_size=6)).map(
            lambda t: data[:t[0]] + t[2] + data[t[0] + t[1]:]),
        st.tuples(st.integers(0, len(valid)), st.integers(0, 4), pieces).map(
            lambda t: (valid[:t[0]] + t[2] + valid[t[0] + t[1]:]).encode("utf-8")),
    )


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=8, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_survives_malformed_input(kind, data):
    valid, argv = KINDS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "corpus.jsonl").write_text(CORPUS, encoding="utf-8")
        (d / "empty.jsonl").write_text("", encoding="utf-8")
        (d / "lexicon.tsv").write_bytes((DATA / "lexicon.tsv").read_bytes())
        f = d / ("lexicon.prevent" if kind == "prevent" else "input")
        f.write_bytes(data.draw(_contents(valid.replace("{d}", tmp)), label="contents"))
        args = [a.format(f=f, d=d) for a in argv]
        # UTF-8 streams like a terminal's: printing text that cannot be encoded raises
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = run(args)
        assert code in (0, 1, 2)
        if code == 0:
            stdout.flush()
            _check_what_it_wrote(args, stdout.buffer.getvalue().decode("utf-8"))


def _check_what_it_wrote(args, stdout):
    """The model ``train`` wrote and the lexicon ``expand`` wrote load, and
    ``score`` printed one row per topic of its corpus, in corpus order."""
    command, flags = args[0], dict(zip(args[1::2], args[2::2]))
    if command == "train":
        load_model(flags["--model"])
    elif command == "expand":
        load_sentiment_lexicon(flags["--out"])
    elif command == "score":
        rows = stdout.split("\n")[:-1]
        assert [row.split("\t")[0] for row in rows] == [
            topic.id for topic in load_corpus(flags["--corpus"])]

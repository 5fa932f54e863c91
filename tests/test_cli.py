import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import arasent
import reference_classifier

from arasent import resources
from arasent.cli import run
from arasent.classifier import LabeledVector, TrainConfig, load_model, read_svmlight
from arasent.evaluation import SplitSpec, Topic, load_corpus, save_corpus, split_corpus
from arasent.lexicon import Polarity
from arasent.resources import data_path
from arasent.schema import SIGN


@pytest.fixture
def corpus_path():
    return str(data_path("corpus.jsonl"))


def test_no_arguments_prints_usage(capsys):
    assert run([]) == 1
    assert "usage" in capsys.readouterr().out.lower()


def test_help_snapshot(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    for command in ("normalize", "expand", "extract", "train", "predict",
                    "evaluate", "kappa", "score"):
        assert command in out


def test_subcommand_help_exits_zero(capsys):
    assert run(["evaluate", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--corpus" in out and "--seed" in out


def test_usage_error_exit_code_1(capsys):
    assert run(["evaluate"]) == 1  # missing required --corpus
    assert run(["unknowncmd"]) == 1


def test_normalize_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("أهلاً World 42"))
    assert run(["normalize", "-"]) == 0
    assert capsys.readouterr().out.strip() == "اهلا"


def test_normalize_file(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("هذا المكانُ رائِعٌ!", encoding="utf-8")
    assert run(["normalize", str(src)]) == 0
    assert capsys.readouterr().out.strip() == "هذا المكان رائع!"


def test_data_error_exit_code_2(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json}\n", encoding="utf-8")
    assert run(["evaluate", "--corpus", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bad.jsonl" in err and "1" in err


def test_extract_train_predict_pipeline(tmp_path, corpus_path, capsys):
    features = tmp_path / "train.svml"
    model = tmp_path / "model.txt"
    assert run(["extract", "--corpus", corpus_path, "--out", str(features)]) == 0
    assert features.read_text(encoding="utf-8").startswith("# schema_version: 1")
    capsys.readouterr()
    assert run(["train", "--features", str(features), "--model", str(model)]) == 0
    captured = capsys.readouterr()
    assert re.fullmatch(rf"trained on 200 vectors in \d+ passes \(gap \S+\); "
                        rf"model written to {re.escape(str(model))}\n", captured.out)
    assert captured.err == ""  # converged before the cap: no note
    out = tmp_path / "pred.tsv"
    assert run(["predict", "--model", str(model), "--corpus", corpus_path,
                "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 200
    topic_id, label, margin = lines[0].split("\t")
    assert label in ("PO", "NG")
    float(margin)


def test_train_notes_a_fit_stopped_by_the_cap(tmp_path, corpus_path, capsys):
    features, model = tmp_path / "train.svml", tmp_path / "model.txt"
    assert run(["extract", "--corpus", corpus_path, "--out", str(features)]) == 0
    capsys.readouterr()
    assert run(["train", "--features", str(features), "--model", str(model),
                "--epochs", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("trained on 200 vectors in 1 passes (gap ")
    assert re.fullmatch(r"note: stopped by the epochs cap after 1 passes, before the gap "
                        r"\S+ fell under 0\.001\n", captured.err)
    assert load_model(model).config.epochs == 1


def test_evaluate_reports_genres(corpus_path, capsys):
    assert run(["evaluate", "--corpus", corpus_path]) == 0
    out = capsys.readouterr().out
    for genre in ("tweet", "hotel", "product", "tv", "Total"):
        assert genre in out
    assert "Accuracy" in out and "F-Measure" in out


def test_evaluate_counts_the_unlabeled_training_topics_it_skips(tmp_path, corpus_path,
                                                               capsys):
    topics = load_corpus(corpus_path)
    topics += [t._replace(id=f"u-{t.id}", label=None) for t in topics[::5]]
    corpus = tmp_path / "corpus.jsonl"
    save_corpus(topics, corpus)
    train, _, _ = split_corpus(topics, SplitSpec())
    skipped = sum(t.label is None for t in train)
    assert 0 < skipped < len(train)
    assert run(["evaluate", "--corpus", str(corpus)]) == 0
    assert capsys.readouterr().err == f"skipped {skipped} unlabeled training topics\n"


@pytest.mark.parametrize("genre", ["Total", "unlabeled"])
def test_evaluate_refuses_a_genre_that_names_a_row_of_its_own_report(tmp_path, genre, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"id": "a", "text": "المكان رائع", "label": "PO", "genre": "tv"}\n'
                      f'{{"id": "b", "text": "المكان رائع", "label": "PO", "genre": "{genre}"}}\n',
                      encoding="utf-8")
    assert run(["evaluate", "--corpus", str(corpus)]) == 2
    assert capsys.readouterr().err == (
        f"error: {corpus}:2: genre {genre!r} names a row the report writes itself\n")


def test_evaluate_json_output(corpus_path, capsys):
    assert run(["evaluate", "--corpus", corpus_path, "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[-1]["data"] == "Total"
    assert rows[-1]["accuracy"] >= 0.9


def test_evaluate_reproducible_model_files(tmp_path, corpus_path, capsys):
    m1, m2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
    assert run(["evaluate", "--corpus", corpus_path, "--model-out", str(m1)]) == 0
    assert run(["evaluate", "--corpus", corpus_path, "--model-out", str(m2)]) == 0
    assert m1.read_bytes() == m2.read_bytes()


def test_pipeline_composition_matches_evaluate(tmp_path, corpus_path, capsys):
    """extract | train | predict composed by hand equals evaluate's pipeline."""
    corpus = load_corpus(corpus_path)
    train_topics, _, test_topics = split_corpus(corpus, SplitSpec(seed=42))
    train_file = tmp_path / "train.jsonl"
    test_file = tmp_path / "test.jsonl"
    save_corpus(train_topics, train_file)
    save_corpus(test_topics, test_file)

    features = tmp_path / "train.svml"
    model = tmp_path / "model.txt"
    preds = tmp_path / "pred.tsv"
    assert run(["extract", "--corpus", str(train_file), "--out", str(features)]) == 0
    assert run(["train", "--features", str(features), "--model", str(model)]) == 0
    assert run(["predict", "--model", str(model), "--corpus", str(test_file),
                "--out", str(preds)]) == 0

    eval_model = tmp_path / "eval-model.txt"
    capsys.readouterr()  # drop the extract/train/predict chatter
    assert run(["evaluate", "--corpus", corpus_path, "--seed", "42",
                "--model-out", str(eval_model), "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)

    # the svmlight interchange rounds values at 6 significant digits, so the
    # two routes train on vectors that differ by that rounding. Solved to a
    # gap of 1e-12 their optima differ by up to 9.83e-7 absolute, hence
    # abs=2e-6. Each CLI model stops at the gap TOL, and shrinking visits the
    # two routes' rows in orders of their own, so each model is bounded only
    # against its own route's optimum (2.8e-4 from it; 6.3e-5 from the other).
    analyzer = resources.load().analyzer()
    direct = [LabeledVector(analyzer.vector(t.text), SIGN[t.label])
              for t in train_topics if t.label is not None]
    deep = TrainConfig(epochs=10**6)
    optima = []
    for data in (read_svmlight(features), direct):
        weights, bias, _, gap = reference_classifier.train(data, deep, tol=1e-12)
        assert gap < 1e-12
        optima.append((*weights, bias))
    assert optima[0] == pytest.approx(optima[1], rel=1e-5, abs=2e-6)
    for fitted, optimum in zip(map(load_model, (model, eval_model)), optima):
        assert (*fitted.weights, fitted.bias) == pytest.approx(optimum, abs=1e-3)

    preds2 = tmp_path / "pred-eval.tsv"
    assert run(["predict", "--model", str(eval_model), "--corpus", str(test_file),
                "--out", str(preds2)]) == 0
    labels_manual = [line.split("\t")[1]
                     for line in preds.read_text(encoding="utf-8").splitlines()]
    labels_eval = [line.split("\t")[1]
                   for line in preds2.read_text(encoding="utf-8").splitlines()]
    assert labels_manual == labels_eval

    manual = {line.split("\t")[0]: line.split("\t")[1]
              for line in preds.read_text(encoding="utf-8").splitlines()}
    hits = sum(1 for t in test_topics if manual[t.id] == t.label.value)
    assert hits / len(test_topics) == pytest.approx(rows[-1]["accuracy"])


def test_evaluate_grid_search_path(tmp_path, corpus_path, capsys):
    # the grid skips fits that would repeat the last one, so its model must
    # still be the bytes a direct fit at its pick writes
    grid, direct = tmp_path / "grid.txt", tmp_path / "direct.txt"
    assert run(["evaluate", "--corpus", corpus_path, "--grid", "--model-out", str(grid)]) == 0
    out = capsys.readouterr().out
    pick = re.match(r"grid pick: reg=(\S+) \(dev accuracy \S+%\)\n", out)
    assert pick and "Total" in out
    assert run(["evaluate", "--corpus", corpus_path, "--reg", pick[1],
                "--model-out", str(direct)]) == 0
    assert grid.read_bytes() == direct.read_bytes()


def test_evaluate_grid_prints_the_dev_accuracy_as_a_percentage(corpus_path, capsys,
                                                              monkeypatch):
    from arasent import classifier

    grid_search = classifier.grid_search
    monkeypatch.setattr(classifier, "grid_search",
                        lambda *args, **kwargs: (*grid_search(*args, **kwargs)[:2], 0.75))
    assert run(["evaluate", "--corpus", corpus_path, "--grid"]) == 0
    assert capsys.readouterr().out.startswith("grid pick: reg=0.001 (dev accuracy 75.00%)\n")


def test_evaluate_grid_keeps_the_other_train_settings(tmp_path, corpus_path):
    model = tmp_path / "m.txt"
    assert run(["evaluate", "--corpus", corpus_path, "--grid", "--scale", "--epochs", "3",
                "--seed", "7", "--model-out", str(model)]) == 0
    config = load_model(model).config
    assert (config.epochs, config.seed, config.scale) == (3, 7, True)
    assert config.regularization in (1e-3, 1e-2, 1e-1)


def test_evaluate_grid_with_reg_is_a_usage_error(tmp_path, corpus_path, capsys):
    model = tmp_path / "m.txt"
    assert run(["evaluate", "--corpus", corpus_path, "--grid", "--reg", "0.5",
                "--model-out", str(model)]) == 1
    assert capsys.readouterr().err == "error: --grid picks the regularization; drop --reg\n"
    assert not model.exists()


def test_evaluate_grid_names_a_dev_split_with_no_labeled_topic(tmp_path, corpus_path, capsys):
    # four topics split 4/0/0: no dev topic is left to pick on
    corpus = tmp_path / "four.jsonl"
    corpus.write_text("".join(Path(corpus_path).read_text(encoding="utf-8")
                              .splitlines(keepends=True)[:4]), encoding="utf-8")
    model = tmp_path / "m.txt"
    assert run(["evaluate", "--corpus", str(corpus), "--grid", "--model-out", str(model)]) == 2
    assert capsys.readouterr().err == \
        "error: no dev vectors: the dev split holds no labeled topic\n"
    assert not model.exists()


def test_evaluate_grid_notes_a_config_file_regularization(tmp_path, corpus_path, capsys):
    # a config file may be shared with `train`, so its value is noted, not refused
    conf = tmp_path / "run.conf"
    conf.write_text("regularization = 0.5\n", encoding="utf-8")
    model = tmp_path / "m.txt"
    assert run(["evaluate", "--corpus", corpus_path, "--grid", "--config", str(conf),
                "--model-out", str(model)]) == 0
    assert capsys.readouterr().err == (
        f"note: --grid picks the regularization; the one in {conf} is not used\n")
    assert load_model(model).config.regularization in (1e-3, 1e-2, 1e-1)


def test_evaluate_grid_reads_the_config_file_once(tmp_path, corpus_path, capsys, monkeypatch):
    from arasent import cli

    conf = tmp_path / "run.conf"
    conf.write_text("regularization = 0.5\n", encoding="utf-8")
    reads = []
    load = cli.load_config_file
    monkeypatch.setattr(cli, "load_config_file", lambda path: reads.append(path) or load(path))
    assert run(["evaluate", "--corpus", corpus_path, "--grid", "--config", str(conf)]) == 0
    assert reads == [str(conf)]
    assert "is not used" in capsys.readouterr().err


def test_predict_to_stdout(tmp_path, corpus_path, capsys):
    features = tmp_path / "f.svml"
    model = tmp_path / "m.txt"
    assert run(["extract", "--corpus", corpus_path, "--out", str(features)]) == 0
    assert run(["train", "--features", str(features), "--model", str(model)]) == 0
    capsys.readouterr()
    assert run(["predict", "--model", str(model), "--corpus", corpus_path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 200 and lines[0].count("\t") == 2


class _Writes:
    """A stdout that keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def test_score_and_predict_write_stdout_1000_rows_at_a_time(tmp_path, corpus_path,
                                                            monkeypatch):
    topics = [t._replace(id=f"{k}-{t.id}") for k in range(11)
              for t in load_corpus(corpus_path)][:2001]  # two full chunks and one row
    corpus, features = tmp_path / "big.jsonl", tmp_path / "f.svml"
    model, predicted = tmp_path / "m.txt", tmp_path / "predicted.tsv"
    save_corpus(topics, corpus)
    assert run(["extract", "--corpus", corpus_path, "--out", str(features)]) == 0
    assert run(["train", "--features", str(features), "--model", str(model)]) == 0
    assert run(["predict", "--model", str(model), "--corpus", str(corpus),
                "--out", str(predicted)]) == 0
    analyzer = resources.load().analyzer()
    scored = "".join(f"{t.id}\t{net:+g}\t{label.value}\n"
                     for t in topics for net, label in [analyzer.rule_score(t.text)])
    for argv, want in ((["score", "--corpus", str(corpus)], scored),
                       (["predict", "--model", str(model), "--corpus", str(corpus)],
                        predicted.read_text(encoding="utf-8"))):
        out = _Writes()
        monkeypatch.setattr("sys.stdout", out)
        assert run(argv) == 0
        monkeypatch.undo()
        assert [w.count("\n") for w in out.writes] == [1000, 1000, 1]
        assert "".join(out.writes) == want


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_ends_the_run_quietly(tmp_path, corpus_path, unbuffered):
    """``score | head -1``: once the reader is gone the run exits 0, and stderr
    holds no error. The 1200 rows outgrow the stdout buffer, so the writes
    meet the closed pipe before score prints its agreement line."""
    corpus = tmp_path / "big.jsonl"
    save_corpus([t._replace(id=f"{k}-{t.id}") for k in range(6)
                 for t in load_corpus(corpus_path)], corpus)
    src = str(Path(arasent.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "arasent.cli", "score", "--corpus",
                               str(corpus)], stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, b"")


def test_expand_twice_second_run_adopts_zero(tmp_path, capsys):
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_bytes(data_path("lexicon_seed.tsv").read_bytes())
    args = ["expand",
            "--corpus", str(data_path("corpus.jsonl")),
            "--provider", str(data_path("synsets.tsv")),
            "--lexicon", str(lexicon), "--out", str(lexicon)]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert "adopted: 10" in first
    assert run(args) == 0  # lexicon was grown in place
    second = capsys.readouterr().out
    assert "adopted: 0" in second
    assert (tmp_path / "lexicon.pending.tsv").exists() or "oov_pending: 0" in second


def test_expand_writes_to_out_path(tmp_path, capsys):
    out = tmp_path / "grown.tsv"
    assert run(["expand",
                "--corpus", str(data_path("corpus.jsonl")),
                "--provider", str(data_path("synsets.tsv")),
                "--lexicon", str(data_path("lexicon_seed.tsv")),
                "--out", str(out)]) == 0
    assert out.exists()
    from arasent.lexicon import load_sentiment_lexicon
    grown = load_sentiment_lexicon(out)
    assert grown.lookup("مدهش") is not None


def test_expand_without_out_is_a_usage_error_that_writes_nothing(tmp_path, capsys):
    """With no --out, expand has nowhere to write: it does not fall back to
    writing over the lexicon it read."""
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_bytes(data_path("lexicon_seed.tsv").read_bytes())
    assert run(["expand", "--corpus", str(data_path("corpus.jsonl")),
                "--provider", str(data_path("synsets.tsv")), "--lexicon", str(lexicon)]) == 1
    assert "--out" in capsys.readouterr().err
    assert lexicon.read_bytes() == data_path("lexicon_seed.tsv").read_bytes()
    assert sorted(f.name for f in tmp_path.iterdir()) == ["lexicon.tsv"]


def test_expand_interactive_prompt(tmp_path, capsys, monkeypatch):
    """The terminal review loop shows evidence and applies the verdict."""
    lexicon = tmp_path / "lex.tsv"
    lexicon.write_bytes(data_path("lexicon_seed.tsv").read_bytes())
    corpus = tmp_path / "corpus.jsonl"
    save_corpus([Topic("t1", "الفيلم هايف", None, "tv")], corpus)
    answers = iter(["x", "n"])  # first answer invalid, loop re-asks
    monkeypatch.setattr("builtins.input", lambda prompt="": next(answers))
    assert run(["expand", "--corpus", str(corpus),
                "--provider", str(data_path("synsets.tsv")),
                "--lexicon", str(lexicon), "--out", str(lexicon), "--interactive"]) == 0
    out = capsys.readouterr().out
    assert "هايف" in out and "oov_accepted: 1" in out
    from arasent.lexicon import load_sentiment_lexicon
    assert load_sentiment_lexicon(lexicon).lookup("هايف").polarity is Polarity.NG


def test_expand_interactive_shows_the_translation_and_synonyms(tmp_path, capsys, monkeypatch):
    tags, corpus = tmp_path / "tags.tsv", tmp_path / "corpus.jsonl"
    tags.write_text(data_path("tags.tsv").read_text(encoding="utf-8") + "كلمةجديدة\tJJ\n",
                    encoding="utf-8")
    save_corpus([Topic("a", "كلمةجديدة رائع")], corpus)
    provider = tmp_path / "synsets.tsv"
    provider.write_text("كلمةجديدة\tnew word\tكلمةغريبة,كلمةثانية\t\n", encoding="utf-8")
    monkeypatch.setattr("builtins.input", lambda prompt="": "s")
    assert run(["expand", "--corpus", str(corpus), "--provider", str(provider),
                "--tagtable", str(tags), "--out", str(tmp_path / "grown.tsv"),
                "--interactive"]) == 0
    assert capsys.readouterr().out.splitlines()[:3] == [
        "word: كلمةجديدة", "  translation: new word", "  synonyms: كلمةغريبة, كلمةثانية"]


def test_expand_interactive_shows_the_antonyms(tmp_path, capsys, monkeypatch):
    """An answer whose antonym the lexicon does not know casts no vote, so
    the reviewer is asked, and sees the antonym as evidence."""
    provider, corpus = tmp_path / "synsets.tsv", tmp_path / "corpus.jsonl"
    provider.write_text("قبيح\tUgly\t\tكلمةغريبة\n", encoding="utf-8")
    save_corpus([Topic("a", "قبيح")], corpus)
    monkeypatch.setattr("builtins.input", lambda prompt="": "s")
    assert run(["expand", "--corpus", str(corpus), "--provider", str(provider),
                "--lexicon", str(data_path("lexicon_seed.tsv")),
                "--out", str(tmp_path / "grown.tsv"), "--interactive"]) == 0
    assert capsys.readouterr().out.splitlines()[:3] == [
        "word: قبيح", "  translation: Ugly", "  antonyms: كلمةغريبة"]


@pytest.fixture
def oov_run(tmp_path):
    """A copy of the packaged lexicon with its sidecar, and the arguments of
    an expand run over it whose one candidate, كلمةجديدة, goes to pending."""
    for name in ("lexicon.tsv", "lexicon.prevent"):
        (tmp_path / name).write_bytes(data_path(name).read_bytes())
    tags, corpus = tmp_path / "tags.tsv", tmp_path / "corpus.jsonl"
    tags.write_text(data_path("tags.tsv").read_text(encoding="utf-8") + "كلمةجديدة\tJJ\n",
                    encoding="utf-8")
    corpus.write_text('{"id":"a","text":"كلمةجديدة رائع"}\n', encoding="utf-8")
    return ["expand", "--corpus", str(corpus), "--provider", str(data_path("synsets.tsv")),
            "--lexicon", str(tmp_path / "lexicon.tsv"), "--tagtable", str(tags)]


def test_expand_adopts_a_word_whose_answer_holds_only_antonyms(tmp_path, capsys):
    """No translation and no synonyms, but an antonym in the lexicon is a
    vote: قبيح, the antonym of the PO word جميل, is adopted NG with its count
    over the corpus, and no word waits in a pending file."""
    provider, corpus = tmp_path / "synsets.tsv", tmp_path / "corpus.jsonl"
    provider.write_text("قبيح\t\t\tجميل\n", encoding="utf-8")
    save_corpus([Topic("a", "قبيح"), Topic("b", "جميل قبيح")], corpus)
    out = tmp_path / "grown.tsv"
    assert run(["expand", "--corpus", str(corpus), "--provider", str(provider),
                "--lexicon", str(data_path("lexicon_seed.tsv")), "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[:4] == [
        "adopted: 1", "cos: 0", "oov_pending: 0", "oov_accepted: 0"]
    from arasent.lexicon import LexiconEntry, load_sentiment_lexicon
    assert load_sentiment_lexicon(out).lookup("قبيح") == LexiconEntry("قبيح", Polarity.NG, tf=2)
    assert not (tmp_path / "grown.pending.tsv").exists()


def test_expand_files_its_one_candidate_as_pending(tmp_path, oov_run, capsys):
    out = tmp_path / "grown.tsv"
    assert run(oov_run + ["--out", str(out)]) == 0
    assert "oov_pending: 1" in capsys.readouterr().out.splitlines()
    assert (tmp_path / "grown.pending.tsv").read_text(encoding="utf-8") == "كلمةجديدة\tPENDING\n"


@pytest.mark.parametrize("out, pending", [
    ("out.tsv", "out.tsv"), ("out.tsv", "out.prevent"), ("out.tsv", "lexicon.tsv"),
    ("out.tsv", "lexicon.prevent"), ("out.tsv", "corpus.jsonl"), ("out.tsv", "tags.tsv"),
    ("out.prevent", None), ("out.tsv", "sub/../out.tsv"), ("corpus.jsonl", None),
    ("tags.tsv", None)],
    ids=["pending-is-out", "pending-is-out-sidecar", "pending-is-lexicon",
         "pending-is-lexicon-sidecar", "pending-is-corpus", "pending-is-tagtable",
         "out-is-its-own-sidecar", "pending-is-out-by-another-name", "out-is-corpus",
         "out-is-tagtable"])
def test_expand_refuses_a_written_file_that_names_another_file_of_the_run(
        tmp_path, oov_run, capsys, out, pending):
    """Before it reads any input, expand refuses to write its lexicon, sidecar
    or pending rows over another file of the run: exit 1, one error line, and
    every file as it was."""
    (tmp_path / "sub").mkdir()
    before = {f: f.read_bytes() for f in tmp_path.iterdir() if f.is_file()}
    argv = oov_run + ["--out", str(tmp_path / out)]
    if pending:
        argv += ["--pending", str(tmp_path / pending)]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert {f: f.read_bytes() for f in tmp_path.iterdir() if f.is_file()} == before


@pytest.mark.parametrize("out, pending, message", [
    ("nodir/grown.tsv", "p.tsv", "the grown lexicon nodir/grown.tsv has no directory nodir"),
    ("grown.tsv", "nodir/p.tsv", "the pending file nodir/p.tsv has no directory nodir"),
    ("afile/grown.tsv", None, "the grown lexicon afile/grown.tsv has no directory afile"),
    ("adir", None, "the grown lexicon adir is a directory"),
    ("grown.tsv", "adir", "the pending file adir is a directory")],
    ids=["out", "pending", "out-under-a-file", "out-is-a-directory", "pending-is-a-directory"])
def test_expand_checks_the_directory_of_every_file_it_writes_before_it_reads(
        tmp_path, oov_run, capsys, monkeypatch, out, pending, message):
    """A written file whose directory is missing, or that is a directory, is
    a data error before any input is read: exit 2, one error line naming
    the directory, and no file written or appended."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("", encoding="utf-8")
    (tmp_path / "adir").mkdir()
    before = {f: f.read_bytes() for f in tmp_path.iterdir() if f.is_file()}
    argv = oov_run + ["--out", out] + (["--pending", pending] if pending else [])
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert {f: f.read_bytes() for f in tmp_path.iterdir() if f.is_file()} == before


@pytest.mark.parametrize("flag, name, text", [
    ("--provider", "synsets.tsv", data_path("synsets.tsv").read_bytes()),
    ("--stopwords", "stopwords.txt", data_path("stopwords.txt").read_bytes()),
    ("--config", "run.conf", b"seed = 1\n")], ids=["provider", "stopwords", "config"])
def test_expand_refuses_a_pending_file_that_is_an_input_it_names(tmp_path, oov_run, capsys,
                                                                 flag, name, text):
    given = tmp_path / name
    given.write_bytes(text)
    argv = oov_run + [flag, str(given), "--out", str(tmp_path / "out.tsv"),
                      "--pending", str(given)]
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert given.read_bytes() == text
    assert not (tmp_path / "out.tsv").exists()


def test_expand_interactive_at_end_of_input_skips_to_pending(tmp_path, capsys, monkeypatch):
    """With no reviewer left the word waits in the pending file, and the run
    still writes the lexicon and exits 0."""
    lexicon = tmp_path / "lex.tsv"
    lexicon.write_bytes(data_path("lexicon_seed.tsv").read_bytes())
    corpus = tmp_path / "corpus.jsonl"
    save_corpus([Topic("t1", "الفيلم هايف", None, "tv")], corpus)
    pending = tmp_path / "review.tsv"

    def no_input(prompt=""):
        raise EOFError

    monkeypatch.setattr("builtins.input", no_input)
    out = tmp_path / "grown.tsv"
    argv = ["expand", "--corpus", str(corpus), "--provider", str(data_path("synsets.tsv")),
            "--lexicon", str(lexicon), "--out", str(out), "--pending", str(pending),
            "--interactive"]
    assert run(argv) == 0
    assert "oov_pending: 1" in capsys.readouterr().out.splitlines()
    assert pending.read_text(encoding="utf-8") == "هايف\tPENDING\n"
    assert out.read_bytes() == lexicon.read_bytes()
    # a real stdin with nothing on it, not only a stand-in for input(), skips too
    pending.unlink()
    assert "oov_pending: 1" in _fresh_python(
        f"import sys, arasent.cli; sys.exit(arasent.cli.run({argv!r}))").splitlines()
    assert pending.read_text(encoding="utf-8") == "هايف\tPENDING\n"


@pytest.mark.parametrize("argv, written, read", [
    (["extract", "--corpus", "c.jsonl", "--out", "c.jsonl"], "the feature file", "the corpus"),
    (["train", "--features", "f.svm", "--model", "f.svm"], "the model file", "the feature file"),
    (["predict", "--model", "m.txt", "--corpus", "c.jsonl", "--out", "m.txt"],
     "the prediction file", "the model file"),
    (["evaluate", "--corpus", "c.jsonl", "--model-out", "c.jsonl"], "the model file",
     "the corpus"),
    (["train", "--features", "f.svm", "--config", "run.conf", "--model", "run.conf"],
     "the model file", "the config file"),
    (["predict", "--model", "m.txt", "--corpus", "c.jsonl", "--lexicon", "lexicon.tsv",
      "--out", "lexicon.prevent"], "the prediction file", "the lexicon's .prevent sidecar"),
    (["evaluate", "--corpus", "c.jsonl", "--idioms", "idioms.tsv", "--model-out",
      "sub/../idioms.tsv"], "the model file", "the idiom lexicon")],
    ids=["extract", "train", "predict", "evaluate", "train-config", "predict-sidecar",
         "evaluate-idioms-by-another-name"])
def test_a_writer_refuses_an_output_that_names_one_of_its_inputs(
        tmp_path, capsys, monkeypatch, argv, written, read):
    """Before it reads anything, a subcommand refuses to write over a file it
    reads: exit 1, one error line naming both roles, every file as it was
    and no temporary file left."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    for name in ("lexicon.tsv", "lexicon.prevent", "idioms.tsv"):
        (tmp_path / name).write_bytes(data_path(name).read_bytes())
    save_corpus([Topic("a", "المكان رائع", Polarity.PO), Topic("b", "الخدمة سيئة", Polarity.NG)],
                tmp_path / "c.jsonl")
    (tmp_path / "run.conf").write_text("seed = 1\n", encoding="utf-8")
    assert run(["extract", "--corpus", "c.jsonl", "--out", "f.svm"]) == 0
    assert run(["train", "--features", "f.svm", "--model", "m.txt"]) == 0
    capsys.readouterr()
    before = {f: f.read_bytes() for f in tmp_path.iterdir() if f.is_file()}
    opened = []
    real_open = open
    monkeypatch.setattr("builtins.open", lambda file, *a, **k: opened.append(file)
                        or real_open(file, *a, **k))
    assert run(argv) == 1
    assert opened == ["run.conf"] * ("--config" in argv)  # the settings, and nothing else
    assert capsys.readouterr() == ("", f"error: {written} {argv[-1]} is also {read}\n")
    assert {f: f.read_bytes() for f in tmp_path.iterdir() if f.is_file()} == before


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_help_states_the_train_config_defaults(capsys, command):
    # the help texts are the only other copy of these defaults
    from arasent.classifier import TrainConfig

    assert run([command, "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    defaults = TrainConfig()
    for flag, value in (("--seed SEED", defaults.seed),
                        ("--reg REGULARIZATION", defaults.regularization),
                        ("--epochs EPOCHS", defaults.epochs)):
        stated = re.search(re.escape(flag) + r" [a-zA-Z0-9 ]*\(default ([^)]+)\)", help_text)
        assert stated and float(stated.group(1)) == value, flag


def test_extract_byte_identical_across_runs(tmp_path, corpus_path, capsys):
    f1, f2 = tmp_path / "a.svml", tmp_path / "b.svml"
    assert run(["extract", "--corpus", corpus_path, "--out", str(f1)]) == 0
    assert run(["extract", "--corpus", corpus_path, "--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_kappa_subcommand(tmp_path, capsys):
    ratings = tmp_path / "ratings.tsv"
    rows = ["PO\tPO"] * 4 + ["NG\tNG"] * 3 + ["PO\tNG"] * 2 + ["NG\tPO"]
    ratings.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert run(["kappa", "--ratings", str(ratings)]) == 0
    assert "0.400000" in capsys.readouterr().out


def test_score_subcommand(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    save_corpus([Topic("a", "المكان رائع", Polarity.PO, "hotel"),
                 Topic("b", "المكان مش نظيف", Polarity.NG, "hotel")], corpus)
    assert run(["score", "--corpus", str(corpus)]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0].startswith("a\t+1\tPO")
    assert lines[1].startswith("b\t-1\tNG")
    assert "agreement with gold: 2/2" in captured.err


def test_score_leaves_out_a_lexicon_row_led_by_a_hash(tmp_path, capsys):
    lexicon, corpus = tmp_path / "lex.tsv", tmp_path / "corpus.jsonl"
    lexicon.write_text("word\tgloss\ttranslit\tpolarity\ttf\n# رائع\tgreat\t\tPO\t0\n"
                       "سيء\t\t\tNG\t0\n", encoding="utf-8")
    corpus.write_text('{"id":"a","text":"المكان رائع"}\n', encoding="utf-8")
    assert run(["score", "--lexicon", str(lexicon), "--corpus", str(corpus)]) == 0
    assert capsys.readouterr().out == "a\t+0\tNU\n"


def test_score_prints_the_agreement_with_gold_as_a_percentage(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    save_corpus([Topic("a", "المكان رائع", Polarity.PO), Topic("b", "المكان رائع"),
                 Topic("c", "المكان مش نظيف", Polarity.NG),
                 Topic("d", "المكان مش نظيف", Polarity.PO)], corpus)
    assert run(["score", "--corpus", str(corpus)]) == 0
    assert capsys.readouterr().err == "# agreement with gold: 2/3 (66.67%)\n"


def test_extract_counts_every_unlabeled_topic_it_skips(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    save_corpus([Topic("a", "المكان رائع", Polarity.PO), Topic("b", "المكان رائع"),
                 Topic("c", "المكان مش نظيف")], corpus)
    assert run(["extract", "--corpus", str(corpus), "--out", str(tmp_path / "f.svml")]) == 0
    captured = capsys.readouterr()
    assert captured.err == "skipped 2 unlabeled topics\n"
    assert captured.out == f"wrote 1 vectors to {tmp_path / 'f.svml'}\n"


def test_kappa_refuses_a_ragged_ratings_file_at_the_line_at_fault(tmp_path, capsys):
    ratings = tmp_path / "r.tsv"
    ratings.write_text("PO\tPO\nNG\nNG\tNG\n", encoding="utf-8")
    assert run(["kappa", "--ratings", str(ratings)]) == 2
    assert capsys.readouterr().err == f"error: {ratings}:2: expected 2 rater columns, got 1\n"


def test_config_file_overridden_by_flags(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("seed = 7\nepochs = 5\n", encoding="utf-8")
    corpus = str(data_path("corpus.jsonl"))
    m1 = tmp_path / "m1.txt"
    assert run(["evaluate", "--corpus", corpus, "--config", str(config),
                "--model-out", str(m1)]) == 0
    model = load_model(m1)
    assert model.config.seed == 7 and model.config.epochs == 5
    m2 = tmp_path / "m2.txt"
    assert run(["evaluate", "--corpus", corpus, "--config", str(config),
                "--seed", "9", "--model-out", str(m2)]) == 0
    assert load_model(m2).config.seed == 9  # flag wins over config file


def test_config_missing_resource_is_data_error(tmp_path, capsys):
    assert run(["evaluate", "--corpus", str(data_path("corpus.jsonl")),
                "--lexicon", str(tmp_path / "nope.tsv")]) == 2
    assert "not found" in capsys.readouterr().err


def test_train_on_non_finite_features_exits_2(tmp_path, capsys):
    features = tmp_path / "bad.svml"
    features.write_text("+1 1:1 6:2\n-1 1:nan 6:inf\n", encoding="utf-8")
    model = tmp_path / "model.txt"
    assert run(["train", "--features", str(features), "--model", str(model)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "bad.svml:2: non-finite value '1:nan'" in err
    assert not model.exists()


def _fresh_python(code: str, *options: str) -> str:
    """Standard output of ``code`` run in a new interpreter, with nothing on
    stdin, on the package this test imported."""
    src = str(Path(arasent.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, *options, "-c", code], stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, env=env, timeout=60, check=True)
    return done.stdout.strip()


def test_cli_imports_only_the_standard_library():
    assert _fresh_python(
        "import sys; before = set(sys.modules); import arasent.cli; "
        "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(new - set(sys.stdlib_module_names) - {'arasent'}))") == "[]"


def test_cli_import_leaves_expansion_and_synthetic_unloaded():
    # only `expand` needs expansion, `score`, `normalize`, `kappa` and
    # `expand` never need classifier, no subcommand needs synthetic, and each
    # subcommand loads the corpus reader and the text pipeline itself
    assert _fresh_python(
        "import sys, arasent.cli; print(sorted({'arasent.expansion', 'arasent.synthetic', "
        "'arasent.classifier', 'arasent.features', 'arasent.lexicon', 'arasent.preprocess', "
        "'arasent.evaluation'} & set(sys.modules)))") == "[]"


def test_classifier_import_loads_only_the_schema_of_the_feature_side():
    # the model layer works on vectors: of the feature side it needs the
    # schema's two constants, not the featurizer and its text pipeline
    assert _fresh_python(
        "import sys, arasent.classifier; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'arasent'))") == str(
        ["arasent", "arasent.classifier", "arasent.errors", "arasent.fileio", "arasent.schema"])


def test_evaluation_import_loads_no_text_pipeline():
    # the corpus reader and kappa need the labels, which live in the schema,
    # not in the lexicon and its preprocessing
    assert _fresh_python(
        "import sys, arasent.evaluation; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'arasent'))") == str(
        ["arasent", "arasent.errors", "arasent.evaluation", "arasent.fileio", "arasent.schema"])


@pytest.mark.parametrize("command, unloaded", [
    ("train", ["arasent.evaluation", "arasent.features", "arasent.lexicon",
               "arasent.preprocess"]),
    ("expand", ["arasent.classifier", "arasent.features"]),
    ("kappa", ["arasent.classifier", "arasent.features", "arasent.lexicon",
               "arasent.preprocess"])])
def test_a_run_loads_only_the_layers_it_runs(tmp_path, corpus_path, command, unloaded):
    features, ratings = tmp_path / "f.svml", tmp_path / "ratings.tsv"
    features.write_text("+1 1:1\n-1 2:1\n", encoding="utf-8")
    ratings.write_text("PO\tPO\nNG\tNG\nPO\tNG\n", encoding="utf-8")
    argv = {"train": ["train", "--features", str(features), "--model", str(tmp_path / "m.txt")],
            "expand": ["expand", "--corpus", corpus_path, "--provider",
                       str(data_path("synsets.tsv")), "--out", str(tmp_path / "grown.tsv")],
            "kappa": ["kappa", "--ratings", str(ratings)]}
    last = _fresh_python(
        f"import sys, arasent.cli; code = arasent.cli.run({argv[command]!r}); "
        f"print(code, sorted(set({unloaded!r}) & set(sys.modules)))").splitlines()[-1]
    assert last == "0 []"


def test_no_arasent_module_loads_dataclasses_inspect_or_fractions():
    # each costs start-up time that no subcommand needs; -S keeps out what a
    # site-packages .pth file imports, so only arasent's own imports count
    assert _fresh_python(
        "import sys, arasent.cli, arasent.classifier, arasent.expansion, "
        "arasent.evaluation, arasent.resources, arasent.synthetic; "
        "print(sorted({'dataclasses', 'inspect', 'fractions'} & set(sys.modules)))",
        "-S") == "[]"


def test_grid_search_refuses_no_regularizations_under_optimization():
    # python -O strips assert statements, so the refusal must not be one
    assert _fresh_python(
        "from arasent.classifier import LabeledVector, grid_search\n"
        "from arasent.errors import ArasentError\n"
        "data = [LabeledVector((1.0,) * 17, 1), LabeledVector((-1.0,) * 17, -1)]\n"
        "try:\n"
        "    print(grid_search(data, data, ()))\n"
        "except ArasentError as exc:\n"
        "    print('refused:', exc)\n", "-O") == "refused: no regularizations to search"


@pytest.mark.parametrize("module", ["classifier", "evaluation", "expansion", "features",
                                    "lexicon", "resources"])
def test_no_named_tuple_shares_a_mutable_default(module):
    mod = importlib.import_module(f"arasent.{module}")
    types = [t for t in vars(mod).values() if isinstance(t, type) and issubclass(t, tuple)
             and t.__module__ == mod.__name__]
    assert types
    for t in types:
        for default in t._field_defaults.values():
            hash(default)  # raises for a list, dict or set, which every instance would share


@pytest.mark.parametrize("how", ["flag", "config"])
def test_negative_seed_is_a_data_error(tmp_path, corpus_path, capsys, how):
    features = tmp_path / "f.svml"
    features.write_text("+1 1:1\n-1 2:1\n", encoding="utf-8")
    model = tmp_path / "m.txt"
    reg = "regularization must be a positive finite number, got"
    for flag, key, value, message in [
            ("--seed", "seed", "-1", "seed must be a non-negative integer, got -1"),
            ("--reg", "regularization", "0", f"{reg} 0.0"),
            ("--reg", "regularization", "-1", f"{reg} -1.0"),
            ("--reg", "regularization", "nan", f"{reg} nan"),
            ("--reg", "regularization", "inf", f"{reg} inf"),
            ("--epochs", "epochs", "0", "epochs must be a positive integer, got 0")]:
        if how == "flag":
            setting = [flag, value]
        else:
            config = tmp_path / "run.conf"
            config.write_text(f"{key} = {value}\n", encoding="utf-8")
            setting = ["--config", str(config)]
        assert run(["train", "--features", str(features), "--model", str(model),
                    *setting]) == 2
        assert run(["evaluate", "--corpus", corpus_path, *setting]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n" * 2
        assert not model.exists()


@pytest.mark.parametrize("how", ["flag", "config"])
def test_seed_zero_trains(tmp_path, capsys, how):
    features, model = tmp_path / "f.svml", tmp_path / "m.txt"
    features.write_text("+1 1:1\n-1 2:1\n", encoding="utf-8")
    config = tmp_path / "run.conf"
    config.write_text("seed = 0\n", encoding="utf-8")
    setting = ["--seed", "0"] if how == "flag" else ["--config", str(config)]
    assert run(["train", "--features", str(features), "--model", str(model), *setting]) == 0
    assert load_model(model).config.seed == 0


@pytest.mark.parametrize("flag", ["--negation-window", "--intensifier-window"])
def test_negative_window_is_a_data_error(corpus_path, capsys, flag):
    assert run(["score", "--corpus", corpus_path, flag, "-1"]) == 2
    key = flag[2:].replace("-", "_")
    assert capsys.readouterr().err == f"error: {key} must be a non-negative integer, got -1\n"


@pytest.mark.parametrize("line, message", [
    ("seed = abc", "run.conf:2: seed: invalid literal for int() with base 10: 'abc'"),
    ("scale = maybe", "run.conf:2: scale: expected a boolean, got 'maybe'"),
    ("lexcon = my.tsv", "run.conf:2: unknown key 'lexcon'"),
    ("lexicon my.tsv", "run.conf:2: expected key = value")],
    ids=["bad-int", "bad-bool", "unknown-key", "no-equals"])
def test_bad_config_line_is_a_data_error(tmp_path, corpus_path, capsys, line, message):
    config = tmp_path / "run.conf"
    config.write_text(f"# shared settings\n{line}\n", encoding="utf-8")
    assert run(["score", "--corpus", corpus_path, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f"{message}\n") and err.count("\n") == 1


def test_config_file_may_name_settings_of_other_subcommands(tmp_path, corpus_path, capsys):
    features, model = tmp_path / "f.svml", tmp_path / "m.txt"
    features.write_text("+1 1:1\n-1 2:1\n", encoding="utf-8")
    config = tmp_path / "run.conf"
    config.write_text(f"lexicon = {tmp_path / 'absent.tsv'}\nstratify = no\nepochs = 3\n",
                      encoding="utf-8")
    assert run(["train", "--features", str(features), "--model", str(model),
                "--config", str(config)]) == 0  # train reads no resource
    assert load_model(model).config.epochs == 3
    assert run(["score", "--corpus", corpus_path, "--config", str(config)]) == 2
    assert "lexicon file not found" in capsys.readouterr().err


@pytest.mark.parametrize("out", ["nodir/x.svm", "adir", "", "."],
                         ids=["missing-directory", "directory", "empty", "working-directory"])
def test_a_written_file_that_cannot_be_made_is_named_as_given(tmp_path, corpus_path, capsys,
                                                              monkeypatch, out):
    """An error about the file names it as given, never its temporary file,
    and leaves no file behind; an empty name or "." once ended in a
    traceback."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    assert run(["extract", "--corpus", corpus_path, "--out", out]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: \[Errno \d+\] [^\n]*: '{re.escape(out)}'\n", err), err
    assert ".tmp" not in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["adir"]


@pytest.mark.parametrize("text", ["+1 1:1e300\n-1 2:1e300\n", "+1 1:1e154 2:1e154\n-1 3:1\n"],
                         ids=["square-overflows", "sum-of-squares-overflows"])
def test_train_refuses_a_vector_whose_squared_norm_overflows_unless_scaled(tmp_path, capsys,
                                                                           text):
    features, model = tmp_path / "f.svml", tmp_path / "m.txt"
    features.write_text(text, encoding="utf-8")
    assert run(["train", "--features", str(features), "--model", str(model)]) == 2
    assert capsys.readouterr().err == ("error: vector 1: its squared norm overflows a float; "
                                       "scale=True (--scale) trains it\n")
    assert not model.exists()
    assert run(["train", "--features", str(features), "--model", str(model), "--scale"]) == 0
    assert load_model(model).config.scale


def test_train_takes_no_resource_flags(capsys):
    assert run(["train", "--help"]) == 0
    flags = {word.strip("[],") for word in capsys.readouterr().out.split()
             if word.startswith(("--", "[--"))}
    assert flags == {"--help", "--features", "--model", "--config", "--seed", "--reg",
                     "--epochs", "--scale"}


def test_expand_takes_only_the_files_it_reads(capsys):
    assert run(["expand", "--help"]) == 0
    flags = {word.strip("[],") for word in capsys.readouterr().out.split()
             if word.startswith(("--", "[--"))}
    assert flags == {"--help", "--corpus", "--provider", "--out", "--pending", "--interactive",
                     "--config", "--lexicon", "--stopwords", "--tagtable"}
    assert run(["expand", "--corpus", "c.jsonl", "--provider", "s.tsv",
                "--idioms", "idioms.tsv"]) == 1


@pytest.mark.parametrize("line", ["idioms = {d}/absent.tsv", "idioms = {d}/one-word.tsv",
                                  "negation_window = -1"],
                         ids=["missing-idioms", "one-word-idiom", "negative-window"])
def test_expand_ignores_config_keys_for_what_it_does_not_read(tmp_path, corpus_path, capsys,
                                                              line):
    """A config file that names a missing idiom file, an idiom file that no
    Analyzer would take, or a negative window grows the lexicon as a run
    without it does: the same report, lexicon, prevent and pending bytes."""
    (tmp_path / "one-word.tsv").write_text("رائع\tPO\n", encoding="utf-8")
    corpus = tmp_path / "corpus.jsonl"  # one out-of-vocabulary word fills the pending file
    save_corpus(load_corpus(corpus_path) + [Topic("oov", "الفيلم هايف")], corpus)

    def expand(name, config=None):
        out = tmp_path / name
        out.mkdir()
        argv = ["expand", "--corpus", str(corpus), "--provider", str(data_path("synsets.tsv")),
                "--lexicon", str(data_path("lexicon_seed.tsv")), "--out", str(out / "grown.tsv")]
        if config:
            (tmp_path / "run.conf").write_text(config.format(d=tmp_path) + "\n", encoding="utf-8")
            argv += ["--config", str(tmp_path / "run.conf")]
        assert run(argv) == 0
        report = capsys.readouterr().out.replace(str(out), "<out>")
        return report, {f.name: f.read_bytes() for f in out.iterdir()}

    plain = expand("plain")
    assert sorted(plain[1]) == ["grown.pending.tsv", "grown.prevent", "grown.tsv"]
    assert expand("configured", line) == plain


@pytest.mark.parametrize("line", [b'{"id": "a", "text": "\xff"}',
                                  b'{"id": "\\ud800", "text": "x"}'],
                         ids=["invalid-byte", "lone-surrogate"])
def test_text_that_is_not_utf8_is_a_data_error(tmp_path, capsys, line):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(b'{"id": "ok", "text": "x"}\n' + line + b"\n")
    assert run(["score", "--corpus", str(corpus)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "utf-8" in err and err.count("\n") == 1
    assert f"{corpus}:2: " in err and out == ""


@pytest.mark.parametrize("line", ['{"id": 1, "text": "رائع"}', '{"id": "a", "text": ["رائع"]}',
                                  '{"id": "a", "text": "رائع", "genre": 5}'],
                         ids=["id", "text", "genre"])
def test_corpus_field_that_is_not_a_string_is_a_data_error(tmp_path, capsys, line):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"id": "ok", "text": "رائع"}\n' + line + "\n", encoding="utf-8")
    assert run(["score", "--corpus", str(corpus)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"error: {corpus}:2: ") and "must be a string" in err
    assert out == ""


@pytest.mark.parametrize("escape", ["\\t", "\\r", "\\n"], ids=["tab", "cr", "lf"])
def test_an_id_that_would_break_a_row_is_a_data_error(tmp_path, capsys, escape):
    """The id is the comment of an SVM-light row and the first column of a
    score or predict row: a line break in it would write a row of its own."""
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"id": "ok", "text": "المكان رائع", "label": "PO"}\n'
                      f'{{"id": "a{escape}-1 1:99", "text": "المكان رائع", "label": "PO"}}\n',
                      encoding="utf-8")
    out = tmp_path / "features.svml"
    assert run(["extract", "--corpus", str(corpus), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {corpus}:2: id ") and "tab or a line break" in err
    assert not out.exists()


@pytest.mark.parametrize("escape", ["\\r", "\\n"], ids=["cr", "lf"])
def test_a_genre_that_would_forge_a_report_row_is_a_data_error(tmp_path, capsys, escape):
    """A genre names one row of the evaluate report: a line break in it would
    print a row of its own."""
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"id": "ok", "text": "المكان رائع", "label": "PO", "genre": "tv"}\n'
                      f'{{"id": "b", "text": "المكان رائع", "label": "PO", '
                      f'"genre": "tv{escape}  99  100.0000%"}}\n', encoding="utf-8")
    assert run(["evaluate", "--corpus", str(corpus)]) == 2
    assert capsys.readouterr() == (
        "", f"error: {corpus}:2: genre 'tv{escape}  99  100.0000%' holds a line break\n")


def test_resource_that_is_not_utf8_is_reported_at_its_line(tmp_path, corpus_path, capsys):
    stopwords = tmp_path / "stopwords.txt"
    stopwords.write_bytes("في\nمن\n".encode("utf-8") + b"\xff\n")
    assert run(["score", "--corpus", corpus_path, "--stopwords", str(stopwords)]) == 2
    assert capsys.readouterr().err == f"error: {stopwords}:3: not valid utf-8 text\n"
    assert run(["normalize", str(stopwords)]) == 2
    assert capsys.readouterr() == ("", f"error: {stopwords}:3: not valid utf-8 text\n")


def test_tag_table_word_that_normalizes_to_nothing_is_a_data_error(tmp_path, corpus_path,
                                                                   capsys):
    tags = tmp_path / "tags.tsv"
    tags.write_text("رائع\tJJ\nabc\tJJ\n", encoding="utf-8")
    assert run(["score", "--corpus", corpus_path, "--tagtable", str(tags)]) == 2
    assert capsys.readouterr() == ("", f"error: {tags}:2: word is empty after normalization\n")


def test_lexicon_word_that_is_several_words_is_a_data_error(tmp_path, corpus_path, capsys):
    lex = tmp_path / "lex.tsv"
    lex.write_text("word\tgloss\ttranslit\tpolarity\ttf\nمش كده\t\t\tNG\t0\n",
                   encoding="utf-8")
    assert run(["score", "--corpus", corpus_path, "--lexicon", str(lex)]) == 2
    assert capsys.readouterr() == (
        "", f"error: {lex}:2: lexicon word is several words after normalization\n")


def test_seed_beyond_32_bits_trains(tmp_path, corpus_path, capsys):
    model = tmp_path / "m.txt"
    assert run(["evaluate", "--corpus", corpus_path, "--seed", "4294967296",
                "--model-out", str(model)]) == 0
    assert load_model(model).config.seed == 4294967296


def test_failed_predict_leaves_the_output_file_untouched(tmp_path, corpus_path, capsys):
    features, model = tmp_path / "f.svml", tmp_path / "m.txt"
    assert run(["extract", "--corpus", corpus_path, "--out", str(features)]) == 0
    assert run(["train", "--features", str(features), "--model", str(model)]) == 0
    text = model.read_text(encoding="utf-8")
    model.write_text(text.replace("schema_version: 1", "schema_version: 2"), encoding="utf-8")
    out = tmp_path / "pred.tsv"
    out.write_bytes(b"earlier\tPO\t1.000000\n")
    before = sorted(tmp_path.iterdir())
    assert run(["predict", "--model", str(model), "--corpus", corpus_path,
                "--out", str(out)]) == 2
    assert "schema" in capsys.readouterr().err
    assert out.read_bytes() == b"earlier\tPO\t1.000000\n"
    assert sorted(tmp_path.iterdir()) == before


def test_train_refuses_another_feature_schema_before_writing(tmp_path, capsys):
    features, model = tmp_path / "f.svml", tmp_path / "m.txt"
    features.write_text("# schema_version: 2\n+1 5:1\n-1 6:1\n", encoding="utf-8")
    assert run(["train", "--features", str(features), "--model", str(model)]) == 2
    out, err = capsys.readouterr()
    assert err == f"error: {features}:1: unsupported schema_version 2 (only schema 1 exists)\n"
    assert out == "" and not model.exists()

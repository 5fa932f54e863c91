import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import arasent

from arasent.cli import run
from arasent.classifier import load_model
from arasent.evaluation import SplitSpec, Topic, load_corpus, save_corpus, split_corpus
from arasent.lexicon import Polarity
from arasent.resources import data_path


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
    # two routes agree up to that rounding and exactly on predicted labels;
    # even solved to a gap of 1e-12 the two optima differ by up to 9.83e-7
    # absolute, hence abs=2e-6
    m1, m2 = load_model(model), load_model(eval_model)
    assert m1.weights == pytest.approx(m2.weights, rel=1e-5, abs=2e-6)
    assert m1.bias == pytest.approx(m2.bias, rel=1e-5, abs=2e-6)

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


def test_evaluate_grid_search_path(corpus_path, capsys):
    assert run(["evaluate", "--corpus", corpus_path, "--grid"]) == 0
    out = capsys.readouterr().out
    assert re.match(r"grid pick: reg=\S+ \(dev accuracy \S+%\)\n", out) and "Total" in out


def test_predict_to_stdout(tmp_path, corpus_path, capsys):
    features = tmp_path / "f.svml"
    model = tmp_path / "m.txt"
    assert run(["extract", "--corpus", corpus_path, "--out", str(features)]) == 0
    assert run(["train", "--features", str(features), "--model", str(model)]) == 0
    capsys.readouterr()
    assert run(["predict", "--model", str(model), "--corpus", corpus_path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 200 and lines[0].count("\t") == 2


def test_expand_twice_second_run_adopts_zero(tmp_path, capsys):
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_bytes(data_path("lexicon_seed.tsv").read_bytes())
    args = ["expand",
            "--corpus", str(data_path("corpus.jsonl")),
            "--provider", str(data_path("synsets.tsv")),
            "--lexicon", str(lexicon)]
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
                "--lexicon", str(lexicon), "--interactive"]) == 0
    out = capsys.readouterr().out
    assert "هايف" in out and "oov_accepted: 1" in out
    from arasent.lexicon import load_sentiment_lexicon
    assert load_sentiment_lexicon(lexicon).lookup("هايف").polarity is Polarity.NG


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


def _fresh_python(code: str) -> str:
    """Standard output of ``code`` run in a new interpreter on this checkout."""
    src = str(Path(arasent.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    return done.stdout.strip()


def test_cli_imports_only_the_standard_library():
    assert _fresh_python(
        "import sys; before = set(sys.modules); import arasent.cli; "
        "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(new - set(sys.stdlib_module_names) - {'arasent'}))") == "[]"


def test_cli_import_leaves_expansion_and_synthetic_unloaded():
    # only `expand` needs expansion, `score`, `normalize`, `kappa` and
    # `expand` never need classifier, and no subcommand needs synthetic
    assert _fresh_python(
        "import sys, arasent.cli; print(sorted({'arasent.expansion', 'arasent.synthetic', "
        "'arasent.classifier'} & set(sys.modules)))") == "[]"


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


def test_train_takes_no_resource_flags(capsys):
    assert run(["train", "--help"]) == 0
    flags = {word.strip("[],") for word in capsys.readouterr().out.split()
             if word.startswith(("--", "[--"))}
    assert flags == {"--help", "--features", "--model", "--config", "--seed", "--reg",
                     "--epochs", "--scale"}


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

"""Command-line entry point wiring the whole pipeline.

Subcommands: normalize, expand, extract, train, predict, evaluate, kappa,
score. Exit codes, which ``run`` alone sets: 0 success, 1 usage error, 2
data or parse error; ``main`` ends a run whose stdout was closed with 0.
Resource paths resolve as flags > config file > packaged defaults; the
config file is plain ``key = value`` text with ``#`` comments.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from itertools import islice
from pathlib import Path

from . import resources
from .errors import ArasentError
from .fileio import atomic_write, read_lines, read_terms


def _parse_bool(text: str) -> bool:
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


# Every config-file key any subcommand knows, with the type of its value.
_SETTINGS = {
    **dict.fromkeys(resources.FILES, str),
    **dict.fromkeys(("seed", "epochs", "negation_window", "intensifier_window"), int),
    **dict.fromkeys(("train_frac", "dev_frac", "test_frac", "regularization"), float),
    "scale": _parse_bool, "stratify": _parse_bool,
}


def load_config_file(path) -> dict:
    """Parse ``key = value`` lines into typed values; ``#`` starts a comment."""
    values: dict = {}
    with read_terms(path) as lines:
        for line in lines:
            key, sep, value = (part.strip() for part in line.partition("="))
            if not sep:
                raise ValueError("expected key = value")
            if key not in _SETTINGS:
                raise ValueError(f"unknown key {key!r}")
            if key in values:
                raise ValueError(f"duplicate key {key!r}")
            try:
                values[key] = _SETTINGS[key](value)
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
    return values


def _resolve_config(args) -> dict:
    """The settings that a flag or the config file gives, the flag winning.
    A setting given by neither keeps the default of the type or function
    that takes it."""
    settings = load_config_file(args.config) if args.config is not None else {}
    for key in _SETTINGS:
        if getattr(args, key, None) is not None:
            settings[key] = getattr(args, key)
    return settings


def _given(settings: dict, *keys: str) -> dict:
    """The values ``settings`` holds for ``keys``."""
    return {key: settings[key] for key in keys if key in settings}


class _Pipeline:
    """The Analyzer of the feature-based subcommands, built from every resource."""

    def __init__(self, settings: dict):
        self.analyzer = resources.load(settings).analyzer(
            **_given(settings, "negation_window", "intensifier_window"))

    def labeled_vectors(self, topics) -> list:
        """The labeled vectors of the labeled topics; the others are left out."""
        from . import classifier
        from .schema import SIGN

        return [classifier.LabeledVector(self.analyzer.vector(t.text), SIGN[t.label], t.id)
                for t in topics if t.label is not None]


def _write_rows(rows, path=None) -> None:
    """Write the lines ``rows`` to ``path``, replaced atomically, or to stdout,
    1000 rows per write: under ``PYTHONUNBUFFERED=1`` each write to stdout is
    a system call."""
    rows = iter(rows)
    with atomic_write(path) if path is not None else nullcontext(sys.stdout) as out:
        while chunk := "".join(islice(rows, 1000)):
            out.write(chunk)


def _cmd_normalize(args) -> None:
    from .preprocess import normalize_text

    if args.input == "-" and sys.stdin is None:  # the process started with fd 0 closed
        raise ArasentError("<stdin> is closed")
    lines = (read_lines("<stdin>", sys.stdin.buffer) if args.input == "-"
             else read_lines(args.input))
    print(normalize_text("".join(lines)))


# The grown lexicon may replace the lexicon it grows, and its sidecar with it.
_IN_PLACE = {("the grown lexicon", "the lexicon"),
             ("the grown lexicon's .prevent sidecar", "the lexicon's .prevent sidecar")}

# The role of each resource file, as an overlap error names it.
_ROLES = {"lexicon": "the lexicon", "idioms": "the idiom lexicon",
          "stopwords": "the stopword list", "tagtable": "the tag table",
          "negators": "the negator list", "intensifiers": "the intensifier list",
          "questions": "the question term list", "wishful": "the wishful term list"}


def _inputs(args, settings: dict) -> dict:
    """Role -> path of the files a run reads whatever its other inputs: the
    config file, each resource file its subcommand has a flag for and, with
    the lexicon, its .prevent sidecar."""
    keys = [key for key in resources.FILES if key in vars(args)]
    files = {"the config file": args.config}
    files.update((_ROLES[key], resources.locate(key, settings)) for key in keys)
    if "lexicon" in keys:
        from .lexicon import prevent_path

        files["the lexicon's .prevent sidecar"] = prevent_path(files["the lexicon"])
    return files


class _UsageError(Exception):
    """A refused combination of arguments, which ``run`` ends with exit code 1."""


def _check_outputs(read: dict, written: dict) -> None:
    """Refuse, before the run opens any input, a file it would write that is
    another file of the run, a usage error; after that, one that is a
    directory or has no directory, a data error. ``read`` and ``written`` map
    each file's role to its path, or to None where the run has no such file."""
    seen: dict = {}
    for role, path in (*read.items(), *written.items()):
        if path is None:
            continue
        other = seen.setdefault(Path(path).resolve(), role)
        if other != role and role in written and (role, other) not in _IN_PLACE:
            raise _UsageError(f"{role} {path} is also {other}")
    for role, path in ((role, Path(path)) for role, path in written.items() if path is not None):
        if not path.parent.is_dir():
            raise ArasentError(f"{role} {path} has no directory {path.parent}")
        if path.is_dir():
            raise ArasentError(f"{role} {path} is a directory")


def _cmd_expand(args) -> None:
    from .evaluation import load_corpus
    from .expansion import ANSWERS, FixtureProvider, SynsetResult, expand_lexicon
    from .lexicon import load_sentiment_lexicon, prevent_path, save_sentiment_lexicon
    from .preprocess import load_stopwords, load_tag_table

    settings = _resolve_config(args)
    read = _inputs(args, settings)
    out_path = Path(args.out)
    if not out_path.name:  # "", "." or "/": no name to put the sidecars beside
        raise ArasentError(f"the grown lexicon {out_path} is a directory")
    pending = Path(out_path.with_suffix(".pending.tsv") if args.pending is None else args.pending)
    _check_outputs({**read, "the corpus": args.corpus, "the synset fixture": args.provider},
                   {"the grown lexicon": out_path,
                    "the grown lexicon's .prevent sidecar": prevent_path(out_path),
                    "the pending file": pending})
    lexicon = load_sentiment_lexicon(read["the lexicon"])
    stopwords = load_stopwords(read["the stopword list"])
    tags = load_tag_table(read["the tag table"])
    corpus = load_corpus(args.corpus)
    provider = FixtureProvider.from_file(args.provider)

    ask = None
    if args.interactive:
        def ask(word: str, syn: SynsetResult) -> str:
            print(f"word: {word}")
            if syn.translation:
                print(f"  translation: {syn.translation}")
            if syn.synonyms:
                print(f"  synonyms: {', '.join(syn.synonyms)}")
            if syn.antonyms:
                print(f"  antonyms: {', '.join(syn.antonyms)}")
            while True:
                try:
                    answer = input("  polarity? [p]ositive / [n]egative / [r]eject / [s]kip: ")
                except EOFError:  # no reviewer left: the word waits in the pending file
                    print()
                    return "skip"
                if answer.strip().lower() in ANSWERS:
                    return answer
                print("  please answer p, n, r or s")

    grown, report = expand_lexicon(corpus, lexicon, provider, tags=tags, stopwords=stopwords,
                                   pending_path=pending, ask=ask)
    save_sentiment_lexicon(grown, out_path)
    for key, value in report.counts().items():
        print(f"{key}: {value}")
    if report.adopted:
        print("adopted words: " + " ".join(report.adopted))
    print(f"lexicon written to {out_path}")


def _cmd_extract(args) -> None:
    from . import classifier
    from .evaluation import load_corpus

    settings = _resolve_config(args)
    _check_outputs({**_inputs(args, settings), "the corpus": args.corpus},
                   {"the feature file": args.out})
    pipe = _Pipeline(settings)
    corpus = load_corpus(args.corpus)
    data = pipe.labeled_vectors(corpus)
    classifier.write_svmlight(data, args.out)
    if skipped := len(corpus) - len(data):
        print(f"skipped {skipped} unlabeled topics", file=sys.stderr)
    print(f"wrote {len(data)} vectors to {args.out}")


def _train_config(settings: dict):
    from .classifier import TrainConfig

    return TrainConfig(**_given(settings, *TrainConfig._fields))


def _cmd_train(args) -> None:
    from . import classifier

    settings = _resolve_config(args)
    _check_outputs({**_inputs(args, settings), "the feature file": args.features},
                   {"the model file": args.model})
    data = classifier.read_svmlight(args.features)
    model = classifier.train(data, _train_config(settings))
    classifier.save_model(model, args.model)
    if model.gap >= classifier.TOL:
        print(f"note: stopped by the epochs cap after {model.passes} passes, before the gap "
              f"{model.gap:.3g} fell under {classifier.TOL:g}", file=sys.stderr)
    print(f"trained on {len(data)} vectors in {model.passes} passes (gap {model.gap:.3g}); "
          f"model written to {args.model}")


def _cmd_predict(args) -> None:
    from . import classifier
    from .evaluation import load_corpus
    from .schema import SIGN

    settings = _resolve_config(args)
    _check_outputs({**_inputs(args, settings), "the model file": args.model,
                    "the corpus": args.corpus}, {"the prediction file": args.out})
    pipe = _Pipeline(settings)
    model = classifier.load_model(args.model)
    corpus = load_corpus(args.corpus)
    names = {sign: polarity.value for polarity, sign in SIGN.items()}  # of each predicted label
    predicted = (classifier.predict(model, pipe.analyzer.vector(topic.text)) for topic in corpus)
    _write_rows((f"{topic.id}\t{names[label]}\t{margin:.6f}\n"
                 for topic, (label, margin) in zip(corpus, predicted)), args.out)


def _cmd_evaluate(args) -> None:
    from . import classifier
    from .evaluation import SplitSpec, format_report, genre_report, load_corpus, split_corpus
    from .schema import SIGN

    if args.grid and args.regularization is not None:
        raise _UsageError("--grid picks the regularization; drop --reg")
    settings = _resolve_config(args)
    _check_outputs({**_inputs(args, settings), "the corpus": args.corpus},
                   {"the model file": args.model_out})
    if args.grid and "regularization" in settings:  # --reg is refused, so from the file
        print(f"note: --grid picks the regularization; the one in {args.config} is not used",
              file=sys.stderr)
    pipe = _Pipeline(settings)
    corpus = load_corpus(args.corpus)
    spec = SplitSpec(**_given(settings, *SplitSpec._fields))
    train_t, dev_t, test_t = split_corpus(corpus, spec)
    train_data = pipe.labeled_vectors(train_t)
    if skipped := len(train_t) - len(train_data):
        print(f"skipped {skipped} unlabeled training topics", file=sys.stderr)
    if args.grid:
        dev_data = pipe.labeled_vectors(dev_t)
        train_cfg, model, dev_acc = classifier.grid_search(
            train_data, dev_data, config=_train_config(settings))
        print(f"grid pick: reg={train_cfg.regularization} "
              f"(dev accuracy {100 * dev_acc:.2f}%)")
    else:
        model = classifier.train(train_data, _train_config(settings))
    if args.model_out is not None:
        classifier.save_model(model, args.model_out)
    labels = (classifier.predict(model, pipe.analyzer.vector(topic.text))[0] for topic in test_t)
    polarity_of = {sign: polarity for polarity, sign in SIGN.items()}
    rows = genre_report(test_t, [polarity_of[label] for label in labels])
    if args.json:
        import json
        print(json.dumps(rows, ensure_ascii=False, indent=2))
    else:
        print(f"train/dev/test sizes: {len(train_t)}/{len(dev_t)}/{len(test_t)}")
        print(format_report(rows))


def _cmd_kappa(args) -> None:
    from .evaluation import cohen_kappa, load_ratings

    print(f"kappa: {cohen_kappa(load_ratings(args.ratings)):.6f}")


def _cmd_score(args) -> None:
    from .evaluation import load_corpus

    settings = _resolve_config(args)
    pipe = _Pipeline(settings)
    corpus = load_corpus(args.corpus)
    scored = [pipe.analyzer.rule_score(topic.text) for topic in corpus]
    _write_rows(f"{topic.id}\t{net:+g}\t{label.value}\n"
                for topic, (net, label) in zip(corpus, scored))
    agree = [label is topic.label for topic, (_, label) in zip(corpus, scored)
             if topic.label is not None]
    if agree:
        print(f"# agreement with gold: {sum(agree)}/{len(agree)} "
              f"({100 * sum(agree) / len(agree):.2f}%)", file=sys.stderr)


def _add_config_flags(parser, files=resources.FILES, hyper=False):
    parser.add_argument("--config", help="key = value config file")
    for key in files:
        parser.add_argument(f"--{key}", help=f"{key} file (default: packaged)")
    if files == resources.FILES:  # only an Analyzer reads every file, and only it the windows
        parser.add_argument("--negation-window", dest="negation_window", type=int)
        parser.add_argument("--intensifier-window", dest="intensifier_window", type=int)
    if hyper:
        parser.add_argument("--seed", type=int, help="random seed (default 42)")
        parser.add_argument("--reg", dest="regularization", type=float,
                            help="L2 regularization strength (default 1e-2)")
        parser.add_argument("--epochs", type=int,
                            help="cap on solver work in passes over all rows (default 200)")
        parser.add_argument("--scale", action="store_const", const=True,
                            help="per-slot max scaling during training")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arasent",
        description="Lexicon-based sentiment analysis for MSA and Egyptian Arabic.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("normalize", help="normalize Arabic text to canonical form")
    p.add_argument("input", help="input file, or - for stdin")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("expand", help="grow the lexicon from a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--provider", required=True, help="synset fixture TSV")
    p.add_argument("--out", required=True, help="grown lexicon; .prevent and pending go beside it")
    p.add_argument("--pending", help="pending-review file")
    p.add_argument("--interactive", action="store_true",
                   help="review out-of-vocabulary words on the terminal")
    _add_config_flags(p, files=("lexicon", "stopwords", "tagtable"))
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("extract", help="write SVM-light features for a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("train", help="train a linear model from SVM-light features")
    p.add_argument("--features", required=True)
    p.add_argument("--model", required=True)
    _add_config_flags(p, files=(), hyper=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="label a corpus with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", help="output file (default: stdout)")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="split, train and report test metrics per genre")
    p.add_argument("--corpus", required=True)
    p.add_argument("--train-frac", dest="train_frac", type=float)
    p.add_argument("--dev-frac", dest="dev_frac", type=float)
    p.add_argument("--test-frac", dest="test_frac", type=float)
    p.add_argument("--no-stratify", dest="stratify", action="store_const", const=False)
    p.add_argument("--grid", action="store_true",
                   help="pick the regularization on the dev split (--reg is refused, a "
                        "config file's one is not used); --seed, --epochs and --scale "
                        "still apply")
    p.add_argument("--model-out", help="also save the trained model")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    _add_config_flags(p, hyper=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("kappa", help="inter-annotator agreement from a ratings file")
    p.add_argument("--ratings", required=True,
                   help="TSV, one item per line, one column per rater")
    p.set_defaults(func=_cmd_kappa)

    p = sub.add_parser("score", help="rule-based net score per topic")
    p.add_argument("--corpus", required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_score)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if getattr(args, "func", None) is None:
        parser.print_usage()
        return 1
    try:
        args.func(args)
    except BrokenPipeError:  # a closed stdout is no data error: main ends the run
        raise
    except (_UsageError, ArasentError, OSError, UnicodeError) as exc:  # text that is not UTF-8
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, _UsageError) else 2
    return 0


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:  # no one reads stdout now: let the exit's own flush go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    main()

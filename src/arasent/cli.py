"""Command-line entry point wiring the whole pipeline.

Subcommands: normalize, expand, extract, train, predict, evaluate, kappa,
score. Exit codes: 0 success, 1 usage error, 2 data or parse error.
Resource paths resolve as flags > config file > packaged defaults; the
config file is plain ``key = value`` text with ``#`` comments.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import NamedTuple

from . import resources
from .errors import ArasentError, ParseError
from .evaluation import (
    SplitSpec,
    cohen_kappa,
    format_report,
    genre_report,
    load_corpus,
    load_ratings,
    split_corpus,
)
from .fileio import atomic_write, read_lines
from .lexicon import Polarity, save_sentiment_lexicon
from .preprocess import normalize_text


class RunConfig(NamedTuple):
    """Resource overrides and pipeline settings for one invocation."""

    paths: dict[str, str]  # key in resources.FILES -> file
    seed: int = 42
    train_frac: float = 0.8
    dev_frac: float = 0.1
    test_frac: float = 0.1
    regularization: float = 1e-2
    epochs: int = 200
    scale: bool = False
    stratify: bool = True
    negation_window: int = 3
    intensifier_window: int = 2

    def validate(self) -> None:
        if self.seed < 0:
            raise ArasentError(f"seed must be a non-negative integer, got {self.seed}")
        if not 0 < self.regularization < math.inf:
            raise ArasentError("regularization must be a positive finite number, "
                               f"got {self.regularization}")
        if self.epochs < 1:
            raise ArasentError(f"epochs must be a positive integer, got {self.epochs}")
        for key in ("negation_window", "intensifier_window"):
            if getattr(self, key) < 0:
                raise ArasentError(f"{key} must be a non-negative integer, "
                                   f"got {getattr(self, key)}")


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
    for line_no, line in read_lines(path):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise ParseError(path, line_no, "expected key = value")
        if key not in _SETTINGS:
            raise ParseError(path, line_no, f"unknown key {key!r}")
        try:
            values[key] = _SETTINGS[key](value)
        except ValueError as exc:
            raise ParseError(path, line_no, f"{key}: {exc}") from None
    return values


def _resolve_config(args) -> RunConfig:
    """Each setting from its flag, else the config file, else the default."""
    file_values = load_config_file(args.config) if args.config else {}
    flags = {key: getattr(args, key, None) for key in _SETTINGS}
    settings = {**file_values, **{k: v for k, v in flags.items() if v is not None}}
    config = RunConfig({k: settings.pop(k) for k in resources.FILES if k in settings},
                       **settings)
    config.validate()
    return config


class _Pipeline:
    """Shared resource loading for the feature-based subcommands."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.resources = resources.load(config.paths)
        self.analyzer = self.resources.analyzer(
            negation_window=config.negation_window,
            intensifier_window=config.intensifier_window)

    def vector(self, topic) -> tuple[float, ...]:
        return self.analyzer.vector(topic.text)

    def labeled_vectors(self, topics) -> tuple[list, int]:
        """The labeled vectors of the labeled topics, and how many were not."""
        from . import classifier

        out = []
        skipped = 0
        for t in topics:
            if t.label is None:
                skipped += 1
                continue
            label = 1 if t.label is Polarity.PO else -1
            out.append(classifier.LabeledVector(self.vector(t), label, t.id))
        return out, skipped


def _read_text(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    return "".join(line for _, line in read_lines(source))


def _cmd_normalize(args) -> int:
    print(normalize_text(_read_text(args.input)))
    return 0


def _cmd_expand(args) -> int:
    from .expansion import (CachingProvider, FixtureProvider, ReviewItem, SynsetResult,
                            expand_lexicon)

    config = _resolve_config(args)
    pipe = _Pipeline(config)
    corpus = load_corpus(args.corpus)
    provider = FixtureProvider.from_file(args.provider)
    if args.cache:
        provider = CachingProvider(provider, args.cache)
    out_path = Path(args.out) if args.out else resources.locate("lexicon", config.paths)
    pending = Path(args.pending) if args.pending else out_path.with_suffix(".pending.tsv")

    ask = None
    if args.interactive:
        def ask(item: ReviewItem, syn: SynsetResult) -> str:
            print(f"word: {item.word}")
            if syn.translation:
                print(f"  translation: {syn.translation}")
            if syn.synonyms:
                print(f"  synonyms: {', '.join(syn.synonyms)}")
            while True:
                answer = input("  polarity? [p]ositive / [n]egative / [r]eject / [s]kip: ")
                if answer.strip().lower() in ("p", "po", "n", "ng", "r", "reject", "s", "skip"):
                    return answer
                print("  please answer p, n, r or s")

    grown, report = expand_lexicon(
        corpus, pipe.resources.lexicon, provider, tags=pipe.resources.word_tags,
        stopwords=pipe.resources.stopwords, pending_path=pending, ask=ask)
    save_sentiment_lexicon(grown, out_path)
    for key, value in report.counts().items():
        print(f"{key}: {value}")
    if report.adopted:
        print("adopted words: " + " ".join(report.adopted))
    print(f"lexicon written to {out_path}")
    return 0


def _cmd_extract(args) -> int:
    from . import classifier

    config = _resolve_config(args)
    pipe = _Pipeline(config)
    corpus = load_corpus(args.corpus)
    data, skipped = pipe.labeled_vectors(corpus)
    classifier.write_svmlight(data, args.out)
    if skipped:
        print(f"skipped {skipped} unlabeled topics", file=sys.stderr)
    print(f"wrote {len(data)} vectors to {args.out}")
    return 0


def _train_config(config: RunConfig):
    from .classifier import TrainConfig

    return TrainConfig(regularization=config.regularization,
                       epochs=config.epochs, seed=config.seed, scale_max=config.scale)


def _cmd_train(args) -> int:
    from . import classifier

    config = _resolve_config(args)
    data = classifier.read_svmlight(args.features)
    model = classifier.train(data, _train_config(config))
    classifier.save_model(model, args.model)
    if model.gap >= classifier.TOL:
        print(f"note: stopped by the epochs cap after {model.passes} passes, before the gap "
              f"{model.gap:.3g} fell under {classifier.TOL:g}", file=sys.stderr)
    print(f"trained on {len(data)} vectors in {model.passes} passes (gap {model.gap:.3g}); "
          f"model written to {args.model}")
    return 0


def _cmd_predict(args) -> int:
    from . import classifier

    config = _resolve_config(args)
    pipe = _Pipeline(config)
    model = classifier.load_model(args.model)
    corpus = load_corpus(args.corpus)
    with atomic_write(args.out) if args.out else nullcontext(sys.stdout) as out:
        for topic in corpus:
            label, margin = classifier.predict(model, pipe.vector(topic))
            polarity = Polarity.PO if label > 0 else Polarity.NG
            out.write(f"{topic.id}\t{polarity.value}\t{margin:.6f}\n")
    return 0


def _cmd_evaluate(args) -> int:
    from . import classifier

    if args.grid and args.regularization is not None:
        print("error: --grid picks the regularization; drop --reg", file=sys.stderr)
        return 1
    config = _resolve_config(args)
    if args.grid and args.config and "regularization" in load_config_file(args.config):
        print(f"note: --grid picks the regularization; the one in {args.config} is not used",
              file=sys.stderr)
    pipe = _Pipeline(config)
    corpus = load_corpus(args.corpus)
    spec = SplitSpec(config.train_frac, config.dev_frac, config.test_frac,
                     seed=config.seed)
    train_t, dev_t, test_t = split_corpus(corpus, spec, stratify=config.stratify)
    train_data, skipped = pipe.labeled_vectors(train_t)
    if skipped:
        print(f"skipped {skipped} unlabeled training topics", file=sys.stderr)
    if args.grid:
        dev_data, _ = pipe.labeled_vectors(dev_t)
        train_cfg, model, dev_acc = classifier.grid_search(
            train_data, dev_data, config=_train_config(config))
        print(f"grid pick: reg={train_cfg.regularization} "
              f"(dev accuracy {100 * dev_acc:.2f}%)")
    else:
        model = classifier.train(train_data, _train_config(config))
    if args.model_out:
        classifier.save_model(model, args.model_out)
    predictions = []
    for topic in test_t:
        label, _ = classifier.predict(model, pipe.vector(topic))
        predictions.append(Polarity.PO if label > 0 else Polarity.NG)
    rows = genre_report(test_t, predictions)
    if args.json:
        import json
        print(json.dumps(rows, ensure_ascii=False, indent=2))
    else:
        print(f"train/dev/test sizes: {len(train_t)}/{len(dev_t)}/{len(test_t)}")
        print(format_report(rows))
    return 0


def _cmd_kappa(args) -> int:
    ratings = load_ratings(args.ratings)
    value = cohen_kappa(ratings)
    print(f"kappa: {value:.6f}")
    return 0


def _cmd_score(args) -> int:
    config = _resolve_config(args)
    pipe = _Pipeline(config)
    corpus = load_corpus(args.corpus)
    agree = labeled = 0
    for topic in corpus:
        net, label = pipe.analyzer.rule_score(topic.text)
        print(f"{topic.id}\t{net:+g}\t{label.value}")
        if topic.label is not None:
            labeled += 1
            if label is topic.label:
                agree += 1
    if labeled:
        print(f"# agreement with gold: {agree}/{labeled} "
              f"({100 * agree / labeled:.2f}%)", file=sys.stderr)
    return 0


def _add_config_flags(parser, resource_flags=True, hyper=False):
    parser.add_argument("--config", help="key = value config file")
    if resource_flags:
        for key in resources.FILES:
            parser.add_argument(f"--{key}", help=f"{key} file (default: packaged)")
        parser.add_argument("--negation-window", dest="negation_window", type=int)
        parser.add_argument("--intensifier-window", dest="intensifier_window", type=int)
    if hyper:
        parser.add_argument("--seed", type=int, help="random seed (default 42)")
        parser.add_argument("--reg", dest="regularization", type=float,
                            help="L2 regularization strength (default 1e-2)")
        parser.add_argument("--epochs", type=int, help="cap on solver passes (default 200)")
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
    p.add_argument("--cache", help="file-backed provider cache")
    p.add_argument("--out", help="output lexicon (default: overwrite input lexicon)")
    p.add_argument("--pending", help="pending-review file")
    p.add_argument("--interactive", action="store_true",
                   help="review out-of-vocabulary words on the terminal")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("extract", help="write SVM-light features for a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("train", help="train a linear model from SVM-light features")
    p.add_argument("--features", required=True)
    p.add_argument("--model", required=True)
    _add_config_flags(p, resource_flags=False, hyper=True)
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
        return args.func(args)
    except (ArasentError, OSError, UnicodeError) as exc:  # text that is not UTF-8
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

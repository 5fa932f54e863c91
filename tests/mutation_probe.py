"""Mutation probe: which small faults in a module its own tests miss.

Run from anywhere, naming modules of ``src/arasent``:

    python tests/mutation_probe.py lexicon.py fileio.py

Each mutant changes one site of the module: a comparison flipped (``<`` and
``<=``, ``>`` and ``>=``, ``==`` and ``!=``, ``is`` and ``is not``, ``in``
and ``not in``), ``+`` and ``-`` or ``*`` and ``/`` swapped (in augmented
assignments too), an integer constant raised by 1, or ``and`` and ``or``
swapped. The package and ``tests/`` are copied side by side once per module,
one mutant at a time is written into the package copy, and the copies of the
module's test files (``MAPPED_TESTS``) run against it with ``-x``. A
run that fails kills the mutant, and so does a run that takes 30 s more
than five times the unmutated run, since a hang is a failure the suite
shows too. A surviving mutant that ``EQUIVALENT`` does not list, with the
reason it changes no behaviour, is a new survivor: the probe then exits 1,
as it does when an entry of ``EQUIVALENT`` names no surviving mutant of a
probed module. The file name does not start with ``test_``, so pytest does
not collect it.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "arasent"

# Each module's own test files: the ones that exercise it directly.
MAPPED_TESTS = {
    "classifier.py": ["test_classifier.py"],
    "cli.py": ["test_cli.py", "test_fuzz_cli.py", "test_output_equality.py"],
    "evaluation.py": ["test_evaluation.py"],
    "expansion.py": ["test_expansion.py"],
    "features.py": ["test_features.py", "test_analyzer.py"],
    "fileio.py": ["test_fileio.py"],
    "lexicon.py": ["test_lexicon.py"],
    "preprocess.py": ["test_preprocess.py"],
    "resources.py": ["test_preprocess.py", "test_lexicon.py", "test_analyzer.py",
                     "test_synthetic.py"],
    "schema.py": ["test_classifier.py", "test_features.py", "test_lexicon.py",
                  "test_expansion.py"],
    "synthetic.py": ["test_synthetic.py"],
}

# Surviving mutants that change no behaviour, by id (see ``_mutants``), each
# with the reason.
EQUIVALENT = {
    # classifier.py: the pass loop keeps min/max's choice on a tie, and no
    # value in it is -0.0, so a tie picks an equal value either way
    "classifier.py train: g > 0.0 -> g >= 0.0": "at g = 0.0 the projected gradient is 0.0 "
        "either way",
    "classifier.py train: g < 0.0 -> g <= 0.0": "at g = 0.0 the projected gradient is 0.0 "
        "either way",
    "classifier.py train: pg > hi -> pg >= hi": "on a tie hi keeps an equal value",
    "classifier.py train: pg < lo -> pg <= lo": "on a tie lo keeps an equal value",
    "classifier.py train: b < 0.0 -> b <= 0.0": "at b = 0.0 the clip sets the same 0.0",
    "classifier.py train: b > c -> b >= c": "at b = C the clip sets the same C",
    "classifier.py train: b > peak -> b >= peak": "on a tie peak keeps an equal value",
    "classifier.py train: gap >= TOL -> gap > TOL": "differs only when a pass's gap is "
        "exactly 1e-3, a tie that no fit in the tests reaches",
    "classifier.py train: N_SLOTS + 1 -> N_SLOTS + 2": "a trailing scale factor that no "
        "row indexes, and zip stops at the shorter list",
    "classifier.py train: N_SLOTS + 1 -> N_SLOTS + 2 #2": "a trailing column maximum that "
        "no row indexes, and zip stops at the shorter list",
    "classifier.py train: N_SLOTS + 1 -> N_SLOTS + 2 #3": "a trailing weight that no row "
        "indexes, and zip stops at the shorter list",
    "cli.py _cmd_train: model.gap >= classifier.TOL -> model.gap > classifier.TOL": "differs "
        "only when the gap is exactly 1e-3, as in classifier.train",
    "evaluation.py SplitSpec.validate: abs(sum(fracs) - 1.0) > 1e-09 -> abs(sum(fracs) - "
    "1.0) >= 1e-09": "differs only when the sum is off by exactly 1e-9",
    "expansion.py expand_lexicon: 1 if ask else -1 -> 1 if ask else -2": "any negative "
        "buffering selects the default buffer",
    "features.py _resolve_conflicts: shifted[k] * shifted[k + 1] < 0 -> shifted[k] * "
    "shifted[k + 1] <= 0": "a word at a hit has a nonzero value, so the product is never 0",
    "features.py _resolve_conflicts: shifted[k] * shifted[k + 1] < 0 -> shifted[k] * "
    "shifted[k + 1] < 1": "the values are nonzero integers, so the product is never 0",
    "features.py _resolve_conflicts: shifted[k] * shifted[k + 1] -> shifted[k] / "
    "shifted[k + 1]": "a quotient of two nonzero values has the sign of their product",
    "features.py Analyzer.__init__: entry.phrase[0] -> entry.phrase[1]": "an idiom has at "
        "least two words, so a sentence holding one still passes the gate",
    "features.py Analyzer._walk: len(hits) > 1 -> len(hits) >= 1": "one hit has no "
        "neighbour to conflict with",
    "fileio.py atomic_write: os.urandom(4) -> os.urandom(5)": "only the temporary file's "
        "name gets longer",
    "lexicon.py <module>: _BLOCK_TOPICS = 64 -> _BLOCK_TOPICS = 65": "the block size only "
        "bounds how many topic texts one count joins",
    "synthetic.py _finish: rng.random() < 0.2 -> rng.random() <= 0.2": "random() returns "
        "a multiple of 2**-53, and the float 0.2 is an odd multiple of 2**-54",
}

_SWAP = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Add: ast.Sub, ast.Sub: ast.Add,
    ast.Mult: ast.Div, ast.Div: ast.Mult, ast.And: ast.Or, ast.Or: ast.And,
}


def _sites(tree: ast.Module):
    """(scope, context node, apply) for each mutable site, in source order.
    ``apply`` mutates the tree in place and returns the function undoing it;
    the context is the node whose source names the site."""

    def replace(node, field, new):
        def apply():
            old = getattr(node, field)
            setattr(node, field, new)
            return lambda: setattr(node, field, old)
        return apply

    def visit(node, scope, parent, grandparent):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in _SWAP:
                    ops = node.ops[:i] + [_SWAP[type(op)]()] + node.ops[i + 1:]
                    yield scope, node, replace(node, "ops", ops)
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)):
            if type(node.op) in _SWAP:
                yield scope, node, replace(node, "op", _SWAP[type(node.op)]())
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            named_by = (ast.UnaryOp, ast.Tuple, ast.List)  # too little to name the site
            context = grandparent if isinstance(parent, named_by) else parent
            yield scope, context, replace(node, "value", node.value + 1)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope, node, parent)

    yield from visit(tree, "<module>", None, None)


def _source_line(node) -> str:
    return ast.unparse(node).splitlines()[0]


def _mutants(module: str):
    """(id, mutated source) of each mutant of ``module``. The id reads
    ``<module> <scope>: <context> -> <mutated context>``, with `` #n`` added
    to the n-th of equal ids, so it holds while other lines move."""
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    seen: dict[str, int] = {}
    for scope, context, apply in list(_sites(tree)):
        before = _source_line(context)
        undo = apply()
        key = f"{module} {scope}: {before} -> {_source_line(context)}"
        source = ast.unparse(tree)
        undo()
        seen[key] = seen.get(key, 0) + 1
        yield (key if seen[key] == 1 else f"{key} #{seen[key]}"), source


def _test_paths(copy: Path, module: str) -> list[Path]:
    """The copies in ``copy`` of the module's test files."""
    return [(copy / "tests" / name).resolve() for name in MAPPED_TESTS[module]]


def _run_tests(copy: Path, module: str, timeout: float) -> bool:
    """True when the copies of the module's test files pass against the
    package in ``copy``; a run past ``timeout`` seconds is killed and counts
    as failed."""
    env = {**os.environ, "PYTHONPATH": str(copy), "PYTHONDONTWRITEBYTECODE": "1"}
    tests = [str(path) for path in _test_paths(copy, module)]
    with tempfile.TemporaryDirectory() as cwd:  # hypothesis keeps its examples here
        proc = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *tests],
            cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True)
        try:
            return proc.wait(timeout=timeout) == 0
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # its own child processes too
            proc.wait()
            return False


def probe(module: str) -> tuple[list[str], int]:
    """The ids of the mutants of ``module`` that survive, and how many there were."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp).resolve()
        # the tests and the code they judge come from one moment of the tree
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
        shutil.copytree(PACKAGE, copy / "arasent", ignore=skip)
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=skip)
        outside = [path for path in _test_paths(copy, module) if not path.is_relative_to(copy)]
        if outside:
            sys.exit(f"{module}: the test file {outside[0]} is not in the copy")
        found = subprocess.run(
            [sys.executable, "-c", "import arasent; print(arasent.__file__)"],
            env={**os.environ, "PYTHONPATH": str(copy)}, capture_output=True, text=True,
            check=True).stdout.strip()
        if not Path(found).is_relative_to(copy):
            sys.exit(f"the tests would import arasent from {found}, not from the copy")
        start = time.monotonic()
        if not _run_tests(copy, module, timeout=None):
            sys.exit(f"{module}: its tests fail before any mutation")
        limit = 30 + 5 * (time.monotonic() - start)
        target = copy / "arasent" / module
        survivors, total = [], 0
        for key, source in _mutants(module):
            total += 1
            target.write_text(source, encoding="utf-8")
            if _run_tests(copy, module, limit):
                survivors.append(key)
                print(("equivalent: " if key in EQUIVALENT else "SURVIVED: ") + key,
                      flush=True)
    return survivors, total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", choices=sorted(MAPPED_TESTS), metavar="module")
    args = parser.parse_args()
    failed = False
    for module in args.modules:
        start = time.monotonic()
        survivors, total = probe(module)
        new = [key for key in survivors if key not in EQUIVALENT]
        stale = [key for key in EQUIVALENT if key.split(" ", 1)[0] == module
                 and key not in survivors]
        for key in stale:
            print(f"STALE: {key} is listed as equivalent, but no mutant by that id "
                  "survives", flush=True)
        print(f"{module}: {total} mutants, {len(survivors)} survive, {len(new)} new; "
              f"{time.monotonic() - start:.0f} s", flush=True)
        failed = failed or bool(new or stale)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

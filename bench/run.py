"""Benchmark of the arasent CLI: end-to-end figures and per-layer spans.

Usage (from the repository root):

    python3 bench/run.py --workload featurize-bulk --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload train-grid --seed 1 --seconds 3 --quick
    python3 bench/run.py --self-test

Each CLI call runs in a fresh ``python3 -m arasent.cli`` subprocess, one at
a time (a closed loop with a single client). A run generates the
workload's inputs from ``--seed``, makes its untimed set-up calls and one
untimed warm-up call, then:

- with ``--trace 0``, times the workload's subcommands on an empty corpus
  (``setup_s``) and repeats timed passes over the workload's calls for
  ``--seconds``, reporting the end-to-end metrics;
- with ``--trace 1``, alternates untraced passes with passes run through
  ``bench/traced_cli.py``, reporting the per-layer metrics.

Every call's exit code, stderr and outputs are checked, and output digests
must repeat exactly across passes. The last stdout line is the result
object ``{"correct", "attempted", "failed", "metrics"}``; the line before
it is a record with the environment, input properties, digests and the
per-call figures. The same record is kept in ``.bench_run/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_BUDGET_S = 170      # a run must end within 180 s
SETUP_PER_PASS = 2      # empty-corpus calls behind setup_s, after each pass


@dataclass
class CallResult:
    wall_s: float
    rss_mb: float
    ok: bool
    measures: dict


class Runner:
    """Runs CLI calls one at a time, checks them and counts failures."""

    def __init__(self, deadline: float):
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[str, dict[str, str]] = {}

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def run(self, call, span_stem=None) -> CallResult:
        from workloads import CheckFailed, sha256

        if call.prepare:
            call.prepare()
        if span_stem is None:
            argv = [sys.executable, "-m", "arasent.cli", *call.argv]
        else:
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(span_stem), *call.argv]
        self.attempted += 1
        with open(call.stdout, "wb") as out, open(call.stderr, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    cwd=ROOT, env=self.env)
            killer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = CallResult(wall, usage.ru_maxrss / 1024, False, {})
        stderr = call.stderr.read_text(encoding="utf-8", errors="replace")
        try:
            if proc.returncode != call.expect_rc:
                raise CheckFailed(f"exit code {proc.returncode}, expected {call.expect_rc}: "
                                  f"{stderr.strip()[-300:]}")
            if "Traceback" in stderr:
                raise CheckFailed("traceback on stderr")
            if call.expect_rc and not stderr.startswith("error: "):
                raise CheckFailed("no one-line error on stderr")
            if call.check:
                result.measures = call.check(call)
            seen = self.digests.setdefault(call.role, {})
            for label, path in call.outputs.items():
                digest = sha256(path)
                if seen.setdefault(label, digest) != digest:
                    raise CheckFailed(f"{label} output differs from the first pass")
        except Exception as exc:  # any broken output is a failed call, not a crash
            self.fail(f"{call.role}: {type(exc).__name__}: {exc}")
            return result
        result.ok = True
        return result


def _dir_digests(directory: Path) -> dict[str, str]:
    from workloads import sha256
    return {p.name: sha256(p) for p in sorted(directory.iterdir()) if p.is_file()}


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "arasent").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    from importlib.metadata import PackageNotFoundError, version
    try:
        numpy_version = version("numpy")
    except PackageNotFoundError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "commit": _commit(), "source_sha256": _source_digest()}


def summary(values: list[float], higher_is_better: bool) -> dict:
    """Median, the worst value (too few samples for a tail percentile) and n."""
    worst = min(values) if higher_is_better else max(values)
    return {"median": statistics.median(values), "worst": worst, "n": len(values)}


def generate_inputs(wl, directory: Path) -> dict:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    return wl.generate(directory)


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool,
                 work_root: Path) -> tuple[dict, dict]:
    from spans import CallProfile, layer_metrics
    from workloads import SIZES, WORKLOADS

    start = time.monotonic()
    runner = Runner(start + RUN_BUDGET_S)
    work = work_root / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    wl = WORKLOADS[name](work, seed, SIZES["quick" if quick else "full"])

    # the same seed must give byte-identical inputs
    generate_inputs(wl, work / "inputs-again")
    properties = generate_inputs(wl, wl.inputs)
    input_digests = _dir_digests(wl.inputs)
    runner.attempted += 1
    if _dir_digests(work / "inputs-again") != input_digests:
        runner.fail("inputs: the same seed generated different bytes")
    shutil.rmtree(work / "inputs-again")
    wl.out.mkdir()

    for call in wl.setup():
        runner.run(call)
    calls = wl.pass_calls()
    runner.run(calls[0])  # warm-up: bytecode and page caches

    passes: list[list[CallResult]] = []
    traced_passes: list[list[CallResult]] = []
    profiles = []
    spans_dir = work / "spans"
    spans_dir.mkdir()
    setup_calls = [] if trace else wl.setup_calls()
    setup_walls: list[float] = []
    loop_start = time.monotonic()
    last_pass_s = 0.0
    # stop when the next pass would probably end past --seconds
    while (not passes or (trace and not traced_passes)
           or time.monotonic() - loop_start + last_pass_s / 2 < seconds):
        if time.monotonic() > runner.deadline or runner.failed:
            break
        pass_start = time.monotonic()
        traced_pass = trace and len(passes) > len(traced_passes)
        results = []
        for call in calls:
            stem = spans_dir / f"p{len(traced_passes)}-{call.role}" if traced_pass else None
            results.append(runner.run(call, stem))
            if stem is not None and results[-1].ok:
                profiles.append(CallProfile(stem))
        (traced_passes if traced_pass else passes).append(results)
        # Set-up cost is sampled across the whole run, so that its median
        # sees the same mix of machine speeds as the passes do.
        for _ in range(SETUP_PER_PASS if setup_calls else 0):
            call = setup_calls[len(setup_walls) % len(setup_calls)]
            setup_walls.append(runner.run(call).wall_s)
        last_pass_s = time.monotonic() - pass_start

    def walls(pass_list):
        return [sum(r.wall_s for r in p) for p in pass_list]

    metrics: dict = {}
    figures: dict = {}
    call_walls: dict = {}
    for i, call in enumerate(calls):
        results = [p[i] for p in passes if p[i].ok]
        if not results:
            continue
        if wl.per_call == "throughput":
            figures[f"{call.role}_topics_per_s"] = {
                **summary([call.topics / r.wall_s for r in results], True),
                "unit": "topics/s"}
        else:
            figures[f"{call.role.replace('-', '_')}_s"] = {
                **summary([r.wall_s for r in results], False), "unit": "s"}
        call_walls[call.role] = [r.wall_s for r in results]
        for key, value in results[0].measures.items():
            figures[key] = {"value": value, "unit": "fraction"}
    if passes:
        figures["peak_rss_mb"] = {
            **summary([max(r.rss_mb for r in p) for p in passes], False), "unit": "MB"}
    figures["failed_frac"] = {"value": runner.failed / runner.attempted, "unit": "fraction"}

    if trace:
        if profiles and not runner.failed:
            for key, (value, unit) in layer_metrics(profiles, walls(traced_passes),
                                                    walls(passes)).items():
                metrics[key] = {"value": value, "unit": unit}
    elif not runner.failed:
        figures["setup_s"] = {**summary(setup_walls, False), "unit": "s"}
        role, key = wl.accuracy
        accuracy_call = [c.role for c in calls].index(role)
        metrics = {
            "setup_s": {"value": statistics.median(setup_walls), "unit": "s"},
            "topics_per_s": {"value": statistics.median(
                sum(c.topics for c in calls) / w for w in walls(passes)), "unit": "topics/s"},
            "peak_rss_mb": {"value": figures["peak_rss_mb"]["median"], "unit": "MB"},
            "label_accuracy": {"value": passes[0][accuracy_call].measures[key],
                               "unit": "fraction"},
        }

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "quick": quick, "environment": environment(), "inputs": properties,
        "input_sha256": input_digests, "output_sha256": runner.digests,
        "passes": len(passes), "traced_passes": len(traced_passes),
        "figures": figures, "call_walls_s": call_walls, "errors": runner.errors,
    }
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    shutil.rmtree(work)
    return record, result


def print_figures(record: dict) -> None:
    for key, fig in record["figures"].items():
        if "median" in fig:
            print(f"{record['workload']:<15} {key:<28} median {fig['median']:.6g} "
                  f"worst {fig['worst']:.6g} n={fig['n']} {fig['unit']}")
        else:
            print(f"{record['workload']:<15} {key:<28} {fig['value']:.6g} {fig['unit']}")
    for error in record["errors"]:
        print(f"{record['workload']:<15} FAILED {error}")


def self_test(work_root: Path) -> int:
    """Same seed, same bytes; another seed, other bytes; then a quick run of
    every workload, whose metric names must match BENCHMARK.json."""
    from workloads import SIZES, WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for name, cls in WORKLOADS.items():
        digests = []
        for seed in (7, 7, 8):
            wl = cls(work_root / "self-test" / name, seed, SIZES["quick"])
            generate_inputs(wl, wl.inputs)
            digests.append(_dir_digests(wl.inputs))
        if digests[0] != digests[1]:
            problems.append(f"{name}: seed 7 generated different bytes twice")
        if digests[0] == digests[2]:
            problems.append(f"{name}: seeds 7 and 8 generated the same bytes")
        for trace, wanted in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            record, result = run_workload(name, 7, 1, trace, True, work_root)
            print_figures(record)
            if not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: {record['errors']}")
            if set(result["metrics"]) != {m["name"] for m in wanted}:
                problems.append(f"{name} trace={int(trace)}: metric names differ from "
                                "BENCHMARK.json")
    shutil.rmtree(work_root / "self-test", ignore_errors=True)
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    print("self-test: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="small inputs, for smoke tests")
    parser.add_argument("--self-test", action="store_true",
                        help="check input determinism and run every workload in quick mode")
    args = parser.parse_args(argv)

    if not (SRC / "arasent" / "cli.py").is_file():
        print(f"error: no arasent sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work_root = ROOT / ".bench_run"
    if args.self_test:
        return self_test(work_root)

    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    record, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                  args.quick, work_root)
    results_dir = work_root / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1), encoding="utf-8")
    print_figures(record)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""CLI benchmark for gecaug: three workloads run the way users run them.

    python3 benchmarks/run.py --workload corpus-analysis --seed 1 --seconds 30 --trace 0

Each workload is a list of ``python -m gecaug <stage>`` processes run one
after another on inputs generated from ``--seed``. A round runs every
stage once and then checks every output (see workloads.py). Rounds repeat
while the next one, at the mean round time so far, ends within
``--seconds``; there is always at least one. The run reports medians over
rounds.

``--trace 0`` prints the end-to-end metrics:

* setup_s      median of three set-ups: generate the inputs, start the
               services, run one interpreter that imports gecaug (so that
               bytecode compilation lands here, not in the first stage)
* wall_s       first stage start to last stage exit, per round
* cpu_s        user + system CPU of the round's stage processes
* peak_rss_mb  largest max-RSS of any one stage process in the round

``--trace 1`` runs one untraced and one traced round and prints the
per-layer metrics (see tracing.py and README.md).

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. An operation is one stage invocation; it fails on a non-zero exit
or a failed check. Stage processes see a fixed environment, the same on
every run, whatever the benchmark itself inherited.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

import tracing
from services import RemoteServices
from workloads import WORKLOADS, Context, Stage

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".bench_runs")
SETUPS = 3
STAGE_TIMEOUT_S = 150
STAGES = ("extract", "stats", "score", "pool", "sample", "synthesize", "denoise", "mix")

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.import_s": "s",
    **{f"cli.stage.{name}.wall_s": "s" for name in STAGES},
    "align.calls": "count", "align.cells": "count", "align.s": "s", "align.us_per_cell": "us",
    "patterns.build_pool.self_s": "s", "patterns.sample.calls": "count",
    "patterns.sample.s": "s", "patterns.draws_per_sample": "ratio",
    "patterns.load_pool.s": "s",
    "generation.calls": "count", "generation.s": "s", "generation.refused": "count",
    "http.calls": "count", "http.wait_p50_ms": "ms", "http.wait_p95_ms": "ms",
    "http.cpu_ms_per_call": "ms", "http.retries": "count", "http.in_flight_mean": "ratio",
    "service.requests": "count", "service.delay_s": "s",
    "synthesis.s": "s", "synthesis.self_s": "s", "synthesis.attempts": "count",
    "synthesis.attempts_per_sample": "ratio", "synthesis.match_ratio": "ratio",
    "denoise.s": "s", "denoise.self_s": "s", "denoise.calls": "count",
    "denoise.in_flight_mean": "ratio", "denoise.corrector_init_s": "s",
    "corpus.read.rows": "count", "corpus.read_s": "s",
    "corpus.write.rows": "count", "corpus.write_s": "s",
    "mix.calls": "count", "mix.s": "s", "mix.rows_parsed_per_input_row": "ratio",
    "scoring.score.self_s": "s", "scoring.distribution.s": "s",
    "trace.overhead_s": "s",
}


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


def stage_env(extra: dict[str, str]) -> dict[str, str]:
    """The whole environment of every stage process."""
    return {
        "PATH": os.path.dirname(sys.executable) + ":/usr/bin:/bin",
        "PYTHONPATH": SRC,
        "PYTHONHASHSEED": "0",
        "LC_ALL": "C.UTF-8",
        "HOME": RUNS,
        **extra,
    }


def _import_seconds(env: dict[str, str]) -> float:
    """A fresh interpreter's ``import gecaug``, timed inside it."""
    code = "import time; t = time.perf_counter(); import gecaug; print(time.perf_counter() - t)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=STAGE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SetupError(f"cannot import gecaug from {SRC}: {proc.stderr.strip()}")
    return float(proc.stdout)


class Run:
    """One workload in one run directory: set-up, rounds and their checks."""

    def __init__(self, workload, seed: int, root: str):
        self.workload = workload
        self.seed = seed
        self.root = root
        self.services: RemoteServices | None = None
        self.ctx: Context | None = None
        self.stages: list[Stage] = workload.stages(seed, workload.sizes)
        self.attempted = 0
        self.failed = 0
        self.first_hashes: dict[str, str] | None = None
        self.deterministic = True

    def setup(self) -> float:
        """Inputs, services and a warm-up import; returns seconds taken."""
        start = time.perf_counter()
        in_dir = os.path.join(self.root, "in")
        shutil.rmtree(in_dir, ignore_errors=True)
        os.makedirs(in_dir)
        facts = self.workload.make_inputs(in_dir, self.seed, self.workload.sizes)
        if self.services is not None:
            self.services.stop()
            self.services = None
        if self.workload.remote:
            self.services = RemoteServices().start()
        self.env = stage_env(self.services.env() if self.services else {})
        _import_seconds(self.env)
        self.ctx = Context(self.root, facts, self.workload.sizes, self.services)
        return time.perf_counter() - start

    def close(self) -> None:
        if self.services is not None:
            self.services.stop()

    def _spawn(self, argv: list[str], name: str):
        """Run one stage process; returns (exit code, wall s, rusage)."""
        out_dir = os.path.join(self.root, "out")
        with open(os.path.join(out_dir, f"{name}.stdout"), "wb") as stdout, \
                open(os.path.join(out_dir, f"{name}.stderr"), "wb") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.root, env=self.env, stdout=stdout, stderr=stderr
            )
            timer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, time.perf_counter() - start, usage

    def round(self, traced: bool = False) -> dict:
        """Run every stage once, then check and hash the outputs."""
        out_dir = os.path.join(self.root, "out")
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        spans_dir = os.path.join(self.root, "spans")
        if traced:
            os.makedirs(spans_dir, exist_ok=True)
        if self.services is not None:
            self.services.reset_counts()
        exits: dict[str, int] = {}
        stage_wall: dict[str, float] = {}
        peak_kb = 0
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        for stage in self.stages:
            if traced:
                spans = os.path.join(spans_dir, f"{stage.name}.json")
                prefix = [sys.executable, os.path.join(HERE, "tracing.py"), spans]
            else:
                prefix = [sys.executable, "-m", "gecaug"]
            code, wall, usage = self._spawn([*prefix, stage.name, *stage.args], stage.name)
            exits[stage.name] = code
            stage_wall[stage.name] = wall
            peak_kb = max(peak_kb, usage.ru_maxrss)
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)

        for stage in self.stages:
            self.attempted += 1
            problems = self._check(stage, exits[stage.name])
            if problems:
                self.failed += 1
                print(f"FAILED {stage.name}: " + "; ".join(problems[:5]), file=sys.stderr)
        hashes = self._hashes(out_dir)
        if self.first_hashes is None:
            self.first_hashes = hashes
        elif hashes != self.first_hashes:
            self.deterministic = False
            print("FAILED determinism: outputs differ from the first round", file=sys.stderr)
        return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_kb / 1024.0,
                "stage_wall": stage_wall}

    def _check(self, stage: Stage, code: int) -> list[str]:
        if code != 0:
            with open(os.path.join(self.root, "out", f"{stage.name}.stderr"),
                      encoding="utf-8", errors="replace") as fh:
                tail = fh.read().strip().splitlines()[-1:]
            return [f"exit code {code}", *tail]
        try:
            return stage.check(self.ctx)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"output unreadable: {exc!r}"]

    @staticmethod
    def _hashes(out_dir: str) -> dict[str, str]:
        hashes = {}
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as fh:
                hashes[name] = hashlib.sha256(fh.read()).hexdigest()
        return hashes


def measure(run: Run, seconds: float) -> dict[str, float]:
    setups = [run.setup() for _ in range(SETUPS)]
    rounds = []
    start = time.perf_counter()
    # Whole rounds only: start another while it should end within the run.
    while not rounds or (time.perf_counter() - start) * (len(rounds) + 1) / len(rounds) <= seconds:
        rounds.append(run.round())
    print(f"{len(rounds)} rounds: " + ", ".join(f"{r['wall_s']:.3f}" for r in rounds),
          file=sys.stderr)
    metrics = {"setup_s": statistics.median(setups)}
    for key in ("wall_s", "cpu_s", "peak_rss_mb"):
        metrics[key] = statistics.median(r[key] for r in rounds)
    return metrics


def trace(run: Run) -> dict[str, float]:
    run.setup()
    import_s = statistics.median(_import_seconds(run.env) for _ in range(3))
    plain = run.round()
    traced = run.round(traced=True)
    spans_dir = os.path.join(run.root, "spans")
    stage_spans = {
        s.name: tracing.Spans(os.path.join(spans_dir, f"{s.name}.json")) for s in run.stages
    }
    facts = {
        "service.requests": 0, "service.delay_s": 0.0, "synthesis.samples": 0,
        "synthesis.patterns_matched": 0, "synthesis.patterns_requested": 0,
        "mix.input_rows": 0,
    }
    if run.services is not None:
        for service in (run.services.generator, run.services.corrector):
            facts["service.requests"] += service.requests
            facts["service.delay_s"] += service.delay_s
    stats_path = os.path.join(run.root, "out", "syn.jsonl.stats.json")
    if os.path.exists(stats_path):
        with open(stats_path, encoding="utf-8") as fh:
            stats = json.load(fh)
        facts["synthesis.samples"] = stats["samples"]
        facts["synthesis.patterns_matched"] = stats["patterns"]["matched"]
        facts["synthesis.patterns_requested"] = stats["patterns"]["requested"]
    if any(s.name == "mix" for s in run.stages):
        facts["mix.input_rows"] = run.workload.sizes["real"] + run.workload.sizes["count"]
    metrics = {"cli.import_s": import_s}
    for name in STAGES:
        metrics[f"cli.stage.{name}.wall_s"] = plain["stage_wall"].get(name, 0.0)
    metrics.update(tracing.layer_metrics(stage_spans, facts))
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gecaug", "__init__.py")):
        print(f"benchmark: no gecaug sources under {SRC}", file=sys.stderr)
        return 2
    root = os.path.join(RUNS, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(root)
    run = Run(WORKLOADS[args.workload], args.seed, root)
    try:
        if args.trace:
            metrics, units = trace(run), PER_LAYER
        else:
            metrics, units = measure(run, args.seconds), END_TO_END
    except SetupError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    finally:
        run.close()
        shutil.rmtree(root, ignore_errors=True)
    result = {
        "correct": run.failed == 0 and run.deterministic,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: their inputs, their stages and their checks.

A workload is a list of CLI stages run in order, each followed by a check
of its outputs. Checks compare against what the input generator planted or
against computations made here, apart from the program; none compares with
a stored copy of earlier output. A check returns a list of problems, empty
when the output is right.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import inputs
from services import RemoteServices


@dataclass
class Context:
    """What a check can see: the run directory, the facts the input
    generator planted, the stage's captured stdout, the workload sizes and
    the services."""

    root: str
    facts: dict
    sizes: dict
    services: RemoteServices | None = None

    def path(self, rel: str) -> str:
        return os.path.join(self.root, rel)

    def stdout(self, stage: str) -> str:
        with open(self.path(f"out/{stage}.stdout"), encoding="utf-8") as fh:
            return fh.read()


@dataclass
class Stage:
    name: str
    args: list[str]
    check: Callable[[Context], list[str]]


@dataclass
class Workload:
    name: str
    sizes: dict
    make_inputs: Callable[[str, int, dict], dict]
    stages: Callable[[int, dict], list[Stage]]
    remote: bool = False


# ---------------------------------------------------------------------------
# Readers the checks use. They parse the program's files here, with no
# help from the program's own readers.

def _read_rows(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _pool_rows(path: str) -> list[tuple[tuple, tuple, int]]:
    return [
        (tuple(r["wrong"]), tuple(r["correct"]), r["count"]) for r in _read_rows(path)
    ]


def _pool_counts(path: str) -> dict[tuple, int]:
    counts: dict[tuple, int] = {}
    for wrong, correct, count in _pool_rows(path):
        counts[(wrong, correct)] = counts.get((wrong, correct), 0) + count
    return counts


def _manifest_counts(path: str) -> dict:
    with open(path + ".manifest.json", encoding="utf-8") as fh:
        return json.load(fh)["counts"]


def _diff(label: str, got, want) -> list[str]:
    return [] if got == want else [f"{label}: got {got!r}, want {want!r}"]


# ---------------------------------------------------------------------------
# Independent computations

def _average_ranks(values: list[float]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def _pearson(x: list[float], y: list[float]) -> float:
    mx, my = sum(x) / len(x), sum(y) / len(y)
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy)


def distribution(reference: dict, candidate: dict, top_k: int) -> dict:
    """Cosine and Spearman over the reference's top-k, ties lexicographic."""
    head = sorted(reference, key=lambda p: (-reference[p], p[0], p[1]))[:top_k]
    ref = [float(reference[p]) for p in head]
    cand = [float(candidate.get(p, 0)) for p in head]
    norm = math.sqrt(sum(v * v for v in ref)) * math.sqrt(sum(v * v for v in cand))
    cosine = sum(a * b for a, b in zip(ref, cand)) / norm if norm else 0.0
    if len(head) < 2 or len(set(ref)) == 1 or len(set(cand)) == 1:
        spearman = 0.0
    else:
        spearman = _pearson(_average_ranks(ref), _average_ranks(cand))
    return {"cosine": cosine, "spearman": spearman, "top_k": len(head)}


def _restore(source: list[str], planted: list[dict]) -> list[str]:
    out = list(source)
    for entry in sorted(planted, key=lambda e: e["span"], reverse=True):
        a, b = entry["span"]
        out[a:b] = entry["correct"]
    return out


def _check_samples(rows: list[dict], count: int, sendable: set) -> tuple[list[str], int]:
    """Shared synthesize checks. Returns (problems, errorful count)."""
    problems = _diff("rows", len(rows), count)
    problems += _diff("ids", [r["id"] for r in rows], [str(i) for i in range(len(rows))])
    errorful = 0
    for r in rows:
        source, target = r["source"].split(" "), r["target"].split(" ")
        for entry in r["planted"]:
            a, b = entry["span"]
            if source[a:b] != entry["wrong"]:
                problems.append(f"row {r['id']}: planted span {a}:{b} lacks its wrong side")
        if _restore(source, r["planted"]) != target:
            problems.append(f"row {r['id']}: restoring planted spans does not give the target")
        for p in r["requested"]:
            if (tuple(p["wrong"]), tuple(p["correct"])) not in sendable:
                problems.append(f"row {r['id']}: requested pattern not in the pool")
        errorful += source != target
    return problems, errorful


def _binomial_problems(errorful: int, count: int, rate: float) -> list[str]:
    sigma = math.sqrt(count * rate * (1 - rate))
    if abs(errorful - count * rate) > 4 * sigma:
        return [f"errorful {errorful} is over 4 sigma from Binomial({count}, {rate})"]
    return []


def _check_relabel(ctx: Context, corrected: Callable[[dict], str]) -> list[str]:
    """``corrected(row)`` is the target relabeling must give a synthesize row."""
    count = ctx.sizes["count"]
    syn = {r["id"]: r for r in _read_rows(ctx.path("out/syn.jsonl"))}
    rows = _read_rows(ctx.path("out/den.jsonl"))
    problems = _diff("rows", len(rows), count)
    for r in rows:
        s = syn.get(r["id"])
        if s is None or (r["source"], r["target"]) != (s["source"], corrected(s)):
            problems.append(f"row {r['id']}: relabeled pair is wrong")
    want = {
        "pairs": count,
        "matches_target": sum(corrected(s) == s["target"] for s in syn.values()),
        "matches_source": sum(corrected(s) == s["source"] for s in syn.values()),
    }
    return problems + _diff("manifest counts", _manifest_counts(ctx.path("out/den.jsonl")), want)


# ---------------------------------------------------------------------------
# corpus-analysis

TOP_K = 20


def _check_extract(ctx: Context) -> list[str]:
    planted = ctx.facts["planted"]
    got = _pool_counts(ctx.path("out/pool.jsonl"))
    problems = _diff("pool total", sum(got.values()), sum(planted.values()))
    return problems + _diff("pool counts", got, planted)


def _check_stats(ctx: Context) -> list[str]:
    got = json.loads(ctx.stdout("stats").strip().splitlines()[-1])
    want = distribution(ctx.facts["planted"], ctx.facts["candidate_planted"], TOP_K)
    problems = _diff("top_k", got.get("top_k"), want["top_k"])
    for key in ("cosine", "spearman"):
        if not isinstance(got.get(key), float) or abs(got[key] - want[key]) > 1e-9:
            problems.append(f"{key}: got {got.get(key)!r}, want {want[key]!r}")
    return problems


def _check_score(ctx: Context) -> list[str]:
    facts = ctx.facts
    tp, fp, fn = facts["tp"], facts["fp"], facts["fn"]
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f05 = 1.25 * precision * recall / (0.25 * precision + recall) if precision + recall else 0.0
    want = [
        f"TP {tp}", f"FP {fp}", f"FN {fn}",
        f"Precision {precision:.4f}", f"Recall {recall:.4f}", f"F0.5 {f05:.4f}",
    ]
    return _diff("score head", ctx.stdout("score").splitlines()[:6], want)


def _corpus_analysis_stages(seed: int, sizes: dict) -> list[Stage]:
    return [
        Stage("extract", ["--in", "in/learner.tsv", "--n", "1", "--out", "out/pool.jsonl"],
              _check_extract),
        Stage("stats", ["--ref-pool", "out/pool.jsonl", "--corpus", "in/candidate.tsv",
                        "--n", "1", "--top-k", str(TOP_K)], _check_stats),
        Stage("score", ["--hyp", "in/hyp.tsv", "--gold", "in/gold.m2"], _check_score),
    ]


# ---------------------------------------------------------------------------
# synth-offline

ERROR_RATE = 0.5


def _merged(ctx: Context) -> dict:
    merged = Counter(ctx.facts["pool_a"])
    merged.update(ctx.facts["pool_b"])
    return dict(merged)


def _check_pool(ctx: Context) -> list[str]:
    rows = _pool_rows(ctx.path("out/merged.jsonl"))
    problems = _diff("merged counts", {(w, c): n for w, c, n in rows}, _merged(ctx))
    order = sorted(rows, key=lambda r: (-r[2], r[0], r[1]))
    return problems + _diff("row order", rows, order)


def _check_sample(ctx: Context) -> list[str]:
    rows = _read_rows(ctx.path("out/samples.jsonl"))
    count = ctx.sizes["count"]
    pool = _merged(ctx)
    problems = _diff("rows", len(rows), count)
    problems += _diff("ids", [r["id"] for r in rows], [str(i) for i in range(len(rows))])
    for r in rows:
        pats = [(tuple(p["wrong"]), tuple(p["correct"])) for p in r["patterns"]]
        if not 1 <= len(pats) <= 2 or any(p not in pool for p in pats):
            problems.append(f"row {r['id']}: patterns are not 1-2 pool patterns")
        body = r["template"].removeprefix("[M] ").removesuffix(" [M]")
        if body != " [M] ".join(" ".join(c) for _, c in pats):
            problems.append(f"row {r['id']}: template does not join its patterns")
    return problems


def _check_synthesize_stub(ctx: Context) -> list[str]:
    count = ctx.sizes["count"]
    rows = _read_rows(ctx.path("out/syn.jsonl"))
    problems, errorful = _check_samples(rows, count, set(_merged(ctx)))
    problems += _binomial_problems(errorful, count, ERROR_RATE)
    with open(ctx.path("out/syn.jsonl.stats.json"), encoding="utf-8") as fh:
        stats = json.load(fh)
    problems += _diff("stats samples", stats["samples"], count)
    return problems + _diff("stats errorful", stats["errorful"], errorful)


def _check_denoise_identity(ctx: Context) -> list[str]:
    return _check_relabel(ctx, lambda s: s["source"])


def _caps(sizes: dict) -> list[int]:
    return [sizes["count"] * k // 3 for k in range(4)]


def _check_mix(ctx: Context) -> list[str]:
    real = ctx.facts["real"]
    synthetic = [(r["source"], r["target"]) for r in _read_rows(ctx.path("out/den.jsonl"))]
    problems: list[str] = []
    with open(ctx.path("out/mix.jsonl.sweep.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    caps = _caps(ctx.sizes)
    problems += _diff("sweep caps", [s["cap"] for s in summary], caps)
    problems += _diff("sweep totals", [s["total"] for s in summary],
                      [len(real) + cap for cap in caps])
    for cap in caps:
        rows = _read_rows(ctx.path(f"out/mix.cap{cap}.jsonl"))
        got = Counter((r["source"], r["target"]) for r in rows)
        if got != Counter(real + synthetic[:cap]):
            problems.append(f"cap {cap}: output is not real + first {cap} synthetic pairs")
    return problems


def _synth_offline_inputs(out_dir: str, seed: int, sizes: dict) -> dict:
    facts = inputs.synth_offline(out_dir, seed, sizes["patterns"], sizes["real"])
    plan = {
        "stage": "II", "real": ["in/real.tsv"], "synthetic": "out/den.jsonl",
        "synthetic_count": sizes["count"], "seed": seed,
    }
    with open(os.path.join(out_dir, "plan.json"), "w", encoding="utf-8") as fh:
        json.dump(plan, fh, sort_keys=True)
    return facts


def _synth_offline_stages(seed: int, sizes: dict) -> list[Stage]:
    count = str(sizes["count"])
    return [
        Stage("pool", ["--in", "in/pool_a.jsonl", "in/pool_b.jsonl", "--n", "3",
                       "--out", "out/merged.jsonl"], _check_pool),
        Stage("sample", ["--pool", "out/merged.jsonl", "--n", "3", "--count", count,
                         "--seed", str(seed), "--out", "out/samples.jsonl"], _check_sample),
        Stage("synthesize", ["--pool", "out/merged.jsonl", "--n", "3", "--count", count,
                             "--seed", str(seed), "--error-rate", str(ERROR_RATE),
                             "--backend", "stub", "--workers", "1",
                             "--stub-drop-rate", "0.1", "--stub-refuse-rate", "0.05",
                             "--out", "out/syn.jsonl"], _check_synthesize_stub),
        # Not --backend oracle: its table is keyed by source text, so two
        # samples that share a source get one correction, on some seeds.
        Stage("denoise", ["--in", "out/syn.jsonl", "--backend", "identity",
                          "--max-in-flight", "1", "--out", "out/den.jsonl"],
              _check_denoise_identity),
        Stage("mix", ["--plan", "in/plan.json", "--out", "out/mix.jsonl",
                      "--sweep", ",".join(str(c) for c in _caps(sizes))], _check_mix),
    ]


# ---------------------------------------------------------------------------
# synth-remote

def _check_synthesize_http(ctx: Context) -> list[str]:
    count = ctx.sizes["count"]
    rows = _read_rows(ctx.path("out/syn.jsonl"))
    problems, errorful = _check_samples(rows, count, set(ctx.facts["pool"]))
    problems += _binomial_problems(errorful, count, ERROR_RATE)
    # A slot's sample is its last attempt; earlier attempts were refused.
    for r in rows:
        if r["target"] != " ".join((ctx.services.slot_text(r["id"]) or "").split()):
            problems.append(f"row {r['id']}: target is not what the service returned")
    with open(ctx.path("out/syn.jsonl.stats.json"), encoding="utf-8") as fh:
        stats = json.load(fh)
    return problems + _diff(
        "service requests vs attempts", ctx.services.generator.requests, stats["attempts"]
    )


def _check_denoise_http(ctx: Context) -> list[str]:
    problems = _check_relabel(ctx, lambda s: s["target"])
    return problems + _diff(
        "corrector requests", ctx.services.corrector.requests, ctx.sizes["count"]
    )


def _synth_remote_stages(seed: int, sizes: dict) -> list[Stage]:
    return [
        Stage("synthesize", ["--pool", "in/pool.jsonl", "--n", "3",
                             "--count", str(sizes["count"]), "--seed", str(seed),
                             "--error-rate", str(ERROR_RATE), "--backend", "http",
                             "--workers", "2", "--out", "out/syn.jsonl"],
              _check_synthesize_http),
        Stage("denoise", ["--in", "out/syn.jsonl", "--backend", "http",
                          "--max-in-flight", "2", "--out", "out/den.jsonl"],
              _check_denoise_http),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "corpus-analysis", {"pairs": 600},
            lambda d, seed, s: inputs.corpus_analysis(d, seed, s["pairs"]),
            _corpus_analysis_stages,
        ),
        Workload(
            "synth-offline", {"patterns": 400, "real": 2000, "count": 10000},
            _synth_offline_inputs, _synth_offline_stages,
        ),
        Workload(
            "synth-remote", {"patterns": 400, "count": 200},
            lambda d, seed, s: inputs.synth_remote(d, seed, s["patterns"]),
            _synth_remote_stages, remote=True,
        ),
    )
}

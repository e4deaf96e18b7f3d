"""Tests of the benchmark's own checks.

Each workload runs one small round through the real CLI; every check must
pass on that output, and must fail once one token of it is changed.

    PYTHONPATH=src python -m pytest -q benchmarks/test_checks.py
"""

from __future__ import annotations

import dataclasses
import json
import random

import pytest
from scipy import stats as scipy_stats

import run
from workloads import WORKLOADS, distribution

TINY = {
    "corpus-analysis": {"pairs": 20},
    "synth-offline": {"patterns": 30, "real": 20, "count": 40},
    "synth-remote": {"patterns": 30, "count": 20},
}


@pytest.fixture(scope="module", params=sorted(TINY))
def small_run(request, tmp_path_factory):
    workload = dataclasses.replace(WORKLOADS[request.param], sizes=TINY[request.param])
    bench = run.Run(workload, seed=7, root=str(tmp_path_factory.mktemp(request.param)))
    try:
        bench.setup()
        bench.round()
        yield bench
    finally:
        bench.close()


def _replace_token(sentence: str) -> str:
    tokens = sentence.split(" ")
    tokens[len(tokens) // 2] = "zz"
    return " ".join(tokens)


def _edit_row(path: str, edit) -> None:
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    edit(rows[0])
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r, sort_keys=True) + "\n" for r in rows)


def _edit_text(path: str, old: str, new: str) -> None:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(old, new, 1))


def _pattern_token(row):
    side = row["correct"] or row["wrong"]
    side[0] = "zz"


def _stats_number(path):
    with open(path, encoding="utf-8") as fh:
        got = json.loads(fh.read().strip().splitlines()[-1])
    _edit_text(path, json.dumps(got["spearman"]), json.dumps(got["spearman"] + 1e-6))


def _score_tp(path):
    with open(path, encoding="utf-8") as fh:
        tp = fh.readline().split()[1]
    _edit_text(path, f"TP {tp}\n", f"TP {int(tp) + 1}\n")


def _count(row):
    row["count"] += 1


def _template(row):
    row["template"] = _replace_token(row["template"])


def _target(row):
    row["target"] = _replace_token(row["target"])


def _source(row):
    row["source"] = _replace_token(row["source"])


MUTATIONS = {
    ("corpus-analysis", "extract"): ("out/pool.jsonl", _pattern_token),
    ("corpus-analysis", "stats"): ("out/stats.stdout", _stats_number),
    ("corpus-analysis", "score"): ("out/score.stdout", _score_tp),
    ("synth-offline", "pool"): ("out/merged.jsonl", _count),
    ("synth-offline", "sample"): ("out/samples.jsonl", _template),
    ("synth-offline", "synthesize"): ("out/syn.jsonl", _target),
    ("synth-offline", "denoise"): ("out/den.jsonl", _target),
    ("synth-offline", "mix"): ("out/mix.cap40.jsonl", _source),
    ("synth-remote", "synthesize"): ("out/syn.jsonl", _target),
    ("synth-remote", "denoise"): ("out/den.jsonl", _target),
}


def test_every_stage_has_a_mutation(small_run):
    names = {s.name for s in small_run.stages}
    assert names == {s for w, s in MUTATIONS if w == small_run.workload.name}


def test_checks_pass_then_reject_one_changed_token(small_run):
    assert small_run.failed == 0 and small_run.attempted == len(small_run.stages)
    for stage in small_run.stages:
        rel, mutate = MUTATIONS[(small_run.workload.name, stage.name)]
        path = small_run.ctx.path(rel)
        with open(path, "rb") as fh:
            original = fh.read()
        assert stage.check(small_run.ctx) == [], stage.name
        if rel.endswith(".jsonl"):
            _edit_row(path, mutate)
        else:
            mutate(path)
        try:
            assert stage.check(small_run.ctx) != [], f"{stage.name} accepted a changed token"
        finally:
            with open(path, "wb") as fh:
                fh.write(original)


def test_distribution_matches_scipy_with_ties():
    rng = random.Random(3)
    for _ in range(50):
        keys = [((f"w{i}",), (f"c{i}",)) for i in range(30)]
        ref = {k: rng.randint(1, 6) for k in keys}
        cand = {k: rng.randint(0, 6) for k in keys if rng.random() < 0.8}
        got = distribution(ref, cand, 12)
        head = sorted(ref, key=lambda p: (-ref[p], p))[:12]
        a = [ref[p] for p in head]
        b = [cand.get(p, 0) for p in head]
        if len(set(a)) > 1 and len(set(b)) > 1:
            assert got["spearman"] == pytest.approx(scipy_stats.spearmanr(a, b).statistic)

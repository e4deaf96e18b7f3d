from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

from gecaug import IdentityCorrector, ParallelExample, cli, corpus, write_jsonl
from gecaug._http import JsonHttpClient, TransportError
from gecaug.cli import main

from _server import ScriptedServer
from conftest import cli_env

TABLE_LINE = (
    "Public transport enables our body to move one place to another .\t"
    "Public transport enables our body to move from one place to another ."
)
SVA_LINE = "He go to school .\tHe goes to school ."
NOUN_LINE = "I like apple .\tI like apples ."


def _run(capsys, *argv: str):
    rc = main(list(argv))
    captured = capsys.readouterr()
    events = [json.loads(line) for line in captured.err.splitlines() if line]
    return rc, captured.out, events


def _write_corpus(tmp_path: Path) -> Path:
    path = tmp_path / "corpus.tsv"
    lines = [TABLE_LINE] * 3 + [SVA_LINE] * 2 + [NOUN_LINE]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture()
def workdir(tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> Path:
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_extract_writes_pool_and_manifest(workdir: Path, capsys):
    _write_corpus(workdir)
    rc, _, events = _run(
        capsys, "extract", "--in", "corpus.tsv", "--n", "3", "--out", "pool.jsonl"
    )
    assert rc == 0
    rows = [
        json.loads(line)
        for line in (workdir / "pool.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert rows[0] == {"correct": ["move", "from", "one"], "count": 3, "wrong": ["move", "one"]}
    assert [r["count"] for r in rows] == [3, 2, 1]

    manifest = json.loads((workdir / "pool.jsonl.manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "extract"
    assert manifest["config"] == {"in": "corpus.tsv", "n": 3, "out": "pool.jsonl"}
    assert manifest["counts"] == {"patterns": 3, "total": 6}
    assert set(manifest["inputs"]) == {"corpus.tsv"}
    assert len(manifest["config_hash"]) == 64
    assert "timestamp" not in manifest
    assert events[-1]["phase"] == "end"


def test_extract_is_idempotent(workdir: Path, capsys):
    _write_corpus(workdir)
    argv = ("extract", "--in", "corpus.tsv", "--n", "3", "--out", "pool.jsonl")
    assert main(list(argv)) == 0
    first_pool = (workdir / "pool.jsonl").read_bytes()
    first_manifest = (workdir / "pool.jsonl.manifest.json").read_bytes()
    assert main(list(argv)) == 0
    assert (workdir / "pool.jsonl").read_bytes() == first_pool
    assert (workdir / "pool.jsonl.manifest.json").read_bytes() == first_manifest
    capsys.readouterr()


def test_usage_and_config_errors(workdir: Path, capsys):
    rc, _, events = _run(capsys, "extract", "--n", "3", "--out", "pool.jsonl")
    assert rc == 2
    assert events[-1] == {
        "event": "error",
        "code": "CONFIG",
        "message": "missing required option 'in_path'",
    }
    rc, _, events = _run(capsys, "no-such-command")
    assert rc == 2
    assert events[-1]["code"] == "USAGE"
    rc, _, events = _run(capsys)
    assert rc == 2
    assert events[-1]["code"] == "USAGE"
    rc, _, events = _run(capsys, "extract", "--bogus-flag", "x")
    assert rc == 2
    assert events[-1]["code"] == "USAGE"


def test_runtime_error_codes(workdir: Path, capsys):
    rc, _, events = _run(
        capsys, "extract", "--in", "missing.tsv", "--n", "3", "--out", "pool.jsonl"
    )
    assert rc == 1
    assert events[-1]["code"] == "IO"

    (workdir / "broken.tsv").write_text("only one field\n", encoding="utf-8")
    rc, _, events = _run(
        capsys, "extract", "--in", "broken.tsv", "--n", "3", "--out", "pool.jsonl"
    )
    assert rc == 1
    assert events[-1]["code"] == "MALFORMED_LINE"
    assert "broken.tsv:1" in events[-1]["message"]


def test_invalid_utf8_is_a_malformed_line_at_its_line(workdir: Path, capsys):
    _synthesize_fixture(workdir)
    for name, argv in (
        ("pool.jsonl", ("stats", "--pool", "pool.jsonl", "--n", "3")),
        ("syn.jsonl", ("denoise", "--in", "syn.jsonl", "--out", "denoised.jsonl")),
    ):
        lines = (workdir / name).read_bytes().splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"', b'"\xff', 1)
        (workdir / name).write_bytes(b"".join(lines))
        rc, _, events = _run(capsys, *argv)
        assert rc == 1, argv
        errors = [e for e in events if e["event"] == "error"]
        assert errors == [events[-1]]
        assert errors[0]["code"] == "MALFORMED_LINE"
        assert errors[0]["message"].startswith(f"{name}:2: invalid UTF-8: ")


def test_config_file_resolution(workdir: Path, capsys):
    _write_corpus(workdir)
    config = {"in_path": "corpus.tsv", "n": 3, "out": "pool3.jsonl"}
    (workdir / "job.json").write_text(json.dumps(config), encoding="utf-8")
    rc, _, _ = _run(capsys, "extract", "--config", "job.json")
    assert rc == 0
    assert (workdir / "pool3.jsonl").exists()

    # A flag overrides the config: width 1 gives the bare-edit patterns.
    rc, _, _ = _run(
        capsys, "extract", "--config", "job.json", "--n", "1", "--out", "pool1.jsonl"
    )
    assert rc == 0
    rows = [
        json.loads(line)
        for line in (workdir / "pool1.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert rows[0]["wrong"] == [] and rows[0]["correct"] == ["from"]

    (workdir / "bad.json").write_text("{broken", encoding="utf-8")
    rc, _, events = _run(capsys, "extract", "--config", "bad.json")
    assert rc == 2
    assert events[-1]["code"] == "CONFIG"


# Every subcommand's {flag: dest} map, as the parser declared it before the
# option table: a flag that is dropped, renamed or moved fails here.
_FLAGS = {
    "extract": {"--config": "config", "--in": "in_path", "--n": "n", "--out": "out"},
    "pool": {"--config": "config", "--in": "in_paths", "--n": "n", "--out": "out"},
    "sample": {
        "--config": "config", "--pool": "pool", "--n": "n", "--count": "count",
        "--seed": "seed", "--out": "out",
    },
    "synthesize": {
        "--config": "config", "--pool": "pool", "--n": "n", "--count": "count",
        "--seed": "seed", "--error-rate": "error_rate", "--backend": "backend",
        "--workers": "workers", "--attempt-budget": "attempt_budget",
        "--stub-drop-rate": "stub_drop_rate", "--stub-refuse-rate": "stub_refuse_rate",
        "--fewshot": "fewshot", "--out": "out",
    },
    "denoise": {
        "--config": "config", "--in": "in_path", "--backend": "backend",
        "--checkpoint": "checkpoint", "--max-in-flight": "max_in_flight", "--out": "out",
    },
    "mix": {"--config": "config", "--plan": "plan", "--sweep": "sweep", "--out": "out"},
    "stats": {
        "--config": "config", "--pool": "pool", "--ref-pool": "ref_pool",
        "--corpus": "corpus", "--n": "n", "--top-k": "top_k", "--out": "out", "--csv": "csv",
    },
    "score": {
        "--config": "config", "--hyp": "hyp", "--gold": "gold", "--beta": "beta",
        "--out": "out",
    },
}


def test_flag_surface_is_frozen():
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {
        name: {
            flag: action.dest
            for action in sub._actions
            for flag in action.option_strings
            if flag not in ("-h", "--help")
        }
        for name, sub in commands.choices.items()
    }
    assert surface == _FLAGS

    # The flags and values that benchmarks/workloads.py passes parse as before.
    args = parser.parse_args(["pool", "--in", "a.jsonl", "b.jsonl", "--n", "3", "--out", "m"])
    assert (args.in_paths, args.n) == (["a.jsonl", "b.jsonl"], 3)
    args = parser.parse_args([
        "synthesize", "--error-rate", "0.3", "--backend", "http", "--workers", "2",
        "--stub-drop-rate", "0.1", "--stub-refuse-rate", "0.05", "--fewshot",
    ])
    assert (args.error_rate, args.backend, args.workers) == (0.3, "http", 2)
    assert (args.stub_drop_rate, args.stub_refuse_rate, args.fewshot) == (0.1, 0.05, True)
    args = parser.parse_args(["denoise", "--backend", "oracle", "--max-in-flight", "2"])
    assert (args.backend, args.max_in_flight) == ("oracle", 2)
    assert parser.parse_args(["stats", "--top-k", "7"]).top_k == 7
    assert parser.parse_args(["mix", "--sweep", "0,6"]).sweep == "0,6"
    assert parser.parse_args(["score", "--beta", "1"]).beta == 1.0


_VALID_CONFIGS = {
    "extract": {"in_path": "corpus.tsv", "n": 3},
    "pool": {"in_paths": ["pool.jsonl"], "n": 3},
    "sample": {"pool": "pool.jsonl", "n": 3, "count": 2, "seed": 1},
    "synthesize": {"pool": "pool.jsonl", "n": 3, "count": 2, "seed": 1, "backend": "stub"},
    "denoise": {"in_path": "syn.jsonl"},
    "mix": {"plan": "plan.json"},
    "stats": {"ref_pool": "pool.jsonl", "corpus": "corpus.tsv", "n": 3},
    "score": {"hyp": "hyp.tsv", "gold": "gold.m2"},
}


@pytest.mark.parametrize("command", sorted(_VALID_CONFIGS))
def test_unknown_config_key_is_rejected(workdir: Path, capsys, command):
    _synthesize_fixture(workdir)
    _write_score_fixture(workdir)
    plan = {"stage": "I", "real": ["corpus.tsv"], "seed": 0}
    (workdir / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    capsys.readouterr()
    # "max_in_flight" belongs to denoise: one config may drive every stage.
    config = {**_VALID_CONFIGS[command], "out": "out.jsonl", "max_in_flight": 10}
    for key in ("error-rate", "sead", "config"):
        (workdir / "job.json").write_text(json.dumps({**config, key: 1}), encoding="utf-8")
        rc, out, events = _run(capsys, command, "--config", "job.json")
        assert rc == 2, key
        assert out == ""
        assert events == [
            {"event": "error", "code": "CONFIG", "message": f"unknown config key {key!r}"}
        ]
        assert not (workdir / "out.jsonl").exists()
        assert not (workdir / "out.jsonl.manifest.json").exists()

    # Without the unknown key the same config runs.
    (workdir / "job.json").write_text(json.dumps(config), encoding="utf-8")
    assert main([command, "--config", "job.json"]) == 0
    capsys.readouterr()


_INT_OPTIONS = (
    ("sample", "count"),
    ("synthesize", "count"),
    ("synthesize", "workers"),
    ("synthesize", "attempt_budget"),
    ("denoise", "max_in_flight"),
    ("stats", "top_k"),
)


@pytest.mark.parametrize("value", ["10", 10.5, True], ids=["string", "float", "bool"])
def test_integer_config_values_are_type_checked(workdir: Path, capsys, value):
    base = {
        "pool": "pool.jsonl", "in_path": "samples.jsonl", "n": 3,
        "count": 10, "seed": 1, "out": "out.jsonl",
    }
    for command, key in _INT_OPTIONS:
        if command == "stats":
            config = {"ref_pool": "pool.jsonl", "corpus": "corpus.tsv", "n": 3, key: value}
        else:
            config = {**base, key: value}
        (workdir / "job.json").write_text(json.dumps(config), encoding="utf-8")
        rc, _, events = _run(capsys, command, "--config", "job.json")
        assert rc == 2, (command, key)
        assert [e for e in events if e["event"] == "error"] == [
            {"event": "error", "code": "CONFIG", "message": f"'{key}' must be an integer"}
        ]
        assert events[-1]["event"] == "error"


@pytest.mark.parametrize("command", ["sample", "synthesize"])
def test_bool_seed_is_rejected(workdir: Path, capsys, command):
    config = {"pool": "pool.jsonl", "n": 3, "count": 10, "seed": True, "out": "out.jsonl"}
    (workdir / "job.json").write_text(json.dumps(config), encoding="utf-8")
    rc, _, events = _run(capsys, command, "--config", "job.json")
    assert rc == 2
    assert events == [
        {"event": "error", "code": "CONFIG", "message": "seed must be an integer"}
    ]


def test_bool_width_and_caps_are_rejected(workdir: Path, capsys):
    _write_corpus(workdir)
    config = {"in_path": "corpus.tsv", "n": True, "out": "pool.jsonl"}
    (workdir / "job.json").write_text(json.dumps(config), encoding="utf-8")
    rc, _, events = _run(capsys, "extract", "--config", "job.json")
    assert rc == 2
    assert events[-1]["code"] == "CONFIG"
    assert not (workdir / "pool.jsonl").exists()

    plan = {"stage": "I", "real": ["corpus.tsv"], "seed": 0}
    (workdir / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    config = {"plan": "plan.json", "sweep": [True], "out": "t.jsonl"}
    (workdir / "job.json").write_text(json.dumps(config), encoding="utf-8")
    rc, _, events = _run(capsys, "mix", "--config", "job.json")
    assert rc == 2
    assert events[-1] == {
        "event": "error", "code": "CONFIG",
        "message": "sweep must be a comma-separated int list",
    }

    # An empty sweep is an error, not a plain mix.
    (workdir / "job.json").write_text(json.dumps({**config, "sweep": []}), encoding="utf-8")
    for extra in ((), ("--sweep", ","), ("--sweep", "")):
        rc, _, events = _run(capsys, "mix", "--config", "job.json", *extra)
        assert rc == 2, extra
        assert events == [{
            "event": "error", "code": "CONFIG",
            "message": "sweep must be a comma-separated int list",
        }]
        assert not (workdir / "t.jsonl").exists()

    # A negative or repeated cap, or a sweep on this real-only plan, fails
    # before the stage starts, from a flag or a config.
    for sweep, message in (
        ("0,-5", "sweep caps must be non-negative"),
        ("5,5", "duplicate caps in sweep"),
        ([3, 0, 3], "duplicate caps in sweep"),
        ("0,1", "ratio sweep needs a plan with a synthetic corpus"),
        ([0, 1], "ratio sweep needs a plan with a synthetic corpus"),
    ):
        if isinstance(sweep, list):
            job = {**config, "sweep": sweep}
            (workdir / "job.json").write_text(json.dumps(job), encoding="utf-8")
            argv = ("mix", "--config", "job.json")
        else:
            argv = ("mix", "--plan", "plan.json", "--sweep", sweep, "--out", "t.jsonl")
        rc, _, events = _run(capsys, *argv)
        assert rc == 2, sweep
        assert events == [{"event": "error", "code": "CONFIG", "message": message}], sweep
        assert not (workdir / "t.jsonl").exists()

    (workdir / "plan.json").write_text(json.dumps({**plan, "seed": True}), encoding="utf-8")
    rc, _, events = _run(capsys, "mix", "--plan", "plan.json", "--out", "t.jsonl")
    assert rc == 1
    assert events[-1] == {
        "event": "error", "code": "SCHEMA", "message": "plan.json:0: key 'seed' must be an int",
    }
    assert not (workdir / "t.jsonl").exists()


def test_pool_merges_counts(workdir: Path, capsys):
    _write_corpus(workdir)
    assert main(["extract", "--in", "corpus.tsv", "--n", "3", "--out", "a.jsonl"]) == 0
    assert main(["extract", "--in", "corpus.tsv", "--n", "3", "--out", "b.jsonl"]) == 0
    rc, _, _ = _run(
        capsys, "pool", "--in", "a.jsonl", "b.jsonl", "--n", "3", "--out", "merged.jsonl"
    )
    assert rc == 0
    manifest = json.loads(
        (workdir / "merged.jsonl.manifest.json").read_text(encoding="utf-8")
    )
    assert manifest["counts"] == {"patterns": 3, "total": 12}


def test_sample_rows_and_determinism(workdir: Path, capsys):
    _write_corpus(workdir)
    assert main(["extract", "--in", "corpus.tsv", "--n", "3", "--out", "pool.jsonl"]) == 0
    argv = (
        "sample", "--pool", "pool.jsonl", "--n", "3",
        "--count", "20", "--seed", "5", "--out", "reqs.jsonl",
    )
    rc, _, _ = _run(capsys, *argv)
    assert rc == 0
    rows = [
        json.loads(line)
        for line in (workdir / "reqs.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert len(rows) == 20
    assert [r["id"] for r in rows] == [str(i) for i in range(20)]
    for row in rows:
        assert 1 <= len(row["patterns"]) <= 2
        for p in row["patterns"]:
            assert " ".join(p["correct"]) in row["template"]
    first = (workdir / "reqs.jsonl").read_bytes()
    assert main(list(argv)) == 0
    assert (workdir / "reqs.jsonl").read_bytes() == first
    capsys.readouterr()


def test_sample_requires_seed(workdir: Path, capsys):
    _write_corpus(workdir)
    assert main(["extract", "--in", "corpus.tsv", "--n", "3", "--out", "pool.jsonl"]) == 0
    rc, _, events = _run(
        capsys, "sample", "--pool", "pool.jsonl", "--n", "3",
        "--count", "5", "--out", "reqs.jsonl",
    )
    assert rc == 2
    assert events[-1]["code"] == "CONFIG"
    assert "seed" in events[-1]["message"]


def test_synthesize_outputs_and_worker_independence(workdir: Path, capsys):
    _write_corpus(workdir)
    assert main(["extract", "--in", "corpus.tsv", "--n", "3", "--out", "pool.jsonl"]) == 0
    argv = [
        "synthesize", "--pool", "pool.jsonl", "--n", "3", "--count", "50",
        "--seed", "9", "--error-rate", "0.5", "--backend", "stub",
        "--out", "syn.jsonl", "--workers", "1",
    ]
    rc, _, _ = _run(capsys, *argv)
    assert rc == 0
    first = (workdir / "syn.jsonl").read_bytes()
    first_manifest = (workdir / "syn.jsonl.manifest.json").read_bytes()
    stats = json.loads((workdir / "syn.jsonl.stats.json").read_text(encoding="utf-8"))
    assert stats["samples"] == 50
    assert stats["attempts"] >= 50
    manifest = json.loads(first_manifest)
    assert "workers" not in manifest["config"]
    assert manifest["seed"] == 9
    assert manifest["counts"]["samples"] == 50

    argv[-1] = "4"
    assert main(argv) == 0
    capsys.readouterr()
    assert (workdir / "syn.jsonl").read_bytes() == first
    assert (workdir / "syn.jsonl.manifest.json").read_bytes() == first_manifest


def test_local_backends_default_to_one_in_flight(workdir: Path, capsys, no_thread_pool):
    # Local backends run inline at the default counts and at any given one.
    _write_corpus(workdir)
    assert main(["extract", "--in", "corpus.tsv", "--n", "3", "--out", "pool.jsonl"]) == 0
    for workers in ((), ("--workers", "4")):
        assert main([
            "synthesize", "--pool", "pool.jsonl", "--n", "3", "--count", "20",
            "--seed", "3", "--backend", "stub", *workers, "--out", "syn.jsonl",
        ]) == 0
    assert main(["denoise", "--in", "syn.jsonl", "--out", "identity.jsonl"]) == 0
    for backend in ("identity", "oracle"):
        assert main([
            "denoise", "--in", "syn.jsonl", "--backend", backend, "--max-in-flight", "8",
            "--out", f"{backend}8.jsonl",
        ]) == 0
    capsys.readouterr()
    for name in ("identity.jsonl", "identity8.jsonl", "oracle8.jsonl"):
        assert len((workdir / name).read_text(encoding="utf-8").splitlines()) == 20


def test_synthesize_budget_error(workdir: Path, capsys):
    _write_corpus(workdir)
    assert main(["extract", "--in", "corpus.tsv", "--n", "3", "--out", "pool.jsonl"]) == 0
    rc, _, events = _run(
        capsys, "synthesize", "--pool", "pool.jsonl", "--n", "3", "--count", "5",
        "--seed", "1", "--backend", "stub", "--stub-refuse-rate", "1.0",
        "--out", "syn.jsonl", "--workers", "1",
    )
    assert rc == 1
    assert events[-1]["code"] == "BUDGET_EXHAUSTED"


def test_negative_attempt_budget_is_a_config_error(workdir: Path, capsys):
    _write_corpus(workdir)
    assert main(["extract", "--in", "corpus.tsv", "--n", "3", "--out", "pool.jsonl"]) == 0
    capsys.readouterr()
    rc, _, events = _run(
        capsys, "synthesize", "--pool", "pool.jsonl", "--n", "3", "--count", "4",
        "--seed", "1", "--attempt-budget", "-1", "--out", "syn.jsonl",
    )
    assert rc == 2
    assert events == [
        {"event": "error", "code": "CONFIG", "message": "attempt_budget must be non-negative"}
    ]
    assert not (workdir / "syn.jsonl").exists()


def test_stub_rates_are_checked_before_remote_synthesis(workdir: Path, capsys, monkeypatch):
    _write_corpus(workdir)
    assert main(["extract", "--in", "corpus.tsv", "--n", "3", "--out", "pool.jsonl"]) == 0
    capsys.readouterr()
    (workdir / "job.json").write_text(json.dumps({"stub_drop_rate": 5}), encoding="utf-8")
    with ScriptedServer([(200, {"text": "move from one"})]) as server:
        monkeypatch.setenv("GECAUG_GENERATOR_URL", server.url)
        rc, _, events = _run(
            capsys, "synthesize", "--config", "job.json", "--pool", "pool.jsonl",
            "--n", "3", "--count", "20", "--seed", "1", "--backend", "http",
            "--workers", "1", "--out", "syn.jsonl",
        )
    assert rc == 2
    assert events == [
        {"event": "error", "code": "CONFIG", "message": "'stub_drop_rate' must lie in [0, 1]"}
    ]
    assert server.requests == []
    assert not (workdir / "syn.jsonl").exists()


def _synthesize_fixture(workdir: Path, count: int = 12) -> None:
    _write_corpus(workdir)
    assert main(["extract", "--in", "corpus.tsv", "--n", "3", "--out", "pool.jsonl"]) == 0
    assert main([
        "synthesize", "--pool", "pool.jsonl", "--n", "3", "--count", str(count),
        "--seed", "3", "--error-rate", "0.7", "--backend", "stub",
        "--out", "syn.jsonl", "--workers", "1",
    ]) == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--backend", "identity", "--out", "syn.jsonl"),
         "'in_path' and 'out' name one file: syn.jsonl"),
        (("--checkpoint", "den.jsonl", "--out", "den.jsonl"),
         "'out' and 'checkpoint' name one file: den.jsonl"),
        (("--checkpoint", "syn.jsonl", "--out", "den.jsonl"),
         "'in_path' and 'checkpoint' name one file: syn.jsonl"),
        (("--out", "link.jsonl"), "'in_path' and 'out' name one file: link.jsonl"),
    ],
    ids=["in-out", "out-checkpoint", "in-checkpoint", "symlink"],
)
def test_denoise_rejects_two_paths_to_one_file(workdir: Path, capsys, argv, message):
    # A shared path would have the commit replace the input, or the
    # checkpoint's removal delete the output.
    _synthesize_fixture(workdir)
    (workdir / "link.jsonl").symlink_to("syn.jsonl")
    capsys.readouterr()
    names = ("syn.jsonl", "syn.jsonl.manifest.json")
    before = [(workdir / name).read_bytes() for name in names]
    rc, _, events = _run(capsys, "denoise", "--in", "syn.jsonl", *argv)
    assert rc == 2
    assert events == [{"event": "error", "code": "CONFIG", "message": message}]
    assert [(workdir / name).read_bytes() for name in names] == before
    assert not (workdir / "den.jsonl").exists()


def test_denoise_identity_and_oracle(workdir: Path, capsys):
    _synthesize_fixture(workdir)
    rc, _, _ = _run(
        capsys, "denoise", "--in", "syn.jsonl", "--backend", "identity",
        "--out", "identity.jsonl",
    )
    assert rc == 0
    rows = [
        json.loads(line)
        for line in (workdir / "identity.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert len(rows) == 12
    assert all(r["source"] == r["target"] for r in rows)
    assert all(r["meta"]["matches_source"] for r in rows)

    rc, _, _ = _run(
        capsys, "denoise", "--in", "syn.jsonl", "--backend", "oracle",
        "--out", "oracle.jsonl",
    )
    assert rc == 0
    manifest = json.loads(
        (workdir / "oracle.jsonl.manifest.json").read_text(encoding="utf-8")
    )
    assert manifest["counts"]["pairs"] == 12
    assert manifest["counts"]["matches_target"] == 12
    syn_rows = [
        json.loads(line)
        for line in (workdir / "syn.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    oracle_rows = [
        json.loads(line)
        for line in (workdir / "oracle.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert [r["target"] for r in oracle_rows] == [r["target"] for r in syn_rows]


def test_width_one_pipeline_writes_no_empty_source(workdir: Path, capsys):
    # At n=1 the pool holds missing-word patterns with an empty wrong side;
    # planting one into a sentence made of it alone used to empty the source.
    corpus = Path(__file__).resolve().parent.parent / "demos" / "data" / "learner_sample.tsv"
    assert main(["extract", "--in", str(corpus), "--n", "1", "--out", "pool.jsonl"]) == 0
    assert main([
        "synthesize", "--pool", "pool.jsonl", "--n", "1", "--count", "2000", "--seed", "7",
        "--out", "syn.jsonl",
    ]) == 0
    text = (workdir / "syn.jsonl").read_text(encoding="utf-8")
    rows = [json.loads(line) for line in text.splitlines()]
    assert len(rows) == 2000
    assert all(row["source"] for row in rows)
    rc, _, events = _run(
        capsys, "denoise", "--in", "syn.jsonl", "--backend", "identity", "--out", "den.jsonl"
    )
    assert rc == 0
    assert events[-1]["pairs"] == 2000


# The checkpoint marker of a denoise run writing denoised.jsonl: the
# canonical JSON of its manifest config, the first line of its checkpoint.
_MARKER = json.dumps({"in": "syn.jsonl", "backend": "identity", "out": "denoised.jsonl"},
                     sort_keys=True)


def _committed(workdir: Path) -> tuple[bytes | None, bytes | None]:
    """The committed denoised.jsonl and its manifest; None for a missing one."""
    paths = (workdir / "denoised.jsonl", workdir / "denoised.jsonl.manifest.json")
    return tuple(p.read_bytes() if p.exists() else None for p in paths)


def _commit_oracle_output(workdir: Path) -> tuple[bytes, bytes]:
    """Commit denoised.jsonl from the oracle, unlike an identity run's bytes."""
    argv = list(_PLAIN_DENOISE)
    argv[argv.index("identity")] = "oracle"
    assert main(argv) == 0
    return _committed(workdir)


def _watch_committed(monkeypatch, workdir: Path) -> None:
    """Check at each identity corrector call that the committed pair is unchanged."""
    committed = _committed(workdir)

    def correct_text(self, text, request_id="0"):
        assert _committed(workdir) == committed
        return text

    monkeypatch.setattr(IdentityCorrector, "correct_text", correct_text)


def _progress(checkpoint: Path, marker: str = _MARKER) -> bytes:
    """The rows a checkpoint holds after its marker line, which must be ``marker``."""
    line, rows = checkpoint.read_bytes().split(b"\n", 1)
    assert line == marker.encode("utf-8")
    return rows


def test_denoise_resume_from_checkpoint(workdir: Path, capsys, monkeypatch):
    _synthesize_fixture(workdir)
    rc, _, _ = _run(
        capsys, "denoise", "--in", "syn.jsonl", "--backend", "identity",
        "--out", "full.jsonl",
    )
    assert rc == 0
    full_lines = (workdir / "full.jsonl").read_text(encoding="utf-8").splitlines(True)

    # Simulate an interrupted run over a committed output: its marker line
    # and 5 pairs in the checkpoint.
    _commit_oracle_output(workdir)
    progress = _MARKER + "\n" + "".join(full_lines[:5])
    (workdir / "relabel.ckpt").write_text(progress, encoding="utf-8")
    _watch_committed(monkeypatch, workdir)
    capsys.readouterr()
    rc, _, events = _run(capsys, *_DENOISE)
    assert rc == 0
    assert events[0]["resume_skip"] == 5
    assert (workdir / "denoised.jsonl").read_bytes() == (workdir / "full.jsonl").read_bytes()
    assert not (workdir / "relabel.ckpt").exists()
    assert not (workdir / "denoised.jsonl.tmp").exists()
    manifest = json.loads(
        (workdir / "denoised.jsonl.manifest.json").read_text(encoding="utf-8")
    )
    assert manifest["counts"]["pairs"] == 12


_DENOISE = (
    "denoise", "--in", "syn.jsonl", "--backend", "identity",
    "--checkpoint", "relabel.ckpt", "--out", "denoised.jsonl",
)
_PLAIN_DENOISE = (
    "denoise", "--in", "syn.jsonl", "--backend", "identity", "--out", "denoised.jsonl",
)
_INTERRUPTED = {"event": "error", "code": "INTERRUPTED", "message": "stopped by SIGINT"}


def _uninterrupted_denoise(workdir: Path, *argv: str) -> tuple[bytes, bytes]:
    """The output and manifest of an uninterrupted run of ``argv`` (default _DENOISE)."""
    argv = list(argv or _DENOISE)
    assert main(argv) == 0
    assert not (workdir / argv[argv.index("--checkpoint") + 1]).exists()
    out = workdir / argv[argv.index("--out") + 1]
    manifest = workdir / f"{out}.manifest.json"
    expected = out.read_bytes(), manifest.read_bytes()
    out.unlink()
    manifest.unlink()
    return expected


def _interrupt_denoise_at(monkeypatch, capsys, stop_id: str, *argv: str) -> None:
    """Run denoise until the corrector is asked for sample ``stop_id``, then stop it."""

    def interrupt(self, text, request_id="0"):
        if request_id == stop_id:
            raise KeyboardInterrupt
        return text

    handler = signal.getsignal(signal.SIGTERM)
    with monkeypatch.context() as patch:
        patch.setattr(IdentityCorrector, "correct_text", interrupt)
        capsys.readouterr()
        rc, _, events = _run(capsys, *argv)
    assert rc == 1
    assert events[-1] == _INTERRUPTED
    assert signal.getsignal(signal.SIGTERM) is handler  # main restores what it replaced


# Runs the CLI on argv[3:] and sends itself signal argv[1] when a local
# corrector is asked for sample argv[2].
_SIGNAL_AT_SAMPLE = """
import os, signal, sys
from gecaug import IdentityCorrector, OracleCorrector, ParallelExample, cli, corpus, write_jsonl

# A shell runs a background job with SIGINT ignored, and Python then keeps it so.
signal.signal(signal.SIGINT, signal.default_int_handler)

def signal_at(correct_text):
    def correct(self, text, request_id="0"):
        if request_id == sys.argv[2]:
            os.kill(os.getpid(), getattr(signal, sys.argv[1]))
        return correct_text(self, text, request_id)
    return correct

for backend in (IdentityCorrector, OracleCorrector):
    backend.correct_text = signal_at(backend.correct_text)
sys.exit(cli.main(sys.argv[3:]))
"""


def _signal_denoise_at(workdir: Path, signame: str, stop_id: str, *argv: str):
    """Run denoise in a child that sends itself ``signame`` at sample ``stop_id``."""
    return subprocess.run(
        [sys.executable, "-c", _SIGNAL_AT_SAMPLE, signame, stop_id, *argv],
        cwd=workdir, env=cli_env(), capture_output=True, text=True,
    )


def _kill_denoise_at(workdir: Path, stop_id: str, *argv: str) -> None:
    """Run denoise in a child that SIGKILLs itself at sample ``stop_id``."""
    proc = _signal_denoise_at(workdir, "SIGKILL", stop_id, *argv)
    assert proc.returncode == -signal.SIGKILL, proc.stderr


@pytest.mark.parametrize("killed", [False, True], ids=["finally", "killed"])
def test_denoise_resumes_from_output_after_interrupt(
    workdir: Path, capsys, monkeypatch, killed
):
    _synthesize_fixture(workdir, count=50)
    expected = _uninterrupted_denoise(workdir)
    if killed:
        # No finally block runs: only what was written before the kill is left.
        _kill_denoise_at(workdir, "25", *_DENOISE)
    else:
        _interrupt_denoise_at(monkeypatch, capsys, "25", *_DENOISE)
    tmp = workdir / "denoised.jsonl.tmp"
    assert len(_progress(workdir / "relabel.ckpt").splitlines()) == 25
    assert not (workdir / "denoised.jsonl.manifest.json").exists()
    assert _committed(workdir) == (None, None)  # nothing appears before the commit

    capsys.readouterr()
    rc, _, events = _run(capsys, *_DENOISE)
    assert rc == 0
    assert events[0]["resume_skip"] == 25
    assert _committed(workdir) == expected
    assert not (workdir / "relabel.ckpt").exists()
    assert not tmp.exists()


@pytest.mark.parametrize("checkpoint", [False, True], ids=["plain", "checkpoint"])
def test_killed_denoise_keeps_the_committed_output(workdir: Path, capsys, checkpoint):
    _synthesize_fixture(workdir, count=50)
    expected = _uninterrupted_denoise(workdir)
    committed = _commit_oracle_output(workdir)
    argv = _DENOISE if checkpoint else _PLAIN_DENOISE
    _kill_denoise_at(workdir, "25", *argv)
    assert _committed(workdir) == committed
    # The complete rows are in the checkpoint; a plain run's temporary is
    # only a leftover, which its rerun rewrites.
    rows = expected[0].splitlines(True)
    if checkpoint:
        assert _progress(workdir / "relabel.ckpt") == b"".join(rows[:25])

    capsys.readouterr()
    rc, _, events = _run(capsys, *argv)
    assert rc == 0
    assert events[0]["resume_skip"] == (25 if checkpoint else 0)
    assert _committed(workdir) == expected
    assert not [p.name for p in workdir.iterdir() if p.name.endswith(".tmp")]


def test_denoise_resume_drops_a_torn_last_line(workdir: Path, capsys, monkeypatch):
    _synthesize_fixture(workdir, count=50)
    expected = _uninterrupted_denoise(workdir)
    _commit_oracle_output(workdir)
    lines = expected[0].splitlines(True)
    progress = (_MARKER + "\n").encode("utf-8") + b"".join(lines[:17]) + lines[17][:30]
    (workdir / "relabel.ckpt").write_bytes(progress)
    _watch_committed(monkeypatch, workdir)
    capsys.readouterr()
    rc, _, events = _run(capsys, *_DENOISE)
    assert rc == 0
    assert events[0]["resume_skip"] == 17
    assert _committed(workdir) == expected


def test_denoise_resume_cross_checks(workdir: Path, capsys):
    _synthesize_fixture(workdir, count=50)
    lines = _uninterrupted_denoise(workdir)[0].splitlines(True)
    committed = _commit_oracle_output(workdir)
    checkpoint = workdir / "relabel.ckpt"

    progress = (_MARKER + "\n").encode("utf-8") + b"".join(lines[:3] + lines[4:6])
    checkpoint.write_bytes(progress)
    rc, _, events = _run(capsys, *_DENOISE)
    assert rc == 2
    assert events[-1]["code"] == "CONFIG"
    assert events[-1]["message"].startswith("relabel.ckpt:5: ")  # line 1 is the marker
    assert checkpoint.read_bytes() == progress
    assert _committed(workdir) == committed


@pytest.mark.parametrize("change", ["stale-input", "other-backend"])
def test_denoise_resume_refuses_another_run(workdir: Path, capsys, monkeypatch, change):
    _synthesize_fixture(workdir, count=40)
    committed = _commit_oracle_output(workdir)
    _interrupt_denoise_at(monkeypatch, capsys, "10", *_DENOISE)
    assert _committed(workdir) == committed
    checkpoint = workdir / "relabel.ckpt"
    progress = checkpoint.read_bytes()
    assert len(_progress(checkpoint).splitlines()) == 10
    argv = list(_DENOISE)
    if change == "stale-input":
        # The same ids in the same order, but other sources.
        assert main([
            "synthesize", "--pool", "pool.jsonl", "--n", "3", "--count", "40",
            "--seed", "4", "--error-rate", "0.7", "--out", "syn.jsonl",
        ]) == 0
        message = "relabel.ckpt:2: id '0' or its source does not match the input's"
    else:
        argv[argv.index("identity")] = "oracle"
        oracle_marker = _MARKER.replace("identity", "oracle")
        message = f"checkpoint relabel.ckpt does not mark this run ({oracle_marker})"
    capsys.readouterr()
    rc, _, events = _run(capsys, *argv)
    assert rc == 2
    assert events == [{"event": "error", "code": "CONFIG", "message": message}]
    assert checkpoint.read_bytes() == progress
    assert _committed(workdir) == committed


def test_denoise_resume_keeps_its_rows_across_a_plain_run(workdir: Path, capsys, monkeypatch):
    _synthesize_fixture(workdir)
    expected = _uninterrupted_denoise(workdir)
    _interrupt_denoise_at(monkeypatch, capsys, "5", *_DENOISE)
    # A run without --checkpoint writes only its own temporary, which it
    # commits: the checkpoint keeps its marker line and its rows.
    _commit_oracle_output(workdir)
    assert not (workdir / "denoised.jsonl.tmp").exists()
    assert len(_progress(workdir / "relabel.ckpt").splitlines()) == 5
    capsys.readouterr()
    rc, _, events = _run(capsys, *_DENOISE)
    assert rc == 0
    assert events[0]["resume_skip"] == 5
    assert _committed(workdir) == expected


def test_denoise_resume_ignores_a_killed_plain_run(workdir: Path, capsys):
    # A plain run killed between a checkpoint run's kill and its rerun
    # leaves rows of another backend in the output's temporary.
    _synthesize_fixture(workdir, count=50)
    expected = _uninterrupted_denoise(workdir)
    assert _commit_oracle_output(workdir)[0] != expected[0]
    oracle = list(_PLAIN_DENOISE)
    oracle[oracle.index("identity")] = "oracle"
    _kill_denoise_at(workdir, "10", *_DENOISE)
    _kill_denoise_at(workdir, "30", *oracle)
    capsys.readouterr()
    rc, _, events = _run(capsys, *_DENOISE)
    assert rc == 0
    assert events[0]["resume_skip"] == 10
    assert _committed(workdir) == expected
    assert not [p.name for p in workdir.iterdir() if p.name.endswith(".tmp")]
    assert not (workdir / "relabel.ckpt").exists()


def test_denoise_checkpoint_in_another_directory(workdir: Path, capsys, monkeypatch):
    _synthesize_fixture(workdir, count=50)
    (workdir / "ck").mkdir()
    (workdir / "out").mkdir()
    argv = (
        "denoise", "--in", "syn.jsonl", "--backend", "identity",
        "--checkpoint", "ck/relabel.ckpt", "--out", "out/denoised.jsonl",
    )
    expected = _uninterrupted_denoise(workdir, *argv)
    _kill_denoise_at(workdir, "25", *argv)
    marker = json.dumps(
        {"in": "syn.jsonl", "backend": "identity", "out": "out/denoised.jsonl"}, sort_keys=True
    )
    assert len(_progress(workdir / "ck" / "relabel.ckpt", marker).splitlines()) == 25

    # The commit copies the rows into the output's directory: every rename
    # stays within one directory.
    renames = []
    replace = os.replace
    monkeypatch.setattr(os, "replace", lambda a, b: renames.append((a, b)) or replace(a, b))
    capsys.readouterr()
    rc, _, events = _run(capsys, *argv)
    assert rc == 0
    assert events[0]["resume_skip"] == 25
    assert renames and all(os.path.dirname(a) == os.path.dirname(b) for a, b in renames)
    out = workdir / "out" / "denoised.jsonl"
    assert (out.read_bytes(), (workdir / "out" / "denoised.jsonl.manifest.json").read_bytes()) \
        == expected
    assert not list((workdir / "ck").iterdir())
    assert sorted(p.name for p in (workdir / "out").iterdir()) == [
        "denoised.jsonl", "denoised.jsonl.manifest.json"
    ]


@pytest.mark.parametrize(
    "progress",
    [b"", _MARKER[:10].encode("utf-8"), _MARKER.encode("utf-8")],
    ids=["empty", "torn-marker", "marker-without-newline"],
)
def test_denoise_checkpoint_cut_while_its_marker_was_written_starts_over(
    workdir: Path, capsys, progress
):
    _synthesize_fixture(workdir)
    expected = _uninterrupted_denoise(workdir)
    (workdir / "relabel.ckpt").write_bytes(progress)
    capsys.readouterr()
    rc, _, events = _run(capsys, *_DENOISE)
    assert rc == 0
    assert events[0]["resume_skip"] == 0
    assert _committed(workdir) == expected
    assert not (workdir / "relabel.ckpt").exists()


def test_two_checkpoint_runs_over_one_output_each_resume_their_own_rows(
    workdir: Path, capsys
):
    _synthesize_fixture(workdir, count=50)
    identity = list(_DENOISE)
    oracle = list(_DENOISE)
    oracle[oracle.index("identity")] = "oracle"
    oracle[oracle.index("relabel.ckpt")] = "oracle.ckpt"
    expected = {"identity": _uninterrupted_denoise(workdir, *identity),
                "oracle": _uninterrupted_denoise(workdir, *oracle)}
    assert expected["identity"][0] != expected["oracle"][0]
    _kill_denoise_at(workdir, "10", *identity)
    _kill_denoise_at(workdir, "30", *oracle)
    for name, argv, skip in (("identity", identity, 10), ("oracle", oracle, 30)):
        capsys.readouterr()
        rc, _, events = _run(capsys, *argv)
        assert rc == 0
        assert events[0]["resume_skip"] == skip
        assert _committed(workdir) == expected[name]
    assert not [p.name for p in workdir.iterdir() if p.name.endswith((".tmp", ".ckpt"))]


def test_main_runs_off_the_main_thread(workdir: Path, capsys):
    # Only the main thread can set a signal handler; elsewhere main sets none.
    _synthesize_fixture(workdir)
    result = []
    thread = threading.Thread(target=lambda: result.append(main(list(_PLAIN_DENOISE))))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert result == [0]
    assert (workdir / "denoised.jsonl").exists()


@pytest.mark.parametrize("checkpoint", [False, True], ids=["plain", "checkpoint"])
@pytest.mark.parametrize("signame", ["SIGINT", "SIGTERM"])
def test_interrupted_denoise_is_one_error_line(workdir: Path, capsys, signame, checkpoint):
    _synthesize_fixture(workdir, count=50)
    expected = _uninterrupted_denoise(workdir)
    committed = _commit_oracle_output(workdir)
    argv = _DENOISE if checkpoint else _PLAIN_DENOISE
    proc = _signal_denoise_at(workdir, signame, "25", *argv)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stderr.splitlines()[-1]) == {
        "event": "error", "code": "INTERRUPTED", "message": f"stopped by {signame}"
    }
    assert _committed(workdir) == committed
    assert not [p.name for p in workdir.iterdir() if p.name.endswith(".tmp")]
    if not checkpoint:
        return
    capsys.readouterr()
    rc, _, events = _run(capsys, *argv)
    assert rc == 0
    assert events[0]["resume_skip"] == 25
    assert _committed(workdir) == expected
    assert not (workdir / "relabel.ckpt").exists()


@pytest.mark.parametrize(
    "checkpoint",
    [b"[1]", b'{"completed": true}', b'{"completed": 5, "last_id": "4"}', b"\xff"],
    ids=["list", "bool", "old-format", "bad-utf8"],
)
def test_bad_checkpoint_is_one_error_line(workdir: Path, capsys, checkpoint):
    _synthesize_fixture(workdir)
    (workdir / "relabel.ckpt").write_bytes(checkpoint)
    (workdir / "denoised.jsonl").write_text("{torn", encoding="utf-8")
    capsys.readouterr()
    rc, _, events = _run(capsys, *_DENOISE)
    assert rc == 2
    assert events == [{
        "event": "error", "code": "CONFIG",
        "message": f"checkpoint relabel.ckpt does not mark this run ({_MARKER})",
    }]
    assert (workdir / "denoised.jsonl").read_text(encoding="utf-8") == "{torn"


@pytest.mark.parametrize("kind", ["config", "plan", "checkpoint"])
def test_whole_file_json_with_bad_utf8_is_one_error_line(workdir: Path, capsys, kind):
    _synthesize_fixture(workdir)
    capsys.readouterr()
    if kind == "config":
        (workdir / "job.json").write_bytes(b'{"in_path": "corpus.tsv\xff", "n": 3}')
        argv, rc_want = ("extract", "--config", "job.json"), 2
        code, prefix = "CONFIG", "config file job.json: invalid UTF-8: "
    elif kind == "plan":
        (workdir / "plan.json").write_bytes(b'{"stage": "I", "real": ["corpus.tsv\xff"]}')
        argv, rc_want = ("mix", "--plan", "plan.json", "--out", "denoised.jsonl"), 1
        code, prefix = "SCHEMA", "plan.json:0: invalid UTF-8: "
    else:
        # The marker is compared as bytes, never decoded.
        (workdir / "relabel.ckpt").write_bytes(b'{"completed": 1, "last_id": "\xff"}')
        argv, rc_want = _DENOISE, 2
        code, prefix = "CONFIG", "checkpoint relabel.ckpt does not mark this run ("
    rc, _, events = _run(capsys, *argv)
    assert rc == rc_want
    assert len(events) == 1
    assert (events[0]["code"], events[0]["message"][:len(prefix)]) == (code, prefix)
    assert not (workdir / "denoised.jsonl").exists()


_SYNTH_CONFIG = {"pool": "pool.jsonl", "n": 3, "count": 1, "seed": 0}
_STATS_CONFIG = {"ref_pool": "pool.jsonl", "corpus": "corpus.tsv", "n": 3}


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("score", {"beta": [1]}, "'beta' must be a number"),
        ("score", {"beta": "x"}, "'beta' must be a number"),
        ("score", {"beta": True}, "'beta' must be a number"),
        ("score", {"beta": 0}, "beta must be positive"),
        ("extract", {"in_path": 5, "n": 3}, "'in_path' must be a path string"),
        ("pool", {"in_paths": "p.jsonl", "n": 3},
         "'in_paths' must be a non-empty list of path strings"),
        ("pool", {"in_paths": [], "n": 3},
         "'in_paths' must be a non-empty list of path strings"),
        ("synthesize", {**_SYNTH_CONFIG, "error_rate": True}, "'error_rate' must be a number"),
        ("synthesize", {**_SYNTH_CONFIG, "error_rate": "0.5"}, "'error_rate' must be a number"),
        ("synthesize", {**_SYNTH_CONFIG, "stub_drop_rate": False},
         "'stub_drop_rate' must be a number"),
        ("synthesize", {**_SYNTH_CONFIG, "fewshot": "no"}, "'fewshot' must be true or false"),
        ("synthesize", {**_SYNTH_CONFIG, "backend": "http", "fewshot": 1},
         "'fewshot' must be true or false"),
        ("score", {"beta": float("inf")}, "'beta' must be finite"),
        ("score", {"beta": float("nan")}, "'beta' must be finite"),
        ("score", {"beta": 10**400}, "'beta' must be finite"),
        ("synthesize", {**_SYNTH_CONFIG, "error_rate": float("nan")},
         "'error_rate' must be finite"),
        ("sample", {**_SYNTH_CONFIG, "count": -1}, "count must be non-negative"),
        ("synthesize", {**_SYNTH_CONFIG, "attempt_budget": -1},
         "attempt_budget must be non-negative"),
        ("synthesize", {**_SYNTH_CONFIG, "workers": 0}, "workers must be at least 1"),
        ("synthesize", {**_SYNTH_CONFIG, "workers": -1}, "workers must be at least 1"),
        ("denoise", {"in_path": "syn.jsonl", "max_in_flight": 0},
         "max_in_flight must be at least 1"),
        ("denoise", {"in_path": "syn.jsonl", "max_in_flight": -1},
         "max_in_flight must be at least 1"),
        ("synthesize", {**_SYNTH_CONFIG, "backend": "http", "workers": 0},
         "workers must be at least 1"),
        ("denoise", {"in_path": "syn.jsonl", "backend": "oracle", "max_in_flight": 0},
         "max_in_flight must be at least 1"),
        ("denoise", {"in_path": "syn.jsonl", "backend": "http", "max_in_flight": 0},
         "max_in_flight must be at least 1"),
        ("stats", {**_STATS_CONFIG, "top_k": 0}, "top_k must be at least 1"),
        ("stats", {**_STATS_CONFIG, "top_k": -1}, "top_k must be at least 1"),
    ],
    ids=["beta-list", "beta-string", "beta-bool", "beta-zero", "in-path-int",
         "in-paths-string", "in-paths-empty", "rate-true", "rate-string", "rate-false",
         "fewshot-string", "fewshot-int-http", "beta-infinity", "beta-nan", "beta-huge-int",
         "rate-nan",
         "count-negative", "budget-negative",
         "workers-zero", "workers-negative", "in-flight-zero", "in-flight-negative",
         "workers-zero-http", "in-flight-zero-oracle", "in-flight-zero-http",
         "top-k-zero", "top-k-negative"],
)
def test_config_values_of_the_wrong_type(workdir: Path, capsys, command, config, message):
    base = {"hyp": "hyp.tsv", "gold": "gold.m2", "out": "out.jsonl"}
    (workdir / "job.json").write_text(json.dumps({**base, **config}), encoding="utf-8")
    rc, _, events = _run(capsys, command, "--config", "job.json")
    assert rc == 2
    assert events == [{"event": "error", "code": "CONFIG", "message": message}]
    assert not (workdir / "out.jsonl").exists()


def test_denoise_http_needs_endpoint(workdir: Path, capsys, monkeypatch):
    monkeypatch.delenv("GECAUG_CORRECTOR_URL", raising=False)
    _synthesize_fixture(workdir)
    rc, _, events = _run(
        capsys, "denoise", "--in", "syn.jsonl", "--backend", "http", "--out", "x.jsonl"
    )
    assert rc == 2
    assert events[-1]["code"] == "CONFIG"


@pytest.mark.parametrize(
    "command, variable, endpoint",
    [
        ("synthesize", "GECAUG_GENERATOR_URL", "localhost:9/x"),
        ("denoise", "GECAUG_CORRECTOR_URL", "ftp://gecaug.invalid/x"),
    ],
)
def test_bad_endpoint_is_a_config_error_before_the_stage(
    workdir: Path, capsys, monkeypatch, command, variable, endpoint
):
    _synthesize_fixture(workdir)
    capsys.readouterr()
    monkeypatch.setenv(variable, endpoint)
    args = {
        "synthesize": ["--pool", "pool.jsonl", "--n", "3", "--count", "2", "--seed", "1"],
        "denoise": ["--in", "syn.jsonl"],
    }[command]
    rc, _, events = _run(capsys, command, *args, "--backend", "http", "--out", "out.jsonl")
    assert rc == 2
    message = f"endpoint must be an http:// or https:// URL with a host: {endpoint!r}"
    assert events == [{"event": "error", "code": "CONFIG", "message": message}]
    assert not (workdir / "out.jsonl").exists()


@pytest.mark.parametrize(
    "command, endpoint, token, message",
    [
        ("synthesize", "http://127.0.0.1:9/", "tok\r\nX-Injected: 1",
         "auth token contains a control character"),
        ("denoise", "http://us%0Aer:pw@127.0.0.1:9/", None,
         "user info of 127.0.0.1 contains a control character"),
        ("denoise", "http://gecaug .invalid/", None,
         "host 'gecaug .invalid' contains a control character or space"),
    ],
    ids=["token", "user-info", "host"],
)
def test_a_value_that_could_break_the_request_head_is_a_config_error_before_the_stage(
    workdir: Path, capsys, monkeypatch, command, endpoint, token, message
):
    _synthesize_fixture(workdir)
    capsys.readouterr()
    kind = {"synthesize": "GENERATOR", "denoise": "CORRECTOR"}[command]
    monkeypatch.setenv(f"GECAUG_{kind}_URL", endpoint)
    if token is not None:
        monkeypatch.setenv(f"GECAUG_{kind}_TOKEN", token)
    args = {
        "synthesize": ["--pool", "pool.jsonl", "--n", "3", "--count", "2", "--seed", "1"],
        "denoise": ["--in", "syn.jsonl"],
    }[command]
    rc, _, events = _run(capsys, command, *args, "--backend", "http", "--out", "out.jsonl")
    assert rc == 2
    assert events == [{"event": "error", "code": "CONFIG", "message": message}]
    assert not (workdir / "out.jsonl").exists()


def test_fewshot_is_in_the_manifest_only_when_set(workdir: Path):
    _synthesize_fixture(workdir)
    manifest = workdir / "syn.jsonl.manifest.json"
    default = json.loads(manifest.read_text(encoding="utf-8"))
    assert "fewshot" not in default["config"]
    assert main([
        "synthesize", "--pool", "pool.jsonl", "--n", "3", "--count", "12",
        "--seed", "3", "--error-rate", "0.7", "--backend", "stub",
        "--out", "syn.jsonl", "--workers", "1", "--fewshot",
    ]) == 0
    fewshot = json.loads(manifest.read_text(encoding="utf-8"))
    assert fewshot["config"] == {**default["config"], "fewshot": True}
    assert fewshot["config_hash"] != default["config_hash"]


def _echo(payload: dict):
    return 200, json.dumps({"text": payload["text"]}).encode("utf-8")


@pytest.mark.parametrize(
    "command, step, rc_want",
    [("synthesize", (400, {}), 1), ("denoise", _echo, 0), ("denoise", (400, {}), 1)],
    ids=["synthesize-fails", "denoise-succeeds", "denoise-fails"],
)
def test_remote_backend_is_closed_when_its_stage_ends(
    workdir: Path, capsys, monkeypatch, command, step, rc_want
):
    _synthesize_fixture(workdir)
    closed: list[str] = []
    close = JsonHttpClient.close

    def recording_close(self):
        closed.append(self.endpoint)
        close(self)

    monkeypatch.setattr(JsonHttpClient, "close", recording_close)
    args = {
        "synthesize": ["--pool", "pool.jsonl", "--n", "3", "--count", "2", "--seed", "1"],
        "denoise": ["--in", "syn.jsonl"],
    }[command]
    with ScriptedServer([step], keep_alive=True) as server:
        for variable in ("GECAUG_GENERATOR_URL", "GECAUG_CORRECTOR_URL"):
            monkeypatch.setenv(variable, server.url)
        capsys.readouterr()
        rc, _, events = _run(capsys, command, *args, "--backend", "http", "--out", "out.jsonl")
    assert rc == rc_want, events
    assert server.requests
    assert closed == [server.url]


def test_mix_and_sweep(workdir: Path, capsys):
    _synthesize_fixture(workdir)
    assert main([
        "denoise", "--in", "syn.jsonl", "--backend", "oracle", "--out", "denoised.jsonl",
    ]) == 0
    plan = {
        "stage": "II",
        "real": ["corpus.tsv"],
        "synthetic": "denoised.jsonl",
        "synthetic_count": 10,
        "seed": 4,
    }
    (workdir / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    rc, _, _ = _run(capsys, "mix", "--plan", "plan.json", "--out", "train.jsonl")
    assert rc == 0
    lines = (workdir / "train.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 16
    manifest = json.loads(
        (workdir / "train.jsonl.manifest.json").read_text(encoding="utf-8")
    )
    assert manifest["counts"]["total"] == 16
    assert "content_hash" in manifest["counts"]
    first = (workdir / "train.jsonl").read_bytes()
    assert main(["mix", "--plan", "plan.json", "--out", "train.jsonl"]) == 0
    capsys.readouterr()
    assert (workdir / "train.jsonl").read_bytes() == first

    rc, out, _ = _run(
        capsys, "mix", "--plan", "plan.json", "--sweep", "0,6,12", "--out", "train.jsonl"
    )
    assert rc == 0
    for cap in (0, 6, 12):
        assert (workdir / f"train.cap{cap}.jsonl").exists()
        rows = (workdir / f"train.cap{cap}.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(rows) == 6 + cap
    summary = json.loads((workdir / "train.jsonl.sweep.json").read_text(encoding="utf-8"))
    assert [row["cap"] for row in summary] == [0, 6, 12]
    printed = out.splitlines()
    assert printed[0].startswith("cap=0 total=6 errorful=")
    assert len(printed) == 3



def test_mix_bad_sweep_value(workdir: Path, capsys):
    (workdir / "plan.json").write_text(
        json.dumps({"stage": "I", "real": ["corpus.tsv"], "seed": 0}), encoding="utf-8"
    )
    rc, _, events = _run(
        capsys, "mix", "--plan", "plan.json", "--sweep", "0,x", "--out", "t.jsonl"
    )
    assert rc == 2
    assert events[-1]["code"] == "CONFIG"


@pytest.mark.parametrize("bad_line, code", [
    ("{broken", "MALFORMED_LINE"),
    ('{"id": "x", "source": "a b"}', "SCHEMA"),
])
def test_mix_fails_on_a_bad_synthetic_row_past_the_cap(workdir: Path, capsys, bad_line, code):
    _write_corpus(workdir)
    rows = [ParallelExample(("it", str(i)), ("it", str(i)), id=str(i)) for i in range(6)]
    write_jsonl(rows, workdir / "syn.jsonl")
    with (workdir / "syn.jsonl").open("a", encoding="utf-8") as fh:
        fh.write(bad_line + "\n")
    plan = {"stage": "II", "real": ["corpus.tsv"], "synthetic": "syn.jsonl",
            "synthetic_count": 2, "seed": 0}
    (workdir / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    for sweep in ((), ("--sweep", "0,2")):
        rc, _, events = _run(capsys, "mix", "--plan", "plan.json", *sweep, "--out", "t.jsonl")
        assert rc == 1, sweep
        assert events[-1]["code"] == code, sweep
        assert events[-1]["message"].startswith("syn.jsonl:7: "), sweep
        assert not list(workdir.glob("t.*")), sweep


def test_sweep_encodes_and_hashes_each_pair_once(workdir: Path, capsys, monkeypatch):
    real = [f"we go to shop {i} .\twe go to the shop {i} ." for i in range(30)]
    (workdir / "real.tsv").write_text("\n".join(real) + "\n", encoding="utf-8")
    synthetic = [
        ParallelExample(("it", "is", str(i)), ("it", "is", str(i)) if i % 3 else ("is", str(i)),
                        id=str(i), meta={"k": i})
        for i in range(40)
    ]
    write_jsonl(synthetic, workdir / "syn.jsonl")
    plan = {"stage": "II", "real": ["real.tsv"], "synthetic": "syn.jsonl",
            "synthetic_count": 40, "seed": 9}
    (workdir / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    caps = (0, 13, 40, 25)
    plain = {}
    for cap in caps:
        (workdir / "one.json").write_text(
            json.dumps({**plan, "synthetic_count": cap}), encoding="utf-8"
        )
        assert main(["mix", "--plan", "one.json", "--out", "one.jsonl"]) == 0
        manifest = json.loads((workdir / "one.jsonl.manifest.json").read_text(encoding="utf-8"))
        plain[cap] = (workdir / "one.jsonl").read_bytes(), manifest["counts"]
    capsys.readouterr()

    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # The row encoder every JSONL line goes through, and the digest of one pair.
    monkeypatch.setattr(corpus, "canonical_json", counting("encode", corpus.canonical_json))
    mix_module = importlib.import_module("gecaug.mix")
    monkeypatch.setattr(mix_module, "pair_hash", counting("digest", mix_module.pair_hash))
    sweep = ",".join(map(str, caps))
    rc, out, _ = _run(capsys, "mix", "--plan", "plan.json", "--sweep", sweep, "--out", "t.jsonl")
    assert rc == 0
    assert calls == {"encode": 70, "digest": 70}
    assert len(out.splitlines()) == len(caps)
    for cap in caps:
        manifest = json.loads(
            (workdir / f"t.cap{cap}.jsonl.manifest.json").read_text(encoding="utf-8")
        )
        assert (workdir / f"t.cap{cap}.jsonl").read_bytes() == plain[cap][0], cap
        assert manifest["counts"] == plain[cap][1], cap


def test_stats_pool_mode(workdir: Path, capsys):
    _write_corpus(workdir)
    assert main(["extract", "--in", "corpus.tsv", "--n", "3", "--out", "pool.jsonl"]) == 0
    rc, out, _ = _run(capsys, "stats", "--pool", "pool.jsonl", "--n", "3")
    assert rc == 0
    assert json.loads(out) == {"patterns": 3, "total": 6}


def test_stats_mode_is_exclusive(workdir: Path, capsys):
    rc, _, events = _run(
        capsys, "stats", "--pool", "a.jsonl", "--ref-pool", "b.jsonl", "--n", "3"
    )
    assert rc == 2
    assert events[-1]["code"] == "CONFIG"
    rc, _, events = _run(capsys, "stats", "--n", "3")
    assert rc == 2
    assert events[-1]["code"] == "CONFIG"


def test_stats_distribution_report(workdir: Path, capsys):
    _write_corpus(workdir)
    assert main(["extract", "--in", "corpus.tsv", "--n", "3", "--out", "pool.jsonl"]) == 0
    rc, out, _ = _run(
        capsys, "stats", "--ref-pool", "pool.jsonl", "--corpus", "corpus.tsv",
        "--n", "3", "--top-k", "3", "--out", "report.json", "--csv", "table.csv",
    )
    assert rc == 0
    summary = json.loads(out)
    # Re-extracting from the pool's own source corpus reproduces it exactly.
    assert summary["cosine"] == pytest.approx(1.0)
    assert summary["spearman"] == pytest.approx(1.0)
    assert summary["top_k"] == 3
    report = json.loads((workdir / "report.json").read_text(encoding="utf-8"))
    assert len(report["patterns"]) == 3
    csv_lines = (workdir / "table.csv").read_text(encoding="utf-8").splitlines()
    assert csv_lines[0] == "pattern_wrong,pattern_correct,reference_count,candidate_count"
    assert csv_lines[1] == "move one,move from one,3,3"
    assert len(csv_lines) == 4


def test_stats_rejects_one_file_for_report_and_csv(workdir: Path, capsys):
    _write_corpus(workdir)
    assert main(["extract", "--in", "corpus.tsv", "--n", "3", "--out", "pool.jsonl"]) == 0
    capsys.readouterr()
    rc, out, events = _run(
        capsys, "stats", "--ref-pool", "pool.jsonl", "--corpus", "corpus.tsv",
        "--n", "3", "--out", "r.json", "--csv", "./r.json",
    )
    assert (rc, out) == (2, "")
    assert events == [
        {"event": "error", "code": "CONFIG", "message": "'out' and 'csv' name one file: ./r.json"}
    ]
    assert not list(workdir.glob("r.json*"))


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("stats", {**_STATS_CONFIG, "out": 5}, "'out' must be a path string"),
        ("stats", {**_STATS_CONFIG, "csv": 5}, "'csv' must be a path string"),
        ("score", {"hyp": "hyp.tsv", "gold": "gold.m2", "out": 5}, "'out' must be a path string"),
    ],
    ids=["stats-out", "stats-csv", "score-out"],
)
def test_report_outputs_are_checked_before_the_stage(
    workdir: Path, capsys, command, config, message
):
    _write_corpus(workdir)
    _write_score_fixture(workdir)
    assert main(["extract", "--in", "corpus.tsv", "--n", "3", "--out", "pool.jsonl"]) == 0
    capsys.readouterr()
    (workdir / "job.json").write_text(json.dumps(config), encoding="utf-8")
    rc, out, events = _run(capsys, command, "--config", "job.json")
    assert rc == 2
    assert out == ""
    assert events == [{"event": "error", "code": "CONFIG", "message": message}]


def _write_score_fixture(workdir: Path) -> None:
    (workdir / "gold.m2").write_text(
        "S He go .\n"
        "A 1 2|||R:VERB:SVA|||goes|||REQUIRED|||-NONE-|||0\n"
        "\n"
        "S I like apple .\n"
        "A 2 3|||R:NOUN:NUM|||apples|||REQUIRED|||-NONE-|||0\n"
        "\n"
        "S They are happy .\n"
        "A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n",
        encoding="utf-8",
    )
    (workdir / "hyp.tsv").write_text(
        "He go .\tHe goes .\n"
        "I like apple .\tI like apple .\n"
        "They are happy .\tThey are very happy .\n",
        encoding="utf-8",
    )


def test_score_output(workdir: Path, capsys):
    _write_score_fixture(workdir)
    rc, out, _ = _run(
        capsys, "score", "--hyp", "hyp.tsv", "--gold", "gold.m2", "--out", "report.json"
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[:6] == [
        "TP 1",
        "FP 1",
        "FN 1",
        "Precision 0.5000",
        "Recall 0.5000",
        "F0.5 0.5000",
    ]
    assert lines[6:] == [
        "category R:NOUN:NUM tp=0 fp=0 fn=1 f=0.0000",
        "category R:VERB:SVA tp=1 fp=0 fn=0 f=1.0000",
        "category insertion tp=0 fp=1 fn=0 f=0.0000",
    ]
    report = json.loads((workdir / "report.json").read_text(encoding="utf-8"))
    assert (report["tp"], report["fp"], report["fn"]) == (1, 1, 1)
    assert report["beta"] == 0.5


def test_score_beta_label(workdir: Path, capsys):
    _write_score_fixture(workdir)
    rc, out, _ = _run(capsys, "score", "--hyp", "hyp.tsv", "--gold", "gold.m2", "--beta", "1")
    assert rc == 0
    assert any(line.startswith("F1 ") for line in out.splitlines())


@pytest.mark.parametrize("beta", ["inf", "1e400", "nan"])
def test_non_finite_beta_flag_is_a_config_error(workdir: Path, capsys, beta):
    _write_score_fixture(workdir)
    rc, out, events = _run(
        capsys, "score", "--hyp", "hyp.tsv", "--gold", "gold.m2", "--beta", beta,
        "--out", "report.json",
    )
    assert rc == 2
    assert out == ""
    assert events == [{"event": "error", "code": "CONFIG", "message": "'beta' must be finite"}]
    assert not (workdir / "report.json").exists()


def test_score_mismatch_is_scoring_error(workdir: Path, capsys):
    _write_score_fixture(workdir)
    (workdir / "short.tsv").write_text("He go .\tHe goes .\n", encoding="utf-8")
    rc, _, events = _run(capsys, "score", "--hyp", "short.tsv", "--gold", "gold.m2")
    assert rc == 1
    assert events[-1]["code"] == "SCORING"


def test_stage_events_are_json_lines(workdir: Path, capsys):
    _write_corpus(workdir)
    rc, _, events = _run(
        capsys, "extract", "--in", "corpus.tsv", "--n", "3", "--out", "pool.jsonl"
    )
    assert rc == 0
    assert [e["event"] for e in events] == ["stage", "stage"]
    assert events[0]["phase"] == "start"
    assert events[1]["phase"] == "end"

def _write_plan(root: Path, seed: int) -> None:
    plan = {
        "stage": "II",
        "real": ["corpus.tsv"],
        "synthetic": "denoised.jsonl",
        "synthetic_count": 10,
        "seed": seed,
    }
    (root / "plan.json").write_text(json.dumps(plan), encoding="utf-8")


def _files(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in root.iterdir()}


_SYNTHESIZE = (
    "synthesize", "--pool", "pool.jsonl", "--n", "3", "--count", "12",
    "--error-rate", "0.7", "--backend", "stub", "--out", "syn2.jsonl", "--seed",
)
_SWEEP = ("mix", "--plan", "plan.json", "--sweep", "0,6,12", "--out", "train.jsonl")

# Runs the CLI on argv[2:] and SIGKILLs itself right after the argv[1]-th
# return of os.replace or an artifact writer.
_KILL_AFTER = """
import os, signal, sys
from gecaug import cli

k, calls = int(sys.argv[1]), 0

def kill_after_kth(fn):
    def wrapper(*args, **kwargs):
        global calls
        result = fn(*args, **kwargs)
        calls += 1
        if calls == k:
            os.kill(os.getpid(), signal.SIGKILL)
        return result
    return wrapper

os.replace = kill_after_kth(os.replace)
cli.write_samples = kill_after_kth(cli.write_samples)
cli.write_jsonl = kill_after_kth(cli.write_jsonl)
sys.exit(cli.main(sys.argv[2:]))
"""


def test_killed_rerun_leaves_no_stale_manifest(workdir: Path, capsys, monkeypatch):
    _synthesize_fixture(workdir)
    assert main(["denoise", "--in", "syn.jsonl", "--backend", "oracle",
                 "--out", "denoised.jsonl"]) == 0
    # Seeds 1 and 4 make tree A, seeds 2 and 5 tree B: a manifest's seed
    # names the clean tree its artifacts must match.
    clean: dict[int, dict[str, bytes]] = {}
    for synth_seed, plan_seed in ((1, 4), (2, 5)):
        root = workdir / f"clean{synth_seed}"
        shutil.copytree(workdir, root, ignore=shutil.ignore_patterns("clean*"))
        monkeypatch.chdir(root)
        _write_plan(root, plan_seed)
        assert main([*_SYNTHESIZE, str(synth_seed)]) == 0
        assert main(list(_SWEEP)) == 0
        clean[synth_seed] = clean[plan_seed] = _files(root)
    capsys.readouterr()
    assert clean[1]["syn2.jsonl"] != clean[2]["syn2.jsonl"]
    assert clean[4]["train.cap6.jsonl"] != clean[5]["train.cap6.jsonl"]
    assert not [name for name in clean[1] if name.endswith(".tmp")]

    # The manifests each rerun writes, and the sidecars they cover.
    outputs = {
        "synthesize": ("syn2.", ["syn2.jsonl.stats.json"]),
        "mix": ("train.", ["train.jsonl.sweep.json"]),
    }
    for argv in ([*_SYNTHESIZE, "2"], list(_SWEEP)):
        for k in range(1, 30):
            root = workdir / f"{argv[0]}-{k}"
            shutil.copytree(workdir / "clean1", root)
            _write_plan(root, 5)
            proc = subprocess.run(
                [sys.executable, "-c", _KILL_AFTER, str(k), *argv],
                cwd=root, env=cli_env(), capture_output=True, text=True,
            )
            files = _files(root)
            prefix, sidecars = outputs[argv[0]]
            if proc.returncode == 0:
                assert {n: b for n, b in files.items() if n.startswith(prefix)} == {
                    n: b for n, b in clean[2].items() if n.startswith(prefix)
                }
                assert not [name for name in files if name.endswith(".tmp")]
                break
            assert proc.returncode == -signal.SIGKILL, proc.stderr
            for name, data in files.items():
                if not (name.startswith(prefix) and name.endswith(".manifest.json")):
                    continue
                ref = clean[json.loads(data)["seed"]]
                artifact = name[: -len(".manifest.json")]
                for path in (name, artifact, *sidecars):
                    assert files[path] == ref[path], (argv[0], k, path)
        assert k > 3, argv[0]


def test_failed_stage_removes_its_temporaries(workdir: Path, capsys, monkeypatch):
    _synthesize_fixture(workdir)
    assert main(["denoise", "--in", "syn.jsonl", "--backend", "oracle",
                 "--out", "denoised.jsonl"]) == 0
    _write_plan(workdir, 4)
    assert main(list(_SWEEP)) == 0
    before = _files(workdir)
    write_lines = cli.write_lines

    def fail_on_second_cap(lines, path):
        if any(name.endswith(".tmp") for name in _files(workdir)):
            raise OSError("disk full")
        return write_lines(lines, path)

    monkeypatch.setattr(cli, "write_lines", fail_on_second_cap)
    _write_plan(workdir, 5)
    rc, _, events = _run(capsys, *_SWEEP)
    assert rc == 1
    assert events[-1] == {"event": "error", "code": "IO", "message": "disk full"}
    after = _files(workdir)
    assert after.pop("plan.json") != before.pop("plan.json")
    assert after == before

    # A denoise whose corrector fails mid-stream keeps the committed output.
    def fail_at_sample_5(self, text, request_id="0"):
        if request_id == "5":
            raise TransportError("corrector down", 3)
        return text

    monkeypatch.setattr(IdentityCorrector, "correct_text", fail_at_sample_5)
    before = _files(workdir)
    rc, _, events = _run(capsys, "denoise", "--in", "syn.jsonl", "--out", "denoised.jsonl")
    assert rc == 1
    assert events[-1] == {
        "event": "error", "code": "TRANSPORT", "message": "corrector down (attempts=3)"
    }
    assert _files(workdir) == before

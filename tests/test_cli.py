from __future__ import annotations

import concurrent.futures
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from gecaug import IdentityCorrector, cli
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


_INT_OPTIONS = (
    ("sample", "count"),
    ("synthesize", "count"),
    ("synthesize", "workers"),
    ("synthesize", "attempt_budget"),
    ("denoise", "max_in_flight"),
    ("denoise", "checkpoint_every"),
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


def test_local_backends_default_to_one_in_flight(workdir: Path, capsys, monkeypatch):
    def no_threads(*args, **kwargs):
        raise AssertionError("a local backend started a thread pool")

    # ``map_ordered`` imports the pool where it starts one, so it is
    # replaced at its source.
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_threads)
    _write_corpus(workdir)
    assert main(["extract", "--in", "corpus.tsv", "--n", "3", "--out", "pool.jsonl"]) == 0
    assert main([
        "synthesize", "--pool", "pool.jsonl", "--n", "3", "--count", "20",
        "--seed", "3", "--backend", "stub", "--out", "syn.jsonl",
    ]) == 0
    assert main(["denoise", "--in", "syn.jsonl", "--out", "identity.jsonl"]) == 0
    capsys.readouterr()
    assert len((workdir / "identity.jsonl").read_text(encoding="utf-8").splitlines()) == 20


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


def test_denoise_resume_from_checkpoint(workdir: Path, capsys):
    _synthesize_fixture(workdir)
    rc, _, _ = _run(
        capsys, "denoise", "--in", "syn.jsonl", "--backend", "identity",
        "--out", "full.jsonl",
    )
    assert rc == 0
    full_lines = (workdir / "full.jsonl").read_text(encoding="utf-8").splitlines(True)

    # Simulate an interrupted run: 5 pairs written, checkpoint on disk.
    (workdir / "resumed.jsonl").write_text("".join(full_lines[:5]), encoding="utf-8")
    (workdir / "relabel.ckpt").write_text(
        json.dumps({"completed": 5, "last_id": "4"}), encoding="utf-8"
    )
    rc, _, _ = _run(
        capsys, "denoise", "--in", "syn.jsonl", "--backend", "identity",
        "--checkpoint", "relabel.ckpt", "--out", "resumed.jsonl",
    )
    assert rc == 0
    assert (workdir / "resumed.jsonl").read_bytes() == (workdir / "full.jsonl").read_bytes()
    assert not (workdir / "relabel.ckpt").exists()
    manifest = json.loads(
        (workdir / "resumed.jsonl.manifest.json").read_text(encoding="utf-8")
    )
    assert manifest["counts"]["pairs"] == 12


_DENOISE = (
    "denoise", "--in", "syn.jsonl", "--backend", "identity",
    "--checkpoint", "relabel.ckpt", "--checkpoint-every", "10", "--out", "denoised.jsonl",
)


def _uninterrupted_denoise(workdir: Path) -> tuple[bytes, bytes]:
    assert main(list(_DENOISE)) == 0
    out = workdir / "denoised.jsonl"
    manifest = workdir / "denoised.jsonl.manifest.json"
    expected = out.read_bytes(), manifest.read_bytes()
    out.unlink()
    manifest.unlink()
    return expected


@pytest.mark.parametrize("checkpoint_lags", [False, True], ids=["finally", "killed"])
def test_denoise_resumes_from_output_after_interrupt(
    workdir: Path, capsys, monkeypatch, checkpoint_lags
):
    _synthesize_fixture(workdir, count=50)
    expected = _uninterrupted_denoise(workdir)

    def interrupt_at_25(self, text, request_id="0"):
        if request_id == "25":
            raise KeyboardInterrupt
        return text

    with monkeypatch.context() as patch:
        patch.setattr(IdentityCorrector, "correct_text", interrupt_at_25)
        with pytest.raises(KeyboardInterrupt):
            main(list(_DENOISE))
    out = workdir / "denoised.jsonl"
    checkpoint = workdir / "relabel.ckpt"
    assert len(out.read_bytes().splitlines()) == 25
    assert json.loads(checkpoint.read_text(encoding="utf-8"))["completed"] == 25
    assert not (workdir / "denoised.jsonl.manifest.json").exists()
    if checkpoint_lags:
        # A kill between saves leaves the checkpoint behind the output.
        checkpoint.write_text(json.dumps({"completed": 20, "last_id": "19"}), encoding="utf-8")

    capsys.readouterr()
    rc, _, events = _run(capsys, *_DENOISE)
    assert rc == 0
    assert events[0]["resume_skip"] == 25
    assert (out.read_bytes(), (workdir / "denoised.jsonl.manifest.json").read_bytes()) == expected
    assert not checkpoint.exists()


def test_denoise_resume_drops_a_torn_last_line(workdir: Path, capsys):
    _synthesize_fixture(workdir, count=50)
    expected = _uninterrupted_denoise(workdir)
    lines = expected[0].splitlines(True)
    (workdir / "denoised.jsonl").write_bytes(b"".join(lines[:17]) + lines[17][:30])
    (workdir / "relabel.ckpt").write_text(
        json.dumps({"completed": 10, "last_id": "9"}), encoding="utf-8"
    )
    capsys.readouterr()
    rc, _, events = _run(capsys, *_DENOISE)
    assert rc == 0
    assert events[0]["resume_skip"] == 17
    out = workdir / "denoised.jsonl"
    assert (out.read_bytes(), (workdir / "denoised.jsonl.manifest.json").read_bytes()) == expected


def test_denoise_resume_cross_checks(workdir: Path, capsys):
    _synthesize_fixture(workdir, count=50)
    lines = _uninterrupted_denoise(workdir)[0].splitlines(True)
    out = workdir / "denoised.jsonl"
    checkpoint = workdir / "relabel.ckpt"

    out.write_bytes(b"".join(lines[:5]))
    checkpoint.write_text(json.dumps({"completed": 9, "last_id": "8"}), encoding="utf-8")
    rc, _, events = _run(capsys, *_DENOISE)
    assert rc == 2
    assert events[-1]["code"] == "CONFIG"
    assert "records 9 pairs" in events[-1]["message"]

    out.write_bytes(b"".join(lines[:3] + lines[4:6]))
    checkpoint.write_text(json.dumps({"completed": 5, "last_id": "5"}), encoding="utf-8")
    rc, _, events = _run(capsys, *_DENOISE)
    assert rc == 2
    assert events[-1]["code"] == "CONFIG"
    assert events[-1]["message"].startswith("denoised.jsonl:4: ")
    assert out.read_bytes() == b"".join(lines[:3] + lines[4:6])


@pytest.mark.parametrize("checkpoint", ["[1]", '{"completed": true}'], ids=["list", "bool"])
def test_bad_checkpoint_is_one_error_line(workdir: Path, capsys, checkpoint):
    _synthesize_fixture(workdir)
    capsys.readouterr()
    (workdir / "relabel.ckpt").write_text(checkpoint, encoding="utf-8")
    rc, _, events = _run(capsys, *_DENOISE)
    assert rc == 1
    assert events == [{
        "event": "error", "code": "INVALID_ARGUMENT",
        "message": "relabel.ckpt: bad checkpoint, 'completed' must be a non-negative int",
    }]
    assert not (workdir / "denoised.jsonl").exists()


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
        (workdir / "relabel.ckpt").write_bytes(b'{"completed": 1, "last_id": "\xff"}')
        argv, rc_want = _DENOISE, 1
        code, prefix = "INVALID_ARGUMENT", "relabel.ckpt: bad checkpoint, invalid UTF-8: "
    rc, _, events = _run(capsys, *argv)
    assert rc == rc_want
    assert len(events) == 1
    assert (events[0]["code"], events[0]["message"][:len(prefix)]) == (code, prefix)
    assert not (workdir / "denoised.jsonl").exists()


_SYNTH_CONFIG = {"pool": "pool.jsonl", "n": 3, "count": 1, "seed": 0}


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
    ],
    ids=["beta-list", "beta-string", "beta-bool", "beta-zero", "in-path-int",
         "in-paths-string", "in-paths-empty", "rate-true", "rate-string", "rate-false"],
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
    write_jsonl = cli.write_jsonl

    def fail_on_second_cap(examples, path):
        if any(name.endswith(".tmp") for name in _files(workdir)):
            raise OSError("disk full")
        return write_jsonl(examples, path)

    monkeypatch.setattr(cli, "write_jsonl", fail_on_second_cap)
    _write_plan(workdir, 5)
    rc, _, events = _run(capsys, *_SWEEP)
    assert rc == 1
    assert events[-1] == {"event": "error", "code": "IO", "message": "disk full"}
    after = _files(workdir)
    assert after.pop("plan.json") != before.pop("plan.json")
    assert after == before

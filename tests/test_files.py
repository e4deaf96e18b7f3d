"""The file rule of the CLI: what a command reads and writes, from its options.

``cli._OPTIONS`` marks ``--out``, ``--csv`` and ``--checkpoint`` as written
files and every other path option as read. A written file that names any
other file the command resolved, ``--config`` included, is a ``CONFIG``
error before the stage; two reads may name one file. A written file
also claims the names written beside it: its temporary, and beside
``--out`` its manifest and the sidecar of ``synthesize`` and ``mix
--sweep``, each with a temporary. A ``--checkpoint`` file is written in
place and claims no temporary. A manifest's ``inputs`` are the files
read, the config file aside, each hashed once per run.

A stage's commit may be cut at any of its filesystem calls, by an error
or by the process dying: every artifact that then has a manifest is
still the clean run of that manifest.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path

import pytest

from gecaug import cli
from gecaug.cli import main

CORPUS = (
    "Public transport enables our body to move one place to another .\t"
    "Public transport enables our body to move from one place to another .\n" * 3
    + "He go to school .\tHe goes to school .\n" * 2
    + "I like apple .\tI like apples .\n"
)
GOLD = (
    "S He go .\n"
    "A 1 2|||R:VERB:SVA|||goes|||REQUIRED|||-NONE-|||0\n"
    "\n"
    "S I like apple .\n"
    "A 2 3|||R:NOUN:NUM|||apples|||REQUIRED|||-NONE-|||0\n"
)
HYP = "He go .\tHe goes .\nI like apple .\tI like apple .\n"
PLAN = {
    "stage": "II", "real": ["corpus.tsv"], "synthetic": "den.jsonl",
    "synthetic_count": 6, "seed": 4,
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory: pytest.TempPathFactory) -> Path:
    """One directory with an input for every command, each with its manifest."""
    root = tmp_path_factory.mktemp("inputs")
    (root / "corpus.tsv").write_text(CORPUS, encoding="utf-8")
    (root / "gold.m2").write_text(GOLD, encoding="utf-8")
    (root / "hyp.tsv").write_text(HYP, encoding="utf-8")
    (root / "plan.json").write_text(json.dumps(PLAN), encoding="utf-8")
    (root / "job.json").write_text("{}", encoding="utf-8")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        assert main(["extract", "--in", "corpus.tsv", "--n", "3", "--out", "pool.jsonl"]) == 0
        assert main([
            "synthesize", "--pool", "pool.jsonl", "--n", "3", "--count", "12", "--seed", "3",
            "--error-rate", "0.7", "--out", "syn.jsonl",
        ]) == 0
        assert main(
            ["denoise", "--in", "syn.jsonl", "--backend", "oracle", "--out", "den.jsonl"]
        ) == 0
    return root


@pytest.fixture()
def workdir(inputs: Path, tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> Path:
    root = tmp_path / "run"
    shutil.copytree(inputs, root)
    monkeypatch.chdir(root)
    return root


def _run(capsys, *argv: str):
    rc = main(list(argv))
    captured = capsys.readouterr()
    events = [json.loads(line) for line in captured.err.splitlines() if line]
    return rc, captured.out, events


def _files(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


_STATS = ("stats", "--ref-pool", "pool.jsonl", "--corpus", "corpus.tsv", "--n", "3")
_SCORE = ("score", "--hyp", "hyp.tsv", "--gold", "gold.m2")

# (argv with the written path as "{}", the file it names, the read option and
# the written option in the order the command resolves them)
_COLLISIONS = {
    "extract-out-in": (
        ("extract", "--in", "corpus.tsv", "--n", "3", "--out", "{}"),
        "corpus.tsv", ("in_path", "out"),
    ),
    "extract-out-config": (
        ("extract", "--config", "job.json", "--in", "corpus.tsv", "--n", "3", "--out", "{}"),
        "job.json", ("config", "out"),
    ),
    "pool-out-in": (("pool", "--in", "pool.jsonl", "--n", "3", "--out", "{}"),
                    "pool.jsonl", ("in_paths", "out")),
    "sample-out-pool": (
        ("sample", "--pool", "pool.jsonl", "--n", "3", "--count", "5", "--seed", "1",
         "--out", "{}"),
        "pool.jsonl", ("pool", "out"),
    ),
    "synthesize-out-pool": (
        ("synthesize", "--pool", "pool.jsonl", "--n", "3", "--count", "5", "--seed", "1",
         "--out", "{}"),
        "pool.jsonl", ("pool", "out"),
    ),
    "denoise-out-in": (("denoise", "--in", "syn.jsonl", "--out", "{}"),
                       "syn.jsonl", ("in_path", "out")),
    "denoise-checkpoint-in": (
        ("denoise", "--in", "syn.jsonl", "--out", "new.jsonl", "--checkpoint", "{}"),
        "syn.jsonl", ("in_path", "checkpoint"),
    ),
    "mix-out-plan": (("mix", "--plan", "plan.json", "--out", "{}"),
                     "plan.json", ("plan", "out")),
    # The plan's corpora are known only once the plan is read, after --out.
    "mix-out-real": (("mix", "--plan", "plan.json", "--out", "{}"),
                     "corpus.tsv", ("out", "real")),
    "mix-out-synthetic": (("mix", "--plan", "plan.json", "--out", "{}"),
                          "den.jsonl", ("out", "synthetic")),
    "stats-out-ref-pool": ((*_STATS, "--out", "{}"), "pool.jsonl", ("ref_pool", "out")),
    "stats-out-corpus": ((*_STATS, "--out", "{}"), "corpus.tsv", ("corpus", "out")),
    "stats-csv-ref-pool": ((*_STATS, "--csv", "{}"), "pool.jsonl", ("ref_pool", "csv")),
    "stats-csv-corpus": ((*_STATS, "--csv", "{}"), "corpus.tsv", ("corpus", "csv")),
    "score-out-hyp": ((*_SCORE, "--out", "{}"), "hyp.tsv", ("hyp", "out")),
    "score-out-gold": ((*_SCORE, "--out", "{}"), "gold.m2", ("gold", "out")),
}


@pytest.mark.parametrize("form", ["same", "dot-slash", "symlink"])
@pytest.mark.parametrize("case", sorted(_COLLISIONS))
def test_no_command_writes_a_file_it_reads(workdir: Path, capsys, case, form):
    argv, target, (first, second) = _COLLISIONS[case]
    if form == "symlink":
        written = "link" + Path(target).suffix
        (workdir / written).symlink_to(target)
    else:
        written = target if form == "same" else "./" + target
    before = _files(workdir)
    rc, out, events = _run(capsys, *(a.replace("{}", written) for a in argv))
    # The message names the second path as given: a plan names its corpora itself.
    shown = target if first == "out" else written
    message = f"'{first}' and '{second}' name one file: {shown}"
    assert (rc, out) == (2, "")
    assert events == [{"event": "error", "code": "CONFIG", "message": message}]
    assert _files(workdir) == before


def test_a_sweep_writes_no_cap_file_that_it_reads(workdir: Path, capsys):
    shutil.copy(workdir / "corpus.tsv", workdir / "train.cap0.tsv")
    plan = {**PLAN, "real": ["train.cap0.tsv"]}
    (workdir / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    before = _files(workdir)
    rc, out, events = _run(capsys, "mix", "--plan", "plan.json", "--sweep", "0,6",
                           "--out", "train.tsv")
    message = "'real' and 'out' name one file: train.cap0.tsv"
    assert (rc, out) == (2, "")
    assert events == [{"event": "error", "code": "CONFIG", "message": message}]
    assert _files(workdir) == before


_OUT = ("o.jsonl.tmp", "o.jsonl.manifest.json", "o.jsonl.manifest.json.tmp")

# command: (argv with the file read as "{}", the file copied there, the
# option that reads it, {written option: the names it writes beside its own})
_BESIDE = {
    "extract": (("extract", "--config", "{}", "--in", "corpus.tsv", "--n", "3", "--out", "o.jsonl"),
                "job.json", "config", {"out": _OUT}),
    "pool": (("pool", "--in", "{}", "--n", "3", "--out", "o.jsonl"),
             "pool.jsonl", "in_paths", {"out": _OUT}),
    "sample": (("sample", "--pool", "{}", "--n", "3", "--count", "5", "--seed", "1",
                "--out", "o.jsonl"), "pool.jsonl", "pool", {"out": _OUT}),
    "synthesize": (
        ("synthesize", "--pool", "{}", "--n", "3", "--count", "5", "--seed", "1",
         "--out", "o.jsonl"),
        "pool.jsonl", "pool", {"out": (*_OUT, "o.jsonl.stats.json", "o.jsonl.stats.json.tmp")},
    ),
    "denoise": (
        ("denoise", "--in", "{}", "--out", "o.jsonl", "--checkpoint", "o.ckpt"), "syn.jsonl",
        "in_path", {"out": _OUT},
    ),
    "mix": (("mix", "--plan", "{}", "--out", "o.jsonl"), "plan.json", "plan", {"out": _OUT}),
    # A sweep writes each cap file as a plain mix writes --out, and the summary.
    "mix-sweep": (
        ("mix", "--plan", "{}", "--sweep", "0,6", "--out", "o.jsonl"), "plan.json", "plan",
        {"out": ("o.cap0.jsonl.tmp", "o.cap0.jsonl.manifest.json",
                 "o.cap0.jsonl.manifest.json.tmp", "o.jsonl.sweep.json", "o.jsonl.sweep.json.tmp")},
    ),
    "stats": (
        ("stats", "--ref-pool", "{}", "--corpus", "corpus.tsv", "--n", "3", "--out", "o.json",
         "--csv", "o.csv"),
        "pool.jsonl", "ref_pool",
        {"out": ("o.json.tmp", "o.json.manifest.json", "o.json.manifest.json.tmp"),
         "csv": ("o.csv.tmp",)},
    ),
    "score": (
        ("score", "--hyp", "hyp.tsv", "--gold", "{}", "--out", "o.json"), "gold.m2", "gold",
        {"out": ("o.json.tmp", "o.json.manifest.json", "o.json.manifest.json.tmp")},
    ),
}


@pytest.mark.parametrize(
    "case, written, name",
    [(case, written, name) for case, (_, _, _, beside) in sorted(_BESIDE.items())
     for written, names in beside.items() for name in names],
)
def test_no_command_writes_beside_its_output_a_file_it_reads(
    workdir: Path, capsys, case, written, name
):
    argv, source, read, _ = _BESIDE[case]
    shutil.copy(workdir / source, workdir / name)
    if (workdir / f"{source}.manifest.json").exists():
        shutil.copy(workdir / f"{source}.manifest.json", workdir / f"{name}.manifest.json")
    before = _files(workdir)
    rc, out, events = _run(capsys, *(a.replace("{}", name) for a in argv))
    message = f"'{read}' and '{written}' name one file: {name}"
    assert (rc, out) == (2, "")
    assert events == [{"event": "error", "code": "CONFIG", "message": message}]
    assert _files(workdir) == before


def test_a_checkpoint_claims_no_temporary(workdir: Path, capsys):
    # Nothing writes c.tmp beside the checkpoint c, so it may be the output.
    rc, _, _ = _run(capsys, "denoise", "--in", "syn.jsonl", "--out", "plain.jsonl")
    assert rc == 0
    rc, _, events = _run(
        capsys, "denoise", "--in", "syn.jsonl", "--checkpoint", "c", "--out", "c.tmp"
    )
    assert rc == 0, events
    assert (workdir / "c.tmp").read_bytes() == (workdir / "plain.jsonl").read_bytes()
    assert not (workdir / "c").exists()


def test_two_reads_may_name_one_file(workdir: Path, capsys):
    rc, _, _ = _run(capsys, "pool", "--in", "pool.jsonl", "pool.jsonl", "--n", "3",
                    "--out", "merged.jsonl")
    assert rc == 0
    manifest = json.loads((workdir / "merged.jsonl.manifest.json").read_text(encoding="utf-8"))
    assert manifest["counts"] == {"patterns": 3, "total": 12}


def test_an_option_the_mode_does_not_use_is_not_compared(workdir: Path, capsys):
    # One config can drive a pipeline: its "out" is stats --pool's input here.
    (workdir / "cfg.json").write_text(json.dumps({"out": "pool.jsonl"}), encoding="utf-8")
    before = _files(workdir)
    rc, out, _ = _run(capsys, "stats", "--pool", "pool.jsonl", "--n", "3", "--config", "cfg.json")
    assert rc == 0
    assert json.loads(out) == {"patterns": 3, "total": 6}
    assert _files(workdir) == before


@pytest.mark.parametrize(
    "flag, value", [("--corpus", "corpus.tsv"), ("--top-k", "5"), ("--out", "r.json"),
                    ("--csv", "r.csv")],
)
def test_stats_pool_refuses_report_flags(workdir: Path, capsys, flag, value):
    before = _files(workdir)
    rc, out, events = _run(capsys, "stats", "--pool", "pool.jsonl", "--n", "3", flag, value)
    message = f"{flag} needs --ref-pool, not --pool"
    assert (rc, out) == (2, "")
    assert events == [{"event": "error", "code": "CONFIG", "message": message}]
    assert _files(workdir) == before


# (argv, the manifests it writes, the files each manifest hashes as inputs)
_MANIFEST_INPUTS = {
    "extract": (("extract", "--in", "corpus.tsv", "--n", "3", "--out", "o.jsonl"),
                ["o.jsonl"], ["corpus.tsv"]),
    "extract-config": (("extract", "--config", "job.json", "--in", "corpus.tsv", "--n", "3",
                        "--out", "o.jsonl"), ["o.jsonl"], ["corpus.tsv"]),
    "pool-repeated-in": (("pool", "--in", "pool.jsonl", "pool.jsonl", "--n", "3",
                          "--out", "o.jsonl"), ["o.jsonl"], ["pool.jsonl"]),
    "sample": (("sample", "--pool", "pool.jsonl", "--n", "3", "--count", "5", "--seed", "1",
                "--out", "o.jsonl"), ["o.jsonl"], ["pool.jsonl"]),
    "synthesize": (("synthesize", "--pool", "pool.jsonl", "--n", "3", "--count", "5",
                    "--seed", "1", "--out", "o.jsonl"), ["o.jsonl"], ["pool.jsonl"]),
    "denoise-checkpoint": (("denoise", "--in", "syn.jsonl", "--checkpoint", "o.ckpt",
                            "--out", "o.jsonl"), ["o.jsonl"], ["syn.jsonl"]),
    "mix": (("mix", "--plan", "plan.json", "--out", "o.jsonl"),
            ["o.jsonl"], ["corpus.tsv", "den.jsonl", "plan.json"]),
    "mix-sweep": (("mix", "--plan", "plan.json", "--sweep", "0,6", "--out", "o.jsonl"),
                  ["o.cap0.jsonl", "o.cap6.jsonl"], ["corpus.tsv", "den.jsonl", "plan.json"]),
    "stats-ref-pool": ((*_STATS, "--out", "o.json"), ["o.json"], ["corpus.tsv", "pool.jsonl"]),
    "score": ((*_SCORE, "--out", "o.json"), ["o.json"], ["gold.m2", "hyp.tsv"]),
}


@pytest.mark.parametrize("case", sorted(_MANIFEST_INPUTS))
def test_manifest_inputs_are_the_files_read(workdir: Path, capsys, case):
    argv, outs, reads = _MANIFEST_INPUTS[case]
    assert main(list(argv)) == 0
    for out in outs:
        manifest = json.loads((workdir / f"{out}.manifest.json").read_text(encoding="utf-8"))
        assert manifest["inputs"] == {
            name: hashlib.sha256((workdir / name).read_bytes()).hexdigest() for name in reads
        }


def test_a_sweep_hashes_each_input_once(workdir: Path, monkeypatch):
    hashed = []
    sha256_file = cli._sha256_file

    def counted(path: str) -> str:
        hashed.append(path)
        return sha256_file(path)

    monkeypatch.setattr(cli, "_sha256_file", counted)
    assert main(["mix", "--plan", "plan.json", "--sweep", "0,3,6", "--out", "o.jsonl"]) == 0
    assert sorted(hashed) == ["corpus.tsv", "den.jsonl", "plan.json"]


# ---------------------------------------------------------------------------
# Crash points of the commit

# The run whose commit is cut writes over a committed earlier run of
# another config: {case: (earlier argv, argv, its artifacts that have a
# manifest, the names written beside them, the filesystem calls of its commit)}.
_COMMITS = {
    # One manifest opened, one old manifest removed, two renames.
    "extract": (
        ("extract", "--in", "corpus.tsv", "--n", "1", "--out", "x.jsonl"),
        ("extract", "--in", "corpus.tsv", "--n", "3", "--out", "x.jsonl"),
        ("x.jsonl",), (), 4,
    ),
    "pool": (
        ("pool", "--in", "pool.jsonl", "--n", "3", "--out", "p.jsonl"),
        ("pool", "--in", "pool.jsonl", "pool.jsonl", "--n", "3", "--out", "p.jsonl"),
        ("p.jsonl",), (), 4,
    ),
    "sample": (
        ("sample", "--pool", "pool.jsonl", "--n", "3", "--count", "5", "--seed", "1",
         "--out", "a.jsonl"),
        ("sample", "--pool", "pool.jsonl", "--n", "3", "--count", "5", "--seed", "2",
         "--out", "a.jsonl"),
        ("a.jsonl",), (), 4,
    ),
    # 1 + 1 + 3: the stats sidecar is renamed too.
    "synthesize": (
        ("synthesize", "--pool", "pool.jsonl", "--n", "3", "--count", "12", "--seed", "1",
         "--out", "s.jsonl"),
        ("synthesize", "--pool", "pool.jsonl", "--n", "3", "--count", "12", "--seed", "2",
         "--out", "s.jsonl"),
        ("s.jsonl",), ("s.jsonl.stats.json",), 5,
    ),
    "mix": (
        ("mix", "--plan", "plan.json", "--out", "m.jsonl"),
        ("mix", "--plan", "plan2.json", "--out", "m.jsonl"),
        ("m.jsonl",), (), 4,
    ),
    # Three manifests opened, three removed, three cap files, the summary
    # and three manifests renamed.
    "mix-sweep": (
        ("mix", "--plan", "plan.json", "--sweep", "0,3,6", "--out", "m.jsonl"),
        ("mix", "--plan", "plan2.json", "--sweep", "0,3,6", "--out", "m.jsonl"),
        ("m.cap0.jsonl", "m.cap3.jsonl", "m.cap6.jsonl"), ("m.jsonl.sweep.json",), 13,
    ),
    "denoise": (
        ("denoise", "--in", "syn.jsonl", "--backend", "identity", "--out", "d.jsonl"),
        ("denoise", "--in", "syn.jsonl", "--backend", "oracle", "--out", "d.jsonl"),
        ("d.jsonl",), (), 4,
    ),
    "denoise-checkpoint": (
        ("denoise", "--in", "syn.jsonl", "--backend", "identity", "--checkpoint", "d.ckpt",
         "--out", "d.jsonl"),
        ("denoise", "--in", "syn.jsonl", "--backend", "oracle", "--checkpoint", "d.ckpt",
         "--out", "d.jsonl"),
        ("d.jsonl",), (), 4,
    ),
    # 1 + 1 + 3: the report, its table and its manifest.
    "stats": (
        (*_STATS, "--top-k", "2", "--out", "r.json", "--csv", "r.csv"),
        (*_STATS, "--top-k", "5", "--out", "r.json", "--csv", "r.csv"),
        ("r.json",), ("r.csv",), 5,
    ),
    "score": (
        (*_SCORE, "--beta", "0.5", "--out", "o.json"),
        (*_SCORE, "--beta", "1", "--out", "o.json"),
        ("o.json",), (), 4,
    ),
}
_DIED = 17  # the exit status of a child that died at its crash point


def _commit_root(inputs: Path, root: Path, *runs: tuple[str, ...]) -> dict[str, bytes]:
    """Make ``root`` a copy of ``inputs`` that ``runs`` ran in; return its files."""
    shutil.copytree(inputs, root)
    (root / "plan2.json").write_text(json.dumps({**PLAN, "seed": 5}), encoding="utf-8")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        for argv in runs:
            assert main(list(argv)) == 0
    return _files(root)


def _cut_commit(monkeypatch: pytest.MonkeyPatch, at: int, cut) -> list[str]:
    """Count the filesystem calls of a stage's commit; ``cut()`` runs in place of call ``at``.

    The commit opens each manifest's temporary, removes the old manifests
    and renames every temporary into place; nothing else renames.
    """
    calls: list[str] = []

    def counted(real, counts):
        def call(path, *args):
            if counts(path):
                calls.append(path)
                if len(calls) == at:
                    cut()
            return real(path, *args)
        return call

    monkeypatch.setattr(
        cli, "_write_json", counted(cli._write_json, lambda p: p.endswith(".manifest.json.tmp"))
    )
    monkeypatch.setattr(
        cli, "_remove", counted(cli._remove, lambda p: p.endswith(".manifest.json"))
    )
    monkeypatch.setattr(os, "replace", counted(os.replace, lambda p: True))
    return calls


def _check_manifests(root: Path, clean: list[dict[str, bytes]], outs, beside) -> None:
    """Each of ``outs`` that has a manifest, and ``beside`` it, is that manifest's clean run."""
    for out in outs:
        manifest = root / f"{out}.manifest.json"
        if manifest.exists():
            run = next((f for f in clean if f[manifest.name] == manifest.read_bytes()), None)
            assert run is not None, f"{manifest.name} is no clean run's"
            for name in (out, *beside):
                assert (root / name).read_bytes() == run[name], name


@pytest.fixture(scope="module")
def clean_commits(inputs: Path, tmp_path_factory: pytest.TempPathFactory) -> dict:
    """Per case: the files of a clean earlier run, and of a clean run alone."""
    root = tmp_path_factory.mktemp("clean")
    return {
        case: [_commit_root(inputs, root / f"{case}-{i}", argv) for i, argv in enumerate(runs)]
        for case, (*runs, _, _, _) in _COMMITS.items()
    }


@pytest.mark.parametrize("case", sorted(_COMMITS))
def test_commit_calls_are_counted(inputs, tmp_path, monkeypatch, clean_commits, case):
    earlier, argv, _, _, count = _COMMITS[case]
    root = tmp_path / "run"
    _commit_root(inputs, root, earlier)
    monkeypatch.chdir(root)
    calls = _cut_commit(monkeypatch, 0, None)
    assert main(list(argv)) == 0
    assert len(calls) == count, calls
    assert _files(root) == {**clean_commits[case][0], **clean_commits[case][1]}


@pytest.mark.parametrize(
    "case, at",
    [(case, at) for case in sorted(_COMMITS) for at in range(1, _COMMITS[case][4] + 1)],
)
def test_an_error_in_the_commit_leaves_clean_manifests(
    inputs, tmp_path, monkeypatch, capsys, clean_commits, case, at
):
    earlier, argv, outs, beside, _ = _COMMITS[case]
    root = tmp_path / "run"
    _commit_root(inputs, root, earlier)
    monkeypatch.chdir(root)
    capsys.readouterr()

    def cut():
        raise OSError(f"cut at call {at}")

    _cut_commit(monkeypatch, at, cut)
    rc, _, events = _run(capsys, *argv)
    errors = [e for e in events if e["event"] == "error"]
    assert rc == 1
    assert errors == [events[-1]]
    assert errors[0] == {"event": "error", "code": "IO", "message": f"cut at call {at}"}
    assert not list(root.glob("*.tmp"))  # a checkpoint is kept under its own name
    _check_manifests(root, clean_commits[case], outs, beside)


@pytest.mark.parametrize(
    "case, at", [(case, at) for case in ("extract", "mix-sweep")
                 for at in range(1, _COMMITS[case][4] + 1)]
)
def test_a_process_that_dies_in_the_commit_leaves_clean_manifests(
    inputs, tmp_path, monkeypatch, clean_commits, case, at
):
    earlier, argv, outs, beside, _ = _COMMITS[case]
    root = tmp_path / "run"
    _commit_root(inputs, root, earlier)
    monkeypatch.chdir(root)
    pid = os.fork()
    if pid == 0:  # the child dies at call ``at``; reaching the end is another status
        try:
            _cut_commit(monkeypatch, at, lambda: os._exit(_DIED))
            main(list(argv))
        finally:
            os._exit(_DIED + 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == _DIED
    _check_manifests(root, clean_commits[case], outs, beside)

"""The file rule of the CLI: what a command reads and writes, from its options.

``cli._OPTIONS`` marks ``--out``, ``--csv`` and ``--checkpoint`` as written
files and every other path option as read. A written file that names any
other file the command resolved, ``--config`` included, is a ``CONFIG``
error before the stage; two reads may name one file. A written file
also claims the names written beside it: its temporary, and beside
``--out`` its manifest and the sidecar of ``synthesize`` and ``mix
--sweep``, each with a temporary. A manifest's ``inputs`` are the files
read, the config file aside.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import pytest

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
        "in_path", {"out": _OUT, "checkpoint": ("o.ckpt.tmp",)},
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

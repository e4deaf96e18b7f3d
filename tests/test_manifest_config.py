"""A manifest's ``config`` records exactly the options that change output bytes.

For every option of every subcommand, one case runs a base invocation and
one with another valid value of that option, each in a fresh copy of the
same inputs; the ``http`` backends talk to the services of
``test_pins``, whose generator reply depends on whether a few-shot
prompt was sent. An output is every file a run writes, named as in the
base run, and its stdout; stderr is the log channel and is left out.

* An option that is recorded changes the config of every manifest the
  run writes; and whatever changes a byte of an output other than a
  manifest must change a manifest's config.
* An option that is not recorded (``NOT_RECORDED``) changes no output
  byte, manifests included. Of a sweep, that means each cap file (and its
  manifest) that both runs write.
"""

from __future__ import annotations

import io
import json
import os
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from gecaug import cli

from _server import ScriptedServer
from test_pins import _correct, _generate, environ, write_inputs

# The run-only options: each changes how a stage runs, not what it writes.
NOT_RECORDED = {
    ("synthesize", "workers"), ("synthesize", "attempt_budget"), ("denoise", "max_in_flight"),
    ("denoise", "checkpoint"), ("mix", "sweep"), ("stats", "out"), ("stats", "csv"),
    ("score", "out"),
}

# Each command's base invocation, flag -> value (a list for nargs="+", True for a bool flag).
BASE = {
    "extract": {"--in": "corpus.tsv", "--n": "3", "--out": "out.jsonl"},
    "pool": {"--in": ["pool.jsonl"], "--n": "3", "--out": "out.jsonl"},
    "sample": {"--pool": "pool.jsonl", "--n": "3", "--count": "10", "--seed": "1",
               "--out": "out.jsonl"},
    "synthesize": {"--pool": "pool.jsonl", "--n": "3", "--count": "20", "--seed": "1",
                   "--backend": "http", "--workers": "1", "--out": "out.jsonl"},
    "denoise": {"--in": "syn.jsonl", "--backend": "http", "--out": "out.jsonl"},
    "mix": {"--plan": "plan.json", "--out": "out.jsonl"},
    "stats": {"--ref-pool": "pool.jsonl", "--corpus": "corpus.tsv", "--n": "3",
              "--out": "out.json", "--csv": "out.csv"},
    "score": {"--hyp": "hyp.tsv", "--gold": "gold.m2", "--out": "out.json"},
}

_STUB = {"--backend": "stub"}
_STATS_POOL = {"--ref-pool": None, "--corpus": None, "--out": None, "--csv": None,
               "--pool": "pool.jsonl"}
# (command, option, changes to the base (None drops a flag), the option's other value)
CASES = [
    ("extract", "in_path", {}, {"--in": "half.tsv"}),
    ("extract", "n", {}, {"--n": "5"}),
    ("extract", "out", {}, {"--out": "renamed.jsonl"}),
    ("pool", "in_paths", {}, {"--in": ["pool.jsonl", "half.jsonl"]}),
    ("pool", "n", {}, {"--n": "5"}),
    ("pool", "out", {}, {"--out": "renamed.jsonl"}),
    ("sample", "pool", {}, {"--pool": "half.jsonl"}),
    ("sample", "n", {}, {"--n": "5"}),
    ("sample", "count", {}, {"--count": "12"}),
    ("sample", "seed", {}, {"--seed": "2"}),
    ("sample", "out", {}, {"--out": "renamed.jsonl"}),
    ("synthesize", "pool", {}, {"--pool": "half.jsonl"}),
    ("synthesize", "n", {}, {"--n": "5"}),
    ("synthesize", "count", {}, {"--count": "25"}),
    ("synthesize", "seed", {}, {"--seed": "2"}),
    ("synthesize", "out", {}, {"--out": "renamed.jsonl"}),
    ("synthesize", "error_rate", {}, {"--error-rate": "0.9"}),
    ("synthesize", "backend", {}, _STUB),
    ("synthesize", "workers", {}, {"--workers": "4"}),
    ("synthesize", "attempt_budget", {}, {"--attempt-budget": "1000"}),
    ("synthesize", "stub_drop_rate", _STUB, {"--stub-drop-rate": "0.3"}),
    ("synthesize", "stub_refuse_rate", _STUB, {"--stub-refuse-rate": "0.3"}),
    ("synthesize", "fewshot", {}, {"--fewshot": True}),
    ("denoise", "in_path", {}, {"--in": "syn_half.jsonl"}),
    ("denoise", "backend", {}, {"--backend": "oracle"}),
    ("denoise", "out", {}, {"--out": "renamed.jsonl"}),
    ("denoise", "checkpoint", {}, {"--checkpoint": "progress.ckpt"}),
    ("denoise", "max_in_flight", {}, {"--max-in-flight": "4"}),
    ("mix", "plan", {}, {"--plan": "plan2.json"}),
    ("mix", "out", {}, {"--out": "renamed.jsonl"}),
    ("mix", "sweep", {"--sweep": "0,10"}, {"--sweep": "10,20"}),
    ("stats", "pool", _STATS_POOL, {"--pool": "half.jsonl"}),
    ("stats", "ref_pool", {}, {"--ref-pool": "half.jsonl"}),
    ("stats", "corpus", {}, {"--corpus": "half.tsv"}),
    ("stats", "n", {}, {"--n": "5"}),
    ("stats", "top_k", {}, {"--top-k": "5"}),
    ("stats", "out", {}, {"--out": "renamed.json"}),
    ("stats", "csv", {}, {"--csv": "renamed.csv"}),
    ("score", "hyp", {}, {"--hyp": "hyp2.tsv"}),
    ("score", "gold", {}, {"--gold": "gold2.m2"}),
    ("score", "beta", {}, {"--beta": "1.0"}),
    ("score", "out", {}, {"--out": "renamed.json"}),
]


_SYNTH = ("synthesize", "--pool", "pool.jsonl", "--n", "3", "--count", "30")


def _argv(command: str, flags: dict) -> list[str]:
    argv = [command]
    for flag, value in flags.items():
        if value is True:
            argv.append(flag)
        elif isinstance(value, list):
            argv += [flag, *value]
        elif value is not None:
            argv += [flag, value]
    return argv


class _Runs:
    """Stage runs, each in a fresh copy of ``inputs``, against the round's services."""

    def __init__(self, inputs: Path, scratch: Path):
        self.inputs, self.scratch = inputs, scratch
        self.known = {p.name for p in inputs.iterdir()}
        self.done: dict[tuple, tuple[int, dict[str, bytes]]] = {}

    def __call__(self, argv: list[str]) -> tuple[int, dict[str, bytes]]:
        """Exit code, and each output's bytes by name (stdout as ``<stdout>``)."""
        if tuple(argv) not in self.done:
            root = self.scratch / str(len(self.done))
            shutil.copytree(self.inputs, root)
            self.done[tuple(argv)] = _run_in(root, argv, self.known)
        return self.done[tuple(argv)]


def _run_in(root: Path, argv: list[str], known: set[str]) -> tuple[int, dict[str, bytes]]:
    cwd = os.getcwd()
    out = io.StringIO()
    try:
        os.chdir(root)
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    outputs = {p.name: p.read_bytes() for p in root.iterdir() if p.name not in known}
    outputs["<stdout>"] = out.getvalue().encode("utf-8")
    return code, outputs


@pytest.fixture(scope="module")
def runs(tmp_path_factory: pytest.TempPathFactory):
    inputs = tmp_path_factory.mktemp("inputs")
    write_inputs(inputs)
    with ScriptedServer([_generate], keep_alive=True) as generator, \
            ScriptedServer([_correct], keep_alive=True) as corrector, \
            environ(GECAUG_GENERATOR_URL=generator.url, GECAUG_CORRECTOR_URL=corrector.url):
        for argv in (  # each reads what the one before it wrote
            ("extract", "--in", "corpus.tsv", "--n", "3", "--out", "pool.jsonl"),
            ("extract", "--in", "half.tsv", "--n", "3", "--out", "half.jsonl"),
            (*_SYNTH, "--seed", "5", "--out", "syn.jsonl"),
            (*_SYNTH, "--seed", "6", "--out", "syn_half.jsonl"),
            ("denoise", "--in", "syn.jsonl", "--backend", "oracle", "--out", "den.jsonl"),
        ):
            assert _run_in(inputs, list(argv), set())[0] == 0, argv
        hyp = (inputs / "hyp.tsv").read_text(encoding="utf-8").splitlines()
        sources = [line.split("\t")[0] for line in hyp]  # each left uncorrected
        (inputs / "hyp2.tsv").write_text("".join(f"{s}\t{s}\n" for s in sources), "utf-8")
        # The same sentences, each marked as needing no correction.
        blocks = (inputs / "gold.m2").read_text(encoding="utf-8").split("\n\n")
        noop = "A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n"
        (inputs / "gold2.m2").write_text(
            "\n".join(b.split("\n")[0] + "\n" + noop for b in blocks), encoding="utf-8"
        )
        for name, seed in (("plan.json", 3), ("plan2.json", 4)):
            plan = {"stage": "II", "real": ["corpus.tsv"], "synthetic": "den.jsonl",
                    "synthetic_count": 20, "seed": seed}
            (inputs / name).write_text(json.dumps(plan), encoding="utf-8")
        yield _Runs(inputs, tmp_path_factory.mktemp("runs"))


def _configs(outputs: dict[str, bytes]) -> dict[str, dict]:
    return {
        name: json.loads(data)["config"] for name, data in outputs.items()
        if name.endswith(".manifest.json")
    }


def test_every_option_has_a_case():
    taken = {(c, opt.dest) for opt in cli._OPTIONS.values() for c in opt.commands.split()}
    assert {(c, dest) for c, dest, _, _ in CASES} == taken
    assert NOT_RECORDED <= taken


@pytest.mark.parametrize(
    "command, dest, base_changes, changes", CASES, ids=[f"{c}-{d}" for c, d, _, _ in CASES]
)
def test_manifest_records_what_changes_an_output(runs, command, dest, base_changes, changes):
    base_flags = {**BASE[command], **base_changes}
    base_code, base = runs(_argv(command, base_flags))
    code, variant = runs(_argv(command, {**base_flags, **changes}))
    assert (base_code, code) == (0, 0)
    opt = cli._OPTIONS[dest]
    if opt.kind == "output" and base_flags.get(opt.flag):
        # Name the other run's outputs as the base run names them.
        old, new = base_flags[opt.flag], changes[opt.flag]
        variant = {name.replace(new, old): data for name, data in variant.items()}
    if dest == "sweep":  # the cap files both runs write
        base = {k: v for k, v in base.items() if ".cap" in k and k in variant}
        variant = {k: v for k, v in variant.items() if k in base}
        assert base
    if not (_configs(base) or _configs(variant)):
        assert command == "stats" and dest == "pool"  # prints its figures, writes no manifest
        return

    def data(outputs):
        return {k: v for k, v in outputs.items() if not k.endswith(".manifest.json")}

    if data(variant) != data(base):
        assert _configs(variant) != _configs(base), "an output changed, its config did not"
    if (command, dest) in NOT_RECORDED:
        assert variant == base, "an option that is not recorded changed an output"
    else:
        assert _configs(variant) != _configs(base), "the manifests do not record the option"

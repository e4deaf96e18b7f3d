"""What running a subcommand loads, and what stays patchable.

Each subcommand loads only the modules it runs (``import gecaug`` alone
loads none: ``test_scoring.py``), and ``cli`` resolves the names a
command runs when it is dispatched, keeping any wrapper set on ``cli``
before. The parser of one subcommand prints the same help and usage
errors as the full one.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gecaug import cli
from gecaug.cli import main

from _server import ScriptedServer
from conftest import cli_env

ROOT = Path(__file__).resolve().parent.parent

# Each subcommand on the inputs that ``_write_inputs`` makes.
COMMANDS = {
    "extract": ["extract", "--in", "corpus.tsv", "--n", "3", "--out", "extracted.jsonl"],
    "pool": ["pool", "--in", "pool.jsonl", "--n", "3", "--out", "merged.jsonl"],
    "sample": [
        "sample", "--pool", "pool.jsonl", "--n", "3", "--count", "4", "--seed", "1",
        "--out", "requests.jsonl",
    ],
    "synthesize": [
        "synthesize", "--pool", "pool.jsonl", "--n", "3", "--count", "4", "--seed", "1",
        "--out", "synthesized.jsonl",
    ],
    "denoise": ["denoise", "--in", "syn.jsonl", "--out", "denoised.jsonl"],
    "mix": ["mix", "--plan", "plan.json", "--out", "train.jsonl"],
    "stats": ["stats", "--ref-pool", "pool.jsonl", "--corpus", "corpus.tsv", "--n", "3"],
    "score": ["score", "--hyp", "hyp.tsv", "--gold", "gold.m2"],
}

_EXTRACT = {"cli", "corpus", "align", "patterns"}
_SAMPLE = _EXTRACT | {"generation", "seeding", "_http"}
_ALL = {
    "cli", "corpus", "align", "patterns", "generation", "seeding", "_http", "synthesis",
    "_concurrent", "denoise", "mix", "scoring",
}
# The gecaug modules each subcommand may load.
ALLOWED = {
    "extract": _EXTRACT,
    "pool": _EXTRACT,
    "stats": _EXTRACT | {"scoring"},
    "score": _EXTRACT | {"scoring"},
    "sample": _SAMPLE,
    "synthesize": _SAMPLE | {"synthesis", "_concurrent"},
    "denoise": _ALL - {"mix", "scoring"},
    "mix": {"cli", "corpus", "mix"},
}


def _write_inputs(root: Path) -> None:
    (root / "corpus.tsv").write_text(
        "He go to school .\tHe goes to school .\n"
        "I like apple .\tI like apples .\n"
        "She walk home .\tShe walks home .\n",
        encoding="utf-8",
    )
    (root / "hyp.tsv").write_text(
        "He go .\tHe goes .\nI like apple .\tI like apple .\n", encoding="utf-8"
    )
    (root / "gold.m2").write_text(
        "S He go .\nA 1 2|||R:VERB:SVA|||goes|||REQUIRED|||-NONE-|||0\n\n"
        "S I like apple .\nA 2 3|||R:NOUN:NUM|||apples|||REQUIRED|||-NONE-|||0\n",
        encoding="utf-8",
    )
    plan = {
        "stage": "II", "real": ["corpus.tsv"], "synthetic": "syn.jsonl", "synthetic_count": 2,
        "seed": 3,
    }
    (root / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    pool = ["extract", "--in", str(root / "corpus.tsv"), "--n", "3", "--out"]
    assert main(pool + [str(root / "pool.jsonl")]) == 0
    syn = ["synthesize", "--pool", str(root / "pool.jsonl"), "--n", "3", "--count", "4"]
    assert main(syn + ["--seed", "2", "--out", str(root / "syn.jsonl")]) == 0


@pytest.fixture(scope="module")
def inputs(tmp_path_factory: pytest.TempPathFactory) -> Path:
    root = tmp_path_factory.mktemp("inputs")
    _write_inputs(root)
    return root


@pytest.fixture()
def workdir(tmp_path: Path, monkeypatch: pytest.MonkeyPatch, capsys) -> Path:
    _write_inputs(tmp_path)
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _child(code: str, *args: str, cwd: Path | None = None, env: dict | None = None) -> str:
    """Run ``code`` in a fresh interpreter; its last stdout line."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=cwd, env=env or cli_env(),
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


_LOADED = "sorted(m[len('gecaug.'):] for m in sys.modules if m.startswith('gecaug.'))"


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_subcommand_loads_only_its_modules(command: str, inputs: Path):
    code = (
        "import json, sys\nfrom gecaug.cli import main\n"
        f"rc = main(sys.argv[1:])\nprint(json.dumps([rc, {_LOADED}]))"
    )
    rc, loaded = json.loads(_child(code, *COMMANDS[command], cwd=inputs))
    assert rc == 0
    assert set(loaded) <= ALLOWED[command], set(loaded) - ALLOWED[command]


def _added(command: str, inputs: Path) -> set[str]:
    """Which of ``dataclasses``, ``inspect`` and ``hashlib`` ``command`` imports
    beyond what a bare ``python -c pass`` has."""
    code = (
        "import sys\nbare = set(sys.modules)\nfrom gecaug.cli import main\n"
        "rc = main(sys.argv[1:])\nnames = ('dataclasses', 'inspect', 'hashlib')\n"
        "print(rc, *[m for m in names if m in sys.modules and m not in bare])"
    )
    rc, *added = _child(code, *COMMANDS[command], cwd=inputs).split(" ")
    assert rc == "0"
    return set(added)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_subcommand_adds_no_dataclasses_or_inspect(command: str, inputs: Path):
    assert not {"dataclasses", "inspect"} & _added(command, inputs)


@pytest.mark.parametrize("command", ["stats", "score"])
def test_command_without_a_manifest_adds_no_hashlib(command: str, inputs: Path):
    assert "--out" not in COMMANDS[command]  # so no digest is taken
    assert "hashlib" not in _added(command, inputs)


def _answer(payload: dict):
    """A generator's reply to a template, a corrector's to a text."""
    text = payload["template"].replace("[M]", "so") if "template" in payload else payload["text"]
    return 200, json.dumps({"text": text}).encode("utf-8")


@pytest.mark.parametrize("proxied", [False, True], ids=["direct", "proxied"])
@pytest.mark.parametrize("command", ["synthesize", "denoise"])
def test_http_backends_load_no_stdlib_http_stack_without_a_proxy(
    command: str, proxied: bool, inputs: Path
):
    stack = ("http.client", "email", "ssl", "urllib.request")
    code = (
        "import json, sys\nfrom gecaug.cli import main\nrc = main(sys.argv[1:])\n"
        f"print(json.dumps([rc, [m for m in {stack} if m in sys.modules]]))"
    )
    env = {name: value for name, value in cli_env().items() if not name.lower().endswith("_proxy")}
    with ScriptedServer([_answer], keep_alive=True) as server:
        endpoint = server.url
        if proxied:  # the server stands in for the proxy too
            env["HTTP_PROXY"] = server.url
            endpoint = "http://gecaug.invalid/"
        env["GECAUG_GENERATOR_URL"] = env["GECAUG_CORRECTOR_URL"] = endpoint
        argv = [*COMMANDS[command], "--backend", "http"]
        rc, loaded = json.loads(_child(code, *argv, cwd=inputs, env=env))
    assert rc == 0
    assert server.targets and set(server.targets) == {endpoint if proxied else "/"}
    if not proxied:
        assert loaded == []


def test_mix_is_the_function_after_importing_its_module():
    code = (
        "import sys\nimport gecaug.mix as m\nimport gecaug\n"
        "print(m is gecaug.mix is sys.modules['gecaug.mix'].mix)"
    )
    assert _child(code) == "True"


def test_mix_is_the_function_after_the_mix_command(inputs: Path, tmp_path: Path):
    code = (
        "import sys\nimport gecaug\nfrom gecaug.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print(gecaug.mix is sys.modules['gecaug.mix'].mix)"
    )
    argv = ["mix", "--plan", str(inputs / "plan.json"), "--out", str(tmp_path / "t.jsonl")]
    assert _child(code, *argv, cwd=inputs) == "True"


def test_from_imports_bind():
    code = (
        "from gecaug import *\nfrom gecaug import cli, corpus, align\nimport gecaug, types\n"
        "names = gecaug.__all__\n"
        "assert all(globals()[name] is getattr(gecaug, name) for name in names)\n"
        "assert callable(mix) and isinstance(scoring, types.ModuleType)\n"
        "assert cli.main and corpus.read_pairs and align.align_tokens\n"
        "print(len(names), set(names) <= set(dir(gecaug)))"
    )
    assert _child(code) == "91 True"


def test_unknown_name_is_an_attribute_error():
    import gecaug

    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(gecaug, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(cli, "no_such_name")


# ---------------------------------------------------------------------------
# The names the benchmark's tracer wraps on ``cli``, and a command that calls each.

TRACED = {
    "build_pool": COMMANDS["extract"],
    "load_pool": COMMANDS["pool"],
    "sample_patterns": COMMANDS["sample"],
    "synthesize": COMMANDS["synthesize"],
    "write_samples": COMMANDS["synthesize"],
    "relabel": COMMANDS["denoise"],
    "read_samples": COMMANDS["denoise"],
    "jsonl_line": COMMANDS["denoise"],
    "IdentityCorrector": COMMANDS["denoise"],
    "OracleCorrector": COMMANDS["denoise"] + ["--backend", "oracle"],
    "HttpCorrector": COMMANDS["denoise"] + ["--backend", "http"],
    "read_m2": COMMANDS["score"],
    "score": COMMANDS["score"],
    "distribution_from_counts": COMMANDS["stats"],
    "write_jsonl": COMMANDS["mix"],
    "mix": COMMANDS["mix"],
}


def test_traced_names_are_the_tracers():
    source = (ROOT / "benchmarks" / "tracing.py").read_text(encoding="utf-8")
    assert set(re.findall(r"^\s*cli\.(\w+) = ", source, re.M)) == set(TRACED)


@pytest.mark.parametrize("name", sorted(TRACED))
def test_wrapper_set_before_main_is_called(
    name: str, workdir: Path, monkeypatch: pytest.MonkeyPatch, capsys
):
    monkeypatch.delenv("GECAUG_CORRECTOR_URL", raising=False)
    if name in cli._ORIGIN:  # not loaded yet, as in a fresh process
        monkeypatch.delitem(vars(cli), name, raising=False)
    original = getattr(cli, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, wrapper)
    rc = main(TRACED[name])
    capsys.readouterr()
    assert rc == (2 if name == "HttpCorrector" else 0)  # no corrector URL
    assert calls


# ---------------------------------------------------------------------------
# Help and usage errors: one subcommand's parser against the full parser.

USAGE_CASES = [
    ["--help"], [], ["bogus"], ["extract", "--bogus"], ["extract", "--n", "2"], ["mix", "x"],
    *([command, "--help"] for command in COMMANDS),
]


def _outcome(argv: list[str], capsys) -> tuple:
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.mark.parametrize("argv", USAGE_CASES, ids=lambda argv: " ".join(argv) or "none")
def test_help_and_usage_bytes_match_the_full_parser(
    argv: list[str], monkeypatch: pytest.MonkeyPatch, capsys
):
    outcome = _outcome(argv, capsys)
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda commands: build())
    assert outcome == _outcome(argv, capsys)
    assert outcome[0] in (0, 2)

"""No input file makes the CLI print a traceback.

A seeded loop mutates the valid artifacts of a small pipeline (a JSON
value swapped for one of another type, a key dropped, a line truncated,
dropped or given a stray byte or whitespace, a TSV, M2 or JSON line
inserted) and runs every (input, subcommand) case through ``cli.main``
in-process. Each run must exit 0, 1 or 2, and a run that fails must print
exactly one ``"event": "error"`` line, its last.
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

from gecaug import AnnotatedExample, GoldEdit, extract_edits, read_pairs, write_m2
from gecaug.cli import main

DEMO_CORPUS = Path(__file__).resolve().parent.parent / "demos" / "data" / "learner_sample.tsv"

# (name, the input that is mutated, argv); every other input stays valid.
CASES = (
    ("extract", "corpus.tsv", ("extract", "--in", "corpus.tsv", "--n", "3", "--out", "o.jsonl")),
    ("pool", "pool.jsonl", ("pool", "--in", "pool.jsonl", "--n", "3", "--out", "o.jsonl")),
    ("sample", "pool.jsonl", (
        "sample", "--pool", "pool.jsonl", "--n", "3", "--count", "20", "--seed", "1",
        "--out", "o.jsonl",
    )),
    ("synthesize", "pool.jsonl", (
        "synthesize", "--pool", "pool.jsonl", "--n", "3", "--count", "20", "--seed", "1",
        "--out", "o.jsonl",
    )),
    ("denoise-identity", "syn.jsonl", (
        "denoise", "--in", "syn.jsonl", "--backend", "identity", "--out", "o.jsonl",
    )),
    ("denoise-oracle", "syn.jsonl", (
        "denoise", "--in", "syn.jsonl", "--backend", "oracle", "--out", "o.jsonl",
    )),
    ("mix-plan", "plan.json", ("mix", "--plan", "plan.json", "--out", "o.jsonl")),
    ("mix-synthetic", "den.jsonl", ("mix", "--plan", "plan.json", "--out", "o.jsonl")),
    ("stats-pool", "pool.jsonl", ("stats", "--pool", "pool.jsonl", "--n", "3")),
    ("stats-ref-pool", "pool.jsonl", (
        "stats", "--ref-pool", "pool.jsonl", "--corpus", "den.jsonl", "--n", "3",
    )),
    ("stats-corpus", "den.jsonl", (
        "stats", "--ref-pool", "pool.jsonl", "--corpus", "den.jsonl", "--n", "3",
    )),
    ("score-hyp", "corpus.tsv", ("score", "--hyp", "corpus.tsv", "--gold", "gold.m2")),
    ("score-gold", "gold.m2", ("score", "--hyp", "corpus.tsv", "--gold", "gold.m2")),
)

# Inputs found to break the CLI once, run before the random ones.
FIXED = (
    ("denoise-identity", "requested entry that is not an object",
     lambda lines: [_set_key(lines[0], "requested", [[1]]), *lines[1:]]),
)

_VALUES = (None, True, 0, -1, 2.5, "", "x y", [], [[1]], {}, {"wrong": 1})
_FOREIGN_LINES = (
    "move one\tmove from one",
    "S move one place",
    "A 1 1|||M:ADP|||from|||REQUIRED|||-NONE-|||0",
    '{"id": "9", "source": "a b", "target": "a c"}',
    '{"wrong": ["a"], "correct": ["b"], "count": 1}',
    "[1]",
    '"text"',
    "{}",
    "",
)
RUNS_PER_CASE = 40


def _set_key(line: str, key: str, value) -> str:
    obj = json.loads(line)
    obj[key] = value
    return json.dumps(obj, ensure_ascii=False)


def _slots(value):
    """Every (container, key) in a parsed JSON value, at any depth."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        yield value, key
        if isinstance(child, (dict, list)):
            yield from _slots(child)


def _mutate(lines: list[str], rng: random.Random) -> tuple[str, list[str]]:
    """One random mutation of ``lines``: its name and the mutated lines."""
    lines = list(lines)
    i = rng.randrange(len(lines))
    line = lines[i]
    kind = rng.choice(("swap", "drop-key", "truncate", "drop-line", "insert", "space", "byte"))
    if kind in ("swap", "drop-key"):
        try:
            obj = json.loads(line)
        except ValueError:
            obj = None
        slots = list(_slots(obj)) if isinstance(obj, (dict, list)) else []
        if not slots:
            kind = "truncate"
        else:
            container, key = rng.choice(slots)
            if kind == "swap":
                old = type(container[key])
                container[key] = rng.choice([v for v in _VALUES if type(v) is not old])
            else:
                del container[key]
            lines[i] = json.dumps(obj, ensure_ascii=False)
    if kind == "truncate":
        lines[i] = line[: rng.randrange(len(line) + 1)]
    elif kind == "drop-line":
        del lines[i]
    elif kind == "insert":
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(_FOREIGN_LINES))
    elif kind in ("space", "byte"):
        at = rng.randrange(len(line) + 1)
        stray = "\udcff" if kind == "byte" else rng.choice(("\t", "  ", " ", "\r"))
        lines[i] = line[:at] + stray + line[at:]
    return f"{kind} at line {i + 1}", lines


def _write(path: Path, lines: list[str]) -> None:
    path.write_bytes("".join(f"{line}\n" for line in lines).encode("utf-8", "surrogateescape"))


def _build_tree(root: Path) -> None:
    shutil.copy(DEMO_CORPUS, root / "corpus.tsv")
    annotated = [
        AnnotatedExample(
            source=pair.source,
            edits={0: tuple(
                GoldEdit(e.src_span[0], e.src_span[1], e.coarse_type, e.replacement)
                for e in extract_edits(pair)
            )},
            id=str(i),
        )
        for i, pair in enumerate(read_pairs(root / "corpus.tsv"))
    ]
    write_m2(annotated, root / "gold.m2")
    for argv in (
        ("extract", "--in", "corpus.tsv", "--n", "3", "--out", "pool.jsonl"),
        ("synthesize", "--pool", "pool.jsonl", "--n", "3", "--count", "20", "--seed", "1",
         "--out", "syn.jsonl"),
        ("denoise", "--in", "syn.jsonl", "--backend", "oracle", "--out", "den.jsonl"),
    ):
        assert main(list(argv)) == 0, argv
    plan = {"stage": "II", "real": ["corpus.tsv"], "synthetic": "den.jsonl",
            "synthetic_count": 10, "seed": 5}
    (root / "plan.json").write_text(json.dumps(plan) + "\n", encoding="utf-8")


def test_no_input_makes_the_cli_print_a_traceback(tmp_path: Path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _build_tree(tmp_path)
    valid = {
        name: (tmp_path / name).read_bytes().decode("utf-8").splitlines()
        for name in {path for _, path, _ in CASES}
    }
    cases = {name: (path, argv) for name, path, argv in CASES}
    rng = random.Random(20241)
    runs = [(name, label, mutate) for name, label, mutate in FIXED]
    for _ in range(RUNS_PER_CASE):
        for name in cases:
            runs.append((name, None, None))

    failures: list[str] = []
    capsys.readouterr()
    for name, label, mutate in runs:
        path, argv = cases[name]
        if mutate is None:
            label, lines = _mutate(valid[path], rng)
        else:
            lines = mutate(valid[path])
        _write(tmp_path / path, lines)
        where = f"{name}, {path}: {label}"
        try:
            rc = main(list(argv))
        except Exception as exc:
            rc = f"{type(exc).__name__}: {exc}"
        _write(tmp_path / path, valid[path])
        err = capsys.readouterr().err.splitlines()
        errors = [line for line in err if '"event": "error"' in line]
        if isinstance(rc, str):
            failures.append(f"{where}: raised {rc}")
        elif rc not in (0, 1, 2):
            failures.append(f"{where}: exit {rc}")
        elif rc != 0 and (len(errors) != 1 or err[-1] != errors[0]):
            failures.append(f"{where}: exit {rc} with {len(errors)} error lines")
        elif rc == 0 and errors:
            failures.append(f"{where}: exit 0 with an error line")
    assert not failures, "\n".join(failures)

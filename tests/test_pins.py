"""The pipeline's bytes, pinned: one round of every subcommand against a record.

The round runs in a fresh directory from inputs it writes itself (the demo
corpus, a gold M2 file and plans). It covers every subcommand and every
backend kind: ``stub`` and ``http`` generators (one and four threads, with
and without ``--fewshot``, flags and a config file), ``identity``,
``oracle`` and ``http`` correctors (one and four in flight), a
``denoise --checkpoint`` run that fails half-way and then resumes, a plain
mix and a sweep, ``stats`` in both modes, ``score`` and one usage error.
The ``http`` backends talk to ``_server.ScriptedServer`` replies computed
from each request alone.

``tests/data/pins.json`` maps each file the round leaves, by its name in
the directory, to its sha256, and each step's ``<label>.stdout`` and
``<label>.stderr`` to theirs and ``<label>.exit`` to its exit code. The
stages run in this process, so a round takes well under a second.

Run as a script, the module rewrites the record; with ``--check`` it only
compares. Either way it prints the names that changed::

    PYTHONPATH=src python tests/test_pins.py [--check]

It needs no pytest, so any interpreter that runs the package can check it.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Iterator

from gecaug import (
    AnnotatedExample, GoldEdit, ParallelExample, cli, extract_edits, read_parallel_tsv, write_m2,
)

from _server import ScriptedServer

PINS = Path(__file__).resolve().parent / "data" / "pins.json"
CORPUS = Path(__file__).resolve().parent.parent / "demos" / "data" / "learner_sample.tsv"

_FILLERS = ("so it goes", "we saw", "and then")


def _generate(payload: dict) -> tuple[int, bytes]:
    """Fill each [M] with words picked by the request id; a few-shot prompt adds one."""
    words = _FILLERS[sum(map(ord, payload["id"])) % len(_FILLERS)]
    if payload["prompt"] is not None:
        words += " indeed"
    text = " ".join(words if t == "[M]" else t for t in payload["template"].split())
    return 200, json.dumps({"text": text}).encode("utf-8")


def _correct(payload: dict) -> tuple[int, bytes]:
    """Echo the text, without its last token when the text has an even length."""
    tokens = payload["text"].split()
    if len(payload["text"]) % 2 == 0:
        del tokens[-1]
    return 200, json.dumps({"text": " ".join(tokens)}).encode("utf-8")


_SYNTH = ("synthesize", "--pool", "merged.jsonl", "--n", "3", "--seed", "7")
# (label, argv); the argv "copy A B" copies file A to B between stages.
STEPS = (
    ("extract", ("extract", "--in", "corpus.tsv", "--n", "3", "--out", "pool.jsonl")),
    ("extract-half", ("extract", "--in", "half.tsv", "--n", "3", "--out", "half.jsonl")),
    ("extract-typo", ("extract", "--config", "typo.json")),
    ("pool", ("pool", "--in", "pool.jsonl", "half.jsonl", "--n", "3", "--out", "merged.jsonl")),
    ("sample", ("sample", "--pool", "merged.jsonl", "--n", "3", "--count", "25", "--seed", "4",
                "--out", "sample.jsonl")),
    ("synthesize-stub", (*_SYNTH, "--count", "300", "--error-rate", "0.6",
                         "--stub-drop-rate", "0.1", "--stub-refuse-rate", "0.05",
                         "--out", "syn.jsonl")),
    ("synthesize-http-1", (*_SYNTH, "--count", "40", "--backend", "http", "--workers", "1",
                           "--out", "syn_http1.jsonl")),
    ("synthesize-http-4", (*_SYNTH, "--count", "40", "--backend", "http", "--workers", "4",
                           "--out", "syn_http4.jsonl")),
    ("synthesize-fewshot", (*_SYNTH, "--count", "40", "--backend", "http", "--workers", "4",
                            "--fewshot", "--out", "syn_fewshot.jsonl")),
    ("synthesize-config", ("synthesize", "--config", "synthesize.json")),
    ("denoise-identity", ("denoise", "--in", "syn.jsonl", "--out", "den_identity.jsonl")),
    ("denoise-oracle", ("denoise", "--in", "syn.jsonl", "--backend", "oracle",
                        "--out", "den_oracle.jsonl")),
    ("denoise-http-1", ("denoise", "--in", "syn_fewshot.jsonl", "--backend", "http",
                        "--max-in-flight", "1", "--out", "den_http1.jsonl")),
    ("denoise-http-4", ("denoise", "--in", "syn_fewshot.jsonl", "--backend", "http",
                        "--max-in-flight", "4", "--out", "den_http4.jsonl")),
    ("denoise-checkpoint-fails", ("denoise", "--in", "syn_http1.jsonl", "--backend", "http",
                                  "--max-in-flight", "1", "--checkpoint", "den.ckpt",
                                  "--out", "den_ckpt.jsonl")),
    ("keep-checkpoint", ("copy", "den.ckpt", "den.ckpt.kept")),
    ("denoise-checkpoint-resumes", ("denoise", "--in", "syn_http1.jsonl", "--backend", "http",
                                    "--max-in-flight", "1", "--checkpoint", "den.ckpt",
                                    "--out", "den_ckpt.jsonl")),
    ("mix", ("mix", "--plan", "plan.json", "--out", "train.jsonl")),
    ("mix-sweep", ("mix", "--plan", "plan.json", "--sweep", "0,60,200", "--out", "sweep.jsonl")),
    ("stats-pool", ("stats", "--pool", "merged.jsonl", "--n", "3")),
    ("stats-report", ("stats", "--ref-pool", "pool.jsonl", "--corpus", "train.jsonl", "--n", "3",
                      "--top-k", "20", "--out", "stats.json", "--csv", "stats.csv")),
    ("score", ("score", "--hyp", "hyp.tsv", "--gold", "gold.m2", "--beta", "1",
               "--out", "score.json")),
)


def write_inputs(root: Path) -> None:
    """The round's inputs: the demo corpus, half of it, a hypothesis, gold M2, configs, a plan."""
    lines = CORPUS.read_text(encoding="utf-8").splitlines()
    (root / "corpus.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (root / "half.tsv").write_text("\n".join(lines[::2]) + "\n", encoding="utf-8")
    pairs = list(read_parallel_tsv(root / "corpus.tsv"))
    # Every third hypothesis leaves its source uncorrected.
    hyp = [p.source if i % 3 == 0 else p.target for i, p in enumerate(pairs)]
    (root / "hyp.tsv").write_text(
        "".join(f"{' '.join(p.source)}\t{' '.join(h)}\n" for p, h in zip(pairs, hyp)),
        encoding="utf-8",
    )
    gold = [
        AnnotatedExample(p.source, {0: tuple(
            GoldEdit(e.src_span[0], e.src_span[1], e.coarse_type, e.replacement)
            for e in extract_edits(ParallelExample(p.source, p.target, p.id))
        )}, str(i))
        for i, p in enumerate(pairs)
    ]
    write_m2(gold, root / "gold.m2")
    configs = {
        "typo.json": {"in_path": "corpus.tsv", "n": 3, "out": "typo.jsonl", "error-rate": 0.3},
        "synthesize.json": {
            "pool": "merged.jsonl", "n": 3, "count": 40, "seed": 9, "backend": "http",
            "fewshot": False, "attempt_budget": 400, "workers": 2, "out": "syn_config.jsonl",
        },
        "plan.json": {
            "stage": "II", "real": ["corpus.tsv"], "synthetic": "den_oracle.jsonl",
            "synthetic_count": 60, "seed": 3,
        },
    }
    for name, obj in configs.items():
        (root / name).write_text(json.dumps(obj), encoding="utf-8")


@contextmanager
def environ(**values: str | None) -> Iterator[None]:
    """Set environment variables (unset those given None) for the block, then restore them."""
    saved = {key: os.environ.get(key) for key in values}
    try:
        _set_environ(values)
        yield
    finally:
        _set_environ(saved)


def _set_environ(values: dict[str, str | None]) -> None:
    for key, value in values.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_round(root: Path) -> dict[str, str]:
    """Run the round in the empty directory ``root``; its pins, by name."""
    write_inputs(root)
    pins: dict[str, str] = {}
    cwd = os.getcwd()
    with ScriptedServer([_generate], keep_alive=True) as generator, \
            ScriptedServer([_correct], keep_alive=True) as corrector, \
            ScriptedServer([_correct] * 9 + [(400, {})], keep_alive=True) as failing, \
            environ(GECAUG_GENERATOR_URL=generator.url, GECAUG_CORRECTOR_URL=None):
        os.chdir(root)
        try:
            for label, argv in STEPS:
                if argv[0] == "copy":
                    shutil.copyfile(argv[1], argv[2])
                    continue
                # The checkpoint run that fails meets a corrector whose tenth reply is an error.
                os.environ["GECAUG_CORRECTOR_URL"] = (
                    failing if label == "denoise-checkpoint-fails" else corrector
                ).url
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli.main(list(argv))
                pins[f"{label}.stdout"] = _sha256(out.getvalue().encode("utf-8"))
                pins[f"{label}.stderr"] = _sha256(err.getvalue().encode("utf-8"))
                pins[f"{label}.exit"] = str(code)
        finally:
            os.chdir(cwd)
    for path in sorted(root.rglob("*")):
        if path.is_file():
            pins[path.relative_to(root).as_posix()] = _sha256(path.read_bytes())
    return dict(sorted(pins.items()))


def changed(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """The names added, removed or given another pin, sorted."""
    return sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))


def test_round_keeps_its_pinned_bytes(tmp_path: Path):
    pins = run_round(tmp_path)
    record = json.loads(PINS.read_text(encoding="utf-8"))
    assert not changed(record, pins), (
        f"these changed: {changed(record, pins)}; if that is meant, rewrite the record "
        "with `python tests/test_pins.py` and say why in CHANGES.md"
    )


def _main(argv: list[str]) -> int:
    import tempfile

    check = argv == ["--check"]
    if argv and not check:
        print("usage: test_pins.py [--check]", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        pins = run_round(Path(tmp))
    record = json.loads(PINS.read_text(encoding="utf-8")) if PINS.exists() else {}
    names = changed(record, pins)
    for name in names:
        print(name)
    if check:
        return 1 if names else 0
    PINS.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))

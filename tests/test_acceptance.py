"""End-to-end acceptance checks.

Each test exercises one headline guarantee and prints a single
``ACCEPTANCE <name>: PASS|FAIL`` line so a log scrape can audit the run.
From a plain checkout (or drop the ``PYTHONPATH`` after
``pip install -e ".[test]"``):

    PYTHONPATH=src python -m pytest tests/test_acceptance.py -v -s

The determinism check launches ``python -m gecaug`` in subprocesses whose
working directory is a temporary root; ``conftest.cli_env`` puts this
checkout's ``src`` first on their PYTHONPATH.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
import time
from pathlib import Path

from gecaug import (
    AnnotatedExample,
    Edit,
    ErrorPattern,
    GoldEdit,
    OracleCorrector,
    ParallelExample,
    StubGenerator,
    alignment_cost,
    apply_edits,
    distribution_consistency,
    extend_to_ngram,
    extract_edits,
    f_beta_from_rates,
    read_m2,
    read_pairs,
    relabel,
    score,
    synthesize,
    write_m2,
    write_parallel_tsv,
)

from _oracles import oracle_alignment_cost
from _server import ScriptedServer
from conftest import cli_env, insertion_pool, random_pair


def _verdict(name: str, failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    detail = f" ({'; '.join(failures)})" if failures else ""
    print(f"\nACCEPTANCE {name}: {status}{detail}")
    assert not failures, f"{name}: {failures}"


# ---------------------------------------------------------------------------
# 1. Reference pair: edit location and its n-gram extensions.

def test_acceptance_reference_pair_patterns():
    source = tuple(
        "Public transport enables our body to move one place to another .".split()
    )
    target = tuple(
        "Public transport enables our body to move from one place to another .".split()
    )
    failures: list[str] = []
    edits = extract_edits(ParallelExample(source, target, id="ref"))
    expected = [Edit((7, 7), ("from",), (7, 8), "insertion")]
    if edits != expected:
        failures.append(f"edits {edits!r}")
    else:
        edit = edits[0]
        grams = {
            n: extend_to_ngram(edit, source, target, n, edits) for n in (1, 3, 5)
        }
        want = {
            1: ErrorPattern((), ("from",), 1),
            3: ErrorPattern(("move", "one"), ("move", "from", "one"), 3),
            5: ErrorPattern(
                ("to", "move", "one", "place"),
                ("to", "move", "from", "one", "place"),
                5,
            ),
        }
        for n in (1, 3, 5):
            if grams[n] != want[n]:
                failures.append(f"n={n} got {grams[n]!r}")
    _verdict("reference-pair-patterns", failures)


# ---------------------------------------------------------------------------
# 2. F0.5 arithmetic reproduces two reference operating points.

def test_acceptance_f_beta_operating_points():
    failures: list[str] = []
    for precision, recall, expected in ((0.762, 0.522, 0.698), (0.738, 0.535, 0.686)):
        got = f_beta_from_rates(precision, recall)
        if abs(got - expected) >= 0.0005:
            failures.append(f"P={precision} R={recall} gave {got:.6f} want {expected}")
    _verdict("f-beta-operating-points", failures)


# ---------------------------------------------------------------------------
# 3. Edit extraction round-trips on 10,000 fuzzed pairs.

def test_acceptance_edit_round_trip():
    rng = random.Random(1900)
    bad = 0
    first = ""
    for _ in range(10_000):
        pair = random_pair(rng)
        rebuilt = apply_edits(pair.source, extract_edits(pair))
        if rebuilt != pair.target:
            bad += 1
            if not first:
                first = f"{pair.source} -> {pair.target} rebuilt {rebuilt}"
    failures = [f"{bad}/10000 failed round trip, first: {first}"] if bad else []
    _verdict("edit-round-trip", failures)


# ---------------------------------------------------------------------------
# 4. Alignment cost matches an exhaustive reference search.

def test_acceptance_alignment_optimality():
    # All sequences of length 0..3 over a vocabulary that exercises the
    # case-folded and similarity tiers of the substitution cost.
    vocab = ("a", "b", "A", "ab")
    sequences: list[tuple[str, ...]] = [()]
    frontier: list[tuple[str, ...]] = [()]
    for _ in range(3):
        frontier = [s + (t,) for s in frontier for t in vocab]
        sequences += frontier

    bad = 0
    first = ""
    for src in sequences:
        for tgt in sequences:
            got = alignment_cost(src, tgt)
            want = oracle_alignment_cost(src, tgt)
            if abs(got - want) > 1e-9:
                bad += 1
                if not first:
                    first = f"{src}->{tgt} got {got} want {want}"

    rng = random.Random(77)
    wide_vocab = ("a", "b", "A", "ab", "abc", "x", "xy")
    for _ in range(3_000):
        src = tuple(rng.choice(wide_vocab) for _ in range(rng.randint(4, 5)))
        tgt = tuple(rng.choice(wide_vocab) for _ in range(rng.randint(4, 5)))
        got = alignment_cost(src, tgt)
        want = oracle_alignment_cost(src, tgt)
        if abs(got - want) > 1e-9:
            bad += 1
            if not first:
                first = f"{src}->{tgt} got {got} want {want}"

    failures = [f"{bad} suboptimal alignments, first: {first}"] if bad else []
    _verdict("alignment-optimality", failures)


# ---------------------------------------------------------------------------
# 5. Synthesis hits the requested error rate on 10,000 samples.

def test_acceptance_error_rate_control():
    samples, stats = synthesize(
        insertion_pool(50),
        10_000,
        StubGenerator(seed=1),
        base_seed=123,
        error_rate=0.5,
        workers=4,
    )
    errorful = sum(s.source != s.target for s in samples) / len(samples)
    failures: list[str] = []
    if not 0.485 <= errorful <= 0.515:
        failures.append(f"errorful fraction {errorful:.4f} outside [0.485, 0.515]")
    if stats.samples != 10_000:
        failures.append(f"stats.samples {stats.samples}")
    _verdict("error-rate-control", failures)


# ---------------------------------------------------------------------------
# 6. Re-extracted pattern frequencies track the sampling pool.

def test_acceptance_distribution_consistency():
    pool = insertion_pool(500, zipf=1.0)
    samples, _ = synthesize(
        pool,
        50_000,
        StubGenerator(seed=6),
        base_seed=60,
        error_rate=1.0,
        workers=4,
    )
    pairs = [ParallelExample(s.source, s.target, id=s.id) for s in samples]
    report = distribution_consistency(pool, pairs, top_k=100)
    failures: list[str] = []
    if report.cosine < 0.98:
        failures.append(f"cosine {report.cosine:.4f} < 0.98")
    if report.spearman < 0.95:
        failures.append(f"spearman {report.spearman:.4f} < 0.95")
    _verdict("distribution-consistency", failures)


# ---------------------------------------------------------------------------
# 7. The span-recorded inverse recovers every generated sentence.

def test_acceptance_denoise_inverse():
    samples, _ = synthesize(
        insertion_pool(40),
        10_000,
        StubGenerator(seed=2),
        base_seed=7,
        error_rate=0.6,
        workers=4,
    )
    corrector = OracleCorrector(samples)
    pairs = list(relabel(samples, corrector, max_in_flight=64))
    bad = sum(
        pair.target != sample.target for pair, sample in zip(pairs, samples)
    )
    failures: list[str] = []
    if len(pairs) != len(samples):
        failures.append(f"yielded {len(pairs)} of {len(samples)}")
    if bad:
        failures.append(f"{bad} samples not recovered")
    if not all(pair.meta["matches_target"] for pair in pairs):
        failures.append("matches_target flag not set everywhere")
    _verdict("denoise-inverse", failures)


# ---------------------------------------------------------------------------
# 8. The CLI pipeline is byte-identical across roots, worker counts and hash seeds.

_PIPELINE = (
    ("extract", "--in", "corpus.tsv", "--n", "3", "--out", "pool.jsonl"),
    ("pool", "--in", "pool.jsonl", "--n", "3", "--out", "pooled.jsonl"),
    (
        "synthesize", "--pool", "pooled.jsonl", "--n", "3", "--count", "60",
        "--seed", "11", "--error-rate", "0.5", "--backend", "stub",
        "--out", "syn.jsonl", "--workers", "WORKERS",
    ),
    ("denoise", "--in", "syn.jsonl", "--backend", "identity", "--out", "denoised.jsonl"),
    ("mix", "--plan", "plan.json", "--out", "train.jsonl"),
    (
        "stats", "--ref-pool", "pool.jsonl", "--corpus", "train.jsonl", "--n", "3",
        "--top-k", "25", "--out", "stats.json", "--csv", "stats.csv",
    ),
    ("score", "--hyp", "corpus.tsv", "--gold", "gold.m2", "--out", "score.json"),
)


def _build_tree(root: Path) -> None:
    root.mkdir(parents=True)
    rng = random.Random(424242)
    pairs = [random_pair(rng) for _ in range(100)]
    write_parallel_tsv(pairs, root / "corpus.tsv")
    annotated = []
    for i, pair in enumerate(pairs):
        gold = tuple(
            GoldEdit(e.src_span[0], e.src_span[1], e.coarse_type, e.replacement)
            for e in extract_edits(pair)
        )
        annotated.append(AnnotatedExample(source=pair.source, edits={0: gold}, id=str(i)))
    write_m2(annotated, root / "gold.m2")
    plan = {
        "stage": "II",
        "real": ["corpus.tsv"],
        "synthetic": "denoised.jsonl",
        "synthetic_count": 30,
        "seed": 5,
    }
    (root / "plan.json").write_text(json.dumps(plan), encoding="utf-8")


def _run_pipeline(
    root: Path, workers: str, hash_seed: str, steps=_PIPELINE, env: dict | None = None
) -> dict[str, str]:
    for step in steps:
        argv = [workers if part == "WORKERS" else part for part in step]
        proc = subprocess.run(
            [sys.executable, "-m", "gecaug", *argv],
            cwd=root,
            env={**cli_env(), "PYTHONHASHSEED": hash_seed, **(env or {})},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, f"{argv[0]} failed: {proc.stderr}"
        (root / f"{argv[0]}.stdout.txt").write_text(proc.stdout, encoding="utf-8")
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_acceptance_determinism_envelope(tmp_path: Path):
    roots = (tmp_path / "a", tmp_path / "nested" / "deeper" / "b", tmp_path / "c")
    for root in roots:
        _build_tree(root)
    # Each run pins another hash seed: the order of a set of strings must not leak out.
    hashes = [
        _run_pipeline(roots[0], "1", "0"),
        _run_pipeline(roots[1], "1", "1"),
        _run_pipeline(roots[2], "4", "12345"),
    ]
    failures: list[str] = []
    for label, other in (
        ("root (and hash seed 0 -> 1)", hashes[1]),
        ("workers (and hash seed 0 -> 12345)", hashes[2]),
    ):
        if other != hashes[0]:
            diff = sorted(
                k for k in set(hashes[0]) | set(other) if hashes[0].get(k) != other.get(k)
            )
            failures.append(f"{label} variation changed {diff}")
    _verdict("determinism-envelope", failures)


# The local backends above run inline at any worker count; the http backends
# run on threads, so these runs check the envelope where threads do run.
_HTTP_PIPELINE = (
    ("extract", "--in", "corpus.tsv", "--n", "3", "--out", "pool.jsonl"),
    (
        "synthesize", "--pool", "pool.jsonl", "--n", "3", "--count", "60",
        "--seed", "11", "--error-rate", "0.5", "--backend", "http",
        "--out", "syn.jsonl", "--workers", "WORKERS",
    ),
    (
        "denoise", "--in", "syn.jsonl", "--backend", "http",
        "--out", "den.jsonl", "--max-in-flight", "WORKERS",
    ),
)


def _service_reply(payload: dict) -> tuple[int, bytes]:
    """A reply that depends on the request alone: a generator fills each
    [M] of its template, a corrector echoes its text."""
    if "template" in payload:
        text = " ".join("so it goes" if t == "[M]" else t for t in payload["template"].split())
    else:
        text = payload["text"]
    time.sleep(0.002)  # long enough that every thread gets requests
    return 200, json.dumps({"text": text}).encode("utf-8")


def test_acceptance_determinism_envelope_threads(tmp_path: Path):
    roots = (tmp_path / "one", tmp_path / "four")
    for root in roots:
        _build_tree(root)
    with ScriptedServer([_service_reply], keep_alive=True) as generator, \
            ScriptedServer([_service_reply], keep_alive=True) as corrector:
        env = {"GECAUG_GENERATOR_URL": generator.url, "GECAUG_CORRECTOR_URL": corrector.url}
        one = _run_pipeline(roots[0], "1", "0", _HTTP_PIPELINE, env)
        before = (generator.connections, corrector.connections)
        four = _run_pipeline(roots[1], "4", "0", _HTTP_PIPELINE, env)
        opened = (generator.connections - before[0], corrector.connections - before[1])
    failures: list[str] = []
    if four != one:
        diff = sorted(k for k in set(one) | set(four) if one.get(k) != four.get(k))
        failures.append(f"thread count changed {diff}")
    if min(opened) < 2:
        failures.append(f"connections (generator, corrector) at 4 threads: {opened}")
    _verdict("determinism-envelope-threads", failures)


# ---------------------------------------------------------------------------
# 9. A hand-scored evaluation fixture lands exactly on 0.5 everywhere.

def test_acceptance_scoring_golden(tmp_path: Path):
    (tmp_path / "gold.m2").write_text(
        "S He go to school .\n"
        "A 1 2|||R:VERB:SVA|||goes|||REQUIRED|||-NONE-|||0\n"
        "\n"
        "S I like apple .\n"
        "A 2 3|||R:NOUN:NUM|||apples|||REQUIRED|||-NONE-|||0\n"
        "\n"
        "S She is teacher .\n"
        "A 2 2|||M:DET|||a|||REQUIRED|||-NONE-|||0\n"
        "\n"
        "S They are happy .\n"
        "A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n"
        "\n"
        "S This is good .\n"
        "A 2 2|||M:ADV|||really|||REQUIRED|||-NONE-|||0\n",
        encoding="utf-8",
    )
    (tmp_path / "hyp.tsv").write_text(
        "He go to school .\tHe goes to school .\n"
        "I like apple .\tI like apple .\n"
        "She is teacher .\tShe is the teacher .\n"
        "They are happy .\tThey are very happy .\n"
        "This is good .\tThis is really good .\n",
        encoding="utf-8",
    )
    gold = list(read_m2(tmp_path / "gold.m2"))
    hyp = list(read_pairs(tmp_path / "hyp.tsv"))
    report = score(hyp, gold)
    failures: list[str] = []
    if (report.tp, report.fp, report.fn) != (2, 2, 2):
        failures.append(f"counts {(report.tp, report.fp, report.fn)}")
    for label, value in (
        ("precision", report.precision),
        ("recall", report.recall),
        ("f_beta", report.f_beta),
    ):
        if abs(value - 0.5) > 1e-9:
            failures.append(f"{label} {value!r}")
    _verdict("scoring-golden", failures)

"""Stage-wise training corpus mixing.

A stage plan names real corpora, optionally a synthetic corpus with a
cap, and a shuffle seed. Mixing concatenates the real corpora with the
first ``synthetic_count`` synthetic pairs, shuffles at sentence
granularity, and reports a manifest with per-origin counts and an
order-independent content hash so downstream runs can prove they trained
on the same multiset of pairs. A ratio sweep reads each input once and
mixes it once per cap; the shuffle and the hash are per cap.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, replace
from random import Random
from typing import Sequence

from .corpus import (
    MalformedLine, ParallelExample, SchemaError, is_int, read_json_file, read_jsonl, read_pairs,
)

STAGES = ("I", "II", "III")

# The real corpora, one list per path, and the synthetic corpus of a plan.
Corpora = tuple[list[list[ParallelExample]], list[ParallelExample]]


@dataclass(frozen=True)
class StagePlan:
    """What goes into one training stage.

    Stage I is real-data pretraining and takes no synthetic corpus;
    stages II and III may cap in a synthetic corpus. ``synthetic_count``
    is required exactly when ``synthetic`` is set.
    """

    stage: str
    real: tuple[str, ...]
    synthetic: str | None = None
    synthetic_count: int | None = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "real", tuple(self.real))
        if self.stage not in STAGES:
            raise ValueError(f"stage must be one of {STAGES}, got {self.stage!r}")
        if not self.real and self.synthetic is None:
            raise ValueError("plan names no corpora")
        if self.stage == "I" and self.synthetic is not None:
            raise ValueError("stage I takes no synthetic corpus")
        if (self.synthetic is None) != (self.synthetic_count is None):
            raise ValueError("synthetic and synthetic_count must be set together")
        if self.synthetic_count is not None and self.synthetic_count < 0:
            raise ValueError("synthetic_count must be non-negative")


def load_plan(path) -> StagePlan:
    """Read a plan JSON object: {stage, real, synthetic?, synthetic_count?, seed}."""
    path = os.fspath(path)
    try:
        obj = read_json_file(path)
    except MalformedLine as exc:
        raise SchemaError(path, 0, exc.reason) from exc
    if not isinstance(obj, dict):
        raise SchemaError(path, 0, "plan is not an object")
    if not isinstance(obj.get("stage"), str):
        raise SchemaError(path, 0, "key 'stage' must be a string")
    real = obj.get("real", [])
    if not isinstance(real, list) or any(not isinstance(p, str) for p in real):
        raise SchemaError(path, 0, "key 'real' must be a list of paths")
    synthetic = obj.get("synthetic")
    if synthetic is not None and not isinstance(synthetic, str):
        raise SchemaError(path, 0, "key 'synthetic' must be a path")
    count = obj.get("synthetic_count")
    if count is not None and not is_int(count):
        raise SchemaError(path, 0, "key 'synthetic_count' must be an int")
    seed = obj.get("seed", 0)
    if not is_int(seed):
        raise SchemaError(path, 0, "key 'seed' must be an int")
    try:
        return StagePlan(obj["stage"], tuple(real), synthetic, count, seed)
    except ValueError as exc:
        raise SchemaError(path, 0, str(exc)) from exc


def pair_hash(ex: ParallelExample) -> str:
    """Content hash of one pair (source and target only; ids excluded)."""
    text = " ".join(ex.source) + "\t" + " ".join(ex.target)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def content_hash(examples: Sequence[ParallelExample]) -> str:
    """Order-independent hash of a corpus as a multiset of pairs."""
    joined = "\n".join(sorted(pair_hash(ex) for ex in examples))
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


def read_corpora(plan: StagePlan) -> Corpora:
    """Read each input of ``plan`` once: one list per real corpus, then the synthetic one.

    Pair ids are prefixed with the input's index to stay unique across
    inputs. The synthetic list is empty when the plan names no synthetic
    corpus.
    """
    real = [_prefixed(k, read_pairs(path)) for k, path in enumerate(plan.real)]
    synthetic: list[ParallelExample] = []
    if plan.synthetic is not None:
        synthetic = _prefixed(len(plan.real), read_jsonl(plan.synthetic))
    return real, synthetic


def _prefixed(k: int, examples) -> list[ParallelExample]:
    return [replace(ex, id=f"{k}:{ex.id}") for ex in examples]


def mix(
    plan: StagePlan, corpora: Corpora | None = None
) -> tuple[list[ParallelExample], dict]:
    """Build one stage's training corpus plus its manifest.

    ``corpora`` is what ``read_corpora(plan)`` returns; the inputs are read
    when it is not given. The synthetic cap takes the first
    ``synthetic_count`` pairs; a cap larger than the corpus is an error,
    never a silent truncation. The shuffle runs on a new list, so the
    corpora are left as they are.
    """
    real, synthetic = read_corpora(plan) if corpora is None else corpora
    combined = [ex for rows in real for ex in rows]
    origins = [
        {"path": path, "kind": "real", "count": len(rows)}
        for path, rows in zip(plan.real, real)
    ]
    if plan.synthetic is not None:
        cap = plan.synthetic_count or 0
        if cap > len(synthetic):
            raise ValueError(
                f"synthetic_count {cap} exceeds corpus size {len(synthetic)}"
            )
        combined.extend(synthetic[:cap])
        origins.append({"path": plan.synthetic, "kind": "synthetic", "count": cap})
    rng = Random(plan.seed)
    rng.shuffle(combined)
    manifest = {
        "stage": plan.stage,
        "seed": plan.seed,
        "origins": origins,
        "total": len(combined),
        "content_hash": content_hash(combined),
    }
    return combined, manifest


def ratio_sweep(
    plan: StagePlan, caps: Sequence[int]
) -> list[tuple[int, list[ParallelExample], dict]]:
    """Mix once per synthetic cap. Caps must be unique; order is preserved.

    The inputs are read once and shared by every cap, so the returned
    corpora share their pair objects. Each cap shuffles its own list with
    ``plan.seed`` and hashes it, as ``mix`` alone would.
    """
    if plan.synthetic is None:
        raise ValueError("ratio sweep needs a plan with a synthetic corpus")
    if len(set(caps)) != len(caps):
        raise ValueError("duplicate caps in sweep")
    corpora = read_corpora(plan)
    out = []
    for cap in caps:
        examples, manifest = mix(replace(plan, synthetic_count=cap), corpora)
        out.append((cap, examples, manifest))
    return out

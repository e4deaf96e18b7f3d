"""Stage-wise training corpus mixing.

A stage plan names real corpora, optionally a synthetic corpus with a
cap, and a shuffle seed. Mixing concatenates the real corpora with the
first ``synthetic_count`` synthetic pairs, shuffles at sentence
granularity, and reports a manifest with per-origin counts and an
order-independent content hash so downstream runs can prove they trained
on the same multiset of pairs.
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


def mix(plan: StagePlan) -> tuple[list[ParallelExample], dict]:
    """Build one stage's training corpus plus its manifest.

    Pair ids are prefixed with the origin index to stay unique across
    inputs. The synthetic cap takes the first ``synthetic_count`` pairs;
    a cap larger than the corpus is an error, never a silent truncation.
    """
    combined: list[ParallelExample] = []
    origins: list[dict] = []
    for k, path in enumerate(plan.real):
        items = list(read_pairs(path))
        combined.extend(replace(ex, id=f"{k}:{ex.id}") for ex in items)
        origins.append({"path": path, "kind": "real", "count": len(items)})
    if plan.synthetic is not None:
        items = list(read_jsonl(plan.synthetic))
        cap = plan.synthetic_count or 0
        if cap > len(items):
            raise ValueError(
                f"synthetic_count {cap} exceeds corpus size {len(items)}"
            )
        k = len(plan.real)
        combined.extend(replace(ex, id=f"{k}:{ex.id}") for ex in items[:cap])
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
    """Mix once per synthetic cap. Caps must be unique; order is preserved."""
    if plan.synthetic is None:
        raise ValueError("ratio sweep needs a plan with a synthetic corpus")
    if len(set(caps)) != len(caps):
        raise ValueError("duplicate caps in sweep")
    out = []
    for cap in caps:
        capped = replace(plan, synthetic_count=cap)
        examples, manifest = mix(capped)
        out.append((cap, examples, manifest))
    return out

"""Stage-wise training corpus mixing.

A stage plan names real corpora, optionally a synthetic corpus with a
cap, and a shuffle seed. Mixing concatenates the real corpora with the
first ``synthetic_count`` synthetic pairs, shuffles at sentence
granularity, and reports a manifest with per-origin counts and an
order-independent content hash so downstream runs can prove they trained
on the same multiset of pairs. One core reads, keeps and hashes the
pairs: ``mix`` is its sweep at one cap, and a ratio sweep reads and
hashes each pair once and shuffles once per cap.
"""

from __future__ import annotations

import hashlib
import os
import sys
from itertools import islice
from random import Random
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .corpus import (
    MalformedLine, ParallelExample, Record, SchemaError, is_int, read_json_file, read_jsonl, read_pairs,
)

STAGES = ("I", "II", "III")

T = TypeVar("T")


class StagePlan(Record):
    """What goes into one training stage.

    Stage I is real-data pretraining and takes no synthetic corpus;
    stages II and III may cap in a synthetic corpus. ``synthetic_count``
    is required exactly when ``synthetic`` is set.
    """

    _fields = ("stage", "real", "synthetic", "synthetic_count", "seed")

    def __init__(
        self, stage: str, real: tuple[str, ...], synthetic: str | None = None,
        synthetic_count: int | None = None, seed: int = 0,
    ):
        real = tuple(real)
        if stage not in STAGES:
            raise ValueError(f"stage must be one of {STAGES}, got {stage!r}")
        if not real and synthetic is None:
            raise ValueError("plan names no corpora")
        if stage == "I" and synthetic is not None:
            raise ValueError("stage I takes no synthetic corpus")
        if (synthetic is None) != (synthetic_count is None):
            raise ValueError("synthetic and synthetic_count must be set together")
        if synthetic_count is not None and synthetic_count < 0:
            raise ValueError("synthetic_count must be non-negative")
        self.__dict__.update(
            stage=stage, real=real, synthetic=synthetic, synthetic_count=synthetic_count,
            seed=seed,
        )


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
    return _multiset_hash(map(pair_hash, examples))


def _multiset_hash(digests: Iterable[str]) -> str:
    """``content_hash`` of the pairs whose ``pair_hash`` values are ``digests``."""
    joined = "\n".join(sorted(digests))
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


def _manifest(
    plan: StagePlan, real_counts: Sequence[int], cap: int, digests: Sequence[str]
) -> dict:
    """The manifest of ``plan`` at synthetic ``cap``; ``digests`` are its pairs' ``pair_hash``."""
    origins = [
        {"path": path, "kind": "real", "count": count}
        for path, count in zip(plan.real, real_counts)
    ]
    if plan.synthetic is not None:
        origins.append({"path": plan.synthetic, "kind": "synthetic", "count": cap})
    return {
        "stage": plan.stage,
        "seed": plan.seed,
        "origins": origins,
        "total": len(digests),
        "content_hash": _multiset_hash(digests),
    }


def sweep_orders(
    plan: StagePlan, caps: Sequence[int], keep: Callable[[ParallelExample], T]
) -> tuple[list[T], Iterator[tuple[int, list[int], dict]]]:
    """The one mixing core: read each input of ``plan`` once and mix it at each cap.

    The inputs (each real corpus, then the synthetic one) are read in
    turn; pair ids are prefixed with the input's index to stay unique
    across inputs. Of each real pair and each of the first ``max(caps)``
    synthetic pairs only ``keep(pair)`` is kept, with the pair's
    ``pair_hash``, so a caller that keeps less than the pair holds less
    memory. Synthetic pairs past the largest cap are read, checked and
    counted, but neither kept nor hashed.

    Returns the kept values, in input order, and an iterator over the
    caps, in order. It yields each cap, the indices of its mix into the
    kept values, shuffled with ``Random(plan.seed)``, and its manifest. A
    cap takes the first pairs: as many as its manifest's ``total``. A
    negative cap, or one larger than the synthetic corpus, is a ValueError
    when it is reached, never a silent truncation.
    """
    kept: list[T] = []
    digests: list[str] = []

    def take(pairs: Iterable[ParallelExample]) -> int:
        start = len(kept)
        for ex in pairs:
            kept.append(keep(ex))
            digests.append(pair_hash(ex))
        return len(kept) - start

    real_counts = [take(read_pairs(path, id_prefix=f"{k}:")) for k, path in enumerate(plan.real)]
    n_real = sum(real_counts)
    n_synthetic = 0
    if plan.synthetic is not None:
        pairs = read_jsonl(plan.synthetic, id_prefix=f"{len(plan.real)}:")
        # A cap past ``sys.maxsize`` exceeds any corpus; the check below says so.
        stop = min(max([0, *caps]), sys.maxsize)
        n_synthetic = take(islice(pairs, stop)) + sum(1 for _ in pairs)

    def orders() -> Iterator[tuple[int, list[int], dict]]:
        for cap in caps:
            if cap < 0:
                raise ValueError("synthetic_count must be non-negative")
            if cap > n_synthetic:
                raise ValueError(f"synthetic_count {cap} exceeds corpus size {n_synthetic}")
            # Hash before the order is built, so the two are never held at once.
            manifest = _manifest(plan, real_counts, cap, digests[:n_real + cap])
            # A shuffle draws by length alone, so indices move as the pairs would.
            order = list(range(n_real + cap))
            Random(plan.seed).shuffle(order)
            yield cap, order, manifest

    return kept, orders()


def mix(plan: StagePlan) -> tuple[list[ParallelExample], dict]:
    """Build one stage's training corpus plus its manifest.

    The mix is the one cap ``synthetic_count`` (none for a real-only
    plan) of the mixing core: the real pairs and the first
    ``synthetic_count`` synthetic pairs, shuffled with
    ``Random(plan.seed)``. A cap larger than the synthetic corpus is an
    error, never a silent truncation.
    """
    pairs, orders = sweep_orders(plan, [plan.synthetic_count or 0], lambda ex: ex)
    ((_, order, manifest),) = orders
    return [pairs[i] for i in order], manifest


def ratio_sweep(
    plan: StagePlan, caps: Sequence[int]
) -> list[tuple[int, list[ParallelExample], dict]]:
    """Mix once per synthetic cap. Caps must be unique; order is preserved.

    The inputs are read and hashed once and shared by every cap, so the
    returned corpora share their pair objects. Each cap gets the corpus and
    manifest that ``mix`` alone would give it.
    """
    if plan.synthetic is None:
        raise ValueError("ratio sweep needs a plan with a synthetic corpus")
    if len(set(caps)) != len(caps):
        raise ValueError("duplicate caps in sweep")
    pairs, orders = sweep_orders(plan, caps, lambda ex: ex)
    return [(cap, [pairs[i] for i in order], manifest) for cap, order, manifest in orders]

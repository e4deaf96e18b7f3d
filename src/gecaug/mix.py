"""Stage-wise training corpus mixing.

A stage plan names real corpora, optionally a synthetic corpus with a
cap, and a shuffle seed. Mixing concatenates the real corpora with the
first ``synthetic_count`` synthetic pairs, shuffles at sentence
granularity, and reports a manifest with per-origin counts and an
order-independent content hash so downstream runs can prove they trained
on the same multiset of pairs. A ratio sweep reads and hashes each pair
once and shuffles once per cap.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, replace
from random import Random
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .corpus import (
    MalformedLine, ParallelExample, SchemaError, is_int, read_json_file, read_jsonl, read_pairs,
)

STAGES = ("I", "II", "III")

# The real corpora, one list per path, and the synthetic corpus of a plan.
Corpora = tuple[list[list[ParallelExample]], list[ParallelExample]]
T = TypeVar("T")


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
    return _multiset_hash(map(pair_hash, examples))


def _multiset_hash(digests: Iterable[str]) -> str:
    """``content_hash`` of the pairs whose ``pair_hash`` values are ``digests``."""
    joined = "\n".join(sorted(digests))
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


def _readers(plan: StagePlan) -> Iterator[Iterator[ParallelExample]]:
    """A reader per input of ``plan``, opened in turn: each real corpus, then the synthetic one.

    Pair ids are prefixed with the input's index to stay unique across
    inputs.
    """
    for k, path in enumerate(plan.real):
        yield read_pairs(path, id_prefix=f"{k}:")
    if plan.synthetic is not None:
        yield read_jsonl(plan.synthetic, id_prefix=f"{len(plan.real)}:")


def read_corpora(plan: StagePlan) -> Corpora:
    """Read each input of ``plan`` once: one list per real corpus, then the synthetic one.

    Pair ids are prefixed with the input's index to stay unique across
    inputs. The synthetic list is empty when the plan names no synthetic
    corpus.
    """
    corpora = [list(pairs) for pairs in _readers(plan)]
    return corpora[:len(plan.real)], (corpora[-1] if plan.synthetic is not None else [])


def _cap(plan: StagePlan, n_synthetic: int) -> int:
    """How many synthetic pairs ``plan`` takes; more than there are is a ValueError."""
    cap = plan.synthetic_count or 0
    if cap > n_synthetic:
        raise ValueError(f"synthetic_count {cap} exceeds corpus size {n_synthetic}")
    return cap


def _manifest(plan: StagePlan, real_counts: Sequence[int], digests: Sequence[str]) -> dict:
    """The manifest of the mix of ``plan`` whose pairs have the ``pair_hash`` values ``digests``."""
    origins = [
        {"path": path, "kind": "real", "count": count}
        for path, count in zip(plan.real, real_counts)
    ]
    if plan.synthetic is not None:
        origins.append({"path": plan.synthetic, "kind": "synthetic", "count": plan.synthetic_count})
    return {
        "stage": plan.stage,
        "seed": plan.seed,
        "origins": origins,
        "total": len(digests),
        "content_hash": _multiset_hash(digests),
    }


def mix(
    plan: StagePlan, corpora: Corpora | None = None
) -> tuple[list[ParallelExample], dict]:
    """Build one stage's training corpus plus its manifest.

    ``corpora`` is what ``read_corpora(plan)`` returns; the inputs are read
    when it is not given. The real pairs and the first ``synthetic_count``
    synthetic pairs are shuffled on a new list with ``Random(plan.seed)``,
    so the corpora are left as they are. A cap larger than the synthetic
    corpus is an error, never a silent truncation.
    """
    real, synthetic = read_corpora(plan) if corpora is None else corpora
    combined = [ex for rows in real for ex in rows] + synthetic[:_cap(plan, len(synthetic))]
    Random(plan.seed).shuffle(combined)
    digests = [pair_hash(ex) for ex in combined]
    return combined, _manifest(plan, [len(rows) for rows in real], digests)


def sweep_orders(
    plan: StagePlan, caps: Sequence[int], keep: Callable[[ParallelExample], T]
) -> tuple[list[T], Iterator[tuple[int, list[int], dict]]]:
    """A ratio sweep that reads and hashes each pair once for all caps.

    Each pair of the inputs (the real corpora, then the whole synthetic
    one) is read in turn and only ``keep(pair)`` is kept, so a caller that
    keeps less than the pair holds less memory. Returns those, in input
    order, and an iterator over the caps, in order. It yields each cap, the
    indices of its mix into them, shuffled as ``mix`` shuffles its pairs,
    and its manifest. A cap takes the first pairs: as many as its
    manifest's ``total``. Caps must be unique.
    """
    if plan.synthetic is None:
        raise ValueError("ratio sweep needs a plan with a synthetic corpus")
    if len(set(caps)) != len(caps):
        raise ValueError("duplicate caps in sweep")
    kept: list[T] = []
    digests: list[str] = []
    counts = []
    for pairs in _readers(plan):
        start = len(kept)
        for ex in pairs:
            kept.append(keep(ex))
            digests.append(pair_hash(ex))
        counts.append(len(kept) - start)
    real_counts, n_synthetic = counts[:-1], counts[-1]

    def orders() -> Iterator[tuple[int, list[int], dict]]:
        for cap in caps:
            capped = replace(plan, synthetic_count=cap)
            # A shuffle draws by length alone, so indices move as the pairs would.
            order = list(range(sum(real_counts) + _cap(capped, n_synthetic)))
            Random(plan.seed).shuffle(order)
            yield cap, order, _manifest(capped, real_counts, digests[:len(order)])

    return kept, orders()


def ratio_sweep(
    plan: StagePlan, caps: Sequence[int]
) -> list[tuple[int, list[ParallelExample], dict]]:
    """Mix once per synthetic cap. Caps must be unique; order is preserved.

    The inputs are read and hashed once and shared by every cap, so the
    returned corpora share their pair objects. Each cap gets the corpus and
    manifest that ``mix`` alone would give it.
    """
    pairs, orders = sweep_orders(plan, caps, lambda ex: ex)
    return [(cap, [pairs[i] for i in order], manifest) for cap, order, manifest in orders]

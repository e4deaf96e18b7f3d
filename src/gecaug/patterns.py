"""Error patterns and frequency-weighted pattern pools.

A pattern is a (wrong, correct) pair of short token sequences at a fixed
context width n. At n=1 the pattern is the bare edit; wider n wraps the
edit in up to (n-1)/2 shared context tokens on each side, truncated at
sentence boundaries and never crossing a neighboring edit's span.

Pools count pattern occurrences over a corpus and support frequency-
proportional sampling with replacement, so synthetic corpora inherit the
error distribution of the corpus the pool came from.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from collections import Counter
from random import Random
from typing import Iterable, Mapping, Sequence

from .align import Edit, extract_edits
from .corpus import (
    VALID_N, ParallelExample, Record, SchemaError, canonical_json, check_tokens, is_int, read_json_rows,
    write_lines,
)


def _check_width(n) -> None:
    if not (is_int(n) and n in VALID_N):
        raise ValueError(f"context width must be one of {VALID_N}, got {n}")


class ErrorPattern(Record):
    """One (wrong, correct) n-gram pair. Either side may be empty at n=1."""

    _fields = ("wrong", "correct", "n")

    def __init__(self, wrong: tuple[str, ...], correct: tuple[str, ...], n: int):
        wrong, correct = tuple(wrong), tuple(correct)
        _check_width(n)
        check_tokens(wrong, "wrong", allow_empty=True)
        check_tokens(correct, "correct", allow_empty=True)
        if wrong == correct:
            raise ValueError("pattern sides are identical")
        self.__dict__.update(wrong=wrong, correct=correct, n=n)


def extend_to_ngram(
    edit: Edit,
    source: Sequence[str],
    target: Sequence[str],
    n: int,
    edits: Sequence[Edit] | None = None,
) -> ErrorPattern:
    """Widen an edit into an n-gram pattern with shared context.

    Up to (n-1)/2 tokens are taken on each side, stopping at the sentence
    boundary, at a neighboring edit's span (pass the pair's full edit list
    as ``edits``), or at the first position where source and target
    disagree. Inside the corridor between neighboring edits the last two
    conditions coincide, so omitting ``edits`` only matters for pairs with
    pathological multi-edit geometry.
    """
    return ErrorPattern(*_ngram_sides(edit, source, target, n, edits), n)


def _ngram_sides(
    edit: Edit,
    source: Sequence[str],
    target: Sequence[str],
    n: int,
    edits: Sequence[Edit] | None,
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The (wrong, correct) sides of ``extend_to_ngram``'s pattern, not yet checked."""
    _check_width(n)
    k = (n - 1) // 2
    start, end = edit.src_span
    t_start, t_end = edit.tgt_span

    lo = 0
    hi = len(source)
    if edits is not None:
        for e in edits:
            if e.src_span == edit.src_span and e.tgt_span == edit.tgt_span:
                continue
            if e.src_span[1] <= start:
                lo = max(lo, e.src_span[1])
            if e.src_span[0] >= end:
                hi = min(hi, e.src_span[0])

    p = 0
    while (
        p < k
        and start - p - 1 >= lo
        and t_start - p - 1 >= 0
        and source[start - p - 1] == target[t_start - p - 1]
    ):
        p += 1
    s = 0
    while (
        s < k
        and end + s < hi
        and t_end + s < len(target)
        and source[end + s] == target[t_end + s]
    ):
        s += 1

    prefix = tuple(source[start - p:start])
    suffix = tuple(source[end:end + s])
    wrong = prefix + tuple(source[start:end]) + suffix
    correct = prefix + edit.replacement + suffix
    return wrong, correct


class PatternPool:
    """Pattern occurrence counts at one context width.

    Pools are treated as immutable after construction; sampling structures
    are built lazily and cached.
    """

    def __init__(self, counts: Mapping[ErrorPattern, int], n: int):
        _check_width(n)
        for pattern, count in counts.items():
            if pattern.n != n:
                raise ValueError(
                    f"pattern width {pattern.n} does not match pool width {n}"
                )
            if not is_int(count) or count < 1:
                raise ValueError(f"count for {pattern} must be a positive int")
        self.counts: dict[ErrorPattern, int] = dict(counts)
        self.n = n
        self.total = sum(self.counts.values())
        self._keys: list[ErrorPattern] | None = None
        self._cum: list[int] | None = None

    def __len__(self) -> int:
        return len(self.counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PatternPool):
            return NotImplemented
        return self.counts == other.counts and self.n == other.n

    def __repr__(self) -> str:
        return f"PatternPool(n={self.n}, patterns={len(self.counts)}, total={self.total})"

    def patterns_by_frequency(self) -> list[ErrorPattern]:
        """Patterns ordered by descending count, ties lexicographic."""
        return sorted(
            self.counts, key=lambda p: (-self.counts[p], p.wrong, p.correct)
        )

    def _sampling_arrays(self) -> tuple[list[ErrorPattern], list[int]]:
        # Keys are sorted, not insertion-ordered, so pools with equal
        # content sample identically however they were built.
        if self._keys is None:
            keys = sorted(self.counts, key=lambda p: (p.wrong, p.correct))
            cum: list[int] = []
            running = 0
            for key in keys:
                running += self.counts[key]
                cum.append(running)
            self._keys = keys
            self._cum = cum
        assert self._cum is not None
        return self._keys, self._cum


def build_pool(corpus: Iterable[ParallelExample], n: int) -> PatternPool:
    """Extract every edit in ``corpus`` and count its n-gram pattern.

    Each distinct pair of sides is checked as an ``ErrorPattern`` once, when
    it first occurs; later occurrences only count.
    """
    found: dict[tuple, list] = {}  # (wrong, correct) -> [pattern, count]
    for pair in corpus:
        edits = extract_edits(pair)
        for edit in edits:
            sides = _ngram_sides(edit, pair.source, pair.target, n, edits)
            entry = found.get(sides)
            if entry is None:
                found[sides] = [ErrorPattern(*sides, n), 1]
            else:
                entry[1] += 1
    return PatternPool(dict(found.values()), n)


def merge_pools(pools: Sequence[PatternPool]) -> PatternPool:
    """Sum counts across pools of the same width."""
    if not pools:
        raise ValueError("no pools to merge")
    n = pools[0].n
    for pool in pools[1:]:
        if pool.n != n:
            raise ValueError(f"cannot merge widths {n} and {pool.n}")
    counts: Counter[ErrorPattern] = Counter()
    for pool in pools:
        counts.update(pool.counts)
    return PatternPool(counts, n)


def restrict_sendable(pool: PatternPool) -> PatternPool:
    """Drop patterns whose correct side is empty.

    A pattern with no correct-side tokens cannot be located in a generated
    sentence, so it can never be planted.
    """
    counts = {p: c for p, c in pool.counts.items() if p.correct}
    return PatternPool(counts, pool.n)


# ---------------------------------------------------------------------------
# Sampling

def draw_pattern(pool: PatternPool, rng: Random) -> ErrorPattern:
    """One frequency-proportional draw (with replacement)."""
    if pool.total == 0:
        raise ValueError("cannot sample from an empty pool")
    keys, cum = pool._sampling_arrays()
    r = rng.randrange(pool.total)
    return keys[bisect_right(cum, r)]


def sides_overlap(a: tuple[str, ...], b: tuple[str, ...]) -> bool:
    """True if one token sequence contains the other or their ends overlap.

    Empty sequences overlap everything. Boundary overlap means a suffix of
    one equals a prefix of the other, which would let the two sequences
    share tokens when planted into one sentence.
    """
    if not a or not b:
        return True
    la, lb = len(a), len(b)
    if la <= lb:
        shorter, longer = a, b
    else:
        shorter, longer = b, a
    ls, ll = len(shorter), len(longer)
    if any(longer[i:i + ls] == shorter for i in range(ll - ls + 1)):
        return True
    for k in range(1, min(la, lb)):
        if a[-k:] == b[:k] or b[-k:] == a[:k]:
            return True
    return False


def patterns_overlap(p: ErrorPattern, q: ErrorPattern) -> bool:
    """Overlap test on correct sides, the sides that appear in candidates."""
    return sides_overlap(p.correct, q.correct)


def sample_patterns(pool: PatternPool, rng: Random) -> list[ErrorPattern]:
    """Draw 1 or 2 non-overlapping patterns for one generation slot.

    RNG order: one draw for the pattern count (uniform 1 or 2), then the
    pattern draws. A 2-draw whose patterns overlap is redrawn as a pair up
    to 8 times; if every attempt overlaps, the draw is truncated to the
    first pattern of the final attempt.
    """
    count = rng.randint(1, 2)
    if count == 1:
        return [draw_pattern(pool, rng)]
    a = draw_pattern(pool, rng)
    b = draw_pattern(pool, rng)
    for _ in range(8):
        if not patterns_overlap(a, b):
            return [a, b]
        a = draw_pattern(pool, rng)
        b = draw_pattern(pool, rng)
    if not patterns_overlap(a, b):
        return [a, b]
    return [a]


# ---------------------------------------------------------------------------
# Serialization

def save_pool(pool: PatternPool, path) -> int:
    """Write one {wrong, correct, count} JSON object per line.

    Rows are ordered by descending count with lexicographic tie-breaks, so
    equal pools serialize to identical bytes. The width is not stored;
    loading takes it explicitly.
    """
    rows = ({**pattern_row(p), "count": pool.counts[p]} for p in pool.patterns_by_frequency())
    return write_lines(map(canonical_json, rows), path)


def pattern_row(pattern: ErrorPattern) -> dict:
    """The {wrong, correct} row of a pool, sample or report entry."""
    return {"wrong": list(pattern.wrong), "correct": list(pattern.correct)}


def pattern_from_row(obj: dict, n: int, path: str, line_no: int) -> ErrorPattern:
    """The pattern of a pool or sample row; a bad row raises SchemaError."""
    if not isinstance(obj, dict):
        raise SchemaError(path, line_no, "pattern entry must be an object")
    for key in ("wrong", "correct"):
        side = obj.get(key)
        if not isinstance(side, list) or not all(isinstance(t, str) for t in side):
            raise SchemaError(path, line_no, f"key {key!r} must be a string list")
    try:
        return ErrorPattern(tuple(obj["wrong"]), tuple(obj["correct"]), n)
    except ValueError as exc:
        raise SchemaError(path, line_no, str(exc)) from exc


def load_pool(path, n: int) -> PatternPool:
    """Read a pool written by save_pool. ``n`` must be supplied by the caller."""
    path = os.fspath(path)
    counts: dict[ErrorPattern, int] = {}
    for line_no, obj in read_json_rows(path):
        pattern = pattern_from_row(obj, n, path, line_no)
        if not is_int(obj.get("count")) or obj["count"] < 1:
            raise SchemaError(path, line_no, "key 'count' must be a positive int")
        if pattern in counts:
            raise SchemaError(path, line_no, "duplicate pattern row")
        counts[pattern] = obj["count"]
    return PatternPool(counts, n)


def pool_stats(pool: PatternPool) -> dict[str, int]:
    """Distinct pattern count and total occurrence mass, for reporting."""
    return {"patterns": len(pool.counts), "total": pool.total}

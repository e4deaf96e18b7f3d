"""Token-level alignment between a wrong sentence and its correction.

The aligner is a weighted Damerau-Levenshtein dynamic program over tokens
with linguistically tuned costs:

* match (exact token equality): 0
* insert / delete: 1
* substitute: 1 if the tokens are equal after lowercasing, 1.5 if their
  character-level similarity (longest common subsequence length divided by
  the longer length) is at least 0.5, else 2
* transposition of a k-token window (k >= 2) whose source and target
  spans are equal as multisets but not as sequences: k - 0.5

Ties between equal-cost operations resolve match > substitute > delete >
insert > transpose, applied left to right while the table fills, so the
alignment is deterministic. Three shortcuts leave every cell's cost and
choice, and so the op sequence, as a full table would give them:

* The common token suffix is aligned as matches before the table is
  filled. Matching equal last tokens is optimal and match wins ties, so a
  full table would walk back through those cells as matches; the cells
  before them do not depend on later ones. (A prefix trim would not be
  exact: it moves the table's origin, and with it which of several
  equal-cost alignments the tie order picks.)
* A substitution's cost is looked up only when it can win the cell: it
  costs at least 1, so when delete or insert is already below
  ``diag + 1`` the cell takes that, and otherwise the substitution wins
  iff ``diag + cost`` is no more than the cheaper of the two.
* Transposition windows are scanned over every k (not the first hit, to
  stay globally minimal) until no larger window can win. A window of k
  tokens ending at (i, j) starts from a cell that is at least |i - j|
  inserts or deletes from the origin, so it costs at least
  ``|i - j| + k - 0.5``; it takes a cell only on strict improvement, so
  the scan stops once that bound reaches the cell's best cost.

Runs of consecutive non-match operations merge into span-level ``Edit``
objects, the unit every downstream module consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .corpus import ParallelExample

MATCH = "match"
SUBSTITUTE = "substitute"
INSERT = "insert"
DELETE = "delete"
TRANSPOSE = "transpose"

INSERTION = "insertion"
DELETION = "deletion"
SUBSTITUTION = "substitution"


@dataclass(frozen=True)
class AlignOp:
    """One alignment table step. Spans are half-open token index ranges."""

    kind: str
    src_span: tuple[int, int]
    tgt_span: tuple[int, int]


@dataclass(frozen=True)
class Edit:
    """A maximal contiguous difference between source and target.

    ``replacement`` is the target-side material for the source span; empty
    for pure deletions. ``coarse_type`` is one of "insertion", "deletion"
    or "substitution" (transpositions surface as substitutions).
    """

    src_span: tuple[int, int]
    replacement: tuple[str, ...]
    tgt_span: tuple[int, int]
    coarse_type: str


@lru_cache(maxsize=65536)
def _char_similarity(a: str, b: str) -> float:
    """LCS(a, b) / max(len(a), len(b)) over characters."""
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0.0
    prev = [0] * (lb + 1)
    for i in range(1, la + 1):
        cur = [0] * (lb + 1)
        ai = a[i - 1]
        for j in range(1, lb + 1):
            if ai == b[j - 1]:
                cur[j] = prev[j - 1] + 1
            elif prev[j] >= cur[j - 1]:
                cur[j] = prev[j]
            else:
                cur[j] = cur[j - 1]
        prev = cur
    return prev[lb] / max(la, lb)


def substitution_cost(a: str, b: str) -> float:
    """Cost of substituting token ``a`` with ``b`` (assumed unequal)."""
    if a.lower() == b.lower():
        return 1.0
    if _char_similarity(a, b) >= 0.5:
        return 1.5
    return 2.0


def align_tokens(source: Sequence[str], target: Sequence[str]) -> list[AlignOp]:
    """Return the minimal-cost operation sequence aligning source to target."""
    src = list(source)
    tgt = list(target)
    n, m = len(src), len(tgt)
    # The common suffix aligns as matches; the table covers the rest.
    tail = 0
    while tail < n and tail < m and src[n - 1 - tail] == tgt[m - 1 - tail]:
        tail += 1
    n -= tail
    m -= tail

    cost = [[0.0] * (m + 1) for _ in range(n + 1)]
    back: list[list[tuple[str, int]]] = [[("", 0)] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        cost[i][0] = float(i)
        back[i][0] = (DELETE, 1)
    for j in range(1, m + 1):
        cost[0][j] = float(j)
        back[0][j] = (INSERT, 1)

    for i in range(1, n + 1):
        s_tok = src[i - 1]
        row = cost[i]
        prev_row = cost[i - 1]
        for j in range(1, m + 1):
            t_tok = tgt[j - 1]
            diag = prev_row[j - 1]
            best_cost, best_op = prev_row[j] + 1.0, (DELETE, 1)
            cand = row[j - 1] + 1.0
            if cand < best_cost:
                best_cost, best_op = cand, (INSERT, 1)
            if s_tok == t_tok:
                if diag <= best_cost:
                    best_cost, best_op = diag, (MATCH, 1)
            elif diag + 1.0 <= best_cost:
                # A substitution costs at least 1, so its cost is looked up
                # only here, where it can still win the cell.
                cand = diag + substitution_cost(s_tok, t_tok)
                if cand <= best_cost:
                    best_cost, best_op = cand, (SUBSTITUTE, 1)

            # Transposition windows, grown one token at a time with an
            # incremental multiset difference so each step is O(1). A
            # window of k costs at least floor + k, because the cell it
            # starts from is at least |i - j| inserts or deletes from the
            # origin, and it must beat best_cost strictly.
            floor = abs(i - j) - 0.5
            if i >= 2 and j >= 2 and floor + 2 < best_cost:
                diff: dict[str, int] = {}
                nonzero = 0
                seq_equal = True
                for k in range(1, min(i, j) + 1):
                    if floor + k >= best_cost:
                        break
                    a, b = src[i - k], tgt[j - k]
                    seq_equal = seq_equal and a == b
                    if a != b:
                        v = diff.get(a, 0)
                        nonzero += (v == 0) - (v == -1)
                        diff[a] = v + 1
                        v = diff.get(b, 0)
                        nonzero += (v == 0) - (v == 1)
                        diff[b] = v - 1
                    if k >= 2 and nonzero == 0 and not seq_equal:
                        cand = cost[i - k][j - k] + k - 0.5
                        if cand < best_cost:
                            best_cost, best_op = cand, (TRANSPOSE, k)

            row[j] = best_cost
            back[i][j] = best_op

    ops = [
        AlignOp(MATCH, (n + t, n + t + 1), (m + t, m + t + 1))
        for t in reversed(range(tail))
    ]
    i, j = n, m
    while i > 0 or j > 0:
        kind, k = back[i][j]
        if kind == MATCH or kind == SUBSTITUTE:
            ops.append(AlignOp(kind, (i - 1, i), (j - 1, j)))
            i, j = i - 1, j - 1
        elif kind == DELETE:
            ops.append(AlignOp(kind, (i - 1, i), (j, j)))
            i -= 1
        elif kind == INSERT:
            ops.append(AlignOp(kind, (i, i), (j - 1, j)))
            j -= 1
        else:
            ops.append(AlignOp(kind, (i - k, i), (j - k, j)))
            i, j = i - k, j - k
    ops.reverse()
    return ops


def alignment_cost(source: Sequence[str], target: Sequence[str]) -> float:
    """Total cost of the minimal alignment (exposed for verification)."""
    ops = align_tokens(source, target)
    total = 0.0
    for op in ops:
        if op.kind == MATCH:
            continue
        if op.kind == SUBSTITUTE:
            a = source[op.src_span[0]]
            b = target[op.tgt_span[0]]
            total += substitution_cost(a, b)
        elif op.kind in (INSERT, DELETE):
            total += 1.0
        else:
            total += (op.src_span[1] - op.src_span[0]) - 0.5
    return total


def merge_edits(
    ops: Sequence[AlignOp], source: Sequence[str], target: Sequence[str]
) -> list[Edit]:
    """Collapse maximal runs of non-match operations into Edits.

    Vacuous runs (source slice already equal to the replacement) are
    dropped defensively; a minimal alignment never produces them.
    """
    edits: list[Edit] = []
    run: list[AlignOp] = []

    def flush() -> None:
        if not run:
            return
        s0, s1 = run[0].src_span[0], run[-1].src_span[1]
        t0, t1 = run[0].tgt_span[0], run[-1].tgt_span[1]
        replacement = tuple(target[t0:t1])
        run.clear()
        if tuple(source[s0:s1]) == replacement:
            return
        if s0 == s1:
            coarse = INSERTION
        elif t0 == t1:
            coarse = DELETION
        else:
            coarse = SUBSTITUTION
        edits.append(Edit((s0, s1), replacement, (t0, t1), coarse))

    for op in ops:
        if op.kind == MATCH:
            flush()
        else:
            run.append(op)
    flush()
    return edits


def extract_edits(pair: ParallelExample) -> list[Edit]:
    """Align a pair and return its span-level edits. Identical pairs give []."""
    if pair.source == pair.target:
        return []
    ops = align_tokens(pair.source, pair.target)
    return merge_edits(ops, pair.source, pair.target)


def apply_edits(source: Sequence[str], edits: Sequence[Edit]) -> tuple[str, ...]:
    """Apply edits to ``source`` right to left, reconstructing the target."""
    out = list(source)
    for e in sorted(edits, key=lambda e: e.src_span, reverse=True):
        out[e.src_span[0]:e.src_span[1]] = e.replacement
    return tuple(out)

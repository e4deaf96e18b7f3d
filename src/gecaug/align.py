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
alignment is deterministic. The shortcuts below leave the cost and choice
of every cell on an optimal path, and so the op sequence, as a full table
would give them:

* A cost-bounded band (Ukkonen 1985). Insert and delete are the only ops
  that leave a diagonal d = i - j, at cost 1 each, so cell (i, j) costs at
  least |d| and the rest of a path from it at least |(n - m) - d|. For a
  bound ``limit``, only cells with |d| + |(n - m) - d| <= limit are stored,
  and a cell whose cost exceeds its room, ``limit - |(n - m) - d|``, is
  dead (infinite). The first bound is |n - m| + 4; while the final cell
  exceeds it, the bound doubles, up to n + m, where the band is the whole
  table. The band is exact. A cell on an optimal path of cost <= limit
  costs no more than its room, so it lies in the band, lives and, by
  induction, holds its full-table cost. At such a cell every candidate
  that ties for the minimum comes from a cell on an optimal path too; a
  cell outside the band, or dead, is on none, so its candidate is strictly
  above the minimum in the full table as well. The tied candidates, and so
  the choice, are those of the full table.
* A substitution's cost is looked up only when it can win the cell: it
  costs at least 1, so when delete or insert is already below
  ``diag + 1``, or ``diag + 1`` exceeds the room, the cell does not need
  it, and otherwise the substitution wins iff ``diag + cost`` is no more
  than the best so far.
* Transposition windows are scanned over every k (not the first hit, to
  stay globally minimal) until no larger window can win. A window of k
  tokens ending at (i, j) starts from a cell that is at least |i - j|
  inserts or deletes from the origin, so it costs at least
  ``|i - j| + k - 0.5``; it takes a cell only on strict improvement and
  within the room, so the scan stops once that bound reaches either. No
  scan runs where the last tokens are equal: such a window needs k >= 3
  (two tokens with equal last ones are equal as sequences), and it costs
  strictly more than the transposition of the k - 1 tokens before the
  last ones followed by their match. Nor does a scan run unless the
  widest window still allowed holds each last token on the other side.
* The character LCS of the substitution tiers is bit-parallel over Python
  ints (Hyyrö 2004), with the same integer length and so the same ratio.

Trimming a common prefix or suffix before the table is filled is not
exact. A prefix trim moves the table's origin, and with it which of
several equal-cost alignments the tie order picks. A suffix trim misses
the transposition windows that end on the source's last token while the
target's equal last token is inserted.

Runs of consecutive non-match operations merge into span-level ``Edit``
objects, the unit every downstream module consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import ceil
from typing import Sequence

from .corpus import ParallelExample, splice

MATCH = "match"
SUBSTITUTE = "substitute"
INSERT = "insert"
DELETE = "delete"
TRANSPOSE = "transpose"

INSERTION = "insertion"
DELETION = "deletion"
SUBSTITUTION = "substitution"

_INF = float("inf")


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
    """LCS(a, b) / max(len(a), len(b)) over characters.

    The LCS length is bit-parallel (Hyyrö 2004). Bit p of ``row`` is clear
    exactly where the LCS of ``a[:p + 1]`` with the part of ``b`` read so
    far is one more than that of ``a[:p]``, so the clear bits count the LCS.
    """
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0.0
    masks: dict[str, int] = {}
    for p, ch in enumerate(a):
        masks[ch] = masks.get(ch, 0) | (1 << p)
    full = (1 << la) - 1
    row = full
    for ch in b:
        hits = row & masks.get(ch, 0)
        row = ((row + hits) | (row - hits)) & full
    return (la - row.bit_count()) / max(la, lb)


def substitution_cost(a: str, b: str) -> float:
    """Cost of substituting token ``a`` with ``b`` (assumed unequal)."""
    if a.lower() == b.lower():
        return 1.0
    if _char_similarity(a, b) >= 0.5:
        return 1.5
    return 2.0


def _align_within(src: list[str], tgt: list[str], limit: int) -> list[AlignOp] | None:
    """The minimal alignment if it costs at most ``limit``, else None.

    Only the band of diagonals d = i - j with |d| + |(n - m) - d| <= limit
    is stored: row i keeps cell (i, j) at offset ``j - i + hi``, so a
    cell's diagonal neighbour and every transposition start share its
    offset, the cell above sits one offset right and the cell to the left
    one offset left. One spare infinite cost at the end of each row stands
    for the cells just outside the band on either side (offset -1 reads
    it too). Cells outside the table, and dead cells, stay infinite.
    """
    n, m = len(src), len(tgt)
    skew = n - m
    lo = (skew - limit + 1) // 2
    hi = (skew + limit) // 2
    width = hi - lo + 1
    cost = [[_INF] * (width + 1) for _ in range(n + 1)]
    back: list[list[tuple[str, int] | None]] = [[None] * width for _ in range(n + 1)]
    cost[0][hi] = 0.0
    for j in range(1, min(m, -lo) + 1):
        cost[0][hi + j] = float(j)
        back[0][hi + j] = (INSERT, 1)
    for i in range(1, min(n, hi) + 1):
        cost[i][hi - i] = float(i)
        back[i][hi - i] = (DELETE, 1)

    # Per offset, so per diagonal d = hi - o: the most a cell there may cost
    # and still lie on a path of cost <= limit (the rest of the path needs
    # at least |skew - d| inserts or deletes), and |d| - 0.5, the floor of
    # the transposition bound. Costs are multiples of 0.5 and the room is an
    # integer, so a cell that starts from room + 0.25 keeps exactly the
    # candidates <= room and never ties with the start; it stays dead
    # (infinite) if no candidate is left.
    start = [limit - abs(skew - hi + o) + 0.25 for o in range(width)]
    floors = [abs(hi - o) - 0.5 for o in range(width)]
    for i in range(1, n + 1):
        s_tok = src[i - 1]
        row = cost[i]
        prev_row = cost[i - 1]
        back_row = back[i]
        shift = i - hi
        for o in range(max(0, 1 - shift), min(width, m + 1 - shift)):
            j = o + shift
            t_tok = tgt[j - 1]
            best_cost = start[o]
            best_op = None
            cand = prev_row[o + 1] + 1.0
            if cand < best_cost:
                best_cost, best_op = cand, (DELETE, 1)
            cand = row[o - 1] + 1.0
            if cand < best_cost:
                best_cost, best_op = cand, (INSERT, 1)
            diag = prev_row[o]
            if s_tok == t_tok:
                # No transposition window ends on equal tokens: it loses
                # to the window of the tokens before them, then this match.
                if diag <= best_cost:
                    best_cost, best_op = diag, (MATCH, 1)
            else:
                if diag + 1.0 <= best_cost:
                    # A substitution costs at least 1, so its cost is looked
                    # up only here, where it can still win the cell.
                    cand = diag + substitution_cost(s_tok, t_tok)
                    if cand <= best_cost:
                        best_cost, best_op = cand, (SUBSTITUTE, 1)

                # Transposition windows, grown one token at a time with an
                # incremental multiset difference so each step is O(1); the
                # last tokens differ, so no window equals its target. A
                # window of k costs at least floor + k, because the cell it
                # starts from is at least |d| inserts or deletes from the
                # origin, and it must beat best_cost strictly, so k stays
                # below best_cost - floor. Each window holds s_tok on the
                # target side and t_tok on the source side before its last
                # tokens, so the scan runs only where the widest one does.
                floor = floors[o]
                if (
                    floor + 2 < best_cost
                    and (kmax := min(i, j, ceil(best_cost - floor) - 1)) >= 2
                    and s_tok in tgt[j - kmax:j - 1]
                    and t_tok in src[i - kmax:i - 1]
                ):
                    diff: dict[str, int] = {}
                    nonzero = 0
                    for k in range(1, kmax + 1):
                        if floor + k >= best_cost:
                            break
                        a, b = src[i - k], tgt[j - k]
                        if a != b:
                            v = diff.get(a, 0)
                            nonzero += (v == 0) - (v == -1)
                            diff[a] = v + 1
                            v = diff.get(b, 0)
                            nonzero += (v == 0) - (v == 1)
                            diff[b] = v - 1
                        if k >= 2 and nonzero == 0:
                            cand = cost[i - k][o] + k - 0.5
                            if cand < best_cost:
                                best_cost, best_op = cand, (TRANSPOSE, k)

            if best_op is not None:
                row[o] = best_cost
                back_row[o] = best_op

    if cost[n][m - n + hi] > limit:
        return None
    ops: list[AlignOp] = []
    i, j = n, m
    while i > 0 or j > 0:
        kind, k = back[i][j - i + hi]
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


def align_tokens(source: Sequence[str], target: Sequence[str]) -> list[AlignOp]:
    """Return the minimal-cost operation sequence aligning source to target.

    The band starts at |n - m| + 4 and doubles until it holds the optimum;
    at n + m it is the whole table, whose optimum never exceeds n + m.
    """
    src = list(source)
    tgt = list(target)
    n, m = len(src), len(tgt)
    limit = min(abs(n - m) + 4, n + m)
    ops = _align_within(src, tgt, limit)
    while ops is None:
        limit = min(2 * limit, n + m)
        ops = _align_within(src, tgt, limit)
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
    """The target rebuilt from edits; those at one point apply in list order (see ``splice``)."""
    ordered = sorted(edits, key=lambda e: e.src_span)
    return splice(source, [(*e.src_span, e.replacement) for e in ordered])[0]

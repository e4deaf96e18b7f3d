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
* The rows of the common prefix (length P) are not filled. Trimming the
  prefix would move the table's origin, and with it which of several
  equal-cost alignments the tie order picks, so the origin stays and the
  rows' content is known instead: a cell (i, j) with i <= P costs exactly
  |i - j|, at least that many inserts or deletes and reached by matching
  the shared tokens first, and a band cell's room is never below it. So
  rows 0..P are one row of |d| and filling starts at row P + 1. Through
  them the traceback takes the choice the fill would have made: a match
  where the tokens are equal, else the insert (j > i) or delete (i > j)
  that keeps the cost; every other candidate costs more.
* The common suffix (length Q) is cut only where a row certifies it.
  Trimming it outright is not exact: it misses a transposition window that
  ends on the source's last token while the target's equal last token is
  inserted. From row n - Q on, the cell A of a row on the final diagonal
  d = n - m is followed by matches only, so the optimum costs at most
  cost(A). The fill stops at that row when A is live and every other way
  past the row has a lower bound above cost(A): another band cell Y by
  cost(Y) + |(n - m) - d(Y)|, and a transposition window that steps over
  the row (multiset-equal, not sequence-equal) by |d| + |(n - m) - d| +
  k - 0.5. Then every optimal path runs through A, and the traceback
  starts there after the matches. If a bound ties or falls short, the next
  row is filled and tested; at row n that is the whole fill.
* The character LCS of the substitution tiers is bit-parallel over Python
  ints (Hyyrö 2004), with the same integer length and so the same ratio.
* Equal ops share one frozen ``AlignOp`` record, from a bounded cache.

Runs of consecutive non-match operations merge into span-level ``Edit``
objects, the unit every downstream module consumes.
"""

from __future__ import annotations

from functools import lru_cache
from math import ceil, floor
from operator import add
from typing import Sequence

from .corpus import ParallelExample, Record, splice

MATCH = "match"
SUBSTITUTE = "substitute"
INSERT = "insert"
DELETE = "delete"
TRANSPOSE = "transpose"

INSERTION = "insertion"
DELETION = "deletion"
SUBSTITUTION = "substitution"

_INF = float("inf")


class AlignOp(Record):
    """One alignment table step. Spans are half-open token index ranges."""

    _fields = ("kind", "src_span", "tgt_span")

    def __init__(self, kind: str, src_span: tuple[int, int], tgt_span: tuple[int, int]):
        self.__dict__.update(kind=kind, src_span=src_span, tgt_span=tgt_span)


class Edit(Record):
    """A maximal contiguous difference between source and target.

    ``replacement`` is the target-side material for the source span; empty
    for pure deletions. ``coarse_type`` is one of "insertion", "deletion"
    or "substitution" (transpositions surface as substitutions).
    """

    _fields = ("src_span", "replacement", "tgt_span", "coarse_type")

    def __init__(
        self, src_span: tuple[int, int], replacement: tuple[str, ...],
        tgt_span: tuple[int, int], coarse_type: str,
    ):
        self.__dict__.update(
            src_span=src_span, replacement=replacement, tgt_span=tgt_span,
            coarse_type=coarse_type,
        )


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


# One record per distinct op, shared by every list that holds it: the
# records are frozen, and building one costs more than looking it up.
@lru_cache(maxsize=2048)
def _op(kind: str, i: int, j: int, di: int, dj: int) -> AlignOp:
    """The op of ``kind`` that ends at cell (i, j) and takes di source and dj target tokens."""
    return AlignOp(kind, (i - di, i), (j - dj, j))


@lru_cache(maxsize=1024)
def _matches(i: int, j: int, k: int) -> tuple[AlignOp, ...]:
    """The k matches that end at cell (i, j), in order."""
    return tuple(_op(MATCH, i - t, j - t, 1, 1) for t in range(k - 1, -1, -1))


@lru_cache(maxsize=64)
def _band(
    skew: int, limit: int
) -> tuple[int, tuple[float, ...], tuple[int, ...], tuple[float, ...]]:
    """The band of diagonals d = i - j with |d| + |skew - d| <= limit, per offset o = hi - d.

    Returns ``hi`` and, per offset: |d|, the cost of every cell there in
    the prefix rows (with one spare infinite cost at the end); |skew - d|,
    the fewest inserts or deletes left after a cell there; and the start
    of a cell there, its room + 0.25. The room, ``limit - |skew - d|``, is
    the most a cell may cost and still lie on a path of cost <= limit.
    Costs are multiples of 0.5 and the room is an integer, so a cell that
    starts from room + 0.25 keeps exactly the candidates <= room and never
    ties with the start; it stays dead (infinite) if no candidate is left.
    """
    lo = (skew - limit + 1) // 2
    hi = (skew + limit) // 2
    shared = (*(float(abs(d)) for d in range(hi, lo - 1, -1)), _INF)
    rest = tuple(abs(skew - d) for d in range(hi, lo - 1, -1))
    return hi, shared, rest, tuple(limit - r + 0.25 for r in rest)


# Back pointers: the kind and how many source and target tokens the op takes.
_MATCH = (MATCH, 1, 1)
_SUBSTITUTE = (SUBSTITUTE, 1, 1)
_DELETE = (DELETE, 1, 0)
_INSERT = (INSERT, 0, 1)


def _align_within(
    src: list[str], tgt: list[str], limit: int, prefix: int, suffix: int
) -> list[AlignOp] | None:
    """The minimal alignment if it costs at most ``limit``, else None.

    ``prefix`` and ``suffix`` are the lengths of the common prefix and
    suffix. Only the band of diagonals d = i - j with |d| + |(n - m) - d| <=
    limit is stored: row i keeps cell (i, j) at offset ``j - i + hi``, so a
    cell's diagonal neighbour and every transposition start share its
    offset, the cell above sits one offset right and the cell to the left
    one offset left. One spare infinite cost at the end of each row stands
    for the cells just outside the band on either side (offset -1 reads
    it too). Rows 0..prefix are one shared row of |d| and are never read
    outside the table; in the other rows cells outside the table, and dead
    cells, stay infinite. Rows are filled until the last one, or until a
    row certifies the suffix cut (``_cut_at``).
    """
    n, m = len(src), len(tgt)
    skew = n - m
    hi, shared, rest, start = _band(skew, limit)
    width = len(rest)
    cost = [shared] * (prefix + 1)
    back: list[list | None] = [None] * (prefix + 1)
    i = prefix
    cut = n
    while i < n:
        if i >= n - suffix and _cut_at(src, tgt, cost[i], i, hi, rest):
            cut = i
            break
        i += 1
        s_tok = src[i - 1]
        row = [_INF] * (width + 1)
        back_row: list[tuple | None] = [None] * width
        cost.append(row)
        back.append(back_row)
        prev_row = cost[i - 1]
        shift = i - hi
        if shift <= 0:  # cell (i, 0) is in the band
            row[-shift] = float(i)
            back_row[-shift] = _DELETE
        for o in range(max(0, 1 - shift), min(width, m + 1 - shift)):
            j = o + shift
            t_tok = tgt[j - 1]
            best_cost = start[o]
            best_op = None
            cand = prev_row[o + 1] + 1.0
            if cand < best_cost:
                best_cost, best_op = cand, _DELETE
            cand = row[o - 1] + 1.0
            if cand < best_cost:
                best_cost, best_op = cand, _INSERT
            diag = prev_row[o]
            if s_tok == t_tok:
                # No transposition window ends on equal tokens: it loses
                # to the window of the tokens before them, then this match.
                if diag <= best_cost:
                    best_cost, best_op = diag, _MATCH
            else:
                if diag + 1.0 <= best_cost:
                    # A substitution costs at least 1, so its cost is looked
                    # up only here, where it can still win the cell.
                    cand = diag + substitution_cost(s_tok, t_tok)
                    if cand <= best_cost:
                        best_cost, best_op = cand, _SUBSTITUTE

                # Transposition windows, grown one token at a time with an
                # incremental multiset difference so each step is O(1); the
                # last tokens differ, so no window equals its target. A
                # window of k costs at least floor + k, because the cell it
                # starts from is at least |d| inserts or deletes from the
                # origin, and it must beat best_cost strictly, so k stays
                # below best_cost - floor. Each window holds s_tok on the
                # target side and t_tok on the source side before its last
                # tokens, so the scan runs only where the widest one does.
                floor = shared[o] - 0.5
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
                                best_cost, best_op = cand, (TRANSPOSE, k, k)

            if best_op is not None:
                row[o] = best_cost
                back_row[o] = best_op

    if cost[cut][hi - skew] > limit:
        return None
    middle = []  # the ops from the cut back to the prefix's main diagonal, last first
    i, j = cut, cut - skew
    while i > prefix:
        kind, di, dj = back[i][j - i + hi]
        middle.append(_op(kind, i, j, di, dj))
        i, j = i - di, j - dj
    # In the prefix rows cell (i, j) costs |i - j|: match equal tokens,
    # else take the insert or delete that keeps that cost. On the main
    # diagonal only matches are left.
    while i != j:
        if i and j and src[i - 1] == tgt[j - 1]:
            middle.append(_op(MATCH, i, j, 1, 1))
            i, j = i - 1, j - 1
        elif j > i:
            middle.append(_op(INSERT, i, j, 0, 1))
            j -= 1
        else:
            middle.append(_op(DELETE, i, j, 1, 0))
            i -= 1
    ops = list(_matches(i, i, i))
    ops += reversed(middle)
    ops += _matches(n, m, n - cut)  # past the cut the common suffix matches
    return ops


def _cut_at(
    src: list[str], tgt: list[str], row: Sequence[float], i: int, hi: int, rest: tuple[int, ...]
) -> bool:
    """Whether every optimal path passes through cell A = (i, i - (n - m)) of row i.

    The tokens after A are the common suffix, so a path through A and then
    their matches costs cost(A), and the optimum is at most that. Any other
    path either crosses row i at another band cell Y, and then costs at
    least cost(Y) plus the inserts or deletes left after Y, or steps over
    row i with a transposition window of k tokens on diagonal d, which
    costs at least |d| before it, k - 0.5 and |skew - d| after it. When
    each of these bounds exceeds cost(A), every optimal path takes A and
    then only matches. A cell on an optimal path holds its full-table cost
    (the band is exact), so the band's costs are the ones to compare.
    """
    n, m = len(src), len(tgt)
    skew = n - m
    o_a = hi - skew
    c = row[o_a]
    if c == _INF:
        return False
    o_lo, o_hi = max(0, hi - i), min(len(rest), m + hi - i + 1)  # the cells inside the table
    if min(map(add, row[o_lo:o_a], rest[o_lo:o_a]), default=_INF) <= c:
        return False
    if min(map(add, row[o_a + 1:o_hi], rest[o_a + 1:o_hi]), default=_INF) <= c:
        return False
    # |d| + |skew - d| = max(|skew|, |2d - skew|), which may not exceed c + 0.5 - k.
    for k in range(2, int(c + 0.5 - abs(skew)) + 1):
        spare = c + 0.5 - k
        for d in range(ceil((skew - spare) / 2), floor((skew + spare) / 2) + 1):
            for e in range(max(i + 1, k), min(i + k, n + 1)):  # window rows e - k < i < e
                j = e - d
                if k <= j <= m:
                    a, b = src[e - k:e], tgt[j - k:j]
                    if a != b and sorted(a) == sorted(b):
                        return False
    return True


def align_tokens(source: Sequence[str], target: Sequence[str]) -> list[AlignOp]:
    """Return the minimal-cost operation sequence aligning source to target.

    The band starts at |n - m| + 4 and doubles until it holds the optimum;
    at n + m it is the whole table, whose optimum never exceeds n + m.
    The common prefix and suffix are measured once, for every band.
    """
    src = list(source)
    tgt = list(target)
    n, m = len(src), len(tgt)
    short = min(n, m)
    prefix = 0
    while prefix < short and src[prefix] == tgt[prefix]:
        prefix += 1
    suffix = 0
    while suffix < short and src[n - 1 - suffix] == tgt[m - 1 - suffix]:
        suffix += 1
    limit = min(abs(n - m) + 4, n + m)
    ops = _align_within(src, tgt, limit, prefix, suffix)
    while ops is None:
        limit = min(2 * limit, n + m)
        ops = _align_within(src, tgt, limit, prefix, suffix)
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
        if op.kind != MATCH:
            run.append(op)
        elif run:
            flush()
    if run:
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

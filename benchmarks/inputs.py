"""Seeded input generator for the CLI benchmark.

Everything here is a pure function of the seed and a size, and writes only
plain program inputs (TSV, M2, pool JSONL). What the generator planted is
returned to the caller as a dict of facts and never written next to the
inputs, so the program cannot see it.

Sentences are drawn from a fixed pseudo-word vocabulary with Zipf word
frequencies, every token distinct within a sentence. Error patterns use real
English function words and verb forms, which never occur in that
vocabulary, so each planted edit is the only way to align its pair: edits
are separated by at least two unchanged tokens, and an inserted or
substituted token never equals its neighbour.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from random import Random

# (wrong side, correct side, M2 type). Single tokens, so a planted edit is
# exactly one span-level edit at context width 1.
PATTERNS: tuple[tuple[tuple[str, ...], tuple[str, ...], str], ...] = tuple(
    (tuple(w.split()), tuple(c.split()), t)
    for w, c, t in (
        ("in", "on", "R:PREP"), ("on", "in", "R:PREP"), ("at", "in", "R:PREP"),
        ("in", "at", "R:PREP"), ("to", "for", "R:PREP"), ("for", "to", "R:PREP"),
        ("of", "for", "R:PREP"), ("with", "by", "R:PREP"),
        ("a", "an", "R:DET"), ("an", "a", "R:DET"), ("a", "the", "R:DET"),
        ("the", "a", "R:DET"),
        ("is", "are", "R:VERB:SVA"), ("are", "is", "R:VERB:SVA"),
        ("was", "were", "R:VERB:SVA"), ("were", "was", "R:VERB:SVA"),
        ("has", "have", "R:VERB:SVA"), ("have", "has", "R:VERB:SVA"),
        ("do", "does", "R:VERB:SVA"), ("does", "do", "R:VERB:SVA"),
        ("childs", "children", "R:NOUN:NUM"), ("informations", "information", "R:NOUN:NUM"),
        ("advices", "advice", "R:NOUN:NUM"), ("peoples", "people", "R:NOUN:NUM"),
        ("buyed", "bought", "R:VERB:FORM"), ("goed", "went", "R:VERB:FORM"),
        ("teached", "taught", "R:VERB:FORM"),
        ("much", "many", "R:OTHER"), ("many", "much", "R:OTHER"),
        ("their", "there", "R:OTHER"), ("then", "than", "R:OTHER"),
        ("less", "fewer", "R:OTHER"), ("say", "tell", "R:OTHER"), ("make", "do", "R:OTHER"),
        ("", "the", "M:DET"), ("", "a", "M:DET"), ("", "to", "M:PREP"),
        ("", "of", "M:PREP"), ("", "is", "M:VERB"),
        ("the", "", "U:DET"), ("a", "", "U:DET"), ("to", "", "U:PREP"),
        ("of", "", "U:PREP"), ("that", "", "U:OTHER"),
    )
)

_ONSETS = "b c d f g h j k l m n p r s t v w z br cl dr fl gr pl st tr sk".split()
_VOWELS = "a e i o u ai ea oo ou".split()
_CODAS = ["", "", "n", "r", "s", "t", "l", "nd", "st", "m", "k"]


def _vocabulary(size: int = 3000) -> tuple[str, ...]:
    """A fixed pseudo-word vocabulary, the same for every seed."""
    rng = Random(20240601)
    reserved = {tok for w, c, _ in PATTERNS for tok in w + c}
    words: dict[str, None] = {}
    while len(words) < size:
        word = "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
            for _ in range(rng.choice((1, 2, 2, 3)))
        )
        if word not in reserved:
            words[word] = None
    return tuple(words)


VOCAB = _vocabulary()
_VOCAB_CUM = tuple(accumulate(1.0 / (r + 1) for r in range(len(VOCAB))))


def _zipf_index(rng: Random, cum: tuple[float, ...]) -> int:
    return bisect_left(cum, rng.random() * cum[-1])


def _distinct_words(rng: Random, k: int) -> list[str]:
    seen: dict[str, None] = {}
    while len(seen) < k:
        seen[VOCAB[_zipf_index(rng, _VOCAB_CUM)]] = None
    return list(seen)


@dataclass
class PlantedPair:
    """One generated learner pair: distinct ``base`` tokens with patterns
    (indices into PATTERNS) inserted before ``base[point]``."""

    base: list[str]
    points: list[int]
    chosen: list[int]

    def assemble(self, sides: list[tuple[str, ...]], spurious: int | None = None):
        """Tokens with ``sides[k]`` at edit k; base token ``spurious``, if
        given, replaced by a word outside the vocabulary."""
        out: list[str] = []
        cursor = 0
        for point, side in zip(self.points, sides):
            out.extend(self._base(cursor, point, spurious))
            out.extend(side)
            cursor = point
        out.extend(self._base(cursor, len(self.base), spurious))
        return tuple(out)

    def _base(self, a: int, b: int, spurious: int | None) -> list[str]:
        return ["x" + t if i == spurious else t for i, t in enumerate(self.base[a:b], a)]

    @property
    def source(self) -> tuple[str, ...]:
        return self.assemble([PATTERNS[i][0] for i in self.chosen])

    @property
    def target(self) -> tuple[str, ...]:
        return self.assemble([PATTERNS[i][1] for i in self.chosen])

    def gold_edits(self) -> list[tuple[int, int, tuple[str, ...], str]]:
        """(start, end, correction, type) in source coordinates."""
        edits = []
        shift = 0
        for point, idx in zip(self.points, self.chosen):
            wrong, correct, etype = PATTERNS[idx]
            edits.append((point + shift, point + shift + len(wrong), correct, etype))
            shift += len(wrong)
        return edits


def _plant(rng: Random, weights_cum: tuple[float, ...], k: int) -> PlantedPair:
    """Pair ``k``: a correct sentence of 15-30 tokens with 1-2 planted errors.

    Length and edit count cycle with ``k`` rather than being drawn, so every
    seed gives the aligner the same amount of work.
    """
    n_edits = 1 + (k // 16) % 2
    chosen: list[int] = []
    used: set[str] = set()
    while len(chosen) < n_edits:
        idx = _zipf_index(rng, weights_cum)
        w, c, _ = PATTERNS[idx]
        toks = set(w) | set(c)
        if toks & used:
            continue
        chosen.append(idx)
        used |= toks
    target_len = 15 + k % 16
    n_base = target_len - sum(len(PATTERNS[i][1]) for i in chosen)
    # Insertion points at least three base tokens apart, so that two
    # unchanged tokens always separate neighbouring edits.
    while True:
        points = sorted(rng.randint(0, n_base) for _ in chosen)
        if all(b - a >= 3 for a, b in zip(points, points[1:])):
            break
    return PlantedPair(_distinct_words(rng, n_base), points, chosen)


def _pattern_weights(order: list[int], exponent: float) -> tuple[float, ...]:
    """Cumulative Zipf weights over PATTERNS, rank given by ``order``."""
    weight = [0.0] * len(PATTERNS)
    for rank, idx in enumerate(order):
        weight[idx] = 1.0 / (rank + 1) ** exponent
    return tuple(accumulate(weight))


def _write_tsv(path: str, pairs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for src, tgt in pairs:
            fh.write(" ".join(src) + "\t" + " ".join(tgt) + "\n")


def _write_pool(path: str, counts: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for (wrong, correct), count in counts.items():
            row = {"wrong": list(wrong), "correct": list(correct), "count": count}
            fh.write(json.dumps(row, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# corpus-analysis

def corpus_analysis(out_dir: str, seed: int, pairs: int) -> dict:
    """Learner corpus + gold M2 + hypothesis + candidate corpus.

    The hypothesis applies each gold edit with probability 0.6 and adds a
    spurious one-token substitution to 30 % of sentences, so TP, FP and FN
    are known exactly. The candidate corpus draws the same patterns with a
    locally shuffled rank order and a flatter Zipf exponent, so the
    distribution report has non-trivial cosine and Spearman values.
    """
    rng = Random(seed)
    order = list(range(len(PATTERNS)))
    rng.shuffle(order)
    learner = [_plant(rng, _pattern_weights(order, 1.1), k) for k in range(pairs)]

    cand_order = order[:]
    for i in range(0, len(cand_order) - 1, 2):
        if rng.random() < 0.5:
            cand_order[i], cand_order[i + 1] = cand_order[i + 1], cand_order[i]
    candidate = [_plant(rng, _pattern_weights(cand_order, 0.8), k) for k in range(pairs)]

    hyp_rows = []
    tp = fp = fn = 0
    for pair in learner:
        sides = []
        for idx in pair.chosen:
            wrong, correct, _ = PATTERNS[idx]
            applied = rng.random() < 0.6
            sides.append(correct if applied else wrong)
            tp += applied
            fn += not applied
        spurious = None
        if rng.random() < 0.3:
            # Two unchanged tokens between the spurious edit and any other.
            free = [
                q for q in range(len(pair.base))
                if all(q <= p - 3 or q >= p + 2 for p in pair.points)
            ]
            if free:
                spurious = rng.choice(free)
                fp += 1
        hyp_rows.append((pair.source, pair.assemble(sides, spurious)))

    _write_tsv(os.path.join(out_dir, "learner.tsv"), [(p.source, p.target) for p in learner])
    _write_tsv(os.path.join(out_dir, "candidate.tsv"), [(p.source, p.target) for p in candidate])
    _write_tsv(os.path.join(out_dir, "hyp.tsv"), hyp_rows)
    with open(os.path.join(out_dir, "gold.m2"), "w", encoding="utf-8") as fh:
        for k, pair in enumerate(learner):
            if k:
                fh.write("\n")
            fh.write("S " + " ".join(pair.source) + "\n")
            for start, end, corr, etype in pair.gold_edits():
                text = " ".join(corr) if corr else "-NONE-"
                fh.write(f"A {start} {end}|||{etype}|||{text}|||REQUIRED|||-NONE-|||0\n")
    return {
        "planted": _pattern_counts(learner),
        "candidate_planted": _pattern_counts(candidate),
        "tp": tp, "fp": fp, "fn": fn,
    }


def _pattern_counts(pairs: list[PlantedPair]) -> dict[tuple, int]:
    counts: dict[tuple, int] = {}
    for pair in pairs:
        for idx in pair.chosen:
            key = PATTERNS[idx][:2]
            counts[key] = counts.get(key, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# synth pools

def _context_pool(rng: Random, size: int, scale: int) -> dict[tuple, int]:
    """``size`` distinct width-3 patterns with Zipf counts ``scale / rank``."""
    counts: dict[tuple, int] = {}
    while len(counts) < size:
        w, c, _ = PATTERNS[rng.randrange(len(PATTERNS))]
        left, right = _distinct_words(rng, 2)
        key = ((left, *w, right), (left, *c, right))
        if key not in counts:
            counts[key] = max(1, scale // (len(counts) + 1))
    return counts


def synth_offline(out_dir: str, seed: int, patterns: int, real_pairs: int) -> dict:
    """Two overlapping width-3 pools and a real learner corpus for ``mix``.

    Pool B reuses every third pattern of pool A, so the merge both sums
    and unions.
    """
    rng = Random(seed)
    pool_a = _context_pool(rng, patterns, 4 * patterns)
    pool_b = _context_pool(rng, patterns - patterns // 3, 2 * patterns)
    for k, key in enumerate(list(pool_a)[::3]):
        pool_b[key] = pool_b.get(key, 0) + 1 + k % 5
    weights = _pattern_weights(list(range(len(PATTERNS))), 1.0)
    real = [_plant(rng, weights, k) for k in range(real_pairs)]
    _write_pool(os.path.join(out_dir, "pool_a.jsonl"), pool_a)
    _write_pool(os.path.join(out_dir, "pool_b.jsonl"), pool_b)
    _write_tsv(os.path.join(out_dir, "real.tsv"), [(p.source, p.target) for p in real])
    return {
        "pool_a": pool_a,
        "pool_b": pool_b,
        "real": [(" ".join(p.source), " ".join(p.target)) for p in real],
    }


def synth_remote(out_dir: str, seed: int, patterns: int) -> dict:
    """One width-3 pool for the HTTP backends."""
    pool = _context_pool(Random(seed), patterns, 4 * patterns)
    _write_pool(os.path.join(out_dir, "pool.jsonl"), pool)
    return {"pool": pool}

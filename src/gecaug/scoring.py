"""Edit-based scoring and distribution diagnostics.

Scoring follows the usual GEC recipe: align each hypothesis against its
source, compare span-level edits to gold M2 annotations as exact
(span, replacement) matches, pick the annotator that flatters each
sentence most, and pool counts into corpus-level precision, recall and
F_beta (beta 0.5 by default, weighting precision).

Distribution diagnostics check that a synthetic corpus reproduces the
error-pattern frequencies of the pool it was sampled from.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import groupby
from operator import mul
from typing import Iterable, Mapping, Sequence

from .align import extract_edits
from .corpus import AnnotatedExample, CodedError, ParallelExample, Record
from .patterns import ErrorPattern, PatternPool, build_pool, pattern_row


class ScoringError(CodedError):
    """Hypothesis and gold corpora that cannot be compared."""
    code = "SCORING"


def f_beta(tp: int, fp: int, fn: int, beta: float = 0.5) -> float:
    """F_beta from edit counts. Zero denominators resolve to 0."""
    if tp < 0 or fp < 0 or fn < 0:
        raise ValueError("counts must be non-negative")
    if beta <= 0:
        raise ValueError("beta must be positive")
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return f_beta_from_rates(precision, recall, beta)


def f_beta_from_rates(precision: float, recall: float, beta: float = 0.5) -> float:
    """F_beta from precision and recall fractions."""
    if not 0.0 <= precision <= 1.0 or not 0.0 <= recall <= 1.0:
        raise ValueError("precision and recall must lie in [0, 1]")
    if beta <= 0:
        raise ValueError("beta must be positive")
    b2 = beta * beta
    denom = b2 * precision + recall
    if denom == 0.0:
        return 0.0
    return (1.0 + b2) * precision * recall / denom


class CategoryScore(Record):
    _fields = ("tp", "fp", "fn", "f_beta")

    def __init__(self, tp: int, fp: int, fn: int, f_beta: float):
        self.__dict__.update(tp=tp, fp=fp, fn=fn, f_beta=f_beta)


class ScoreReport(Record):
    _fields = ("tp", "fp", "fn", "precision", "recall", "f_beta", "beta", "per_category")

    def __init__(
        self, tp: int, fp: int, fn: int, precision: float, recall: float, f_beta: float,
        beta: float, per_category: Mapping[str, CategoryScore],
    ):
        self.__dict__.update(
            tp=tp, fp=fp, fn=fn, precision=precision, recall=recall, f_beta=f_beta, beta=beta,
            per_category=per_category,
        )

    def as_dict(self) -> dict:
        return {
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "precision": self.precision,
            "recall": self.recall,
            "f_beta": self.f_beta,
            "beta": self.beta,
            "per_category": {
                cat: {"tp": c.tp, "fp": c.fp, "fn": c.fn, "f_beta": c.f_beta}
                for cat, c in sorted(self.per_category.items())
            },
        }


def _gold_edit_keys(ex: AnnotatedExample, annotator: int):
    return {
        (e.start, e.end, e.correction): e.type for e in ex.edits.get(annotator, ())
    }


def score(
    hypothesis: Iterable[ParallelExample],
    gold: Iterable[AnnotatedExample],
    beta: float = 0.5,
) -> ScoreReport:
    """Score hypothesis corrections against gold annotations.

    Edits match when span and replacement are both exact. For each
    sentence the annotator with the best sentence-level F_beta is chosen
    (ties to the lowest annotator id), then integer counts pool across
    the corpus and rates divide once at the end. TP and FN carry the gold
    edit's type label; FP edits only exist on the hypothesis side, so
    they are tallied under the hypothesis edit's coarse type.
    """
    counts: Counter[tuple[str, str]] = Counter()  # (category, "tp" | "fp" | "fn") -> edits
    hyp_list = list(hypothesis)
    gold_list = list(gold)
    if len(hyp_list) != len(gold_list):
        raise ScoringError(
            f"hypothesis has {len(hyp_list)} sentences, gold has {len(gold_list)}"
        )
    for hyp, ann in zip(hyp_list, gold_list):
        if hyp.source != ann.source:
            raise ScoringError(
                f"source mismatch at hypothesis id {hyp.id!r} / gold id {ann.id!r}"
            )
        hyp_edits = extract_edits(hyp)
        hyp_keys = {(e.src_span[0], e.src_span[1], e.replacement): e for e in hyp_edits}

        def sentence_f(gold_keys: dict) -> float:
            tp = len(hyp_keys.keys() & gold_keys.keys())
            return f_beta(tp, len(hyp_keys) - tp, len(gold_keys) - tp, beta)

        annotators = sorted(ann.edits) or [0]
        gold_keys = max((_gold_edit_keys(ann, a) for a in annotators), key=sentence_f)
        for key, etype in gold_keys.items():
            counts[etype, "tp" if key in hyp_keys else "fn"] += 1
        for key, edit in hyp_keys.items():
            if key not in gold_keys:
                counts[edit.coarse_type, "fp"] += 1

    categories = sorted({cat for cat, _ in counts})
    tp, fp, fn = (sum(counts[cat, kind] for cat in categories) for kind in ("tp", "fp", "fn"))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    per_category = {}
    for cat in categories:
        c_tp, c_fp, c_fn = counts[cat, "tp"], counts[cat, "fp"], counts[cat, "fn"]
        per_category[cat] = CategoryScore(c_tp, c_fp, c_fn, f_beta(c_tp, c_fp, c_fn, beta))
    return ScoreReport(
        tp,
        fp,
        fn,
        precision,
        recall,
        f_beta_from_rates(precision, recall, beta),
        beta,
        per_category,
    )


def error_rate(corpus: Iterable[ParallelExample]) -> float:
    """Fraction of pairs whose sides differ. Empty corpus scores 0.

    Side inequality is exactly "the pair has at least one edit": the
    aligner round-trips, so edits are empty iff the sides already agree.
    """
    total = 0
    errorful = 0
    for pair in corpus:
        total += 1
        errorful += pair.source != pair.target
    return errorful / total if total else 0.0


class DistributionReport(Record):
    """Reference vs candidate frequencies over the reference's head patterns."""

    _fields = (
        "top_k", "patterns", "reference_counts", "candidate_counts", "cosine", "spearman",
    )

    def __init__(
        self, top_k: int, patterns: tuple[ErrorPattern, ...], reference_counts: tuple[int, ...],
        candidate_counts: tuple[int, ...], cosine: float, spearman: float,
    ):
        self.__dict__.update(
            top_k=top_k, patterns=patterns, reference_counts=reference_counts,
            candidate_counts=candidate_counts, cosine=cosine, spearman=spearman,
        )

    def as_dict(self) -> dict:
        return {
            "top_k": self.top_k,
            "cosine": self.cosine,
            "spearman": self.spearman,
            "patterns": [
                {**pattern_row(p), "reference_count": rc, "candidate_count": cc}
                for p, rc, cc in zip(
                    self.patterns, self.reference_counts, self.candidate_counts
                )
            ],
        }


def _centred_ranks(values: Sequence[int]) -> list[int]:
    """Twice each value's average rank minus twice the mean rank, as exact ints."""
    out = [0] * len(values)
    start = 0
    order = sorted(range(len(values)), key=values.__getitem__)
    for _, tied in groupby(order, key=values.__getitem__):
        tied = list(tied)
        for i in tied:
            out[i] = 2 * start + len(tied) - len(values)
        start += len(tied)
    return out


def distribution_from_counts(
    reference: PatternPool,
    candidate_counts: Mapping[ErrorPattern, int],
    top_k: int = 100,
) -> DistributionReport:
    """Compare candidate pattern counts against a reference pool.

    The comparison vector runs over the reference pool's ``top_k`` most
    frequent patterns (ties broken lexicographically); candidate patterns
    outside that head are ignored. Cosine of a zero candidate vector is 0;
    Spearman of a constant vector is 0.

    Both follow the operation order of NumPy's cosine and SciPy's
    ``spearmanr`` (average ranks, covariances times ``1/(n-1)``,
    ``cxy / sy / sx``, clipped to [-1, 1]), so reports keep the bits they
    had when those libraries computed them. With integer counts and
    half-integer ranks every sum is exact while it stays below 2**53, and
    each remaining step is one correctly rounded float operation.
    """
    if top_k < 1:
        raise ValueError("top_k must be at least 1")
    head = reference.patterns_by_frequency()[:top_k]
    if not head:
        raise ValueError("reference pool is empty")
    ref = [reference.counts[p] for p in head]
    cand = [candidate_counts.get(p, 0) for p in head]

    ref_norm = math.sqrt(sum(c * c for c in ref))
    cand_norm = math.sqrt(sum(c * c for c in cand))
    if ref_norm == 0.0 or cand_norm == 0.0:
        cosine = 0.0
    else:
        cosine = sum(map(mul, ref, cand)) / (ref_norm * cand_norm)

    if len(set(ref)) == 1 or len(set(cand)) == 1:
        spearman = 0.0
    else:
        dx, dy = _centred_ranks(ref), _centred_ranks(cand)
        f = 1 / (len(head) - 1)
        sx = math.sqrt(sum(d * d for d in dx) / 4 * f)
        sy = math.sqrt(sum(d * d for d in dy) / 4 * f)
        spearman = max(-1.0, min(1.0, sum(map(mul, dx, dy)) / 4 * f / sy / sx))

    return DistributionReport(
        top_k=len(head),
        patterns=tuple(head),
        reference_counts=tuple(ref),
        candidate_counts=tuple(cand),
        cosine=cosine,
        spearman=spearman,
    )


def distribution_consistency(
    reference: PatternPool,
    candidate: Iterable[ParallelExample],
    top_k: int = 100,
) -> DistributionReport:
    """Re-extract patterns from a candidate corpus and compare to the pool."""
    candidate_pool = build_pool(candidate, reference.n)
    return distribution_from_counts(reference, candidate_pool.counts, top_k)

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gecaug import (
    AnnotatedExample,
    ErrorPattern,
    GoldEdit,
    ParallelExample,
    PatternPool,
    ScoringError,
    StubGenerator,
    apply_gold_edits,
    build_pool,
    distribution_consistency,
    distribution_from_counts,
    error_rate,
    f_beta,
    f_beta_from_rates,
    planted_counts,
    read_pairs,
    save_pool,
    score,
    synthesize,
    write_jsonl,
)

from conftest import cli_env, insertion_pool


def test_f_beta_from_published_rates():
    assert abs(f_beta_from_rates(0.762, 0.522) - 0.698) < 0.0005
    assert abs(f_beta_from_rates(0.738, 0.535) - 0.686) < 0.0005


def test_f_beta_counts():
    assert f_beta(1, 1, 1) == pytest.approx(0.5)
    assert f_beta(0, 0, 0) == 0.0
    assert f_beta(0, 5, 0) == 0.0
    assert f_beta(0, 0, 5) == 0.0
    assert f_beta(10, 0, 0) == 1.0
    # beta = 1 reduces to the harmonic mean.
    assert f_beta(2, 1, 3, beta=1.0) == pytest.approx(0.5)


def test_f_beta_validation():
    with pytest.raises(ValueError):
        f_beta(-1, 0, 0)
    with pytest.raises(ValueError):
        f_beta(1, 0, 0, beta=0.0)
    with pytest.raises(ValueError):
        f_beta_from_rates(1.2, 0.5)


def test_f_beta_equals_precision_when_balanced():
    rng = random.Random(3)
    for _ in range(200):
        p = rng.random()
        assert f_beta_from_rates(p, p) == pytest.approx(p)


def _gold_three_sentences():
    return [
        AnnotatedExample(
            ("He", "go", "."),
            {0: (GoldEdit(1, 2, "R:VERB:SVA", ("goes",)),)},
            id="0",
        ),
        AnnotatedExample(
            ("I", "like", "apple", "."),
            {0: (GoldEdit(2, 3, "R:NOUN:NUM", ("apples",)),)},
            id="1",
        ),
        AnnotatedExample(("They", "are", "happy", "."), {0: ()}, id="2"),
    ]


def test_score_mixed_outcomes():
    gold = _gold_three_sentences()
    hyp = [
        ParallelExample(("He", "go", "."), ("He", "goes", "."), id="0"),
        ParallelExample(("I", "like", "apple", "."), ("I", "like", "apple", "."), id="1"),
        ParallelExample(("They", "are", "happy", "."), ("They", "are", "very", "happy", "."), id="2"),
    ]
    report = score(hyp, gold)
    assert (report.tp, report.fp, report.fn) == (1, 1, 1)
    assert report.precision == pytest.approx(0.5)
    assert report.recall == pytest.approx(0.5)
    assert report.f_beta == pytest.approx(0.5)
    cats = report.per_category
    assert cats["R:VERB:SVA"].tp == 1 and cats["R:VERB:SVA"].f_beta == 1.0
    assert cats["R:NOUN:NUM"].fn == 1 and cats["R:NOUN:NUM"].f_beta == 0.0
    assert cats["insertion"].fp == 1


def test_score_perfect_hypothesis():
    gold = _gold_three_sentences()
    hyp = [
        ParallelExample(g.source, apply_gold_edits(g.source, g.edits[0]), id=g.id)
        for g in gold
    ]
    report = score(hyp, gold)
    assert (report.tp, report.fp, report.fn) == (2, 0, 0)
    assert report.precision == report.recall == report.f_beta == 1.0


def test_score_unchanged_hypothesis():
    gold = _gold_three_sentences()
    hyp = [ParallelExample(g.source, g.source, id=g.id) for g in gold]
    report = score(hyp, gold)
    assert (report.tp, report.fp, report.fn) == (0, 0, 2)
    assert report.precision == 0.0 and report.recall == 0.0 and report.f_beta == 0.0


def test_score_replacement_must_match_exactly():
    gold = [
        AnnotatedExample(("He", "go", "."), {0: (GoldEdit(1, 2, "R:VERB", ("goes",)),)})
    ]
    hyp = [ParallelExample(("He", "go", "."), ("He", "went", "."), id="0")]
    report = score(hyp, gold)
    assert (report.tp, report.fp, report.fn) == (0, 1, 1)


def test_score_picks_best_annotator():
    gold = [
        AnnotatedExample(
            ("He", "go", "."),
            {
                0: (GoldEdit(1, 2, "A0:VERB", ("went",)),),
                1: (GoldEdit(1, 2, "A1:VERB", ("goes",)),),
            },
        )
    ]
    hyp = [ParallelExample(("He", "go", "."), ("He", "goes", "."), id="0")]
    report = score(hyp, gold)
    assert (report.tp, report.fp, report.fn) == (1, 0, 0)
    assert "A1:VERB" in report.per_category
    assert "A0:VERB" not in report.per_category


def test_score_annotator_tie_goes_to_lowest_id():
    gold = [
        AnnotatedExample(
            ("He", "go", "."),
            {
                0: (GoldEdit(1, 2, "A0:VERB", ("went",)),),
                1: (GoldEdit(1, 2, "A1:VERB", ("goes",)),),
            },
        )
    ]
    hyp = [ParallelExample(("He", "go", "."), ("He", "go", "."), id="0")]
    report = score(hyp, gold)
    assert (report.tp, report.fp, report.fn) == (0, 0, 1)
    assert "A0:VERB" in report.per_category
    assert "A1:VERB" not in report.per_category


def test_score_noop_annotator_interaction():
    # One annotator demands an edit, the other says the sentence is fine.
    # For an unchanged hypothesis the noop annotator scores 0 with no FN,
    # which ties the editing annotator's 0; the lower id (the editor) wins.
    gold = [
        AnnotatedExample(
            ("He", "go", "."),
            {0: (GoldEdit(1, 2, "A0:VERB", ("goes",)),), 1: ()},
        )
    ]
    hyp = [ParallelExample(("He", "go", "."), ("He", "go", "."), id="0")]
    report = score(hyp, gold)
    assert (report.tp, report.fp, report.fn) == (0, 0, 1)
    # A hypothesis that makes the demanded edit scores F=1 against the
    # editing annotator, beating the noop annotator's 0.
    hyp2 = [ParallelExample(("He", "go", "."), ("He", "goes", "."), id="0")]
    report2 = score(hyp2, gold)
    assert (report2.tp, report2.fp, report2.fn) == (1, 0, 0)


def test_score_sentences_without_annotations():
    gold = [AnnotatedExample(("All", "fine", "."), {}, id="0")]
    hyp = [ParallelExample(("All", "fine", "."), ("All", "fine", "."), id="0")]
    report = score(hyp, gold)
    assert (report.tp, report.fp, report.fn) == (0, 0, 0)
    assert report.f_beta == 0.0


def test_score_validation():
    gold = _gold_three_sentences()
    hyp = [ParallelExample(g.source, g.source, id=g.id) for g in gold]
    with pytest.raises(ScoringError):
        score(hyp[:2], gold)
    bad = [ParallelExample(("Other", "words", "."), ("Other", "words", "."), id="0")]
    with pytest.raises(ScoringError):
        score(bad, gold[:1])


def test_error_rate():
    corpus = [
        ParallelExample(("a",), ("a",), id=str(i)) for i in range(7)
    ] + [
        ParallelExample(("a",), ("b",), id=str(i)) for i in range(3)
    ]
    assert error_rate(corpus) == pytest.approx(0.3)
    assert error_rate([]) == 0.0


def test_distribution_self_comparison():
    pool = insertion_pool(50)
    report = distribution_from_counts(pool, dict(pool.counts), top_k=50)
    assert report.cosine == pytest.approx(1.0)
    assert report.spearman == pytest.approx(1.0)
    assert report.top_k == 50
    # Head is ordered by descending reference count.
    assert list(report.reference_counts) == sorted(report.reference_counts, reverse=True)


def test_import_does_not_load_scipy():
    # The package has no numeric dependencies; tests use them as references.
    # Nothing imports requests or http.client: the http backends speak HTTP
    # over a socket, imported when they build their client. Only a map with
    # more than one call in flight needs a thread pool. The package itself
    # loads none of its modules until a name is used.
    code = (
        "import gecaug, sys; assert not "
        "{'scipy', 'numpy', 'requests', 'http.client', 'concurrent.futures'} & set(sys.modules)"
        "; assert not [m for m in sys.modules if m.startswith('gecaug.')], sys.modules"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=cli_env(), capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_distribution_zero_and_constant_vectors():
    pool = insertion_pool(10)
    report = distribution_from_counts(pool, {}, top_k=10)
    assert report.cosine == 0.0
    assert report.spearman == 0.0
    assert report.candidate_counts == (0,) * 10
    flat = insertion_pool(10, zipf=0.0)
    assert len(set(flat.counts.values())) == 1
    report2 = distribution_from_counts(flat, dict(flat.counts), top_k=10)
    assert report2.cosine == pytest.approx(1.0)
    assert report2.spearman == 0.0


def test_distribution_top_k_handling():
    pool = insertion_pool(5)
    with pytest.raises(ValueError):
        distribution_from_counts(pool, {}, top_k=0)
    report = distribution_from_counts(pool, dict(pool.counts), top_k=100)
    assert report.top_k == 5
    assert len(report.patterns) == 5


def test_distribution_head_tie_break_is_lexicographic():
    pool = insertion_pool(6, zipf=0.0)
    report = distribution_from_counts(pool, {}, top_k=6)
    keys = [(p.wrong, p.correct) for p in report.patterns]
    assert keys == sorted(keys)


def test_distribution_consistency_via_re_extraction():
    pool = insertion_pool(30)
    samples, _ = synthesize(
        pool, 400, StubGenerator(seed=12), base_seed=41, error_rate=1.0
    )
    pairs = [
        ParallelExample(s.source, s.target, id=s.id) for s in samples
    ]
    report = distribution_consistency(pool, pairs, top_k=30)
    # Each planted pattern carries its own context, so re-extraction
    # recovers exactly the planted multiset.
    planted = planted_counts(samples)
    assert list(report.candidate_counts) == [planted.get(p, 0) for p in report.patterns]
    assert sum(report.candidate_counts) == sum(planted.values())
    assert report.cosine > 0.9
    assert report.spearman > 0.6


def test_distribution_report_as_dict():
    pool = insertion_pool(3)
    report = distribution_from_counts(pool, dict(pool.counts), top_k=3)
    obj = report.as_dict()
    assert set(obj) == {"top_k", "cosine", "spearman", "patterns"}
    assert len(obj["patterns"]) == 3
    entry = obj["patterns"][0]
    assert set(entry) == {"wrong", "correct", "reference_count", "candidate_count"}


def _reference(ref, cand) -> tuple[float, float]:
    """Cosine and Spearman as NumPy and SciPy compute them."""
    r = np.array(ref, dtype=float)
    c = np.array(cand, dtype=float)
    norms = np.linalg.norm(r) * np.linalg.norm(c)
    cosine = float(np.dot(r, c) / norms) if norms else 0.0
    if len(r) < 2 or np.all(r == r[0]) or np.all(c == c[0]):
        return cosine, 0.0
    return cosine, float(stats.spearmanr(r, c).statistic)


def _report(ref, cand):
    patterns = [ErrorPattern((f"w{i}",), (f"c{i}",), 1) for i in range(len(ref))]
    pool = PatternPool(dict(zip(patterns, ref)), n=1)
    return distribution_from_counts(pool, dict(zip(patterns, cand)), top_k=len(ref))


# Reference (positive) and candidate counts, 2-300 of them, up to a bound
# drawn from 4, 100 and 10**6: the small bounds give many ties.
_COUNT_PAIRS = st.tuples(st.integers(2, 300), st.sampled_from([4, 100, 10**6])).flatmap(
    lambda size: st.lists(
        st.tuples(st.integers(1, size[1]), st.integers(0, size[1])),
        min_size=size[0], max_size=size[0],
    )
)


@settings(max_examples=100, deadline=None)
@given(_COUNT_PAIRS)
def test_distribution_matches_numpy_and_scipy_bit_for_bit(pairs):
    report = _report(*zip(*pairs))
    # The report orders the head by reference count; compare in that order.
    expected = _reference(report.reference_counts, report.candidate_counts)
    assert (report.cosine, report.spearman) == expected


@pytest.mark.parametrize(
    "ref, cand",
    [([5, 5, 5], [1, 2, 3]), ([3, 2, 1], [4, 4, 4]), ([3, 2, 1], [0, 0, 0]), ([7], [7])],
    ids=["constant-ref", "constant-cand", "zero-cand", "single"],
)
def test_distribution_constant_and_zero_vectors(ref, cand):
    report = _report(ref, cand)
    assert report.spearman == 0.0
    assert (report.cosine, report.spearman) == _reference(
        report.reference_counts, report.candidate_counts
    )
    if not any(cand):
        assert report.cosine == 0.0


# A child that cannot import NumPy or SciPy, running the CLI.
_WITHOUT_NUMERIC = """
import sys

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("numpy", "scipy"):
            raise ImportError(f"{name} is refused")

sys.meta_path.insert(0, Refuse())
from gecaug.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_stats_report_runs_without_numpy_or_scipy(tmp_path: Path):
    pool = insertion_pool(40)
    samples, _ = synthesize(pool, 300, StubGenerator(seed=5), base_seed=17, error_rate=0.8)
    save_pool(pool, tmp_path / "pool.jsonl")
    write_jsonl(
        (ParallelExample(s.source, s.target, id=s.id) for s in samples),
        tmp_path / "corpus.jsonl",
    )
    argv = [
        "stats", "--ref-pool", "pool.jsonl", "--corpus", "corpus.jsonl", "--n", "3",
        "--top-k", "30", "--out", "report.json", "--csv", "table.csv",
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMERIC, *argv],
        cwd=tmp_path, env=cli_env(), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    printed = json.loads(proc.stdout)
    candidate = build_pool(read_pairs(tmp_path / "corpus.jsonl"), 3)
    head = pool.patterns_by_frequency()[:30]
    expected = _reference(
        [pool.counts[p] for p in head], [candidate.counts.get(p, 0) for p in head]
    )
    assert (printed["cosine"], printed["spearman"]) == expected
    assert 0.0 < printed["spearman"] < 1.0
    assert (tmp_path / "report.json").exists() and (tmp_path / "table.csv").exists()

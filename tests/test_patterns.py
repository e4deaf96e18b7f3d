from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path

import pytest
from scipy import stats

from gecaug import (
    ErrorPattern,
    MalformedLine,
    ParallelExample,
    PatternPool,
    SchemaError,
    build_pool,
    draw_pattern,
    extend_to_ngram,
    extract_edits,
    load_pool,
    merge_pools,
    pool_stats,
    patterns_overlap,
    restrict_sendable,
    sample_patterns,
    save_pool,
    sides_overlap,
)

from _oracles import reference_build_pool
from conftest import insertion_pool, random_pair

TABLE_PAIR = ParallelExample(
    (
        "Public", "transport", "enables", "our", "body", "to",
        "move", "one", "place", "to", "another", ".",
    ),
    (
        "Public", "transport", "enables", "our", "body", "to",
        "move", "from", "one", "place", "to", "another", ".",
    ),
    id="table",
)


def test_ngram_widths_on_reference_pair():
    edits = extract_edits(TABLE_PAIR)
    assert len(edits) == 1
    edit = edits[0]
    assert edit.src_span == (7, 7)
    assert edit.replacement == ("from",)

    p1 = extend_to_ngram(edit, TABLE_PAIR.source, TABLE_PAIR.target, 1, edits)
    assert (p1.wrong, p1.correct) == ((), ("from",))
    p3 = extend_to_ngram(edit, TABLE_PAIR.source, TABLE_PAIR.target, 3, edits)
    assert (p3.wrong, p3.correct) == (("move", "one"), ("move", "from", "one"))
    p5 = extend_to_ngram(edit, TABLE_PAIR.source, TABLE_PAIR.target, 5, edits)
    assert (p5.wrong, p5.correct) == (
        ("to", "move", "one", "place"),
        ("to", "move", "from", "one", "place"),
    )


def test_context_truncates_at_sentence_start():
    pair = ParallelExample(("cat", "runs"), ("the", "cat", "runs"), id="t")
    edits = extract_edits(pair)
    p3 = extend_to_ngram(edits[0], pair.source, pair.target, 3, edits)
    assert (p3.wrong, p3.correct) == (("cat",), ("the", "cat"))


def test_context_truncates_at_sentence_end():
    pair = ParallelExample(("he", "walk"), ("he", "walks"), id="t")
    edits = extract_edits(pair)
    p5 = extend_to_ngram(edits[0], pair.source, pair.target, 5, edits)
    assert (p5.wrong, p5.correct) == (("he", "walk"), ("he", "walks"))


def test_context_stops_at_neighboring_edit():
    # Two substitutions one token apart: the shared "c" is the entire
    # corridor, so even at width 5 each pattern takes only one context token
    # from that side.
    pair = ParallelExample(("a", "b", "c", "d", "e"), ("a", "X", "c", "Y", "e"), id="t")
    edits = extract_edits(pair)
    assert [e.src_span for e in edits] == [(1, 2), (3, 4)]
    first = extend_to_ngram(edits[0], pair.source, pair.target, 5, edits)
    assert (first.wrong, first.correct) == (("a", "b", "c"), ("a", "X", "c"))
    second = extend_to_ngram(edits[1], pair.source, pair.target, 5, edits)
    assert (second.wrong, second.correct) == (("c", "d", "e"), ("c", "Y", "e"))


def test_planted_edit_fuzz_matches_slice_arithmetic():
    # Sentences of unique tokens with one planted edit leave no alignment
    # ambiguity, so the expected pattern is plain slice arithmetic.
    rng = random.Random(23)
    for case in range(1500):
        length = rng.randint(2, 12)
        source = tuple(f"u{case}x{i}" for i in range(length))
        kind = rng.choice(("sub", "del", "ins"))
        if kind == "ins":
            i = j = rng.randint(0, length)
            repl = tuple(f"v{case}x{t}" for t in range(rng.randint(1, 2)))
        elif kind == "del":
            i = rng.randrange(length)
            j = rng.randint(i + 1, min(length, i + 2))
            repl = ()
        else:
            i = rng.randrange(length)
            j = rng.randint(i + 1, min(length, i + 2))
            repl = tuple(f"v{case}x{t}" for t in range(rng.randint(1, 2)))
        target = source[:i] + repl + source[j:]
        if not target:
            continue
        pair = ParallelExample(source, target, id=str(case))
        edits = extract_edits(pair)
        assert len(edits) == 1
        edit = edits[0]
        assert edit.src_span == (i, j)
        assert edit.replacement == repl
        for n in (1, 3, 5):
            k = (n - 1) // 2
            p = min(k, i)
            s = min(k, length - j)
            expected_wrong = source[i - p:j + s]
            expected_correct = source[i - p:i] + repl + source[j:j + s]
            got = extend_to_ngram(edit, source, target, n, edits)
            assert (got.wrong, got.correct) == (expected_wrong, expected_correct)


def test_pattern_validation():
    for n in (2, True):
        with pytest.raises(ValueError, match="context width"):
            ErrorPattern(("a",), ("b",), n)
    with pytest.raises(ValueError):
        ErrorPattern(("a",), ("a",), 1)
    with pytest.raises(ValueError):
        ErrorPattern(("a b",), ("c",), 1)
    for n in (4, True):
        with pytest.raises(ValueError, match="context width"):
            extend_to_ngram(
                extract_edits(TABLE_PAIR)[0], TABLE_PAIR.source, TABLE_PAIR.target, n
            )


def test_build_pool_counts_repeats():
    corpus = [TABLE_PAIR] * 7 + [
        ParallelExample(("all", "good", "."), ("all", "good", "."), id="clean")
    ]
    pool = build_pool(corpus, 3)
    key = ErrorPattern(("move", "one"), ("move", "from", "one"), 3)
    assert pool.counts == {key: 7}
    assert pool.total == 7
    assert pool_stats(pool) == {"patterns": 1, "total": 7}


@pytest.mark.parametrize("n", [1, 3, 5])
def test_build_pool_matches_reference(n):
    # Repeated pairs and a small vocabulary: most patterns occur many times.
    rng = random.Random(50 + n)
    corpus = [random_pair(rng) for _ in range(400)]
    corpus += corpus[:100]
    pool = build_pool(corpus, n)
    reference = reference_build_pool(corpus, n)
    assert pool == reference
    assert list(pool.counts) == list(reference.counts)


def test_build_pool_checks_the_width_as_before():
    for corpus in ([TABLE_PAIR], []):
        for n in (2, True):
            with pytest.raises(ValueError) as got:
                build_pool(corpus, n)
            with pytest.raises(ValueError) as want:
                reference_build_pool(corpus, n)
            assert str(got.value) == str(want.value)


def test_pool_validation():
    key = ErrorPattern(("a",), ("b",), 1)
    with pytest.raises(ValueError):
        PatternPool({key: 1}, n=3)
    with pytest.raises(ValueError, match="context width"):
        PatternPool({}, n=True)
    with pytest.raises(ValueError):
        PatternPool({key: 0}, n=1)


def test_merge_pools():
    a = ErrorPattern(("a",), ("b",), 1)
    b = ErrorPattern(("c",), ("d",), 1)
    p1 = PatternPool({a: 2}, 1)
    p2 = PatternPool({a: 3, b: 1}, 1)
    merged = merge_pools([p1, p2])
    assert merged.counts == {a: 5, b: 1}
    with pytest.raises(ValueError):
        merge_pools([])
    with pytest.raises(ValueError):
        merge_pools([p1, PatternPool({}, 3)])


def test_restrict_sendable_drops_empty_correct():
    deletion = ErrorPattern(("a",), (), 1)
    keep = ErrorPattern(("b",), ("c",), 1)
    pool = PatternPool({deletion: 5, keep: 1}, 1)
    sendable = restrict_sendable(pool)
    assert set(sendable.counts) == {keep}
    assert sendable.total == 1


def test_pool_round_trip(tmp_path: Path):
    pool = insertion_pool(40)
    path = tmp_path / "pool.jsonl"
    assert save_pool(pool, path) == 40
    back = load_pool(path, 3)
    assert back == pool
    # Serialization order is count-descending, so a reload re-saves to the
    # same bytes.
    path2 = tmp_path / "pool2.jsonl"
    save_pool(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_pool_errors(tmp_path: Path):
    path = tmp_path / "pool.jsonl"
    path.write_text("{broken\n", encoding="utf-8")
    with pytest.raises(MalformedLine):
        load_pool(path, 1)
    path.write_text('{"wrong": ["a"], "count": 1}\n', encoding="utf-8")
    with pytest.raises(SchemaError):
        load_pool(path, 1)
    path.write_text('{"wrong": ["a"], "correct": ["b"], "count": 0}\n', encoding="utf-8")
    with pytest.raises(SchemaError):
        load_pool(path, 1)
    path.write_text('{"wrong": ["a"], "correct": ["a"], "count": 1}\n', encoding="utf-8")
    with pytest.raises(SchemaError):
        load_pool(path, 1)
    row = json.dumps({"wrong": ["a"], "correct": ["b"], "count": 1})
    path.write_text(row + "\n" + row + "\n", encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        load_pool(path, 1)
    assert "duplicate" in err.value.reason


def test_bool_counts_are_rejected(tmp_path: Path):
    # JSON true loads as a bool, which is an int; a count must not be one.
    with pytest.raises(ValueError):
        PatternPool({ErrorPattern(("a",), ("b",), 1): True}, n=1)
    path = tmp_path / "pool.jsonl"
    path.write_text('{"wrong": ["a"], "correct": ["b"], "count": true}\n', encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        load_pool(path, 1)
    assert err.value.reason == "key 'count' must be a positive int"


def test_draw_pattern_marginals():
    a = ErrorPattern(("a",), ("b",), 1)
    b = ErrorPattern(("c",), ("d",), 1)
    pool = PatternPool({a: 3, b: 1}, 1)
    rng = random.Random(101)
    hits = sum(draw_pattern(pool, rng) == a for _ in range(100_000))
    assert abs(hits / 100_000 - 0.75) < 0.01


def test_draw_pattern_distribution_chi_square():
    patterns = {
        ErrorPattern((f"w{i}",), (f"c{i}",), 1): i + 1 for i in range(20)
    }
    pool = PatternPool(patterns, 1)
    rng = random.Random(355)
    draws = Counter(draw_pattern(pool, rng) for _ in range(50_000))
    keys = sorted(patterns, key=lambda p: p.wrong)
    observed = [draws[k] for k in keys]
    expected = [50_000 * patterns[k] / pool.total for k in keys]
    result = stats.chisquare(observed, f_exp=expected)
    assert result.pvalue > 0.001


def test_draw_pattern_empty_pool():
    with pytest.raises(ValueError):
        draw_pattern(PatternPool({}, 1), random.Random(0))


def test_sampling_ignores_insertion_order():
    a = ErrorPattern(("a",), ("b",), 1)
    b = ErrorPattern(("c",), ("d",), 1)
    p1 = PatternPool({a: 2, b: 5}, 1)
    p2 = PatternPool({b: 5, a: 2}, 1)
    seq1 = [draw_pattern(p1, random.Random(9)) for _ in range(50)]
    seq2 = [draw_pattern(p2, random.Random(9)) for _ in range(50)]
    assert seq1 == seq2


def test_sides_overlap_cases():
    assert sides_overlap((), ("a",))
    assert sides_overlap(("a",), ("a",))
    assert sides_overlap(("a", "b"), ("a", "b", "c"))
    assert sides_overlap(("b",), ("a", "b", "c"))
    assert sides_overlap(("a", "b"), ("b", "c"))
    assert sides_overlap(("b", "c"), ("a", "b"))
    assert not sides_overlap(("a", "b"), ("c", "d"))
    assert not sides_overlap(("x",), ("y",))


def test_patterns_overlap_uses_correct_sides():
    p = ErrorPattern(("same", "wrong"), ("left", "ctx"), 3)
    q = ErrorPattern(("same", "wrong2"), ("other", "side"), 3)
    assert not patterns_overlap(p, q)
    r = ErrorPattern(("zz",), ("ctx", "more"), 3)
    assert patterns_overlap(p, r)


def test_sample_patterns_size_and_determinism():
    pool = insertion_pool(30)
    rng = random.Random(77)
    sizes = Counter(len(sample_patterns(pool, rng)) for _ in range(2000))
    assert set(sizes) == {1, 2}
    seq1 = [sample_patterns(pool, random.Random(42)) for _ in range(100)]
    seq2 = [sample_patterns(pool, random.Random(42)) for _ in range(100)]
    assert seq1 == seq2


def test_sample_patterns_never_overlapping_pairs():
    pool = insertion_pool(30)
    rng = random.Random(78)
    for _ in range(2000):
        drawn = sample_patterns(pool, rng)
        if len(drawn) == 2:
            assert not patterns_overlap(drawn[0], drawn[1])


def test_sample_patterns_truncates_when_pool_always_overlaps():
    only = ErrorPattern(("a",), ("b",), 1)
    pool = PatternPool({only: 4}, 1)
    for seed in range(50):
        drawn = sample_patterns(pool, random.Random(seed))
        assert drawn == [only]

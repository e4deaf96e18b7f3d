from __future__ import annotations

import json
import random
import threading
import time
from pathlib import Path

import pytest

from gecaug import (
    ErrorPattern,
    GeneratorBackend,
    HttpGenerator,
    MalformedLine,
    PatternPool,
    SchemaError,
    SpanOutOfBounds,
    StubGenerator,
    SynthesisBudgetError,
    match_patterns,
    planted_counts,
    read_samples,
    substitute,
    synthesize,
    write_samples,
)

from conftest import insertion_pool

MOVE = ErrorPattern(("move", "one"), ("move", "from", "one"), 3)


def test_match_patterns_finds_span():
    tokens = ("They", "move", "from", "one", "place", "to", "another", ".")
    matches, unmatched = match_patterns(tokens, [MOVE])
    assert matches == [(MOVE, (1, 4))]
    assert unmatched == []


def test_match_patterns_reports_absent():
    matches, unmatched = match_patterns(("nothing", "here"), [MOVE])
    assert matches == []
    assert unmatched == [MOVE]


def test_match_patterns_is_leftmost():
    p = ErrorPattern(("x",), ("a", "b"), 1)
    tokens = ("z", "a", "b", "z", "a", "b")
    matches, _ = match_patterns(tokens, [p])
    assert matches == [(p, (1, 3))]


def test_match_patterns_overlap_resolution():
    p1 = ErrorPattern(("x",), ("a", "b", "c"), 3)
    p2 = ErrorPattern(("y",), ("c", "d"), 3)
    tokens = ("a", "b", "c", "d")
    matches, unmatched = match_patterns(tokens, [p1, p2])
    assert matches == [(p1, (0, 3))]
    assert unmatched == [p2]
    # Same outcome regardless of request order.
    matches2, unmatched2 = match_patterns(tokens, [p2, p1])
    assert matches2 == matches and unmatched2 == unmatched


def test_match_patterns_duplicate_request():
    p = ErrorPattern(("x",), ("a", "b"), 1)
    matches, unmatched = match_patterns(("a", "b"), [p, p])
    assert matches == [(p, (0, 2))]
    assert unmatched == [p]


def test_substitute_reference_case():
    tokens = ("They", "move", "from", "one", "place", "to", "another", ".")
    matches, _ = match_patterns(tokens, [MOVE])
    sample = substitute(tokens, matches, random.Random(0), 1.0, sample_id="s")
    assert sample.target == tokens
    assert sample.source == ("They", "move", "one", "place", "to", "another", ".")
    assert sample.planted == ((MOVE, (1, 3)),)
    assert sample.id == "s"


def test_substitute_zero_rate_is_clean():
    tokens = ("They", "move", "from", "one", ".")
    matches, _ = match_patterns(tokens, [MOVE])
    sample = substitute(tokens, matches, random.Random(0), 0.0)
    assert sample.source == sample.target == tokens
    assert sample.planted == ()
    assert sample.requested == (MOVE,)


def test_substitute_span_arithmetic_with_mixed_lengths():
    p1 = ErrorPattern(("W",), ("A", "B"), 1)
    p2 = ErrorPattern(("X", "Y", "Z"), ("C",), 1)
    target = ("A", "B", "m", "C", "n")
    matches, unmatched = match_patterns(target, [p1, p2])
    assert unmatched == []
    sample = substitute(target, matches, random.Random(1), 1.0)
    assert sample.source == ("W", "m", "X", "Y", "Z", "n")
    spans = dict(sample.planted)
    assert spans[p1] == (0, 1)
    assert spans[p2] == (2, 5)
    for p, (a, b) in sample.planted:
        assert sample.source[a:b] == p.wrong


def test_substitute_rejects_bad_rate():
    with pytest.raises(ValueError):
        substitute(("a",), [], random.Random(0), 1.5)


def test_substitute_binomial_rate():
    tokens = ("They", "move", "from", "one", ".")
    matches, _ = match_patterns(tokens, [MOVE])
    rng = random.Random(2024)
    errorful = 0
    for _ in range(10_000):
        sample = substitute(tokens, matches, rng, 0.5)
        errorful += sample.source != sample.target
    assert 0.485 <= errorful / 10_000 <= 0.515


def test_synthesize_clean_backend():
    pool = insertion_pool(20)
    samples, stats = synthesize(pool, 300, StubGenerator(seed=7), base_seed=11)
    assert len(samples) == 300
    assert [s.id for s in samples] == [str(i) for i in range(300)]
    assert stats.samples == 300
    assert stats.attempts == 300
    assert stats.refused == 0 and stats.transport_errors == 0
    assert stats.patterns_requested == stats.patterns_matched
    assert stats.unmatched_absent == 0 and stats.unmatched_overlap == 0
    assert stats.errorful == sum(s.source != s.target for s in samples)
    for s in samples:
        assert s.generator_id == "stub"
        assert s.requested
        for p, (a, b) in s.planted:
            assert s.source[a:b] == p.wrong


def test_synthesize_error_rate_extremes():
    pool = insertion_pool(10)
    clean, _ = synthesize(pool, 60, StubGenerator(seed=1), base_seed=5, error_rate=0.0)
    assert all(s.source == s.target for s in clean)
    dirty, _ = synthesize(pool, 60, StubGenerator(seed=1), base_seed=5, error_rate=1.0)
    assert all(s.source != s.target for s in dirty)
    assert all(s.planted for s in dirty)


@pytest.mark.parametrize(
    "pool, faults, error_rate",
    [
        (insertion_pool(15), {}, 0.5),
        (insertion_pool(15), {"drop_rate": 0.2, "refuse_rate": 0.1}, 0.5),
        # A missing-word pattern at n=1 often plants an empty source: zero-match retries.
        (PatternPool({ErrorPattern((), ("the",), 1): 1}, 1), {}, 1.0),
    ],
    ids=["clean", "drop-and-refuse", "zero-match-retries"],
)
def test_synthesize_worker_count_is_immaterial(pool, faults, error_rate, fast_switching):
    class Delegating(GeneratorBackend):
        """The stub behind a subclass that leaves ``waits`` as it is, so it gets threads."""

        name = StubGenerator.name

        def __init__(self):
            self.stub = StubGenerator(seed=4, **faults)
            self.threads: set[str] = set()

        def generate_text(self, request):
            self.threads.add(threading.current_thread().name)
            return self.stub.generate_text(request)

    one, stats_one = synthesize(
        pool, 80, StubGenerator(seed=4, **faults), base_seed=21, error_rate=error_rate, workers=1
    )
    threaded = Delegating()
    four, stats_four = synthesize(
        pool, 80, threaded, base_seed=21, error_rate=error_rate, workers=4
    )
    assert one == four
    assert stats_one.as_dict() == stats_four.as_dict()
    for stats in (stats_one, stats_four):
        assert stats.attempts == (
            stats.samples + stats.refused + stats.transport_errors + stats.zero_match_retries
        )
    assert any(name.startswith("map_ordered") for name in threaded.threads)


def test_stub_runs_inline_at_any_worker_count(no_thread_pool):
    pool = insertion_pool(15)
    one, stats_one = synthesize(pool, 80, StubGenerator(seed=4), base_seed=21, workers=1)
    four, stats_four = synthesize(pool, 80, StubGenerator(seed=4), base_seed=21, workers=4)
    assert one == four
    assert stats_one.as_dict() == stats_four.as_dict()


def test_synthesize_attempt_accounting_under_faults():
    pool = insertion_pool(12)
    backend = StubGenerator(seed=9, drop_rate=0.2)
    samples, stats = synthesize(
        pool, 600, backend, base_seed=33, error_rate=1.0, attempt_budget=6000
    )
    assert len(samples) == 600
    assert all(s.source != s.target for s in samples)
    assert stats.attempts == (
        stats.samples + stats.refused + stats.transport_errors + stats.zero_match_retries
    )
    drop_rate = stats.unmatched_absent / stats.patterns_requested
    assert 0.16 <= drop_rate <= 0.24


def test_a_plant_that_would_empty_the_source_is_retried():
    # At n=1 a missing-word pattern has an empty wrong side; planting it in
    # a sentence that is only its correct side would leave no source.
    pool = PatternPool({ErrorPattern((), ("the",), 1): 1}, 1)
    samples, stats = synthesize(pool, 200, StubGenerator(seed=5), base_seed=3, error_rate=1.0)
    assert len(samples) == 200
    assert all(s.source and s.planted for s in samples)
    assert stats.zero_match_retries > 0
    assert stats.attempts == stats.samples + stats.zero_match_retries


def test_synthesize_budget_exhaustion():
    pool = insertion_pool(5)

    class SlowRefusal(GeneratorBackend):
        name = "slow"

        def generate_text(self, request):
            time.sleep(0.005)
            return ""

    # With threads, slots still running when the budget runs out must have
    # added their attempts before the error leaves synthesize.
    for backend, workers in ((StubGenerator(seed=2, refuse_rate=1.0), 1), (SlowRefusal(), 4)):
        with pytest.raises(SynthesisBudgetError) as err:
            synthesize(pool, 10, backend, base_seed=1, workers=workers)
        assert err.value.stats.attempts == 30
        assert err.value.stats.samples == 0
        assert err.value.stats.refused == 30


def test_synthesize_requires_sendable_patterns():
    deletions = PatternPool({ErrorPattern(("a",), (), 1): 3}, 1)
    with pytest.raises(ValueError):
        synthesize(deletions, 5, StubGenerator(), base_seed=0)


def test_synthesize_skips_unsendable_patterns():
    mixed = PatternPool(
        {
            ErrorPattern(("a",), (), 1): 1000,
            ErrorPattern(("b",), ("c",), 1): 1,
        },
        1,
    )
    samples, _ = synthesize(mixed, 40, StubGenerator(seed=6), base_seed=2)
    for s in samples:
        for p in s.requested:
            assert p.correct


def test_synthesize_count_validation():
    pool = insertion_pool(3)
    samples, stats = synthesize(pool, 0, StubGenerator(), base_seed=0)
    assert samples == [] and stats.samples == 0
    with pytest.raises(ValueError):
        synthesize(pool, -1, StubGenerator(), base_seed=0)
    for backend in (StubGenerator(), HttpGenerator(endpoint="http://127.0.0.1:9/")):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            synthesize(pool, 1, backend, base_seed=0, workers=0)
    with pytest.raises(ValueError):
        synthesize(pool, 1, StubGenerator(), base_seed=0, error_rate=2.0)


def test_synthesize_rejects_a_negative_attempt_budget():
    pool = insertion_pool(3)
    for count in (0, 4):
        with pytest.raises(ValueError, match="attempt_budget must be non-negative"):
            synthesize(pool, count, StubGenerator(), base_seed=0, attempt_budget=-1)


def test_planted_counts_totals():
    pool = insertion_pool(8)
    samples, _ = synthesize(pool, 100, StubGenerator(seed=3), base_seed=13, error_rate=1.0)
    counts = planted_counts(samples)
    assert sum(counts.values()) == sum(len(s.planted) for s in samples)
    assert all(p in pool.counts for p in counts)


def test_samples_round_trip(tmp_path: Path):
    pool = insertion_pool(10)
    samples, _ = synthesize(pool, 50, StubGenerator(seed=8), base_seed=17, error_rate=0.6)
    path = tmp_path / "samples.jsonl"
    assert write_samples(samples, path) == 50
    back = list(read_samples(path))
    assert back == samples
    path2 = tmp_path / "again.jsonl"
    write_samples(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_read_samples_rejects_bad_rows(tmp_path: Path):
    path = tmp_path / "bad.jsonl"
    path.write_text("not json\n", encoding="utf-8")
    with pytest.raises(MalformedLine):
        list(read_samples(path))

    row = {
        "id": "0",
        "source": "a b",
        "target": "a c b",
        "planted": [{"wrong": ["x"], "correct": ["c"], "span": [5, 6]}],
        "requested": [],
        "generator": "stub",
        "n": 1,
    }
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    with pytest.raises(SpanOutOfBounds):
        list(read_samples(path))

    row["planted"][0]["span"] = [0, 1]
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        list(read_samples(path))
    assert "wrong side" in err.value.reason

    row["planted"] = []
    del row["n"]
    row["requested"] = [{"wrong": ["x"], "correct": ["c"]}]
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        list(read_samples(path))


def test_read_samples_rejects_bool_integers(tmp_path: Path):
    path = tmp_path / "bad.jsonl"
    row = {
        "id": "0",
        "source": "x b",
        "target": "c b",
        "planted": [{"wrong": ["x"], "correct": ["c"], "span": [0, 1]}],
        "requested": [{"wrong": ["x"], "correct": ["c"]}],
        "generator": "stub",
        "n": 1,
    }
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    assert len(list(read_samples(path))) == 1

    path.write_text(json.dumps({**row, "n": True}) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        list(read_samples(path))
    assert err.value.reason == "key 'n' must be an int"

    planted = [{"wrong": ["x"], "correct": ["c"], "span": [False, True]}]
    path.write_text(json.dumps({**row, "planted": planted}) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        list(read_samples(path))
    assert err.value.reason == "planted span must be [start, end]"


_GOOD_SAMPLE = {
    "id": "0",
    "source": "x b",
    "target": "c b",
    "planted": [{"wrong": ["x"], "correct": ["c"], "span": [0, 1]}],
    "requested": [{"wrong": ["x"], "correct": ["c"]}],
    "generator": "stub",
    "n": 1,
}


@pytest.mark.parametrize(
    "fields, error, reason",
    [
        ({"source": "x  b"}, MalformedLine, "source side contains an empty token"),
        ({"source": "", "planted": []}, MalformedLine, "source side is empty"),
        ({"target": ""}, MalformedLine, "target side is empty"),
        ({"target": "c b "}, MalformedLine, "target side contains an empty token"),
        ({"target": "c\tb"}, MalformedLine, "target token 'c\\tb' contains whitespace"),
        (
            {"source": "x y b", "planted": [
                {"wrong": ["x", "y"], "correct": ["c"], "span": [0, 2]},
                {"wrong": ["y"], "correct": ["c"], "span": [1, 2]},
            ]},
            SchemaError, "planted spans overlap or are unsorted",
        ),
        (
            {"source": "x y b", "planted": [
                {"wrong": ["x", "y"], "correct": ["c"], "span": [0, 2]},
                {"wrong": [], "correct": ["c"], "span": [1, 1]},
            ]},
            SchemaError, "planted spans overlap or are unsorted",
        ),
        (
            {"source": "x y b", "planted": [
                {"wrong": ["y"], "correct": ["c"], "span": [1, 2]},
                {"wrong": ["x"], "correct": ["c"], "span": [0, 1]},
            ]},
            SchemaError, "planted spans overlap or are unsorted",
        ),
    ],
    ids=["double-space", "empty-source", "empty-target", "trailing-space", "tab",
         "overlap", "insertion-inside", "unsorted"],
)
def test_read_samples_checks_tokens_and_spans_at_their_line(tmp_path: Path, fields, error, reason):
    path = tmp_path / "samples.jsonl"
    rows = [_GOOD_SAMPLE, {**_GOOD_SAMPLE, "id": "1", **fields}]
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    with pytest.raises(error) as err:
        list(read_samples(path))
    assert (err.value.line_no, err.value.reason) == (2, reason)

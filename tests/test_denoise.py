from __future__ import annotations

import inspect
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gecaug import (
    CorrectorBackend,
    ErrorPattern,
    HttpCorrector,
    IdentityCorrector,
    OracleCorrector,
    ParallelExample,
    StubGenerator,
    SyntheticSample,
    TransportError,
    relabel,
    relabel_diff_stats,
    substitute,
    synthesize,
)

from _oracles import reference_relabel
from _server import ScriptedServer
from conftest import insertion_pool


def _corpus(count: int = 30, error_rate: float = 0.7):
    samples, _ = synthesize(
        insertion_pool(10), count, StubGenerator(seed=3), base_seed=9, error_rate=error_rate
    )
    return samples


def test_identity_relabel():
    samples = _corpus()
    pairs = list(relabel(samples, IdentityCorrector()))
    assert len(pairs) == len(samples)
    for s, ex in zip(samples, pairs):
        assert ex.id == s.id
        assert ex.source == s.source
        assert ex.target == s.source
        assert ex.meta == {
            "matches_target": s.source == s.target,
            "matches_source": True,
        }


def test_oracle_relabel_recovers_targets():
    samples = _corpus(50)
    pairs = list(relabel(samples, OracleCorrector(samples)))
    for s, ex in zip(samples, pairs):
        assert ex.target == s.target
        assert ex.meta["matches_target"] is True
        assert ex.meta["matches_source"] == (s.source == s.target)


def test_oracle_relabels_by_sample_not_by_sentence():
    fix = ErrorPattern(("x", "a", "y"), ("x", "the", "y"), 3)
    clean = SyntheticSample(("x", "a", "y"), ("x", "a", "y"), (), (fix,), "stub", "1")
    planted = SyntheticSample(
        ("x", "a", "y"), ("x", "the", "y"), ((fix, (0, 3)),), (fix,), "stub", "2"
    )
    samples = [clean, planted]
    pairs = list(relabel(samples, OracleCorrector(samples)))
    assert [ex.target for ex in pairs] == [("x", "a", "y"), ("x", "the", "y")]
    assert all(ex.meta["matches_target"] for ex in pairs)
    assert OracleCorrector(samples).correct_text("x a y", "3") == "x a y"


_TOKEN = st.sampled_from(("a", "b", "ab", "c", "."))


@st.composite
def _planting(draw):
    """A token tuple and non-overlapping width-1 matches over it.

    Sorted cut points pair up into spans; a span may be empty (an
    insertion point) or touch its neighbour.
    """
    tokens = tuple(draw(st.lists(_TOKEN, min_size=1, max_size=10)))
    cuts = sorted(draw(st.lists(st.integers(0, len(tokens)), max_size=8)))
    matches = []
    for start, end in zip(cuts[::2], cuts[1::2]):
        correct = tokens[start:end]
        wrong = tuple(draw(st.lists(_TOKEN, max_size=3).filter(lambda w: tuple(w) != correct)))
        matches.append((ErrorPattern(wrong, correct, 1), (start, end)))
    return tokens, matches


@settings(max_examples=200, deadline=None)
@given(_planting())
@example((
    ("a", "b"),  # two deletions planted at the same point
    [(ErrorPattern((), ("a",), 1), (0, 1)), (ErrorPattern((), ("b",), 1), (1, 2))],
))
def test_oracle_inverts_substitute_property(planting):
    tokens, matches = planting
    sample = substitute(tokens, matches, Random(0), error_rate=1.0, sample_id="s")
    assert len(sample.planted) == len(matches)
    corrector = OracleCorrector([sample])
    assert corrector.correct_text(" ".join(sample.source), sample.id) == " ".join(sample.target)


def test_relabel_third_string_flags():
    class Shouting(CorrectorBackend):
        name = "loud"

        def correct_text(self, text: str, request_id: str = "0") -> str:
            return text.upper() + " EXTRA"

    samples = _corpus(10)
    for ex in relabel(samples, Shouting()):
        assert ex.meta == {"matches_target": False, "matches_source": False}


def test_relabel_empty_reply_falls_back_to_source():
    class Silent(CorrectorBackend):
        name = "silent"

        def correct_text(self, text: str, request_id: str = "0") -> str:
            return "  "

    samples = _corpus(5)
    for s, ex in zip(samples, relabel(samples, Silent())):
        assert ex.target == s.source
        assert ex.meta["matches_source"] is True


class FlakyCorrector(CorrectorBackend):
    """Echoes every sample except the one with the configured id."""

    name = "flaky"

    def __init__(self, fail_id: str):
        self.fail_id = fail_id

    def correct_text(self, text: str, request_id: str = "0") -> str:
        if request_id == self.fail_id:
            raise TransportError("synthetic outage", attempts=5)
        return text


def test_relabel_abort_and_resume():
    samples = _corpus(10)
    got = []
    with pytest.raises(TransportError):
        for ex in relabel(samples, FlakyCorrector(fail_id="5"), max_in_flight=1):
            got.append(ex)
    assert len(got) == 5
    # The pairs already out say where to resume; nothing else is recorded.
    rest = list(relabel(samples[len(got):], IdentityCorrector(), max_in_flight=1))
    full = list(relabel(samples, IdentityCorrector()))
    assert got + rest == full


def test_relabel_stops_at_failing_sample():
    samples = _corpus(12)
    got = []
    with pytest.raises(TransportError):
        for ex in relabel(samples, FlakyCorrector(fail_id="5"), max_in_flight=4):
            got.append(ex)
    # Calls run four at a time, yet every pair before the failing sample
    # is yielded.
    assert [ex.id for ex in got] == [s.id for s in samples[:5]]


def test_relabel_argument_validation():
    for corrector in (
        IdentityCorrector(), OracleCorrector([]), HttpCorrector(endpoint="http://127.0.0.1:9/")
    ):
        with pytest.raises(ValueError, match="max_in_flight must be at least 1"):
            list(relabel([], corrector, max_in_flight=0))
    # A pure ordered map: progress is the caller's to record.
    params = inspect.signature(relabel).parameters.values()
    empty = inspect.Parameter.empty
    assert [(p.name, p.default) for p in params] == [
        ("samples", empty), ("corrector", empty), ("max_in_flight", 8)
    ]


def test_local_correctors_run_inline(no_thread_pool):
    samples = _corpus()
    inline = list(relabel(samples, IdentityCorrector(), max_in_flight=1))
    assert list(relabel(samples, IdentityCorrector(), max_in_flight=8)) == inline
    oracle = list(relabel(samples, OracleCorrector(samples)))
    assert [ex.target for ex in oracle] == [s.target for s in samples]


class Scripted(CorrectorBackend):
    """Replies to each request id with its scripted text, inline."""

    waits = False

    def __init__(self, replies: dict[str, str]):
        self.replies = replies

    def correct_text(self, text: str, request_id: str = "0") -> str:
        return self.replies[request_id]


# A side a library caller may build a sample with: a tuple or a list,
# possibly empty or holding an empty or whitespace-bearing token.
_SIDE = st.lists(st.sampled_from(["a", "b", "", "x y", "c\u3000"]), max_size=3)
_SIDE = _SIDE.map(tuple) | _SIDE | st.just(("a", "b"))
_REPLY = st.sampled_from(["", "  ", "a b", "a", "b\ta  c", "z"])


def _relabel_outcome(relabel_fn, samples, corrector):
    """The pairs ``relabel_fn`` yields (with their reprs), then its error's class and message."""
    got = []
    try:
        for pair in relabel_fn(samples, corrector):
            got.append((pair, repr(pair)))
    except Exception as exc:  # the error is part of the outcome
        got.append((type(exc), str(exc)))
    return got


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_SIDE, _SIDE, _REPLY), max_size=5))
def test_relabel_matches_reference(rows):
    samples = [
        SyntheticSample(source, target, (), (), "g", str(i))
        for i, (source, target, _) in enumerate(rows)
    ]
    corrector = Scripted({str(i): reply for i, (_, _, reply) in enumerate(rows)})
    assert _relabel_outcome(relabel, samples, corrector) == _relabel_outcome(
        reference_relabel, samples, corrector
    )


def test_relabel_diff_stats_hand_case():
    before = [ParallelExample(("a", "b", "c"), ("a", "b", "c"), id="0")]
    after = [ParallelExample(("a", "b", "c"), ("a", "x", "c"), id="0")]
    stats = relabel_diff_stats(before, after)
    assert stats == {
        "pairs": 1,
        "targets_changed": 1,
        "target_change_fraction": 1.0,
        "token_change_rate": pytest.approx(1 / 3),
        "errorful_before": 0.0,
        "errorful_after": 1.0,
    }


def test_relabel_diff_stats_identity_vs_oracle():
    samples = _corpus(40)
    before = list(relabel(samples, IdentityCorrector()))
    after = list(relabel(samples, OracleCorrector(samples)))
    stats = relabel_diff_stats(before, after)
    errorful = sum(s.source != s.target for s in samples)
    assert stats["pairs"] == 40
    assert stats["targets_changed"] == errorful
    assert stats["errorful_before"] == 0.0
    assert stats["errorful_after"] == pytest.approx(errorful / 40)


def test_relabel_diff_stats_validation():
    a = [ParallelExample(("a",), ("a",), id="0")]
    with pytest.raises(ValueError):
        relabel_diff_stats(a, [])
    with pytest.raises(ValueError):
        relabel_diff_stats(a, [ParallelExample(("a",), ("a",), id="1")])
    with pytest.raises(ValueError):
        relabel_diff_stats(a, [ParallelExample(("b",), ("b",), id="0")])
    empty = relabel_diff_stats([], [])
    assert empty["pairs"] == 0 and empty["token_change_rate"] == 0.0


def test_http_corrector_wire_shape():
    with ScriptedServer([(200, {"text": "fixed sentence"})]) as server:
        corrector = HttpCorrector(endpoint=server.url, auth_token="tok")
        assert corrector.correct_text("broken sentence", request_id="r1") == "fixed sentence"
    assert server.requests[0] == {"id": "r1", "text": "broken sentence"}
    assert server.headers[0].get("Authorization") == "Bearer tok"


def test_http_corrector_env_and_errors(monkeypatch: pytest.MonkeyPatch):
    monkeypatch.delenv("GECAUG_CORRECTOR_URL", raising=False)
    with pytest.raises(ValueError):
        HttpCorrector()
    with ScriptedServer([(500, {}), (200, {"text": "ok then"})]) as server:
        monkeypatch.setenv("GECAUG_CORRECTOR_URL", server.url)
        corrector = HttpCorrector(backoff_base=0.001)
        assert corrector.correct_text("x") == "ok then"
        assert len(server.requests) == 2
    with ScriptedServer([(200, {"nope": 1})]) as server:
        corrector = HttpCorrector(endpoint=server.url)
        with pytest.raises(TransportError):
            corrector.correct_text("x")

"""Synthetic pair construction.

Each output sample comes from one slot: sample patterns, assemble a
templated request, generate a candidate sentence, locate the pattern
correct-sides in the candidate, then (for an error_rate fraction of
slots) swap the located spans for the pattern wrong-sides. The generated
sentence is the target side; the swapped sentence is the source side.

Slot RNGs derive from (base_seed, slot index), so any worker count and
scheduling order produce byte-identical corpora. The errorful coin is
flipped once per slot before any generation attempt, which keeps the
errorful fraction an exact Binomial(count, error_rate) draw even when
faulty backends force retries.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import Counter
from random import Random
from typing import Callable, Iterable, Sequence

from ._concurrent import map_ordered
from .corpus import (
    CodedError, MalformedLine, Record, SchemaError, SpanOutOfBounds, canonical_json, is_int,
    read_json_rows, splice, split_tokens, write_lines,
)
from .generation import (
    STATUS_OK,
    STATUS_REFUSED,
    GeneratorBackend,
    assemble_input,
    generate,
)
from .patterns import (
    ErrorPattern, PatternPool, pattern_from_row, pattern_row_cache, restrict_sendable,
    sample_patterns,
)
from .seeding import slot_rng

Match = tuple[ErrorPattern, tuple[int, int]]


class SynthesisBudgetError(CodedError):
    """Raised when retries exhaust the global attempt budget."""

    code = "BUDGET_EXHAUSTED"

    def __init__(self, message: str, stats: "SynthStats"):
        super().__init__(message)
        self.stats = stats


class SyntheticSample(Record):
    """One synthetic pair. ``target`` is the generated sentence; ``source``
    carries the planted errors (equal to target for clean samples).
    ``planted`` spans index into ``source`` and cover the wrong sides."""

    _fields = ("source", "target", "planted", "requested", "generator_id", "id")

    def __init__(
        self, source: tuple[str, ...], target: tuple[str, ...], planted: tuple[Match, ...],
        requested: tuple[ErrorPattern, ...], generator_id: str, id: str,
    ):
        self.__dict__.update(
            source=source, target=target, planted=planted, requested=requested,
            generator_id=generator_id, id=id,
        )


class SynthStats(Record):
    """Counters over every generation attempt, not just emitted samples.

    ``zero_match_retries`` also counts plants that would empty the source.
    Unlike the other records it is mutable, so it has no hash."""

    _fields = (
        "samples", "attempts", "errorful", "refused", "transport_errors", "zero_match_retries",
        "patterns_requested", "patterns_matched", "unmatched_absent", "unmatched_overlap",
    )
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self, samples: int = 0, attempts: int = 0, errorful: int = 0, refused: int = 0,
        transport_errors: int = 0, zero_match_retries: int = 0, patterns_requested: int = 0,
        patterns_matched: int = 0, unmatched_absent: int = 0, unmatched_overlap: int = 0,
    ):
        self.__dict__.update(
            samples=samples, attempts=attempts, errorful=errorful, refused=refused,
            transport_errors=transport_errors, zero_match_retries=zero_match_retries,
            patterns_requested=patterns_requested, patterns_matched=patterns_matched,
            unmatched_absent=unmatched_absent, unmatched_overlap=unmatched_overlap,
        )

    def as_dict(self) -> dict:
        return {
            "samples": self.samples,
            "attempts": self.attempts,
            "errorful": self.errorful,
            "errorful_fraction": self.errorful / self.samples if self.samples else 0.0,
            "generation_failures": {
                "refused": self.refused,
                "transport_error": self.transport_errors,
            },
            "zero_match_retries": self.zero_match_retries,
            "patterns": {
                "requested": self.patterns_requested,
                "matched": self.patterns_matched,
                "unmatched": {
                    "absent": self.unmatched_absent,
                    "overlap": self.unmatched_overlap,
                },
            },
        }


def _find_phrase(tokens: tuple[str, ...], phrase: tuple[str, ...]) -> tuple[int, int] | None:
    lp = len(phrase)
    if lp == 0 or lp > len(tokens):
        return None
    first = phrase[0]
    for i in range(len(tokens) - lp + 1):
        if tokens[i] == first and tokens[i:i + lp] == phrase:
            return (i, i + lp)
    return None


def _match_indexed(
    tokens: tuple[str, ...], patterns: Sequence[ErrorPattern]
) -> tuple[list[Match], list[int], list[int]]:
    """Locate each pattern's leftmost occurrence, then keep a maximal
    non-overlapping set greedily by (start, end). Returns (matches,
    absent indices, overlap-loser indices)."""
    located: list[tuple[tuple[int, int], int, ErrorPattern]] = []
    absent: list[int] = []
    for idx, p in enumerate(patterns):
        span = _find_phrase(tokens, p.correct)
        if span is None:
            absent.append(idx)
        else:
            located.append((span, idx, p))
    located.sort(key=lambda t: (t[0][0], t[0][1], t[2].wrong, t[2].correct, t[1]))
    matches: list[Match] = []
    overlap: list[int] = []
    last_end = -1
    for span, idx, p in located:
        if span[0] >= last_end:
            matches.append((p, span))
            last_end = span[1]
        else:
            overlap.append(idx)
    overlap.sort()
    return matches, absent, overlap


def match_patterns(
    tokens: Sequence[str], patterns: Sequence[ErrorPattern]
) -> tuple[list[Match], list[ErrorPattern]]:
    """Locate patterns in a candidate sentence.

    Each pattern is matched to the leftmost occurrence of its correct
    side; overlapping claims are resolved by span order and the losers
    reported unmatched (in request order) together with the patterns that
    do not occur at all.
    """
    toks = tuple(tokens)
    matches, absent, overlap = _match_indexed(toks, patterns)
    missed = sorted(set(absent) | set(overlap))
    return matches, [patterns[i] for i in missed]


def substitute(
    tokens: Sequence[str],
    matches: Sequence[Match],
    rng: Random,
    error_rate: float,
    requested: Sequence[ErrorPattern] | None = None,
    generator_id: str = "",
    sample_id: str = "0",
) -> SyntheticSample:
    """Swap matched spans for their wrong sides with probability error_rate.

    One Bernoulli draw per call decides substitution for all matches
    together. Planted spans are recomputed against the rewritten source.
    """
    if not 0.0 <= error_rate <= 1.0:
        raise ValueError(f"error_rate must lie in [0, 1], got {error_rate}")
    target = tuple(tokens)
    if requested is None:
        requested = tuple(p for p, _ in matches)
    apply = rng.random() < error_rate
    source, planted = _plant(target, matches) if apply else (target, ())
    return SyntheticSample(source, target, planted, tuple(requested), generator_id, sample_id)


def _plant(
    target: tuple[str, ...], matches: Sequence[Match]
) -> tuple[tuple[str, ...], tuple[Match, ...]]:
    """The source with each matched span swapped for its wrong side, and the planted spans."""
    ordered = sorted(matches, key=lambda m: m[1])
    source, spans = splice(target, [(a, b, p.wrong) for p, (a, b) in ordered])
    return source, tuple((p, span) for (p, _), span in zip(ordered, spans))


def synthesize(
    pool: PatternPool,
    count: int,
    backend: GeneratorBackend,
    base_seed: int,
    error_rate: float = 0.5,
    workers: int = 1,
    attempt_budget: int | None = None,
) -> tuple[list[SyntheticSample], SynthStats]:
    """Produce ``count`` synthetic pairs from a pattern pool.

    Slot i derives its RNG from (base_seed, i) and flips its errorful coin
    first. Failed attempts (refusal, transport error, or an errorful slot that
    plants nothing or empties its source) retry with fresh patterns against a
    global attempt budget (default 3 * count) shared by all slots; exhausting it
    raises SynthesisBudgetError with final stats. Output is ordered by slot.
    Slots run on ``workers`` threads when the backend waits, and inline when
    it never does; the output is the same either way.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if not 0.0 <= error_rate <= 1.0:
        raise ValueError(f"error_rate must lie in [0, 1], got {error_rate}")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if attempt_budget is not None and attempt_budget < 0:
        raise ValueError("attempt_budget must be non-negative")
    stats = SynthStats()
    if count == 0:
        return [], stats
    sendable = restrict_sendable(pool)
    if len(sendable) == 0:
        raise ValueError("pool has no patterns with a non-empty correct side")
    budget = attempt_budget if attempt_budget is not None else 3 * count
    lock = threading.Lock()

    def run_slot(slot: int) -> SyntheticSample:
        rng = slot_rng(base_seed, slot)
        apply = rng.random() < error_rate
        for attempt in itertools.count():
            with lock:
                if stats.attempts >= budget:
                    raise SynthesisBudgetError(
                        f"attempt budget exhausted ({budget} attempts for {count} "
                        f"samples; slot {slot} still unfilled)",
                        stats,
                    )
                stats.attempts += 1
            pats = tuple(sample_patterns(sendable, rng))
            request = assemble_input(
                [p.correct for p in pats], rng, request_id=f"{slot}.{attempt}"
            )
            result = generate(request, backend)
            if result.status != STATUS_OK:
                with lock:
                    if result.status == STATUS_REFUSED:
                        stats.refused += 1
                    else:
                        stats.transport_errors += 1
                continue
            target = tuple(result.text.split())
            matches, absent, overlap = _match_indexed(target, pats)
            source, planted = _plant(target, matches) if apply else (target, ())
            with lock:
                stats.patterns_requested += len(pats)
                stats.patterns_matched += len(matches)
                stats.unmatched_absent += len(absent)
                stats.unmatched_overlap += len(overlap)
                if apply and not (planted and source):
                    stats.zero_match_retries += 1
                    continue
                stats.samples += 1
                stats.errorful += source != target
            return SyntheticSample(source, target, planted, pats, backend.name, str(slot))

    return list(map_ordered(run_slot, range(count), workers if backend.waits else 1)), stats


def planted_counts(samples: Iterable[SyntheticSample]) -> Counter[ErrorPattern]:
    """Frequency of planted patterns over a synthetic corpus."""
    counts: Counter[ErrorPattern] = Counter()
    for s in samples:
        for p, _ in s.planted:
            counts[p] += 1
    return counts


# ---------------------------------------------------------------------------
# Serialization

def write_samples(samples: Iterable[SyntheticSample], path) -> int:
    """Write one JSON object per sample. Returns the number written."""
    row = pattern_row_cache()
    return write_lines((_sample_line(s, row) for s in samples), path)


def _sample_line(s: SyntheticSample, row: Callable[[ErrorPattern], dict]) -> str:
    witness = s.requested or tuple(p for p, _ in s.planted)
    return canonical_json({
        "id": s.id,
        "source": " ".join(s.source),
        "target": " ".join(s.target),
        "planted": [{**row(p), "span": list(span)} for p, span in s.planted],
        "requested": [row(p) for p in s.requested],
        "generator": s.generator_id,
        "n": witness[0].n if witness else None,
    })


def _side(text: str, label: str) -> tuple[str, ...]:
    """The tokens of one side of a sample row; ValueError if there are none or one is bad."""
    if not text:
        raise ValueError(f"{label} side is empty")
    return split_tokens(text, label)


def read_samples(path) -> Iterable[SyntheticSample]:
    """Yield samples written by write_samples; checks tokens and sorted, disjoint spans.

    Equal pattern entries of one file give one shared ``ErrorPattern``,
    built and checked the first time its (wrong, correct, n) appears.
    """
    path = os.fspath(path)
    patterns: dict[tuple, ErrorPattern] = {}

    def pattern(entry, n: int, line_no: int) -> ErrorPattern:
        # A hit needs both sides to be lists, as tuple("ab") == ("a", "b"),
        # and ``n`` to have passed is_int, as 3.0 and True hash like 3 and 1.
        if isinstance(entry, dict):
            wrong, correct = entry.get("wrong"), entry.get("correct")
            if type(wrong) is list and type(correct) is list:
                try:
                    return patterns[tuple(wrong), tuple(correct), n]
                except (KeyError, TypeError):  # unseen, or a side holds a list or object
                    pass
        p = pattern_from_row(entry, n, path, line_no)
        patterns[p.wrong, p.correct, n] = p
        return p

    for line_no, obj in read_json_rows(path):
        for key in ("id", "source", "target", "generator"):
            if not isinstance(obj.get(key), str):
                raise SchemaError(path, line_no, f"key {key!r} must be a string")
        for key in ("planted", "requested"):
            if not isinstance(obj.get(key), list):
                raise SchemaError(path, line_no, f"key {key!r} must be a list")
        n = obj.get("n")
        if (obj["planted"] or obj["requested"]) and not is_int(n):
            raise SchemaError(path, line_no, "key 'n' must be an int")
        try:
            source = _side(obj["source"], "source")
            target = source if obj["target"] == obj["source"] else _side(obj["target"], "target")
        except ValueError as exc:
            raise MalformedLine(path, line_no, str(exc)) from exc
        planted: list[Match] = []
        for entry in obj["planted"]:
            if not isinstance(entry, dict) or "span" not in entry:
                raise SchemaError(path, line_no, "planted entry must carry a span")
            p = pattern(entry, n, line_no)
            span = entry["span"]
            if not isinstance(span, list) or len(span) != 2 or not all(map(is_int, span)):
                raise SchemaError(path, line_no, "planted span must be [start, end]")
            a, b = span
            if a < 0 or b < a or b > len(source):
                raise SpanOutOfBounds(path, line_no, f"planted span ({a}, {b}) outside source")
            if source[a:b] != p.wrong:
                raise SchemaError(path, line_no, "planted span does not carry its wrong side")
            if planted and a < planted[-1][1][1]:
                raise SchemaError(path, line_no, "planted spans overlap or are unsorted")
            planted.append((p, (a, b)))
        requested = tuple(pattern(entry, n, line_no) for entry in obj["requested"])
        yield SyntheticSample(
            source, target, tuple(planted), requested, obj["generator"], obj["id"]
        )

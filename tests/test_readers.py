"""The TSV, JSONL and sample readers against frozen copies of the old ones.

``read_parallel_tsv`` and ``read_jsonl`` split each side once and share
one tuple between equal sides; ``read_samples`` also builds each distinct
pattern of a file once. On any file, valid or broken, each must give
``==`` rows, or raise the same exception class with the same message, as
its frozen copy in ``_oracles``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gecaug import (
    ErrorPattern, PatternPool, StubGenerator, read_jsonl, read_parallel_tsv, read_samples,
    synthesize, write_samples,
)

from _oracles import reference_read_jsonl, reference_read_parallel_tsv, reference_read_samples
from test_fuzz import _mutate, _slots

# Single-letter tokens, so that a side written as the string "ab" would
# split like the list ["a", "b"].
_POOL = PatternPool({
    ErrorPattern(("a", "b"), ("a", "x", "b"), 3): 5,
    ErrorPattern(("b", "a"), ("b", "y", "a"), 3): 3,
    ErrorPattern(("c", "d"), ("c", "z", "d"), 3): 2,
}, n=3)
# Characters that str.split() splits at; " " is the only one a side may hold.
_WHITESPACE = (" ", "  ", "\t", "\r", "\x0b", "\x1c", "\x85", "\u00a0", "\u2003", "\u3000")
_TOKENS = st.lists(st.sampled_from(("a", "b", "é", *_WHITESPACE)), max_size=4).map("".join)
_READERS = {
    "tsv": (read_parallel_tsv, reference_read_parallel_tsv),
    "jsonl": (read_jsonl, reference_read_jsonl),
    "samples": (read_samples, reference_read_samples),
}


def _valid_lines() -> dict[str, list[str]]:
    samples, _ = synthesize(_POOL, 12, StubGenerator(seed=1), base_seed=1, error_rate=0.6)
    pairs = [
        {"id": s.id, "source": " ".join(s.source), "target": " ".join(s.target),
         "meta": {"matches_source": s.source == s.target}}
        for s in samples
    ]
    return {
        "tsv": [f"{p['source']}\t{p['target']}" for p in pairs],
        "jsonl": [json.dumps(p, ensure_ascii=False) for p in pairs],
        "samples": samples,
    }


_VALID = _valid_lines()


def _sample_lines(tmp: Path) -> list[str]:
    write_samples(_VALID["samples"], tmp / "valid.jsonl")
    return (tmp / "valid.jsonl").read_text(encoding="utf-8").splitlines()


def _entries(obj: dict) -> list[dict]:
    # An earlier edit may have dropped either key or replaced its list.
    lists = [obj.get(key) for key in ("planted", "requested")]
    return [e for entries in lists if isinstance(entries, list) for e in entries
            if isinstance(e, dict)]


@st.composite
def _edit(draw, kind: str, lines: list[str]) -> list[str]:
    """One change to ``lines``: a fuzz mutation or one aimed at the new fast paths."""
    lines = list(lines)
    i = draw(st.integers(0, len(lines) - 1))
    aims = ["fuzz", "whitespace"]
    if kind != "tsv":
        aims.append("side-text")
    if kind == "samples":
        aims += ["side-string", "n", "bad-twin", "equal-sides"]
    aim = draw(st.sampled_from(aims))
    if aim == "fuzz":
        return _mutate(lines, draw(st.randoms(use_true_random=False)))[1]
    if aim == "whitespace" and kind == "tsv":
        at = draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:at] + draw(st.sampled_from(_WHITESPACE)) + lines[i][at:]
        return lines
    try:
        obj = json.loads(lines[i])
    except ValueError:
        return lines
    if not isinstance(obj, dict):
        return lines
    if aim == "whitespace":
        slots = [(c, k) for c, k in _slots(obj) if isinstance(c[k], str)]
        if slots:
            container, key = draw(st.sampled_from(slots))
            text = container[key]
            at = draw(st.integers(0, len(text)))
            container[key] = text[:at] + draw(st.sampled_from(_WHITESPACE)) + text[at:]
    elif aim == "side-text":
        key = draw(st.sampled_from(("source", "target")))
        obj[key] = " ".join(draw(st.lists(_TOKENS, max_size=4)))
    elif aim == "equal-sides" and isinstance(obj.get("source"), str):
        obj["target"] = obj["source"]
    elif aim == "n":
        obj["n"] = draw(st.sampled_from((3.0, True, 1, 7, "3", None)))
    elif aim in ("side-string", "bad-twin") and _entries(obj):
        entry = draw(st.sampled_from(_entries(obj)))
        side = draw(st.sampled_from(("wrong", "correct")))
        if aim == "side-string" and isinstance(entry.get(side), list):
            entry[side] = draw(st.sampled_from(("", " "))).join(map(str, entry[side]))
        elif aim == "bad-twin" and isinstance(obj.get("requested"), list):
            # A broken copy of a valid entry, just before it in the same row.
            twin = {**entry, side: draw(st.sampled_from(("ab", ["a", 1], [["a"]], None)))}
            twin.pop("span", None)
            obj["requested"].insert(0, twin)
            obj["requested"].append(dict(entry))
    lines[i] = json.dumps(obj, ensure_ascii=False)
    return lines


def _outcome(read, path: Path, *args):
    rows = []
    try:
        for row in read(path, *args):
            rows.append(row)
    except Exception as exc:  # compared, never swallowed: see the assert
        return rows, (type(exc), str(exc))
    return rows, None


def _assert_same(tmp_path: Path, kind: str, lines: list[str]) -> None:
    path = tmp_path / f"input.{'tsv' if kind == 'tsv' else 'jsonl'}"
    path.write_bytes("".join(f"{line}\n" for line in lines).encode("utf-8", "surrogateescape"))
    read, reference = _READERS[kind]
    args = () if kind == "samples" else ("7:",)
    assert _outcome(read, path, *args) == _outcome(reference, path, *args)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), kind=st.sampled_from(sorted(_READERS)))
@example(data=None, kind="samples")
def test_readers_match_reference(tmp_path: Path, data, kind: str):
    lines = _sample_lines(tmp_path) if kind == "samples" else _VALID[kind]
    if data is not None:
        for _ in range(data.draw(st.integers(0, 3))):
            lines = data.draw(_edit(kind, lines))
    _assert_same(tmp_path, kind, lines)


def _string_sides(obj: dict) -> None:
    entry = (obj["planted"] or obj["requested"])[0]
    entry["wrong"], entry["correct"] = "".join(entry["wrong"]), "".join(entry["correct"])


def _bad_twin_first(obj: dict) -> None:
    entry = (obj["planted"] or obj["requested"])[0]
    obj["requested"].insert(0, {**entry, "wrong": ["a", 1]})


# Changes to one row of a sample file whose rows repeat each other's patterns.
_FIXED = {
    "string sides": _string_sides,
    "n is 3.0": lambda obj: obj.update(n=3.0),
    "n is true": lambda obj: obj.update(n=True),
    "n is 1": lambda obj: obj.update(n=1),
    "a bad entry before its valid twin": _bad_twin_first,
}


@pytest.mark.parametrize("change", sorted(_FIXED))
@pytest.mark.parametrize("row", (0, 1))
def test_sample_reader_matches_reference_on_repeated_entries(tmp_path: Path, change, row):
    lines = _sample_lines(tmp_path)
    obj = json.loads(lines[row])
    _FIXED[change](obj)
    lines[row] = json.dumps(obj, ensure_ascii=False)
    _assert_same(tmp_path, "samples", lines)


def test_equal_sides_and_patterns_are_shared(tmp_path: Path):
    _sample_lines(tmp_path)
    samples = list(read_samples(tmp_path / "valid.jsonl"))
    assert samples == _VALID["samples"]
    patterns = {}
    for s in samples:
        for p in (*s.requested, *(p for p, _ in s.planted)):
            assert patterns.setdefault(p, p) is p
        if s.source == s.target:
            assert s.source is s.target
    assert len(patterns) == len(_POOL)
    (tmp_path / "pairs.tsv").write_text("a b\ta b\na b\ta c\n", encoding="utf-8")
    same, other = read_parallel_tsv(tmp_path / "pairs.tsv")
    assert same.source is same.target
    assert other.source == same.source and other.source is not other.target

"""The package's value classes against their frozen dataclass copies.

Each class derives from ``gecaug.corpus.Record`` and is checked against
the ``@dataclass`` it was (``_oracles.ReferenceRecords``): on the same
arguments, valid or not, both raise the same error or hold equal fields,
and give the same ``repr``, ``hash`` and ``==``. Both refuse to have a
field set or deleted (``SynthStats`` is mutable in both), survive
``pickle`` and ``copy``, and take the same parameters.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gecaug.align import AlignOp, Edit
from gecaug.corpus import AnnotatedExample, GoldEdit, ParallelExample, Record
from gecaug.generation import FinetuneExample, GenerationRequest, GenerationResult
from gecaug.mix import StagePlan
from gecaug.patterns import ErrorPattern
from gecaug.scoring import CategoryScore, DistributionReport, ScoreReport
from gecaug.synthesis import SynthStats, SyntheticSample

from _oracles import ReferenceRecords

CLASSES = [
    ParallelExample, GoldEdit, AnnotatedExample, AlignOp, Edit, ErrorPattern,
    GenerationRequest, GenerationResult, FinetuneExample, StagePlan, CategoryScore,
    ScoreReport, DistributionReport, SyntheticSample, SynthStats,
]

_NAN = float("nan")
_TOKENS = st.lists(st.sampled_from(["a", "b", "", " ", "x\ty", "|"]), max_size=3)
_SIDE = _TOKENS.map(tuple) | _TOKENS
_INT = st.integers(-2, 6) | st.sampled_from([True, 3.0, _NAN])
_STR = st.sampled_from(["", "x", "R:VERB", "I", "II", "III", "noop"])
_SPAN = st.tuples(_INT, _INT)
_GOLD = st.builds(GoldEdit, st.integers(0, 2), st.integers(2, 4), _STR, st.just(("y",)))
_EDITS = st.dictionaries(
    st.integers(0, 3) | st.sampled_from(["1", "x", True]),
    st.lists(_GOLD, max_size=2).map(tuple) | st.lists(_GOLD, max_size=2),
    max_size=2,
)
_META = st.none() | st.dictionaries(_STR, _INT | _STR, max_size=2)
_PATTERN = st.builds(ErrorPattern, st.just(("a",)), st.just(("b",)), st.sampled_from([1, 3]))
# Plausible values per field, so that most drawn arguments build an object.
FIELDS = {
    "source": _SIDE, "target": _SIDE, "id": _STR, "meta": _META, "start": _INT, "end": _INT,
    "type": _STR, "correction": _SIDE, "required": _STR, "comment": _STR, "edits": _EDITS,
    "kind": _STR, "src_span": _SPAN, "tgt_span": _SPAN, "replacement": _SIDE, "coarse_type": _STR,
    "wrong": _SIDE, "correct": _SIDE, "n": _INT, "patterns": st.lists(_SIDE, max_size=2),
    "template": _STR, "request_id": _STR, "text": _STR, "status": _STR, "detail": _STR,
    "input": _STR, "target_span": _SPAN, "masked_spans": st.lists(_SPAN, max_size=2),
    "stage": _STR, "real": st.lists(_STR, max_size=2), "synthetic": st.none() | _STR,
    "synthetic_count": st.none() | _INT, "seed": _INT, "tp": _INT, "fp": _INT, "fn": _INT,
    "f_beta": _INT, "precision": _INT, "recall": _INT, "beta": _INT,
    "per_category": st.dictionaries(_STR, st.builds(CategoryScore, _INT, _INT, _INT, _INT)),
    "top_k": _INT, "reference_counts": st.lists(_INT).map(tuple),
    "candidate_counts": st.lists(_INT).map(tuple), "cosine": _INT, "spearman": _INT,
    "planted": st.lists(st.tuples(_PATTERN, _SPAN), max_size=2).map(tuple),
    "requested": st.lists(_PATTERN, max_size=2).map(tuple), "generator_id": _STR,
}
# Any field may get one of these instead.
_JUNK = st.none() | st.integers() | st.text(max_size=3) | _SIDE | st.just({})


@st.composite
def _call(draw, cls) -> tuple[list, dict]:
    """Arguments for ``cls``: some positional, some by name, some missing or extra."""
    names = list(cls._fields)
    plausible = [FIELDS.get(name, _INT) for name in names]  # SynthStats' counters: _INT
    values = [draw(st.one_of(p, _JUNK) if draw(st.integers(0, 9)) == 9 else p) for p in plausible]
    positional = draw(st.integers(0, len(names)))
    args, kwargs = values[:positional], dict(zip(names[positional:], values[positional:]))
    for name in list(kwargs):
        if draw(st.integers(0, 19)) == 19:
            del kwargs[name]
    if draw(st.integers(0, 29)) == 29:
        args.append(draw(_JUNK))
    if draw(st.integers(0, 29)) == 29:
        kwargs["bogus"] = 1
    return args, kwargs


def _build(cls, call):
    """The object ``cls`` builds on ``call``, or its error's class and message."""
    args, kwargs = call
    try:
        return cls(*args, **kwargs)
    except Exception as exc:  # the error is the outcome compared
        return type(exc), str(exc)


def _hash(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return TypeError, str(exc)


def _assert_same(new, old):
    """``new`` and the dataclass ``old`` built alike: one error, or one value."""
    if isinstance(old, tuple):
        assert new == old
        return
    assert type(new).__name__ == type(old).__name__
    assert repr(new) == repr(old)
    fields = type(new)._fields
    assert [getattr(new, f) for f in fields] == [getattr(old, f) for f in fields]
    assert _hash(new) == _hash(old)
    assert (new == new, new != new) == (old == old, old != old)
    for other in (None, 0, tuple(getattr(new, f) for f in fields)):
        assert (new == other, new != other) == (False, True) == (old == other, old != other)
    for roundtrip in (pickle.loads(pickle.dumps(new)), copy.copy(new), copy.deepcopy(new)):
        assert type(roundtrip) is type(new)
        assert repr(roundtrip) == repr(new)
        assert roundtrip == new or "nan" in repr(new)  # a NaN is not == its own copy


def _assignment(obj, name: str, value):
    """The error setting and then deleting field ``name`` raises, or the field after."""
    outcome = []
    for change in (lambda: setattr(obj, name, value), lambda: delattr(obj, name)):
        try:
            change()
            outcome.append(obj.__dict__.get(name, "deleted"))
        except AttributeError as exc:
            outcome.append((AttributeError, str(exc)))
    return outcome


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_record_matches_its_frozen_dataclass(cls, data):
    old_cls = getattr(ReferenceRecords, cls.__name__)
    first, second = data.draw(_call(cls)), data.draw(_call(cls))
    new, old = _build(cls, first), _build(old_cls, first)
    _assert_same(new, old)
    new2, old2 = _build(cls, second), _build(old_cls, second)
    _assert_same(new2, old2)
    if isinstance(old, tuple) or isinstance(old2, tuple):
        return
    assert (new == new2, new != new2) == (old == old2, old != old2)
    name = data.draw(st.sampled_from(cls._fields))
    frozen = cls is not SynthStats
    got, want = _assignment(new, name, 7), _assignment(old, name, 7)
    assert got == want
    assert all(isinstance(o, tuple) for o in got) == frozen


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_record_takes_its_dataclass_parameters(cls):
    old_cls = getattr(ReferenceRecords, cls.__name__)
    assert issubclass(cls, Record) and not dataclasses.is_dataclass(cls)
    assert cls._fields == cls.__match_args__ == old_cls.__match_args__

    def default(f: dataclasses.Field):
        if f.default_factory is not dataclasses.MISSING:
            return f.default_factory()
        return inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default

    params = list(inspect.signature(cls).parameters.values())
    assert [(p.name, p.kind, p.default) for p in params] == [
        (f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD, default(f))
        for f in dataclasses.fields(old_cls)
    ]


def test_annotated_example_edits_default_to_a_fresh_dict():
    a, b = AnnotatedExample(("x",)), AnnotatedExample(("x",))
    assert a.edits == {} and a.edits is not b.edits
    assert AnnotatedExample.__init__.__defaults__[0] == {}


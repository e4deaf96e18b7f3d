"""``splice`` is the one span rewrite: applying edits, planting, unplanting, masking.

Each caller is checked ``==`` against a frozen copy of the loop it used to
run (``tests/_oracles.py``). The copies of ``apply_edits`` and
``apply_gold_edits`` applied two insertions at one point in reverse order,
so their inputs here hold no two insertions at one point; the planting,
unplanting and masking copies already worked left to right.
"""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gecaug import (
    Edit,
    ErrorPattern,
    GoldEdit,
    OracleCorrector,
    SyntheticSample,
    apply_edits,
    apply_gold_edits,
    build_finetune_example,
    substitute,
)
from gecaug.corpus import splice

from _oracles import (
    reference_apply_edits,
    reference_apply_gold_edits,
    reference_build_finetune_example,
    reference_substitute,
    reference_unplant,
)

_TOKEN = st.sampled_from(("a", "b", "ab", "c", "."))
_REPLACEMENT = st.lists(_TOKEN, max_size=3).map(tuple)


def _edit(a: int, b: int, r: tuple[str, ...]) -> Edit:
    return Edit((a, b), r, (0, 0), "substitution")


def test_splice_returns_each_replacement_span():
    tokens = ("a", "b", "c", "d")
    out, spans = splice(tokens, [(0, 1, ("x", "y")), (2, 2, ()), (2, 4, ("z",))])
    assert out == ("x", "y", "b", "z")
    assert spans == [(0, 2), (3, 3), (3, 4)]
    assert splice(tokens, []) == (tokens, [])


def test_edits_at_one_point_apply_in_list_order():
    source = ("a", "b", "c")
    assert apply_edits(source, [_edit(1, 1, ("x",)), _edit(1, 1, ("y",))]) == (
        "a", "x", "y", "b", "c",
    )
    gold = [GoldEdit(1, 1, "M", ("x",)), GoldEdit(1, 1, "M", ("y",))]
    assert apply_gold_edits(source, gold) == ("a", "x", "y", "b", "c")
    assert splice(source, [(1, 1, ("x",)), (1, 1, ("y",))]) == (
        ("a", "x", "y", "b", "c"), [(1, 2), (2, 3)],
    )


@pytest.mark.parametrize(
    "spans",
    [[(0, 2), (1, 3)], [(1, 2), (1, 2)], [(0, 2), (1, 1)], [(2, 4)]],
    ids=["crossing", "same-span", "insertion-inside", "past-the-end"],
)
def test_overlapping_edits_raise(spans):
    source = ("a", "b", "c")
    with pytest.raises(ValueError):
        splice(source, [(a, b, ("x",)) for a, b in spans])
    with pytest.raises(ValueError):
        apply_edits(source, [_edit(a, b, ("x",)) for a, b in spans])
    with pytest.raises(ValueError):
        apply_gold_edits(source, [GoldEdit(a, b, "R", ("x",)) for a, b in spans])


@st.composite
def _edit_lists(draw):
    """Source tokens and non-overlapping (a, b, r) edits, no two insertions at one point.

    Sorted cut points pair up into spans; a span may be empty or touch its
    neighbour. The edits come back shuffled.
    """
    source = tuple(draw(st.lists(_TOKEN, max_size=10)))
    cuts = sorted(draw(st.lists(st.integers(0, len(source)), max_size=10)))
    edits: list[tuple[int, int, tuple[str, ...]]] = []
    for a, b in zip(cuts[::2], cuts[1::2]):
        if not (edits and a == b == edits[-1][0] == edits[-1][1]):
            edits.append((a, b, draw(_REPLACEMENT)))
    return source, draw(st.permutations(edits))


@settings(max_examples=300, deadline=None)
@given(_edit_lists())
def test_apply_edits_matches_reference(case):
    source, edits = case
    as_edits = [_edit(a, b, r) for a, b, r in edits]
    assert apply_edits(source, as_edits) == reference_apply_edits(source, as_edits)
    gold = [GoldEdit(a, b, "R", r) for a, b, r in edits]
    assert apply_gold_edits(source, gold) == reference_apply_gold_edits(source, gold)


@st.composite
def _plantings(draw):
    """Target tokens and non-overlapping width-1 matches, wrong sides often empty."""
    tokens = tuple(draw(st.lists(_TOKEN, min_size=1, max_size=10)))
    cuts = sorted(draw(st.lists(st.integers(0, len(tokens)), max_size=8)))
    matches = []
    for a, b in zip(cuts[::2], cuts[1::2]):
        correct = tokens[a:b]
        wrong = draw(_REPLACEMENT.filter(lambda w: w != correct))
        matches.append((ErrorPattern(wrong, correct, 1), (a, b)))
    return tokens, draw(st.permutations(matches))


@settings(max_examples=300, deadline=None)
@given(_plantings(), st.sampled_from((0.0, 0.5, 1.0)), st.integers(0, 2**32))
@example(
    (("a", "b"), [(ErrorPattern((), ("a",), 1), (0, 1)), (ErrorPattern((), ("b",), 1), (1, 2))]),
    1.0,
    0,
)
def test_substitute_and_unplant_match_reference(planting, rate, seed):
    tokens, matches = planting
    rng, reference_rng = Random(seed), Random(seed)
    sample = substitute(tokens, matches, rng, rate, generator_id="g", sample_id="s")
    assert sample == reference_substitute(
        tokens, matches, reference_rng, rate, generator_id="g", sample_id="s"
    )
    assert rng.getstate() == reference_rng.getstate()

    # Unplanting reads the spans in any order; shuffle them.
    planted = Random(seed).sample(sample.planted, len(sample.planted))
    shuffled = SyntheticSample(
        sample.source, sample.target, tuple(planted), sample.requested, sample.generator_id,
        sample.id,
    )
    corrector = OracleCorrector([shuffled])
    assert corrector.correct_text(" ".join(sample.source), "s") == reference_unplant(shuffled)


@settings(max_examples=300, deadline=None)
@given(st.lists(_TOKEN, min_size=4, max_size=14), st.integers(0, 2**32))
def test_finetune_masking_matches_reference(tokens, seed):
    assert build_finetune_example(tokens, Random(seed)) == reference_build_finetune_example(
        tokens, Random(seed)
    )

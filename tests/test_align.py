from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gecaug import (
    AlignOp,
    ParallelExample,
    align_tokens,
    alignment_cost,
    apply_edits,
    extract_edits,
    merge_edits,
    substitution_cost,
)
from gecaug.align import _char_similarity

from _oracles import (
    _reference_char_similarity,
    oracle_alignment_cost,
    reference_align_tokens,
)
from conftest import random_pair


def _reconstruct(source, target, ops):
    """Replay an op sequence and check it tiles both sentences exactly."""
    i = j = 0
    for op in ops:
        assert op.src_span[0] == i and op.tgt_span[0] == j
        i, j = op.src_span[1], op.tgt_span[1]
    assert (i, j) == (len(source), len(target))


def test_insertion_example():
    pair = ParallelExample(
        ("They", "are", "coming", "the", "city", "center", "."),
        ("They", "are", "coming", "from", "the", "city", "center", "."),
        id="t",
    )
    edits = extract_edits(pair)
    assert len(edits) == 1
    edit = edits[0]
    assert edit.src_span == (3, 3)
    assert edit.replacement == ("from",)
    assert edit.tgt_span == (3, 4)
    assert edit.coarse_type == "insertion"
    assert apply_edits(pair.source, edits) == pair.target


def test_identical_pair_has_no_edits():
    pair = ParallelExample(("a", "b", "c"), ("a", "b", "c"), id="t")
    assert extract_edits(pair) == []
    ops = align_tokens(pair.source, pair.target)
    assert all(op.kind == "match" for op in ops)


def test_substitution_cost_tiers():
    assert substitution_cost("The", "the") == 1.0
    assert substitution_cost("walked", "walks") == 1.5
    assert substitution_cost("cat", "why") == 2.0
    # Similarity is LCS over max length: "ab" in "abxy" gives 0.5 exactly.
    assert substitution_cost("ab", "abxy") == 1.5


def test_costs_for_simple_pairs():
    assert alignment_cost(("a",), ("a",)) == 0.0
    assert alignment_cost(("a",), ()) == 1.0
    assert alignment_cost((), ("a",)) == 1.0
    assert alignment_cost(("The",), ("the",)) == 1.0
    assert alignment_cost(("walked",), ("walks",)) == 1.5
    assert alignment_cost(("cat",), ("why",)) == 2.0


def test_equal_cost_prefers_single_substitution():
    # Substituting a dissimilar token costs 2.0, the same as delete+insert;
    # the tie resolves to one substitute op.
    ops = align_tokens(("cat",), ("why",))
    assert [op.kind for op in ops] == ["substitute"]


def test_transposition_of_adjacent_tokens():
    ops = align_tokens(("a", "b"), ("b", "a"))
    assert ops == [AlignOp("transpose", (0, 2), (0, 2))]
    assert alignment_cost(("a", "b"), ("b", "a")) == 1.5


def test_transposition_is_case_sensitive():
    # {A, b} and {b, a} differ as multisets, so no transposition window
    # applies and the cheapest route is delete+insert around the match.
    assert alignment_cost(("A", "b"), ("b", "a")) == 2.0
    kinds = [op.kind for op in align_tokens(("A", "b"), ("b", "a"))]
    assert "transpose" not in kinds


def test_three_token_reversal_uses_wide_window():
    # Reversing three tokens costs 2.5 as one k=3 transposition; every
    # insert/delete route costs at least 3.
    assert alignment_cost(("a", "b", "c"), ("c", "b", "a")) == 2.5
    ops = align_tokens(("a", "b", "c"), ("c", "b", "a"))
    assert AlignOp("transpose", (0, 3), (0, 3)) in ops


def test_rotation_prefers_insert_delete_over_wide_transposition():
    # Rotating three tokens can be done with one insert and one delete
    # (cost 2.0), cheaper than a k=3 transposition (2.5).
    assert alignment_cost(("a", "b", "c"), ("c", "a", "b")) == 2.0
    kinds = [op.kind for op in align_tokens(("a", "b", "c"), ("c", "a", "b"))]
    assert "transpose" not in kinds


def test_transposition_skipped_when_window_is_equal():
    # ("x", "x") against ("x", "x") is multiset-equal but also
    # sequence-equal, so it must align as two matches, never a transpose.
    ops = align_tokens(("x", "x"), ("x", "x"))
    assert [op.kind for op in ops] == ["match", "match"]


def test_adjacent_operations_merge_into_one_edit():
    pair = ParallelExample(("a", "b", "c"), ("a", "x", "y", "c"), id="t")
    edits = extract_edits(pair)
    assert len(edits) == 1
    assert edits[0].src_span == (1, 2)
    assert edits[0].replacement == ("x", "y")
    assert edits[0].coarse_type == "substitution"


def test_coarse_types():
    ins = extract_edits(ParallelExample(("a", "c"), ("a", "b", "c"), id="t"))[0]
    assert ins.coarse_type == "insertion"
    dele = extract_edits(ParallelExample(("a", "b", "c"), ("a", "c"), id="t"))[0]
    assert dele.coarse_type == "deletion"
    sub = extract_edits(ParallelExample(("a", "b", "c"), ("a", "x", "c"), id="t"))[0]
    assert sub.coarse_type == "substitution"
    swap = extract_edits(ParallelExample(("a", "b"), ("b", "a"), id="t"))[0]
    assert swap.coarse_type == "substitution"
    assert swap.replacement == ("b", "a")


def test_merge_drops_vacuous_runs():
    # Defensive path: a hand-built op list that "substitutes" a token with
    # itself must not surface as an edit.
    ops = [AlignOp("substitute", (0, 1), (0, 1))]
    assert merge_edits(ops, ["a"], ["a"]) == []


def test_ops_tile_both_sentences():
    rng = random.Random(7)
    for _ in range(300):
        pair = random_pair(rng)
        ops = align_tokens(pair.source, pair.target)
        _reconstruct(pair.source, pair.target, ops)


def test_round_trip_fuzz():
    rng = random.Random(11)
    for _ in range(2000):
        pair = random_pair(rng)
        edits = extract_edits(pair)
        assert apply_edits(pair.source, edits) == pair.target
        for e in edits:
            assert tuple(pair.source[e.src_span[0]:e.src_span[1]]) != e.replacement


def test_edits_are_sorted_and_disjoint():
    rng = random.Random(13)
    for _ in range(500):
        pair = random_pair(rng)
        edits = extract_edits(pair)
        prev_end = -1
        for e in edits:
            # Touching edits would have merged, so consecutive spans are
            # separated by at least one matched token.
            assert e.src_span[0] > prev_end
            prev_end = e.src_span[1]


def test_cost_matches_oracle_exhaustive_tiny():
    vocab = ("a", "b", "A")
    sentences = [()]
    for length in (1, 2):
        sentences.extend(itertools.product(vocab, repeat=length))
    for src in sentences:
        for tgt in sentences:
            got = alignment_cost(src, tgt)
            want = oracle_alignment_cost(src, tgt)
            assert got == want, f"{src} vs {tgt}: {got} != {want}"


def test_cost_matches_oracle_random():
    rng = random.Random(17)
    vocab = ("a", "b", "c", "A", "ab", "t1", "t2")
    for _ in range(400):
        src = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 5)))
        tgt = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 5)))
        got = alignment_cost(src, tgt)
        want = oracle_alignment_cost(src, tgt)
        assert got == want, f"{src} vs {tgt}: {got} != {want}"


def test_apply_edits_empty_is_identity():
    tokens = ("a", "b", "c")
    assert apply_edits(tokens, []) == tokens


# The reference is the slow side of each comparison, so the fuzzed
# differential checks run in seeded chunks: 30k random pairs and 20k
# shuffle-heavy pairs in all.
@pytest.mark.parametrize("seed", range(6))
def test_align_matches_reference_on_random_pairs(seed):
    rng = random.Random(1000 + seed)
    for _ in range(5000):
        pair = random_pair(rng)
        got = align_tokens(pair.source, pair.target)
        assert got == reference_align_tokens(pair.source, pair.target), pair


_SHUFFLE_VOCAB = ("t1", "t2", "T1", "t1x", "ab", "Ab")


@pytest.mark.parametrize("seed", range(4))
def test_align_matches_reference_on_shuffled_pairs(seed):
    # Few distinct tokens, a permuted target and a near-miss or case
    # variant of each token: many equal-cost alignments and transposition
    # windows, so tie-breaks decide the op sequence.
    rng = random.Random(2000 + seed)
    for _ in range(5000):
        vocab = _SHUFFLE_VOCAB[: rng.randint(2, len(_SHUFFLE_VOCAB))]
        source = [rng.choice(vocab) for _ in range(rng.randint(0, 9))]
        target = list(source)
        rng.shuffle(target)
        for _ in range(rng.randint(0, 2)):
            if target and rng.random() < 0.5:
                del target[rng.randrange(len(target))]
            else:
                target.insert(rng.randint(0, len(target)), rng.choice(vocab))
        got = align_tokens(source, target)
        assert got == reference_align_tokens(source, target), (source, target)


@pytest.mark.parametrize(
    "source, target",
    [
        (("A", "A", "b", "ab", "c", "a"), ("A", "c", "ab", "a", "b", "A", "a")),
        (("on", "The", "no", "a", "in", "teh"), ("a", "teh", "in", "no", "The", "on", "teh")),
    ],
)
def test_transposition_may_end_before_an_equal_last_token(source, target):
    # The optimum transposes a window that takes in the source's last token
    # and then inserts the target's, equal, last token (5.5 and 6.5);
    # matching the equal last tokens first costs 6 and 7.
    assert align_tokens(source, target) == reference_align_tokens(source, target)
    assert alignment_cost(source, target) == oracle_alignment_cost(source, target)


@pytest.mark.parametrize("seed", range(2))
def test_align_matches_reference_on_shuffled_pairs_with_a_repeated_last_token(seed):
    # A permuted target that ends with a copy of the source's last token:
    # the two sentences share a last token that the optimum need not match.
    rng = random.Random(3000 + seed)
    for _ in range(5000):
        vocab = _SHUFFLE_VOCAB[: rng.randint(2, len(_SHUFFLE_VOCAB))]
        source = [rng.choice(vocab) for _ in range(rng.randint(1, 9))]
        target = list(source)
        rng.shuffle(target)
        target.append(source[-1])
        got = align_tokens(source, target)
        assert got == reference_align_tokens(source, target), (source, target)


# Each pair shares a small alphabet: two letters, case variants, or
# non-ASCII letters.
_WORD_PAIRS = st.sampled_from(("ab", "aAbB", "abcéÉßİ")).flatmap(
    lambda alphabet: st.tuples(
        st.text(alphabet, max_size=20), st.text(alphabet, max_size=20)
    )
)


@settings(max_examples=1000, deadline=None)
@given(_WORD_PAIRS)
def test_char_similarity_matches_reference(pair):
    a, b = pair
    assert _char_similarity.__wrapped__(a, b) == _reference_char_similarity.__wrapped__(a, b)


# "A" is a case variant of "a" (substitution cost 1) and "ab" a near miss
# of "a" and "b" (cost 1.5); every other unequal pair costs 2.
_TOKENS = st.lists(st.sampled_from(("a", "A", "b", "ab", "c")), max_size=8)


@settings(max_examples=300, deadline=None)
@given(_TOKENS, _TOKENS)
def test_align_matches_reference_property(source, target):
    assert align_tokens(source, target) == reference_align_tokens(source, target)


@settings(max_examples=200, deadline=None)
@given(_TOKENS.filter(bool), _TOKENS.filter(bool))
def test_apply_edits_round_trip_property(source, target):
    pair = ParallelExample(tuple(source), tuple(target), id="h")
    assert apply_edits(pair.source, extract_edits(pair)) == pair.target

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gecaug import (
    AnnotatedExample,
    GoldEdit,
    MalformedLine,
    ParallelExample,
    SchemaError,
    SpanOutOfBounds,
    apply_gold_edits,
    jsonl_line,
    load_pool,
    read_jsonl,
    read_m2,
    read_pairs,
    read_parallel_tsv,
    read_samples,
    write_jsonl,
    write_m2,
    write_parallel_tsv,
)
from gecaug.corpus import check_tokens

from _oracles import reference_check_tokens, reference_read_m2
from conftest import random_pair


def test_parallel_example_validates_tokens():
    ex = ParallelExample(("He", "go", "."), ("He", "goes", "."), id="x")
    assert ex.source == ("He", "go", ".")
    with pytest.raises(ValueError):
        ParallelExample((), ("a",), id="x")
    with pytest.raises(ValueError):
        ParallelExample(("a",), ("a", ""), id="x")
    with pytest.raises(ValueError):
        ParallelExample(("a b",), ("a",), id="x")


def test_parallel_example_coerces_lists():
    ex = ParallelExample(["a", "b"], ["a"], id="1")
    assert isinstance(ex.source, tuple) and isinstance(ex.target, tuple)


def test_tsv_round_trip(tmp_path: Path):
    path = tmp_path / "pairs.tsv"
    pairs = [
        ParallelExample(
            ("They", "are", "coming", "the", "city", "center", "."),
            ("They", "are", "coming", "from", "the", "city", "center", "."),
            id="1",
        ),
        ParallelExample(("I", "goes", "."), ("I", "go", "."), id="2"),
    ]
    assert write_parallel_tsv(pairs, path) == 2
    back = list(read_parallel_tsv(path))
    assert [ex.source for ex in back] == [ex.source for ex in pairs]
    assert [ex.target for ex in back] == [ex.target for ex in pairs]
    assert [ex.id for ex in back] == ["1", "2"]


def test_tsv_rejects_ragged_rows(tmp_path: Path):
    path = tmp_path / "bad.tsv"
    path.write_text("a b\tc d\textra\n", encoding="utf-8")
    with pytest.raises(MalformedLine) as err:
        list(read_parallel_tsv(path))
    assert err.value.line_no == 1
    assert str(path) in str(err.value)


def test_tsv_rejects_empty_side(tmp_path: Path):
    path = tmp_path / "bad.tsv"
    path.write_text("good line\tok\n\tok\n", encoding="utf-8")
    with pytest.raises(MalformedLine) as err:
        list(read_parallel_tsv(path))
    assert err.value.line_no == 2


def test_tsv_rejects_double_space(tmp_path: Path):
    path = tmp_path / "bad.tsv"
    path.write_text("a  b\tc\n", encoding="utf-8")
    with pytest.raises(MalformedLine):
        list(read_parallel_tsv(path))


def test_tsv_rejects_invalid_utf8(tmp_path: Path):
    path = tmp_path / "bad.tsv"
    path.write_bytes(b"a\tb\n\xff\xfe\tc\n")
    with pytest.raises(MalformedLine) as err:
        list(read_parallel_tsv(path))
    assert err.value.line_no == 2


# One valid line per format, for line index i (pool rows must be distinct).
_LINES = {
    "tsv": lambda i: f"a{i}\tb{i}",
    "m2": lambda i: ("S a b", "A 0 1|||R:X|||c|||REQUIRED|||-NONE-|||0", "")[i % 3],
    "jsonl": lambda i: json.dumps({"id": str(i), "source": "a", "target": "b"}),
    "pool": lambda i: json.dumps({"wrong": [f"a{i}"], "correct": ["b"], "count": 1}),
    "samples": lambda i: json.dumps({
        "id": str(i), "source": "a", "target": "a", "planted": [], "requested": [],
        "generator": "stub", "n": None,
    }),
}
_READERS = {
    "tsv": read_parallel_tsv,
    "m2": read_m2,
    "jsonl": read_jsonl,
    "pool": lambda path: [load_pool(path, 1)],
    "samples": read_samples,
}


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("fmt", sorted(_LINES))
def test_invalid_utf8_is_reported_at_its_line(tmp_path: Path, fmt, newline):
    # Text mode decodes in chunks far longer than a line, so the bad byte on
    # line 1000 of 1010 lies deep inside the chunk whose decode fails.
    lines = [_LINES[fmt](i).encode("utf-8") for i in range(1010)]
    lines[999] = lines[999].replace(b"a", b"a\xff", 1)
    path = tmp_path / f"bad.{fmt}"
    path.write_bytes(newline.encode("ascii").join(lines) + newline.encode("ascii"))
    with pytest.raises(MalformedLine) as err:
        list(_READERS[fmt](path))
    assert err.value.line_no == 1000
    assert err.value.reason.startswith("invalid UTF-8: ")
    # The same lines without the bad byte read cleanly.
    lines[999] = _LINES[fmt](999).encode("utf-8")
    path.write_bytes(newline.encode("ascii").join(lines) + newline.encode("ascii"))
    assert list(_READERS[fmt](path))


def test_gold_edit_validates_span():
    with pytest.raises(ValueError):
        GoldEdit(3, 2, "R:OTHER", ("x",))
    with pytest.raises(ValueError):
        GoldEdit(-1, 0, "R:OTHER", ("x",))


@pytest.mark.parametrize("correction", [("a b",), ("",), ("a\tb",), ("a", "")])
def test_gold_edit_checks_its_correction(correction):
    with pytest.raises(ValueError):
        GoldEdit(0, 1, "X", correction)


def test_apply_gold_edits_right_to_left():
    source = ("He", "go", "to", "school", "yesterday", ".")
    edits = [
        GoldEdit(1, 2, "R:VERB:SVA", ("goes",)),
        GoldEdit(4, 5, "U:ADV", ()),
    ]
    assert apply_gold_edits(source, edits) == ("He", "goes", "to", "school", ".")
    # Insertion at a point after a replacement, applied in one call.
    edits = [GoldEdit(0, 0, "M:DET", ("The",)), GoldEdit(1, 2, "R:VERB", ("went",))]
    assert apply_gold_edits(("he", "go", ".")[:3], edits) == ("The", "he", "went", ".")


def test_annotated_example_rejects_bad_edits():
    source = ("a", "b", "c")
    with pytest.raises(ValueError):
        AnnotatedExample(source, {0: (GoldEdit(2, 4, "X", ("y",)),)})
    with pytest.raises(ValueError):
        AnnotatedExample(
            source,
            {0: (GoldEdit(1, 3, "X", ("y",)), GoldEdit(2, 3, "X", ("z",)))},
        )


def test_m2_parse_block(tmp_path: Path):
    path = tmp_path / "gold.m2"
    path.write_text(
        "S He go to school .\n"
        "A 1 2|||R:VERB:SVA|||goes|||REQUIRED|||-NONE-|||0\n"
        "A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||1\n"
        "\n"
        "S I like apple .\n"
        "A 2 3|||R:NOUN:NUM|||apples|||REQUIRED|||-NONE-|||0\n",
        encoding="utf-8",
    )
    blocks = list(read_m2(path))
    assert len(blocks) == 2
    first = blocks[0]
    assert first.id == "0"
    assert first.source == ("He", "go", "to", "school", ".")
    assert set(first.edits) == {0, 1}
    assert first.edits[1] == ()
    edit = first.edits[0][0]
    assert (edit.start, edit.end, edit.type, edit.correction) == (1, 2, "R:VERB:SVA", ("goes",))
    assert apply_gold_edits(first.source, first.edits[0]) == ("He", "goes", "to", "school", ".")
    assert blocks[1].id == "1"


def test_m2_deletion_uses_none_marker(tmp_path: Path):
    path = tmp_path / "gold.m2"
    path.write_text(
        "S He go to to school .\n"
        "A 2 3|||U:PREP|||-NONE-|||REQUIRED|||-NONE-|||0\n",
        encoding="utf-8",
    )
    block = next(read_m2(path))
    assert block.edits[0][0].correction == ()
    assert apply_gold_edits(block.source, block.edits[0]) == ("He", "go", "to", "school", ".")


def test_m2_round_trip_structure_and_bytes(tmp_path: Path):
    examples = [
        AnnotatedExample(
            ("He", "go", "to", "school", "."),
            {
                0: (GoldEdit(1, 2, "R:VERB:SVA", ("goes",)),),
                2: (),
                1: (GoldEdit(0, 1, "R:PRON", ("She",)), GoldEdit(3, 4, "R:NOUN", ("work",))),
            },
            id="0",
        ),
        AnnotatedExample(("All", "good", "."), {0: ()}, id="1"),
    ]
    path = tmp_path / "out.m2"
    assert write_m2(examples, path) == 2
    back = list(read_m2(path))
    assert [b.source for b in back] == [e.source for e in examples]
    assert [b.edits for b in back] == [e.edits for e in examples]
    path2 = tmp_path / "again.m2"
    write_m2(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_m2_rejects_wrong_field_count(tmp_path: Path):
    path = tmp_path / "bad.m2"
    path.write_text("S a b\nA 0 1|||X|||y|||REQUIRED|||0\n", encoding="utf-8")
    with pytest.raises(MalformedLine) as err:
        list(read_m2(path))
    assert "6" in err.value.reason


def test_m2_rejects_span_out_of_bounds(tmp_path: Path):
    path = tmp_path / "bad.m2"
    path.write_text(
        "S a b\nA 1 3|||X|||y|||REQUIRED|||-NONE-|||0\n", encoding="utf-8"
    )
    with pytest.raises(SpanOutOfBounds) as err:
        list(read_m2(path))
    assert err.value.line_no == 2


def test_m2_rejects_half_noop(tmp_path: Path):
    path = tmp_path / "bad.m2"
    path.write_text(
        "S a b\nA -1 -1|||X|||y|||REQUIRED|||-NONE-|||0\n", encoding="utf-8"
    )
    with pytest.raises(MalformedLine):
        list(read_m2(path))
    path.write_text(
        "S a b\nA 0 1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n", encoding="utf-8"
    )
    with pytest.raises(MalformedLine):
        list(read_m2(path))


@pytest.mark.parametrize(
    "span, annotator, reason",
    [
        ("0 1", "1_0", "non-integer annotator '1_0'"),
        ("0 1", "\u0661", "non-integer annotator '\u0661'"),  # an Arabic-Indic one
        ("0 1", "+1", "non-integer annotator '+1'"),
        ("0 1", " 1", "non-integer annotator ' 1'"),
        ("0 1", "1 ", "non-integer annotator '1 '"),
        ("0 +1", "0", "non-integer span '0 +1'"),
        ("0 1_0", "0", "non-integer span '0 1_0'"),
        ("\uff10 1", "0", "non-integer span '\uff10 1'"),  # a fullwidth zero
        ("-1 1", "0", "non-integer span '-1 1'"),
        ("-0 1", "0", "non-integer span '-0 1'"),
    ],
)
def test_m2_integers_are_ascii_digits(tmp_path: Path, span, annotator, reason):
    path = tmp_path / "bad.m2"
    path.write_text(f"S a b\nA {span}|||R:X|||y|||REQUIRED|||-NONE-|||{annotator}\n", "utf-8")
    with pytest.raises(MalformedLine) as err:
        list(read_m2(path))
    assert (err.value.line_no, err.value.reason) == (2, reason)


def test_m2_reads_leading_zeros_and_the_noop_span(tmp_path: Path):
    path = tmp_path / "gold.m2"
    path.write_text(
        "S a b\nA 00 01|||R:X|||y|||REQUIRED|||-NONE-|||007\n"
        "A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||1\n",
        encoding="utf-8",
    )
    [block] = read_m2(path)
    assert block.edits == {7: (GoldEdit(0, 1, "R:X", ("y",)),), 1: ()}


def test_m2_rejects_noop_mixed_with_edits(tmp_path: Path):
    path = tmp_path / "bad.m2"
    path.write_text(
        "S a b\n"
        "A 0 1|||X|||y|||REQUIRED|||-NONE-|||0\n"
        "A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n",
        encoding="utf-8",
    )
    with pytest.raises(MalformedLine):
        list(read_m2(path))


def test_m2_rejects_junk_and_orphan_lines(tmp_path: Path):
    path = tmp_path / "bad.m2"
    path.write_text("T not a real line\n", encoding="utf-8")
    with pytest.raises(MalformedLine):
        list(read_m2(path))
    path.write_text("A 0 1|||X|||y|||REQUIRED|||-NONE-|||0\n", encoding="utf-8")
    with pytest.raises(MalformedLine):
        list(read_m2(path))


# A tab inside a correction: no hypothesis token holds whitespace, so
# this gold edit could never match.
_TAB_IN_CORRECTION = "S He go .\nA 1 2|||R:VERB|||goes\thome|||REQUIRED|||-NONE-|||0\n"


@pytest.mark.parametrize(
    "correction, reason",
    [("goes\thome", "correction token 'goes\\thome' contains whitespace"),
     ("goes  home", "correction side contains an empty token")],
)
def test_m2_rejects_a_correction_that_breaks_the_token_rule(tmp_path: Path, correction, reason):
    path = tmp_path / "gold.m2"
    path.write_text(_TAB_IN_CORRECTION.replace("goes\thome", correction), encoding="utf-8")
    with pytest.raises(MalformedLine) as err:
        list(read_m2(path))
    assert (err.value.line_no, err.value.reason) == (2, reason)


def test_m2_block_without_annotations(tmp_path: Path):
    path = tmp_path / "gold.m2"
    path.write_text("S a b .\n\nS c d .\n", encoding="utf-8")
    blocks = list(read_m2(path))
    assert len(blocks) == 2
    assert blocks[0].edits == {}


def test_jsonl_round_trip_with_meta(tmp_path: Path):
    path = tmp_path / "pairs.jsonl"
    pairs = [
        ParallelExample(("a", "b"), ("a", "c"), id="p1", meta={"flag": True}),
        ParallelExample(("x",), ("x",), id="p2"),
    ]
    assert write_jsonl(pairs, path) == 2
    back = list(read_jsonl(path))
    assert back[0].meta == {"flag": True}
    assert back[1].meta is None
    assert [b.id for b in back] == ["p1", "p2"]
    assert [b.source for b in back] == [p.source for p in pairs]


def test_jsonl_line_is_canonical():
    ex = ParallelExample(("a",), ("b",), id="z", meta={"b": 1, "a": 2})
    row = jsonl_line(ex)
    assert row == '{"id": "z", "meta": {"a": 2, "b": 1}, "source": "a", "target": "b"}'


def test_jsonl_ignores_unknown_keys(tmp_path: Path):
    path = tmp_path / "pairs.jsonl"
    path.write_text(
        json.dumps({"id": "1", "source": "a", "target": "b", "extra": [1, 2]}) + "\n",
        encoding="utf-8",
    )
    ex = next(read_jsonl(path))
    assert ex.source == ("a",)


def test_jsonl_schema_errors(tmp_path: Path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "1", "source": "a"}\n', encoding="utf-8")
    with pytest.raises(SchemaError):
        list(read_jsonl(path))
    path.write_text('{"id": 1, "source": "a", "target": "b"}\n', encoding="utf-8")
    with pytest.raises(SchemaError):
        list(read_jsonl(path))
    path.write_text('{"id": "1", "source": "a", "target": "b", "meta": 3}\n', encoding="utf-8")
    with pytest.raises(SchemaError):
        list(read_jsonl(path))
    path.write_text('["not", "an", "object"]\n', encoding="utf-8")
    with pytest.raises(SchemaError):
        list(read_jsonl(path))


def test_jsonl_malformed_errors(tmp_path: Path):
    path = tmp_path / "bad.jsonl"
    path.write_text("{not json\n", encoding="utf-8")
    with pytest.raises(MalformedLine) as err:
        list(read_jsonl(path))
    assert err.value.line_no == 1
    path.write_text('{"id": "1", "source": "a  b", "target": "c"}\n', encoding="utf-8")
    with pytest.raises(MalformedLine):
        list(read_jsonl(path))


def test_read_pairs_dispatch(tmp_path: Path):
    tsv = tmp_path / "x.tsv"
    write_parallel_tsv([ParallelExample(("a",), ("b",), id="1")], tsv)
    jl = tmp_path / "x.jsonl"
    write_jsonl([ParallelExample(("c",), ("d",), id="1")], jl)
    assert next(read_pairs(tsv)).source == ("a",)
    assert next(read_pairs(jl)).source == ("c",)
    with pytest.raises(ValueError):
        read_pairs(tmp_path / "x.txt")


def test_readers_prefix_ids(tmp_path: Path):
    tsv = tmp_path / "x.tsv"
    write_parallel_tsv([ParallelExample(("a",), ("b",), id="7")], tsv)
    jl = tmp_path / "x.jsonl"
    write_jsonl([ParallelExample(("c",), ("d",), id="r7", meta={"k": 1})], jl)
    assert next(read_pairs(tsv, id_prefix="0:")) == ParallelExample(("a",), ("b",), id="0:1")
    assert next(read_pairs(jl, id_prefix="1:")) == ParallelExample(
        ("c",), ("d",), id="1:r7", meta={"k": 1}
    )
    assert next(read_pairs(jl)).id == "r7"


def test_jsonl_fuzz_round_trip(tmp_path: Path):
    rng = random.Random(20260818)
    pairs = []
    for i in range(500):
        ex = random_pair(rng)
        meta = {"k": rng.randint(0, 9)} if rng.random() < 0.5 else None
        pairs.append(ParallelExample(ex.source, ex.target, id=f"r{i}", meta=meta))
    path = tmp_path / "fuzz.jsonl"
    write_jsonl(pairs, path)
    back = list(read_jsonl(path))
    assert back == pairs
    # A second write of what was read is byte-identical.
    path2 = tmp_path / "fuzz2.jsonl"
    write_jsonl(back, path2)
    assert path.read_bytes() == path2.read_bytes()


# ---------------------------------------------------------------------------
# Write -> read round trips over generated corpora

# A token is any non-empty run of printable, non-space characters; M2
# tokens also avoid "|", which its field separator "|||" is made of.
_TOKEN = st.text(
    st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp")), min_size=1, max_size=6
).filter(lambda tok: not any(ch.isspace() for ch in tok))
_M2_TOKEN = _TOKEN.filter(lambda tok: "|" not in tok)
_SENTENCE = st.lists(_TOKEN, min_size=1, max_size=6).map(tuple)
_META = st.none() | st.dictionaries(
    st.text(max_size=4), st.none() | st.booleans() | st.integers() | st.text(max_size=4),
    max_size=3,
)
_EDIT_TYPES = ("R:VERB:SVA", "M:DET", "U:PUNCT", "R:OTHER")
_ROUND_TRIP = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@st.composite
def _m2_block(draw) -> tuple[tuple[str, ...], dict[int, tuple[GoldEdit, ...]]]:
    source = tuple(draw(st.lists(_M2_TOKEN, min_size=1, max_size=6)))
    edits = {}
    for annotator in draw(st.sets(st.integers(0, 3), max_size=3)):
        # Sorted cut points paired up give sorted, disjoint spans.
        points = sorted(draw(st.lists(st.integers(0, len(source)), max_size=6)))
        edits[annotator] = tuple(
            GoldEdit(
                start, end, draw(st.sampled_from(_EDIT_TYPES)),
                tuple(draw(st.lists(_M2_TOKEN, max_size=3).filter(lambda c: c != ["-NONE-"]))),
            )
            for start, end in zip(points[::2], points[1::2])
        )
    return source, edits


@_ROUND_TRIP
@given(st.lists(st.tuples(_SENTENCE, _SENTENCE), max_size=8))
def test_tsv_write_read_round_trip(tmp_path: Path, sides):
    pairs = [ParallelExample(s, t, id=str(i)) for i, (s, t) in enumerate(sides, start=1)]
    path = tmp_path / "pairs.tsv"
    assert write_parallel_tsv(pairs, path) == len(pairs)
    assert list(read_parallel_tsv(path)) == pairs


@_ROUND_TRIP
@given(st.lists(st.tuples(st.text(max_size=5), _SENTENCE, _SENTENCE, _META), max_size=8))
def test_jsonl_write_read_round_trip(tmp_path: Path, rows):
    pairs = [ParallelExample(s, t, id=i, meta=m) for i, s, t, m in rows]
    path = tmp_path / "pairs.jsonl"
    assert write_jsonl(pairs, path) == len(pairs)
    assert list(read_jsonl(path)) == pairs


@_ROUND_TRIP
@given(st.lists(_m2_block(), max_size=5))
def test_m2_write_read_round_trip(tmp_path: Path, blocks):
    examples = [AnnotatedExample(s, e, id=str(i)) for i, (s, e) in enumerate(blocks)]
    path = tmp_path / "gold.m2"
    assert write_m2(examples, path) == len(examples)
    assert list(read_m2(path)) == examples


# ASCII and Unicode whitespace, plus zero-width space and BOM, which are not.
_TRICKY = st.text(
    st.sampled_from(["a", "b", "\u00e9", " ", "\t", "\x0b", "\x1c", "\x85", "\xa0",
                     "\u2003", "\u3000", "\u200b", "\ufeff"]),
    max_size=4,
)


def _check_outcome(check, tokens, allow_empty):
    try:
        check(tokens, "side", allow_empty=allow_empty)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=1000, deadline=None)
@given(st.lists(_TRICKY, max_size=5).map(tuple), st.booleans())
def test_check_tokens_matches_reference(tokens, allow_empty):
    assert _check_outcome(check_tokens, tokens, allow_empty) == _check_outcome(
        reference_check_tokens, tokens, allow_empty
    )


# ---------------------------------------------------------------------------
# The M2 reader against its frozen copy, on valid and malformed files

# A side whose tokens may break the token rule.
_M2_SIDE = st.lists(st.sampled_from(["a", "b", "c", "|", "", "\t", "x\u3000y"]), max_size=4).map(
    " ".join
)
# A field of an A-line set to a value that breaks the line: (index, value),
# where index 6 adds a seventh field and the value None drops the field.
_M2_BROKEN = st.sampled_from([
    (0, "-1 -1"), (1, "noop"), (0, "2 1"), (0, "0 9"), (0, "1"), (0, "x 1"), (5, "x"),
    (6, "extra"), (5, None),
]) | st.tuples(st.just(2), _M2_SIDE)


def _mostly(draw, good, bad):
    """A value of ``good``, or one time in ten of ``bad``."""
    return draw(bad if draw(st.integers(0, 9)) == 9 else good)


@st.composite
def _m2_a_line(draw) -> str:
    span, etype = draw(st.sampled_from([
        ("0 1", "R:X"), ("1 2", "R:X"), ("0 2", "R:X"), ("0 0", "M:DET"), ("1 1", "M:DET"),
        ("-1 -1", "noop"),
    ]))
    correction = draw(st.sampled_from(["-NONE-", "", "y", "y z"]))
    fields = [span, etype, correction, "REQUIRED", "-NONE-", draw(st.sampled_from("0122"))]
    if draw(st.integers(0, 9)) == 9:
        i, value = draw(_M2_BROKEN)
        fields[i:i + 1] = [] if value is None else [value]
    return "A " + "|||".join(fields)


@st.composite
def _m2_lines(draw) -> list[str]:
    """An M2 file's lines: blocks of an S-line and A-lines, each ended one way or another."""
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        lines.append("S " + _mostly(draw, st.sampled_from(["a b c", "a b", "a"]), _M2_SIDE))
        lines += draw(st.lists(_m2_a_line(), max_size=4))
        lines += _mostly(
            draw, st.sampled_from([[""], [""], [""], [" "], ["\t"], [], ["", ""]]),
            st.sampled_from(
                [["T x"], ["S"], ["A"], ["", "A 0 1|||R:X|||y|||REQUIRED|||-NONE-|||0"]]
            ),
        )
    return lines


def _m2_outcome(read, path):
    """The examples ``read`` gives, or its error's class, line number and message."""
    try:
        return list(read(path))
    except Exception as exc:  # the error is the outcome compared
        return type(exc), getattr(exc, "line_no", None), str(exc)


@settings(_ROUND_TRIP, max_examples=300)
@given(_m2_lines(), st.booleans())
def test_m2_reader_matches_reference(tmp_path: Path, lines, final_newline):
    path = tmp_path / "gold.m2"
    path.write_text("\n".join(lines) + "\n" * final_newline, encoding="utf-8")
    got = _m2_outcome(read_m2, path)
    if isinstance(got, tuple) and got[2].startswith(f"{path}:{got[1]}: correction "):
        # The one change: GoldEdit's token check refuses a correction with an
        # empty or whitespace-bearing token at its A-line. Before it, nothing changed.
        line_no = got[1]
        tokens = tuple(lines[line_no - 1].split("|||")[2].split(" "))
        with pytest.raises(ValueError) as err:
            check_tokens(tokens, "correction", allow_empty=True)
        assert got == (MalformedLine, line_no, f"{path}:{line_no}: {err.value}")
        path.write_text("\n".join(lines[: line_no - 1]), encoding="utf-8")
        got = _m2_outcome(read_m2, path)
    assert got == _m2_outcome(reference_read_m2, path)

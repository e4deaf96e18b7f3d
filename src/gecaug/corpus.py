"""Parallel corpus containers and file formats.

Three interchange formats are supported:

* TSV: one pair per line, ``wrong<TAB>correct``, both sides pre-tokenized
  with single spaces.
* M2: blocks of one ``S`` source line plus ``A`` annotation lines, the
  shared format of GEC shared tasks. One block may carry several
  annotators, keyed by the trailing annotator id field.
* JSONL: one object per line with ``id``, ``source``, ``target`` and an
  optional ``meta`` map.

All readers are strict. Undecodable bytes, ragged rows, out-of-range edit
spans and schema violations raise typed errors carrying the file path and
line number instead of letting garbage flow downstream.

This module is also the one row layer for every JSONL file of the
pipeline (pairs, pools, samples): ``read_json_rows`` is the one strict
reader, ``canonical_json`` the one row encoder, ``split_tokens`` the one
checked split of a side, and ``is_int`` the one integer check, which
rejects ``true``/``false``. Every reader reports a
byte that is not UTF-8 at the line that holds it. Whole-file JSON
(configs, plans) is read by ``read_json_file``, as strictly.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Iterable, Iterator, Mapping, Sequence


# The context widths a pattern may span.
VALID_N = (1, 3, 5)


class CodedError(Exception):
    """A failure reported by its error ``code``; the CLI exits with ``exit_code``."""

    code = "ERROR"
    exit_code = 1


class CorpusError(CodedError):
    """A corpus ingest or validation failure at one line of one file."""

    code = "CORPUS"

    def __init__(self, path: str, line_no: int, reason: str):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = path
        self.line_no = line_no
        self.reason = reason


class MalformedLine(CorpusError):
    """A line that cannot be parsed under the declared format."""
    code = "MALFORMED_LINE"


class SpanOutOfBounds(CorpusError):
    """An edit span that does not fit the source sentence."""
    code = "SPAN_OUT_OF_BOUNDS"


class SchemaError(CorpusError):
    """A structurally valid record missing required fields or types."""
    code = "SCHEMA"


def is_int(value) -> bool:
    """True for an int that is not a bool, as an integer field must be."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_tokens(tokens: tuple[str, ...], label: str, allow_empty: bool = False) -> None:
    """Raise ValueError on an empty or whitespace token, or no tokens unless ``allow_empty``."""
    # Fast path: ``str.split()`` and ``str.isspace()`` share one whitespace
    # table, so the tokens split back to themselves exactly when none is
    # empty or holds whitespace. The loop below finds the error message.
    if tokens and " ".join(tokens).split() == list(tokens):
        return
    if not tokens and not allow_empty:
        raise ValueError(f"{label} side is empty")
    for tok in tokens:
        if tok == "":
            raise ValueError(f"{label} side contains an empty token")
        if any(ch.isspace() for ch in tok):
            raise ValueError(f"{label} token {tok!r} contains whitespace")


def split_tokens(text: str, label: str) -> tuple[str, ...]:
    """``text`` split at single spaces, with ``check_tokens``' ValueError for a bad token.

    The tokens pass exactly when splitting at any whitespace gives the same
    list (see ``check_tokens``), so only a bad side is checked token by
    token. An empty ``text`` is one empty token.
    """
    tokens = text.split(" ")
    if tokens != text.split():
        check_tokens(tuple(tokens), label)
    return tuple(tokens)


@dataclass(frozen=True)
class ParallelExample:
    """One wrong/correct sentence pair, both sides tokenized."""

    source: tuple[str, ...]
    target: tuple[str, ...]
    id: str
    meta: Mapping[str, object] | None = None

    def __post_init__(self):
        object.__setattr__(self, "source", tuple(self.source))
        object.__setattr__(self, "target", tuple(self.target))
        check_tokens(self.source, "source")
        check_tokens(self.target, "target")


def _split_pair(path: str, line_no: int, source: str, target: str, id: str, meta=None):
    """The pair of a TSV or JSONL row, each side split and checked once.

    Equal sides share one tuple. A bad side raises MalformedLine with the
    message ``ParallelExample`` gives, whose checks are not run again.
    """
    try:
        src = split_tokens(source, "source")
        tgt = src if target == source else split_tokens(target, "target")
    except ValueError as exc:
        raise MalformedLine(path, line_no, str(exc)) from exc
    pair = object.__new__(ParallelExample)
    pair.__dict__.update(source=src, target=tgt, id=id, meta=meta)
    return pair


@dataclass(frozen=True)
class GoldEdit:
    """One annotated edit: replace source[start:end] with ``correction``.

    ``correction`` is empty for deletions; its tokens are checked as a
    pair's are (``check_tokens``). ``start == end`` marks an insertion
    point. ``type`` is the annotation scheme's label and is carried
    verbatim.
    """

    start: int
    end: int
    type: str
    correction: tuple[str, ...]
    required: str = "REQUIRED"
    comment: str = "-NONE-"

    def __post_init__(self):
        object.__setattr__(self, "correction", tuple(self.correction))
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"bad edit span ({self.start}, {self.end})")
        check_tokens(self.correction, "correction", allow_empty=True)


@dataclass(frozen=True)
class AnnotatedExample:
    """A source sentence plus per-annotator gold edits.

    ``edits`` maps annotator id to a tuple of edits sorted by span. An
    annotator present with an empty tuple recorded an explicit "no
    correction needed" judgement; an absent annotator recorded nothing.
    """

    source: tuple[str, ...]
    edits: Mapping[int, tuple[GoldEdit, ...]] = field(default_factory=dict)
    id: str = ""

    def __post_init__(self):
        object.__setattr__(self, "source", tuple(self.source))
        check_tokens(self.source, "source")
        fixed = {int(a): tuple(es) for a, es in self.edits.items()}
        object.__setattr__(self, "edits", fixed)
        for annotator, edits in fixed.items():
            try:
                splice(self.source, [(e.start, e.end, ()) for e in edits])
            except ValueError as exc:
                raise ValueError(f"annotator {annotator}: {exc}") from exc


def splice(
    tokens: Sequence[str], edits: Iterable[tuple[int, int, Sequence[str]]]
) -> tuple[tuple[str, ...], list[tuple[int, int]]]:
    """Replace ``tokens[a:b]`` with ``r`` for each ``(a, b, r)`` of sorted ``edits``.

    Edits land left to right, those at one point in the order given. Returns
    the new tokens and the span each ``r`` takes in them. An edit that
    overlaps the one before it, or does not fit ``tokens``, is a ValueError.
    """
    out: list[str] = []
    spans = []
    cursor = 0
    for a, b, r in edits:
        if not cursor <= a <= b <= len(tokens):
            raise ValueError(f"edit ({a}, {b}) overlaps the one before it or does not fit")
        out.extend(tokens[cursor:a])
        spans.append((len(out), len(out) + len(r)))
        out.extend(r)
        cursor = b
    out.extend(tokens[cursor:])
    return tuple(out), spans


def apply_gold_edits(source: Sequence[str], edits: Iterable[GoldEdit]) -> tuple[str, ...]:
    """The corrected tokens; edits at one point apply in list order (see ``splice``)."""
    ordered = sorted(edits, key=lambda e: (e.start, e.end))
    return splice(source, [(e.start, e.end, e.correction) for e in ordered])[0]


# ---------------------------------------------------------------------------
# Lines and JSON rows

def _lines(path: str) -> Iterator[tuple[int, str]]:
    """(line number, line without its newline) for each line of a UTF-8 file.

    The file is read in text mode with universal newlines. A byte that is
    not UTF-8 raises MalformedLine at the line that holds it.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                yield line_no, line.rstrip("\n")
    except UnicodeDecodeError as exc:
        line_no, line_exc = _bad_utf8(path, exc)
        raise MalformedLine(path, line_no, f"invalid UTF-8: {line_exc}") from exc


def _bad_utf8(path: str, exc: UnicodeDecodeError) -> tuple[int, UnicodeDecodeError]:
    """The first line of ``path`` that is not UTF-8, and its decode error.

    Lines split as in text mode. No newline byte occurs inside a UTF-8
    sequence, so the first line that fails on its own holds the first bad byte.
    """
    line_no = 0
    with open(path, "rb") as fh:
        for chunk in fh:
            for line in chunk.splitlines():
                line_no += 1
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as line_exc:
                    return line_no, line_exc
    return line_no, exc


def read_json_rows(path) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each row of a JSONL file; callers check the fields.

    Raises MalformedLine for bad UTF-8 or JSON, SchemaError for a non-object row.
    """
    path = os.fspath(path)
    for line_no, line in _lines(path):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedLine(path, line_no, f"invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise SchemaError(path, line_no, "row is not an object")
        yield line_no, obj


def read_json_file(path):
    """The JSON value of a whole UTF-8 file (a config or plan).

    Raises MalformedLine at line 0 for bad UTF-8 or JSON; each caller
    re-raises its ``reason`` under its own error.
    """
    path = os.fspath(path)
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise MalformedLine(path, 0, f"invalid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedLine(path, 0, f"invalid JSON: {exc}") from exc


_ROW_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True)


def canonical_json(obj) -> str:
    """The one text of a JSON row or hashed config: sorted keys, UTF-8 kept."""
    return _ROW_ENCODER.encode(obj)


_WRITE_BATCH = 1024


def write_lines(lines: Iterable[str], path) -> int:
    """Write each line plus a newline to ``path``, a batch of lines per write.

    Returns the number written.
    """
    count = 0
    lines = iter(lines)
    with open(os.fspath(path), "w", encoding="utf-8") as fh:
        while batch := list(islice(lines, _WRITE_BATCH)):
            batch.append("")  # so that the join ends the last line too
            fh.write("\n".join(batch))
            count += len(batch) - 1
    return count


# ---------------------------------------------------------------------------
# TSV

def read_parallel_tsv(path, id_prefix: str = "") -> Iterator[ParallelExample]:
    """Yield pairs from a ``wrong<TAB>correct`` file.

    Pair ids are ``id_prefix`` plus 1-based line numbers as strings. Raises
    MalformedLine on ragged rows, empty sides, whitespace-broken tokens or
    undecodable bytes.
    """
    path = os.fspath(path)
    for line_no, line in _lines(path):
        fields = line.split("\t")
        if len(fields) != 2:
            raise MalformedLine(
                path, line_no, f"expected 2 tab-separated fields, got {len(fields)}"
            )
        yield _split_pair(path, line_no, fields[0], fields[1], id_prefix + str(line_no))


def write_parallel_tsv(examples: Iterable[ParallelExample], path) -> int:
    """Write pairs as TSV. Returns the number of lines written."""
    lines = (" ".join(ex.source) + "\t" + " ".join(ex.target) for ex in examples)
    return write_lines(lines, path)


# ---------------------------------------------------------------------------
# M2

_NOOP_TYPE = "noop"
_NONE_FIELD = "-NONE-"


def _parse_a_line(path: str, line_no: int, payload: str, n_source: int):
    """Parse one A-line payload. Returns (annotator, GoldEdit | None)."""
    fields = payload.split("|||")
    if len(fields) != 6:
        raise MalformedLine(
            path, line_no, f"expected 6 '|||'-separated fields, got {len(fields)}"
        )
    span_part, etype, correction, required, comment, annot_part = fields
    span_bits = span_part.split()
    if len(span_bits) != 2:
        raise MalformedLine(path, line_no, f"bad span field {span_part!r}")
    try:
        start, end = int(span_bits[0]), int(span_bits[1])
    except ValueError as exc:
        raise MalformedLine(path, line_no, f"non-integer span {span_part!r}") from exc
    try:
        annotator = int(annot_part)
    except ValueError as exc:
        raise MalformedLine(path, line_no, f"non-integer annotator {annot_part!r}") from exc

    if etype == _NOOP_TYPE or (start, end) == (-1, -1):
        # Both halves of the noop convention must appear together.
        if etype != _NOOP_TYPE or (start, end) != (-1, -1):
            raise MalformedLine(
                path, line_no, "noop requires both type 'noop' and span -1 -1"
            )
        return annotator, None

    if start < 0 or end < start or end > n_source:
        raise SpanOutOfBounds(
            path, line_no,
            f"span ({start}, {end}) does not fit sentence of length {n_source}",
        )
    corr_tokens = () if correction in (_NONE_FIELD, "") else correction.split(" ")
    try:
        return annotator, GoldEdit(start, end, etype, corr_tokens, required, comment)
    except ValueError as exc:
        raise MalformedLine(path, line_no, str(exc)) from exc


def read_m2(path) -> Iterator[AnnotatedExample]:
    """Yield annotated examples from an M2 file.

    Block ids are 0-based block indices as strings. Noop annotations yield
    an annotator with an empty edit tuple. Per-annotator edits must arrive
    sorted and non-overlapping.
    """
    path = os.fspath(path)
    block_id = 0
    source = None  # the open block's tokens, from its S-line at source_line
    # The end of the file ends a block as a blank line does.
    for line_no, line in chain(_lines(path), [(0, "")]):
        blank = line.strip() == ""
        if source is not None and (blank or line.startswith("S ")):
            try:
                example = AnnotatedExample(
                    source, {a: es or () for a, es in edits.items()}, str(block_id)
                )
            except ValueError as exc:
                raise MalformedLine(path, source_line, str(exc)) from exc
            yield example
            block_id += 1
            source = None
        if blank:
            continue
        if line.startswith("S "):
            try:
                source = split_tokens(line[2:], "source")
            except ValueError as exc:
                raise MalformedLine(path, line_no, str(exc)) from exc
            source_line = line_no
            edits: dict[int, list[GoldEdit] | None] = {}  # None for a noop annotator
        elif not line.startswith("A "):
            raise MalformedLine(path, line_no, f"unrecognized line {line[:40]!r}")
        elif source is None:
            raise MalformedLine(path, line_no, "A-line before any S-line")
        else:
            annotator, edit = _parse_a_line(path, line_no, line[2:], len(source))
            kept = edits.setdefault(annotator, None if edit is None else [])
            if (kept is None) != (edit is None):
                raise MalformedLine(
                    path, line_no, f"annotator {annotator} mixes noop and edits"
                )
            if edit is not None:
                kept.append(edit)


def write_m2(examples: Iterable[AnnotatedExample], path) -> int:
    """Write annotated examples as M2. Returns the number of blocks written.

    Annotators are emitted in ascending id order; an annotator with no
    edits becomes an explicit noop line, so reading the file back restores
    the same structure.
    """
    count = 0
    with open(os.fspath(path), "w", encoding="utf-8") as fh:
        for ex in examples:
            if count:
                fh.write("\n")
            fh.write("S " + " ".join(ex.source) + "\n")
            for annotator in sorted(ex.edits):
                edits = ex.edits[annotator]
                if not edits:
                    fh.write(
                        f"A -1 -1|||{_NOOP_TYPE}|||{_NONE_FIELD}|||REQUIRED"
                        f"|||{_NONE_FIELD}|||{annotator}\n"
                    )
                    continue
                for e in edits:
                    corr = " ".join(e.correction) if e.correction else _NONE_FIELD
                    fh.write(
                        f"A {e.start} {e.end}|||{e.type}|||{corr}"
                        f"|||{e.required}|||{e.comment}|||{annotator}\n"
                    )
            count += 1
    return count


# ---------------------------------------------------------------------------
# JSONL

def read_jsonl(path, id_prefix: str = "") -> Iterator[ParallelExample]:
    """Yield pairs from a JSONL file of {id, source, target, meta?} objects.

    Pair ids are ``id_prefix`` plus the row's ``id``. Unknown keys are
    ignored so enriched rows (synthesis output, relabeled corpora) load
    with the same reader. Raises MalformedLine for broken JSON or
    token-level problems and SchemaError for missing or mistyped required
    keys.
    """
    path = os.fspath(path)
    for line_no, obj in read_json_rows(path):
        for key in ("id", "source", "target"):
            if key not in obj:
                raise SchemaError(path, line_no, f"missing key {key!r}")
            if not isinstance(obj[key], str):
                raise SchemaError(path, line_no, f"key {key!r} is not a string")
        meta = obj.get("meta")
        if meta is not None and not isinstance(meta, dict):
            raise SchemaError(path, line_no, "key 'meta' is not an object")
        yield _split_pair(
            path, line_no, obj["source"], obj["target"], id_prefix + obj["id"], meta
        )


def jsonl_line(ex: ParallelExample) -> str:
    """One pair as its canonical JSONL row (no trailing newline)."""
    row: dict[str, object] = {
        "id": ex.id,
        "source": " ".join(ex.source),
        "target": " ".join(ex.target),
    }
    if ex.meta is not None:
        row["meta"] = ex.meta
    return canonical_json(row)


def write_jsonl(examples: Iterable[ParallelExample], path) -> int:
    """Write pairs as JSONL. Returns the number of rows written."""
    return write_lines(map(jsonl_line, examples), path)


def read_pairs(path, id_prefix: str = "") -> Iterator[ParallelExample]:
    """Read a parallel corpus, dispatching on extension (.tsv or .jsonl)."""
    name = os.fspath(path)
    if name.endswith(".tsv"):
        return read_parallel_tsv(name, id_prefix)
    if name.endswith(".jsonl"):
        return read_jsonl(name, id_prefix)
    raise ValueError(f"unsupported corpus format: {name!r} (want .tsv or .jsonl)")

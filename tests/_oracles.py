"""Independent reference implementations used to cross-check the library.

``oracle_alignment_cost`` is written independently against the cost
scheme's definition, sharing no code with the package: plain memoized
recursion, its own LCS, its own multiset test. Slow but trustworthy.

``reference_align_tokens`` is a frozen copy of the original full-table
aligner (every cell prices its substitution, every transposition window
is scanned), kept so that optimisations of ``gecaug.align.align_tokens``
can be required to return the same op sequence, tie-breaks included.
Only the ``AlignOp`` record and the op-kind names are shared, so op lists
compare with ``==``.

``reference_check_tokens`` is a frozen copy of the original per-character
token check, and ``reference_mix`` / ``reference_ratio_sweep`` of the
original mixer, which read every input once per cap. They share the
package's readers and ``StagePlan``, so examples and manifests compare
with ``==``.

``reference_apply_edits``, ``reference_apply_gold_edits``,
``reference_substitute``, ``reference_unplant`` and
``reference_build_finetune_example`` are frozen copies of the five span
rewrites that each ran their own loop before ``gecaug.corpus.splice``
took their place. The first two applied edits right to left, so two
edits at one point landed in reverse order; on every other input all
five agree with the package.

``reference_build_pool`` is a frozen copy of ``build_pool`` from before it
checked each distinct pattern once; it shares the package's
``extend_to_ngram``, so pools compare with ``==``.

``reference_read_parallel_tsv``, ``reference_read_jsonl`` and
``reference_read_samples`` are frozen copies of the readers before they
split each side once and built each sample pattern once per file. They
share the package's line and row readers, its token check and its
pattern row check, so rows compare with ``==`` and errors by class and
message.

``reference_read_m2`` (with ``_reference_parse_a_line``) and
``reference_score`` are frozen copies of the M2 reader, with its
``flush`` closure, and of ``score``, with its per-category dicts and
running totals, from before the gold path was rewritten. They share the
package's ``GoldEdit``, ``AnnotatedExample`` and report classes, so
examples and reports compare with ``==`` and errors by class and
message. Since ``GoldEdit`` checks its correction, the frozen reader
raises that check's bare ValueError on a whitespace-bearing correction
token, which the original accepted.

``reference_read_reply`` is the reply reader the HTTP client used before
it spoke HTTP/1.1 over its socket itself: ``http.client.HTTPResponse``,
read as the client read it.
"""

from __future__ import annotations

import hashlib
import io
import os
from collections import Counter
from dataclasses import replace
from functools import lru_cache
from random import Random
from typing import Iterable, Iterator, Sequence

from gecaug.align import (
    DELETE, INSERT, MATCH, SUBSTITUTE, TRANSPOSE, AlignOp, Edit, extract_edits,
)
from gecaug.corpus import (
    AnnotatedExample, GoldEdit, MalformedLine, ParallelExample, SchemaError, SpanOutOfBounds,
    _lines, check_tokens, is_int, read_json_rows, read_jsonl, read_pairs,
)
from gecaug.generation import MASK, SEP, FinetuneExample
from gecaug.mix import StagePlan
from gecaug.patterns import ErrorPattern, PatternPool, extend_to_ngram, pattern_from_row
from gecaug.scoring import (
    CategoryScore, ScoreReport, ScoringError, f_beta, f_beta_from_rates,
)
from gecaug.synthesis import Match, SyntheticSample


def _lcs_len(a: str, b: str) -> int:
    la, lb = len(a), len(b)
    table = [[0] * (lb + 1) for _ in range(la + 1)]
    for i in range(1, la + 1):
        for j in range(1, lb + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[la][lb]


def _oracle_sub_cost(a: str, b: str) -> float:
    if a.lower() == b.lower():
        return 1.0
    if max(len(a), len(b)) == 0:
        return 2.0
    if _lcs_len(a, b) / max(len(a), len(b)) >= 0.5:
        return 1.5
    return 2.0


def oracle_alignment_cost(source: tuple[str, ...], target: tuple[str, ...]) -> float:
    """Minimal alignment cost by exhaustive memoized recursion."""

    src = tuple(source)
    tgt = tuple(target)

    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> float:
        if i == 0 and j == 0:
            return 0.0
        best = float("inf")
        if i > 0 and j > 0:
            if src[i - 1] == tgt[j - 1]:
                best = min(best, go(i - 1, j - 1))
            else:
                best = min(best, go(i - 1, j - 1) + _oracle_sub_cost(src[i - 1], tgt[j - 1]))
        if i > 0:
            best = min(best, go(i - 1, j) + 1.0)
        if j > 0:
            best = min(best, go(i, j - 1) + 1.0)
        for k in range(2, min(i, j) + 1):
            a = src[i - k:i]
            b = tgt[j - k:j]
            if a != b and sorted(a) == sorted(b):
                best = min(best, go(i - k, j - k) + k - 0.5)
        return best

    return go(len(src), len(tgt))


@lru_cache(maxsize=65536)
def _reference_char_similarity(a: str, b: str) -> float:
    """LCS(a, b) / max(len(a), len(b)) over characters."""
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return 0.0
    prev = [0] * (lb + 1)
    for i in range(1, la + 1):
        cur = [0] * (lb + 1)
        ai = a[i - 1]
        for j in range(1, lb + 1):
            if ai == b[j - 1]:
                cur[j] = prev[j - 1] + 1
            elif prev[j] >= cur[j - 1]:
                cur[j] = prev[j]
            else:
                cur[j] = cur[j - 1]
        prev = cur
    return prev[lb] / max(la, lb)


def _reference_substitution_cost(a: str, b: str) -> float:
    """Cost of substituting token ``a`` with ``b`` (assumed unequal)."""
    if a.lower() == b.lower():
        return 1.0
    if _reference_char_similarity(a, b) >= 0.5:
        return 1.5
    return 2.0


def reference_align_tokens(source: Sequence[str], target: Sequence[str]) -> list[AlignOp]:
    """Return the minimal-cost operation sequence aligning source to target.

    Frozen copy of the original ``gecaug.align.align_tokens``; do not edit.
    """
    src = list(source)
    tgt = list(target)
    n, m = len(src), len(tgt)

    cost = [[0.0] * (m + 1) for _ in range(n + 1)]
    back: list[list[tuple[str, int]]] = [[("", 0)] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        cost[i][0] = float(i)
        back[i][0] = (DELETE, 1)
    for j in range(1, m + 1):
        cost[0][j] = float(j)
        back[0][j] = (INSERT, 1)

    for i in range(1, n + 1):
        s_tok = src[i - 1]
        row = cost[i]
        prev_row = cost[i - 1]
        for j in range(1, m + 1):
            t_tok = tgt[j - 1]
            if s_tok == t_tok:
                best_cost = prev_row[j - 1]
                best_op = (MATCH, 1)
            else:
                best_cost = prev_row[j - 1] + _reference_substitution_cost(s_tok, t_tok)
                best_op = (SUBSTITUTE, 1)
            cand = prev_row[j] + 1.0
            if cand < best_cost:
                best_cost, best_op = cand, (DELETE, 1)
            cand = row[j - 1] + 1.0
            if cand < best_cost:
                best_cost, best_op = cand, (INSERT, 1)

            # Transposition windows, grown one token at a time with an
            # incremental multiset difference so each step is O(1).
            if i >= 2 and j >= 2:
                diff: dict[str, int] = {}
                nonzero = 0
                seq_equal = True
                for k in range(1, min(i, j) + 1):
                    a, b = src[i - k], tgt[j - k]
                    seq_equal = seq_equal and a == b
                    if a != b:
                        v = diff.get(a, 0)
                        nonzero += (v == 0) - (v == -1)
                        diff[a] = v + 1
                        v = diff.get(b, 0)
                        nonzero += (v == 0) - (v == 1)
                        diff[b] = v - 1
                    if k >= 2 and nonzero == 0 and not seq_equal:
                        cand = cost[i - k][j - k] + k - 0.5
                        if cand < best_cost:
                            best_cost, best_op = cand, (TRANSPOSE, k)

            row[j] = best_cost
            back[i][j] = best_op

    ops: list[AlignOp] = []
    i, j = n, m
    while i > 0 or j > 0:
        kind, k = back[i][j]
        if kind == MATCH or kind == SUBSTITUTE:
            ops.append(AlignOp(kind, (i - 1, i), (j - 1, j)))
            i, j = i - 1, j - 1
        elif kind == DELETE:
            ops.append(AlignOp(kind, (i - 1, i), (j, j)))
            i -= 1
        elif kind == INSERT:
            ops.append(AlignOp(kind, (i, i), (j - 1, j)))
            j -= 1
        else:
            ops.append(AlignOp(kind, (i - k, i), (j - k, j)))
            i, j = i - k, j - k
    ops.reverse()
    return ops


def reference_build_pool(corpus: Iterable[ParallelExample], n: int) -> PatternPool:
    """Frozen copy of the original ``gecaug.patterns.build_pool``; do not edit."""
    counts: Counter[ErrorPattern] = Counter()
    for pair in corpus:
        edits = extract_edits(pair)
        for edit in edits:
            counts[extend_to_ngram(edit, pair.source, pair.target, n, edits)] += 1
    return PatternPool(counts, n)


def reference_check_tokens(
    tokens: tuple[str, ...], label: str, allow_empty: bool = False
) -> None:
    """Frozen copy of the original ``gecaug.corpus.check_tokens``; do not edit."""
    if not tokens and not allow_empty:
        raise ValueError(f"{label} side is empty")
    for tok in tokens:
        if tok == "":
            raise ValueError(f"{label} side contains an empty token")
        if any(ch.isspace() for ch in tok):
            raise ValueError(f"{label} token {tok!r} contains whitespace")


def _reference_content_hash(examples: Sequence[ParallelExample]) -> str:
    hashes = []
    for ex in examples:
        text = " ".join(ex.source) + "\t" + " ".join(ex.target)
        hashes.append(hashlib.sha256(text.encode("utf-8")).hexdigest())
    return hashlib.sha256("\n".join(sorted(hashes)).encode("utf-8")).hexdigest()


def reference_mix(plan: StagePlan) -> tuple[list[ParallelExample], dict]:
    """Frozen copy of the original ``gecaug.mix.mix``; do not edit."""
    combined: list[ParallelExample] = []
    origins: list[dict] = []
    for k, path in enumerate(plan.real):
        items = list(read_pairs(path))
        combined.extend(replace(ex, id=f"{k}:{ex.id}") for ex in items)
        origins.append({"path": path, "kind": "real", "count": len(items)})
    if plan.synthetic is not None:
        items = list(read_jsonl(plan.synthetic))
        cap = plan.synthetic_count or 0
        if cap > len(items):
            raise ValueError(
                f"synthetic_count {cap} exceeds corpus size {len(items)}"
            )
        k = len(plan.real)
        combined.extend(replace(ex, id=f"{k}:{ex.id}") for ex in items[:cap])
        origins.append({"path": plan.synthetic, "kind": "synthetic", "count": cap})
    rng = Random(plan.seed)
    rng.shuffle(combined)
    manifest = {
        "stage": plan.stage,
        "seed": plan.seed,
        "origins": origins,
        "total": len(combined),
        "content_hash": _reference_content_hash(combined),
    }
    return combined, manifest


def reference_ratio_sweep(
    plan: StagePlan, caps: Sequence[int]
) -> list[tuple[int, list[ParallelExample], dict]]:
    """Frozen copy of the original ``gecaug.mix.ratio_sweep``; do not edit."""
    if plan.synthetic is None:
        raise ValueError("ratio sweep needs a plan with a synthetic corpus")
    if len(set(caps)) != len(caps):
        raise ValueError("duplicate caps in sweep")
    out = []
    for cap in caps:
        capped = replace(plan, synthetic_count=cap)
        examples, manifest = reference_mix(capped)
        out.append((cap, examples, manifest))
    return out


def reference_apply_edits(source: Sequence[str], edits: Sequence[Edit]) -> tuple[str, ...]:
    """Frozen copy of the original ``gecaug.align.apply_edits``; do not edit."""
    out = list(source)
    for e in sorted(edits, key=lambda e: e.src_span, reverse=True):
        out[e.src_span[0]:e.src_span[1]] = e.replacement
    return tuple(out)


def reference_apply_gold_edits(
    source: tuple[str, ...], edits: Sequence[GoldEdit]
) -> tuple[str, ...]:
    """Frozen copy of the original ``gecaug.corpus.apply_gold_edits``; do not edit."""
    out = list(source)
    for e in sorted(edits, key=lambda e: (e.start, e.end), reverse=True):
        out[e.start:e.end] = e.correction
    return tuple(out)


def reference_substitute(
    tokens: Sequence[str],
    matches: Sequence[Match],
    rng: Random,
    error_rate: float,
    requested: Sequence[ErrorPattern] | None = None,
    generator_id: str = "",
    sample_id: str = "0",
) -> SyntheticSample:
    """Frozen copy of the original ``gecaug.synthesis.substitute``; do not edit."""
    if not 0.0 <= error_rate <= 1.0:
        raise ValueError(f"error_rate must lie in [0, 1], got {error_rate}")
    target = tuple(tokens)
    if requested is None:
        requested = tuple(p for p, _ in matches)
    apply = rng.random() < error_rate
    if not apply or not matches:
        return SyntheticSample(target, target, (), tuple(requested), generator_id, sample_id)
    source: list[str] = []
    planted: list[Match] = []
    cursor = 0
    for p, (start, end) in sorted(matches, key=lambda m: m[1]):
        source.extend(target[cursor:start])
        planted.append((p, (len(source), len(source) + len(p.wrong))))
        source.extend(p.wrong)
        cursor = end
    source.extend(target[cursor:])
    return SyntheticSample(
        tuple(source), target, tuple(planted), tuple(requested), generator_id, sample_id
    )


def reference_unplant(sample: SyntheticSample) -> str:
    """Frozen copy of the original ``OracleCorrector`` table entry; do not edit."""
    out = list(sample.source)
    # Right to left; of two empty plants at one point, the later goes first.
    for p, (a, b) in reversed(sorted(sample.planted, key=lambda m: m[1])):
        out[a:b] = p.correct
    return " ".join(out)


def reference_build_finetune_example(tokens: Sequence[str], rng: Random) -> FinetuneExample:
    """Frozen copy of the original ``gecaug.generation.build_finetune_example``; do not edit."""
    toks = list(tokens)
    n = len(toks)
    if n < 4:
        raise ValueError(f"sentence too short to mask ({n} tokens)")
    count = rng.randint(1, 2)
    max_len = min(4, n // 2)
    len1 = rng.randint(1, max_len)
    spans: list[tuple[int, int]]
    if count == 2 and n - 3 - len1 >= 1:
        len2 = rng.randint(1, min(max_len, n - 3 - len1))
        s1 = rng.randint(1, n - 2 - len1 - len2)
        s2 = rng.randint(s1 + len1 + 1, n - 1 - len2)
        spans = [(s1, s1 + len1), (s2, s2 + len2)]
    else:
        s1 = rng.randint(1, n - 1 - len1)
        spans = [(s1, s1 + len1)]

    masked: list[str] = []
    cursor = 0
    for start, end in spans:
        masked.extend(toks[cursor:start])
        masked.append(MASK)
        cursor = end
    masked.extend(toks[cursor:])

    i = len(masked) + 1
    text = " ".join(masked) + f" {SEP} " + " ".join(toks)
    return FinetuneExample(text, (i, i + n), tuple(spans))


def reference_read_parallel_tsv(path, id_prefix: str = "") -> Iterator[ParallelExample]:
    """Frozen copy of the original ``gecaug.corpus.read_parallel_tsv``; do not edit."""
    path = os.fspath(path)
    for line_no, line in _lines(path):
        fields = line.split("\t")
        if len(fields) != 2:
            raise MalformedLine(
                path, line_no, f"expected 2 tab-separated fields, got {len(fields)}"
            )
        try:
            yield ParallelExample(
                source=tuple(fields[0].split(" ")),
                target=tuple(fields[1].split(" ")),
                id=id_prefix + str(line_no),
            )
        except ValueError as exc:
            raise MalformedLine(path, line_no, str(exc)) from exc


def reference_read_jsonl(path, id_prefix: str = "") -> Iterator[ParallelExample]:
    """Frozen copy of the original ``gecaug.corpus.read_jsonl``; do not edit."""
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
        try:
            yield ParallelExample(
                source=tuple(obj["source"].split(" ")),
                target=tuple(obj["target"].split(" ")),
                id=id_prefix + obj["id"],
                meta=meta,
            )
        except ValueError as exc:
            raise MalformedLine(path, line_no, str(exc)) from exc


def reference_read_samples(path) -> Iterator[SyntheticSample]:
    """Frozen copy of the original ``gecaug.synthesis.read_samples``; do not edit."""
    path = os.fspath(path)
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
        source = tuple(obj["source"].split(" ")) if obj["source"] else ()
        target = tuple(obj["target"].split(" ")) if obj["target"] else ()
        try:
            check_tokens(source, "source")
            check_tokens(target, "target")
        except ValueError as exc:
            raise MalformedLine(path, line_no, str(exc)) from exc
        planted: list[Match] = []
        for entry in obj["planted"]:
            if not isinstance(entry, dict) or "span" not in entry:
                raise SchemaError(path, line_no, "planted entry must carry a span")
            p = pattern_from_row(entry, n, path, line_no)
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
        requested = tuple(
            pattern_from_row(entry, n, path, line_no) for entry in obj["requested"]
        )
        yield SyntheticSample(
            source, target, tuple(planted), requested, obj["generator"], obj["id"]
        )


def _reference_parse_a_line(path: str, line_no: int, payload: str, n_source: int):
    """Frozen copy of the original ``gecaug.corpus._parse_a_line``; do not edit."""
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

    if etype == "noop" or (start, end) == (-1, -1):
        # Both halves of the noop convention must appear together.
        if etype != "noop" or (start, end) != (-1, -1):
            raise MalformedLine(
                path, line_no, "noop requires both type 'noop' and span -1 -1"
            )
        return annotator, None

    if start < 0 or end < start or end > n_source:
        raise SpanOutOfBounds(
            path, line_no,
            f"span ({start}, {end}) does not fit sentence of length {n_source}",
        )
    if correction in ("-NONE-", ""):
        corr_tokens: tuple[str, ...] = ()
    else:
        corr_tokens = tuple(correction.split(" "))
        if any(t == "" for t in corr_tokens):
            raise MalformedLine(path, line_no, "correction contains an empty token")
    return annotator, GoldEdit(start, end, etype, corr_tokens, required, comment)


def reference_read_m2(path) -> Iterator[AnnotatedExample]:
    """Frozen copy of the original ``gecaug.corpus.read_m2``; do not edit."""
    path = os.fspath(path)

    source: tuple[str, ...] | None = None
    source_line = 0
    edits: dict[int, list[GoldEdit]] = {}
    noop: set[int] = set()
    block_index = 0

    def flush() -> AnnotatedExample:
        nonlocal source, edits, noop, block_index
        assert source is not None
        merged: dict[int, tuple[GoldEdit, ...]] = {a: tuple(es) for a, es in edits.items()}
        for a in noop:
            merged[a] = ()
        try:
            ex = AnnotatedExample(source=source, edits=merged, id=str(block_index))
        except ValueError as exc:
            raise MalformedLine(path, source_line, str(exc)) from exc
        source, edits, noop = None, {}, set()
        block_index += 1
        return ex

    for line_no, line in _lines(path):
        if line.strip() == "":
            if source is not None:
                yield flush()
            continue
        if line.startswith("S "):
            if source is not None:
                yield flush()
            source = tuple(line[2:].split(" "))
            source_line = line_no
            try:
                check_tokens(source, "source")
            except ValueError as exc:
                raise MalformedLine(path, line_no, str(exc)) from exc
        elif line.startswith("A "):
            if source is None:
                raise MalformedLine(path, line_no, "A-line before any S-line")
            annotator, edit = _reference_parse_a_line(path, line_no, line[2:], len(source))
            if edit is None:
                if annotator in edits:
                    raise MalformedLine(
                        path, line_no, f"annotator {annotator} mixes noop and edits"
                    )
                noop.add(annotator)
            else:
                if annotator in noop:
                    raise MalformedLine(
                        path, line_no, f"annotator {annotator} mixes noop and edits"
                    )
                edits.setdefault(annotator, []).append(edit)
        else:
            raise MalformedLine(path, line_no, f"unrecognized line {line[:40]!r}")
    if source is not None:
        yield flush()


def _reference_gold_edit_keys(ex: AnnotatedExample, annotator: int):
    return {
        (e.start, e.end, e.correction): e.type for e in ex.edits.get(annotator, ())
    }


def reference_score(
    hypothesis: Iterable[ParallelExample],
    gold: Iterable[AnnotatedExample],
    beta: float = 0.5,
) -> ScoreReport:
    """Frozen copy of the original ``gecaug.scoring.score``; do not edit."""
    total_tp = total_fp = total_fn = 0
    cat_tp: dict[str, int] = {}
    cat_fp: dict[str, int] = {}
    cat_fn: dict[str, int] = {}

    hyp_list = list(hypothesis)
    gold_list = list(gold)
    if len(hyp_list) != len(gold_list):
        raise ScoringError(
            f"hypothesis has {len(hyp_list)} sentences, gold has {len(gold_list)}"
        )
    for hyp, ann in zip(hyp_list, gold_list):
        if hyp.source != ann.source:
            raise ScoringError(
                f"source mismatch at hypothesis id {hyp.id!r} / gold id {ann.id!r}"
            )
        hyp_edits = extract_edits(hyp)
        hyp_keys = {(e.src_span[0], e.src_span[1], e.replacement): e for e in hyp_edits}

        annotators = sorted(ann.edits) or [0]
        best = None
        for annotator in annotators:
            gold_keys = _reference_gold_edit_keys(ann, annotator)
            tp = len(hyp_keys.keys() & gold_keys.keys())
            fp = len(hyp_keys) - tp
            fn = len(gold_keys) - tp
            sentence_f = f_beta(tp, fp, fn, beta)
            if best is None or sentence_f > best[0]:
                best = (sentence_f, annotator, gold_keys, tp, fp, fn)
        assert best is not None
        _, _, gold_keys, tp, fp, fn = best
        total_tp += tp
        total_fp += fp
        total_fn += fn
        for key, etype in gold_keys.items():
            if key in hyp_keys:
                cat_tp[etype] = cat_tp.get(etype, 0) + 1
            else:
                cat_fn[etype] = cat_fn.get(etype, 0) + 1
        for key, edit in hyp_keys.items():
            if key not in gold_keys:
                cat_fp[edit.coarse_type] = cat_fp.get(edit.coarse_type, 0) + 1

    precision = total_tp / (total_tp + total_fp) if total_tp + total_fp else 0.0
    recall = total_tp / (total_tp + total_fn) if total_tp + total_fn else 0.0
    per_category = {}
    for cat in sorted(set(cat_tp) | set(cat_fp) | set(cat_fn)):
        tp = cat_tp.get(cat, 0)
        fp = cat_fp.get(cat, 0)
        fn = cat_fn.get(cat, 0)
        per_category[cat] = CategoryScore(tp, fp, fn, f_beta(tp, fp, fn, beta))
    return ScoreReport(
        total_tp,
        total_fp,
        total_fn,
        precision,
        recall,
        f_beta_from_rates(precision, recall, beta),
        beta,
        per_category,
    )


def reference_read_reply(raw: bytes) -> tuple[int, str | None, bytes, bool]:
    """``http.client``'s reading of the reply bytes ``raw``: status,
    Retry-After, body and whether the connection stays open for the next
    request. The client keeps only HTTP/1.1 connections, so an HTTP/1.0
    reply that asks for keep-alive, which ``http.client`` would keep,
    counts as closing here."""
    import http.client

    class Replay:
        def makefile(self, mode):
            return io.BytesIO(raw)

    resp = http.client.HTTPResponse(Replay(), method="POST")
    resp.begin()
    body = resp.read()
    kept = resp.version == 11 and not resp.will_close
    return resp.status, resp.getheader("Retry-After"), body, kept

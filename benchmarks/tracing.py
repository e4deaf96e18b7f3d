"""Per-layer tracing for the benchmark's traced run.

Run as a script, this is a stage process: it imports ``gecaug``, replaces
the module attributes that callers look up with timing wrappers, runs
``gecaug.cli.main`` on the remaining arguments and writes the spans it
kept in memory to the file named by its first argument when the stage
ends::

    python benchmarks/tracing.py SPANS.json extract --in ... --out ...

A span is (id, name, start, end, parent id, attributes). A span opened in
a worker thread that has no open span of its own takes the main thread's
innermost open span as its parent, so slots that ``synthesize`` and
``relabel`` hand to a thread pool still nest under their stage.

Imported, it turns the span files of one traced round into the per-layer
metrics (``layer_metrics``). Nothing here changes what the program does.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter[str] = Counter()
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self) -> tuple[int, int | None, float]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def close(self, opened, name: str, attrs: dict | None = None) -> None:
        span_id, parent, start = opened
        end = time.perf_counter()
        self._stack().pop()
        self.spans.append((span_id, name, start, end, parent, attrs or {}))

    def wrap(self, name: str, fn, attrs=None):
        """Time every call of ``fn``; ``attrs(args, result)`` adds fields."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opened = self.open()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(opened, name, attrs(args, result) if attrs else None)

        return wrapper

    def wrap_rows(self, name: str, fn):
        """Time each row a generator function yields, as one span per row."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                opened = self.open()
                rows = 0
                try:
                    row = next(it)
                    rows = 1
                except StopIteration:
                    return
                finally:
                    self.close(opened, name, {"rows": rows})
                yield row

        return wrapper

    def wrap_whole(self, name: str, fn):
        """One span from the first row a generator yields to its end."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            opened = self.open()
            try:
                yield from it
            finally:
                self.close(opened, name)

        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def install(tracer: Tracer) -> None:
    """Replace the attributes each caller looks up with traced wrappers."""
    import requests

    # ``gecaug.mix`` the attribute is the function the package re-exports,
    # so modules are taken by name.
    cli, align, corpus, denoise, mix, patterns, synthesis, http = (
        importlib.import_module(f"gecaug.{name}")
        for name in ("cli", "align", "corpus", "denoise", "mix", "patterns", "synthesis", "_http")
    )
    t = tracer
    align.align_tokens = t.wrap(
        "align", align.align_tokens,
        lambda a, r: {"cells": (len(a[0]) + 1) * (len(a[1]) + 1)},
    )
    cli.build_pool = t.wrap("build_pool", cli.build_pool)
    cli.load_pool = t.wrap("load_pool", cli.load_pool)
    synthesis.sample_patterns = t.wrap("sample", synthesis.sample_patterns)
    cli.sample_patterns = t.wrap("sample", cli.sample_patterns)
    patterns.draw_pattern = t.counted("draws", patterns.draw_pattern)
    synthesis.generate = t.wrap(
        "generate", synthesis.generate,
        lambda a, r: {"refused": r is not None and r.status == "refused"},
    )
    cli.synthesize = t.wrap("synthesize", cli.synthesize)

    post = http.JsonHttpClient.post

    def traced_post(self, payload):
        opened = t.open()
        cpu0 = time.thread_time()
        try:
            return post(self, payload)
        finally:
            t.close(opened, "http", {"cpu_s": time.thread_time() - cpu0})

    http.JsonHttpClient.post = traced_post
    requests.Session.post = t.counted("http.attempts", requests.Session.post)

    cli.relabel = t.wrap_whole("relabel", cli.relabel)
    for cls in (denoise.IdentityCorrector, denoise.OracleCorrector,
                denoise.HttpCorrector):
        cls.correct_text = t.wrap("correct", cls.correct_text)
    cli.IdentityCorrector = t.wrap("corrector_init", cli.IdentityCorrector)
    cli.OracleCorrector = t.wrap("corrector_init", cli.OracleCorrector)
    cli.HttpCorrector = t.wrap("corrector_init", cli.HttpCorrector)

    corpus.read_parallel_tsv = t.wrap_rows("read", corpus.read_parallel_tsv)
    read_jsonl = t.wrap_rows("read", corpus.read_jsonl)
    corpus.read_jsonl = mix.read_jsonl = read_jsonl
    cli.read_m2 = t.wrap_rows("read", cli.read_m2)
    cli.read_samples = t.wrap_rows("read", cli.read_samples)
    cli.write_jsonl = t.wrap("write", cli.write_jsonl, lambda a, r: {"rows": r or 0})
    cli.write_samples = t.wrap("write", cli.write_samples, lambda a, r: {"rows": r or 0})
    cli.jsonl_line = t.wrap("write", cli.jsonl_line, lambda a, r: {"rows": 1})

    mix.mix = t.wrap("mix", mix.mix)
    cli.mix = t.wrap("mix", cli.mix)
    cli.score = t.wrap("score", cli.score)
    cli.distribution_from_counts = t.wrap("distribution", cli.distribution_from_counts)


def dump(tracer: Tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": dict(tracer.counts)}, fh)


def main(argv: list[str]) -> int:
    out, stage_argv = argv[0], argv[1:]
    import gecaug.cli

    tracer = Tracer()
    install(tracer)
    opened = tracer.open()
    try:
        return gecaug.cli.main(stage_argv)
    finally:
        tracer.close(opened, "stage")
        dump(tracer, out)


# ---------------------------------------------------------------------------
# Analysis, in the benchmark process

def _union(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total = 0.0
    cursor = lo
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, hi)
        if b > a:
            total += b - a
            cursor = b
    return total


class Spans:
    """The spans of one stage process, indexed by name and by parent."""

    def __init__(self, path: str):
        data = {"spans": [], "counts": {}}
        if os.path.exists(path):  # a stage that failed early wrote none
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        self.counts: dict[str, int] = data["counts"]
        self.by_id = {s[0]: s for s in data["spans"]}
        self.by_name: dict[str, list] = defaultdict(list)
        self.children: dict[int, list] = defaultdict(list)
        for s in data["spans"]:
            self.by_name[s[1]].append(s)
            self.children[s[4]].append(s)

    def total(self, name: str) -> float:
        return sum(s[3] - s[2] for s in self.by_name[name])

    def self_time(self, name: str) -> float:
        """Span time minus the part of it that child spans cover."""
        return sum(
            (s[3] - s[2]) - _union([(c[2], c[3]) for c in self.children[s[0]]], s[2], s[3])
            for s in self.by_name[name]
        )

    def under(self, span_id: int, ancestor_name: str) -> bool:
        parent = self.by_id[span_id][4]
        while parent is not None:
            if self.by_id[parent][1] == ancestor_name:
                return True
            parent = self.by_id[parent][4]
        return False


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(stage_spans: dict[str, Spans], facts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced round.

    ``facts`` carries what the spans cannot show: the samples and match
    counts from the ``.stats.json`` sidecar, the rows of every input the
    mix reads, and the service counters.
    """
    every = list(stage_spans.values())

    def total(name):
        return sum(s.total(name) for s in every)

    def calls(name):
        return sum(len(s.by_name[name]) for s in every)

    def attr_sum(name, key):
        return sum(sp[5].get(key, 0) for s in every for sp in s.by_name[name])

    def self_time(name):
        return sum(s.self_time(name) for s in every)

    http_waits = sorted(sp[3] - sp[2] for s in every for sp in s.by_name["http"])
    http_calls = len(http_waits)
    http_stage_wall = sum(s.total("stage") for s in every if s.by_name["http"])
    cells = attr_sum("align", "cells")
    samples = calls("sample")
    mix_rows = sum(
        sp[5]["rows"] for s in every for sp in s.by_name["read"] if s.under(sp[0], "mix")
    )
    attempts = calls("generate")

    def pct(q):
        if not http_waits:
            return 0.0
        return statistics.quantiles(http_waits, n=100, method="inclusive")[q - 1] * 1e3

    return {
        "align.calls": calls("align"),
        "align.cells": cells,
        "align.s": total("align"),
        "align.us_per_cell": _ratio(total("align") * 1e6, cells),
        "patterns.build_pool.self_s": self_time("build_pool"),
        "patterns.sample.calls": samples,
        "patterns.sample.s": total("sample"),
        "patterns.draws_per_sample": _ratio(
            sum(s.counts.get("draws", 0) for s in every), samples
        ),
        "patterns.load_pool.s": total("load_pool"),
        "generation.calls": attempts,
        "generation.s": total("generate"),
        "generation.refused": attr_sum("generate", "refused"),
        "http.calls": http_calls,
        "http.wait_p50_ms": pct(50),
        "http.wait_p95_ms": pct(95),
        "http.cpu_ms_per_call": _ratio(attr_sum("http", "cpu_s") * 1e3, http_calls),
        "http.retries": sum(s.counts.get("http.attempts", 0) for s in every) - http_calls,
        "http.in_flight_mean": _ratio(sum(http_waits), http_stage_wall),
        "service.requests": facts["service.requests"],
        "service.delay_s": facts["service.delay_s"],
        "synthesis.s": total("synthesize"),
        "synthesis.self_s": self_time("synthesize"),
        "synthesis.attempts": attempts,
        "synthesis.attempts_per_sample": _ratio(attempts, facts["synthesis.samples"]),
        "synthesis.match_ratio": _ratio(
            facts["synthesis.patterns_matched"], facts["synthesis.patterns_requested"]
        ),
        "denoise.s": total("relabel"),
        "denoise.self_s": self_time("relabel"),
        "denoise.calls": calls("correct"),
        "denoise.in_flight_mean": _ratio(total("correct"), total("relabel")),
        "denoise.corrector_init_s": total("corrector_init"),
        "corpus.read.rows": attr_sum("read", "rows"),
        "corpus.read_s": total("read"),
        "corpus.write.rows": attr_sum("write", "rows"),
        "corpus.write_s": total("write"),
        "mix.calls": calls("mix"),
        "mix.s": total("mix"),
        "mix.rows_parsed_per_input_row": _ratio(mix_rows, facts["mix.input_rows"]),
        "scoring.score.self_s": self_time("score"),
        "scoring.distribution.s": total("distribution"),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

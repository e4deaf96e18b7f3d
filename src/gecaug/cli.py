"""Command-line pipeline driver.

One executable, one subcommand per pipeline stage:

* extract     parallel corpus -> pattern pool
* pool        merge pattern pools
* sample      draw generation inputs from a pool
* synthesize  pool + generator backend -> synthetic corpus + stats
* denoise     relabel synthetic sources with a corrector
* mix         stage plan -> shuffled training corpus (+ ratio sweep)
* stats       pool stats, or reference-vs-corpus distribution report
* score       hypothesis corpus vs gold M2 annotations

Options resolve flag > config file > default; a config key that no
option declares (``_OPTIONS``) and a written file that is another file
used are errors. Each artifact gets ``<out>.manifest.json``: the resolved
config, its hash, the seed, the hashes of the files read and row counts.
Identical config and seed reproduce identical bytes, whatever the worker
count; an artifact that has a manifest matches it (``_stage``).
Structured log events go to stderr as JSON lines; on failure the last
stderr line is a single machine-parsable error object and the exit code
is non-zero (2 for usage/config, 1 at runtime).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import sys
from contextlib import closing, contextmanager, suppress
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Sequence

from .corpus import (
    VALID_N, CodedError, MalformedLine, canonical_json, is_int, jsonl_line,
    read_json_file, read_json_rows, read_m2, read_pairs, write_jsonl, write_lines,
)

# What each subcommand runs beyond ``corpus``, by module. The names become
# globals of this module when the command is dispatched (``_load``) or on
# first use as ``cli.<name>`` (``__getattr__``); a name already set, such as
# a wrapper, is kept.
_RUNS = {
    "extract": {"patterns": "build_pool pool_stats save_pool"},
    "pool": {"patterns": "load_pool merge_pools pool_stats save_pool"},
    "sample": {
        "patterns": "load_pool pattern_row_cache restrict_sendable sample_patterns",
        "generation": "assemble_input",
        "seeding": "slot_rng",
    },
    "synthesize": {
        "patterns": "load_pool",
        "generation": "HttpGenerator StubGenerator",
        "synthesis": "synthesize write_samples",
    },
    "denoise": {
        "denoise": "HttpCorrector IdentityCorrector OracleCorrector relabel",
        "synthesis": "read_samples",
    },
    "mix": {"mix": "load_plan mix sweep_orders"},
    "stats": {
        "patterns": "build_pool load_pool pool_stats",
        "scoring": "distribution_from_counts",
    },
    "score": {"scoring": "score"},
}
_ORIGIN = {
    name: module for runs in _RUNS.values() for module, names in runs.items()
    for name in names.split()
}


def _load(command: str) -> None:
    for names in _RUNS[command].values():
        for name in names.split():
            __getattr__(name)


def __getattr__(name: str):
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__package__}.{_ORIGIN[name]}")
    return globals().setdefault(name, getattr(module, name))


class CliError(CodedError):
    def __init__(self, code: str, message: str, exit_code: int = 1):
        super().__init__(message)
        self.code = code
        self.exit_code = exit_code


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems on the structured error channel."""

    def error(self, message: str):
        raise CliError("USAGE", message, exit_code=2)


def _log(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}, sort_keys=True), file=sys.stderr)


def _sha256_file(path: str) -> str:
    import hashlib  # here and in ``manifest``: a stage that writes no manifest skips it

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, ensure_ascii=False, indent=2)
        fh.write("\n")


def _remove(path: str) -> None:
    with suppress(FileNotFoundError):
        os.remove(path)


class _Stage:
    """The outputs of one subcommand run; ``_stage`` commits them."""

    def __init__(self, opts: _Options):
        self.opts = opts
        self.end: dict = {}
        self.temps: dict[str, str] = {}
        self.manifests: dict[str, dict] = {}

    @cached_property
    def inputs(self) -> dict[str, str]:
        """The sha256 of each file read, the config file aside; hashed once, on first use."""
        inputs = sorted({p for d, p, w in self.opts.files if not w and d != "config"})
        return {p: _sha256_file(p) for p in inputs}

    def path(self, final: str) -> str:
        """The temporary to write in place of artifact ``final``."""
        tmp = self.temps[final] = final + ".tmp"
        return tmp

    def manifest(self, out: str, config: dict, seed: int | None, counts: dict) -> None:
        """Record <out>.manifest.json; ``out`` and ``counts`` become the end event.

        ``config`` holds only data-affecting options and there are no
        timestamps, so the same artifact always gets the same manifest.
        """
        import hashlib

        self.manifests[out + ".manifest.json"] = {
            "command": self.opts.args.command,
            "config": config,
            "config_hash": hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest(),
            "seed": seed,
            "inputs": self.inputs,
            "counts": counts,
        }
        self.end = {"out": out, **counts}


@contextmanager
def _stage(opts: _Options, **start) -> Iterator[_Stage]:
    """Run one subcommand between its stage events and commit its outputs.

    On success the manifests are written to temporaries, the old ones are
    removed, each artifact's temporary is renamed into place and the new
    manifests are renamed last, so an artifact that has a manifest is
    complete and matches it. On an exception (``KeyboardInterrupt`` too) the
    temporaries are removed, which a ``denoise --checkpoint`` file is not.
    """
    _log("stage", command=opts.args.command, phase="start", **start)
    st = _Stage(opts)
    try:
        yield st
        for path, manifest in st.manifests.items():
            _write_json(st.path(path), manifest)
        for path in st.manifests:
            _remove(path)
        for final, tmp in list(st.temps.items()):  # manifests were added last
            os.replace(tmp, final)
            del st.temps[final]
    finally:
        for tmp in st.temps.values():
            _remove(tmp)
    _log("stage", command=opts.args.command, phase="end", **st.end)


class _Option(NamedTuple):
    dest: str  # also the option's config key
    flag: str
    kind: str  # how argparse reads it (_FLAG_KWARGS) and _check checks it; "output" is written
    help: str
    commands: str  # the subcommands that take it, space-separated


# Every option of every subcommand, in the order their flags are listed.
_OPTIONS = {opt.dest: opt for opt in (
    _Option("in_path", "--in", "path", "input corpus (.tsv or .jsonl)", "extract denoise"),
    _Option("in_paths", "--in", "paths", "pool files", "pool"),
    _Option("pool", "--pool", "path", "pattern pool", "sample synthesize stats"),
    _Option("ref_pool", "--ref-pool", "path", "reference pool for a report", "stats"),
    _Option("corpus", "--corpus", "path", "candidate corpus for a report", "stats"),
    _Option("plan", "--plan", "path", "stage plan JSON", "mix"),
    _Option("hyp", "--hyp", "path", "hypothesis corpus (.tsv or .jsonl)", "score"),
    _Option("gold", "--gold", "path", "gold annotations (.m2)", "score"),
    _Option("n", "--n", "n", "context width", "extract pool sample synthesize stats"),
    _Option("count", "--count", "nonneg", "rows to make", "sample synthesize"),
    _Option("seed", "--seed", "seed", "base seed", "sample synthesize"),
    _Option("error_rate", "--error-rate", "rate", "share of errorful slots", "synthesize"),
    _Option("backend", "--backend", "backend", "backend name", "synthesize denoise"),
    _Option(
        "workers", "--workers", "int", "threads of a waiting backend (default: cpus)",
        "synthesize",
    ),
    _Option("attempt_budget", "--attempt-budget", "nonneg", "attempts for all slots", "synthesize"),
    _Option("stub_drop_rate", "--stub-drop-rate", "rate", "stub drop rate", "synthesize"),
    _Option("stub_refuse_rate", "--stub-refuse-rate", "rate", "stub refusal rate", "synthesize"),
    _Option("fewshot", "--fewshot", "bool", "send few-shot examples", "synthesize"),
    _Option("checkpoint", "--checkpoint", "output", "resumable run's progress file", "denoise"),
    _Option(
        "max_in_flight", "--max-in-flight", "int", "threads of a waiting backend (default 8)",
        "denoise",
    ),
    _Option("sweep", "--sweep", "caps", "comma-separated synthetic caps", "mix"),
    _Option("top_k", "--top-k", "int", "patterns in the report", "stats"),
    _Option("beta", "--beta", "number", "F-beta weight", "score"),
    _Option(
        "out", "--out", "output", "file to write",
        "extract pool sample synthesize denoise mix stats score",
    ),
    _Option("csv", "--csv", "output", "write the per-pattern frequency table here", "stats"),
)}

# How argparse reads each kind's flag; a kind not listed takes one string.
_FLAG_KWARGS: dict[str, dict] = {
    "paths": {"nargs": "+"},
    "n": {"type": int, "choices": VALID_N},
    "nonneg": {"type": int},
    "seed": {"type": int},
    "int": {"type": int},
    "bool": {"action": "store_const", "const": True},
    "number": {"type": float},
    "rate": {"type": float},
}

_BACKENDS = {"synthesize": ("stub", "http"), "denoise": ("identity", "oracle", "http")}


def _check(kind: str, dest: str, value, command: str):
    """``value`` as option ``dest`` of ``kind`` holds it; a CONFIG error if it does not fit."""

    def fail(message: str):
        raise CliError("CONFIG", message, 2)

    if kind in ("path", "output") and not isinstance(value, str):
        fail(f"'{dest}' must be a path string")
    if kind == "paths" and not (
        isinstance(value, list) and value and all(isinstance(p, str) for p in value)
    ):
        fail(f"'{dest}' must be a non-empty list of path strings")
    if kind == "n" and (not is_int(value) or value not in VALID_N):
        fail(f"n must be one of {VALID_N}, got {value}")
    if kind == "seed" and not is_int(value):
        fail("seed must be an integer")
    if kind in ("int", "nonneg") and not is_int(value):
        fail(f"'{dest}' must be an integer")
    if kind == "nonneg" and value < 0:
        fail(f"{dest} must be non-negative")
    if kind == "int" and value < 1:
        fail(f"{dest} must be at least 1")
    if kind == "bool" and not isinstance(value, bool):
        fail(f"'{dest}' must be true or false")
    if kind == "backend" and value not in _BACKENDS[command]:
        fail(f"unknown backend {value!r}")
    if kind in ("number", "rate"):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            fail(f"'{dest}' must be a number")
        if not -sys.float_info.max <= value <= sys.float_info.max:
            fail(f"'{dest}' must be finite")
        value = float(value)
    if kind == "rate" and not 0.0 <= value <= 1.0:
        fail(f"'{dest}' must lie in [0, 1]")
    if kind == "caps":
        if isinstance(value, str):
            try:
                value = [int(p) for p in value.split(",") if p != ""]
            except ValueError:
                fail(f"bad {dest} value {value!r}; want e.g. 0,100,200")
        if not (isinstance(value, list) and value and all(map(is_int, value))):
            fail(f"{dest} must be a comma-separated int list")
        if min(value) < 0:
            fail(f"{dest} caps must be non-negative")
        if len(set(value)) != len(value):
            fail(f"duplicate caps in {dest}")
    return value


class _Options:
    """One invocation's options, resolved flag > config file > default, and their files."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config: dict = {}
        self.files: list[tuple[str, str, bool]] = []  # (dest, path, written)
        config_path = getattr(args, "config", None)
        if config_path:
            try:
                loaded = read_json_file(config_path)
            except FileNotFoundError:
                raise CliError("CONFIG", f"config file not found: {config_path}", 2)
            except MalformedLine as exc:
                raise CliError("CONFIG", f"config file {config_path}: {exc.reason}", 2)
            if not isinstance(loaded, dict):
                raise CliError("CONFIG", "config file must hold a JSON object", 2)
            # A key of another subcommand is allowed: one config can drive a pipeline.
            for key in loaded:
                if key not in _OPTIONS:
                    raise CliError("CONFIG", f"unknown config key {key!r}", 2)
            self.config = loaded
            self.claim("config", [config_path])

    def get(self, dest: str, default=None, required: bool = False):
        """Option ``dest``, checked against its kind; None if unset and not required."""
        value = getattr(self.args, dest, None)
        if value is None:
            value = self.config.get(dest)
        if value is None:
            value = default
        if value is None:
            if required:
                raise CliError("CONFIG", f"missing required option '{dest}'", 2)
            return None
        kind = _OPTIONS[dest].kind
        value = _check(kind, dest, value, self.args.command)
        if kind in ("path", "paths", "output"):
            self.claim(dest, value if kind == "paths" else [value], written=kind == "output")
        return value

    def claim(self, dest: str, paths: Iterable[str], written: bool = False) -> None:
        """Record ``paths`` under ``dest``; a file written may be no other file recorded.

        A written path also claims the names written beside it (``_written_names``).
        """
        if written:
            paths = [p for path in paths for p in _written_names(dest, path, self.args.command)]
        for path in paths:
            for other, known, known_written in self.files:
                if written or known_written:  # two reads may name one file
                    try:
                        same = os.path.samefile(known, path)
                    except OSError:  # one of them does not exist yet
                        same = os.path.realpath(known) == os.path.realpath(path)
                    if same:
                        raise CliError("CONFIG", f"'{other}' and '{dest}' name one file: {path}", 2)
            self.files.append((dest, path, written))


# The sidecar a command writes beside its --out.
_SIDECARS = {"synthesize": ".stats.json", "mix": ".sweep.json"}


def _written_names(dest: str, path: str, command: str) -> list[str]:
    """``path`` and what writing it as option ``dest`` of ``command`` writes beside it.

    A stage writes each file through its temporary (``_Stage.path``), and
    beside --out its manifest and the command's sidecar. A --checkpoint
    file is written in place, with no temporary.
    """
    if dest == "checkpoint":
        return [path]
    names = [path]
    if dest == "out":
        names.append(path + ".manifest.json")
        if command in _SIDECARS:
            names.append(path + _SIDECARS[command])
    return [name + tmp for name in names for tmp in ("", ".tmp")]


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_extract(opts: _Options) -> None:
    """build a pattern pool from a parallel corpus"""
    in_path = opts.get("in_path", required=True)
    n = opts.get("n", required=True)
    out = opts.get("out", required=True)
    with _stage(opts, input=in_path, n=n) as st:
        pool = build_pool(read_pairs(in_path), n)
        save_pool(pool, st.path(out))
        config = {"in": in_path, "n": n, "out": out}
        st.manifest(out, config, None, pool_stats(pool))


def _cmd_pool(opts: _Options) -> None:
    """merge pattern pools"""
    in_paths = opts.get("in_paths", required=True)
    n = opts.get("n", required=True)
    out = opts.get("out", required=True)
    with _stage(opts, inputs=in_paths, n=n) as st:
        merged = merge_pools([load_pool(p, n) for p in in_paths])
        save_pool(merged, st.path(out))
        config = {"in": in_paths, "n": n, "out": out}
        st.manifest(out, config, None, pool_stats(merged))


def _cmd_sample(opts: _Options) -> None:
    """draw generation inputs from a pool"""
    pool_path = opts.get("pool", required=True)
    n = opts.get("n", required=True)
    count = opts.get("count", required=True)
    seed = opts.get("seed", required=True)
    out = opts.get("out", required=True)
    with _stage(opts, pool=pool_path, count=count) as st:
        pool = restrict_sendable(load_pool(pool_path, n))
        if len(pool) == 0:
            raise CliError("INVALID_ARGUMENT", "pool has no sendable patterns")
        pattern_row = pattern_row_cache()

        def line(i: int) -> str:
            rng = slot_rng(seed, i)
            pats = sample_patterns(pool, rng)
            request = assemble_input([p.correct for p in pats], rng, request_id=str(i))
            patterns = [pattern_row(p) for p in pats]
            row = {"id": request.id, "patterns": patterns, "template": request.template}
            return canonical_json(row)

        write_lines(map(line, range(count)), st.path(out))
        config = {"pool": pool_path, "n": n, "count": count, "seed": seed, "out": out}
        st.manifest(out, config, seed, {"rows": count})


def _cmd_synthesize(opts: _Options) -> None:
    """generate a synthetic corpus from a pool"""
    pool_path = opts.get("pool", required=True)
    n = opts.get("n", required=True)
    count = opts.get("count", required=True)
    seed = opts.get("seed", required=True)
    out = opts.get("out", required=True)
    error_rate_ = opts.get("error_rate", 0.5)
    backend_name = opts.get("backend", default="stub")
    workers = opts.get("workers", default=os.cpu_count() or 1)
    budget = opts.get("attempt_budget")
    # Checked before any work: the manifest records both rates whatever the backend.
    drop_rate = opts.get("stub_drop_rate", 0.0)
    refuse_rate = opts.get("stub_refuse_rate", 0.0)
    fewshot = opts.get("fewshot", default=False)

    if backend_name == "stub":
        backend = StubGenerator(seed=seed, drop_rate=drop_rate, refuse_rate=refuse_rate)
    else:
        try:
            backend = HttpGenerator(fewshot=fewshot)
        except ValueError as exc:
            raise CliError("CONFIG", str(exc), 2)

    with closing(backend), _stage(
        opts, pool=pool_path, count=count, backend=backend_name, error_rate=error_rate_
    ) as st:
        pool = load_pool(pool_path, n)
        samples, stats = synthesize(
            pool, count, backend, seed,
            error_rate=error_rate_, workers=workers, attempt_budget=budget,
        )
        write_samples(samples, st.path(out))
        _write_json(st.path(out + _SIDECARS["synthesize"]), stats.as_dict())
        config = {
            "pool": pool_path, "n": n, "count": count, "seed": seed, "out": out,
            "error_rate": error_rate_, "backend": backend_name,
            "stub_drop_rate": drop_rate, "stub_refuse_rate": refuse_rate,
        }
        if fewshot:  # recorded only when set, so a default manifest keeps its bytes
            config["fewshot"] = True
        counts = {"samples": stats.samples, "errorful": stats.errorful}
        st.manifest(out, config, seed, counts)


def _cmd_denoise(opts: _Options) -> None:
    """relabel synthetic sources with a corrector"""
    in_path = opts.get("in_path", required=True)
    backend_name = opts.get("backend", default="identity")
    out = opts.get("out", required=True)
    checkpoint = opts.get("checkpoint")
    in_flight = opts.get("max_in_flight", default=8)

    samples: Iterable = read_samples(in_path)
    if backend_name == "identity":
        corrector = IdentityCorrector()
    elif backend_name == "oracle":
        samples = list(samples)
        corrector = OracleCorrector(samples)
    else:
        try:
            corrector = HttpCorrector()
        except ValueError as exc:
            raise CliError("CONFIG", str(exc), 2)

    config = {"in": in_path, "backend": backend_name, "out": out}
    samples = iter(samples)
    counts = {"pairs": 0, "matches_target": 0, "matches_source": 0}
    if checkpoint is not None:
        _resume_point(checkpoint, canonical_json(config), samples, counts)

    def lines(pairs: Iterable) -> Iterator[str]:
        for pair in pairs:
            _tally(counts, pair.meta)
            yield jsonl_line(pair)

    with closing(corrector), _stage(
        opts, input=in_path, backend=backend_name, resume_skip=counts["pairs"]
    ) as st:
        with closing(relabel(samples, corrector, max_in_flight=in_flight)) as pairs:
            if checkpoint is None:
                write_lines(lines(pairs), st.path(out))
            else:
                with open(checkpoint, "a", encoding="utf-8", buffering=1) as fh:  # flush per line
                    fh.writelines(line + "\n" for line in lines(pairs))
                with open(checkpoint, "rb") as fh, open(st.path(out), "wb") as rows:
                    rows.writelines(islice(fh, 1, None))  # the rows after the marker line
        st.manifest(out, config, None, counts)
    if checkpoint is not None:
        _remove(checkpoint)


def _tally(counts: dict, meta) -> None:
    meta = meta if isinstance(meta, dict) else {}
    counts["pairs"] += 1
    counts["matches_target"] += bool(meta.get("matches_target"))
    counts["matches_source"] += bool(meta.get("matches_source"))


def _resume_point(checkpoint: str, marker: str, samples: Iterator, counts: dict) -> None:
    """Make ``checkpoint`` the line ``marker`` and the rows an interrupted run left.

    A missing or empty checkpoint, or a cut-off marker line, starts over;
    another first line is a CONFIG error. Keeps the complete rows (a torn
    last one is dropped), checks each one's id and source against the
    input at its position, consumes that many inputs and tallies the rows
    into ``counts``. The file changes only once every check has passed.
    """
    head = (marker + "\n").encode("utf-8")
    with open(checkpoint, "a+b") as fh:
        fh.seek(0)
        if (first := fh.readline()) != head:
            if not head.startswith(first):
                message = f"checkpoint {checkpoint} does not mark this run ({marker})"
                raise CliError("CONFIG", message, 2)
            fh.write(head[len(first):])  # the file is empty or holds a cut-off marker line
            return
        sizes = [len(line) for line in fh if line.endswith(b"\n")]
        for line_no, row in islice(read_json_rows(checkpoint), 1, len(sizes) + 1):
            want, row_id = next(samples, None), row.get("id")
            if want is None or (want.id, " ".join(want.source)) != (row_id, row.get("source")):
                raise CliError("CONFIG", f"{checkpoint}:{line_no}: id {row_id!r} or its source"
                               " does not match the input's", 2)
            _tally(counts, row.get("meta"))
        fh.truncate(len(head) + sum(sizes))


def _cmd_mix(opts: _Options) -> None:
    """build a training corpus from a stage plan"""
    plan_path = opts.get("plan", required=True)
    out = opts.get("out", required=True)
    caps = opts.get("sweep")
    plan = load_plan(plan_path)
    if caps is not None and plan.synthetic is None:
        raise CliError("CONFIG", "ratio sweep needs a plan with a synthetic corpus", 2)
    opts.claim("real", plan.real)
    opts.claim("synthetic", [plan.synthetic] if plan.synthetic else [])
    root, ext = os.path.splitext(out)
    cap_outs = {cap: f"{root}.cap{cap}{ext}" for cap in caps or ()}
    opts.claim("out", cap_outs.values(), written=True)  # a sweep writes these, not out
    with _stage(opts, plan=plan_path, sweep=caps is not None) as st:
        if caps is None:
            examples, manifest = mix(plan)
            write_jsonl(examples, st.path(out))
            st.manifest(out, {"plan": plan_path, "out": out}, plan.seed, manifest)
            st.end = {"out": out, "total": manifest["total"]}
            return

        summary = []
        # Each pair is encoded once for every cap, and its line and errorful
        # flag replace it in memory.
        rows, orders = sweep_orders(
            plan, caps, lambda ex: (jsonl_line(ex), ex.source != ex.target)
        )
        for cap, order, manifest in orders:
            cap_out = cap_outs[cap]
            write_lines((rows[i][0] for i in order), st.path(cap_out))
            config = {"plan": plan_path, "out": out, "cap": cap}
            st.manifest(cap_out, config, plan.seed, manifest)
            total = manifest["total"]  # a cap takes the first pairs
            errorful = sum(flag for _, flag in islice(rows, total)) / total if total else 0.0
            summary.append(
                {"cap": cap, "path": cap_out, "total": total, "errorful": round(errorful, 6)}
            )
        summary_path = out + _SIDECARS["mix"]
        _write_json(st.path(summary_path), summary)
        for row in summary:
            print(f"cap={row['cap']} total={row['total']} errorful={row['errorful']:.4f}")
        st.end = {"sweep": len(summary), "summary": summary_path}


def _cmd_stats(opts: _Options) -> None:
    """pool stats or distribution consistency report"""
    import csv

    pool_path = opts.get("pool")
    ref_path = opts.get("ref_pool")
    if (pool_path is None) == (ref_path is None):
        raise CliError("CONFIG", "pass exactly one of --pool or --ref-pool", 2)
    for dest in ("corpus", "top_k", "out", "csv"):  # flags only: one config drives a pipeline
        if pool_path is not None and getattr(opts.args, dest) is not None:
            raise CliError("CONFIG", f"{_OPTIONS[dest].flag} needs --ref-pool, not --pool", 2)
    n = opts.get("n", required=True)
    if pool_path is not None:
        with _stage(opts, pool=pool_path) as st:
            st.end = pool_stats(load_pool(pool_path, n))
            print(canonical_json(st.end))
        return

    corpus_path = opts.get("corpus", required=True)
    top_k = opts.get("top_k", default=100)
    out = opts.get("out")
    csv_path = opts.get("csv")
    with _stage(opts, ref_pool=ref_path, corpus=corpus_path) as st:
        reference = load_pool(ref_path, n)
        candidate = build_pool(read_pairs(corpus_path), n)
        report = distribution_from_counts(reference, candidate.counts, top_k)
        summary = {"cosine": report.cosine, "spearman": report.spearman, "top_k": report.top_k}
        print(canonical_json(summary))
        if out:
            _write_json(st.path(out), report.as_dict())
            config = {"ref_pool": ref_path, "corpus": corpus_path, "n": n, "top_k": top_k}
            st.manifest(out, config, None, {"top_k": report.top_k})
        if csv_path:
            with open(st.path(csv_path), "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(
                    ["pattern_wrong", "pattern_correct", "reference_count", "candidate_count"]
                )
                for p, rc, cc in zip(
                    report.patterns, report.reference_counts, report.candidate_counts
                ):
                    writer.writerow([" ".join(p.wrong), " ".join(p.correct), rc, cc])
        st.end = {"cosine": report.cosine, "spearman": report.spearman}


def _cmd_score(opts: _Options) -> None:
    """score a hypothesis corpus against gold M2"""
    hyp_path = opts.get("hyp", required=True)
    gold_path = opts.get("gold", required=True)
    beta = opts.get("beta", 0.5)
    if not beta > 0:
        raise CliError("CONFIG", "beta must be positive", 2)
    out = opts.get("out")
    with _stage(opts, hyp=hyp_path, gold=gold_path) as st:
        report = score(read_pairs(hyp_path), read_m2(gold_path), beta)
        print(f"TP {report.tp}")
        print(f"FP {report.fp}")
        print(f"FN {report.fn}")
        print(f"Precision {report.precision:.4f}")
        print(f"Recall {report.recall:.4f}")
        print(f"F{beta:g} {report.f_beta:.4f}")
        for cat, c in sorted(report.per_category.items()):
            print(f"category {cat} tp={c.tp} fp={c.fp} fn={c.fn} f={c.f_beta:.4f}")
        if out:
            _write_json(st.path(out), report.as_dict())
            config = {"hyp": hyp_path, "gold": gold_path, "beta": beta}
            counts = {"tp": report.tp, "fp": report.fp, "fn": report.fn}
            st.manifest(out, config, None, counts)
        st.end = {"f": report.f_beta}


# ---------------------------------------------------------------------------
# Parser

_COMMANDS = {
    "extract": _cmd_extract,
    "pool": _cmd_pool,
    "sample": _cmd_sample,
    "synthesize": _cmd_synthesize,
    "denoise": _cmd_denoise,
    "mix": _cmd_mix,
    "stats": _cmd_stats,
    "score": _cmd_score,
}


def _build_parser(commands: Iterable[str] = _COMMANDS) -> _Parser:
    """The parser of ``commands``; each one's help and usage errors are the full parser's."""
    parser = _Parser(prog="gecaug", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for command in commands:
        p = sub.add_parser(command, help=_COMMANDS[command].__doc__)
        p.add_argument("--config", help="JSON config file; flags override it")
        for opt in _OPTIONS.values():
            if command in opt.commands.split():
                kwargs = _FLAG_KWARGS.get(opt.kind, {})
                if opt.kind == "backend":
                    kwargs = {"choices": _BACKENDS[command]}
                p.add_argument(opt.flag, dest=opt.dest, help=opt.help, **kwargs)
    return parser


def _terminate(signum: int, frame) -> None:
    raise KeyboardInterrupt("SIGTERM")


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # A call that names its subcommand first builds only that one's parser.
    parser = _build_parser(argv[:1] if argv[:1] and argv[0] in _COMMANDS else _COMMANDS)
    # SIGTERM stops a stage as Ctrl-C does: its temporaries are removed.
    try:
        previous = signal.signal(signal.SIGTERM, _terminate)
    except ValueError:  # not the main thread, where no handler can be set
        previous = None
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise CliError("USAGE", "no subcommand given", 2)
        _load(args.command)
        _COMMANDS[args.command](_Options(args))
        return 0
    except CodedError as exc:
        _log("error", code=exc.code, message=str(exc))
        return exc.exit_code
    except KeyboardInterrupt as exc:
        _log("error", code="INTERRUPTED", message=f"stopped by {str(exc) or 'SIGINT'}")
    except ValueError as exc:
        _log("error", code="INVALID_ARGUMENT", message=str(exc))
    except OSError as exc:
        _log("error", code="IO", message=str(exc))
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
    return 1


if __name__ == "__main__":
    sys.exit(main())

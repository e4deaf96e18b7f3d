#!/usr/bin/env python3
"""Synthesize an errorful parallel corpus from a pattern pool.

Every slot asks the backend for a sentence that contains its drawn
patterns' correct sides, then re-plants the wrong sides at a controlled
rate. Clean slots keep the generated sentence on both sides. The stats
object counts every attempt, so refusals and budget pressure are visible.
"""

from __future__ import annotations

import argparse
import collections
import os
import random

from gecaug import (
    ParallelExample,
    StubGenerator,
    build_pool,
    error_rate,
    planted_counts,
    read_parallel_tsv,
    synthesize,
    write_samples,
)

DEFAULT_CORPUS = os.path.join(os.path.dirname(__file__), "data", "learner_sample.tsv")
OUT_DIR = "demo_out"


def load_pool(path: str, n: int):
    pairs = list(read_parallel_tsv(path))
    print(f"Loaded {len(pairs)} pairs from {path}")
    return build_pool(pairs, n=n)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--corpus", default=DEFAULT_CORPUS, help="TSV of source<TAB>target pairs")
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--count", type=int, default=2000)
    ap.add_argument("--error-rate", type=float, default=0.3)
    ap.add_argument("--seed", type=int, default=17)
    ap.add_argument("--drop-rate", type=float, default=0.05,
                    help="stub fault injection: chance a pattern is dropped from the output")
    args = ap.parse_args()

    pool = load_pool(args.corpus, args.n)
    print(f"Pool: {len(pool)} patterns, {pool.total} occurrences")

    backend = StubGenerator(seed=args.seed, drop_rate=args.drop_rate)
    samples, stats = synthesize(
        pool,
        args.count,
        backend,
        base_seed=args.seed,
        error_rate=args.error_rate,
    )

    print("\n== Stats ==")
    for key, value in stats.as_dict().items():
        print(f"  {key}: {value}")

    pairs = [ParallelExample(s.source, s.target, id=s.id) for s in samples]
    print(f"\nRealized error rate: {error_rate(pairs):.4f} (requested {args.error_rate})")

    planted = planted_counts(samples)
    top = collections.Counter(planted).most_common(5)
    print("\nMost planted patterns:")
    for pattern, count in top:
        print(f"  {count:>5}  {' '.join(pattern.correct)}  ->  {' '.join(pattern.wrong) or '(dropped)'}")

    print("\nA few errorful samples:")
    shown = 0
    for s in samples:
        if s.source != s.target:
            print(f"  [{s.id}] src: {' '.join(s.source)}")
            print(f"        tgt: {' '.join(s.target)}")
            shown += 1
        if shown == 3:
            break

    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, "synthetic.jsonl")
    rows = write_samples(samples, out_path)
    print(f"\nWrote {rows} samples to {out_path}")


if __name__ == "__main__":
    random.seed(0)  # only guards incidental library use; synthesis seeds itself
    main()

"""Relabel a synthetic corpus and mix it into staged training data.

Generated targets inherit whatever the backend produced, so a second
pass re-corrects each errorful source and keeps the corrector's output
as the new target. The mixed corpus interleaves real and synthetic
pairs under a seeded shuffle and records a manifest with content hashes,
so a rebuild can be checked byte for byte.
"""

from __future__ import annotations

import os

from gecaug import (
    IdentityCorrector,
    OracleCorrector,
    ParallelExample,
    StagePlan,
    StubGenerator,
    build_pool,
    error_rate,
    mix,
    ratio_sweep,
    read_parallel_tsv,
    relabel,
    relabel_diff_stats,
    synthesize,
    write_jsonl,
)

CORPUS = os.path.join(os.path.dirname(__file__), "data", "learner_sample.tsv")
OUT_DIR = "demo_out"


def main() -> None:
    pairs = list(read_parallel_tsv(CORPUS))
    pool = build_pool(pairs, n=3)
    samples, _ = synthesize(
        pool, 400, StubGenerator(seed=8), base_seed=8, error_rate=0.5
    )

    # Identity keeps targets as generated; the oracle inverts the planting
    # exactly, which is the upper bound a real corrector is judged against.
    identity = list(relabel(samples, IdentityCorrector()))
    oracle = list(relabel(samples, OracleCorrector(samples)))

    agree = sum(pair.meta["matches_target"] for pair in oracle)
    print(f"Oracle corrector recovered {agree}/{len(oracle)} generated targets")

    print("\n== identity vs oracle relabel ==")
    stats = relabel_diff_stats(identity, oracle)
    for key, value in stats.items():
        shown = f"{value:.4f}" if isinstance(value, float) else value
        print(f"  {key}: {shown}")

    os.makedirs(OUT_DIR, exist_ok=True)
    denoised_path = os.path.join(OUT_DIR, "denoised.jsonl")
    write_jsonl(oracle, denoised_path)

    real_path = os.path.join(OUT_DIR, "real.jsonl")
    write_jsonl(pairs, real_path)

    plan = StagePlan(
        stage="II",
        real=(real_path,),
        synthetic=denoised_path,
        synthetic_count=100,
        seed=13,
    )
    examples, manifest = mix(plan)
    print(f"\nMixed corpus: {len(examples)} pairs, error rate {error_rate(examples):.4f}")
    print(f"  content_hash: {manifest['content_hash'][:16]}...")
    for origin in manifest["origins"]:
        print(f"  {origin['kind']:<9} {origin['path']}: {origin['count']} pairs")

    print("\n== Synthetic-to-real ratio sweep ==")
    for cap, mixed, _ in ratio_sweep(plan, caps=(0, 50, 100, 200)):
        print(
            f"  cap={cap:<4} total={len(mixed):<4} "
            f"errorful fraction={error_rate(mixed):.4f}"
        )

    out_path = os.path.join(OUT_DIR, "stage2_train.jsonl")
    write_jsonl(examples, out_path)
    print(f"\nWrote {len(examples)} mixed pairs to {out_path}")


if __name__ == "__main__":
    main()

"""Score hypothesis corrections against gold edits, then check that a
synthetic corpus reproduces the pattern distribution it was drawn from.

Scoring compares hypothesis edits (extracted by alignment) against each
annotator's gold edits, keeps the best annotator per sentence, and
reports span-level precision, recall and F0.5 with a per-category
breakdown. The distribution check re-extracts patterns from a corpus and
compares frequencies over the reference head by cosine and rank
correlation.
"""

from __future__ import annotations

import os

from gecaug import (
    ParallelExample,
    StubGenerator,
    build_pool,
    distribution_consistency,
    read_m2,
    read_parallel_tsv,
    score,
    synthesize,
)

CORPUS = os.path.join(os.path.dirname(__file__), "data", "learner_sample.tsv")

GOLD_M2 = """\
S He go to school every day .
A 1 2|||R:VERB:SVA|||goes|||REQUIRED|||-NONE-|||0

S I like read books in evening .
A 2 3|||R:VERB:FORM|||reading|||REQUIRED|||-NONE-|||0
A 5 5|||M:DET|||the|||REQUIRED|||-NONE-|||0

S They was late for a meeting .
A 1 2|||R:VERB:SVA|||were|||REQUIRED|||-NONE-|||0

S We discussed about the plan .
A 2 3|||U:PREP|||-NONE-|||REQUIRED|||-NONE-|||0

S The weather is nice today .
A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0
"""

HYP_PAIRS = [
    ("He go to school every day .", "He goes to school every day ."),
    ("I like read books in evening .", "I like reading books in evening ."),
    ("They was late for a meeting .", "They was late for a meeting ."),
    ("We discussed about the plan .", "We discussed the plan ."),
    ("The weather is nice today .", "The weather is nice today ."),
]


def main() -> None:
    gold_path = os.path.join("demo_out", "gold.m2")
    os.makedirs("demo_out", exist_ok=True)
    with open(gold_path, "w", encoding="utf-8") as fh:
        fh.write(GOLD_M2)

    gold = list(read_m2(gold_path))
    hyp = [
        ParallelExample(tuple(s.split()), tuple(t.split()), id=str(i + 1))
        for i, (s, t) in enumerate(HYP_PAIRS)
    ]

    report = score(hyp, gold)
    print("== Correction scoring ==")
    print(f"  TP={report.tp} FP={report.fp} FN={report.fn}")
    print(f"  precision={report.precision:.4f} recall={report.recall:.4f}")
    print(f"  F{report.beta:g}={report.f_beta:.4f}")
    print("  per category:")
    for cat, cs in sorted(report.per_category.items()):
        print(f"    {cat:<14} tp={cs.tp} fp={cs.fp} fn={cs.fn} f={cs.f_beta:.4f}")

    print("\n== Distribution consistency of a synthetic corpus ==")
    pairs = list(read_parallel_tsv(CORPUS))
    pool = build_pool(pairs, n=3)
    samples, _ = synthesize(
        pool, 3000, StubGenerator(seed=4), base_seed=40, error_rate=1.0
    )
    corpus = [ParallelExample(s.source, s.target, id=s.id) for s in samples]
    dist = distribution_consistency(pool, corpus, top_k=20)
    print(f"  cosine={dist.cosine:.4f} spearman={dist.spearman:.4f} over top {dist.top_k}")
    print("  head of the table (reference vs re-extracted):")
    for pattern, ref, cand in list(
        zip(dist.patterns, dist.reference_counts, dist.candidate_counts)
    )[:6]:
        print(f"    ref={ref:<3} cand={cand:<5} {' '.join(pattern.correct)}")


if __name__ == "__main__":
    main()

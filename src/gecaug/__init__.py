"""Contextual data augmentation toolkit for grammatical error correction.

Pipeline: extract error patterns from parallel corpora, sample them by
frequency, hand them to a generator that writes fluent sentences around
them, plant the errors back in at a controlled rate, relabel with a
corrector to denoise, mix with real data, and score the result.
"""

from .align import (
    AlignOp,
    Edit,
    align_tokens,
    alignment_cost,
    apply_edits,
    extract_edits,
    merge_edits,
    substitution_cost,
)
from .corpus import (
    AnnotatedExample,
    CorpusError,
    GoldEdit,
    MalformedLine,
    ParallelExample,
    SchemaError,
    SpanOutOfBounds,
    apply_gold_edits,
    jsonl_line,
    read_jsonl,
    read_m2,
    read_pairs,
    read_parallel_tsv,
    write_jsonl,
    write_m2,
    write_parallel_tsv,
)
from .denoise import (
    CorrectorBackend,
    HttpCorrector,
    IdentityCorrector,
    OracleCorrector,
    relabel,
    relabel_diff_stats,
)
from .generation import (
    MASK,
    SEP,
    FinetuneExample,
    GenerationRequest,
    GenerationResult,
    GeneratorBackend,
    HttpGenerator,
    StubGenerator,
    TransportError,
    assemble_input,
    build_fewshot_prompt,
    build_finetune_example,
    generate,
)
from .mix import StagePlan, content_hash, load_plan, mix, pair_hash, ratio_sweep
from .patterns import (
    ErrorPattern,
    PatternPool,
    build_pool,
    draw_pattern,
    extend_to_ngram,
    load_pool,
    merge_pools,
    patterns_overlap,
    pool_stats,
    restrict_sendable,
    sample_patterns,
    save_pool,
    sides_overlap,
)
from .seeding import slot_rng, stable_seed
from .scoring import (
    CategoryScore,
    DistributionReport,
    ScoreReport,
    ScoringError,
    distribution_consistency,
    distribution_from_counts,
    error_rate,
    f_beta,
    f_beta_from_rates,
    score,
)
from .synthesis import (
    SynthesisBudgetError,
    SynthStats,
    SyntheticSample,
    match_patterns,
    planted_counts,
    read_samples,
    substitute,
    synthesize,
    write_samples,
)

__version__ = "0.1.0"

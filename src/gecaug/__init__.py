"""Contextual data augmentation toolkit for grammatical error correction.

Pipeline: extract error patterns from parallel corpora, sample them by
frequency, hand them to a generator that writes fluent sentences around
them, plant the errors back in at a controlled rate, relabel with a
corrector to denoise, mix with real data, and score the result.

Importing the package loads none of its modules: each public name and
each submodule is imported on first use (PEP 562) and then kept.
``gecaug.mix`` is the function ``mix``, also once ``gecaug.mix`` the
module is imported; take the module from ``sys.modules`` or
``importlib.import_module``.
"""

import importlib
import sys
from types import ModuleType

# Each public name, by the submodule that defines it.
_EXPORTS = {
    "align": (
        "AlignOp Edit align_tokens alignment_cost apply_edits extract_edits merge_edits "
        "substitution_cost"
    ),
    "corpus": (
        "AnnotatedExample CorpusError GoldEdit MalformedLine ParallelExample SchemaError "
        "SpanOutOfBounds apply_gold_edits jsonl_line read_jsonl read_m2 read_pairs "
        "read_parallel_tsv write_jsonl write_m2 write_parallel_tsv"
    ),
    "denoise": (
        "CorrectorBackend HttpCorrector IdentityCorrector OracleCorrector relabel "
        "relabel_diff_stats"
    ),
    "generation": (
        "MASK SEP FinetuneExample GenerationRequest GenerationResult GeneratorBackend "
        "HttpGenerator StubGenerator TransportError assemble_input build_fewshot_prompt "
        "build_finetune_example generate"
    ),
    "mix": "StagePlan content_hash load_plan mix pair_hash ratio_sweep",
    "patterns": (
        "ErrorPattern PatternPool build_pool draw_pattern extend_to_ngram load_pool merge_pools "
        "patterns_overlap pool_stats restrict_sendable sample_patterns save_pool sides_overlap"
    ),
    "seeding": "slot_rng stable_seed",
    "scoring": (
        "CategoryScore DistributionReport ScoreReport ScoringError distribution_consistency "
        "distribution_from_counts error_rate f_beta f_beta_from_rates score"
    ),
    "synthesis": (
        "SynthesisBudgetError SynthStats SyntheticSample match_patterns planted_counts "
        "read_samples substitute synthesize write_samples"
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = ("_concurrent", "_http", "cli", *_EXPORTS)

# The public names and the submodules whose names are not taken by one.
__all__ = [*_ORIGIN, *(module for module in _EXPORTS if module not in _ORIGIN)]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _ORIGIN:
        value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})


class _Package(ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # Importing submodule ``mix`` binds the package's ``mix`` to it; keep the function.
        if isinstance(value, ModuleType) and name in _ORIGIN:
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

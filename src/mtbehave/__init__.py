"""Behavioral-testing harness for machine translation systems.

Generates property-tagged test suites and candidate translation sets via an
LLM provider, judges MT outputs with string-matching and contrastive
n-gram-similarity detectors, and reports macro pass rates with bootstrap
confidence intervals and paired significance tests.
"""

from .detection import (
    CachedEmbedder,
    TokenizerConfig,
    judge_contrastive,
    match_exhaustive,
    max_sim,
    ngrams,
    tokenize,
)
from .generation import (
    filter_sentences,
    generate_contrastive_pair,
    generate_exhaustive_candidates,
    generate_suite,
    generation_stats,
    parse_item_list,
    render_candidate_prompt,
    render_contrastive_prompts,
    render_source_prompt,
)
from .metrics import (
    ResampleConfig,
    bootstrap_ci,
    diversity_series,
    macro_pass_rate,
    paired_bootstrap,
    resampled_mprs,
    trend_fit,
)
from .model import (
    CandidateSet,
    ContrastivePair,
    PropertySpec,
    TestCase,
    load_candidates,
    load_suite,
    load_translations,
    load_verdicts,
    parse_bracketed,
    save_candidates,
    save_suite,
    save_translations,
    save_verdicts,
)
from .providers import (
    EmbedderConfig,
    HashEmbedder,
    HttpChatProvider,
    HttpEmbedder,
    LlmConfig,
    ReplayProvider,
    replay_key,
    write_replay_responses,
)
from .runner import (
    AdapterSpec,
    TranslationCache,
    apply_candidate_edits,
    build_report,
    evaluate,
    render_report,
    sample_for_annotation,
    translate_all,
)

__version__ = "0.1.0"

__all__ = [
    "AdapterSpec",
    "CachedEmbedder",
    "CandidateSet",
    "ContrastivePair",
    "EmbedderConfig",
    "HashEmbedder",
    "HttpChatProvider",
    "HttpEmbedder",
    "LlmConfig",
    "PropertySpec",
    "ReplayProvider",
    "ResampleConfig",
    "TestCase",
    "TokenizerConfig",
    "TranslationCache",
    "apply_candidate_edits",
    "bootstrap_ci",
    "build_report",
    "diversity_series",
    "evaluate",
    "filter_sentences",
    "generate_contrastive_pair",
    "generate_exhaustive_candidates",
    "generate_suite",
    "generation_stats",
    "judge_contrastive",
    "load_candidates",
    "load_suite",
    "load_translations",
    "load_verdicts",
    "macro_pass_rate",
    "match_exhaustive",
    "max_sim",
    "ngrams",
    "paired_bootstrap",
    "parse_bracketed",
    "parse_item_list",
    "render_candidate_prompt",
    "render_contrastive_prompts",
    "render_report",
    "render_source_prompt",
    "replay_key",
    "resampled_mprs",
    "sample_for_annotation",
    "save_candidates",
    "save_suite",
    "save_translations",
    "save_verdicts",
    "tokenize",
    "translate_all",
    "trend_fit",
    "write_replay_responses",
]

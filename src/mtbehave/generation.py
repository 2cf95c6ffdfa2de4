"""LLM-driven test suite and candidate generation.

Drives a text-generation provider with per-property prompt templates, parses
the itemized output, filters it (single bracketed value, single sentence, no
duplicates), and loops until the suite reaches its target size.
"""
from __future__ import annotations

import logging
import math
import re
from collections import Counter
from typing import Mapping, Sequence

from .errors import (
    BracketParseError,
    ConfigError,
    DataInvariantError,
    NoCandidatesError,
    ProviderError,
)
from .model import (
    CandidateSet, ContrastivePair, PropertySpec, TestCase, match_form, parse_bracketed
)
from .providers import LlmProvider

log = logging.getLogger(__name__)

DEFAULT_TARGET_COUNT = 1000

# Human-readable names keep rendered prompts natural; unknown tags pass through.
LANGUAGE_NAMES = {
    "en": "English",
    "de": "German",
    "es": "Spanish",
    "ja": "Japanese",
    "fr": "French",
    "it": "Italian",
    "pt": "Portuguese",
    "zh": "Chinese",
    "ko": "Korean",
}

# The slots a prompt template may hold; any other braced text is literal.
_SLOT = re.compile(r"\{(property|src_lang|tgt_lang|value|sentence|demo_\d+)\}")
_SENTENCE_BREAK = re.compile(r"[.!?]\s+[^\W\d_]")


def language_name(tag: str) -> str:
    return LANGUAGE_NAMES.get(tag.lower(), tag)


def _fill(spec: PropertySpec, template: str, what: str, **slots: str) -> str:
    """`template` with every slot replaced in one pass, so inserted text is
    never read as a slot. A slot the call gives no text for is a config error."""
    src, tgt = spec.language_pair
    slots.update(property=spec.name, src_lang=language_name(src), tgt_lang=language_name(tgt))

    def fill(match: re.Match) -> str:
        name = match.group(1)
        if name in slots:
            return slots[name]
        where = f"property {spec.id} {what}"
        if name.startswith("demo_"):
            raise ConfigError(f"{where}: demo slot {{{name}}} has no matching demo")
        raise ConfigError(f"{where}: placeholder {{{name}}} was not filled")

    return _SLOT.sub(fill, template)


def render_source_prompt(spec: PropertySpec) -> str:
    """Fill the property's source-sentence template with its name and demos."""
    demos = {f"demo_{i}": demo for i, demo in enumerate(spec.demos, 1)}
    return _fill(spec, spec.source_prompt, "source prompt", **demos)


def render_candidate_prompt(spec: PropertySpec, value: str) -> str:
    """Fill the exhaustive-candidates template for one property value."""
    return _fill(spec, spec.candidate_prompt, "candidate prompt", value=value)


def render_contrastive_prompts(spec: PropertySpec, value: str, sentence: str) -> tuple[str, str]:
    """Fill the (correct, foil) templates for one contrastive value.

    The correct-side template sees the full source sentence so the prompt
    carries the value in context; the foil side sees the value alone.
    """
    if not spec.foil_prompt:
        raise ConfigError(f"property {spec.id}: no foil prompt configured")
    return (
        _fill(spec, spec.candidate_prompt, "correct prompt", value=value, sentence=sentence),
        _fill(spec, spec.foil_prompt, "foil prompt", value=value, sentence=sentence),
    )


def parse_item_list(response: str) -> tuple[list[str], int]:
    """The "- " items of a response and how many other nonblank (chatter) lines it has."""
    items = []
    chatter = 0
    for line in response.splitlines():
        stripped = line.strip()
        if stripped.startswith("- "):
            items.append(stripped[2:].strip())
        elif stripped:
            chatter += 1
    return items, chatter


def normalize_sentence(text: str) -> str:
    """Duplicate-detection key: the match form, trimmed and whitespace-collapsed."""
    return " ".join(match_form(text).split())


def is_multi_sentence(text: str) -> bool:
    # Terminal mark followed by whitespace and a letter; abbreviations cause
    # some false rejections, which is acceptable at generation cost.
    return bool(_SENTENCE_BREAK.search(text.strip()))


def filter_sentences(
    parsed: Sequence[str], seen: set[str]
) -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    """Apply the acceptance filters to a batch of generated lines.

    `seen` carries normalized sentences accepted so far and is updated in
    place. Returns the accepted lines as (raw, value) and the rejections as
    (line, reason).
    """
    accepted: list[tuple[str, str]] = []
    rejections: list[tuple[str, str]] = []
    for item in parsed:
        try:
            source, value, _ = parse_bracketed(item)
        except BracketParseError as exc:
            rejections.append((item, exc.reason))
            continue
        if is_multi_sentence(source):
            rejections.append((item, "multi_sentence"))
            continue
        key = normalize_sentence(source)
        if key in seen:
            rejections.append((item, "duplicate"))
            continue
        seen.add(key)
        accepted.append((item, value))
    return accepted, rejections


def generate_suite(
    spec: PropertySpec,
    target_count: int,
    llm: LlmProvider,
) -> tuple[list[TestCase], dict]:
    """Generate test cases for one property until `target_count` are kept.

    Returns the cases and the property's `genlog.json` mapping: the filter
    outcome of every batch (emitted = kept + rejected), their totals, and the
    accepted cases and value counts. The identical prompt is re-issued every
    batch. Deterministic given a deterministic provider.
    """
    if target_count < 1:
        raise ValueError("target_count must be >= 1")
    # Each batch nominally yields 10 items; the cap stops degenerate loops.
    max_batches = max(1, math.ceil(target_count / 2))
    prompt = render_source_prompt(spec)
    seen: set[str] = set()
    cases: list[TestCase] = []
    genlog: dict = {
        "property_id": spec.id,
        "emitted": 0,
        "kept": 0,
        "rejected_by_reason": Counter(),
        "truncated": 0,
        "batches": [],
        "accepted": [],
        "value_counts": Counter(),
    }
    for batch_index in range(max_batches):
        items, chatter = parse_item_list(llm.complete(prompt))
        accepted, rejections = filter_sentences(items, seen)
        by_reason = dict(Counter(reason for _, reason in rejections))
        genlog["emitted"] += len(items)
        genlog["kept"] += len(accepted)
        genlog["rejected_by_reason"].update(by_reason)
        genlog["batches"].append(
            {
                "emitted": len(items),
                "kept": len(accepted),
                "chatter": chatter,
                "rejected_by_reason": by_reason,
            }
        )
        for raw, value in accepted:
            genlog["value_counts"][value] += 1
            if len(cases) >= target_count:
                genlog["truncated"] += 1
                continue
            case_id = f"{spec.id}-{len(cases):05d}"
            cases.append(TestCase(case_id, spec.id, raw))
            genlog["accepted"].append({"id": case_id, "batch": batch_index, "value": value})
        if len(cases) >= target_count:
            return cases, genlog
    raise ProviderError(
        f"property {spec.id}: {len(cases)}/{target_count} cases after {max_batches} batches"
    )


def _parse_pipe_list(response: str, value: str, side: str = "") -> dict[str, str]:
    """The distinct entries of a "|"-separated response, keyed by their match
    form, each spelled as it first appears."""
    text = response.strip()
    if text == "NA":
        detail = f" ({side})" if side else ""
        raise NoCandidatesError(
            "unanswerable", f"candidate generation for value {value!r} answered NA{detail}"
        )
    entries: dict[str, str] = {}
    for part in filter(None, (p.strip() for p in text.split("|"))):
        entries.setdefault(match_form(part), part)
    if not entries:
        raise NoCandidatesError(
            "empty_after_parse",
            f"candidate response for {value!r} parsed to an empty list: {response!r}"
        )
    return entries


def generate_exhaustive_candidates(
    value: str,
    spec: PropertySpec,
    llm: LlmProvider,
) -> CandidateSet:
    """Ask the LLM for every valid translation of one property value."""
    if not value:
        raise ValueError("value must be nonempty")
    prompt = render_candidate_prompt(spec, value)
    response = llm.complete(prompt)
    return CandidateSet(value=value, candidates=tuple(_parse_pipe_list(response, value).values()))


def generate_contrastive_pair(
    value: str,
    sentence: str,
    spec: PropertySpec,
    llm: LlmProvider,
) -> ContrastivePair:
    """Ask the LLM for correct-meaning and literal-foil translation lists.

    Entries the LLM proposes on both sides are kept only as correct: a string
    it considers a valid figurative translation must not cause a fail.
    """
    if not value:
        raise ValueError("value must be nonempty")
    correct_prompt, foil_prompt = render_contrastive_prompts(spec, value, sentence)
    correct_resp = llm.complete(correct_prompt)
    foil_resp = llm.complete(foil_prompt)
    correct = _parse_pipe_list(correct_resp, value, side="correct")
    foils = _parse_pipe_list(foil_resp, value, side="foil")
    foil = [f for key, f in foils.items() if key not in correct]
    if not foil:
        raise NoCandidatesError(
            "empty_after_parse",
            f"foil candidates for {value!r} parsed to an empty list: "
            f"every foil overlaps the correct list"
        )
    return ContrastivePair(value=value, correct=tuple(correct.values()), foil=tuple(foil))


def generation_stats(genlog: Mapping) -> tuple[float, float]:
    """(kept fraction of emitted, distinct-value fraction of kept) of a `genlog.json` mapping."""
    if not genlog["batches"]:
        raise DataInvariantError("generation log has no batches")
    emitted, kept = genlog["emitted"], genlog["kept"]
    if emitted == 0:
        raise DataInvariantError("no items were emitted")
    return kept / emitted, (len(genlog["value_counts"]) / kept) if kept else 0.0

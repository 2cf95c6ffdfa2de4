"""Shared fixtures: deterministic providers and property specs."""
from __future__ import annotations

import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest

from mtbehave.config import packaged_template
from mtbehave.detection import TokenizerConfig, ngrams, tokenize
from mtbehave.model import PropertySpec, match_form
from mtbehave.providers import HashEmbedder
from mtbehave.runner import evaluate


class ScriptedLlm:
    """In-memory provider for tests.

    With `responses`, answers sequentially (sticking on the last one). With
    `by_prompt`, answers per rendered prompt, which mirrors how the replay
    provider behaves on disk.
    """

    def __init__(self, responses=(), by_prompt=None):
        self.responses = list(responses)
        self.by_prompt = {
            prompt: list(rs) if isinstance(rs, (list, tuple)) else [rs]
            for prompt, rs in (by_prompt or {}).items()
        }
        self.calls: list[str] = []

    def complete(self, prompt: str) -> str:
        self.calls.append(prompt)
        if self.by_prompt:
            queue = self.by_prompt.get(prompt)
            assert queue is not None, f"unexpected prompt: {prompt[:80]!r}"
            return queue.pop(0) if len(queue) > 1 else queue[0]
        assert self.responses, "scripted responses exhausted"
        return self.responses.pop(0) if len(self.responses) > 1 else self.responses[0]


class ConstantEmbedder:
    """Maps every text to the same unit vector (all similarities tie at 1)."""

    def __init__(self, dim: int = 4):
        self.dim = dim

    def embed(self, texts):
        return np.full((len(texts), self.dim), 1.0 / self.dim**0.5)


class CountingEmbedder:
    """Wraps an embedder and records the texts of every call."""

    def __init__(self, inner):
        self.inner = inner
        self.calls: list[list[str]] = []

    @property
    def texts_embedded(self) -> int:
        return sum(map(len, self.calls))

    def embed(self, texts):
        self.calls.append(list(texts))
        return self.inner.embed(texts)


def reference_cosine(a, b) -> float:
    """Scalar cosine in [-1, 1] over raw vectors: the reference the batched
    contrastive kernel is checked against. Equal vectors score exactly 1."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    ta, tb = tuple(a), tuple(b)
    norm_a = sum(x * x for x in ta)
    norm_b = sum(x * x for x in tb)
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError("cosine undefined for the zero vector")
    if ta == tb:
        return 1.0
    dot = sum(x * y for x, y in zip(ta, tb))
    return max(-1.0, min(1.0, dot / math.sqrt(norm_a * norm_b)))


def reference_hash_vector(text: str, dim: int) -> tuple[float, ...]:
    """Scalar `HashEmbedder` vector: the reference its batch form must equal bit for bit."""
    folded = match_form(text).encode("utf-8")
    raw = b""
    counter = 0
    while len(raw) < dim * 8:
        raw += hashlib.sha256(folded + counter.to_bytes(4, "big")).digest()
        counter += 1
    values = [int.from_bytes(raw[8 * i : 8 * i + 8], "big") / 2**63 - 1.0 for i in range(dim)]
    norm = math.sqrt(sum(v * v for v in values))
    return tuple(v / norm for v in values)


def reference_max_sim(translation, candidate, embedder, tok=TokenizerConfig()) -> float:
    """Scalar loop: the best reference cosine between the candidate and any of
    the translation's n-grams, n being the candidate's token count."""
    n = len(tokenize(candidate, tok)) or 1
    cand_vec = embedder.embed([candidate])[0]
    return max(
        reference_cosine(embedder.embed([g])[0], cand_vec) for g in ngrams(translation, n, tok)
    )


def evaluate_records(spec, suite, candidates, records, **kwargs):
    """`evaluate` on translation rows (case_id, system_id, translation): one row
    per system, in order of first appearance. Returns the table's judged cells
    as verdict rows, system by system, in the shape `load_verdicts` returns."""
    index = {case.id: k for k, case in enumerate(suite)}
    rows: dict[str, list] = {}
    for case_id, system_id, translation in records:
        rows.setdefault(system_id, [None] * len(suite))[index[case_id]] = translation
    table, details, missing = evaluate(spec, suite, candidates, list(rows.values()), **kwargs)
    exhaustive = spec.detector == "exhaustive"  # its detail is the matched candidate
    verdicts = [
        (case.id, system_id, passed, *((d, None) if exhaustive else (None, tuple(d))))
        for system_id, passes, found in zip(rows, table, details)
        for case, passed, d in zip(suite, passes, found)
        if passed is not None
    ]
    return SimpleNamespace(verdicts=verdicts, missing=missing)


def make_spec(
    prop_id="units",
    name="physical unit",
    detector="exhaustive",
    demos=None,
    source_prompt=None,
    candidate_prompt=None,
    foil_prompt=None,
    language_pair=("en", "de"),
) -> PropertySpec:
    if demos is None:
        demos = (
            "I ran 3 [miles] before breakfast.",
            "The bulb draws 60 [watts] at full brightness.",
            "The shelf is 42 [inches] wide.",
        )
    if candidate_prompt is None:
        candidate_prompt = packaged_template(
            "contrastive_correct.txt" if detector == "contrastive" else "candidates.txt"
        )
    if foil_prompt is None and detector == "contrastive":
        foil_prompt = packaged_template("contrastive_foil.txt")
    return PropertySpec(
        id=prop_id,
        name=name,
        detector=detector,
        source_prompt=source_prompt or packaged_template("source.txt"),
        candidate_prompt=candidate_prompt,
        foil_prompt=foil_prompt,
        demos=tuple(demos),
        language_pair=tuple(language_pair),
    )


@pytest.fixture
def units_spec() -> PropertySpec:
    return make_spec()


@pytest.fixture
def idioms_spec() -> PropertySpec:
    return make_spec(
        prop_id="idioms",
        name="idiom",
        detector="contrastive",
        demos=(
            "She told him to [break a leg] before the audition.",
            "He [hit the ground running] at his new job.",
            "Don't [put all your eggs in one basket] when investing.",
        ),
    )


@pytest.fixture
def hash_embedder() -> HashEmbedder:
    return HashEmbedder(dim=32)


# ---------------------------------------------------------------------------
# Offline CLI workspace: config + replay fixtures for a two-property pipeline.

NAMES_ITEMS = [
    "The prize went to [Rafael Ortega] this year.",
    "Nobody saw [Mina Park] arrive at dawn.",
    "A letter finally reached [Laura Bach] today.",
    "Fans cheered loudly for [Omar Haddad] tonight.",
    "The award completely surprised [Clara Vega] backstage.",
    "Critics warmly praised [Anna Maier] afterwards.",
]

IDIOM_ITEMS = [
    "She told him to [break a leg] tonight.",
    "They urged us to [break a leg] onstage.",
    "He decided to [hit the sack] early.",
    "After the hike we [hit the sack] immediately.",
    "Try not to [spill the beans] about it.",
    "Someone will [spill the beans] eventually.",
]

IDIOM_CORRECT = {
    "break a leg": "break a leg|viel Glück",
    "hit the sack": "hit the sack|schlafen gehen",
    "spill the beans": "spill the beans|ein Geheimnis verraten",
}
IDIOM_FOIL = {
    "break a leg": "brich dir ein Bein",
    "hit the sack": "schlag den Sack",
    "spill the beans": "verschütte die Bohnen",
}

OFFLINE_CONFIG_TEXT = """
workspace: workspace
seed: 5
target_count: 6
stats: {k: 200, alpha: 0.05}
providers:
  llm: {kind: replay, replay_dir: replays}
  embedder: {kind: hash, dim: 16}
properties:
  - id: names
    name: person name
    detector: exhaustive
    language_pair: [en, de]
    demos:
      - "[Alice Johnson] signed the contract in Berlin."
      - "The medal went to [Ravi Kumar] at last."
      - "Everyone applauded [Sofia Brandt] warmly."
  - id: idioms
    name: idiom
    detector: contrastive
    language_pair: [en, de]
    demos:
      - "She told him to [break a leg] before the show."
      - "He [hit the ground running] at work."
      - "Don't [put all your eggs in one basket] now."
systems:
  - id: identity
    kind: command
    command: cat
  - id: mangler
    kind: command
    command: "sed -e s/a/x/g"
"""


def build_offline_workspace(tmp_path):
    """Write the offline config plus every replay response the pipeline needs."""
    from mtbehave.config import load_config
    from mtbehave.generation import (
        render_candidate_prompt,
        render_contrastive_prompts,
        render_source_prompt,
    )
    from mtbehave.providers import write_replay_responses

    config_path = tmp_path / "config.yaml"
    config_path.write_text(OFFLINE_CONFIG_TEXT, encoding="utf-8")
    replays = tmp_path / "replays"
    config = load_config(str(config_path))

    names = config.property_by_id("names")
    write_replay_responses(
        replays, render_source_prompt(names), ["\n".join(f"- {s}" for s in NAMES_ITEMS)]
    )
    for item in NAMES_ITEMS:
        value = item[item.index("[") + 1 : item.index("]")]
        write_replay_responses(replays, render_candidate_prompt(names, value), [value])

    idioms = config.property_by_id("idioms")
    write_replay_responses(
        replays, render_source_prompt(idioms), ["\n".join(f"- {s}" for s in IDIOM_ITEMS)]
    )
    first_sentence: dict[str, str] = {}
    for item in IDIOM_ITEMS:
        value = item[item.index("[") + 1 : item.index("]")]
        first_sentence.setdefault(value, item.replace("[", "").replace("]", ""))
    for value, sentence in first_sentence.items():
        correct_prompt, foil_prompt = render_contrastive_prompts(idioms, value, sentence)
        write_replay_responses(replays, correct_prompt, [IDIOM_CORRECT[value]])
        write_replay_responses(replays, foil_prompt, [IDIOM_FOIL[value]])

    return config_path

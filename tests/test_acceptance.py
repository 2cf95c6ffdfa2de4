"""Acceptance criteria, one test per criterion.

Each test prints `ACCEPTANCE <n> <name>: PASS|FAIL` (visible with -s or in
captured output on failure). Tolerances are fixed here, not calibrated.
"""
from __future__ import annotations

import functools
import json
import random
import time

import pytest

from mtbehave.cli import main
from mtbehave.config import load_config
from mtbehave.detection import TokenizerConfig, judge_contrastive, match_exhaustive, max_sim, ngrams
from mtbehave.generation import generate_suite, generation_stats
from mtbehave.metrics import (
    ResampleConfig,
    bootstrap_ci,
    diversity_series,
    macro_pass_rate,
    paired_bootstrap,
    resampled_mprs,
)
from mtbehave.model import CandidateSet, ContrastivePair, TestCase
from mtbehave.providers import HashEmbedder
from mtbehave.runner import apply_candidate_edits

from conftest import (
    ScriptedLlm,
    build_offline_workspace,
    evaluate_records,
    make_spec,
    reference_max_sim,
)


def criterion(number: int, name: str):
    """Print the per-criterion pass/fail line around the wrapped test."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {number:2d} {name}: PASS")
            return result

        return wrapper

    return decorate


# -- 1 ----------------------------------------------------------------------

ALPHABET = "abcdeßÄÉ😀 .,'"


def random_text(rng: random.Random, max_len: int) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, max_len)))


@criterion(1, "detector oracle equivalence (10k instances, <5s)")
def test_detector_oracle_equivalence():
    rng = random.Random(104729)
    instances = []
    while len(instances) < 10_000:
        translation = random_text(rng, 24)
        candidates = []
        for _ in range(rng.randint(1, 5)):
            cand = random_text(rng, 4).strip()
            if cand:
                candidates.append(cand)
        if not candidates:
            continue
        # plant a true match in a third of the instances
        if rng.random() < 0.33:
            pos = rng.randint(0, len(translation))
            translation = translation[:pos] + rng.choice(candidates) + translation[pos:]
        folded_seen: set[str] = set()
        unique = [c for c in candidates if not (c.casefold() in folded_seen or folded_seen.add(c.casefold()))]
        instances.append((translation, CandidateSet(value="v", candidates=tuple(unique))))

    start = time.perf_counter()
    outcomes, _ = match_exhaustive([cs for _, cs in instances], [t for t, _ in instances])
    elapsed = time.perf_counter() - start
    expected = [any(c.casefold() in t.casefold() for c in cs.candidates) for t, cs in instances]
    assert outcomes == expected
    assert 0 < sum(outcomes) < len(outcomes), "fixture must exercise both verdicts"
    assert elapsed < 5.0, f"detector took {elapsed:.2f}s"


# -- 2 ----------------------------------------------------------------------


@criterion(2, "contrastive max-similarity equals brute force (1k instances)")
def test_algorithm_equivalence():
    rng = random.Random(1299709)
    embedder = HashEmbedder(dim=32)
    tok = TokenizerConfig()
    words = ["viel", "Glück", "Bein", "brich", "dir", "ein", "heute", "Morgen", "läuft", "gut"]

    def phrase(k_min=1, k_max=4):
        return " ".join(rng.choice(words) for _ in range(rng.randint(k_min, k_max)))

    checked_pass = checked_fail = 0
    for _ in range(1_000):
        translation = phrase(0, 10)
        correct = phrase()
        foil = phrase()
        if foil.casefold() == correct.casefold():
            foil = foil + " anders"
        pair = ContrastivePair(value="v", correct=(correct,), foil=(foil,))

        # The detector normalizes each vector once, so its scores may differ
        # from the scalar loop's in the last bits; pass bits must not.
        sim_correct = reference_max_sim(translation, correct, embedder, tok)
        sim_foil = reference_max_sim(translation, foil, embedder, tok)
        sims = max_sim([translation], [[correct, foil]], embedder, tok)
        assert sims.tolist() == pytest.approx([sim_correct, sim_foil], abs=1e-12)
        [scores] = judge_contrastive([translation], [pair], embedder, tok)
        passed = scores[0] >= scores[1]
        assert passed == (sim_correct >= sim_foil)
        assert scores == pytest.approx((sim_correct, sim_foil), abs=1e-12)
        checked_pass += passed
        checked_fail += not passed
    assert checked_pass and checked_fail, "fixture must exercise both verdicts"


# -- 3 ----------------------------------------------------------------------


@criterion(3, "worked examples: unit matching, decimal formats, 2-gram")
def test_worked_paper_examples():
    cset = CandidateSet(value="miles", candidates=("Meilen", "mi"))
    assert match_exhaustive([cset], ["Ich lief 3 Meilen."])[0] == [True]
    assert match_exhaustive([cset], ["Ich lief 3 km."])[0] == [False]

    decimals = CandidateSet(value="4200.4", candidates=("4200,4", "4.200,4"))
    assert match_exhaustive([decimals], ["Das Unternehmen erhielt 4200,4€."])[0] == [True]
    assert match_exhaustive([decimals], ["Das Unternehmen erhielt 4.200,4€."])[0] == [True]

    grams = ngrams("Estoy muy emocionado por el concierto", 2, TokenizerConfig())
    assert "muy emocionado" in grams


# -- 4 ----------------------------------------------------------------------


@criterion(4, "metrics identities: MPR/PR relations and bounds (10k samples)")
def test_metrics_identities():
    rng = random.Random(15485863)
    assert macro_pass_rate(["A", "A", "B", "B", "B", "B"], [1, 0, 1, 1, 1, 1]) == 0.75

    for _ in range(10_000):
        n = rng.randint(1, 12)
        values = [f"v{rng.randint(0, 5)}" for _ in range(n)]
        row = [rng.randint(0, 1) for _ in values]
        assert 0.0 <= macro_pass_rate(values, row) <= 1.0
        singleton = [f"u{i}" for i in range(n)]
        assert macro_pass_rate(singleton, row) == sum(row) / n


# -- 5 ----------------------------------------------------------------------


@criterion(5, "bootstrap coverage 95% +/- 4pt at p in {0.3, 0.7, 0.9} (<60s)")
def test_bootstrap_coverage():
    start = time.perf_counter()
    datasets = 200
    n = 1000
    for case_index, p in enumerate((0.3, 0.7, 0.9)):
        hits = 0
        for i in range(datasets):
            rng = random.Random(900_001 + 7919 * case_index + i)
            row = [1 if rng.random() < p else 0 for _ in range(n)]
            cfg = ResampleConfig(k=1000, alpha=0.05, seed=i)
            lo, hi = bootstrap_ci(resampled_mprs(["v"] * n, [row], cfg)[0], cfg)
            hits += lo <= p <= hi
        coverage = hits / datasets
        assert 0.91 <= coverage <= 0.99, f"coverage {coverage:.3f} at p={p}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"coverage study took {elapsed:.1f}s"


# -- 6 ----------------------------------------------------------------------


@criterion(6, "paired bootstrap: tie=0.5 exactly, separation=0.0, antisymmetry")
def test_paired_bootstrap_sanity():
    cfg = ResampleConfig(k=500, alpha=0.05, seed=31)
    rng = random.Random(32452843)
    identical = [rng.randint(0, 1) for _ in range(200)]
    mprs = resampled_mprs(["v"] * 200, [identical, identical], cfg)
    winner, p_value, _ = paired_bootstrap(mprs[0], mprs[1], cfg)
    assert p_value == 0.5
    assert winner is None

    n = 100
    all_pass, all_fail = resampled_mprs(["v"] * n, [[1] * n, [0] * n], cfg)
    winner, p_value, _ = paired_bootstrap(all_pass, all_fail, cfg)
    assert winner == "a" and p_value == 0.0

    small = ResampleConfig(k=80, alpha=0.05, seed=5)
    for _ in range(100):
        n = rng.randint(4, 30)
        values = [rng.choice("abc") for _ in range(n)]
        rows = [[rng.randint(0, 1) for _ in values] for _ in range(2)]
        a, b = resampled_mprs(values, rows, small)
        fwd_winner, fwd_p, _ = paired_bootstrap(a, b, small)
        rev_winner, rev_p, _ = paired_bootstrap(b, a, small)
        assert fwd_p == rev_p
        assert {"a": "b", "b": "a", None: None}[fwd_winner] == rev_winner


# -- 7 ----------------------------------------------------------------------


@criterion(7, "diversity: first=1.0, repeat=0.0, oracle on 100 random suites")
def test_diversity_metric():
    assert diversity_series(["a b c d"], 3) == [1.0]
    assert diversity_series(["a b c d", "a b c d"], 3) == [1.0, 0.0]

    rng = random.Random(49979687)
    words = ["uno", "dos", "tres", "cuatro", "cinco", "seis"]
    for _ in range(100):
        n = rng.randint(1, 3)
        sentences = [
            " ".join(rng.choice(words) for _ in range(rng.randint(n, 8))) for _ in range(2)
        ]
        first_grams = {
            tuple(sentences[0].split()[i : i + n])
            for i in range(len(sentences[0].split()) - n + 1)
        }
        second_grams = {
            tuple(sentences[1].split()[i : i + n])
            for i in range(len(sentences[1].split()) - n + 1)
        }
        expected = [1.0, len(second_grams - first_grams) / len(second_grams)]
        got = diversity_series(sentences, n)
        assert got == expected
        assert all(0.0 <= v <= 1.0 for v in got)


# -- 8 ----------------------------------------------------------------------


@criterion(8, "end-to-end determinism and names-property MPR 1.0")
def test_end_to_end_determinism(tmp_path):
    config_path = build_offline_workspace(tmp_path)
    config = load_config(str(config_path))
    suite_path = config.property_dir("names") / "suite.jsonl"
    candidates_path = config.property_dir("names") / "candidates.jsonl"

    snapshots = []
    for execution in (1, 2):
        assert main(["generate", "--config", str(config_path)]) == 0
        assert main(["candidates", "--config", str(config_path)]) == 0
        out_dir = tmp_path / f"exec{execution}"
        assert main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 0
        snapshots.append(
            {
                "suite": suite_path.read_bytes(),
                "candidates": candidates_path.read_bytes(),
                "verdicts": (out_dir / "verdicts.jsonl").read_bytes(),
                "report": (out_dir / "report.json").read_bytes(),
            }
        )
    assert snapshots[0] == snapshots[1]

    report = json.loads(snapshots[0]["report"].decode("utf-8"))
    names = report["properties"]["names"]["systems"]["identity"]
    assert names["mpr"] == 1.0
    assert names["ci"] == [1.0, 1.0]


# -- 9 ----------------------------------------------------------------------


@criterion(9, "annotation edits: additions never lower, removals never raise")
def test_annotation_monotonicity(units_spec):
    rng = random.Random(67867967)
    unit_names = [f"unit{i}" for i in range(10)]
    raws = [
        f"Case {i} measured [" + rng.choice(unit_names) + "] exactly."
        for i in range(100)
    ]
    suite = []
    for i, raw in enumerate(raws):
        suite.append(TestCase(f"units-{i:05d}", "units", raw))
    candidates = {
        name: CandidateSet(value=name, candidates=(f"Einheit{name[4:]}", name.upper()))
        for name in unit_names
    }
    translations = {}
    for system, hit_rate in (("good", 0.8), ("poor", 0.4)):
        translations[system] = [
            (
                c.id,
                system,
                (
                    f"Der Wert war Einheit{c.value[4:]}."
                    if rng.random() < hit_rate
                    else "Der Wert fehlt."
                ),
            )
            for c in suite
        ]

    def pass_counts(cands):
        return {
            system: sum(
                v[2] for v in evaluate_records(units_spec, suite, cands, recs).verdicts
            )
            for system, recs in translations.items()
        }

    before = pass_counts(candidates)
    additions = [(name, ("Wert",), ()) for name in unit_names[:4]]
    added, _ = apply_candidate_edits(candidates, additions)
    after_add = pass_counts(added)
    for system in translations:
        assert after_add[system] >= before[system]
    assert any(after_add[s] > before[s] for s in translations)

    removals = [(name, (), (name.upper(),)) for name in unit_names]
    removed, _ = apply_candidate_edits(candidates, removals)
    after_remove = pass_counts(removed)
    for system in translations:
        assert after_remove[system] <= before[system]


# -- 10 ---------------------------------------------------------------------


@criterion(10, "generation stats: engineered 30% rejection yields kept=70%")
def test_generation_statistics(units_spec):
    def batch(start: int) -> str:
        uniques = [f"Sentence {i} holds [{i} units] fine." for i in range(start, start + 7)]
        dups = [uniques[0], uniques[1]]
        multi = f"Pair [{start}] and [{start + 1}] both appear."
        return "\n".join(f"- {s}" for s in uniques + dups + [multi])

    llm = ScriptedLlm([batch(0), batch(100), batch(200)])
    cases, genlog = generate_suite(units_spec, 21, llm)
    assert len(cases) == 21
    kept_pct, _ = generation_stats(genlog)
    assert kept_pct == 0.7
    rejected = genlog["rejected_by_reason"]
    assert rejected == {"duplicate": 6, "multi_value": 3}
    assert genlog["emitted"] == genlog["kept"] + sum(rejected.values())
    for stats in genlog["batches"]:
        assert stats["emitted"] == stats["kept"] + sum(stats["rejected_by_reason"].values())

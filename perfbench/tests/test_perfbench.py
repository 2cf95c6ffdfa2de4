"""Tests of the benchmark itself: fixture determinism, the oracle, tracing and
failure accounting, on a small two-property workload.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
SRC = BENCH.parent / "src"
for path in (str(SRC), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import fixture as fx  # noqa: E402
import oracle  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402

SMALL = fx.Workload(
    properties=("decimals", "idioms"),
    cases=90,
    systems=4,
    commands=("generate", "candidates", "run"),
)
SEED = 3


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _session(tmp_path: Path) -> bench.Session:
    fixture = fx.build_fixture("small", SEED, tmp_path / "fixture", SRC, SMALL)
    traces = tmp_path / "traces"
    traces.mkdir()
    return bench.Session(fixture, tmp_path / "work", SRC, traces)


def _embedder():
    from mtbehave.providers import HashEmbedder

    return HashEmbedder(dim=32)


@pytest.fixture(scope="module")
def checked(tmp_path_factory):
    """One untraced and one traced repetition of the small workload."""
    tmp = tmp_path_factory.mktemp("bench")
    session = _session(tmp)
    plain = session.rep(0, trace=False)
    result = oracle.check(session.fixture, session.workspace, plain["out"], _embedder())
    traced = session.rep(1, trace=True)
    return session, plain, result, traced


def test_fixture_is_deterministic(tmp_path):
    for name, workload in (("small", SMALL), ("exhaustive_rerun", None)):
        first = fx.build_fixture(name, SEED, tmp_path / name / "a", SRC, workload)
        second = fx.build_fixture(name, SEED, tmp_path / name / "b", SRC, workload)
        other = fx.build_fixture(name, SEED + 1, tmp_path / name / "c", SRC, workload)
        assert _files(first.root) == _files(second.root)
        assert _files(first.root) != _files(other.root)


def test_fixture_shape():
    systems = fx.make_systems(SMALL, fx.random.Random(0))
    data = fx._property_data("decimals", "exhaustive", SMALL, systems, SEED, "t")
    assert len(data.kept) == SMALL.cases
    assert all(10 <= len(raw.split()) <= 30 for raw in data.kept)
    items = [line for b in data.batches for line in b.splitlines() if line.startswith("- ")]
    assert len(items) - len(data.kept) == len(data.batches)  # one filter reject per batch
    assert any(len(e["candidates"]) > 1 for e in data.entries.values())


def test_oracle_accepts_the_program(checked):
    session, plain, result, _ = checked
    assert plain["ok"]
    assert result.errors == []
    assert result.verdicts == session.judgements
    assert result.significant and result.not_significant


def test_oracle_rejects_planted_errors(checked, tmp_path):
    session, plain, _, _ = checked
    out = tmp_path / "out"
    shutil.copytree(plain["out"], out)
    verdicts_path = out / "verdicts.jsonl"
    good = verdicts_path.read_text(encoding="utf-8")
    rows = [json.loads(line) for line in good.splitlines()]
    rows[7]["pass"] = not rows[7]["pass"]
    verdicts_path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    errors = oracle.check(session.fixture, session.workspace, out, _embedder()).errors
    assert any("disagrees with brute force" in e for e in errors)

    verdicts_path.write_text(good, encoding="utf-8")
    report_path = out / "report.json"
    report = json.loads(report_path.read_text(encoding="utf-8"))
    report["properties"]["decimals"]["systems"]["sys1"]["mpr"] += 0.01
    report_path.write_text(json.dumps(report), encoding="utf-8")
    errors = oracle.check(session.fixture, session.workspace, out, _embedder()).errors
    assert errors and all("MPR" in e for e in errors)


def test_tracing_leaves_outputs_unchanged(checked):
    session, plain, _, traced = checked
    assert traced["ok"]
    assert oracle.output_hashes(traced["out"]) == oracle.output_hashes(plain["out"])
    layers = bench.layer_metrics(traced)
    foil_prompts = len(session.fixture.properties["idioms"].entries)  # one more call per idiom
    assert layers["llm_round_trips"] == (
        traced["genlog"]["batches"] + layers["generation.candidates.calls"] + foil_prompts
    )
    assert layers["metrics.bootstrap_ci.calls"] == 2 * 4
    assert layers["metrics.paired_bootstrap.calls"] == 2 * 6
    assert layers["runner.cache.misses"] == session.judgements
    assert (session.traces / "rep1.spans.jsonl").exists()


def test_tracer_restores_every_wrapper():
    import mtbehave.metrics
    import mtbehave.runner

    originals = (mtbehave.runner.bootstrap_ci, mtbehave.runner.TranslationCache.get)
    tracer = tracing.Tracer(rep=0)
    tracer.install()
    try:
        assert mtbehave.runner.bootstrap_ci is not originals[0]
        assert mtbehave.metrics.bootstrap_ci is mtbehave.runner.bootstrap_ci
    finally:
        tracer.restore()
    assert (mtbehave.runner.bootstrap_ci, mtbehave.runner.TranslationCache.get) == originals
    assert tracer.missing == []


def test_failed_command_counts_every_judgement(checked):
    session, plain, _, _ = checked
    broken = session.rep(2, trace=False, commands=[
        ["run", "--config", str(session.fixture.config_path), "--offline",
         "--property", "no_such_property", "--out", str(session.work / "out2")],
    ])
    assert not broken["ok"] and broken["commands"][0]["rc"] == 1
    broken["match"] = False
    plain["match"] = True
    attempted, failed = bench.tally(session.judgements, [plain, broken])
    assert (attempted, failed) == (2 * session.judgements, session.judgements)


def test_benchmark_json_names_what_the_benchmark_prints():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(fx.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == bench.PER_LAYER

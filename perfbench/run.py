"""Outside-in benchmark of the offline mtbehave pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `./src`. The
benchmark writes the workload's seeded fixture under `.bench_work/`, then:

1. times `setup_s`: a fresh interpreter importing `mtbehave.cli` and loading
   the workload config, median of SETUP_SAMPLES launches;
2. runs the workload's CLI commands once and checks every output against the
   oracle. For the rerun workloads this run is cold and warms the
   translation cache that every later repetition starts from;
3. repeats the commands for `--seconds` (at least MIN_REPS times), each
   repetition in a fresh worker process on a fresh copy of the workspace,
   and requires `report.json` and the pass bits to hash as in step 2.

With `--trace 1`, untraced and traced repetitions alternate; the traced ones
wrap each module's public functions (see tracing.py) and give the per-layer
metrics. The last line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from fixture import WORKLOADS, build_fixture  # noqa: E402

SETUP_SAMPLES = 5
MIN_REPS = 3
MIN_TRACED_REPS = 2
WORKER_TIMEOUT_S = 150
COMMANDS = ("generate", "candidates", "apply-edits", "run")

END_TO_END = {
    "total_s": "s",
    "run_s": "s",
    "verdicts_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "generate_s": "s",
    "candidates_s": "s",
    "llm_round_trips": "count",
    "embed_round_trips": "count",
    "mt_round_trips": "count",
    "trace_overhead_s": "s",
    "providers.llm.calls": "count",
    "providers.llm.s": "s",
    "providers.llm.ms_per_call": "ms",
    "generation.generate_suite.self_s": "s",
    "generation.batches": "count",
    "generation.kept_frac": "ratio",
    "generation.candidates.calls": "count",
    "generation.candidates.self_s": "s",
    "providers.embed.calls": "count",
    "providers.embed.texts": "count",
    "providers.embed.s": "s",
    "detection.embed_cache.hit_ratio": "ratio",
    "detection.judge_contrastive.calls": "count",
    "detection.max_sim.calls": "count",
    "detection.max_sim.self_s": "s",
    "runner.evaluate.contrastive_s": "s",
    "detection.match_exhaustive.calls": "count",
    "runner.evaluate.exhaustive_s": "s",
    "runner.evaluate.verdicts": "count",
    "metrics.bootstrap_ci.calls": "count",
    "metrics.bootstrap_ci.s": "s",
    "metrics.paired_bootstrap.calls": "count",
    "metrics.paired_bootstrap.s": "s",
    "metrics.resamples": "count",
    "runner.build_report.self_s": "s",
    "runner.adapter.calls": "count",
    "runner.adapter.s": "s",
    "runner.translate_all.self_s": "s",
    "runner.cache.hits": "count",
    "runner.cache.misses": "count",
    "runner.cache.hit_ratio": "ratio",
    "runner.cache.get_s": "s",
    "runner.cache.put_s": "s",
    "model.load.s": "s",
    "model.save.s": "s",
    "model.bytes_written": "B",
    "config.load_config.s": "s",
    **{f"cli.{c}.self_s": "s" for c in COMMANDS},
}

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import mtbehave.cli; "
    "from mtbehave.config import load_config; load_config(sys.argv[2])"
)


def time_setup(src: Path, config: Path) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(src), str(config)],
                   check=True, capture_output=True, timeout=WORKER_TIMEOUT_S)
    return time.perf_counter() - start


class Session:
    """A fixture plus the directories its repetitions run in."""

    def __init__(self, fixture, work: Path, src: Path, traces: Path) -> None:
        self.fixture = fixture
        self.work = work
        self.src = src
        self.traces = traces
        self.workspace = fixture.root / "workspace"
        self.pristine = work / "pristine"
        if self.workspace.exists():
            shutil.copytree(self.workspace, self.pristine)
        else:
            self.pristine.mkdir(parents=True)
        self.judgements = fixture.workload.cases * len(fixture.properties) * len(fixture.systems)

    def warm(self) -> None:
        """Keep the translation cache the last repetition wrote."""
        shutil.copytree(self.workspace / "cache", self.pristine / "cache")

    def commands(self, out: Path) -> list[list[str]]:
        workload = self.fixture.workload
        common = ["--config", str(self.fixture.config_path), "--offline"]
        argvs = []
        for command in workload.commands:
            argv = [command, *common]
            if command == "apply-edits":
                argv += ["--property", workload.edit_property,
                         "--edits", str(self.fixture.root / "edits.jsonl")]
            elif command == "run":
                argv += ["--out", str(out)]
            argvs.append(argv)
        return argvs

    def rep(self, index: int, trace: bool, commands: list[list[str]] | None = None) -> dict:
        """One repetition in a fresh worker process on a fresh workspace."""
        if self.workspace.exists():
            shutil.rmtree(self.workspace)
        shutil.copytree(self.pristine, self.workspace)
        out = self.work / f"out{index}"
        job = {
            "src": str(self.src),
            "commands": commands or self.commands(out),
            "trace": trace,
            "rep": index,
            "result": str(self.work / f"result{index}.json"),
            "spans": str(self.traces / f"rep{index}.spans.jsonl"),
        }
        job_path = self.work / f"job{index}.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(job_path)],
            cwd=self.fixture.root, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
        result_path = Path(job["result"])
        if proc.returncode != 0 or not result_path.exists():
            result = {"commands": [{"command": "worker", "rc": proc.returncode, "s": 0.0}]}
        else:
            result = json.loads(result_path.read_text(encoding="utf-8"))
        result["ok"] = len(result["commands"]) == len(job["commands"]) and all(
            c["rc"] == 0 for c in result["commands"]
        )
        if not result["ok"]:
            sys.stderr.write(f"repetition {index} failed: {result['commands']}\n"
                             f"{proc.stdout[-1500:]}{proc.stderr[-1500:]}")
        result["out"] = out
        result["trace"] = trace
        result["verdicts"] = _count_lines(out / "verdicts.jsonl")
        result["genlog"] = _genlog_totals(self.workspace)
        return result


def _count_lines(path: Path) -> int:
    if not path.exists():
        return 0
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip())


def _genlog_totals(workspace: Path) -> dict[str, int]:
    totals = {"batches": 0, "emitted": 0, "kept": 0}
    for path in sorted(workspace.glob("*/genlog.json")):
        log = json.loads(path.read_text(encoding="utf-8"))
        totals["batches"] += len(log["batches"])
        totals["emitted"] += log["emitted"]
        totals["kept"] += log["kept"]
    return totals


def command_s(rep: dict, command: str) -> float:
    return sum(c["s"] for c in rep["commands"] if c["command"] == command)


def layer_metrics(rep: dict) -> dict[str, float]:
    """Per-layer numbers of one traced repetition."""
    spans, counters = rep["spans"], rep["counters"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def total(name):
        return spans.get(name, {}).get("s", 0.0)

    def own(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    llm, embed, adapter = calls("providers.llm"), calls("providers.embed"), calls("runner.adapter")
    hits, misses = counters.get("runner.cache.hits", 0), counters.get("runner.cache.misses", 0)
    texts = counters.get("providers.embed.texts", 0)
    requested = counters.get("detection.embed_cache.requested", 0)
    genlog = rep["genlog"]
    metrics = {
        "llm_round_trips": llm,
        "embed_round_trips": embed,
        "mt_round_trips": adapter,
        "providers.llm.calls": llm,
        "providers.llm.s": total("providers.llm"),
        "providers.llm.ms_per_call": 1000.0 * ratio(total("providers.llm"), llm),
        "generation.generate_suite.self_s": own("generation.generate_suite"),
        "generation.batches": genlog["batches"],
        "generation.kept_frac": ratio(genlog["kept"], genlog["emitted"]),
        "generation.candidates.calls": calls("generation.candidates"),
        "generation.candidates.self_s": own("generation.candidates"),
        "providers.embed.calls": embed,
        "providers.embed.texts": texts,
        "providers.embed.s": total("providers.embed"),
        "detection.embed_cache.hit_ratio": 1.0 - ratio(texts, requested) if requested else 0.0,
        "detection.judge_contrastive.calls": calls("detection.judge_contrastive"),
        "detection.max_sim.calls": calls("detection.max_sim"),
        "detection.max_sim.self_s": own("detection.max_sim"),
        "runner.evaluate.contrastive_s": total("runner.evaluate.contrastive"),
        "detection.match_exhaustive.calls": calls("detection.match_exhaustive"),
        "runner.evaluate.exhaustive_s": total("runner.evaluate.exhaustive"),
        "runner.evaluate.verdicts": rep["verdicts"],
        "metrics.bootstrap_ci.calls": calls("metrics.bootstrap_ci"),
        "metrics.bootstrap_ci.s": total("metrics.bootstrap_ci"),
        "metrics.paired_bootstrap.calls": calls("metrics.paired_bootstrap"),
        "metrics.paired_bootstrap.s": total("metrics.paired_bootstrap"),
        "metrics.resamples": counters.get("metrics.resamples", 0),
        "runner.build_report.self_s": own("runner.build_report"),
        "runner.adapter.calls": adapter,
        "runner.adapter.s": total("runner.adapter"),
        "runner.translate_all.self_s": own("runner.translate_all"),
        "runner.cache.hits": hits,
        "runner.cache.misses": misses,
        "runner.cache.hit_ratio": ratio(hits, hits + misses),
        "runner.cache.get_s": total("runner.cache.get"),
        "runner.cache.put_s": total("runner.cache.put"),
        "model.load.s": total("model.load"),
        "model.save.s": total("model.save"),
        "model.bytes_written": counters.get("model.bytes_written", 0),
        "config.load_config.s": total("config.load_config"),
    }
    for command in COMMANDS:
        metrics[f"cli.{command}.self_s"] = own(f"cli.{command}")
    return metrics


def tally(judgements: int, reps: list[dict]) -> tuple[int, int]:
    """(attempted, failed) judgements over repetitions. A repetition with a
    failed command, or with outputs other than the checked run's, fails all
    its judgements; otherwise the cases left without a verdict fail."""
    attempted = judgements * len(reps)
    failed = sum(judgements - r["verdicts"] if r["match"] else judgements for r in reps)
    return attempted, failed


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    src = root / "src"
    work = root / ".bench_work" / f"{name}-seed{seed}-{os.getpid()}"
    traces = root / ".bench_work" / "traces" / f"{name}-seed{seed}"
    if work.exists():
        shutil.rmtree(work)
    traces.mkdir(parents=True, exist_ok=True)
    try:
        fixture = build_fixture(name, seed, work / "fixture", src)
        setup = [time_setup(src, fixture.config_path) for _ in range(SETUP_SAMPLES)]
        session = Session(fixture, work, src, traces)

        from mtbehave.providers import HashEmbedder

        checked = session.rep(0, trace=False)
        verdict = oracle.check(fixture, session.workspace, checked["out"], HashEmbedder(dim=32))
        checked["match"] = checked["ok"] and not verdict.errors
        for error in verdict.errors:
            sys.stderr.write(f"oracle: {error}\n")
        hashes = oracle.output_hashes(checked["out"]) if checked["match"] else {}
        if fixture.workload.rerun and checked["ok"]:
            session.warm()
        reps = []
        start = time.perf_counter()
        minimum = MIN_TRACED_REPS if trace else MIN_REPS
        while time.perf_counter() - start < seconds or sum(r["trace"] == trace for r in reps) < minimum:
            for traced in ((False, True) if trace else (False,)):
                rep = session.rep(len(reps) + 1, traced)
                rep["match"] = (rep["ok"] and checked["match"]
                                and oracle.output_hashes(rep["out"]) == hashes)
                shutil.rmtree(rep["out"], ignore_errors=True)
                reps.append(rep)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = tally(session.judgements, [checked, *reps])
    correct = all(r["match"] for r in [checked, *reps])
    plain = [r for r in reps if not r["trace"] and r["ok"]]
    traced = [r for r in reps if r["trace"] and r["ok"]]
    print(f"workload {name}, seed {seed}: {len(plain)} untraced repetitions, "
          f"{len(traced)} traced, {len(setup)} setup samples")
    print(f"hashes of the checked run: {json.dumps(hashes)}")
    print("total_s per repetition: " + " ".join(
        f"{r['total_s']:.3f}{'t' if r['trace'] else ''}" for r in reps if r["ok"]))
    if trace:
        per_rep = [layer_metrics(r) for r in traced]
        values = {key: _median(m[key] for m in per_rep) for key in (per_rep[:1] or [{}])[0]}
        values["generate_s"] = _median(command_s(r, "generate") for r in plain)
        values["candidates_s"] = _median(command_s(r, "candidates") for r in plain)
        values["trace_overhead_s"] = (_median(r["total_s"] for r in traced)
                                      - _median(r["total_s"] for r in plain))
        missing = sorted({m for r in traced for m in r["untraced"]})
        if missing:
            print(f"not found in the program, so not traced: {', '.join(missing)}")
        if values:
            run_s = _median(command_s(r, "run") for r in traced)
            stages_s = _median(command_s(r, "generate") + command_s(r, "candidates") for r in traced)
            bootstrap_s = values["metrics.bootstrap_ci.s"] + values["metrics.paired_bootstrap.s"]
            print(f"traced shares: metrics.* {bootstrap_s / run_s:.3f} of run_s, contrastive "
                  f"evaluate {values['runner.evaluate.contrastive_s'] / run_s:.3f} of run_s, "
                  f"providers.llm {values['providers.llm.s'] / stages_s if stages_s else 0.0:.3f}"
                  f" of generate + candidates")
        units = PER_LAYER
    else:
        values = {
            "total_s": _median(r["total_s"] for r in plain),
            "run_s": _median(command_s(r, "run") for r in plain),
            "verdicts_per_s": _median(r["verdicts"] / command_s(r, "run") for r in plain),
            "setup_s": _median(setup),
            "peak_rss_mb": _median(r["peak_rss_mb"] for r in plain),
        }
        units = END_TO_END
    metrics = {key: {"value": values.get(key, 0.0), "unit": unit} for key, unit in units.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the offline mtbehave pipeline.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "mtbehave" / "cli.py").is_file():
        sys.stderr.write(f"no mtbehave sources under {root / 'src'}; run from a checkout\n")
        return 2
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

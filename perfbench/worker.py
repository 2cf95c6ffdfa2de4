"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/worker.py JOB.json

The job names the directory holding the `mtbehave` package, the CLI
commands to run in order, whether to trace, and where to write the result.
Each command is `mtbehave.cli.main(argv)`, timed with the wall clock; the
sequence stops at the first command that fails. Untraced repetitions run the
program unwrapped.
"""
from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def run_job(job: dict) -> dict:
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    import mtbehave.cli as cli

    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"mtbehave was imported from {cli.__file__}, not from {src}")
    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer(job["rep"])
        tracer.install()
    commands = []
    start = time.perf_counter()
    for argv in job["commands"]:
        t0 = time.perf_counter()
        try:
            rc = tracer.call(f"cli.{argv[0]}", cli.main, argv) if tracer else cli.main(argv)
        except Exception:  # a traceback is a failed command, not a crashed benchmark
            traceback.print_exc()
            rc = -1
        commands.append({"command": argv[0], "rc": rc, "s": time.perf_counter() - t0})
        if rc != 0:
            break
    result = {
        "commands": commands,
        "total_s": time.perf_counter() - start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        tracer.restore()
        result["spans"] = tracer.summary()
        result["counters"] = dict(tracer.counters)
        result["untraced"] = tracer.missing
        with open(job["spans"], "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    return result


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result = run_job(job)
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point for the whole pipeline.

Exit codes: 0 success, 1 usage/config error, 2 provider/adapter failure,
3 data-invariant violation.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from dataclasses import asdict, replace
from datetime import datetime, timezone
from itertools import accumulate, pairwise
from pathlib import Path

from .config import RunConfig, derive_seed, load_config
from .detection import CachedEmbedder
from .errors import ConfigError, DataInvariantError, MtBehaveError, NoCandidatesError
from .generation import (
    generate_contrastive_pair,
    generate_exhaustive_candidates,
    generate_suite,
    generation_stats,
)
from .metrics import diversity_series, trend_fit
from .model import (
    CandidateEntry,
    PropertySpec,
    TestCase,
    _append,
    _bool_field,
    _check_write_targets,
    _edit_row,
    _load_records,
    _make_dir,
    _read_bytes,
    _read_text,
    _write_atomic,
    _write_json,
    _write_jsonl,
    load_candidates,
    load_suite,
    load_translations,
    load_verdicts,
    save_candidates,
    save_suite,
    save_translations,
    save_verdicts,
)
from .runner import (
    TranslationCache,
    apply_candidate_edits,
    build_report,
    evaluate,
    render_report,
    sample_for_annotation,
    translate_all,
)

log = logging.getLogger(__name__)


class UsageError(MtBehaveError):
    """Raised for bad command lines; mapped to exit code 1."""

    exit_code = 1
    label = "usage error"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _add_config_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="run configuration (path or preset:<name>)")
    p.add_argument(
        "--property", action="append", default=None, metavar="ID",
        help="restrict to this property id (repeatable)",
    )
    p.add_argument("--seed", type=int, default=None, help="override the configured seed")
    p.add_argument("--offline", action="store_true", help="forbid network providers/adapters")


def build_parser() -> _Parser:
    parser = _Parser(prog="mtbehave", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate property test suites via the LLM provider")
    _add_config_options(p)
    p.add_argument("--target", type=int, default=None, help="cases per property (default 1000)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("candidates", help="generate candidate translation sets per value")
    _add_config_options(p)
    p.set_defaults(func=cmd_candidates)

    p = sub.add_parser("run", help="translate suites, judge outputs, and build reports")
    _add_config_options(p)
    p.add_argument(
        "--system", action="append", default=None, metavar="ID",
        help="restrict to this system id (repeatable)",
    )
    p.add_argument("--k", type=int, default=None, help="bootstrap resample count")
    p.add_argument("--alpha", type=float, default=None, help="significance level")
    p.add_argument("--out", default=None, metavar="DIR", help="run output directory")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("diversity", help="per-sentence novel n-gram fraction of a suite")
    _add_config_options(p)
    p.add_argument("--n", type=int, default=3, help="n-gram order (default 3)")
    p.add_argument("--degree", type=int, default=2, help="trend polynomial degree")
    p.set_defaults(func=cmd_diversity)

    p = sub.add_parser("annotate", help="sample pass/fail verdicts into a review file")
    _add_config_options(p)
    p.add_argument("--run", required=True, metavar="DIR", help="run directory to annotate")
    p.add_argument("--system", default=None, metavar="ID")
    p.add_argument("--k", dest="sample_size", type=int, default=100,
                   help="sample size per stratum (default 100)")
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("apply-edits", help="apply candidate edits; tally annotated FP/FN")
    _add_config_options(p)
    p.add_argument("--edits", required=True, help="JSONL of {value, add:[...], remove:[...]}")
    p.add_argument("--review", default=None, help="annotated review file for FP/FN tallies")
    p.set_defaults(func=cmd_apply_edits)

    return parser


def _overrides(args: argparse.Namespace) -> dict:
    return {
        "seed": getattr(args, "seed", None),
        "target_count": getattr(args, "target", None),
        "k": getattr(args, "k", None),
        "alpha": getattr(args, "alpha", None),
        "offline": getattr(args, "offline", False),
    }


def _reject_repeats(flag: str, ids: list[str] | None) -> None:
    """A repeated id would translate, judge and write its rows once per mention."""
    repeated = next((i for k, i in enumerate(ids or ()) if i in ids[:k]), None)
    if repeated is not None:
        raise UsageError(f"{flag} {repeated!r} is given more than once")


def _select_properties(config: RunConfig, ids: list[str] | None) -> list[PropertySpec]:
    _reject_repeats("--property", ids)
    if ids:
        return [config.property_by_id(i) for i in ids]
    if not config.properties:
        raise ConfigError("no properties configured")
    return list(config.properties)


def _read_property_file(
    config: RunConfig, prop_id: str, name: str, stage: str
) -> tuple[Path, bytes]:
    path = config.property_dir(prop_id) / name
    if not path.exists():
        raise ConfigError(
            f"no {name.removesuffix('.jsonl')} for property {prop_id!r} at {path}; "
            f"run `{stage}` first"
        )
    return path, _read_bytes(path)


def _load_property_suite(config: RunConfig, prop_id: str) -> tuple[list[TestCase], str]:
    """The property's suite and the sha256 of the bytes it was read from."""
    path, data = _read_property_file(config, prop_id, "suite.jsonl", "generate")
    suite = load_suite(path, data)
    strays = [c.id for c in suite if c.property_id != prop_id]
    if strays:
        raise DataInvariantError(
            f"{path}: cases {strays[:3]} do not belong to property {prop_id!r}"
        )
    return suite, hashlib.sha256(data).hexdigest()


def _load_property_candidates(
    config: RunConfig, prop_id: str
) -> tuple[dict[str, CandidateEntry], str]:
    """The property's candidates by value and the sha256 of the bytes they were read from."""
    path, data = _read_property_file(config, prop_id, "candidates.jsonl", "candidates")
    return load_candidates(path, data), hashlib.sha256(data).hexdigest()


def _require_at_least(flag: str, value: int, minimum: int) -> None:
    if value < minimum:
        raise UsageError(f"{flag} must be >= {minimum}, got {value}")


# ---------------------------------------------------------------------------
# commands


def cmd_generate(args: argparse.Namespace) -> int:
    config = load_config(args.config, _overrides(args))
    props = _select_properties(config, args.property)
    llm = config.build_llm()
    for spec in props:
        cases, genlog = generate_suite(spec, config.target_count, llm)
        prop_dir = config.property_dir(spec.id)
        save_suite(cases, prop_dir / "suite.jsonl")
        _write_json(genlog, prop_dir / "genlog.json")
        kept_pct, unique_pct = generation_stats(genlog)
        print(
            f"{spec.id}: {len(cases)} cases "
            f"(kept {kept_pct:.1%} of emitted, {unique_pct:.1%} unique values) "
            f"-> {prop_dir / 'suite.jsonl'}"
        )
    return 0


def cmd_candidates(args: argparse.Namespace) -> int:
    config = load_config(args.config, _overrides(args))
    props = _select_properties(config, args.property)
    llm = config.build_llm()
    for spec in props:
        suite, _ = _load_property_suite(config, spec.id)
        prop_dir = config.property_dir(spec.id)
        path = prop_dir / "candidates.jsonl"
        existing = load_candidates(path) if path.exists() else {}
        first_sentence: dict[str, str] = {}  # per value, in suite order: its first source
        for case in suite:
            first_sentence.setdefault(case.value, case.source)
        skipped: dict[str, list[str]] = {"unanswerable": [], "empty_after_parse": []}
        entries: dict[str, CandidateEntry] = dict(existing)
        for value, sentence in first_sentence.items():
            if value in entries:
                continue
            try:
                if spec.detector == "exhaustive":
                    entries[value] = generate_exhaustive_candidates(value, spec, llm)
                else:
                    entries[value] = generate_contrastive_pair(value, sentence, spec, llm)
            except NoCandidatesError as exc:
                skipped[exc.reason].append(value)
        generated = len(entries) - len(existing)
        save_candidates(entries.values(), path)
        summary = {
            "property_id": spec.id,
            "values_total": len(first_sentence),
            "already_present": len(existing),
            "generated": generated,
            **skipped,
        }
        _write_json(summary, prop_dir / "candidates_summary.json")
        line = (
            f"{spec.id}: {generated} new candidate sets "
            f"({len(existing)} kept, {len(first_sentence)} values) -> {path}"
        )
        for label, values in zip(("NA", "empty after parse"), skipped.values()):
            if values:
                line += f"; {label} for {len(values)} values: {', '.join(values)}"
        print(line)
    return 0


def _run_directory(config: RunConfig, out: str | None) -> Path:
    if out:
        return Path(out)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%d-%H%M%S")
    base = config.workspace / "runs" / stamp
    run_dir = base
    suffix = 1
    while run_dir.exists():
        suffix += 1
        run_dir = base.with_name(f"{stamp}-{suffix}")
    return run_dir


def cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config, _overrides(args))
    props = _select_properties(config, args.property)
    _reject_repeats("--system", args.system)
    if args.system:
        systems = [config.system_by_id(i) for i in args.system]
    else:
        systems = list(config.systems)
    if not systems:
        raise ConfigError("no systems configured")
    for system in systems:
        for spec in props:
            if any(system.language_pair) and system.language_pair != spec.language_pair:
                raise ConfigError(
                    f"system {system.system_id!r} translates {'-'.join(system.language_pair)}, "
                    f"but property {spec.id!r} is {'-'.join(spec.language_pair)}"
                )
    run_dir = _run_directory(config, args.out)
    # An output that cannot be written fails here, before any system is run.
    _make_dir(run_dir / "translations")
    _check_write_targets(
        [run_dir / name for name in ("verdicts.jsonl", "report.json", "report.txt", "runmeta.json")]
        + [run_dir / "translations" / f"{s.system_id}.jsonl" for s in systems]
    )
    cache = TranslationCache(config.workspace / "cache" / "translations")
    stale = cache.superseded(config.systems)
    if stale:
        log.warning(
            "%s: no configured system reads %s any more; they may be deleted",
            cache.directory, ", ".join(stale),
        )
    embedder = None
    if any(p.detector == "contrastive" for p in props):
        # One store for the whole run: each distinct text is embedded once.
        embedder = CachedEmbedder(config.build_embedder())
    adapters = [config.build_adapter(s) for s in systems]
    # Per property: (suite, its sha256, candidates, their sha256).
    inputs = [
        (*_load_property_suite(config, spec.id), *_load_property_candidates(config, spec.id))
        for spec in props
    ]
    # A case id keys its translation and verdict rows, so no two properties may share one.
    owner: dict[str, str] = {}
    for spec, (suite, *_) in zip(props, inputs):
        for case in suite:
            if (first := owner.setdefault(case.id, spec.id)) != spec.id:
                raise DataInvariantError(
                    f"case id {case.id!r} is in both {config.property_dir(first) / 'suite.jsonl'} "
                    f"and {config.property_dir(spec.id) / 'suite.jsonl'}"
                )

    # Translate: one adapter call per system, covering every property.
    rows = translate_all([suite for suite, *_ in inputs], adapters, cache)
    system_ids = [s.system_id for s in systems]
    failure_counts = {sid: n for sid, row in zip(system_ids, rows) if (n := row.count(None))}
    case_ids = [case.id for suite, *_ in inputs for case in suite]
    spans = pairwise(accumulate((len(suite) for suite, *_ in inputs), initial=0))  # per property

    # Judge: one table per property, every system's row over its cases.
    verdicts: list[tuple] = []  # verdict rows, property by property and system by system
    reports: dict[str, dict] = {}
    report_texts: list[str] = []
    # Per property and value, how many cases some system lacked candidates for.
    missing_by_property: dict[str, dict[str, int]] = {}
    for j, (spec, (lo, hi)) in enumerate(zip(props, spans)):
        # Dropped from `inputs`, so each property's suite and candidates are freed once judged.
        suite, suite_sha256, candidates, candidates_sha256 = inputs[j]
        inputs[j] = None
        passes, details, missing = evaluate(
            spec, suite, candidates, [row[lo:hi] for row in rows],
            embedder=embedder, tokenizer=config.tokenizer, token_boundary=config.token_boundary,
        )
        if missing:
            missing_by_property[spec.id] = {value: len(ids) for value, ids in missing.items()}
        cfg = replace(config.stats, seed=derive_seed(config.seed, f"bootstrap:{spec.id}"))
        metadata = {
            "suite_sha256": suite_sha256,
            "candidates_sha256": candidates_sha256,
            "tokenizer": asdict(config.tokenizer),
            "token_boundary": config.token_boundary,
        }
        report = build_report(spec, suite, dict(zip(system_ids, passes)), cfg, metadata)
        reports[spec.id] = report
        report_texts.append(render_report(report))
        exhaustive = spec.detector == "exhaustive"  # its detail is the matched candidate
        for sid, bits, found in zip(system_ids, passes, details):
            verdicts += [
                (c, sid, p, d, None) if exhaustive else (c, sid, p, None, d)
                for c, p, d in zip(case_ids[lo:hi], bits, found)
                if p is not None
            ]
        for sid, stat in report["systems"].items():
            lo_ci, hi_ci = stat["ci"]
            print(
                f"{spec.id} / {sid}: MPR {stat['mpr']:.3f} "
                f"[{lo_ci:.3f}, {hi_ci:.3f}] over n={stat['n']}"
            )

    for sid, row in zip(system_ids, rows):
        save_translations(
            ((cid, sid, t) for cid, t in zip(case_ids, row) if t is not None),
            run_dir / "translations" / f"{sid}.jsonl",
        )
    save_verdicts(verdicts, run_dir / "verdicts.jsonl")
    _write_json({"properties": reports}, run_dir / "report.json")
    _write_atomic(run_dir / "report.txt", ["\n".join(report_texts)])
    # Timestamps live here, apart from the report, so re-runs stay byte-identical.
    _write_json(
        {
            "timestamp_utc": datetime.now(timezone.utc).isoformat(),
            "config": str(args.config),
            "seed": config.seed,
            "properties": [p.id for p in props],
            "systems": [s.system_id for s in systems],
            "translation_failures": failure_counts,
            "missing_candidates": missing_by_property,
        },
        run_dir / "runmeta.json",
    )
    print(f"report -> {run_dir / 'report.json'}")
    return 0


def cmd_diversity(args: argparse.Namespace) -> int:
    _require_at_least("--n", args.n, 1)
    _require_at_least("--degree", args.degree, 0)
    config = load_config(args.config, _overrides(args))
    props = _select_properties(config, args.property)
    for spec in props:
        suite, _ = _load_property_suite(config, spec.id)
        series = diversity_series([c.source for c in suite], args.n, config.tokenizer)
        usable = [v for v in series if v is not None]
        trend = None
        if len(usable) > args.degree:
            trend = {"degree": args.degree, "coefficients": trend_fit(series, args.degree)}
        out = {
            "property_id": spec.id,
            "n": args.n,
            "series": series,
            "trend": trend,
        }
        path = config.property_dir(spec.id) / "diversity.json"
        _write_json(out, path)
        mean = sum(usable) / len(usable) if usable else float("nan")
        print(
            f"{spec.id}: {len(series)} sentences, mean div_{args.n} {mean:.3f}, "
            f"skipped {len(series) - len(usable)} -> {path}"
        )
    return 0


def _judged_hashes(run_dir: Path) -> dict[str, tuple[str, str]]:
    """Per property of a run's report.json, the sha256 of the suite and of the
    candidates file it judged."""
    path = run_dir / "report.json"
    if not path.exists():
        raise ConfigError(f"{path} not found; point --run at a run directory")
    try:
        properties = json.loads(_read_text(path))["properties"]
        return {
            prop_id: (entry["metadata"]["suite_sha256"], entry["metadata"]["candidates_sha256"])
            for prop_id, entry in properties.items()
        }
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataInvariantError(f"{path}: malformed report ({exc!r})") from exc


def cmd_annotate(args: argparse.Namespace) -> int:
    _require_at_least("--k", args.sample_size, 1)
    config = load_config(args.config, _overrides(args))
    props = _select_properties(config, args.property)
    run_dir = Path(args.run)
    verdicts_path = run_dir / "verdicts.jsonl"
    if not verdicts_path.exists():
        raise ConfigError(f"{verdicts_path} not found; point --run at a run directory")
    verdicts = load_verdicts(verdicts_path)
    judged = _judged_hashes(run_dir)
    # Every property is checked against the run before any review file is written.
    selections = []
    for spec in props:
        if spec.id not in judged:
            raise ConfigError(f"property {spec.id!r} was not judged by the run in {run_dir}")
        suite, suite_sha256 = _load_property_suite(config, spec.id)
        candidates, candidates_sha256 = _load_property_candidates(config, spec.id)
        # Each file's sha256 now and at the run.
        now, then = (suite_sha256, candidates_sha256), judged[spec.id]
        for name, sha256, recorded in zip(("suite.jsonl", "candidates.jsonl"), now, then):
            if sha256 != recorded:
                raise DataInvariantError(
                    f"property {spec.id!r}: {config.property_dir(spec.id) / name} has changed "
                    f"since the run in {run_dir} judged it; run again before annotating"
                )
        case_by_id = {c.id: c for c in suite}
        prop_verdicts = [v for v in verdicts if v[0] in case_by_id]
        system_ids = sorted({v[1] for v in prop_verdicts})
        if not system_ids:
            raise DataInvariantError(f"{verdicts_path} holds no verdict of property {spec.id!r}")
        if args.system and args.system not in system_ids:
            raise ConfigError(f"property {spec.id!r}: no verdicts for system {args.system!r}")
        if not args.system and len(system_ids) > 1:
            raise ConfigError(
                f"property {spec.id!r} has verdicts for {system_ids}; pick one with --system"
            )
        system_id = args.system or system_ids[0]
        selected = [v for v in prop_verdicts if v[1] == system_id]
        path = run_dir / f"review_{spec.id}_{system_id}.jsonl"
        if path.exists() and (annotated := len(_annotated_rows(path))):
            raise DataInvariantError(
                f"{path} holds {annotated} annotated rows; move it away to sample again"
            )
        selections.append((spec, case_by_id, candidates, selected, system_id, path))

    for spec, case_by_id, candidates, selected, system_id, path in selections:
        translated = load_translations(run_dir / "translations" / f"{system_id}.jsonl")
        translations = {case_id: text for case_id, _, text in translated}
        passes, fails = sample_for_annotation(
            [v[2] for v in selected], args.sample_size,
            seed=derive_seed(config.seed, f"annotate:{spec.id}:{system_id}"),
        )
        rows = []
        for case_id, _, passed, matched, scores in map(selected.__getitem__, passes + fails):
            case = case_by_id[case_id]
            entry = candidates.get(case.value)
            row = {
                "case_id": case.id,
                "system_id": system_id,
                "property_id": spec.id,
                "source": case.source,
                "value": case.value,
                "translation": translations.get(case.id, ""),
                "pass": passed,
                "annotation": "",
            }
            if matched is not None:
                row["matched_candidate"] = matched
            if scores is not None:
                row["scores"] = list(scores)
            if entry is not None:
                row.update(entry.to_dict())
            rows.append(row)
        _write_jsonl(rows, path)
        print(f"{spec.id} / {system_id}: {len(passes)} passes + {len(fails)} fails -> {path}")
    return 0


def _load_edits(path: Path) -> list[tuple[int, tuple]]:
    """(line number, (value, add, remove)) for each edit of an edits file."""
    if not path.exists():
        raise ConfigError(f"edits file {path} not found")
    return list(_load_records(path, _edit_row))


# The annotations a review row may hold, after strip and case-fold; blank is unreviewed.
_ANNOTATIONS = ("", "correct", "incorrect")


def _review_row(d: dict) -> tuple[bool, str]:
    """A review row's pass bit and annotation; a non-boolean "pass", a non-string
    annotation (no .strip()) or one outside _ANNOTATIONS is a malformed record."""
    passed = _bool_field(d, "pass")
    annotation = d.get("annotation", "").strip().casefold()
    if annotation not in _ANNOTATIONS:
        raise ValueError(
            f"'annotation' must be blank, 'correct' or 'incorrect', got {d['annotation']!r}"
        )
    return passed, annotation


def _annotated_rows(path: Path) -> list[tuple[bool, str]]:
    """The pass bit and annotation of each annotated row of a review file."""
    return [row for _, row in _load_records(path, _review_row) if row[1]]


def _review_tallies(path: Path) -> dict:
    if not path.exists():
        raise ConfigError(f"review file {path} not found")
    annotated = _annotated_rows(path)
    fp = sum(1 for passed, a in annotated if passed and a == "incorrect")
    fn = sum(1 for passed, a in annotated if not passed and a == "incorrect")
    n_pass = sum(1 for passed, _ in annotated if passed)
    n_fail = len(annotated) - n_pass
    return {"fp": fp, "fn": fn, "annotated_passes": n_pass, "annotated_fails": n_fail}


def cmd_apply_edits(args: argparse.Namespace) -> int:
    config = load_config(args.config, _overrides(args))
    props = _select_properties(config, args.property)
    if len(props) != 1:
        raise ConfigError("apply-edits works on exactly one property; pass --property ID")
    spec = props[0]
    prop_dir = config.property_dir(spec.id)
    candidates, _ = _load_property_candidates(config, spec.id)
    edits_path = Path(args.edits)
    edits = _load_edits(edits_path)
    # Read the review before any edit is saved, so a bad --review changes nothing.
    tallies = _review_tallies(Path(args.review)) if args.review else None
    updated, audit = candidates, []
    for lineno, edit in edits:  # one at a time, so a failing edit names its line
        try:
            updated, lines = apply_candidate_edits(updated, [edit])
        except DataInvariantError as exc:
            raise DataInvariantError(f"{edits_path}:{lineno}: {exc}") from exc
        audit += lines
    # The audit lines go first: a failed save then leaves candidates.jsonl as it
    # was, and re-running the edits applies them and appends their lines again.
    if audit:
        _append(prop_dir / "candidates_audit.log", "".join(line + "\n" for line in audit))
    save_candidates(updated.values(), prop_dir / "candidates.jsonl")
    print(f"{spec.id}: applied {len(edits)} edits ({len(audit)} changes)")
    if tallies is not None:
        print(
            f"annotated review: FP {tallies['fp']}/{tallies['annotated_passes']} passes, "
            f"FN {tallies['fn']}/{tallies['annotated_fails']} fails"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s", level=logging.WARNING)
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except MtBehaveError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())

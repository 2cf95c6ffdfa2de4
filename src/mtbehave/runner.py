"""End-to-end evaluation: translate suites, judge translations, build reports.

Adapters realize the MT system boundary three ways: an HTTP endpoint, a local
command speaking line-per-sentence over standard streams, or a file of
precomputed translations (for systems run elsewhere).
"""
from __future__ import annotations

import hashlib
import json
import logging
import re
import shlex
import subprocess
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .detection import (
    CachedEmbedder,
    Embedder,
    TokenizerConfig,
    judge_contrastive,
    match_exhaustive,
)
from .errors import ConfigError, DataInvariantError, ProviderError
from .metrics import (
    ResampleConfig,
    bootstrap_ci,
    macro_pass_rate,
    paired_bootstrap,
    resampled_mprs,
)
from .model import (
    CandidateEntry,
    CandidateSet,
    ContrastivePair,
    PropertySpec,
    TestCase,
    _PLAIN_NAME,
    _append,
    _cache_line,
    _check_spec,
    _list_dir,
    _load_records,
    _read_bytes,
    _str_field,
    _truncate,
    load_translations,
    match_form,
)
from .providers import _json_list, _post_json, _session

if TYPE_CHECKING:
    import requests

log = logging.getLogger(__name__)

# Every character str.splitlines breaks on; each would desync the line protocol.
_LINE_BREAKS = re.compile("[\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")


@dataclass(frozen=True)
class AdapterSpec:
    """Declarative description of one MT system under test."""

    system_id: str
    kind: str
    endpoint: str = ""
    command: str = ""
    path: str = ""
    language_pair: tuple[str, str] = ("", "")
    batch_size: int = 32

    def __post_init__(self) -> None:
        if not _PLAIN_NAME.fullmatch(self.system_id):
            raise ConfigError(f"system id {self.system_id!r} is not a plain file name")
        context = f"system {self.system_id!r}"
        needs = {"http": "endpoint", "command": "command", "file": "path"}
        _check_spec(self, context, needs, batch_size=1)
        if self.kind == "http" and not all(self.language_pair):
            raise ConfigError(f"{context}: kind 'http' requires a language_pair")
        object.__setattr__(self, "language_pair", tuple(self.language_pair))

    @property
    def cache_name(self) -> str:
        """The stem of this system's translation cache file: the system id and
        16 hex chars of a sha256 over every field that can change a translation,
        so an edited system never reads its old entries."""
        fields = {
            "kind": self.kind,
            "endpoint": self.endpoint,
            "command": self.command,
            "language_pair": list(self.language_pair),
        }
        canonical = json.dumps(fields, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
        return f"{self.system_id}.{hashlib.sha256(canonical.encode('utf-8')).hexdigest()[:16]}"


class HttpMtAdapter:
    """Batched POST {"texts": [...], "src", "tgt"} -> {"translations": [...]}."""

    def __init__(self, spec: AdapterSpec, session: requests.Session | None = None) -> None:
        self.spec = spec
        self.system_id = spec.system_id
        self.cache_name = spec.cache_name
        self._session = session or _session()

    def translate(self, sources: Sequence[str]) -> list[str | None]:
        out: list[str | None] = []
        spec = self.spec
        src, tgt = spec.language_pair
        for start in range(0, len(sources), spec.batch_size):
            batch = list(sources[start : start + spec.batch_size])
            payload = {"texts": batch, "src": src, "tgt": tgt}
            try:
                body = _post_json(self._session, spec.endpoint, payload, "MT request")
                translations = _json_list(body, "translations", spec.endpoint)
                if not all(isinstance(t, str) for t in translations):
                    raise ProviderError(f"{spec.endpoint}: a translation is not a string")
                if len(translations) != len(batch):
                    raise ProviderError(
                        f"{spec.endpoint} returned {len(translations)} translations "
                        f"for {len(batch)} texts"
                    )
            except ProviderError as exc:
                log.warning("system %s: batch at %d failed: %s", self.system_id, start, exc)
                translations = [None] * len(batch)
            out.extend(translations)
        return out


class CommandMtAdapter:
    """Runs a local command: one source per line in, one translation out."""

    def __init__(self, spec: AdapterSpec) -> None:
        self.system_id = spec.system_id
        self.cache_name = spec.cache_name
        self.argv = shlex.split(spec.command)

    def translate(self, sources: Sequence[str]) -> list[str | None]:
        # Sources are single sentences, so line breaks are flattened to spaces;
        # output is split on LF alone, so no other character can add a line.
        lines = [_LINE_BREAKS.sub(" ", s) for s in sources]
        try:
            proc = subprocess.run(
                self.argv,
                input="".join(line + "\n" for line in lines).encode("utf-8"),
                capture_output=True,
                check=False,
            )
        except OSError as exc:
            raise ProviderError(f"command {self.argv!r} could not be run: {exc}") from exc
        if proc.returncode != 0:
            stderr = proc.stderr.decode("utf-8", "replace").strip()[:200]
            raise ProviderError(f"command {self.argv!r} exited {proc.returncode}: {stderr}")
        out_lines = proc.stdout.split(b"\n")
        if out_lines[-1] == b"":
            out_lines.pop()
        if len(out_lines) != len(lines):
            raise ProviderError(
                f"command {self.argv!r} returned {len(out_lines)} lines for {len(lines)} inputs"
            )
        try:
            return [line.decode("utf-8") for line in out_lines]
        except UnicodeDecodeError as exc:
            raise ProviderError(f"command {self.argv!r} wrote invalid UTF-8: {exc}") from exc


class FileMtAdapter:
    """Serves precomputed translations from a translations.jsonl file.

    Two records for the same case of this system are a data error.
    """

    def __init__(self, spec: AdapterSpec) -> None:
        self.system_id = spec.system_id
        self._by_case: dict[str, str] = {}
        for case_id, system_id, translation in load_translations(spec.path):
            if system_id != self.system_id:
                continue
            if case_id in self._by_case:
                raise DataInvariantError(
                    f"{spec.path}: duplicate translation of case {case_id!r} "
                    f"for system {self.system_id!r}"
                )
            self._by_case[case_id] = translation

    def translate_cases(self, cases: Sequence[TestCase]) -> list[str | None]:
        return [self._by_case.get(case.id) for case in cases]


class TranslationCache:
    """Disk cache keyed by (adapter cache name, sha256 of source); JSONL per name.

    Each distinct source is hashed once for the cache's lifetime.
    """

    def __init__(self, directory: Path | str) -> None:
        self.directory = Path(directory)
        self._maps: dict[str, dict[str, str]] = {}
        self._keys: dict[str, str] = {}

    def _path(self, name: str) -> Path:
        return self.directory / f"{name}.jsonl"

    def _load(self, name: str) -> dict[str, str]:
        if name not in self._maps:
            path = self._path(name)
            self._maps[name] = _read_cache(path) if path.exists() else {}
        return self._maps[name]

    def _key(self, source: str) -> str:
        key = self._keys.get(source)
        if key is None:
            key = self._keys[source] = hashlib.sha256(source.encode("utf-8")).hexdigest()
        return key

    def get(self, name: str, source: str) -> str | None:
        return self._load(name).get(self._key(source))

    def lookup(self, name: str, sources: Sequence[str]) -> list[str | None]:
        """`get` of each of `sources`, hashing each new source once. Hits, all of a
        warm run, take one pass; a miss also goes through `get`, so instrumentation
        wrapping `get` counts every miss."""
        entries, keys = self._load(name), self._keys
        for source in set(sources).difference(keys):
            self._key(source)
        return [
            entries[key] if (key := keys[source]) in entries else self.get(name, source)
            for source in sources
        ]

    def superseded(self, specs: Iterable[AdapterSpec]) -> list[str]:
        """The files in the directory that a command or http system among `specs`
        wrote under another fingerprint, or as a pre-fingerprint `<system_id>.jsonl`,
        and no longer reads; file systems bypass the cache and are not looked at."""
        cached = [s for s in specs if s.kind in ("command", "http")]
        names = _list_dir(self.directory) if cached else []
        ids = "|".join(re.escape(s.system_id) for s in cached)
        own = re.compile(rf"(?:{ids})(?:\.[0-9a-f]{{16}})?\.jsonl")
        live = {f"{s.cache_name}.jsonl" for s in cached}
        return sorted(n for n in names if n not in live and own.fullmatch(n))

    def put(self, name: str, pairs: Iterable[tuple[str, str]]) -> None:
        """Cache (source, translation) pairs; every new entry goes out in one append."""
        entries = self._load(name)
        lines = []
        for source, translation in pairs:
            key = self._key(source)
            if key not in entries:
                entries[key] = translation
                lines.append(_cache_line(key, translation))
        if lines:
            _append(self._path(name), "".join(lines))


def _read_cache(path: Path) -> dict[str, str]:
    """Read one cache file, truncating a torn last line.

    `put` ends every entry with LF, so a tail after the last LF was cut short
    by an interrupted `put`, whether or not it parses. Cutting it keeps the
    next append on a line of its own. Any other bad line is an error.
    """
    data = _read_bytes(path)
    keep = data.rfind(b"\n") + 1
    if keep < len(data):
        log.warning("%s: dropping a torn last line; its entry will be re-translated", path)
        _truncate(path, keep)
    pairs = _load_records(
        path, lambda d: (d["source_sha256"], _str_field(d, "translation")), data[:keep]
    )
    return dict(pair for _, pair in pairs)


def _adapter_call(translate, inputs: list) -> list[str | None] | ProviderError:
    """`translate(inputs)`, or the ProviderError it raised."""
    try:
        return translate(inputs)
    except ProviderError as exc:
        return exc


def translate_all(
    suites: Sequence[Sequence[TestCase]], adapters: Sequence, cache: TranslationCache | None = None
) -> list[list[str | None]]:
    """Translate every suite with every adapter: per adapter, its row of
    translations over the suites' cases in order, None where a case failed.

    Sources go out bracket-free (TestCase.source is already marker-stripped).
    Failed cases are recorded and excluded rather than counted as fails:
    infrastructure failure is not a linguistic failure. The cache keeps each
    adapter's entries under its `cache_name`. An adapter with `translate_cases`
    holds one translation per case, not per source, so it bypasses the cache.

    The calling thread looks each adapter's row up in the cache in one call.
    Every adapter with cases left gets one call covering all suites, and two
    or more such calls run side by side, one thread each. An adapter that
    returns more outputs than it got inputs fails all those cases. Outputs,
    failures and cache appends are then committed in adapter order by the
    calling thread, so no file depends on which call finished first.
    """
    if not all(suites):
        raise DataInvariantError("cannot translate an empty suite")
    cases = [case for suite in suites for case in suite]
    sources = [case.source for case in cases]
    plans = []  # per adapter: (cache or None, its translation of each case or None, pending k)
    calls = []  # per adapter with cases left: (its translate method, those cases or sources)
    for adapter in adapters:
        by_case = getattr(adapter, "translate_cases", None)
        store = None if by_case else cache
        row = store.lookup(adapter.cache_name, sources) if store else [None] * len(cases)
        pending = [k for k, t in enumerate(row) if t is None]
        if pending:
            inputs = [cases[k] if by_case else sources[k] for k in pending]
            calls.append((by_case or adapter.translate, inputs))
        plans.append((store, row, pending))
    if len(calls) > 1:
        # Imported here, so a run with every translation cached never loads it.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=len(calls)) as pool:
            outputs = list(pool.map(_adapter_call, *zip(*calls)))
    else:
        outputs = [_adapter_call(*call) for call in calls]
    called = iter(outputs)
    results = []
    for adapter, (store, row, pending) in zip(adapters, plans):
        output = next(called) if pending else []
        if not isinstance(output, ProviderError) and len(output) > len(pending):
            output = ProviderError(f"returned {len(output)} translations for {len(pending)} inputs")
        if isinstance(output, ProviderError):
            log.warning("system %s: %s", adapter.system_id, output)
            output = []
        for k, translation in zip(pending, output):
            row[k] = translation
        if store and pending:
            done = [(sources[k], row[k]) for k in pending if row[k] is not None]
            store.put(adapter.cache_name, done)
        n_failed = row.count(None)
        if n_failed:
            log.warning(
                "system %s: %d/%d cases failed translation and are excluded",
                adapter.system_id, n_failed, len(cases),
            )
        results.append(row)
    return results


# Per detector: the candidate entry kind it judges, and the error for another kind.
_DETECTOR_ENTRY = {
    "exhaustive": (
        CandidateSet, "exhaustive detector needs a candidate set, got a contrastive pair"
    ),
    "contrastive": (ContrastivePair, "contrastive detector needs a contrastive pair"),
}


def evaluate(
    spec: PropertySpec,
    suite: Sequence[TestCase],
    candidates: Mapping[str, CandidateEntry],
    rows: Sequence[Sequence[str | None]],
    *,
    embedder: Embedder | CachedEmbedder | None = None,
    tokenizer: TokenizerConfig = TokenizerConfig(),
    token_boundary: bool = False,
) -> tuple[list[list[bool | None]], list[list], dict[str, list[str]]]:
    """Judge a (system x case) table with the property's detector.

    `rows` holds one translation row per system over the suite's cases, None
    where the system has no translation. Returns, per system over the cases,
    the pass bits (None where excluded) and the details: an exhaustive pass's
    matched candidate or a contrastive [sim_correct, sim_foil]. The third item
    maps each value that has no candidate entry to the ids of its translated
    cases, which are reported there, not silently dropped.

    Each case's candidate entry is looked up once for all systems. Contrastive
    cells are judged together in one batch, system by system; a
    `CachedEmbedder` shares its store across calls, a plain embedder gets one
    per call.
    """
    kind, need = _DETECTOR_ENTRY[spec.detector]
    if any(len(row) != len(suite) for row in rows):
        raise DataInvariantError(f"every translation row must hold {len(suite)} cases")
    missing: dict[str, list[str]] = {}  # value -> the ids of its translated cases
    entries: list[CandidateEntry | None] = []  # per case, None if nothing is judged
    for case, *texts in zip(suite, *rows):
        entry = None
        if texts.count(None) < len(texts):
            entry = candidates.get(case.value)
            if entry is None:
                missing.setdefault(case.value, []).append(case.id)
            elif not isinstance(entry, kind):
                raise DataInvariantError(f"value {case.value!r}: {need}")
        entries.append(entry)
    if kind is CandidateSet:
        table = [match_exhaustive(entries, r, token_boundary=token_boundary) for r in rows]
        passes, details = [hits for hits, _ in table], [found for _, found in table]
    else:
        passes, details = [[None] * len(suite) for _ in rows], [[None] * len(suite) for _ in rows]
        judged = [k for k, entry in enumerate(entries) if entry is not None]
        cells = [(s, k) for s, row in enumerate(rows) for k in judged if row[k] is not None]
        if cells and embedder is None:
            raise ConfigError("contrastive detection requires an embedding provider")
        scores = judge_contrastive(
            [rows[s][k] for s, k in cells], [entries[k] for _, k in cells], embedder, tokenizer
        )
        for (s, k), pair in zip(cells, scores):
            passes[s][k] = pair[0] >= pair[1]
            details[s][k] = pair
    if missing:
        log.warning(
            "property %s: %d values (%d cases) have no candidates and were skipped",
            spec.id, len(missing), sum(map(len, missing.values())),
        )
    return passes, details, missing


def build_report(
    spec: PropertySpec,
    suite: Sequence[TestCase],
    passes: Mapping[str, Sequence[bool | None]],
    cfg: ResampleConfig,
    metadata: dict | None = None,
) -> dict:
    """One property's `report.json` entry: per-system MPR + CI and pairwise comparisons.

    `passes` maps each system to its pass bits over the suite's cases, None
    where a case is excluded; a system with no pass bit is left out. Statistics
    are computed over the cases every system has a bit for, so n is identical
    across systems and comparisons stay properly paired.
    """
    if any(len(row) != len(suite) for row in passes.values()):
        raise DataInvariantError(f"every pass row must hold {len(suite)} cases")
    judged = {sys: row for sys, row in passes.items() if row.count(None) < len(row)}
    if not judged:
        raise DataInvariantError("cannot build a report from zero verdicts")
    common = [k for k, bits in enumerate(zip(*judged.values())) if None not in bits]
    if not common:
        raise DataInvariantError("no case is covered by every system")
    # Every system's cases include the common ones, so the rest are the dropped ones.
    dropped = {s: n for s, row in judged.items() if (n := len(row) - row.count(None) - len(common))}
    if dropped:
        log.warning(
            "report restricted to %d common cases; dropped per system: %s", len(common), dropped
        )

    # One resample set per property: every CI and comparison below reads a row
    # of the same (systems, k) array.
    values = [suite[k].value for k in common]
    rows = [[row[k] for k in common] for row in judged.values()]
    mprs = resampled_mprs(values, rows, cfg)
    n_values = len(set(values))
    systems = {}
    for i, (system_id, row) in enumerate(zip(judged, rows)):
        systems[system_id] = {
            "mpr": macro_pass_rate(values, row),
            "ci": list(bootstrap_ci(mprs[i], cfg)),
            "n": len(row),
            "values": n_values,
            "passes": sum(row),
            "fails": row.count(0),
            "k": cfg.k,
            "alpha": cfg.alpha,
            "seed": cfg.seed,
        }
    comparisons = []
    for (i, a), (j, b) in combinations(enumerate(judged), 2):
        winner, p_value, significant = paired_bootstrap(mprs[i], mprs[j], cfg)
        comparisons.append({
            "a": a,
            "b": b,
            "winner": {"a": a, "b": b, None: None}[winner],
            "p_value": p_value,
            "significant": significant,
        })
    meta = dict(metadata or {})
    if dropped:
        meta["excluded_case_counts"] = dropped
    return {
        "property_id": spec.id,
        "detector": spec.detector,
        "k": cfg.k,
        "alpha": cfg.alpha,
        "seed": cfg.seed,
        "systems": systems,
        "comparisons": comparisons,
        "metadata": meta,
    }


def render_report(report: Mapping) -> str:
    """The `report.txt` table of one property's `build_report` entry."""
    lines = [
        f"Property: {report['property_id']}  "
        f"(detector: {report['detector']}, k={report['k']}, alpha={report['alpha']})",
        "",
        f"{'System':<24}{'MPR':>8}  {'95% CI':>18}  {'n':>6}  {'values':>7}",
    ]
    for system_id, s in report["systems"].items():
        ci = f"[{s['ci'][0]:.3f}, {s['ci'][1]:.3f}]"
        lines.append(f"{system_id:<24}{s['mpr']:>8.3f}  {ci:>18}  {s['n']:>6}  {s['values']:>7}")
    if report["comparisons"]:
        lines += ["", f"{'Model A':<20}{'Model B':<20}{'Winner':<20}{'p-value':>8}"]
        for c in report["comparisons"]:
            winner = c["winner"] if c["winner"] is not None else "(tie)"
            mark = " *" if c["significant"] else ""
            lines.append(f"{c['a']:<20}{c['b']:<20}{winner:<20}{c['p_value']:>8.3f}{mark}")
    return "\n".join(lines) + "\n"


def sample_for_annotation(
    passed: Sequence[bool], k: int, seed: int = 0
) -> tuple[list[int], list[int]]:
    """Uniform samples (without replacement) of k passes and k fails of one
    system's verdicts: the indices into `passed`, in order, of each stratum.

    A stratum smaller than k is returned whole, with a warning.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    passes = [i for i, p in enumerate(passed) if p]
    fails = [i for i, p in enumerate(passed) if not p]
    rng = np.random.default_rng(seed)

    def pick(stratum: list[int], label: str) -> list[int]:
        if len(stratum) < k:
            log.warning("only %d %s verdicts available (asked for %d)", len(stratum), label, k)
            return stratum
        idx = sorted(rng.choice(len(stratum), size=k, replace=False).tolist())
        return [stratum[i] for i in idx]

    return pick(passes, "pass"), pick(fails, "fail")


def apply_candidate_edits(
    candidates: Mapping[str, CandidateEntry],
    edits: Iterable[tuple[str, Sequence[str], Sequence[str]]],
) -> tuple[dict[str, CandidateEntry], list[str]]:
    """Apply each (value, add, remove) edit, removals by exact spelling, then additions
    but one whose match form is present; returns new candidates and audit lines."""
    out: dict[str, CandidateEntry] = dict(candidates)
    audit: list[str] = []
    for value, add, remove in edits:
        entry = out.get(value)
        if entry is None:
            raise DataInvariantError(f"edit references unknown value {value!r}")
        if isinstance(entry, ContrastivePair):
            raise DataInvariantError(
                f"value {value!r} has contrastive candidates; add/remove edits "
                f"apply to exhaustive sets only"
            )
        current = list(entry.candidates)
        for cand in remove:
            if cand not in current:
                raise DataInvariantError(
                    f"cannot remove {cand!r} from {value!r}: not present"
                )
            if len(current) == 1:
                raise DataInvariantError(
                    f"cannot remove {cand!r}: it is the last candidate for {value!r}"
                )
            current.remove(cand)
            audit.append(f"{value}: removed {cand!r}")
        for cand in add:
            if match_form(cand) in map(match_form, current):
                audit.append(f"{value}: skipped {cand!r} (already present)")
                continue
            current.append(cand)
            audit.append(f"{value}: added {cand!r}")
        out[value] = CandidateSet(value=value, candidates=tuple(current))
    return out, audit


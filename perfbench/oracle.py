"""Correctness oracle: recompute a workload's results by brute force.

Everything is rebuilt from the fixture's own records, not from the
program's intermediate files: the suite the replay LLM should yield, the
candidate sets after the edits, each system's translation (its character
map applied in Python), every pass bit (case-folded substring search for
exhaustive properties; an n-gram x candidate cosine loop over `HashEmbedder`
vectors for contrastive ones), and each system's MPR, `n` and `values` from
`verdicts.jsonl`. The program's files are then compared against that.
"""
from __future__ import annotations

import hashlib
import json
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fixture import suite_rows

MPR_TOLERANCE = 1e-12
SCORE_TOLERANCE = 1e-9  # numpy and pure-Python cosines may differ in the last bits
DEGENERATE = (0.05, 0.95)


@dataclass
class OracleResult:
    errors: list[str] = field(default_factory=list)
    verdicts: int = 0  # (case, system) verdicts checked
    significant: int = 0
    not_significant: int = 0

    def fail(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def output_hashes(out: Path) -> dict[str, str]:
    """sha256 of report.json and of the ordered (case, system, pass) bits."""
    bits = "".join(
        f"{v['case_id']}\t{v['system_id']}\t{int(v['pass'])}\n"
        for v in read_jsonl(out / "verdicts.jsonl")
    )
    return {
        "report.json": hashlib.sha256((out / "report.json").read_bytes()).hexdigest(),
        "pass_bits": hashlib.sha256(bits.encode("utf-8")).hexdigest(),
    }


def _strip_punct(token: str) -> str:
    chars = list(token)
    while chars and unicodedata.category(chars[0]).startswith("P"):
        chars.pop(0)
    while chars and unicodedata.category(chars[-1]).startswith("P"):
        chars.pop()
    return "".join(chars)


def _tokens(text: str) -> list[str]:
    return [t for t in (_strip_punct(w) for w in text.split()) if t]


def _grams(text: str, n: int) -> list[str]:
    toks = _tokens(text)
    if len(toks) < n:
        return [" ".join(toks)]
    return [" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)]


class _Vectors:
    """HashEmbedder vectors, unit-normalised, one embed call per new text."""

    def __init__(self, embedder) -> None:
        self._embedder = embedder
        self._cache: dict[str, np.ndarray] = {}

    def __call__(self, texts: list[str]) -> np.ndarray:
        new = [t for t in dict.fromkeys(texts) if t not in self._cache]
        for text, vec in zip(new, self._embedder.embed(new)):
            arr = np.asarray(vec, dtype=np.float64)
            self._cache[text] = arr / np.linalg.norm(arr)
        return np.stack([self._cache[t] for t in texts])


def _max_sim(translation: str, candidate: str, vectors: _Vectors) -> float:
    grams = _grams(translation, len(_tokens(candidate)) or 1)
    folded = candidate.casefold()
    if any(g.casefold() == folded for g in grams):
        return 1.0  # equal folded texts embed identically
    sims = vectors(grams) @ vectors([candidate])[0]
    return float(np.clip(sims.max(), -1.0, 1.0))


def expected_candidates(entries: dict[str, dict], edits: list[dict]) -> dict[str, dict]:
    """Candidate records after `apply-edits`: removals, then case-folded
    de-duplicated additions."""
    out = {v: dict(e) for v, e in entries.items()}
    for edit in edits:
        current = list(out[edit["value"]]["candidates"])
        for cand in edit["remove"]:
            current.remove(cand)
        for cand in edit["add"]:
            if cand.casefold() not in {c.casefold() for c in current}:
                current.append(cand)
        out[edit["value"]] = {"value": edit["value"], "candidates": current}
    return out


def check(fixture, workspace: Path, out: Path, embedder) -> OracleResult:
    """Compare one repetition's workspace and run directory with the oracle.

    `embedder` is the provider the config names (HashEmbedder, dim 32).
    """
    result = OracleResult()
    try:
        _check(fixture, workspace, out, _Vectors(embedder), result)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        result.fail(f"outputs missing or malformed: {exc!r}")
    return result


def _check(fixture, workspace: Path, out: Path, vectors: _Vectors, result: OracleResult) -> None:
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))["properties"]
    verdicts = {(v["case_id"], v["system_id"]): v for v in read_jsonl(out / "verdicts.jsonl")}
    expected_keys = set()
    for prop, data in fixture.properties.items():
        prop_dir = workspace / prop
        suite = list(suite_rows(data))
        if read_jsonl(prop_dir / "suite.jsonl") != suite:
            result.fail(f"{prop}: suite.jsonl differs from the generated sentences")
        edits = fixture.edits if prop == fixture.workload.edit_property else []
        entries = expected_candidates(data.entries, edits)
        written = {e["value"]: e for e in read_jsonl(prop_dir / "candidates.jsonl")}
        if written != entries:
            result.fail(f"{prop}: candidates.jsonl differs from the expected candidate sets")
        prop_report = report.get(prop, {}).get("systems", {})
        for system in fixture.systems:
            translations = {
                r["case_id"]: r["translation"]
                for r in read_jsonl(out / "translations" / f"{system.system_id}.jsonl")
            }
            groups: dict[str, list[int]] = {}
            for case in suite:
                key = (case["id"], system.system_id)
                expected_keys.add(key)
                translation = system.translate(case["source"])
                if translations.get(case["id"]) != translation:
                    result.fail(f"{key}: translation differs from the system's output")
                verdict = verdicts.get(key)
                if verdict is None:
                    result.fail(f"{key}: no verdict")
                    continue
                entry = entries[case["value"]]
                if data.detector == "contrastive":
                    sim_c = max(_max_sim(translation, c, vectors) for c in entry["correct"])
                    sim_f = max(_max_sim(translation, f, vectors) for f in entry["foil"])
                    scores = verdict.get("scores") or [float("nan")] * 2
                    close = abs(sim_c - sim_f) <= SCORE_TOLERANCE
                    if not (close or verdict["pass"] == (sim_c >= sim_f)) or not np.allclose(
                        scores, [sim_c, sim_f], rtol=0, atol=SCORE_TOLERANCE
                    ):
                        result.fail(f"{key}: contrastive verdict disagrees with brute force")
                else:
                    folded = translation.casefold()
                    bit = any(c.casefold() in folded for c in entry["candidates"])
                    if verdict["pass"] != bit:
                        result.fail(f"{key}: exhaustive verdict disagrees with brute force")
                groups.setdefault(case["value"], []).append(int(verdict["pass"]))
                result.verdicts += 1
            stats = prop_report.get(system.system_id)
            if stats is None:
                result.fail(f"{prop}/{system.system_id}: missing from report.json")
                continue
            mpr = sum(sum(g) / len(g) for g in groups.values()) / max(len(groups), 1)
            if (stats["n"], stats["values"]) != (len(suite), len(groups)):
                result.fail(f"{prop}/{system.system_id}: n/values {stats['n']}/{stats['values']}"
                            f" != {len(suite)}/{len(groups)}")
            if abs(stats["mpr"] - mpr) > MPR_TOLERANCE:
                result.fail(f"{prop}/{system.system_id}: MPR {stats['mpr']} != {mpr}")
            if not DEGENERATE[0] < mpr < DEGENERATE[1]:
                result.fail(f"{prop}/{system.system_id}: degenerate MPR {mpr:.3f}")
        for comp in report.get(prop, {}).get("comparisons", []):
            if comp["significant"]:
                result.significant += 1
            else:
                result.not_significant += 1
    if set(verdicts) != expected_keys:
        result.fail(f"verdicts.jsonl has {len(verdicts)} verdicts, expected {len(expected_keys)}")
    if not (result.significant and result.not_significant):
        result.fail(f"comparisons are not mixed: {result.significant} significant, "
                    f"{result.not_significant} not")

"""Pass-rate statistics.

Pass rate (PR) is the plain mean over test cases. Macro pass rate (MPR)
averages per-property-value means so frequent values do not dominate.
Uncertainty comes from percentile bootstrap resampling at the entry level;
system comparison from joint (paired) resampling.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .detection import TokenizerConfig, tokenize
from .errors import DataInvariantError


@dataclass(frozen=True)
class ResampleConfig:
    """Bootstrap settings. K=1000 keeps desk-scale runs under a second."""

    k: int = 1000
    alpha: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise DataInvariantError("resample count k must be >= 1")
        if not (0.0 < self.alpha < 1.0):
            raise DataInvariantError("alpha must be in (0, 1)")
        if self.seed < 0:
            raise DataInvariantError("seed must be >= 0")


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise DataInvariantError(f"interval lo {self.lo} > hi {self.hi}")


@dataclass(frozen=True)
class Sample:
    """Pass/fail sample: ordered (property value, pass bit) entries.

    Every sample is row `_row` of a cohort, whose bootstrap resamples it reads.
    """

    entries: tuple[tuple[str, int], ...]
    _cohort: "_Resamples" = field(repr=False, compare=False)
    _row: int = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        for _, p in self.entries:
            if p not in (0, 1):
                raise DataInvariantError(f"pass bit must be 0 or 1, got {p}")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, int]]) -> "Sample":
        """A sample that is a cohort of one."""
        entries = list(pairs)
        return cls.cohort([v for v, _ in entries], [[p for _, p in entries]])[0]

    @classmethod
    def cohort(cls, values: Sequence[str], rows: Sequence[Sequence[int]]) -> list["Sample"]:
        """One sample per row of pass bits, all over the same ordered `values`.

        The samples share their bootstrap resamples: the first CI or paired
        comparison over any of them resamples every row in one walk of the k
        streams, and later calls with the same k and seed reuse the result.
        """
        values = [str(v) for v in values]
        rows = [[int(p) for p in row] for row in rows]
        shared = _Resamples(values, rows)
        return [
            cls(tuple(zip(values, row, strict=True)), shared, i) for i, row in enumerate(rows)
        ]

    def __len__(self) -> int:
        return len(self.entries)

    def values(self) -> list[str]:
        return [v for v, _ in self.entries]

    def passes(self) -> list[int]:
        return [p for _, p in self.entries]

    def groups(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = {}
        for value, passed in self.entries:
            out.setdefault(value, []).append(passed)
        return out


def _require_nonempty(sample: Sample) -> None:
    if len(sample) == 0:
        raise DataInvariantError("statistic undefined for an empty sample")


def pass_rate(sample: Sample) -> float:
    """Mean pass bit over all entries."""
    _require_nonempty(sample)
    passes = sample.passes()
    return sum(passes) / len(passes)


def macro_pass_rate(sample: Sample) -> float:
    """Mean of per-value pass rates, weighting each distinct value equally."""
    _require_nonempty(sample)
    groups = sample.groups()
    return sum(sum(g) / len(g) for g in groups.values()) / len(groups)


def _codes(values: Sequence[str]) -> tuple[np.ndarray, int]:
    uniq, codes = np.unique(np.asarray(values, dtype=object), return_inverse=True)
    return codes.astype(np.int64), len(uniq)


def _resample_rng(seed: int, index: int) -> np.random.Generator:
    # One generator per resample, keyed by (seed, index), so parallel and
    # serial computations of the same bootstrap agree bit-for-bit. Plain
    # seed^index would make nearby seeds permute the same resample set.
    return np.random.default_rng([seed, index])


def resampled_mprs(
    values: Sequence[str], passes: Sequence[Sequence[int]], cfg: ResampleConfig
) -> np.ndarray:
    """The (S, k) bootstrap macro pass rates of S pass rows over one value sequence.

    Resample i draws one index vector from the (cfg.seed, i) stream and applies
    it to every row, so the S systems of a property are resampled jointly, as
    paired comparisons need. Values absent from a resample drop out of that
    resample's denominator. Resamples are drawn one at a time, so memory is
    O(S * n) rather than O(k * n).
    """
    codes, n_values = _codes(values)
    passes = np.asarray(passes, dtype=np.float64)
    n_rows, n = passes.shape
    # Row s's codes are offset into bins [s * n_values, (s + 1) * n_values), so
    # one bincount sums every row; row 0 holds the plain codes.
    coded = codes + (np.arange(n_rows) * n_values)[:, None]
    totals = np.empty((n_rows, cfg.k), dtype=np.float64)
    present_values = np.empty(cfg.k, dtype=np.int64)
    for i in range(cfg.k):
        idx = _resample_rng(cfg.seed, i).integers(0, n, size=n)
        coded_i = coded.take(idx, axis=1)
        counts = np.bincount(coded_i[0], minlength=n_values)
        present = counts > 0
        sums = np.bincount(
            coded_i.ravel(), weights=passes.take(idx, axis=1).ravel(),
            minlength=n_rows * n_values,
        )
        ratios = sums.reshape(n_rows, n_values)[:, present] / counts[present]
        # np.mean of a 1-D float array is np.add.reduce over it divided by its
        # length. Reducing each contiguous row on its own keeps the summation
        # order of a single system's resample; a 2-D reduce may differ in the
        # last bit.
        for row in range(n_rows):
            totals[row, i] = np.add.reduce(ratios[row])
        present_values[i] = ratios.shape[1]
    return totals / present_values


class _Resamples:
    """The resampled MPRs of a cohort of samples, kept for the last (k, seed)."""

    def __init__(self, values: list[str], passes: list[list[int]]) -> None:
        self.values = values
        self.passes = passes
        self._key: tuple[int, int] | None = None
        self._mprs = np.empty((0, 0))

    def mprs(self, cfg: ResampleConfig) -> np.ndarray:
        key = (cfg.k, cfg.seed)
        if key != self._key:
            self._mprs = resampled_mprs(self.values, self.passes, cfg)
            self._mprs.flags.writeable = False
            self._key = key
        return self._mprs


def bootstrap_ci(sample: Sample, cfg: ResampleConfig) -> Interval:
    """Percentile bootstrap interval for the macro pass rate.

    Entries are resampled with replacement, keeping each entry's value label;
    values absent from a resample drop out of that resample's denominator.
    Quantiles interpolate linearly between order statistics. Deterministic
    given (sample order, cfg.seed, cfg.k).
    """
    _require_nonempty(sample)
    stats = sample._cohort.mprs(cfg)[sample._row]
    lo, hi = np.quantile(stats, [cfg.alpha / 2.0, 1.0 - cfg.alpha / 2.0], method="linear")
    return Interval(float(lo), float(hi))


@dataclass(frozen=True)
class PairedResult:
    """Outcome of a paired bootstrap comparison.

    `winner` is "a", "b", or None when win counts tie exactly. The p-value is
    one minus the winner's win fraction, with tied resamples split evenly.
    """

    winner: str | None
    p_value: float
    wins_a: float
    wins_b: float
    significant: bool


def paired_bootstrap(a: Sample, b: Sample, cfg: ResampleConfig) -> PairedResult:
    """Jointly resample two systems' verdicts over the same cases."""
    _require_nonempty(a)
    _require_nonempty(b)
    if a.values() != b.values():
        raise DataInvariantError("paired bootstrap requires identical case/value sequences")
    # Resample i's indices depend only on (cfg.seed, i, n), so two samples
    # from different cohorts are still resampled jointly.
    mpr_a = a._cohort.mprs(cfg)[a._row]
    mpr_b = b._cohort.mprs(cfg)[b._row]
    ties = 0.5 * int(np.count_nonzero(mpr_a == mpr_b))
    wins_a = int(np.count_nonzero(mpr_a > mpr_b)) + ties
    wins_b = int(np.count_nonzero(mpr_b > mpr_a)) + ties
    if wins_a > wins_b:
        winner: str | None = "a"
    elif wins_b > wins_a:
        winner = "b"
    else:
        winner = None
    p_value = 1.0 - max(wins_a, wins_b) / cfg.k
    return PairedResult(
        winner=winner,
        p_value=p_value,
        wins_a=wins_a,
        wins_b=wins_b,
        significant=p_value < cfg.alpha,
    )


def diversity_series(
    suite: Sequence, n: int, tok: TokenizerConfig = TokenizerConfig()
) -> list[float | None]:
    """Per-sentence fraction of n-grams unseen in all earlier sentences.

    Accepts test cases (their source sentences are used) or plain strings,
    in generation order. Sentences with fewer than n tokens contribute no
    n-grams and yield None rather than a 0/0 entry.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(suite) == 0:
        raise DataInvariantError("diversity undefined for an empty suite")
    sentences = [item.source if hasattr(item, "source") else str(item) for item in suite]
    sep = "" if tok.mode == "character" else " "
    seen: set[str] = set()
    series: list[float | None] = []
    for sentence in sentences:
        toks = tokenize(sentence, tok)
        if len(toks) < n:
            series.append(None)
            continue
        grams = {sep.join(toks[i : i + n]) for i in range(len(toks) - n + 1)}
        new = len(grams - seen)
        series.append(new / len(grams))
        seen |= grams
    return series


def trend_fit(series: Sequence[float | None], degree: int) -> list[float]:
    """Least-squares polynomial over index -> value, for report plotting.

    None entries (skipped sentences) are masked out; indices keep their
    original positions. Returns coefficients in ascending order
    (constant term first).
    """
    xs = [i for i, v in enumerate(series) if v is not None]
    ys = [v for v in series if v is not None]
    if len(xs) <= degree:
        raise DataInvariantError(
            f"cannot fit degree {degree} to {len(xs)} points (underdetermined)"
        )
    coeffs = np.polyfit(np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64), degree)
    return [float(c) for c in coeffs[::-1]]

"""Pass-rate statistics over plain arrays.

Macro pass rate (MPR) averages per-property-value pass rates so frequent
values do not dominate. `resampled_mprs` resamples a property's entries
once for every system, giving one (systems, k) array of bootstrap MPRs;
`bootstrap_ci` reads a percentile interval from one row of it, and
`paired_bootstrap` compares two rows, which were resampled jointly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .detection import TokenizerConfig, _windows, tokenize
from .errors import DataInvariantError

# Resamples are computed CHUNK // n at a time, which bounds the kernel's
# working set to a few MiB whatever k is.
CHUNK = 1 << 15
# SplitMix64's increment and finaliser multipliers.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))
# A float64 holds every integer below 2**53 exactly.
_EXACT_BITS = 53
_M32 = 0xFFFFFFFF


@dataclass(frozen=True)
class ResampleConfig:
    """Bootstrap settings. K=1000 keeps desk-scale runs under a second."""

    k: int = 1000
    alpha: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        # The resample index fills the top 32 bits of the draw's counter.
        if not 1 <= self.k < 2**32:
            raise DataInvariantError(f"'k': resample count k must be in [1, 2**32), got {self.k}")
        if not (0.0 < self.alpha < 1.0):
            raise DataInvariantError(f"'alpha': alpha must be in (0, 1), got {self.alpha}")
        if self.seed < 0:
            raise DataInvariantError("seed must be >= 0")


def resample_key(seed: int) -> np.uint64:
    """The 64-bit key of a seed's resamples; any seed >= 0 is accepted.

    It equals `np.random.SeedSequence(seed).generate_state(1, np.uint64)[0]`,
    computed on Python ints with SeedSequence's constants, so that a run never
    imports numpy.random.
    """
    if seed < 0:
        raise ValueError("seed must be >= 0")
    words = [seed >> 32 * i & _M32 for i in range(max(1, -(-seed.bit_length() // 32)))]
    # mix_entropy: hash the seed's words, low first, into a pool of four (zeros
    # past the last word), mix every pool word into every other, then mix each
    # word past the fourth into all four.
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        pool = [_mix(value, hashmix(word)) for value in pool]
    # generate_state: two hashed pool words, the low half first.
    out = _hasher(0x8B51F9DD, 0x58F38DED)
    return np.uint64(out(pool[0]) | out(pool[1]) << 32)


def _hasher(mult: int, step: int):
    """SeedSequence's hashmix, whose multiplier starts at `mult` and steps by `step`."""

    def hashmix(value: int) -> int:
        nonlocal mult
        value ^= mult
        mult = mult * step & _M32
        value = value * mult & _M32
        return value ^ value >> 16

    return hashmix


def _mix(x: int, y: int) -> int:
    value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return value ^ value >> 16


def resample_indices(key: np.uint64, start: int, stop: int, n: int) -> np.ndarray:
    """The entry indices of resamples start..stop-1, one row of n per resample.

    Index j of resample i is a SplitMix64 mix of key + golden * ((i << 32) | j),
    a counter-based draw after Salmon et al. (SC'11), mapped to [0, n) by
    multiply-shift on its top 32 bits. Resample i depends only on (key, i, n),
    so any chunking of the resamples draws the same indices.
    """
    # golden * ((i << 32) | j) is golden * (i << 32) + golden * j, modulo 2**64.
    # Every step after the first sum works in place in z, through one scratch t.
    rows = np.arange(start, stop, dtype=np.uint64)[:, None]
    rows <<= 32
    rows *= _GOLDEN
    rows += key
    z = np.arange(n, dtype=np.uint64)
    z *= _GOLDEN
    z = np.add(z, rows)
    t = np.empty_like(z)
    z ^= np.right_shift(z, 30, out=t)
    z *= _MIX[0]
    z ^= np.right_shift(z, 27, out=t)
    z *= _MIX[1]
    z ^= np.right_shift(z, 31, out=t)
    z >>= 32
    z *= np.uint64(n)
    z >>= 32
    return z.view(np.int64)


def _codes(values: Sequence[str]) -> tuple[np.ndarray, int]:
    """Each value's code, in order of first appearance, and the number of codes."""
    if len(values) == 0:
        raise DataInvariantError("statistic undefined for no values")
    index: dict[str, int] = {}
    codes = np.array([index.setdefault(v, len(index)) for v in values], np.intp)
    return codes, len(index)


def resampled_mprs(
    values: Sequence[str], rows: Sequence[Sequence[int]], cfg: ResampleConfig
) -> np.ndarray:
    """The (S, k) bootstrap macro pass rates of S pass rows over one value sequence.

    Resample i applies one index vector to every row, so the S systems of a
    property are resampled jointly, as paired comparisons need; since the
    indices depend only on (cfg.seed, i, n), row s of this array equals a
    one-row call on rows[s]. Values absent from a resample drop out of that
    resample's denominator. Resamples are computed a chunk at a time, so
    memory does not grow with k.
    """
    codes, n_values = _codes(values)
    n = len(codes)
    if any(len(row) != n for row in rows):
        raise DataInvariantError(f"every pass row must hold {n} bits, one per value")
    passes = np.asarray(rows, dtype=np.float64).reshape(len(rows), n)
    bad = passes[(passes != 0) & (passes != 1)]
    if bad.size:
        raise DataInvariantError(f"pass bit must be 0 or 1, got {bad[0]:g}")
    n_rows = len(passes)
    # One weighted bincount per pack of fields tallies, in each (resample,
    # value) bin, the draws (field 0) and every system's passes (field s + 1).
    # A bin holds at most n draws, so each field's count fits in `width` bits
    # and every partial sum is an integer below 2**53, which float64 holds
    # exactly: the fields unpack to the counts one bincount per row would give.
    width = _field_width(n)
    per_pack = _EXACT_BITS // width
    n_fields = n_rows + 1
    weights = np.zeros((-(-n_fields // per_pack), n))
    weights[0] = 1.0
    for f, row in enumerate(passes, start=1):
        weights[f // per_pack] += row * float(1 << (f % per_pack) * width)
    key = resample_key(cfg.seed)
    step = max(1, CHUNK // n)
    # The unpacked tally of a chunk: one row per field, one column per bin.
    tally = np.empty((n_fields, step * n_values), np.int64)
    mask = (1 << width) - 1
    out = np.empty((n_rows, cfg.k))
    for start in range(0, cfg.k, step):
        stop = min(start + step, cfg.k)
        idx = resample_indices(key, start, stop, n)
        # Resample r of the chunk counts into bins [r * V, (r + 1) * V),
        # so one bincount covers the whole chunk.
        size = (stop - start) * n_values
        bins = np.take(codes, idx)
        bins += np.arange(0, size, n_values)[:, None]
        bins = bins.ravel()
        packs = [
            np.bincount(bins, weights=np.take(w, idx).ravel(), minlength=size).astype(np.int64)
            for w in weights
        ]
        fields = tally[:, :size]
        for f in range(n_fields):
            np.right_shift(packs[f // per_pack], (f % per_pack) * width, out=fields[f])
        fields &= mask
        counts = fields[0]
        # An absent value's sum is 0, so it adds 0 to its resample's total.
        ratios = (fields[1:] / np.maximum(counts, 1)).reshape(n_rows, -1, n_values)
        present = np.count_nonzero(counts.reshape(-1, n_values), axis=1)
        out[:, start:stop] = ratios.sum(axis=2) / present
    return out


def _field_width(n: int) -> int:
    """Bits per tally field: enough for a count of up to n draws."""
    return n.bit_length()


def macro_pass_rate(values: Sequence[str], passes: Sequence[int]) -> float:
    """Mean of per-value pass rates, weighting each distinct value equally."""
    codes, n_values = _codes(values)
    sums = np.bincount(codes, weights=np.asarray(passes, dtype=np.float64), minlength=n_values)
    # A left-to-right float sum over values in order of first appearance.
    return sum((sums / np.bincount(codes, minlength=n_values)).tolist()) / n_values


def bootstrap_ci(mprs: np.ndarray, cfg: ResampleConfig) -> tuple[float, float]:
    """Percentile bootstrap interval (lo, hi) for the macro pass rate, from one
    row of `resampled_mprs`.

    Quantiles interpolate linearly between order statistics, so the interval
    is deterministic given the row.
    """
    ordered = np.sort(mprs)
    return (
        _linear_quantile(ordered, cfg.alpha / 2.0), _linear_quantile(ordered, 1.0 - cfg.alpha / 2.0)
    )


def _linear_quantile(ordered: np.ndarray, q: float) -> float:
    """`np.quantile(ordered, q, method="linear")` of a sorted array, bit for bit,
    without np.quantile's import of numpy.ma."""
    v = (len(ordered) - 1) * q
    # As in numpy, a virtual index at or past the last order statistic reads
    # it at index -1 for both ends, which makes the weight v + 1.
    i = math.floor(v) if v < len(ordered) - 1 else -1
    a = float(ordered[i])
    b = float(ordered[i + 1]) if i >= 0 else a
    g = v - i
    return b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g


def paired_bootstrap(
    mprs_a: np.ndarray, mprs_b: np.ndarray, cfg: ResampleConfig
) -> tuple[str | None, float, bool]:
    """Compare two systems from two rows of one `resampled_mprs` call, which
    resampled them jointly over the same cases: (winner, p_value, significant).

    `winner` is "a", "b", or None when win counts tie exactly. The p-value is
    one minus the winner's win fraction, with tied resamples split evenly. It is
    one-sided for a winner chosen after the fact, so the two-sided test at alpha
    calls the difference significant when the p-value is below alpha / 2.
    """
    ties = 0.5 * int(np.count_nonzero(mprs_a == mprs_b))
    wins_a = int(np.count_nonzero(mprs_a > mprs_b)) + ties
    wins_b = int(np.count_nonzero(mprs_b > mprs_a)) + ties
    winner = "a" if wins_a > wins_b else "b" if wins_b > wins_a else None
    p_value = 1.0 - max(wins_a, wins_b) / cfg.k
    return winner, p_value, p_value < cfg.alpha / 2


def diversity_series(
    sentences: Sequence[str], n: int, tok: TokenizerConfig = TokenizerConfig()
) -> list[float | None]:
    """Per-sentence fraction of n-grams unseen in all earlier sentences.

    Sentences are taken in generation order. Sentences with fewer than n
    tokens contribute no n-grams and yield None rather than a 0/0 entry.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(sentences) == 0:
        raise DataInvariantError("diversity undefined for an empty suite")
    seen: set[str] = set()
    series: list[float | None] = []
    for sentence in sentences:
        toks = tokenize(sentence, tok)
        if len(toks) < n:
            series.append(None)
            continue
        grams = set(_windows(toks, n, tok))
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

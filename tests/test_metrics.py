"""Statistics: MPR, resampled MPRs, bootstrap CI, paired bootstrap, diversity, trend fit."""
from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mtbehave import metrics
from mtbehave.detection import TokenizerConfig
from mtbehave.errors import DataInvariantError
from mtbehave.metrics import (
    ResampleConfig,
    bootstrap_ci,
    diversity_series,
    macro_pass_rate,
    paired_bootstrap,
    resample_indices,
    resample_key,
    resampled_mprs,
    trend_fit,
)
from mtbehave.model import TestCase
from mtbehave.runner import build_report

from conftest import make_spec


def bern_row(rng: random.Random, n: int, p: float) -> list[int]:
    return [1 if rng.random() < p else 0 for _ in range(n)]


def ci_of(values, row, cfg: ResampleConfig) -> tuple[float, float]:
    return bootstrap_ci(resampled_mprs(values, [row], cfg)[0], cfg)


def compare(values, row_a, row_b, cfg: ResampleConfig):
    mprs = resampled_mprs(values, [row_a, row_b], cfg)
    return paired_bootstrap(mprs[0], mprs[1], cfg)


class TestPassRates:
    def test_mpr_worked_example(self):
        assert macro_pass_rate(list("AABBBB"), [1, 0, 1, 1, 1, 1]) == 0.75

    def test_mpr_equals_pr_for_singleton_groups(self):
        row = [1, 0, 1]
        assert macro_pass_rate(["a", "b", "c"], row) == sum(row) / len(row)

    def test_mpr_equals_pr_single_value(self):
        assert macro_pass_rate(["v"] * 3, [1, 0, 0]) == pytest.approx(1 / 3)

    def test_empty_sample_rejected(self):
        with pytest.raises(DataInvariantError):
            macro_pass_rate([], [])
        with pytest.raises(DataInvariantError):
            resampled_mprs([], [[]], ResampleConfig(k=10))

    def test_non_binary_pass_rejected(self):
        with pytest.raises(DataInvariantError):
            resampled_mprs(["a"], [[2]], ResampleConfig(k=10))

    def test_bounds_random(self):
        rng = random.Random(3)
        for _ in range(500):
            n = rng.randint(1, 30)
            values = [rng.choice("abcd") for _ in range(n)]
            assert 0.0 <= macro_pass_rate(values, [rng.randint(0, 1) for _ in range(n)]) <= 1.0


class TestBootstrapCi:
    def test_all_ones(self):
        assert ci_of(["v"] * 20, [1] * 20, ResampleConfig(k=200, seed=1)) == (1.0, 1.0)

    def test_all_zeros(self):
        assert ci_of(["v"] * 20, [0] * 20, ResampleConfig(k=200, seed=1)) == (0.0, 0.0)

    def test_deterministic_given_seed(self):
        rng = random.Random(11)
        row = bern_row(rng, 100, 0.6)
        cfg = ResampleConfig(k=300, seed=42)
        assert ci_of(["v"] * 100, row, cfg) == ci_of(["v"] * 100, row, cfg)

    def test_seed_changes_interval(self):
        rng = random.Random(11)
        row = bern_row(rng, 60, 0.6)
        a = ci_of(["v"] * 60, row, ResampleConfig(k=100, seed=1))
        b = ci_of(["v"] * 60, row, ResampleConfig(k=100, seed=2))
        assert a != b

    def test_interval_within_unit_range_and_ordered(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(2, 40)
            values = [rng.choice("ab") for _ in range(n)]
            lo, hi = ci_of(values, [rng.randint(0, 1) for _ in range(n)], ResampleConfig(k=100, seed=7))
            assert 0.0 <= lo <= hi <= 1.0

    def test_groups_absent_from_resample_are_excluded(self):
        # One dominant all-pass value plus one rare all-fail value: resamples
        # that miss the rare value have MPR 1.0, so the upper bound reaches 1.
        lo, hi = ci_of(["common"] * 30 + ["rare"], [1] * 30 + [0], ResampleConfig(k=500, seed=3))
        assert hi == 1.0
        assert lo < 1.0

    def test_coverage_smoke(self):
        # Full 3-probability coverage study lives in the acceptance suite.
        rng = random.Random(99)
        hits = 0
        trials = 40
        for _ in range(trials):
            row = bern_row(rng, 400, 0.7)
            lo, hi = ci_of(["v"] * 400, row, ResampleConfig(k=200, seed=rng.randrange(2**16)))
            hits += lo <= 0.7 <= hi
        assert hits / trials >= 0.8


# Alphas for which a CI's lower virtual index is 0 and its upper one k - 1,
# alongside ordinary and near-1 ones.
ALPHAS = st.one_of(
    st.sampled_from([1e-300, 1e-17, 0.05, 0.5, 1.0 - 2**-53]),
    st.floats(min_value=1e-9, max_value=1.0 - 1e-9),
)


def numpy_ci(stats, alpha):
    lo, hi = np.quantile(stats, [alpha / 2.0, 1.0 - alpha / 2.0], method="linear")
    return float(lo), float(hi)


class TestQuantileParity:
    """bootstrap_ci reads its quantiles from a sorted copy of the statistics;
    np.quantile's linear method is the reference, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=1, max_value=2000),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50),
        st.integers(min_value=0, max_value=2**32 - 1),
        ALPHAS,
    )
    @example(k=1, pool=[0.5], seed=0, alpha=0.05)
    @example(k=3, pool=[0.1, 0.2, 0.7], seed=0, alpha=1e-300)
    def test_linear_quantile_matches_numpy(self, k, pool, seed, alpha):
        # k draws from a pool of at most 50 values, so most arrays hold ties.
        stats = np.random.default_rng(seed).choice(np.asarray(pool), size=k)
        ordered = np.sort(stats)
        got = tuple(metrics._linear_quantile(ordered, q) for q in (alpha / 2.0, 1.0 - alpha / 2.0))
        assert [x.hex() for x in got] == [x.hex() for x in numpy_ci(stats, alpha)]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from("abcd"), st.integers(0, 1)), min_size=1, max_size=30),
        st.integers(min_value=1, max_value=2000),
        ALPHAS,
        st.integers(min_value=0, max_value=2**32),
    )
    def test_bootstrap_ci_matches_numpy(self, pairs, k, alpha, seed):
        cfg = ResampleConfig(k=k, alpha=alpha, seed=seed)
        stats = resampled_mprs([v for v, _ in pairs], [[p for _, p in pairs]], cfg)[0]
        assert [x.hex() for x in bootstrap_ci(stats, cfg)] == [x.hex() for x in numpy_ci(stats, alpha)]


class TestPairedBootstrap:
    def test_identical_samples_p_half(self):
        rng = random.Random(2)
        row = bern_row(rng, 50, 0.5)
        winner, p_value, significant = compare(["v"] * 50, row, row, ResampleConfig(k=400, seed=9))
        assert p_value == 0.5
        assert winner is None
        assert not significant

    def test_all_pass_vs_all_fail(self):
        winner, p_value, significant = compare(
            ["v"] * 30, [1] * 30, [0] * 30, ResampleConfig(k=400, seed=9)
        )
        assert winner == "a"
        assert p_value == 0.0
        assert significant

    def test_null_comparisons_keep_their_level(self):
        # Two systems with one true pass rate: a two-sided test at alpha = 0.05
        # marks about 5% of comparisons significant; one-sided p < alpha, about 10%.
        rng = random.Random(600)
        values = [f"v{i % 30}" for i in range(300)]
        trials = 600
        marked = sum(
            compare(values, bern_row(rng, 300, 0.7), bern_row(rng, 300, 0.7),
                    ResampleConfig(k=1000, seed=t))[2]
            for t in range(trials)
        )
        assert marked / trials <= 0.075

    def test_clear_difference_stays_significant(self):
        rng = random.Random(601)
        values = [f"v{i % 30}" for i in range(300)]
        marked = sum(
            compare(values, bern_row(rng, 300, 0.85), bern_row(rng, 300, 0.7),
                    ResampleConfig(k=1000, seed=t))[2]
            for t in range(50)
        )
        assert marked >= 48

    def test_large_gap_p_zero(self):
        rng = random.Random(13)
        values = [rng.choice("abcdefgh") for _ in range(1000)]
        a = [1 if rng.random() < 0.95 else 0 for _ in values]
        b = [1 if rng.random() < 0.55 else 0 for _ in values]
        winner, p_value, _ = compare(values, a, b, ResampleConfig(k=300, seed=4))
        assert winner == "a"
        assert p_value == 0.0

    def test_antisymmetry_random(self):
        rng = random.Random(17)
        cfg = ResampleConfig(k=120, seed=23)
        for _ in range(30):
            n = rng.randint(5, 40)
            values = [rng.choice("abc") for _ in range(n)]
            rows = [[rng.randint(0, 1) for _ in values] for _ in range(2)]
            mprs = resampled_mprs(values, rows, cfg)
            fwd_winner, fwd_p, _ = paired_bootstrap(mprs[0], mprs[1], cfg)
            rev_winner, rev_p, _ = paired_bootstrap(mprs[1], mprs[0], cfg)
            assert fwd_p == rev_p
            assert {"a": "b", "b": "a", None: None}[fwd_winner] == rev_winner

    def test_deterministic(self):
        rng = random.Random(31)
        values = [rng.choice("ab") for _ in range(40)]
        a = [rng.randint(0, 1) for _ in values]
        b = [rng.randint(0, 1) for _ in values]
        cfg = ResampleConfig(k=150, seed=77)
        assert compare(values, a, b, cfg) == compare(values, a, b, cfg)


def scalar_mprs(values, rows, cfg: ResampleConfig) -> np.ndarray:
    """Reference: one resample at a time, one system at a time. A resample's
    MPR sums every value slot (0 for a value it misses) and divides by the
    number of values it holds."""
    index: dict[str, int] = {}
    codes = np.array([index.setdefault(v, len(index)) for v in values])
    key = resample_key(cfg.seed)
    out = np.empty((len(rows), cfg.k))
    for i in range(cfg.k):
        idx = resample_indices(key, i, i + 1, len(values))[0]
        for s, row in enumerate(rows):
            passes = np.asarray(row, dtype=np.float64)[idx]
            sums = np.bincount(codes[idx], weights=passes, minlength=len(index))
            counts = np.bincount(codes[idx], minlength=len(index))
            mask = counts > 0
            ratios = np.zeros(len(index))
            ratios[mask] = sums[mask] / counts[mask]
            out[s, i] = float(np.sum(ratios)) / np.count_nonzero(mask)
    return out


def scalar_ci(row: np.ndarray, cfg: ResampleConfig) -> tuple[float, float]:
    lo, hi = np.quantile(row, [cfg.alpha / 2.0, 1.0 - cfg.alpha / 2.0], method="linear")
    return float(lo), float(hi)


def scalar_comparison(row_a: np.ndarray, row_b: np.ndarray, cfg: ResampleConfig):
    wins_a = wins_b = 0.0
    for mpr_a, mpr_b in zip(row_a, row_b):
        if mpr_a > mpr_b:
            wins_a += 1.0
        elif mpr_b > mpr_a:
            wins_b += 1.0
        else:
            wins_a += 0.5
            wins_b += 0.5
    winner = "a" if wins_a > wins_b else "b" if wins_b > wins_a else None
    return winner, 1.0 - max(wins_a, wins_b) / cfg.k


def random_panel(rng: random.Random, n: int, n_values: int, systems: int):
    values = [f"v{rng.randrange(n_values)}" for _ in range(n)]
    rows = [[int(rng.random() < rng.random()) for _ in range(n)] for _ in range(systems)]
    return values, rows


class TestResampledMprs:
    @pytest.mark.parametrize(
        "n, n_values, systems",
        [
            (1, 1, 1),  # a single entry
            (5, 1, 3),  # one value: MPR is the plain pass rate
            (7, 3, 2),  # n < 8: below numpy's unrolled summation block
            (40, 30, 4),  # most values absent from any one resample
            (200, 8, 5),  # n_values >= 8
            (1000, 20, 6),
            (300, 300, 6),
        ],
    )
    def test_equals_scalar_loop(self, n, n_values, systems):
        rng = random.Random(n * 1009 + n_values * 31 + systems)
        values, rows = random_panel(rng, n, n_values, systems)
        cfg = ResampleConfig(k=60, seed=rng.randrange(2**16))
        got = resampled_mprs(values, rows, cfg)
        assert got.shape == (systems, cfg.k)
        assert np.array_equal(got, scalar_mprs(values, rows, cfg))

    def test_random_shapes_equal_scalar_loop(self):
        rng = random.Random(71)
        for _ in range(40):
            values, rows = random_panel(
                rng, rng.randint(1, 60), rng.randint(1, 12), rng.randint(1, 6)
            )
            cfg = ResampleConfig(k=25, seed=rng.randrange(2**16))
            assert np.array_equal(
                resampled_mprs(values, rows, cfg), scalar_mprs(values, rows, cfg)
            )

    def test_rows_equal_one_row_calls(self):
        rng = random.Random(19)
        values, rows = random_panel(rng, 250, 6, 4)
        for cfg in (ResampleConfig(k=150, seed=3), ResampleConfig(k=90, seed=4)):
            together = resampled_mprs(values, rows, cfg)
            for i, row in enumerate(rows):
                assert np.array_equal(together[i], resampled_mprs(values, [row], cfg)[0])

    def test_cohort_rows_must_match_values(self):
        with pytest.raises(DataInvariantError):
            resampled_mprs(["a", "b"], [[1, 0], [1]], ResampleConfig(k=10))

    def test_memory_is_independent_of_k(self):
        rng = np.random.default_rng(0)
        values = [f"v{c}" for c in rng.integers(0, 20, size=1000)]
        rows = rng.integers(0, 2, size=(6, 1000))
        cfg = ResampleConfig(k=1000, seed=1)
        tracemalloc.start()
        try:
            resampled_mprs(values, rows, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A materialised (k, n) int64 index matrix alone would be 8 MB.
        assert peak < 4 * 2**20


def one_bincount_per_row_mprs(values, rows, cfg: ResampleConfig) -> np.ndarray:
    """Reference: the chunked kernel with one float-weighted bincount per pass
    row and one unweighted bincount for the draws, as it was before packing."""
    index: dict[str, int] = {}
    codes = np.array([index.setdefault(v, len(index)) for v in values], np.intp)
    n, n_values = len(codes), len(index)
    passes = np.asarray(rows, dtype=np.float64).reshape(len(rows), n)
    key = resample_key(cfg.seed)
    step = max(1, metrics.CHUNK // n)
    out = np.empty((len(passes), cfg.k))
    for start in range(0, cfg.k, step):
        stop = min(start + step, cfg.k)
        idx = resample_indices(key, start, stop, n)
        size = (stop - start) * n_values
        bins = (codes[idx] + np.arange(0, size, n_values)[:, None]).ravel()
        counts = np.bincount(bins, minlength=size)
        sums = np.stack(
            [np.bincount(bins, weights=row[idx].ravel(), minlength=size) for row in passes]
        )
        ratios = (sums / np.maximum(counts, 1)).reshape(len(passes), -1, n_values)
        present = np.count_nonzero(counts.reshape(-1, n_values), axis=1)
        out[:, start:stop] = ratios.sum(axis=2) / present
    return out


def packed_panel(n: int, systems: int):
    """A panel whose k spans two full chunks and a partial one."""
    rng = random.Random(n * 131 + systems)
    values, rows = random_panel(rng, n, rng.randint(1, n), systems)
    rows[0] = [1] * n  # a pass field as large as the draw count
    step = max(1, metrics.CHUNK // n)
    return values, rows, ResampleConfig(k=2 * step + 3, seed=rng.randrange(2**16))


class TestPackedTally:
    @pytest.mark.parametrize("systems", [1, 4, 5, 6, 12, 13])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 127, 128, 1023, 1024])
    def test_equals_one_bincount_per_row(self, n, systems):
        values, rows, cfg = packed_panel(n, systems)
        assert np.array_equal(
            resampled_mprs(values, rows, cfg), one_bincount_per_row_mprs(values, rows, cfg)
        )

    @pytest.mark.parametrize("systems", [1, 6, 13])
    @pytest.mark.parametrize("n", [1, 7, 1024])
    def test_one_field_per_weight(self, monkeypatch, n, systems):
        # From n = 2**26 on a field is 27 bits wide and a float64 holds one;
        # forcing that width covers the path without 2**26 entries.
        assert metrics._field_width(2**26) == 27 and metrics._EXACT_BITS // 27 == 1
        monkeypatch.setattr(metrics, "_field_width", lambda n: 27)
        values, rows, cfg = packed_panel(n, systems)
        assert np.array_equal(
            resampled_mprs(values, rows, cfg), one_bincount_per_row_mprs(values, rows, cfg)
        )


def chi_squared_z(counts: np.ndarray) -> float:
    """Pearson's chi-squared of counts against a uniform expectation, as
    standard deviations of its null distribution from the mean (df)."""
    expected = counts.sum() / counts.size
    chi2 = float(((counts - expected) ** 2).sum() / expected)
    df = counts.size - 1
    return (chi2 - df) / np.sqrt(2 * df)


class TestResampleDraw:
    @pytest.mark.parametrize("n", [1, 2, 7, 97, 1000])
    def test_indices_are_uniform_and_independent(self, n):
        k = 200_000 // n + 2000
        idx = resample_indices(resample_key(5), 0, k, n)
        assert idx.shape == (k, n)
        if n == 1:
            assert not idx.any()
            return
        assert 0 <= idx.min() and idx.max() < n
        # Pooled over every draw, at one position across resamples, and over
        # adjacent positions of a resample (n * n cells).
        assert abs(chi_squared_z(np.bincount(idx.ravel(), minlength=n))) < 5
        assert abs(chi_squared_z(np.bincount(idx[:, 0], minlength=n))) < 5
        if n <= 100:
            pairs = (idx[:, :-1] * n + idx[:, 1:]).ravel()
            assert abs(chi_squared_z(np.bincount(pairs, minlength=n * n))) < 5

    def test_chunk_size_changes_no_bit(self, monkeypatch):
        values, rows = random_panel(random.Random(5), 50, 7, 3)
        cfg = ResampleConfig(k=10, seed=9)
        # 1 resample per chunk; chunks of 3 with a partial last chunk; all of k.
        results = []
        for chunk in (1, 50, 3 * 50, 10 * 50):
            monkeypatch.setattr(metrics, "CHUNK", chunk)
            results.append(resampled_mprs(values, rows, cfg))
        assert all(np.array_equal(r, results[0]) for r in results)
        key = resample_key(cfg.seed)
        assert np.array_equal(resample_indices(key, 3, 7, 50), resample_indices(key, 0, 10, 50)[3:7])

    def test_any_seed_works_and_adjacent_seeds_differ(self):
        values, rows = random_panel(random.Random(6), 50, 7, 3)
        for seed in (0, 2**63, 2**70):
            here, there = (ResampleConfig(k=20, seed=s) for s in (seed, seed + 1))
            got = resampled_mprs(values, rows, here)
            assert np.isfinite(got).all() and ((0 <= got) & (got <= 1)).all()
            assert not np.array_equal(got, resampled_mprs(values, rows, there))
            assert not np.array_equal(
                resample_indices(resample_key(seed), 0, 20, 50),
                resample_indices(resample_key(seed + 1), 0, 20, 50),
            )

    def test_key_equals_numpy_seed_sequence(self):
        rng = random.Random(2024)
        edges = [0, 1, 2**31, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64, 2**96, 2**128 + 1]
        # Every word count from one to seven, so the pool of four fills, and overflows.
        seeds = edges + [rng.getrandbits(rng.randint(1, 224)) for _ in range(10_000)]
        got = [resample_key(seed) for seed in seeds]
        assert all(isinstance(key, np.uint64) for key in got)
        want = [np.random.SeedSequence(seed).generate_state(1, np.uint64)[0] for seed in seeds]
        assert got == want

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            resample_key(-1)

    def test_k_must_fit_the_counter(self):
        ResampleConfig(k=2**32 - 1)
        with pytest.raises(DataInvariantError):
            ResampleConfig(k=2**32)


class TestBuildReportStatistics:
    def test_equals_per_system_and_per_pair_scalar_statistics(self):
        rng = random.Random(23)
        n, systems = 120, 5
        suite = []
        for i in range(n):
            raw = f"It is {i} [u{rng.randrange(7)}] long."
            suite.append(TestCase(f"units-{i:05d}", "units", raw))
        system_ids = [f"sys{s}" for s in range(systems)]
        rows = [[int(rng.random() < 0.4 + 0.1 * s) for _ in range(n)] for s in range(systems)]
        passes = {sid: [bool(p) for p in row] for sid, row in zip(system_ids, rows)}
        cfg = ResampleConfig(k=200, alpha=0.05, seed=13)
        report = build_report(make_spec(), suite, passes, cfg)

        values = [case.value for case in suite]
        reference = scalar_mprs(values, rows, cfg)
        cis = [tuple(s["ci"]) for s in report["systems"].values()]
        assert cis == [scalar_ci(r, cfg) for r in reference]
        assert cis == [ci_of(values, row, cfg) for row in rows]
        expected = []
        for i in range(systems):
            for j in range(i + 1, systems):
                winner, p_value = scalar_comparison(reference[i], reference[j], cfg)
                expected.append((
                    system_ids[i], system_ids[j],
                    {"a": system_ids[i], "b": system_ids[j], None: None}[winner], p_value,
                ))
        got = [(c["a"], c["b"], c["winner"], c["p_value"]) for c in report["comparisons"]]
        assert got == expected


def oracle_diversity(sentences: list[str], n: int) -> list[float | None]:
    """Hand-enumerated gram bookkeeping, independent of the library path."""
    seen: set[tuple[str, ...]] = set()
    out: list[float | None] = []
    for sentence in sentences:
        toks = [t.strip("¡!¿?.,;:'\"()") for t in sentence.split()]
        toks = [t for t in toks if t]
        grams = {tuple(toks[i : i + n]) for i in range(len(toks) - n + 1)}
        if len(toks) < n:
            out.append(None)
            continue
        out.append(len(grams - seen) / len(grams))
        seen |= grams
    return out


class TestDiversity:
    def test_first_sentence_is_one(self):
        assert diversity_series(["a b c d"], 3) == [1.0]

    def test_exact_repeat_is_zero(self):
        series = diversity_series(["a b c d", "a b c d"], 3)
        assert series == [1.0, 0.0]

    def test_hand_enumerated_example(self):
        series = diversity_series(["a b c d", "c d e f"], 3)
        # grams1 = {a b c, b c d}; grams2 = {c d e, d e f}, both new
        assert series == [1.0, 1.0]

    def test_partial_overlap(self):
        series = diversity_series(["a b c d", "b c d e"], 3)
        # grams2 = {b c d, c d e}; "b c d" already seen
        assert series == [1.0, 0.5]

    def test_short_sentence_skipped(self):
        series = diversity_series(["a b c", "x", "a b c"], 2)
        assert series == [1.0, None, 0.0]

    def test_oracle_agreement_on_random_two_sentence_suites(self):
        rng = random.Random(41)
        words = ["uno", "dos", "tres", "cuatro", "cinco"]
        for _ in range(200):
            sentences = [
                " ".join(rng.choice(words) for _ in range(rng.randint(1, 7)))
                for _ in range(2)
            ]
            n = rng.randint(1, 3)
            got = diversity_series(sentences, n)
            want = oracle_diversity(sentences, n)
            assert got == want

    def test_values_in_unit_interval(self):
        rng = random.Random(43)
        words = ["a", "b", "c"]
        sentences = [
            " ".join(rng.choice(words) for _ in range(rng.randint(2, 6))) for _ in range(50)
        ]
        for entry in diversity_series(sentences, 2):
            assert entry is None or 0.0 <= entry <= 1.0

    def test_empty_suite_rejected(self):
        with pytest.raises(DataInvariantError):
            diversity_series([], 3)

    def test_character_mode(self):
        tok = TokenizerConfig(mode="character")
        assert diversity_series(["猫が好き", "猫が嫌い"], 2, tok) == [1.0, pytest.approx(2 / 3)]


def normal_equations_fit(xs, ys, degree):
    """Vandermonde normal equations, solved directly: the independent oracle."""
    X = np.vander(np.asarray(xs, dtype=float), degree + 1, increasing=True)
    coef = np.linalg.solve(X.T @ X, X.T @ np.asarray(ys, dtype=float))
    return coef


def residual(xs, ys, coef_ascending):
    X = np.vander(np.asarray(xs, dtype=float), len(coef_ascending), increasing=True)
    r = np.asarray(ys, dtype=float) - X @ np.asarray(coef_ascending)
    return float(r @ r)


class TestTrendFit:
    def test_constant_series(self):
        coefs = trend_fit([0.5] * 10, 2)
        assert coefs[0] == pytest.approx(0.5, abs=1e-9)
        assert all(abs(c) < 1e-9 for c in coefs[1:])

    def test_exact_line(self):
        series = [0.1 + 0.02 * i for i in range(12)]
        intercept, slope = trend_fit(series, 1)
        assert intercept == pytest.approx(0.1, abs=1e-9)
        assert slope == pytest.approx(0.02, abs=1e-9)

    def test_noisy_poly_matches_normal_equations(self):
        rng = np.random.default_rng(8)
        xs = np.arange(40)
        ys = 0.9 - 0.01 * xs + 0.0002 * xs**2 + rng.normal(0, 0.01, size=40)
        series = list(ys)
        coefs = trend_fit(series, 2)
        oracle = normal_equations_fit(xs, ys, 2)
        assert residual(xs, ys, coefs) <= residual(xs, ys, oracle) + 1e-9

    def test_none_entries_masked(self):
        series = [0.2, None, 0.2, None, 0.2]
        coefs = trend_fit(series, 1)
        assert coefs[0] == pytest.approx(0.2, abs=1e-9)
        assert abs(coefs[1]) < 1e-9

    def test_underdetermined_rejected(self):
        with pytest.raises(DataInvariantError):
            trend_fit([1.0, 2.0], 3)


class TestConfigValidation:
    def test_resample_config_bounds(self):
        with pytest.raises(DataInvariantError):
            ResampleConfig(k=0)
        with pytest.raises(DataInvariantError):
            ResampleConfig(alpha=0.0)
        with pytest.raises(DataInvariantError):
            ResampleConfig(alpha=1.0)
        with pytest.raises(DataInvariantError):
            ResampleConfig(seed=-1)

    def test_interval_ordering_enforced(self):
        # The bounds are read from a sorted copy, so a descending row still gives lo <= hi.
        lo, hi = bootstrap_ci(np.array([0.7, 0.3]), ResampleConfig(k=2, alpha=0.5))
        assert lo <= hi

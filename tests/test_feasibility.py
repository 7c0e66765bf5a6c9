import math
import sys
import threading
import time
import tracemalloc

import mpmath
import numpy as np
import pytest

from geo_route_sim import cli, feasibility
from geo_route_sim.feasibility import (
    MAX_DRAW_POINTS,
    AnalyzeConfig,
    FeasibilityParams,
    RegionKind,
    analyze_csv,
    mean_node_count,
    monte_carlo_at_least_k,
    poisson_pmf,
    prob_at_least_k,
    region_counts,
)


def params_for_mean(mean: float, region: RegionKind, tx_range: float = 250.0, k: int = 1):
    """Density such that the chosen region has the requested expected count."""
    full_mean = mean if region is RegionKind.FULL_CIRCLE else 4.0 * mean
    return FeasibilityParams(full_mean / (math.pi * tx_range**2), tx_range, k)


def one_shot_counts(params: FeasibilityParams, region: RegionKind, trials: int, seed: int):
    """Region counts from every point of every trial drawn at once."""
    rng = np.random.default_rng(seed)
    r = params.tx_range
    low, high = (-r, r) if region is RegionKind.FULL_CIRCLE else (0.0, r)
    box_counts = rng.poisson(params.density * (high - low) ** 2, size=trials)
    xs = rng.uniform(low, high, size=int(box_counts.sum()))
    ys = rng.uniform(low, high, size=xs.size)
    owner = np.repeat(np.arange(trials), box_counts)
    return np.bincount(owner[(xs * xs + ys * ys) <= r * r], minlength=trials)


def pmf_reference(n: int, mean: float) -> float:
    """Arbitrary-precision Poisson pmf."""
    with mpmath.workdps(60):
        value = mpmath.power(mean, n) * mpmath.e ** (-mpmath.mpf(mean)) / mpmath.factorial(n)
        return float(value)


class TestMeanNodeCount:
    def test_full_circle_definition(self):
        params = params_for_mean(8.0, RegionKind.FULL_CIRCLE)
        assert mean_node_count(params, RegionKind.FULL_CIRCLE) == pytest.approx(8.0, rel=1e-12)

    def test_quarter_is_one_fourth(self):
        params = params_for_mean(8.0, RegionKind.FULL_CIRCLE)
        assert mean_node_count(params, RegionKind.QUARTER_CIRCLE) == pytest.approx(2.0, rel=1e-12)

    def test_hand_evaluated_default_densities(self):
        # 0.0002 * pi * 250^2 / 4 = 3.125 * pi
        params = FeasibilityParams(0.0002, 250.0)
        got = mean_node_count(params, RegionKind.QUARTER_CIRCLE)
        assert got == pytest.approx(3.125 * math.pi, rel=1e-12)
        assert got == pytest.approx(9.8175, abs=5e-4)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            FeasibilityParams(0.0, 250.0)
        with pytest.raises(ValueError):
            FeasibilityParams(0.1, -3.0)
        with pytest.raises(ValueError):
            FeasibilityParams(0.1, 250.0, k=-1)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="density"):
                FeasibilityParams(bad, 250.0)
            with pytest.raises(ValueError, match="tx_range"):
                FeasibilityParams(0.1, bad)

    def test_a_tx_range_whose_square_overflows_is_rejected(self):
        edge = 1.3407807929942596e154  # the largest range with a finite square
        for bad in (1e155, math.nextafter(edge, math.inf)):
            with pytest.raises(ValueError, match="tx_range"):
                FeasibilityParams(1e-10, bad)
        params = FeasibilityParams(1e-10, edge)
        assert mean_node_count(params, RegionKind.FULL_CIRCLE) < math.inf


class TestPoissonPmf:
    def test_zero_count_unit_mean(self):
        assert poisson_pmf(0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_zero_count_is_exp_of_minus_mean_bit_for_bit(self):
        # 0 * log(mean) is +-0 and lgamma(1) is exactly 0, so the general form
        # gives exp(-mean) itself, from subnormal means to the largest.
        means = [math.ldexp(mantissa, e) for e in range(-1074, 1024)
                 for mantissa in (1.0, 1.2345678901234567, 1.9999999999999998)]
        edge = 745.1332191019411  # exp(-edge) is the least subnormal
        means += [1e308, sys.float_info.max, math.nextafter(edge, 0), edge]
        assert len(means) > 6000
        assert [poisson_pmf(0, m).hex() for m in means] == [math.exp(-m).hex() for m in means]

    def test_empty_region_is_certain(self):
        assert poisson_pmf(0, 0.0) == 1.0
        assert poisson_pmf(3, 0.0) == 0.0

    def test_against_arbitrary_precision(self):
        for n, mean in [(5, 9.8175), (0, 9.8175), (17, 9.8175), (3, 0.25), (40, 12.0)]:
            assert poisson_pmf(n, mean) == pytest.approx(pmf_reference(n, mean), rel=1e-12)

    def test_large_n_does_not_overflow(self):
        value = poisson_pmf(500, 450.0)
        assert 0.0 < value < 1.0
        assert value == pytest.approx(pmf_reference(500, 450.0), rel=1e-10)

    @pytest.mark.parametrize("mean", [0.1, 1.0, 10.0, 100.0])
    def test_normalizes(self, mean):
        n_star = int(mean + 20.0 * math.sqrt(mean) + 50.0)
        total = math.fsum(poisson_pmf(n, mean) for n in range(n_star + 1))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            poisson_pmf(-1, 1.0)
        with pytest.raises(ValueError):
            poisson_pmf(1, -0.5)
        for mean in (math.inf, math.nan):
            with pytest.raises(ValueError, match="mean"):
                poisson_pmf(3, mean)


class TestProbAtLeastK:
    def test_k_zero_is_certain(self):
        for mean in (0.0, 0.5, 40.0):
            assert prob_at_least_k(0, mean) == 1.0

    def test_empty_region_has_no_nodes(self):
        assert prob_at_least_k(1, 0.0) == 0.0

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 0"):
            prob_at_least_k(-1, 1.0)

    @pytest.mark.parametrize("mean", [-0.5, math.inf, math.nan])
    def test_mean_outside_zero_to_infinity_rejected(self, mean):
        with pytest.raises(ValueError, match="mean"):
            prob_at_least_k(5, mean)

    @pytest.mark.parametrize("mean", [0.5, 2.0, 10.0])
    def test_closed_form_k_one(self, mean):
        assert prob_at_least_k(1, mean) == pytest.approx(1.0 - math.exp(-mean), rel=1e-12)

    def test_complements_the_head_sum(self):
        for mean in (0.3, 2.0, 9.8175, 35.0):
            for k in (1, 3, 8, 20):
                head = math.fsum(poisson_pmf(n, mean) for n in range(k))
                assert prob_at_least_k(k, mean) + head == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_k_and_mean(self):
        means = [0.2, 0.9, 2.5, 7.0, 9.8175, 25.0]
        for mean in means:
            probs = [prob_at_least_k(k, mean) for k in range(0, 25)]
            assert all(a >= b for a, b in zip(probs, probs[1:]))
        for k in (1, 3, 10):
            by_mean = [prob_at_least_k(k, mean) for mean in means]
            assert all(a <= b for a, b in zip(by_mean, by_mean[1:]))

    def test_against_arbitrary_precision_incomplete_gamma(self):
        # P(N >= k) = P(k, mean), the regularized lower incomplete gamma, at
        # 50 digits; deep upper tails are summed directly, so they keep their
        # relative accuracy instead of cancelling in 1 - head.
        with mpmath.workdps(50):
            for mean in np.geomspace(1e-3, 1e3, 25):
                for k in range(1, 201):
                    ref = float(mpmath.gammainc(k, 0, mean, regularized=True))
                    got = prob_at_least_k(k, float(mean))
                    if ref < sys.float_info.min:
                        assert got < 2**10 * sys.float_info.min, (k, mean, got, ref)
                    else:
                        assert abs(got - ref) <= 1e-12 * ref, (k, mean, got, ref)

    def test_quarter_region_never_beats_full_circle(self):
        # Eq-level region ordering: the quarter region has a quarter of the
        # mean, and the tail probability is monotone in the mean.
        for density in (0.0001, 0.0002, 0.0004):
            params = FeasibilityParams(density, 250.0)
            full = mean_node_count(params, RegionKind.FULL_CIRCLE)
            quarter = mean_node_count(params, RegionKind.QUARTER_CIRCLE)
            for k in range(1, 12):
                assert prob_at_least_k(k, quarter) <= prob_at_least_k(k, full)


class TestMonteCarlo:
    def test_k_zero_is_exactly_one(self):
        for seed in (0, 1, 99):
            params = params_for_mean(2.0, RegionKind.FULL_CIRCLE, k=0)
            est = monte_carlo_at_least_k(params, RegionKind.FULL_CIRCLE, 2000, seed)
            assert est.estimate == 1.0
            assert est.stderr == 0.0

    def test_matches_closed_form_k_one(self):
        params = params_for_mean(2.0, RegionKind.FULL_CIRCLE, k=1)
        est = monte_carlo_at_least_k(params, RegionKind.FULL_CIRCLE, 100_000, seed=42)
        expected = 1.0 - math.exp(-2.0)
        assert abs(est.estimate - expected) <= 3.0 * max(est.stderr, 1e-6)

    def test_quarter_estimate_below_full_estimate(self):
        params = params_for_mean(8.0, RegionKind.FULL_CIRCLE, k=3)
        full = monte_carlo_at_least_k(params, RegionKind.FULL_CIRCLE, 50_000, seed=7)
        quarter = monte_carlo_at_least_k(params, RegionKind.QUARTER_CIRCLE, 50_000, seed=8)
        slack = 3.0 * math.hypot(full.stderr, quarter.stderr)
        assert quarter.estimate <= full.estimate + slack

    def test_deterministic_per_seed(self):
        params = params_for_mean(5.0, RegionKind.QUARTER_CIRCLE, k=2)
        a = monte_carlo_at_least_k(params, RegionKind.QUARTER_CIRCLE, 10_000, seed=5)
        b = monte_carlo_at_least_k(params, RegionKind.QUARTER_CIRCLE, 10_000, seed=5)
        assert a == b

    def test_rejects_bad_trials(self):
        with pytest.raises(ValueError):
            monte_carlo_at_least_k(FeasibilityParams(0.1, 10.0), RegionKind.FULL_CIRCLE, 0, 1)

    @staticmethod
    def refuse_to_draw(monkeypatch):
        """Make seeding a generator raise ``Drawn``, so a call that gets past
        its checks stops before it draws anything."""

        class Drawn(Exception):
            pass

        def seeded(*args):
            raise Drawn

        monkeypatch.setattr(np.random, "default_rng", seeded)
        return Drawn

    # The 2 * tx_range box overflows at the largest tx_range with a finite square, and
    # holds 4e190 points, past numpy's Poisson, at 1e100.
    @pytest.mark.parametrize("tx_range", [1.3407807929942596e154, 1e100])
    @pytest.mark.parametrize("call", [region_counts, monte_carlo_at_least_k])
    def test_a_box_past_the_draw_bound_names_tx_range(self, monkeypatch, call, tx_range):
        self.refuse_to_draw(monkeypatch)
        with pytest.raises(ValueError, match="tx_range"):
            call(FeasibilityParams(1e-10, tx_range), RegionKind.FULL_CIRCLE, 10, 1)

    @pytest.mark.parametrize(
        "density, tx_range", [(1.0, 1000.0), (0.0004, 250.0), (1e-12, 250.0), (3.7e-3, 91.3)]
    )
    def test_the_draw_bound_is_analyze_configs_bound(self, monkeypatch, density, tx_range):
        # The largest mc_trials that AnalyzeConfig accepts reaches the full circle's
        # draw, and one trial more is refused by the draw itself.
        drawn = self.refuse_to_draw(monkeypatch)
        limit = int(MAX_DRAW_POINTS / (1.0 + 4.0 * tx_range * tx_range * density))
        AnalyzeConfig(densities=(density,), tx_range=tx_range, mc_trials=limit).validate()
        params = FeasibilityParams(density, tx_range)
        with pytest.raises(drawn):
            region_counts(params, RegionKind.FULL_CIRCLE, limit, 1)
        with pytest.raises(ValueError, match="trials"):
            region_counts(params, RegionKind.FULL_CIRCLE, limit + 1, 1)

    def test_trials_up_to_the_draw_bound_are_drawn(self, monkeypatch):
        # With the bound scaled down, the largest trial count it allows runs to the end.
        monkeypatch.setattr(feasibility, "MAX_DRAW_POINTS", 1000)
        params = FeasibilityParams(1.0, 5.0)  # 100 points in the 10 m box: 9 trials
        for region, limit in ((RegionKind.FULL_CIRCLE, 9), (RegionKind.QUARTER_CIRCLE, 38)):
            counts = region_counts(params, region, limit, 3)
            assert np.array_equal(counts, one_shot_counts(params, region, limit, 3))
            with pytest.raises(ValueError, match="trials"):
                region_counts(params, region, limit + 1, 3)

    @pytest.mark.parametrize("region", list(RegionKind))
    def test_region_counts_equal_the_plain_expression(self, region):
        # The draw squares and adds in place; the counts equal the plain
        # (xs * xs + ys * ys) <= r * r over the same draws exactly.
        params = params_for_mean(6.0, region)
        rng = np.random.default_rng(11)
        r = params.tx_range
        low, high = (-r, r) if region is RegionKind.FULL_CIRCLE else (0.0, r)
        box_counts = rng.poisson(params.density * (high - low) ** 2, size=5000)
        xs = rng.uniform(low, high, size=int(box_counts.sum()))
        ys = rng.uniform(low, high, size=xs.size)
        owner = np.repeat(np.arange(5000), box_counts)
        expected = np.bincount(owner[(xs * xs + ys * ys) <= r * r], minlength=5000)
        assert np.array_equal(region_counts(params, region, 5000, 11), expected)


class TestRegionCountBlocks:
    """The streamed draw equals the one-shot draw wherever the blocks fall."""

    @pytest.mark.parametrize("region", list(RegionKind))
    @pytest.mark.parametrize("block,trials", [(1, 300), (7, 300), (None, 20_000), (None, 1)])
    def test_any_block_size(self, monkeypatch, region, block, trials):
        if block is not None:
            monkeypatch.setattr(feasibility, "_BLOCK_POINTS", block)
        params = params_for_mean(6.0, region)
        expected = one_shot_counts(params, region, trials, 3)
        assert np.array_equal(region_counts(params, region, trials, 3), expected)

    @pytest.mark.parametrize("region", list(RegionKind))
    def test_one_trial_spans_blocks(self, region):
        # Each box holds about three blocks of points.
        r = 10.0
        side = 2.0 * r if region is RegionKind.FULL_CIRCLE else r
        params = FeasibilityParams(3.0 * feasibility._BLOCK_POINTS / side**2, r)
        expected = one_shot_counts(params, region, 4, 5)
        assert np.array_equal(region_counts(params, region, 4, 5), expected)

    @pytest.mark.parametrize("region", list(RegionKind))
    @pytest.mark.parametrize("block", [1, 2, 3, 7, None])
    def test_mostly_empty_trials(self, monkeypatch, region, block):
        # A box mean of 0.5 points leaves most trials empty, so trial ends
        # repeat, within a block and at its edges.
        if block is not None:
            monkeypatch.setattr(feasibility, "_BLOCK_POINTS", block)
        r = 10.0
        side = 2.0 * r if region is RegionKind.FULL_CIRCLE else r
        params = FeasibilityParams(0.5 / side**2, r)
        counts = region_counts(params, region, 2000, 7)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, one_shot_counts(params, region, 2000, 7))

    @pytest.mark.parametrize("region", list(RegionKind))
    def test_no_points_at_all(self, region):
        params = FeasibilityParams(1e-12, 250.0)
        counts = region_counts(params, region, 50, 1)
        assert counts.shape == (50,) and not counts.any()
        assert np.array_equal(counts, one_shot_counts(params, region, 50, 1))

    def test_memory_holds_one_block_not_the_draw(self):
        # The one-shot draw of these 3,000,000 box points peaks near 50 MB.
        tracemalloc.start()
        try:
            region_counts(FeasibilityParams(0.0004, 250.0), RegionKind.FULL_CIRCLE, 30_000, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000


    def test_a_sparse_draw_peaks_no_higher_than_a_dense_one(self):
        # A box mean of 0.1 points ends about ten trials per point drawn, so a
        # block covers some 300,000 trial ends; they are taken in slices.
        def peak(density, region):
            tracemalloc.start()
            try:
                region_counts(FeasibilityParams(density, 10.0), region, 300_000, 1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        sparse = peak(0.001, RegionKind.QUARTER_CIRCLE)
        assert sparse <= peak(0.004, RegionKind.FULL_CIRCLE)

class TestAnalyzeCsv:
    def test_default_grid_shape(self):
        lines = analyze_csv(AnalyzeConfig()).splitlines()
        assert lines[0] == "density,k,region,probability"
        assert len(lines) == 1 + 2 * 2 * 10

    def test_probabilities_printed_at_ten_significant_digits(self):
        lines = analyze_csv(AnalyzeConfig(densities=(0.0002,), k_max=3)).splitlines()
        quarter = [l for l in lines if ",quarter_circle," in l]
        mean = 0.0002 * math.pi * 250.0**2 / 4.0
        assert quarter[0].split(",")[3] == f"{prob_at_least_k(1, mean):.10g}"

    def test_monte_carlo_columns(self):
        csv_text = analyze_csv(AnalyzeConfig(densities=(0.0002,), k_max=2, mc_trials=2000))
        lines = csv_text.splitlines()
        assert lines[0] == "density,k,region,probability,mc_estimate,mc_stderr"
        assert all(len(line.split(",")) == 6 for line in lines[1:])

    def test_deterministic(self):
        config = AnalyzeConfig(densities=(0.0002, 0.0004), k_max=4, mc_trials=500, seed=9)
        assert analyze_csv(config) == analyze_csv(config)

    def test_row_ordering_and_k_column(self):
        rows = [line.split(",") for line in analyze_csv(
            AnalyzeConfig(densities=(0.0004, 0.0002), k_max=5)
        ).splitlines()[1:]]
        assert [r[0] for r in rows] == ["0.0002"] * 10 + ["0.0004"] * 10
        assert [r[2] for r in rows] == (["full_circle"] * 5 + ["quarter_circle"] * 5) * 2
        assert [r[1] for r in rows] == ["1", "2", "3", "4", "5"] * 4

    def test_probability_non_increasing_in_k(self):
        curves = {}
        for line in analyze_csv(AnalyzeConfig(densities=(0.0002, 0.0004))).splitlines()[1:]:
            density, _, region, prob = line.split(",")
            curves.setdefault((density, region), []).append(float(prob))
        assert len(curves) == 4
        for probs in curves.values():
            assert len(probs) == 10
            assert all(a >= b for a, b in zip(probs, probs[1:]))

    @pytest.mark.parametrize("mean", [0.05, 19.6, 39.3, 1e3, 3e4, 3.1e5])
    def test_carried_head_equals_prob_at_least_k(self, mean):
        # The table carries each curve's head upward exactly and rounds it
        # once per row, as the per-row fsum does, so every value keeps its
        # bits, up to the mean and on the tail rows just past it.
        top = math.floor(mean)
        k_max = top + 3
        column = list(feasibility._at_least_column(mean, k_max))
        assert len(column) == k_max
        if mean < 2000:
            ks = range(1, k_max + 1)
        else:  # a per-row re-sum costs O(k), so sample the rows at large means
            ks = {1, 2, top // 2, top - math.isqrt(9 * top), top - 1, top, top + 1, k_max}
        for k in sorted(ks):
            assert column[k - 1].hex() == prob_at_least_k(k, mean).hex(), k

    def test_k_max_validated(self):
        with pytest.raises(ValueError, match="k_max"):
            AnalyzeConfig(k_max=0).validate()
        with pytest.raises(ValueError, match="k_max"):
            analyze_csv(AnalyzeConfig(densities=(0.0002,), k_max=0))


class TestAnalyzeMonteCarlo:
    # k_max reaches past the largest count at the low density, where the
    # bincount is shorter than the k column.
    CONFIG = AnalyzeConfig(densities=(0.0004, 0.00005), k_max=25, mc_trials=3000, seed=4)

    def mc_columns(self):
        curves = {}
        for line in analyze_csv(self.CONFIG).splitlines()[1:]:
            density, k, region, _, estimate, stderr = line.split(",")
            curves.setdefault((float(density), RegionKind(region)), []).append(
                (int(k), estimate, stderr)
            )
        return curves

    def test_rows_equal_monte_carlo_at_least_k_with_the_curve_seed(self):
        curves = self.mc_columns()
        seeds = np.random.SeedSequence(self.CONFIG.seed).generate_state(2 * 2)
        assert list(curves) == [
            (density, region) for density in (0.00005, 0.0004) for region in RegionKind
        ]
        for seed, ((density, region), rows) in zip(seeds, curves.items()):
            for k, estimate, stderr in rows:
                params = FeasibilityParams(density, self.CONFIG.tx_range, k)
                est = monte_carlo_at_least_k(params, region, self.CONFIG.mc_trials, int(seed))
                assert (estimate, stderr) == (f"{est.estimate:.10g}", f"{est.stderr:.10g}")

    def test_estimate_never_rises_with_k(self):
        for rows in self.mc_columns().values():
            estimates = [float(estimate) for _, estimate, _ in rows]
            assert all(a >= b for a, b in zip(estimates, estimates[1:]))

    def test_tallies_do_not_grow_with_the_box(self):
        # 4,000,000 expected points per full-circle box; a tally of every count
        # up to the largest would hold some 3,100,000 entries per curve.
        config = AnalyzeConfig(densities=(1.0,), tx_range=1000.0, k_max=3, mc_trials=2)
        tracemalloc.start()
        try:
            lines = analyze_csv(config).splitlines()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(lines) == 1 + 6
        assert peak < 8_000_000

    def test_one_draw_per_density_and_region(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return region_counts(*args)

        monkeypatch.setattr(feasibility, "region_counts", counting)
        config = AnalyzeConfig(densities=(0.0001, 0.0002, 0.0004), k_max=10, mc_trials=200)
        analyze_csv(config)
        assert len(calls) == len(config.densities) * 2


class TestConcurrentDraws:
    """The curves of one table are drawn on several threads at once."""

    @pytest.mark.parametrize("densities", [(0.0002,), (0.0004, 0.0001, 0.0002)])
    def test_bytes_do_not_depend_on_the_worker_count(self, monkeypatch, densities):
        config = AnalyzeConfig(densities=densities, k_max=12, mc_trials=5000, seed=3)
        tables = []
        for cpus in (1, 3):
            monkeypatch.setattr(feasibility, "_usable_cpus", lambda: cpus)
            tables.append(analyze_csv(config))
        assert tables[0] == tables[1]

    def test_usable_cpus_without_an_affinity_call(self, monkeypatch):
        monkeypatch.delattr(feasibility.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(feasibility.os, "cpu_count", lambda: 5)
        assert feasibility._usable_cpus() == 5
        monkeypatch.setattr(feasibility.os, "cpu_count", lambda: None)
        assert feasibility._usable_cpus() == 1

    def test_each_curve_drawn_once_under_frequent_thread_switches(self, monkeypatch):
        # More workers than cores, switching threads every microsecond: a curve
        # taken twice or skipped by the shared iterator would show here.
        config = AnalyzeConfig(densities=tuple(1e-4 * (i + 1) for i in range(8)), mc_trials=300)
        serial = analyze_csv(config)
        drawn = []

        def counting(params, region, trials, seed):
            drawn.append((params.density, region))
            return region_counts(params, region, trials, seed)

        monkeypatch.setattr(feasibility, "region_counts", counting)
        monkeypatch.setattr(feasibility, "_usable_cpus", lambda: 6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            table = analyze_csv(config)
        finally:
            sys.setswitchinterval(interval)
        assert len(drawn) == len(set(drawn)) == 2 * len(config.densities)
        assert table == serial

    def test_memory_holds_one_draw_per_worker(self, monkeypatch):
        # Small blocks leave a draw's two per-trial arrays as its working set:
        # about 1.6 MB each, where the counts of all eight curves take 6.4 MB.
        monkeypatch.setattr(feasibility, "_BLOCK_POINTS", 4096)
        config = AnalyzeConfig(
            densities=(0.01, 0.015, 0.02, 0.025), tx_range=10.0, k_max=10, mc_trials=100_000
        )
        all_counts = 2 * len(config.densities) * config.mc_trials * 8
        tracemalloc.start()
        try:
            one_draw = 0
            for density in config.densities:
                for region in RegionKind:
                    tracemalloc.reset_peak()
                    params = FeasibilityParams(density, config.tx_range)
                    region_counts(params, region, config.mc_trials, 1)
                    one_draw = max(one_draw, tracemalloc.get_traced_memory()[1])
            for cpus in (1, 2, 3):
                monkeypatch.setattr(feasibility, "_usable_cpus", lambda: cpus)
                tracemalloc.reset_peak()
                analyze_csv(config)
                _, peak = tracemalloc.get_traced_memory()
                assert peak <= cpus * one_draw + 300_000 < all_counts, cpus
        finally:
            tracemalloc.stop()

    @staticmethod
    def fail_on_a_helper(monkeypatch, failure):
        """Make ``region_counts`` raise ``failure`` on the first curve a helper
        thread draws, and run the analysis on two workers; returns the
        arguments of every draw a helper began."""
        failed = []
        lock = threading.Lock()

        def draw(*args):
            if threading.current_thread() is threading.main_thread():
                time.sleep(0.05)  # leave the helper time to take a curve
            else:
                with lock:
                    first = not failed
                    failed.append(args)
                if first:
                    raise failure
            return region_counts(*args)

        monkeypatch.setattr(feasibility, "region_counts", draw)
        monkeypatch.setattr(feasibility, "_usable_cpus", lambda: 2)
        return failed

    def test_a_helper_failure_is_raised_by_analyze_csv(self, monkeypatch):
        failure = MemoryError("draw failed")
        failed = self.fail_on_a_helper(monkeypatch, failure)
        unhandled = []
        monkeypatch.setattr(threading, "excepthook", unhandled.append)
        threads = threading.active_count()
        with pytest.raises(MemoryError) as raised:
            analyze_csv(AnalyzeConfig(mc_trials=2000))
        assert raised.value is failure
        assert len(failed) == 1  # the failed helper took no further curve
        assert threading.active_count() == threads  # every helper has joined
        assert unhandled == []

    def test_a_helper_failure_is_a_cli_runtime_error(self, monkeypatch, capsys):
        self.fail_on_a_helper(monkeypatch, MemoryError("draw failed"))
        assert cli.main(["analyze", "--mc-trials", "2000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "runtime error: draw failed\n"


class TestAnalyzeConfigBounds:
    def test_readme_example_is_within_the_draw_bound(self):
        AnalyzeConfig(mc_trials=100_000).validate()

    def test_empty_densities_rejected(self):
        with pytest.raises(ValueError, match="densities must not be empty"):
            AnalyzeConfig(densities=()).validate()

    def test_draw_bound_names_mc_trials(self):
        box_points = 4.0 * 250.0**2 * 0.0004
        limit = int(MAX_DRAW_POINTS / (1.0 + box_points))
        AnalyzeConfig(mc_trials=limit).validate()
        for trials in (limit + 1, 10**12, 10**400):
            with pytest.raises(ValueError, match="mc_trials"):
                AnalyzeConfig(mc_trials=trials).validate()

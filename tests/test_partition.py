"""Dirichlet and partitioning tests: closed forms, sampler moments,
label-skew structure."""

import math
import time

import numpy as np
import pytest

from fedsparse.partition import _largest_remainder, _sample_proportions, partition_dataset
from oracles import DirichletParams, dirichlet_log_pdf, log_gamma, sample_dirichlet


class TestLogGamma:
    def test_against_stdlib_lanczos_budget(self):
        xs = np.concatenate([np.linspace(1e-3, 1.0, 500),
                             np.linspace(1.0, 1000.0, 2000)])
        for x in xs:
            assert abs(log_gamma(float(x)) - math.lgamma(float(x))) < 1e-10

    def test_small_integer_values(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-12)
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-1.5)


class TestLogPdf:
    def test_uniform_dirichlet_closed_form(self):
        # B(1,1,1) = 1/Gamma(3) = 1/2, so the density is 2 everywhere
        params = DirichletParams((1.0, 1.0, 1.0))
        for x in ([0.2, 0.3, 0.5], [1 / 3, 1 / 3, 1 / 3], [0.9, 0.05, 0.05]):
            assert dirichlet_log_pdf(params, x) == pytest.approx(math.log(2), abs=1e-9)

    def test_beta_2_2_closed_form(self):
        # B(2,2) = 1/6; density at (0.5, 0.5) is 6 * 0.25
        value = dirichlet_log_pdf(DirichletParams((2.0, 2.0)), [0.5, 0.5])
        assert value == pytest.approx(math.log(6 * 0.25), abs=1e-9)

    def test_rejects_off_simplex(self):
        params = DirichletParams((2.0, 2.0))
        with pytest.raises(ValueError):
            dirichlet_log_pdf(params, [0.6, 0.6])
        with pytest.raises(ValueError):
            dirichlet_log_pdf(params, [1.2, -0.2])

    def test_boundary_handling(self):
        # alpha > 1: zero coordinate has density zero (log -inf)
        assert dirichlet_log_pdf(DirichletParams((2.0, 2.0)), [1.0, 0.0]) == -math.inf
        # alpha = 1 terms drop out, boundary is fine
        assert dirichlet_log_pdf(DirichletParams((1.0, 1.0)), [1.0, 0.0]) == \
            pytest.approx(0.0, abs=1e-12)
        # alpha < 1: boundary rejected (unbounded density)
        with pytest.raises(ValueError):
            dirichlet_log_pdf(DirichletParams((0.5, 0.5)), [1.0, 0.0])

    def test_density_integrates_to_one(self):
        """Monte Carlo over uniform simplex draws: E[f / uniform] = 1."""
        params = DirichletParams((2.0, 3.0, 4.0))
        uniform = DirichletParams((1.0, 1.0, 1.0))
        rng = np.random.default_rng(77)
        n = 100000
        draws = np.array([_sample_proportions(uniform.alpha, rng) for _ in range(n)])
        log_u = math.log(2.0)  # uniform density on the 3-simplex
        weights = [math.exp(dirichlet_log_pdf(params, x) - log_u) for x in draws]
        assert np.mean(weights) == pytest.approx(1.0, abs=0.02)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DirichletParams((1.0,))
        with pytest.raises(ValueError):
            DirichletParams((1.0, 0.0))
        with pytest.raises(ValueError):
            DirichletParams((1.0, -2.0))


class TestSampler:
    def test_sums_to_one(self):
        params = DirichletParams((0.4, 1.3, 2.2, 5.0))
        for seed in range(200):
            x = sample_dirichlet(params, seed)
            assert abs(x.sum() - 1.0) < 1e-12
            assert np.all(x >= 0)

    def test_deterministic_given_seed(self):
        params = DirichletParams((1.0, 2.0))
        assert np.array_equal(sample_dirichlet(params, 9), sample_dirichlet(params, 9))

    def test_symmetric_means(self):
        params = DirichletParams((1.0, 1.0, 1.0))
        rng = np.random.default_rng(5)
        draws = np.array([_sample_proportions(params.alpha, rng) for _ in range(30000)])
        assert np.all(np.abs(draws.mean(axis=0) - 1 / 3) < 0.01)

    def test_asymmetric_means_match_alpha_over_total(self):
        alpha = (2.0, 3.0, 5.0)
        rng = np.random.default_rng(6)
        draws = np.array([_sample_proportions(alpha, rng) for _ in range(30000)])
        expected = np.array(alpha) / sum(alpha)
        assert np.all(np.abs(draws.mean(axis=0) - expected) < 0.01)

    def test_small_shape_boost_path(self):
        # alpha < 1 exercises the u^(1/a) boost; means must still match
        alpha = (0.3, 0.3, 0.3)
        rng = np.random.default_rng(7)
        draws = np.array([_sample_proportions(alpha, rng) for _ in range(30000)])
        assert np.all(np.abs(draws.mean(axis=0) - 1 / 3) < 0.01)

    def test_large_alpha_concentrates(self):
        params = DirichletParams((1000.0, 1000.0))
        for seed in range(100):
            x = sample_dirichlet(params, seed)
            assert abs(x[0] - 0.5) < 0.05


def balanced_labels(classes=3, per_class=100):
    return np.repeat(np.arange(classes), per_class)


class TestPartitioning:
    def test_single_client_gets_everything(self):
        labels = balanced_labels()
        parts = partition_dataset(labels, 1, 0.5, rng_seed=0)
        assert len(parts) == 1
        assert np.array_equal(parts[0].sample_indices, np.arange(300))
        assert len(parts[0]) == 300

    @pytest.mark.parametrize("alpha", [1e-5, 0.3, 1e3])
    def test_single_client_gets_every_index_sorted(self, alpha):
        labels = np.random.default_rng(4).integers(0, 4, size=50)
        parts = partition_dataset(labels, 1, alpha, rng_seed=1)
        assert len(parts) == 1
        assert np.array_equal(parts[0].sample_indices, np.arange(50))

    def test_disjoint_cover_and_sizes(self):
        labels = balanced_labels()
        parts = partition_dataset(labels, 3, 0.3, rng_seed=1)
        all_idx = np.concatenate([p.sample_indices for p in parts])
        assert sorted(all_idx) == list(range(300))
        assert len(set(all_idx)) == 300
        for p in parts:
            assert len(p) > 0
        # aggregation weighs each client by len(p) / 300
        assert sum(len(p) for p in parts) == 300

    def test_huge_alpha_balances(self):
        labels = balanced_labels(3, 300)
        parts = partition_dataset(labels, 3, 1e6, rng_seed=2)
        for p in parts:
            assert abs(len(p) - 300) <= 3
            counts = np.bincount(labels[p.sample_indices], minlength=3)
            assert np.all(np.abs(counts - len(p) / 3) <= 3)

    def test_shares_match_recorded_draws(self):
        """Recompute the per-class draws from the seed; counts must sit
        within one sample of each drawn quota (largest remainder)."""
        labels = balanced_labels(3, 100)
        seed = 123
        parts = partition_dataset(labels, 3, 0.3, rng_seed=seed)
        rng = np.random.default_rng(seed)
        for cls in range(3):
            props = _sample_proportions((0.3,) * 3, rng)
            rng.permutation(np.flatnonzero(labels == cls))  # keep streams aligned
            for cid in range(3):
                got = np.sum(labels[parts[cid].sample_indices] == cls)
                # empty-client repair can move at most a few samples
                assert abs(got - props[cid] * 100) <= 2

    def test_deterministic(self):
        labels = balanced_labels()
        a = partition_dataset(labels, 3, 0.3, rng_seed=7)
        b = partition_dataset(labels, 3, 0.3, rng_seed=7)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.sample_indices, pb.sample_indices)

    def test_empty_repair_keeps_all_clients_nonempty(self):
        labels = balanced_labels(2, 10)
        for seed in range(30):
            parts = partition_dataset(labels, 8, 0.05, rng_seed=seed)
            assert all(len(p) > 0 for p in parts)
            total = sum(len(p) for p in parts)
            assert total == 20

    def test_errors(self):
        with pytest.raises(ValueError):
            partition_dataset(np.array([0, 1]), 3, 0.5, rng_seed=0)
        with pytest.raises(ValueError):
            partition_dataset(balanced_labels(), 0, 0.5, rng_seed=0)
        for alpha in (0.0, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=r"^alpha must be finite and > 0$"):
                partition_dataset(balanced_labels(), 2, alpha, rng_seed=0)

    def test_tiny_alpha_stops_at_the_variate_cap(self):
        """Every Gamma draw underflows to 0 at alpha 1e-300; the redraws
        stop after the variate cap with an error naming alpha."""
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^alpha: 1e-300 is too small"):
            partition_dataset(balanced_labels(), 3, 1e-300, rng_seed=0)
        assert time.perf_counter() - start < 1.0

    def test_heterogeneity_decreases_with_alpha(self):
        """Mean max-client TV distance to the global label mix is larger
        at alpha = 0.3 than at alpha = 0.6 (50 seeds)."""
        labels = balanced_labels(3, 100)
        global_dist = np.bincount(labels, minlength=3) / labels.shape[0]

        def mean_max_tv(alpha):
            values = []
            for seed in range(50):
                parts = partition_dataset(labels, 3, alpha, rng_seed=seed)
                tvs = []
                for p in parts:
                    dist = np.bincount(labels[p.sample_indices], minlength=3) / len(p)
                    tvs.append(0.5 * np.abs(dist - global_dist).sum())
                values.append(max(tvs))
            return float(np.mean(values))

        assert mean_max_tv(0.3) > mean_max_tv(0.6)


class TestLargestRemainder:
    def test_exact_quotas(self):
        assert list(_largest_remainder(np.array([2.0, 3.0, 5.0]), 10)) == [2, 3, 5]

    def test_remainder_ties_go_to_lower_index(self):
        assert list(_largest_remainder(np.array([1.5, 1.5, 1.0]), 4)) == [2, 1, 1]

    def test_sums_match(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            props = rng.dirichlet(np.ones(5))
            total = int(rng.integers(1, 500))
            counts = _largest_remainder(props * total, total)
            assert counts.sum() == total
            assert np.all(counts >= 0)
            assert np.all(np.abs(counts - props * total) < 1.0)

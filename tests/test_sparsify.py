"""Sparsifier tests: brute-force oracles, cardinality, selection properties."""

import importlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsparse.sparsify import (SparseUpdate, SparsityPolicy, densify,
                                retained_count, sparsify)


def top_k(v, rate):
    return sparsify(v, SparsityPolicy("top_k", rate=rate))


def threshold(v, tau):
    return sparsify(v, SparsityPolicy("threshold", tau=tau))


def random_subset(v, rate, rng_seed):
    return sparsify(v, SparsityPolicy("random", rate=rate), rng_seed)


def sort_oracle_indices(v, m):
    """Reference top-k: stable magnitude-descending full sort, first m positions."""
    order = sorted(range(len(v)), key=lambda j: (-abs(v[j]), j))
    return sorted(order[:m])


def lexsort_oracle_indices(v, m):
    """Vectorised form of sort_oracle_indices for large d."""
    return np.sort(np.lexsort((np.arange(len(v)), -np.abs(v)))[:m])


finite_vectors = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64),
    min_size=1, max_size=64,
).map(np.array)

# Few distinct magnitudes, so most cuts fall inside a block of ties.
tie_heavy_vectors = st.lists(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 3.0, np.inf, -np.inf]),
    min_size=1, max_size=64,
).map(np.array)


class TestRetainedCount:
    def test_documented_rule(self):
        assert retained_count(0.5, 4) == 2
        assert retained_count(0.25, 10) == 3  # ceil(2.5)
        assert retained_count(1.0, 7) == 7
        assert retained_count(1e-9, 5) == 1  # floor of one entry

    def test_decimal_rates_do_not_round_up(self):
        # 0.1 * 1000 and 0.2 * 100 are slightly above the integer in binary
        assert retained_count(0.1, 1000) == 100
        assert retained_count(0.2, 100) == 20
        assert retained_count(0.3, 10) == 3

    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            retained_count(0.0, 10)
        with pytest.raises(ValueError):
            retained_count(1.5, 10)


class TestTopK:
    def test_forced_magnitude_order(self):
        keep = top_k(np.array([0.5, -2.0, 0.1, 1.5]), 0.5)
        assert list(keep) == [1, 3]
        assert keep.dtype == np.int64

    def test_full_rate_round_trips(self):
        v = np.random.default_rng(0).standard_normal(17)
        keep = top_k(v, 1.0)
        assert len(keep) == 17
        assert np.array_equal(densify(SparseUpdate(17, keep, v[keep])), v)

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(42)
        v = rng.standard_normal(1000)
        assert list(top_k(v, 0.1)) == sort_oracle_indices(v, 100)

    def test_magnitude_ties_break_low_index(self):
        assert list(top_k(np.array([1.0, -1.0, 1.0]), 0.6)) == [0, 1]  # m = 2

    @pytest.mark.parametrize("v, m, tie_at_cut", [
        ([3.0, -3.0, 1.0, 0.5], 2, False),       # tie above the cut only
        ([0.5, -2.0, 0.1, 1.5, 0.0], 1, False),
        ([0.25, -4.0, 2.0, -1.0, 4.0], 3, False),
        ([2.0, 1.0, -1.0, 1.0, 0.0], 2, True),   # three entries tie at the cut
        ([1.0, -1.0, 1.0, -1.0], 3, True),       # every entry ties
        ([0.0, 5.0, -0.0, 0.0, 0.0], 2, True),   # +0.0 and -0.0 tie at the cut
        ([np.inf, -np.inf, 1.0], 1, True),
    ])
    def test_with_and_without_tie_at_cut(self, v, m, tie_at_cut):
        # |v| >= kth holds for exactly m entries unless a tie straddles the cut
        v = np.array(v)
        kth = np.sort(np.abs(v))[len(v) - m]
        assert (np.count_nonzero(np.abs(v) >= kth) > m) == tie_at_cut
        assert np.array_equal(top_k(v, m / len(v)), lexsort_oracle_indices(v, m))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="NaN"):
            top_k(np.array([1.0, np.nan]), 0.5)
        with pytest.raises(ValueError, match="nonempty 1-d"):
            top_k(np.array([]), 0.5)
        with pytest.raises(ValueError, match="nonempty 1-d"):
            top_k(np.ones((2, 2)), 0.5)

    @given(finite_vectors, st.floats(0.01, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_cardinality_and_oracle_property(self, v, rate):
        keep = top_k(v, rate)
        m = retained_count(rate, len(v))
        assert len(keep) == m
        assert list(keep) == sort_oracle_indices(v, m)

    @given(tie_heavy_vectors)
    @settings(max_examples=200, deadline=None)
    def test_tie_heavy_matches_oracle_at_every_count(self, v):
        d = len(v)
        for m in range(1, d + 1):
            assert retained_count(m / d, d) == m
            assert list(top_k(v, m / d)) == sort_oracle_indices(v, m)

    def test_wide_vector_cut_inside_tie_block(self):
        rng = np.random.default_rng(11)
        d = 82_890
        # ~2000 entries per magnitude step, plus 300 larger distinct entries
        v = rng.integers(-40, 41, size=d) * 0.25
        v[rng.choice(d, size=300, replace=False)] = 20.0 + rng.standard_normal(300)
        v[:2] = [np.inf, -np.inf]
        m = retained_count(0.01, d)
        mag = np.sort(np.abs(v))[::-1]
        kth = mag[m - 1]
        assert np.count_nonzero(mag > kth) < m < np.count_nonzero(mag >= kth)
        assert np.array_equal(top_k(v, 0.01), lexsort_oracle_indices(v, m))

    @given(finite_vectors, st.floats(0.01, 1.0), st.integers(-10, 10))
    @settings(max_examples=100, deadline=None)
    def test_scale_equivariant_selection(self, v, rate, exponent):
        # power-of-two scales are exact, so magnitude order is preserved
        # even for vectors with near-tied entries
        scaled = top_k(float(2.0 ** exponent) * v, rate)
        assert np.array_equal(top_k(v, rate), scaled)

    def test_scale_equivariance_nontrivial_factor(self):
        v = np.array([3.0, -7.5, 0.25, 5.0, -1.0])
        for c in (0.1, 3.7, 250.0):
            assert np.array_equal(top_k(v, 0.4), top_k(c * v, 0.4))

    def test_norm_dominance_exhaustive(self):
        """Top-k maximizes retained L2 norm over all m-subsets (d <= 12)."""
        rng = np.random.default_rng(7)
        for d, m in ((8, 3), (12, 5), (10, 1)):
            v = rng.standard_normal(d)
            keep = top_k(v, m / d)
            assert len(keep) == m
            kept = np.sum(v[keep] ** 2)
            best = max(sum(v[list(s)] ** 2)
                       for s in itertools.combinations(range(d), m))
            assert kept == pytest.approx(best, rel=1e-12)


class TestThreshold:
    def test_boundary_inclusive(self):
        assert list(threshold(np.array([0.05, -0.3, 0.2]), 0.2)) == [1, 2]

    def test_zero_tau_keeps_all(self):
        v = np.array([0.0, -1.0, 2.0])
        assert list(threshold(v, 0.0)) == [0, 1, 2]

    def test_may_keep_nothing(self):
        keep = threshold(np.array([0.1, -0.1]), 5.0)
        assert len(keep) == 0
        assert np.array_equal(densify(SparseUpdate(2, keep, [])), np.zeros(2))

    @given(finite_vectors, st.floats(0.0, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_linear_scan_oracle(self, v, tau):
        expected = [j for j in range(len(v)) if abs(v[j]) >= tau]
        assert list(threshold(v, tau)) == expected


class TestRandom:
    def test_full_rate_identity(self):
        v = np.random.default_rng(3).standard_normal(9)
        assert list(random_subset(v, 1.0, rng_seed=5)) == list(range(9))

    def test_same_seed_same_subset(self):
        v = np.random.default_rng(4).standard_normal(50)
        a = random_subset(v, 0.3, rng_seed=11)
        b = random_subset(v, 0.3, rng_seed=11)
        assert np.array_equal(a, b)

    def test_uniform_index_frequency(self):
        """Each index retained with frequency K +/- 0.02 over many draws."""
        d, draws = 100, 10000
        v = np.ones(d)
        counts = np.zeros(d)
        for s in range(draws):
            keep = random_subset(v, 0.2, rng_seed=s)
            assert len(keep) == 20
            counts[keep] += 1
        freq = counts / draws
        assert np.all(np.abs(freq - 0.2) < 0.02)

    def test_values_match_positions(self):
        # the seeded sorted choice, independent of the vector's values
        v = np.arange(10.0)
        keep = random_subset(v, 0.4, rng_seed=2)
        expected = np.sort(np.random.default_rng(2).choice(10, size=4, replace=False))
        assert np.array_equal(keep, expected)
        assert np.array_equal(random_subset(-v, 0.4, rng_seed=2), keep)


class TestDensifyAndContainer:
    def test_empty_update(self):
        assert np.array_equal(densify(SparseUpdate(4, [], [])), np.zeros(4))

    def test_single_entry(self):
        assert np.array_equal(densify(SparseUpdate(3, [1], [2.5])),
                              np.array([0.0, 2.5, 0.0]))

    def test_nonzeros_only_at_retained(self):
        v = np.array([3.0, -1.0, 0.5, 2.0])
        keep = top_k(v, 0.5)
        dense = densify(SparseUpdate(4, keep, v[keep]))
        mask = np.zeros(4, dtype=bool)
        mask[keep] = True
        assert np.all(dense[~mask] == 0.0)
        assert np.array_equal(dense[mask], v[mask])

    @staticmethod
    def min_max_diff_rule(dim, indices):
        """The container's index rule as min/max/np.diff: the range error
        before the order error, message or None."""
        i = np.asarray(indices, dtype=np.int64)
        if i.size:
            if i.min() < 0 or i.max() >= dim:
                return "indices must lie in [0, dim)"
            if np.any(np.diff(i) <= 0):
                return "indices must be strictly increasing"
        return None

    index_lists = st.lists(st.integers(-3, 12), max_size=8)

    @given(st.integers(0, 10),
           st.one_of(index_lists, index_lists.map(lambda i: sorted(set(i))),
                     index_lists.map(sorted)))
    @settings(max_examples=400, deadline=None)
    def test_index_checks_match_min_max_diff_rule(self, dim, indices):
        expected = self.min_max_diff_rule(dim, indices)
        try:
            SparseUpdate(dim, indices, np.zeros(len(indices)))
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == expected

    def test_container_validation(self):
        with pytest.raises(ValueError):
            SparseUpdate(4, [0, 4], [1.0, 2.0])  # index >= dim
        with pytest.raises(ValueError):
            SparseUpdate(4, [2, 1], [1.0, 2.0])  # not increasing
        with pytest.raises(ValueError):
            SparseUpdate(4, [1, 1], [1.0, 2.0])  # duplicate
        with pytest.raises(ValueError):
            SparseUpdate(4, [1], [1.0, 2.0])  # length mismatch


class TestPolicyDispatch:
    def test_dispatch_matches_direct_calls(self):
        """Each kind's indices equal its rule written out directly."""
        v = np.random.default_rng(8).standard_normal(20)
        cases = [
            (SparsityPolicy("top_k", rate=0.25), lexsort_oracle_indices(v, 5)),
            (SparsityPolicy("threshold", tau=0.5), np.flatnonzero(np.abs(v) >= 0.5)),
            (SparsityPolicy("random", rate=0.25),
             np.sort(np.random.default_rng(9).choice(20, size=5, replace=False))),
            (SparsityPolicy("dense"), np.arange(20)),
        ]
        for policy, expected in cases:
            keep = sparsify(v, policy, rng_seed=9)
            assert keep.dtype == np.int64
            assert np.array_equal(keep, expected)

    def test_random_requires_seed(self):
        with pytest.raises(ValueError, match="random policy needs an rng_seed"):
            sparsify(np.ones(3), SparsityPolicy("random", rate=0.5))


def test_submodule_not_hidden_by_function():
    import fedsparse.sparsify as by_import
    from fedsparse import sparsify as by_from
    module = importlib.import_module("fedsparse.sparsify")
    assert by_import is module
    assert by_from is module

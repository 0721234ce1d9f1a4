import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l0bfs.linalg import spectral_norm, top_norm, truncate_top

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)
vectors = st.lists(finite_floats, min_size=1, max_size=12).map(np.array)
# integer-valued entries force exact magnitude ties
tie_vectors = st.lists(st.integers(-3, 3).map(float),
                       min_size=1, max_size=10).map(np.array)


def oracle_truncate(j, z):
    """Keep-largest-magnitude by explicit (-|z|, index) lexicographic sort."""
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    if j <= 0:
        return out
    ranked = sorted(range(z.size), key=lambda i: (-abs(z[i]), i))
    keep = ranked[:min(j, z.size)]
    out[keep] = z[keep]
    return out


class TestTruncateTop:
    def test_keeps_all_when_budget_exceeds_dim(self):
        np.testing.assert_array_equal(truncate_top(3, [1.0, -2.0]), [1.0, -2.0])

    def test_single_largest_magnitude(self):
        np.testing.assert_array_equal(truncate_top(1, [3.0, -5.0, 1.0]),
                                      [0.0, -5.0, 0.0])

    def test_tie_within_budget_keeps_both(self):
        np.testing.assert_array_equal(truncate_top(2, [2.0, -2.0, 1.0]),
                                      [2.0, -2.0, 0.0])

    def test_tie_across_budget_prefers_smaller_index(self):
        np.testing.assert_array_equal(truncate_top(1, [-2.0, 2.0]), [-2.0, 0.0])

    def test_zero_budget(self):
        np.testing.assert_array_equal(truncate_top(0, [1.0, 2.0]), [0.0, 0.0])

    @given(vectors, st.integers(0, 14))
    def test_matches_sort_oracle(self, z, j):
        np.testing.assert_array_equal(truncate_top(j, z), oracle_truncate(j, z))

    @given(tie_vectors, st.integers(0, 10))
    def test_matches_sort_oracle_under_ties(self, z, j):
        np.testing.assert_array_equal(truncate_top(j, z), oracle_truncate(j, z))

    @given(vectors, st.integers(0, 14))
    def test_idempotent(self, z, j):
        once = truncate_top(j, z)
        np.testing.assert_array_equal(truncate_top(j, once), once)

    @given(vectors, st.integers(0, 14))
    def test_sparsity_and_entry_preservation(self, z, j):
        out = truncate_top(j, z)
        nz = np.flatnonzero(out)
        assert nz.size <= j
        np.testing.assert_array_equal(out[nz], z[nz])

    def test_best_sparse_approximation_by_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            d = int(rng.integers(1, 9))
            z = rng.standard_normal(d)
            for j in range(d + 1):
                best = truncate_top(j, z)
                err = np.linalg.norm(z - best)
                for support in itertools.combinations(range(d), min(j, d)):
                    y = np.zeros(d)
                    y[list(support)] = z[list(support)]
                    assert err <= np.linalg.norm(z - y) + 1e-12

    def test_does_not_mutate_input(self):
        z = np.array([3.0, 1.0, 2.0])
        truncate_top(1, z)
        np.testing.assert_array_equal(z, [3.0, 1.0, 2.0])


class TestTopNorm:
    def test_full_norm(self):
        assert top_norm(2, [3.0, 4.0]) == pytest.approx(5.0)

    def test_largest_single(self):
        assert top_norm(1, [3.0, 4.0]) == pytest.approx(4.0)

    def test_empty_selection(self):
        assert top_norm(0, [3.0, 4.0]) == 0.0

    @given(vectors, st.integers(0, 14))
    def test_equals_norm_of_truncation(self, z, j):
        assert top_norm(j, z) == pytest.approx(
            float(np.linalg.norm(truncate_top(j, z))), abs=1e-9, rel=1e-12)

    @given(vectors, st.integers(1, 14))
    def test_bit_equal_to_numpy_norm_of_top_entries(self, z, j):
        # the top entries in the order np.partition leaves them, which is
        # the order top_norm sums their squares in
        top = z if j >= z.size else np.partition(np.abs(z), z.size - j)[z.size - j:]
        assert top_norm(j, z) == float(np.linalg.norm(top))

    @given(vectors)
    def test_nondecreasing_in_j_and_caps_at_full_norm(self, z):
        values = [top_norm(j, z) for j in range(z.size + 2)]
        # slack scales with magnitude: equal-value subsets may sum their
        # squares in different orders
        assert all(a <= b + 1e-12 * (1.0 + b) for a, b in zip(values, values[1:]))
        assert values[z.size] == pytest.approx(float(np.linalg.norm(z)))


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(2)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 2))) == 0.0

    @pytest.mark.parametrize("shape,seed", [
        ((10, 6), 0), ((6, 10), 1), ((12, 12), 2), ((1, 5), 3), ((7, 1), 4),
    ])
    def test_matches_svd_oracle(self, shape, seed):
        A = np.random.default_rng(seed).standard_normal(shape)
        expected = np.linalg.svd(A, compute_uv=False)[0]
        assert spectral_norm(A) == pytest.approx(expected, rel=1e-8)

    def test_rank_deficient(self):
        u = np.array([1.0, 2.0, -1.0])[:, None]
        v = np.array([0.5, -1.5])[None, :]
        A = u @ v
        expected = np.linalg.norm(u) * np.linalg.norm(v)
        assert spectral_norm(A) == pytest.approx(expected, rel=1e-8)

    def test_start_vector_in_nullspace_redraws(self):
        # A annihilates the all-ones start direction
        A = np.array([[1.0, -1.0]])
        assert spectral_norm(A) == pytest.approx(np.sqrt(2.0), rel=1e-8)

    @settings(max_examples=25)
    @given(st.integers(0, 10_000))
    def test_dominates_random_rayleigh_quotient(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((5, 4))
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        sigma = spectral_norm(A)
        assert np.linalg.norm(A @ v) <= sigma * (1.0 + 1e-8)

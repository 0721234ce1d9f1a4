import contextlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import numpy_prox_topk_sq
from l0bfs.linalg import top_norm
from l0bfs.topk_prox import prox_topk_sq, prox_topk_sq_conjugate


def objective(mu, k, v, x):
    return 0.5 * mu * top_norm(k, x) ** 2 + 0.5 * float(np.sum((x - v) ** 2))


def brute_force_prox(mu, k, v):
    """Reference minimizer: evaluate every (block start, block end) pair.

    The minimizer on sorted magnitudes is known to shrink a prefix, hold a
    middle block constant, and keep a suffix; this tries all O(k d) block
    placements plus the no-block candidate and returns the best by direct
    objective evaluation.  No prefix sums, no pruned scan.
    """
    v = np.asarray(v, dtype=float)
    d = v.size
    k = min(k, d)
    signs = np.where(v >= 0, 1.0, -1.0)
    order = np.argsort(-np.abs(v), kind="stable")
    u = np.abs(v)[order]

    def assemble(parts):
        x_sorted = np.concatenate(parts) if parts else np.array([])
        out = np.empty(d)
        out[order] = x_sorted
        return out * signs

    candidates = [assemble([u[:k] / (1.0 + mu), u[k:]])]
    for js in range(1, k + 1):
        for je in range(k, d + 1):
            block = u[js - 1:je]
            xi = np.sum(block) / (mu * (k - js + 1) + je - js + 1)
            lo = u[je] if je < d else 0.0
            hi = u[js - 2] / (1.0 + mu) if js >= 2 else np.inf
            xi = min(max(xi, lo), hi)
            candidates.append(assemble([
                u[:js - 1] / (1.0 + mu),
                np.full(je - js + 1, xi),
                u[je:],
            ]))
    values = [objective(mu, k, v, c) for c in candidates]
    return candidates[int(np.argmin(values))]


class TestHandCases:
    def test_full_norm_is_plain_shrink(self):
        np.testing.assert_allclose(prox_topk_sq(1.0, 2, [4.0, -2.0]),
                                   [2.0, -1.0])

    def test_early_branch(self):
        np.testing.assert_allclose(prox_topk_sq(1.0, 1, [10.0, 1.0]),
                                   [5.0, 1.0])

    def test_straddling_block(self):
        np.testing.assert_allclose(prox_topk_sq(1.0, 1, [2.0, 1.9, 0.1]),
                                   [1.3, 1.3, 0.1])

    def test_zero_vector(self):
        np.testing.assert_array_equal(prox_topk_sq(2.0, 1, np.zeros(4)),
                                      np.zeros(4))

    def test_k_zero_returns_copy(self):
        v = np.array([3.0, -1.0])
        out = prox_topk_sq(1.0, 0, v)
        np.testing.assert_array_equal(out, v)
        assert out is not v

    def test_k_above_dim_treated_as_dim(self):
        v = np.array([4.0, -2.0])
        np.testing.assert_allclose(prox_topk_sq(1.0, 5, v),
                                   prox_topk_sq(1.0, 2, v))

    def test_rejects_nonpositive_mu(self):
        with pytest.raises(ValueError):
            prox_topk_sq(0.0, 1, [1.0])

    @pytest.mark.parametrize("k,v", [
        (1, [1.0, np.nan, 3.0]), (1, [np.nan, 1.0]), (2, [1.0, np.nan]),
        (2, [1.0, 3.0, np.nan, 2.0]), (1, [1.0, 3.0, np.nan, 2.0])])
    def test_rejects_nan_in_v(self, k, v):
        # it gave [inf, nan, 3] for the first v, "min() arg is an empty
        # sequence" for the second and [1, 1.5, nan, 2] for the last, where
        # the top k only shrink
        with pytest.raises(ValueError, match="NaN"):
            prox_topk_sq(1.0, k, v)

    @pytest.mark.parametrize("mu", [np.nan, np.inf])
    def test_rejects_nan_and_infinite_mu(self, mu):
        with pytest.raises(ValueError):
            prox_topk_sq(mu, 1, [1.0, 2.0])


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_cases(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 12))
        k = int(rng.integers(1, d + 1))
        mu = float(rng.uniform(0.05, 20.0))
        v = 3.0 * rng.standard_normal(d)
        np.testing.assert_allclose(prox_topk_sq(mu, k, v),
                                   brute_force_prox(mu, k, v),
                                   atol=1e-10)

    @pytest.mark.parametrize("seed", range(20))
    def test_near_tie_cases(self, seed):
        # magnitudes clustered around the k-th position stress the scan
        rng = np.random.default_rng(100 + seed)
        d = int(rng.integers(2, 10))
        k = int(rng.integers(1, d + 1))
        mu = float(rng.uniform(0.1, 5.0))
        v = rng.choice([-1.0, 1.0], size=d) * (1.0 + 1e-3 * rng.standard_normal(d))
        np.testing.assert_allclose(prox_topk_sq(mu, k, v),
                                   brute_force_prox(mu, k, v),
                                   atol=1e-10)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_seeded_cases(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 9))
        k = int(rng.integers(1, d + 1))
        mu = float(rng.uniform(0.01, 50.0))
        v = 2.0 * rng.standard_normal(d)
        impl = prox_topk_sq(mu, k, v)
        ref = brute_force_prox(mu, k, v)
        assert objective(mu, k, v, impl) <= objective(mu, k, v, ref) + 1e-12


def draw_vector(family, rng, d):
    if family == "gaussian":
        return rng.standard_normal(d) * 10.0 ** rng.uniform(-3.0, 3.0)
    if family == "integer":  # exact ties and zeros
        return rng.integers(-3, 4, size=d).astype(float)
    if family == "signed_zeros":
        return rng.choice([0.0, -0.0, 1.0, -1.0, 2.5, -2.5], size=d)
    if family == "repeated":  # a few magnitudes, each with both signs
        mags = rng.uniform(0.1, 3.0, size=int(rng.integers(1, 4)))
        return rng.choice(mags, size=d) * rng.choice([-1.0, 1.0], size=d)
    return np.round(rng.standard_normal(d), 1)  # near and exact ties


FAMILIES = ["gaussian", "integer", "signed_zeros", "repeated", "rounded"]


class TestAgainstNumpyReference:
    """Bit-level agreement with the frozen numpy scan in tests/helpers.py,
    which keeps the candidate of least objective: the scan stops at that
    candidate, the first whose block meets the optimality conditions."""

    @staticmethod
    def check(family, rng, draws, dims, small_k=0.0):
        """Compare draws vectors of family with sizes in range(*dims); with
        probability small_k, k is drawn from 1..8 as on planted tails."""
        seen = {"d=1": 0, "k=d": 0, "k>d": 0, "scan": 0}
        for _ in range(draws):
            d = int(rng.integers(*dims))
            k = int(rng.integers(1, 9) if small_k and rng.random() < small_k
                    else rng.integers(1, d + 3))
            mu = float(10.0 ** rng.uniform(-4.0, 4.0))
            v = draw_vector(family, rng, d)
            out, count = prox_topk_sq(mu, k, v, with_count=True)
            ref, _, ref_position = numpy_prox_topk_sq(mu, k, v)
            assert out.tobytes() == ref.tobytes(), (mu, k, v.tolist())
            assert count == ref_position, (mu, k, v.tolist())
            seen["d=1"] += d == 1
            seen["k=d"] += k == d
            seen["k>d"] += k > d
            seen["scan"] += count > 0
        return seen

    @pytest.mark.parametrize("seed,family", enumerate(FAMILIES))
    def test_output_bytes_and_candidate_count(self, seed, family):
        seen = self.check(family, np.random.default_rng(500 + seed), 4000,
                          (1, 31))
        assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize("seed,family", enumerate(FAMILIES))
    def test_output_bytes_at_planted_sizes(self, seed, family):
        # planted tails reach d = 100, and the head the prox changes ends
        # well before the last rank there
        seen = self.check(family, np.random.default_rng(600 + seed), 300,
                          (31, 121), small_k=0.5)
        del seen["d=1"]
        assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize("seed,family", enumerate(FAMILIES))
    def test_conjugate_output_bytes(self, seed, family):
        # Moreau's identity on the reference, entry by entry on floats
        rng = np.random.default_rng(700 + seed)
        for _ in range(600):
            d = int(rng.integers(1, 121))
            k = int(rng.integers(1, 9) if rng.random() < 0.5
                    else rng.integers(1, d + 3))
            alpha = float(10.0 ** rng.uniform(-3.0, 3.0))
            lam = float(10.0 ** rng.uniform(-3.0, 3.0))
            v = draw_vector(family, rng, d)
            p = numpy_prox_topk_sq(1.0 / (lam * alpha), k, v / alpha)[0]
            want = np.array([x - alpha * q for x, q in zip(v, p)])
            out = prox_topk_sq_conjugate(alpha, k, v, lam)
            assert out.tobytes() == want.tobytes(), (alpha, k, lam, v.tolist())


class TestOptimality:
    def test_directional_slack(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            d = int(rng.integers(1, 30))
            k = int(rng.integers(1, d + 1))
            mu = float(rng.uniform(0.05, 10.0))
            v = 2.0 * rng.standard_normal(d)
            x = prox_topk_sq(mu, k, v)
            base = objective(mu, k, v, x)
            for _ in range(20):
                r = rng.standard_normal(d)
                r /= np.linalg.norm(r)
                for eps in (1e-4, 1e-5):
                    assert objective(mu, k, v, x + eps * r) >= base - 1e-10

    def test_block_meets_optimality_conditions(self):
        # xi is the k-th largest output magnitude and [js, je] the positions
        # (1-based, in |v| order) whose output equals it; in exact arithmetic
        # u_{je+1} <= xi <= u_{js-1}/(1+mu), u_js/(1+mu) <= xi <= u_je, and
        # the block sums to xi (mu (k - js + 1) + je - js + 1)
        rng = np.random.default_rng(4)
        for _ in range(400):
            d = int(rng.integers(1, 30))
            k = int(rng.integers(1, d + 1))
            mu = float(10.0 ** rng.uniform(-3.0, 3.0))
            v = rng.standard_normal(d)
            order = np.argsort(-np.abs(v), kind="stable")
            u = np.abs(v)[order]
            x = np.abs(prox_topk_sq(mu, k, v))[order]
            xi = x[k - 1]
            block = np.flatnonzero(x == xi)
            js, je = block[0] + 1, block[-1] + 1
            assert np.array_equal(block, np.arange(js - 1, je))
            U = np.concatenate(([np.inf], u, [0.0]))
            Ubar = np.concatenate(([np.inf], u[:k] / (1.0 + mu)))
            tol = 1e-12 * u[0]
            assert U[je + 1] <= xi + tol and xi <= Ubar[js - 1] + tol
            assert Ubar[js] <= xi + tol and xi <= U[je] + tol
            np.testing.assert_allclose(
                u[js - 1:je].sum(), xi * (mu * (k - js + 1) + je - js + 1),
                rtol=1e-12, atol=1e-300)
            np.testing.assert_allclose(x[:js - 1], Ubar[1:js], rtol=1e-15)
            np.testing.assert_array_equal(x[je:], u[je:])


class TestScale:
    """prox(mu, k, s v) / s equals prox(mu, k, v) at scales where squares
    of the entries overflow or underflow and where their sums overflow."""

    CASES = [
        (1.0, 1, [3.0, -2.9, 1.0]),
        (2.0, 5, [0.0, 4.0, 0.0, 0.0, -4.0, -2.0, 2.0, 1.0, 4.0, -4.0]),
        # rounding leaves no candidate block consistent at 1e-300 and 1e154
        (2.0, 4, [4.0, 1.0, -1.0, 2.0, -2.0, 3.0, -4.0]),
        (1.5, 7, [-3.0, -2.0, 1.0, 3.0, -1.0, -2.0, -3.0, -2.0, -4.0, -4.0]),
    ]

    @pytest.mark.parametrize("scale", [1e154, 1e300, 1e-300, 4e307])
    @pytest.mark.parametrize("mu,k,v", CASES)
    def test_scaled_input_scales_output(self, mu, k, v, scale):
        v = np.array(v)
        np.testing.assert_allclose(prox_topk_sq(mu, k, scale * v) / scale,
                                   prox_topk_sq(mu, k, v), rtol=1e-12)

    def test_finite_output_for_finite_input(self):
        rng = np.random.default_rng(5)
        for _ in range(2000):
            d = int(rng.integers(1, 20))
            k = int(rng.integers(1, d + 1))
            mu = float(10.0 ** rng.uniform(-300.0, 300.0))
            v = rng.integers(-4, 5, size=d) * 10.0 ** rng.uniform(-320.0, 307.0)
            assert np.all(np.isfinite(prox_topk_sq(mu, k, v))), (mu, k, v)


def fraction_prox_topk_sq(mu, k, v):
    """The prox in exact arithmetic: the block (js, je) whose xi meets the
    optimality conditions, tried in every placement, on Fractions."""
    mu, d = Fraction(mu), len(v)
    k = min(k, d)
    order = sorted(range(d), key=lambda i: -abs(v[i]))
    u = [abs(Fraction(v[i])) for i in order]
    U = [None] + u + [Fraction(0)]          # 1-based, U[d+1] = 0
    Ubar = [None] + [x / (1 + mu) for x in u[:k]]
    if Ubar[k] >= U[k + 1]:
        x_sorted = Ubar[1:] + u[k:]
    else:
        x_sorted = next(
            Ubar[1:js] + [xi] * (je - js + 1) + u[je:]
            for js in range(1, k + 1) for je in range(k, d + 1)
            for xi in [sum(u[js - 1:je]) / (mu * (k - js + 1) + je - js + 1)]
            if U[je + 1] <= xi <= U[je] and Ubar[js] <= xi
            and (js == 1 or xi <= Ubar[js - 1]))
    out = [Fraction(0)] * d
    for i, x in zip(order, x_sorted):
        out[i] = x if v[i] >= 0 else -x
    return out


class TestOverflowingWeight:
    """mu * k overflows: the prox matches the exact one, with v's sums
    overflowing too or not."""

    @pytest.mark.parametrize("mu,k,v", [
        (1e308, 3, [1.7e308, -1.7e308, 1.53e308, 8.5e307, 1.7e307]),
        (1.7976931348623157e308, 2, [3e300, -1e300, 2e300, 5e299]),
        (5e307, 4, [1e10, 7e9, -6e9, 6e9, 1e9, -2e8]),
        (1e308, 5, [4.0, 1.0, -1.0, 2.0, -2.0, 3.0, -4.0]),
    ])
    def test_matches_the_exact_prox(self, mu, k, v):
        assert mu * k == np.inf
        want = [float(x) for x in fraction_prox_topk_sq(mu, k, v)]
        np.testing.assert_allclose(prox_topk_sq(mu, k, v), want,
                                   rtol=1e-12, atol=0.0)

    def test_reference_agrees_below_the_overflow(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            d = int(rng.integers(1, 12))
            k = int(rng.integers(1, d + 1))
            mu = float(10.0 ** rng.uniform(-3.0, 3.0))
            v = rng.standard_normal(d).tolist()
            want = [float(x) for x in fraction_prox_topk_sq(mu, k, v)]
            np.testing.assert_allclose(prox_topk_sq(mu, k, v), want,
                                       rtol=1e-12, atol=1e-300)


class TestStructure:
    @pytest.mark.parametrize("seed", range(15))
    def test_sign_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 10))
        k = int(rng.integers(1, d + 1))
        v = 2.0 * rng.standard_normal(d)
        s = rng.choice([-1.0, 1.0], size=d)
        np.testing.assert_allclose(prox_topk_sq(1.7, k, s * v),
                                   s * prox_topk_sq(1.7, k, v), atol=1e-12)

    @pytest.mark.parametrize("seed", range(15))
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 10))
        k = int(rng.integers(1, d + 1))
        v = 2.0 * rng.standard_normal(d)
        perm = rng.permutation(d)
        np.testing.assert_allclose(prox_topk_sq(0.9, k, v[perm]),
                                   prox_topk_sq(0.9, k, v)[perm], atol=1e-12)

    @pytest.mark.parametrize("seed", range(15))
    def test_output_magnitudes_monotone_in_input_order(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 12))
        k = int(rng.integers(1, d + 1))
        v = 2.0 * rng.standard_normal(d)
        x = prox_topk_sq(2.3, k, v)
        order = np.argsort(-np.abs(v), kind="stable")
        mags = np.abs(x)[order]
        assert np.all(mags[:-1] >= mags[1:] - 1e-12)
        assert np.all(mags >= -1e-15)

    def test_candidate_counter_within_linear_budget(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            d = int(rng.integers(1, 60))
            k = int(rng.integers(1, d + 1))
            mu = float(rng.uniform(0.01, 10.0))
            v = rng.standard_normal(d)
            _, count = prox_topk_sq(mu, k, v, with_count=True)
            assert count <= d


class TestConjugateProx:
    @pytest.mark.parametrize("seed", range(25))
    def test_moreau_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 15))
        k = int(rng.integers(1, d + 1))
        lam = float(rng.uniform(0.01, 2.0))
        alpha = float(rng.uniform(0.05, 10.0))
        x = 3.0 * rng.standard_normal(d)
        recon = prox_topk_sq_conjugate(alpha, k, x, lam) \
            + alpha * prox_topk_sq(1.0 / (lam * alpha), k, x / alpha)
        np.testing.assert_allclose(recon, x, atol=1e-9)

    def test_k_zero_returns_zero(self):
        np.testing.assert_array_equal(
            prox_topk_sq_conjugate(1.0, 0, np.array([1.0, 2.0]), 0.5),
            np.zeros(2))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            prox_topk_sq_conjugate(0.0, 1, np.array([1.0]), 1.0)
        with pytest.raises(ValueError):
            prox_topk_sq_conjugate(1.0, 1, np.array([1.0]), 0.0)

    @pytest.mark.parametrize("alpha,lam", [(1e-310, 1.0), (1e-200, 1e-200)])
    def test_rejects_an_overflowing_shrinkage_weight(self, alpha, lam):
        # 1/(lam * alpha) overflows (lam * alpha underflows to 0 in the
        # second case)
        with pytest.raises(ValueError, match=r"lam \* alpha"):
            prox_topk_sq_conjugate(alpha, 1, np.array([1.0, 2.0, 0.5]), lam)

    @pytest.mark.parametrize("alpha,k,v,lam", [
        (1e-300, 1, [1e10, 2.0], 1e10),
        (0.5, 2, [1.7e308, -1e308, 3.0, 1e300], 1.0)])
    def test_overflowing_v_over_alpha(self, alpha, k, v, lam):
        # v / alpha overflows but 1/(lam * alpha) does not; the conjugate
        # prox is positively homogeneous, and v / (s * alpha) is finite
        s = 2.0 ** 64
        want = s * prox_topk_sq_conjugate(alpha, k, np.array(v) / s, lam)
        with pytest.warns(RuntimeWarning, match="overflow"):
            got = prox_topk_sq_conjugate(alpha, k, v, lam)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("alpha,k,v", [
        (1.0, 1, [np.nan, 1.0]), (1.0, 2, [np.nan, 1.0]),
        (1.0, 1, [3.0, 2.0, 1.0, np.nan]), (1e-300, 1, [1e10, np.nan]),
        (1.0, 1, [np.inf, np.nan])])
    def test_rejects_nan_in_v(self, alpha, k, v):
        # the first v raised "min() arg is an empty sequence"; at alpha =
        # 1e-300, v / alpha overflows before the NaN is seen
        overflow = (pytest.warns(RuntimeWarning, match="overflow")
                    if alpha == 1e-300 else contextlib.nullcontext())
        with overflow, pytest.raises(ValueError, match="NaN"):
            prox_topk_sq_conjugate(alpha, k, v, 1.0)

    @pytest.mark.parametrize("alpha,lam", [(np.nan, 0.5), (1.0, np.nan),
                                           (np.inf, 0.5), (1.0, np.inf)])
    def test_rejects_nan_and_infinite_parameters(self, alpha, lam):
        with pytest.raises(ValueError):
            prox_topk_sq_conjugate(alpha, 1, np.array([1.0, 2.0]), lam)

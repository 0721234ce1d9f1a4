import numpy as np
import pytest
from scipy.special import expit, logit

import l0bfs.losses
from helpers import domain_point, fd_grad, numeric_conjugate, numeric_prox
from l0bfs.losses import HuberLoss, LogisticLoss, QuadraticLoss, make_loss
from l0bfs.restricted import ConvergenceError

KINDS = ["quadratic", "huber", "logistic"]


def random_loss(kind, rng, n=None):
    n = n or int(rng.integers(1, 7))
    if kind == "logistic":
        b = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    else:
        b = rng.standard_normal(n)
    return make_loss(kind, b)


class TestConstruction:
    def test_rejects_empty_and_nonfinite_b(self):
        with pytest.raises(ValueError):
            QuadraticLoss(np.array([]))
        with pytest.raises(ValueError):
            QuadraticLoss(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            QuadraticLoss(np.array([[1.0, 2.0]]))

    def test_logistic_rejects_non_binary_labels(self):
        with pytest.raises(ValueError):
            LogisticLoss(np.array([1.0, 0.5]))

    def test_huber_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            HuberLoss(np.array([0.0]), delta=0.0)

    @pytest.mark.parametrize("delta", ["x", "1.0", None, True])
    def test_huber_rejects_non_real_delta(self, delta):
        with pytest.raises(ValueError, match="delta must be a real number"):
            HuberLoss(np.array([0.0]), delta=delta)

    def test_huber_rejects_nan_delta(self):
        with pytest.raises(ValueError):
            HuberLoss(np.array([0.0]), delta=float("nan"))

    def test_make_loss_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            make_loss("hinge", np.array([1.0]))

    def test_dimension_mismatch_raises(self):
        loss = QuadraticLoss(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            loss.value(np.array([1.0]))

    def test_b_is_frozen(self):
        loss = QuadraticLoss(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            loss.b[0] = 5.0

    def test_gamma_constants(self):
        rng = np.random.default_rng(0)
        for kind, factor in [("quadratic", 1), ("huber", 1), ("logistic", 4)]:
            loss = random_loss(kind, rng, n=5)
            assert loss.gamma == factor * 5


class TestValue:
    def test_quadratic_exact_fit(self):
        loss = QuadraticLoss(np.array([1.0, 1.0]))
        assert loss.value(np.array([1.0, 1.0])) == 0.0

    def test_huber_linear_branch(self):
        loss = HuberLoss(np.array([0.0]), delta=1.0)
        assert loss.value(np.array([3.0])) == pytest.approx(2.5)

    def test_huber_quadratic_branch(self):
        loss = HuberLoss(np.array([0.0]), delta=1.0)
        assert loss.value(np.array([0.5])) == pytest.approx(0.125)

    def test_logistic_at_zero(self):
        loss = LogisticLoss(np.array([1.0]))
        assert loss.value(np.array([0.0])) == pytest.approx(np.log(2.0))

    def test_logistic_overflow_safe(self):
        loss = LogisticLoss(np.array([1.0]))
        assert np.isfinite(loss.value(np.array([-2000.0])))

    @pytest.mark.parametrize("kind", KINDS)
    def test_nonnegative_and_convex_midpoint(self, kind):
        rng = np.random.default_rng(3)
        for _ in range(100):
            loss = random_loss(kind, rng)
            z1 = 3.0 * rng.standard_normal(loss.n)
            z2 = 3.0 * rng.standard_normal(loss.n)
            v1, v2 = loss.value(z1), loss.value(z2)
            assert v1 >= 0.0
            mid = loss.value(0.5 * (z1 + z2))
            assert mid <= 0.5 * (v1 + v2) + 1e-12


class TestGradient:
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_central_differences(self, kind):
        rng = np.random.default_rng(4)
        for _ in range(50):
            loss = random_loss(kind, rng)
            z = 2.0 * rng.standard_normal(loss.n)
            g = loss.grad(z)
            g_fd = fd_grad(loss.value, z, h=1e-6)
            np.testing.assert_allclose(g, g_fd, atol=1e-5, rtol=1e-5)

    @pytest.mark.parametrize("kind", KINDS)
    def test_smoothness_constant(self, kind):
        rng = np.random.default_rng(5)
        for _ in range(200):
            loss = random_loss(kind, rng)
            z1 = 5.0 * rng.standard_normal(loss.n)
            z2 = 5.0 * rng.standard_normal(loss.n)
            lhs = np.linalg.norm(loss.grad(z1) - loss.grad(z2))
            rhs = np.linalg.norm(z1 - z2) / loss.gamma
            assert lhs <= rhs + 1e-9


class TestCurvature:
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_central_differences_of_grad(self, kind):
        # every loss is separable, so one shift of all components at once
        # differentiates each grad component in its own variable
        rng = np.random.default_rng(41)
        h = 1e-6
        for _ in range(50):
            loss = random_loss(kind, rng)
            z = 2.0 * rng.standard_normal(loss.n)
            fd = (loss.grad(z + h) - loss.grad(z - h)) / (2.0 * h)
            away = np.ones(loss.n, dtype=bool)
            if kind == "huber":
                away = np.abs(np.abs(z - loss.b) - loss.delta) > 1e-3
            np.testing.assert_allclose(loss.curvature(z)[away], fd[away],
                                       atol=1e-7, rtol=1e-6)

    @pytest.mark.parametrize("kind", KINDS)
    def test_within_smoothness_constant(self, kind):
        rng = np.random.default_rng(42)
        for _ in range(100):
            loss = random_loss(kind, rng)
            z = 10.0 * rng.standard_normal(loss.n)
            c = loss.curvature(z)
            assert c.shape == (loss.n,)
            assert np.all(c >= 0.0)
            assert np.all(c <= 1.0 / loss.gamma)

    @pytest.mark.parametrize("kind", KINDS)
    def test_rejects_wrong_length(self, kind):
        loss = random_loss(kind, np.random.default_rng(43), n=3)
        with pytest.raises(ValueError):
            loss.curvature(np.zeros(4))


class TestConjugate:
    def test_zero_is_zero_for_all_kinds(self):
        rng = np.random.default_rng(6)
        for kind in KINDS:
            loss = random_loss(kind, rng, n=4)
            assert loss.conjugate(np.zeros(4)) == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_hand_value(self):
        loss = QuadraticLoss(np.array([1.0, 0.0]))
        assert loss.conjugate(np.array([1.0, 1.0])) == pytest.approx(3.0)

    def test_huber_outside_box_is_infinite(self):
        loss = HuberLoss(np.array([0.0]), delta=1.0)
        assert loss.conjugate(np.array([2.0])) == np.inf

    def test_huber_just_inside_box_is_finite(self):
        loss = HuberLoss(np.array([0.5]), delta=1.0)
        assert np.isfinite(loss.conjugate(np.array([1.0 - 1e-12])))

    def test_logistic_outside_domain_is_infinite(self):
        loss = LogisticLoss(np.array([1.0, -1.0]))
        beta = np.array([0.2, 0.0])  # s_1 = -2*0.2... wrong sign -> s < 0
        assert loss.conjugate(beta) == np.inf

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_numeric_sup_oracle(self, kind):
        rng = np.random.default_rng(7)
        for _ in range(25):
            loss = random_loss(kind, rng, n=int(rng.integers(1, 5)))
            beta = domain_point(loss, rng, scale=0.5)
            expected = numeric_conjugate(loss, beta)
            assert loss.conjugate(beta) == pytest.approx(expected, abs=1e-7,
                                                         rel=1e-7)

    @pytest.mark.parametrize("kind", KINDS)
    def test_fenchel_young_inequality(self, kind):
        rng = np.random.default_rng(8)
        for _ in range(300):
            loss = random_loss(kind, rng)
            beta = domain_point(loss, rng)
            z = 3.0 * rng.standard_normal(loss.n)
            slack = loss.value(z) + loss.conjugate(beta) - float(beta @ z)
            assert slack >= -1e-9

    @pytest.mark.parametrize("kind", KINDS)
    def test_fenchel_young_tight_at_gradient_pairs(self, kind):
        rng = np.random.default_rng(9)
        for _ in range(100):
            loss = random_loss(kind, rng)
            z = 2.0 * rng.standard_normal(loss.n)
            beta = loss.grad(z)
            slack = loss.value(z) + loss.conjugate(beta) - float(beta @ z)
            assert abs(slack) <= 1e-9

    @pytest.mark.parametrize("kind", KINDS)
    def test_conjugate_grad_matches_central_differences(self, kind):
        rng = np.random.default_rng(10)
        for _ in range(30):
            loss = random_loss(kind, rng, n=int(rng.integers(1, 5)))
            beta = domain_point(loss, rng, scale=0.3)
            g = loss.conjugate_grad(beta)
            # keep the FD stencil strictly inside the domain
            g_fd = fd_grad(loss.conjugate, beta, h=1e-7)
            np.testing.assert_allclose(g, g_fd, atol=1e-4, rtol=1e-4)


class TestProx:
    @pytest.mark.parametrize("kind", KINDS)
    def test_tau_zero_is_identity(self, kind):
        rng = np.random.default_rng(11)
        loss = random_loss(kind, rng, n=4)
        v = rng.standard_normal(4)
        np.testing.assert_allclose(loss.prox(0.0, v), v, atol=1e-15)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("tau", [1e-310, 5e-324])
    def test_tau_whose_inverse_overflows_is_identity(self, kind, tau):
        # 1/tau overflows: the prox takes the tau -> 0 limit, as at tau = 0
        rng = np.random.default_rng(11)
        loss = random_loss(kind, rng, n=4)
        v = rng.standard_normal(4)
        out = loss.prox(tau, v)
        np.testing.assert_array_equal(out, v)
        assert out is not v

    @pytest.mark.parametrize("kind", KINDS)
    def test_overflowing_v_over_tau_raises(self, kind):
        # 1/tau is finite but v / tau overflows: the Moreau route has no
        # finite point to take the conjugate prox at, and v is not the prox
        loss = make_loss(kind, [1.0, -1.0])
        with pytest.raises(ValueError, match="v / tau"):
            loss.prox(1e-300, [1e10, 0.5])

    def test_quadratic_prox_at_b_is_b(self):
        b = np.array([1.0, -2.0])
        loss = QuadraticLoss(b)
        np.testing.assert_allclose(loss.prox(0.7, b), b)

    @pytest.mark.parametrize("kind", KINDS)
    def test_gradient_stationarity(self, kind):
        rng = np.random.default_rng(12)
        for _ in range(50):
            loss = random_loss(kind, rng)
            tau = float(rng.uniform(0.01, 20.0))
            v = 3.0 * rng.standard_normal(loss.n)
            p = loss.prox(tau, v)
            residual = tau * loss.grad(p) + (p - v)
            assert np.max(np.abs(residual)) <= 1e-10

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_numeric_argmin_oracle(self, kind):
        rng = np.random.default_rng(13)
        for _ in range(10):
            loss = random_loss(kind, rng, n=3)
            tau = float(rng.uniform(0.1, 5.0))
            v = 2.0 * rng.standard_normal(3)
            np.testing.assert_allclose(loss.prox(tau, v),
                                       numeric_prox(loss, tau, v),
                                       atol=1e-6)

    @pytest.mark.parametrize("kind", KINDS)
    def test_objective_beats_random_perturbations(self, kind):
        rng = np.random.default_rng(14)
        loss = random_loss(kind, rng, n=4)
        tau = 1.3
        v = rng.standard_normal(4)
        p = loss.prox(tau, v)

        def obj(y):
            return tau * loss.value(y) + 0.5 * float((y - v) @ (y - v))

        base = obj(p)
        for _ in range(100):
            assert base <= obj(p + 0.01 * rng.standard_normal(4)) + 1e-12

    @pytest.mark.parametrize("kind", KINDS)
    def test_nonexpansive(self, kind):
        rng = np.random.default_rng(15)
        loss = random_loss(kind, rng, n=5)
        for _ in range(50):
            tau = float(rng.uniform(0.01, 10.0))
            v1 = 3.0 * rng.standard_normal(5)
            v2 = 3.0 * rng.standard_normal(5)
            lhs = np.linalg.norm(loss.prox(tau, v1) - loss.prox(tau, v2))
            assert lhs <= np.linalg.norm(v1 - v2) + 1e-12


class TestProxConjugate:
    @pytest.mark.parametrize("kind", KINDS)
    def test_moreau_residual(self, kind):
        rng = np.random.default_rng(16)
        for _ in range(50):
            loss = random_loss(kind, rng)
            tau = float(rng.uniform(0.05, 10.0))
            v = 3.0 * rng.standard_normal(loss.n)
            recon = tau * loss.prox(1.0 / tau, v / tau) + loss.prox_conjugate(tau, v)
            np.testing.assert_allclose(recon, v, atol=1e-10)

    @pytest.mark.parametrize("kind", KINDS)
    def test_rejects_nan_tau(self, kind):
        loss = random_loss(kind, np.random.default_rng(17))
        with pytest.raises(ValueError):
            loss.prox_conjugate(np.nan, np.zeros(loss.n))

    @pytest.mark.parametrize("kind", KINDS)
    def test_rejects_infinite_tau(self, kind):
        loss = random_loss(kind, np.random.default_rng(18))
        v = 0.1 * np.random.default_rng(19).standard_normal(loss.n)
        with pytest.raises(ValueError, match="tau"):
            loss.prox_conjugate(np.inf, v)

    def test_quadratic_hand_value(self):
        # b=0, n=1: argmin tau*L*(y) + 0.5(y-v)^2 with L*(y) = y^2/2,
        # tau=1, v=2  ->  y = 1
        loss = QuadraticLoss(np.array([0.0]))
        np.testing.assert_allclose(loss.prox_conjugate(1.0, np.array([2.0])),
                                   [1.0])

    def test_quadratic_against_grid_argmin(self):
        loss = QuadraticLoss(np.array([0.3]))
        tau, v = 0.8, np.array([1.7])
        grid = np.linspace(-5, 5, 200001)
        obj = tau * (grid * loss.b[0] + 0.5 * loss.n * grid**2) \
            + 0.5 * (grid - v[0]) ** 2
        expected = grid[np.argmin(obj)]
        assert loss.prox_conjugate(tau, v)[0] == pytest.approx(expected,
                                                               abs=1e-4)

    def test_huber_output_stays_in_domain(self):
        rng = np.random.default_rng(17)
        loss = HuberLoss(rng.standard_normal(6), delta=1.3)
        for _ in range(50):
            tau = float(rng.uniform(0.05, 10.0))
            v = 5.0 * rng.standard_normal(6)
            q = loss.prox_conjugate(tau, v)
            assert np.max(np.abs(q)) <= loss.delta / loss.n + 1e-12

    def test_logistic_output_stays_in_domain(self):
        rng = np.random.default_rng(18)
        loss = LogisticLoss(np.where(rng.random(5) < 0.5, 1.0, -1.0))
        for _ in range(50):
            tau = float(rng.uniform(0.05, 10.0))
            v = 5.0 * rng.standard_normal(5)
            s = -loss.n * loss.b * loss.prox_conjugate(tau, v)
            assert np.min(s) >= -1e-12 and np.max(s) <= 1.0 + 1e-12

    @pytest.mark.parametrize("kind", KINDS)
    def test_minimizes_conjugate_objective(self, kind):
        # directional check of argmin tau*L*(y) + 0.5||y - v||^2
        rng = np.random.default_rng(19)
        loss = random_loss(kind, rng, n=4)
        for _ in range(20):
            tau = float(rng.uniform(0.1, 5.0))
            v = 2.0 * rng.standard_normal(4)
            q = loss.prox_conjugate(tau, v)

            def obj(y):
                c = loss.conjugate(y)
                if not np.isfinite(c):
                    return np.inf
                return tau * c + 0.5 * float((y - v) @ (y - v))

            base = obj(q)
            assert np.isfinite(base)
            for _ in range(30):
                trial = loss.project_domain(q + 0.01 * rng.standard_normal(4))
                assert base <= obj(trial) + 1e-9


def logistic_prox_s(a, u):
    """s = -n b beta for beta = prox_{tau L*}(v), with a = tau n and u = -n b v.

    Mixed labels, so both signs of b map the same (a, u) grid.
    """
    u = np.asarray(u, dtype=float)
    n = u.size
    b = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    loss = LogisticLoss(b)
    beta = loss.prox_conjugate(a / n, -b * u / n)
    return -n * b * beta


def bisect_s(a, u, steps=200):
    """Root of a logit(s) + s = u on [0, 1] by plain bisection."""
    lo, hi = 0.0, 1.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if a * logit(mid) + mid < u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestLogisticConjugateProx:
    A_GRID = np.logspace(-6, 3, 28)
    U_GRID = np.union1d(np.linspace(-5.0, 6.0, 45), [0.0, 0.5, 1.0])

    def test_small_repro_hits_the_root(self):
        loss = LogisticLoss(np.array([1.0]))
        s = -loss.prox_conjugate(0.0835, np.array([-0.5855]))[0]
        assert abs(s - 0.5640045517201308) <= 1e-12

    def test_stationarity_over_grid(self):
        # the residual of the float s: within 1e-12 of the scale, plus what
        # two float spacings of s move the residual by, one for rounding the
        # root and one for the round trip s -> beta -> s (that term matters
        # only for s within ~1e-10 of 1, where doubles are sparse)
        for a in self.A_GRID:
            s = logistic_prox_s(a, self.U_GRID)
            inside = (s > 0.0) & (s < 1.0)
            s, u = s[inside], self.U_GRID[inside]
            residual = a * logit(s) + s - u
            spacing = 2.0 * (a / (s * (1.0 - s)) + 1.0) * np.spacing(s)
            assert np.all(np.abs(residual)
                          <= 1e-12 * np.maximum(1.0, np.abs(u)) + spacing), a

    def test_output_in_domain_without_slack(self):
        rng = np.random.default_rng(21)
        for a in self.A_GRID:
            s = logistic_prox_s(a, self.U_GRID)
            assert np.min(s) >= 0.0 and np.max(s) <= 1.0
        loss = LogisticLoss(np.where(rng.random(7) < 0.5, 1.0, -1.0))
        for _ in range(200):
            tau = float(10.0 ** rng.uniform(-8, 4))
            v = 10.0 ** rng.uniform(-3, 3) * rng.standard_normal(7)
            s = -loss.n * loss.b * loss.prox_conjugate(tau, v)
            assert np.min(s) >= 0.0 and np.max(s) <= 1.0

    def test_matches_bisection_reference(self):
        for a in self.A_GRID[::3]:
            s = logistic_prox_s(a, self.U_GRID)
            ref = [bisect_s(a, u) for u in self.U_GRID]
            np.testing.assert_allclose(s, ref, rtol=0, atol=1e-12)

    def test_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(l0bfs.losses, "_PROX_MAX_STEPS", 1)
        loss = LogisticLoss(np.array([1.0, -1.0]))
        with pytest.raises(ConvergenceError):
            loss.prox_conjugate(0.0835, np.array([-0.5855, 0.3]))


class TestProjectDomain:
    def test_huber_clips_to_box(self):
        loss = HuberLoss(np.zeros(3), delta=1.5)
        bound = 0.5
        beta = np.array([1.0, -2.0, 0.1])
        np.testing.assert_allclose(loss.project_domain(beta),
                                   [0.5, -0.5, 0.1])
        assert np.isfinite(loss.conjugate(loss.project_domain(beta)))

    def test_logistic_projection_lands_in_domain(self):
        rng = np.random.default_rng(20)
        loss = LogisticLoss(np.where(rng.random(4) < 0.5, 1.0, -1.0))
        for _ in range(50):
            beta = rng.standard_normal(4)
            assert np.isfinite(loss.conjugate(loss.project_domain(beta)))

    def test_quadratic_projection_is_identity(self):
        loss = QuadraticLoss(np.array([1.0, 2.0]))
        beta = np.array([5.0, -7.0])
        np.testing.assert_array_equal(loss.project_domain(beta), beta)


class TestStackedInputs:
    """value, grad and curvature take (..., n) stacks for batched solves."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_rows_match_single_vectors(self, kind):
        rng = np.random.default_rng(70)
        loss = random_loss(kind, rng, n=6)
        z = 2.0 * rng.standard_normal((3, 4, 6))
        values = loss.value(z)
        assert values.shape == (3, 4)
        for idx in np.ndindex(3, 4):
            assert values[idx] == pytest.approx(loss.value(z[idx]), rel=1e-14)
            np.testing.assert_array_equal(loss.grad(z)[idx], loss.grad(z[idx]))
            np.testing.assert_array_equal(loss.curvature(z)[idx],
                                          loss.curvature(z[idx]))

    @pytest.mark.parametrize("kind", KINDS)
    def test_stacks_still_checked(self, kind):
        loss = random_loss(kind, np.random.default_rng(71), n=4)
        for method in (loss.value, loss.grad, loss.curvature):
            with pytest.raises(ValueError):
                method(np.zeros((2, 5)))
            with pytest.raises(ValueError):
                method(np.float64(0.0))
        with pytest.raises(ValueError):
            loss.conjugate(np.zeros((2, 4)))
        with pytest.raises(ValueError):
            loss.prox_conjugate(1.0, np.zeros((2, 4)))


class TestLogisticProxStart:
    """The Newton start of the logistic conjugate prox."""

    A_GRID = np.logspace(-14, 3, 52)
    U_GRID = np.union1d(np.linspace(0.5, 8.0, 61),
                        1.0 + np.array([0.0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3]))

    def test_start_never_passes_the_root(self):
        # f(t0) <= 0 up to the rounding of f itself at the scale of u
        slack = 4.0 * np.finfo(float).eps * self.U_GRID
        for a in self.A_GRID:
            t0 = l0bfs.losses._prox_start(a, self.U_GRID)
            assert np.all(np.isfinite(t0)) and np.all(t0 >= 0.0)
            assert np.all(a * t0 + expit(t0) - self.U_GRID <= slack), a

    @pytest.mark.parametrize("a", [1e-12, 1e-10, 1e-8])
    def test_tiny_a_at_u_one_needs_few_steps(self, a, monkeypatch):
        # from the (u - 1)/a start these took 19-27 Newton steps
        monkeypatch.setattr(l0bfs.losses, "_PROX_MAX_STEPS", 8)
        u = 1.0 + np.array([0.0, 1e-15, 1e-12, 1e-9])
        s = logistic_prox_s(a, u)
        ref = [bisect_s(a, ui) for ui in u]
        np.testing.assert_allclose(s, ref, rtol=0, atol=1e-12)

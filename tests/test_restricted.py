import dataclasses
import itertools

import numpy as np
import pytest

import l0bfs.restricted
from helpers import random_instance
from l0bfs import (ConvergenceError, Instance, RestrictedSolution, make_loss,
                   solve_restricted, solve_restricted_batch)

KINDS = ["quadratic", "huber", "logistic"]


def normal_equation_solution(inst, support):
    """The quadratic-loss restricted minimizer by a dense linear solve."""
    A_S = inst.A[:, support]
    lhs = A_S.T @ A_S / inst.n + inst.lam * np.eye(len(support))
    return np.linalg.solve(lhs, A_S.T @ inst.loss.b / inst.n)


def assert_no_better_perturbation(inst, sol, support):
    for i in support:
        for sign in (+1.0, -1.0):
            x = sol.x.copy()
            x[i] += sign * 1e-4
            assert inst.objective(x) >= sol.value - 1e-8


class TestInstance:
    def test_validation(self):
        loss = make_loss("quadratic", np.array([1.0, 2.0]))
        A = np.eye(2)
        with pytest.raises(ValueError):
            Instance(A=np.ones((3, 2)), loss=loss, lam=1.0, k=1)  # n mismatch
        with pytest.raises(ValueError):
            Instance(A=A, loss=loss, lam=0.0, k=1)
        with pytest.raises(ValueError):
            Instance(A=A, loss=loss, lam=1.0, k=3)
        with pytest.raises(ValueError):
            Instance(A=np.array([[np.inf, 0.0], [0.0, 1.0]]), loss=loss,
                     lam=1.0, k=1)

    @pytest.mark.parametrize("k", [1.5, 1.0, True, "1", None])
    def test_non_integer_k_rejected(self, k):
        loss = make_loss("quadratic", np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="k must be an integer"):
            Instance(A=np.eye(2), loss=loss, lam=1.0, k=k)

    @pytest.mark.parametrize("lam", [np.inf, -np.inf, np.nan, 0.0, -1.0])
    def test_infinite_nan_and_nonpositive_lam_rejected(self, lam):
        loss = make_loss("quadratic", np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            Instance(A=np.eye(2), loss=loss, lam=lam, k=1)

    @pytest.mark.parametrize("lam", ["0.1", None, True])
    def test_non_real_lam_rejected(self, lam):
        loss = make_loss("quadratic", np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="lam must be a real number"):
            Instance(A=np.eye(2), loss=loss, lam=lam, k=1)

    def test_numpy_scalars_accepted(self):
        loss = make_loss("quadratic", np.array([1.0, 2.0]))
        inst = Instance(A=np.eye(2), loss=loss, lam=np.float32(0.5),
                        k=np.int64(2))
        assert (inst.k, inst.lam) == (2, 0.5)
        assert type(inst.k) is int and type(inst.lam) is float

    def test_objective_and_gradient_consistent(self):
        inst = random_instance("huber", d=6, k=2, n=10, seed=0)
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.standard_normal(6)
            g = inst.objective_grad(x)
            h = 1e-6
            for i in range(6):
                e = np.zeros(6)
                e[i] = h
                fd = (inst.objective(x + e) - inst.objective(x - e)) / (2 * h)
                assert g[i] == pytest.approx(fd, abs=1e-5, rel=1e-5)

    def test_matrix_frozen(self):
        inst = random_instance("quadratic", d=4, k=2, n=6, seed=2)
        with pytest.raises(ValueError):
            inst.A[0, 0] = 9.0

    def test_op_norm_matches_svd(self):
        inst = random_instance("quadratic", d=5, k=2, n=8, seed=3)
        expected = np.linalg.svd(inst.A, compute_uv=False)[0]
        assert inst.op_norm == pytest.approx(expected, rel=1e-8)

    def test_replace_recomputes_cached_arrays(self):
        inst = random_instance("quadratic", d=5, k=2, n=8, seed=3)
        AT, op_norm = inst.AT, inst.op_norm  # fill the caches
        scaled = dataclasses.replace(inst, A=2.0 * inst.A)
        np.testing.assert_array_equal(scaled.AT, 2.0 * AT)
        assert scaled.op_norm == pytest.approx(2.0 * op_norm, rel=1e-12)


class TestSolveRestricted:
    def test_empty_support_returns_zero(self):
        inst = random_instance("huber", d=5, k=2, n=8, seed=4)
        sol = solve_restricted(inst, [])
        np.testing.assert_array_equal(sol.x, np.zeros(5))
        assert sol.value == pytest.approx(inst.loss.value(np.zeros(8)))
        assert sol.certificate == 0.0

    def test_quadratic_hand_example(self):
        # one active coordinate of an identity design: stationarity reads
        # (x - 2)/2 + x = 0, so x = 2/3 and the objective is 11/12
        inst = Instance(A=np.eye(2),
                        loss=make_loss("quadratic", np.array([1.0, 2.0])),
                        lam=1.0, k=1)
        sol = solve_restricted(inst, [1])
        np.testing.assert_allclose(sol.x, [0.0, 2.0 / 3.0], atol=1e-12)
        assert sol.value == pytest.approx(11.0 / 12.0, abs=1e-12)

    def test_quadratic_normal_equation_oracle(self):
        for seed in range(10):
            inst = random_instance("quadratic", d=8, k=3, n=12, seed=seed)
            rng = np.random.default_rng(seed)
            support = sorted(map(int, rng.choice(8, size=3, replace=False)))
            sol = solve_restricted(inst, support)
            np.testing.assert_allclose(sol.x[support],
                                       normal_equation_solution(inst, support),
                                       atol=1e-10)

    @pytest.mark.parametrize("kind", KINDS)
    def test_certificate_and_off_support_zero(self, kind):
        rng = np.random.default_rng(5)
        for seed in range(8):
            inst = random_instance(kind, d=7, k=3, n=11, seed=seed)
            size = int(rng.integers(1, 5))
            support = sorted(map(int, rng.choice(7, size=size, replace=False)))
            sol = solve_restricted(inst, support)
            assert sol.certificate <= 1e-12
            grad = inst.objective_grad(sol.x)
            assert np.linalg.norm(grad[support]) <= 1e-10
            off = np.setdiff1d(np.arange(7), support)
            np.testing.assert_array_equal(sol.x[off], 0.0)
            assert sol.value <= inst.objective(np.zeros(7)) + 1e-12

    @pytest.mark.parametrize("kind", ["huber", "logistic"])
    def test_against_long_run_gradient_descent(self, kind):
        # independent route: plain projected gradient descent, many steps
        for seed in range(4):
            inst = random_instance(kind, d=6, k=2, n=9, seed=seed)
            support = [1, 4]
            sol = solve_restricted(inst, support)

            mask = np.zeros(6)
            mask[support] = 1.0
            lip = np.linalg.svd(inst.A[:, support], compute_uv=False)[0] ** 2 \
                / inst.loss.gamma + inst.lam
            x = np.zeros(6)
            for _ in range(200_000):
                x = x - (1.0 / lip) * inst.objective_grad(x) * mask
            assert sol.value == pytest.approx(inst.objective(x), abs=1e-8)
            np.testing.assert_allclose(sol.x, x, atol=1e-6)

    @pytest.mark.parametrize("kind", KINDS)
    def test_perturbation_optimality(self, kind):
        inst = random_instance(kind, d=6, k=3, n=10, seed=6)
        support = [0, 2, 5]
        sol = solve_restricted(inst, support)
        assert_no_better_perturbation(inst, sol, support)

    @pytest.mark.parametrize("kind", KINDS)
    def test_monotone_in_support_growth(self, kind):
        inst = random_instance(kind, d=6, k=3, n=10, seed=7)
        chains = [([1], [1, 3], [1, 3, 4]), ([0], [0, 5], [0, 2, 5])]
        for chain in chains:
            values = [solve_restricted(inst, s).value for s in chain]
            assert all(a >= b - 1e-10 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("kind", KINDS)
    def test_strong_convexity_floor(self, kind):
        inst = random_instance(kind, d=6, k=3, n=10, seed=8)
        for support in itertools.combinations(range(6), 2):
            sol = solve_restricted(inst, support)
            assert sol.value >= 0.5 * inst.lam * float(sol.x @ sol.x) - 1e-12

    def test_support_larger_than_k_allowed(self):
        inst = random_instance("huber", d=6, k=2, n=9, seed=9)
        sol = solve_restricted(inst, range(6))
        assert np.flatnonzero(sol.x).size <= 6
        small = solve_restricted(inst, [0, 1])
        assert sol.value <= small.value + 1e-10

    @pytest.mark.parametrize("support", [
        [1.5, 3], [1.0, 3], [True, 3], [np.bool_(True)], np.array([1.0, 3.0]),
        ["1"]])
    def test_rejects_non_integer_indices(self, support):
        # a float index was truncated: [1.5, 3] solved on (1, 3)
        inst = random_instance("quadratic", d=4, k=2, n=6, seed=10)
        with pytest.raises(ValueError, match="must be an integer"):
            solve_restricted(inst, support)

    def test_numpy_integer_indices_accepted(self):
        inst = random_instance("quadratic", d=4, k=2, n=6, seed=10)
        want = solve_restricted(inst, [1, 3])
        for support in (np.array([1, 3]), np.array([3, 1], dtype=np.uint8),
                        (np.int32(1), np.int64(3))):
            assert solve_restricted(inst, support).x.tobytes() == want.x.tobytes()

    def test_rejects_bad_supports(self):
        inst = random_instance("quadratic", d=4, k=2, n=6, seed=10)
        with pytest.raises(ValueError):
            solve_restricted(inst, [0, 0])
        with pytest.raises(ValueError):
            solve_restricted(inst, [4])
        with pytest.raises(ValueError):
            solve_restricted(inst, [-1])

    def test_iteration_cap_raises_with_best_iterate(self, monkeypatch):
        monkeypatch.setattr(l0bfs.restricted, "_MAX_NEWTON_STEPS", 1)
        inst = random_instance("logistic", d=6, k=2, n=9, seed=11)
        with pytest.raises(ConvergenceError) as info:
            solve_restricted(inst, [0, 3])
        best = info.value.best
        assert best is not None
        assert np.isfinite(best.value)
        np.testing.assert_array_equal(np.flatnonzero(best.x), [0, 3])

    def test_deterministic(self):
        inst = random_instance("logistic", d=6, k=2, n=9, seed=12)
        a = solve_restricted(inst, [1, 2])
        b = solve_restricted(inst, [1, 2])
        np.testing.assert_array_equal(a.x, b.x)
        assert a.value == b.value


def degenerate_instance(case, kind):
    """An instance and a support on which the restricted problem is badly conditioned.

    duplicate: the support holds two equal columns (the Hessian is singular
    but for the ridge term); tiny_lam: lam = 1e-10; separable: logistic
    labels b = sign(A x*) with x* on the support, so the loss alone has no
    minimizer, also at lam = 1e-10; at_delta: every Huber residual sits on
    the kink |r| = delta at w = 0.
    """
    if case == "duplicate":
        inst = random_instance(kind, d=6, k=3, n=10, seed=21)
        A = inst.A.copy()
        A[:, 4] = A[:, 1]
        return Instance(A=A, loss=inst.loss, lam=inst.lam, k=3), [1, 2, 4]
    if case == "tiny_lam":
        return random_instance(kind, d=6, k=3, n=10, seed=22, lam=1e-10), [0, 2, 5]
    rng = np.random.default_rng(23)
    A = rng.standard_normal((10, 6))
    if case == "separable":
        x_star = np.zeros(6)
        x_star[[0, 2]] = [1.5, -2.0]
        b = np.sign(A @ x_star)
        return Instance(A=A, loss=make_loss("logistic", b), lam=1e-10, k=2), [0, 2]
    assert case == "at_delta"
    b = np.where(rng.random(10) < 0.5, -0.7, 0.7)
    return Instance(A=A, loss=make_loss("huber", b, delta=0.7), lam=1e-2, k=3), [0, 2, 5]


DEGENERATE = ([("duplicate", kind) for kind in KINDS]
              + [("tiny_lam", kind) for kind in KINDS]
              + [("separable", "logistic"), ("at_delta", "huber")])


class TestDegenerateInputs:
    @pytest.mark.parametrize("case,kind", DEGENERATE,
                             ids=[f"{c}-{k}" for c, k in DEGENERATE])
    def test_certifies_under_default_cap(self, case, kind):
        inst, support = degenerate_instance(case, kind)
        sol = solve_restricted(inst, support)
        assert sol.certificate <= 1e-12
        off = np.setdiff1d(np.arange(inst.d), support)
        np.testing.assert_array_equal(sol.x[off], 0.0)
        assert_no_better_perturbation(inst, sol, support)
        if kind == "quadratic":
            np.testing.assert_allclose(sol.x[support],
                                       normal_equation_solution(inst, support),
                                       atol=1e-10)


def leaf_rows(d, k):
    """Every size-k support as the rows of an int array."""
    return np.array(list(itertools.combinations(range(d), k)), dtype=int)


class TestBatch:
    """solve_restricted_batch: one Newton loop over a stack of supports."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_row_meets_the_single_solve_oracles(self, kind):
        inst = random_instance(kind, d=7, k=3, n=11, seed=60)
        rows = leaf_rows(7, 3)
        x, values, certs = solve_restricted_batch(inst, rows)
        assert x.shape == (len(rows), 7)
        assert np.all(certs <= 1e-12)
        for support, xi, value in zip(rows, x, values):
            off = np.setdiff1d(np.arange(7), support)
            np.testing.assert_array_equal(xi[off], 0.0)
            assert value == pytest.approx(inst.objective(xi), rel=1e-13, abs=1e-15)
            ref = solve_restricted(inst, support)
            assert value == pytest.approx(ref.value, rel=1e-12, abs=1e-15)
            np.testing.assert_allclose(xi, ref.x, atol=1e-10)
            assert_no_better_perturbation(
                inst, RestrictedSolution(xi, value, 0.0), support)
            if kind == "quadratic":
                np.testing.assert_allclose(
                    xi[support], normal_equation_solution(inst, support), atol=1e-10)

    @pytest.mark.parametrize("case,kind", DEGENERATE,
                             ids=[f"{c}-{k}" for c, k in DEGENERATE])
    def test_degenerate_rows_certify(self, case, kind):
        # the degenerate support next to every other support of its size
        inst, support = degenerate_instance(case, kind)
        rows = leaf_rows(inst.d, len(support))
        x, values, certs = solve_restricted_batch(inst, rows)
        assert np.all(certs <= 1e-12)
        i = [tuple(r) for r in rows].index(tuple(support))
        off = np.setdiff1d(np.arange(inst.d), support)
        np.testing.assert_array_equal(x[i][off], 0.0)
        assert_no_better_perturbation(
            inst, RestrictedSolution(x[i], values[i], certs[i]), support)
        if kind == "quadratic":
            np.testing.assert_allclose(x[i][support],
                                       normal_equation_solution(inst, support),
                                       atol=1e-10)

    @pytest.mark.parametrize("kind", KINDS)
    def test_batch_of_one_is_solve_restricted(self, kind):
        inst = random_instance(kind, d=6, k=2, n=9, seed=61)
        x, values, certs = solve_restricted_batch(inst, [[4, 1]])
        ref = solve_restricted(inst, [1, 4])
        np.testing.assert_array_equal(x[0], ref.x)
        assert values[0] == pytest.approx(ref.value, rel=1e-14)
        assert certs[0] == ref.certificate

    def test_capped_row_raises_with_its_last_iterate(self, monkeypatch):
        # column 0 is zero, so row (0,) certifies at w = 0 and row (3,) is
        # the one the one-step cap stops
        monkeypatch.setattr(l0bfs.restricted, "_MAX_NEWTON_STEPS", 1)
        inst = random_instance("logistic", d=6, k=1, n=9, seed=62)
        A = inst.A.copy()
        A[:, 0] = 0.0
        inst = Instance(A=A, loss=inst.loss, lam=inst.lam, k=1)
        with pytest.raises(ConvergenceError) as batch:
            solve_restricted_batch(inst, [[0], [3]])
        with pytest.raises(ConvergenceError) as single:
            solve_restricted(inst, [3])
        best, ref = batch.value.best, single.value.best
        np.testing.assert_array_equal(np.flatnonzero(best.x), [3])
        np.testing.assert_allclose(best.x, ref.x, rtol=1e-14)
        assert best.value == pytest.approx(ref.value, rel=1e-14)
        assert best.certificate > 1e-12

    def test_empty_batch_and_empty_supports(self):
        inst = random_instance("huber", d=5, k=2, n=8, seed=63)
        x, values, certs = solve_restricted_batch(inst, np.zeros((0, 2), int))
        assert x.shape == (0, 5) and values.shape == certs.shape == (0,)
        x, values, certs = solve_restricted_batch(inst, np.zeros((2, 0), int))
        np.testing.assert_array_equal(x, 0.0)
        assert values == pytest.approx([inst.objective(np.zeros(5))] * 2)

    @pytest.mark.parametrize("supports", [
        [[1.5, 3]], [[1.0, 3.0]], [[True, False]], np.array([[1.0, 3.0]])])
    def test_rejects_non_integer_indices(self, supports):
        # a float index was truncated: [[1.5, 3]] solved on (1, 3)
        inst = random_instance("quadratic", d=4, k=2, n=6, seed=64)
        with pytest.raises(ValueError, match="must be integers"):
            solve_restricted_batch(inst, supports)

    def test_empty_supports_of_any_dtype_solve(self):
        # an empty support holds no index to be a non-integer
        inst = random_instance("huber", d=5, k=2, n=8, seed=63)
        for supports in ([[]], np.zeros((2, 0))):
            x, values, _ = solve_restricted_batch(inst, supports)
            np.testing.assert_array_equal(x, 0.0)
            assert values == pytest.approx(
                [inst.objective(np.zeros(5))] * len(supports))

    def test_rejects_bad_supports(self):
        inst = random_instance("quadratic", d=4, k=2, n=6, seed=64)
        for bad in ([0, 1], [[0, 0]], [[0, 4]], [[-1, 2]]):
            with pytest.raises(ValueError):
                solve_restricted_batch(inst, bad)


def per_row_first_system(inst, supports):
    """Each support's Newton system at w = 0 from its own columns: the
    per-row products A_S^T diag(L''(0)) A_S + lam I and A_S^T grad L(0)."""
    z0 = np.zeros(inst.n)
    curvature, grad = inst.loss.curvature(z0), inst.loss.grad(z0)
    hess, g = [], []
    for support in supports:
        A_S = inst.A[:, support]
        hess.append(A_S.T @ (curvature[:, None] * A_S)
                    + inst.lam * np.eye(len(support)))
        g.append(A_S.T @ grad)
    return np.array(hess), np.array(g)


def listed_rows(prefix, tails):
    """The leaves of a listed node: the shared prefix plus each tail index."""
    return np.array([prefix + (j,) for j in tails], dtype=int)


def collinear_instance(kind):
    """The duplicate-column instance with column 5 also made collinear to
    column 1: columns 1, 4 and 5 span one line."""
    inst, _ = degenerate_instance("duplicate", kind)
    A = inst.A.copy()
    A[:, 5] = -3.0 * A[:, 1]
    return Instance(A=A, loss=inst.loss, lam=inst.lam, k=inst.k)


# (instance, rows) whose first systems are gathered from their union's Gram
FIRST_SYSTEMS = {
    # every leaf of d = 7, k = 3: the union is every column
    "all-leaves": (lambda kind: random_instance(kind, d=7, k=3, n=11, seed=70,
                                                delta=0.3),
                   lambda: leaf_rows(7, 3)),
    # two listed siblings: the union is 7 of the 12 columns
    "listed-siblings": (lambda kind: random_instance(kind, d=12, k=4, n=15,
                                                     seed=71, delta=0.3),
                        lambda: np.concatenate((
                            listed_rows((2, 5, 7), range(8, 12)),
                            listed_rows((2, 5, 8), range(9, 12))))),
    # one listed node with a wide tail: 8 of the 12 columns
    "wide-tail": (lambda kind: random_instance(kind, d=12, k=2, n=15, seed=72,
                                               delta=0.3),
                  lambda: listed_rows((1,), range(3, 10))),
    "collinear-leaves": (collinear_instance, lambda: leaf_rows(6, 3)),
    "collinear-wide": (collinear_instance,
                       lambda: np.array([[1, 4, 5], [0, 2, 3]])),
}


class TestFirstSystem:
    """The Newton system at w = 0: gathered from one Gram of the call's
    union, it is each row's own system."""

    @pytest.mark.parametrize("case", FIRST_SYSTEMS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_the_per_row_products(self, case, kind):
        make_inst, make_rows = FIRST_SYSTEMS[case]
        inst, rows = make_inst(kind), make_rows()
        z0 = np.zeros(inst.n)
        hess, g = l0bfs.restricted._first_system(
            inst.AT, rows, inst.AT[rows], inst.loss.curvature(z0),
            inst.loss.grad(z0), inst.lam * np.eye(rows.shape[1]))
        want_hess, want_g = per_row_first_system(inst, rows)
        assert hess.shape == want_hess.shape and g.shape == want_g.shape
        np.testing.assert_allclose(hess, want_hess, rtol=1e-13, atol=0)
        np.testing.assert_allclose(g, want_g, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("seed", range(4))
    def test_one_quadratic_support_keeps_the_one_step_bits(self, seed):
        # solve_restricted, as every polish runs it, takes the one Newton
        # step of the per-row formula from w = 0, bit for bit
        inst = random_instance("quadratic", d=8, k=3, n=12, seed=seed)
        z0 = np.zeros(inst.n)
        for support in ([3], [0, 5], [1, 2, 6], [0, 3, 4, 7]):
            AtS = inst.AT[support]
            hess = ((AtS * inst.loss.curvature(z0)) @ AtS.T
                    + inst.lam * np.eye(len(support)))
            g = AtS @ inst.loss.grad(z0)
            x = np.zeros(inst.d)
            x[support] = (np.zeros(len(support))
                          - np.linalg.solve(hess, g[:, None])[:, 0])
            assert solve_restricted(inst, support).x.tobytes() == x.tobytes()

import numpy as np
import pytest

import l0bfs.baselines
from helpers import random_instance
from l0bfs import Instance, exhaustive_solve, htp, iht, make_loss, omp

KINDS = ["quadratic", "huber", "logistic"]
METHODS = [omp, iht, htp]


def identity_instance(b, k, lam=0.01):
    d = len(b)
    return Instance(np.eye(d), make_loss("quadratic", np.array(b, float)),
                    lam, k)


def ridge_value(inst, support):
    # with an identity design the restricted solve separates per coordinate
    b = inst.loss.b
    n = inst.n
    x = np.zeros(inst.d)
    x[list(support)] = b[list(support)] / (1.0 + n * inst.lam)
    return x, inst.objective(x)


class TestCommonContract:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_feasible_and_never_below_true_minimum(self, method, kind):
        for seed in range(3):
            inst = random_instance(kind, d=7, k=3, n=10, seed=seed, lam=1e-2)
            oracle = exhaustive_solve(inst)
            rep = method(inst)
            assert np.flatnonzero(rep.x).size <= inst.k
            assert rep.objective >= oracle.objective - 1e-12
            assert rep.objective <= inst.objective(np.zeros(inst.d)) + 1e-12
            assert rep.objective == pytest.approx(inst.objective(rep.x),
                                                  abs=1e-12)

    @pytest.mark.parametrize("method", METHODS)
    def test_counts_as_one_solver_call(self, method):
        inst = random_instance("huber", d=6, k=2, n=9, seed=5, lam=1e-2)
        rep = method(inst)
        assert rep.solver_calls == 1
        assert rep.pruned == 0
        assert rep.heap_peak == 0

    @pytest.mark.parametrize("method", METHODS)
    def test_deterministic(self, method):
        inst = random_instance("logistic", d=6, k=2, n=9, seed=6, lam=1e-2)
        a, b = method(inst), method(inst)
        np.testing.assert_array_equal(a.x, b.x)
        assert a.objective == b.objective


class TestOmp:
    def test_greedy_path_on_identity_design(self):
        # coordinates decouple, so greedy must take residual magnitudes in
        # order: |b| = (3, 2, 1) picks 0 then 1
        inst = identity_instance([3.0, -2.0, 1.0], k=2)
        rep = omp(inst)
        assert rep.support == (0, 1)
        _, value = ridge_value(inst, (0, 1))
        assert rep.objective == pytest.approx(value, abs=1e-10)

    def test_gradient_ties_break_to_smallest_index(self):
        inst = identity_instance([2.0, -2.0, 1.0], k=1)
        assert omp(inst).support == (0,)

    def test_k_equals_d_reaches_unconstrained_minimum(self):
        inst = random_instance("quadratic", d=5, k=5, n=8, seed=7, lam=1e-2)
        rep = omp(inst)
        assert rep.objective == pytest.approx(
            exhaustive_solve(inst).objective, rel=1e-10)

    def test_converged_flag_always_true(self):
        inst = random_instance("huber", d=6, k=2, n=9, seed=8, lam=1e-2)
        assert omp(inst).converged


class TestIht:
    def test_identity_design_lands_on_top_magnitudes(self):
        # the gradient step with the default size maps any point straight
        # to the ridge solution, so thresholding keeps the largest entries
        inst = identity_instance([1.0, -4.0, 2.0, 0.5], k=2)
        rep = iht(inst)
        assert rep.support == (1, 2)
        assert rep.converged
        _, value = ridge_value(inst, (1, 2))
        assert rep.objective == pytest.approx(value, abs=1e-10)

    def test_iteration_cap_reports_not_converged(self, monkeypatch):
        monkeypatch.setattr(l0bfs.baselines, "MAX_ITERS", 1)
        inst = random_instance("huber", d=6, k=2, n=9, seed=9, lam=1e-2)
        rep = iht(inst)
        assert not rep.converged
        assert np.flatnonzero(rep.x).size <= inst.k


class TestHtp:
    def test_identity_design_fixed_point(self):
        inst = identity_instance([1.0, -4.0, 2.0, 0.5], k=2)
        rep = htp(inst)
        assert rep.support == (1, 2)
        assert rep.converged

    def test_first_iteration_cap(self, monkeypatch):
        # one iteration cannot see a repeated support, so the flag is off
        # but the best visited solution is still returned
        monkeypatch.setattr(l0bfs.baselines, "MAX_ITERS", 1)
        inst = random_instance("quadratic", d=6, k=2, n=9, seed=10, lam=1e-2)
        rep = htp(inst)
        assert not rep.converged
        assert np.flatnonzero(rep.x).size <= inst.k

    def test_never_worse_than_its_first_support(self, monkeypatch):
        # htp keeps the best visited restricted solution, and the first
        # visited support is exactly the one iht reaches after one step
        for seed in range(4):
            inst = random_instance("huber", d=7, k=3, n=10, seed=11 + seed,
                                   lam=1e-2)
            with monkeypatch.context() as m:
                m.setattr(l0bfs.baselines, "MAX_ITERS", 1)
                first = htp(inst)
            assert htp(inst).objective <= first.objective + 1e-12

import dataclasses

import numpy as np
import pytest

import l0bfs.subtree
from helpers import (cold_start, domain_point, leaf_values, random_instance,
                     random_interior_node, relaxation_value, subtree_min,
                     support_norm_sq)
from l0bfs import (DUAL_BOUND, EXACT, PRUNED, DualState, Instance, Node,
                   SolverConfig, dual_value, newton_maximize, pdal_maximize,
                   pdal_root_state, prox_topk_sq, root_node, sga_maximize,
                   sga_root_state, solve_restricted, subtree_solve, top_norm)
from l0bfs.subtree import SUBROUTINES, ZERO_TOL

KINDS = ["quadratic", "huber", "logistic"]


def small_instance(kind, seed, d=6, k=2, n=9):
    return random_instance(kind, d=d, k=k, n=n, seed=seed, lam=1e-2)


def hand_built(inst, beta):
    """A start state at beta, with its w and conj and a zero y."""
    w, conj = inst.AT @ beta, inst.loss.conjugate(beta)
    return DualState(beta, np.zeros(inst.d), w, conj)


def assert_rerun_is_stationary(maximize):
    """A rerun from an ascent's final state loses no more than the
    tolerance, and takes at least two iterations: convergence counts from
    the second on."""
    inst = small_instance("huber", 12)
    node = root_node(inst.d, inst.k)
    p0 = inst.objective(np.zeros(inst.d))
    cfg = SolverConfig()
    first = maximize(inst, node, pdal_root_state(inst), p0, cfg)
    again = maximize(inst, node, first.state, p0, cfg)
    assert again.low >= (first.low - l0bfs.subtree._EPSILON
                         * max(first.value, 1.0))
    assert again.status == DUAL_BOUND and again.iterations >= 2


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="subroutine"):
            SolverConfig(subroutine="lbfgs")
        with pytest.raises(ValueError):
            SolverConfig(max_dual_iters=0)

    def test_epsilon_is_not_a_field(self):
        # the ascent tolerance is the constant subtree._EPSILON
        with pytest.raises(TypeError):
            SolverConfig(epsilon=1e-4)

    def test_no_warm_start_switch(self):
        # every child starts from its parent's final state
        assert [f.name for f in dataclasses.fields(SolverConfig)] == [
            "subroutine", "max_dual_iters"]
        with pytest.raises(TypeError):
            SolverConfig(warm_start=False)

    @pytest.mark.parametrize("field,value", [
        ("max_dual_iters", True), ("max_dual_iters", 2.5),
        ("max_dual_iters", "10")])
    def test_wrong_types_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})

    def test_numpy_scalars_accepted(self):
        assert SolverConfig(max_dual_iters=np.int64(10)).max_dual_iters == 10

    def test_looser_tolerance_ends_a_root_ascent_sooner(self, monkeypatch):
        inst = small_instance("huber", 12)
        node = root_node(inst.d, inst.k)
        p0 = inst.objective(np.zeros(inst.d))

        def iterations():
            return pdal_maximize(inst, node, pdal_root_state(inst), p0,
                                 SolverConfig()).iterations

        default = iterations()
        monkeypatch.setattr(l0bfs.subtree, "_EPSILON", 1e-3)
        assert iterations() < default


class TestDualValue:
    def test_zero_dual_point_gives_zero_for_quadratic(self):
        inst = small_instance("quadratic", 0)
        node = root_node(inst.d, inst.k)
        assert dual_value(inst, node, np.zeros(inst.n)) == pytest.approx(0.0)

    def test_off_domain_gives_minus_infinity(self):
        inst = small_instance("huber", 1)
        beta = np.zeros(inst.n)
        beta[0] = 2.0 * inst.loss.delta / inst.n
        node = root_node(inst.d, inst.k)
        assert dual_value(inst, node, beta) == -np.inf

    @pytest.mark.parametrize("kind", KINDS)
    def test_lower_bounds_subtree_minimum(self, kind):
        rng = np.random.default_rng(2)
        for seed in range(6):
            inst = small_instance(kind, seed)
            leaves = leaf_values(inst)
            for _ in range(25):
                node = random_interior_node(rng, inst.d, inst.k)
                beta = domain_point(inst.loss, rng, scale=0.2)
                dv = dual_value(inst, node, beta)
                assert dv <= subtree_min(inst, node, leaves) + 1e-9

    def test_accepts_precomputed_correlation_vector(self):
        inst = small_instance("quadratic", 3)
        node = root_node(inst.d, inst.k)
        rng = np.random.default_rng(4)
        beta = 0.1 * rng.standard_normal(inst.n)
        w = inst.AT @ beta
        assert dual_value(inst, node, beta, w) == pytest.approx(
            dual_value(inst, node, beta))


class TestExactBranches:
    @pytest.mark.parametrize("kind", KINDS)
    def test_leaf_is_exact_restricted_solve(self, kind):
        inst = small_instance(kind, 5)
        node = Node((1, 4), inst.d, inst.k)
        res = subtree_solve(inst, node)
        ref = solve_restricted(inst, node.indices)
        assert res.status == EXACT
        assert res.low == res.value == pytest.approx(ref.value, abs=1e-12)
        np.testing.assert_allclose(res.x, ref.x, atol=1e-12)

    def test_short_tail_solves_union_exactly(self):
        inst = small_instance("huber", 6)
        node = Node((2, 4), inst.d, 3)  # tail {5}; union has size k
        object.__setattr__(inst, "k", 3)
        res = subtree_solve(inst, node)
        ref = solve_restricted(inst, (2, 4, 5))
        assert res.status == EXACT
        assert res.value == pytest.approx(ref.value, abs=1e-12)

    def test_k_equals_d_root_is_unconstrained_solve(self):
        inst = random_instance("quadratic", d=4, k=4, n=7, seed=7)
        res = subtree_solve(inst, root_node(4, 4))
        ref = solve_restricted(inst, range(4))
        assert res.status == EXACT
        assert res.value == pytest.approx(ref.value, abs=1e-12)

    def test_exact_branch_honors_pruning(self):
        inst = small_instance("quadratic", 8)
        node = Node((1, 4), inst.d, inst.k)
        res = subtree_solve(inst, node, prune_threshold=-1.0)
        assert res.status == PRUNED
        assert res.low > -1.0


class TestPdal:
    @pytest.mark.parametrize("kind", KINDS)
    def test_prunes_on_initial_dual_value(self, kind):
        inst = small_instance(kind, 9)
        node = root_node(inst.d, inst.k)
        res = pdal_maximize(inst, node, pdal_root_state(inst), -1.0,
                            SolverConfig())
        assert res.status == PRUNED
        assert res.iterations == 0
        assert res.x is None and res.value == np.inf

    @pytest.mark.parametrize("kind", KINDS)
    def test_low_bounds_subtree_minimum(self, kind):
        rng = np.random.default_rng(10)
        cfg = SolverConfig()
        for seed in range(4):
            inst = small_instance(kind, 20 + seed)
            leaves = leaf_values(inst)
            p0 = inst.objective(np.zeros(inst.d))
            for _ in range(8):
                node = random_interior_node(rng, inst.d, inst.k)
                res = pdal_maximize(inst, node, pdal_root_state(inst), p0, cfg)
                f_node = subtree_min(inst, node, leaves)
                assert res.low <= f_node + 1e-9
                if res.status != PRUNED:
                    # the polished point is a global incumbent; it may leave
                    # the subtree, so only feasibility is guaranteed
                    assert np.flatnonzero(res.x).size <= inst.k
                    assert res.value == pytest.approx(
                        inst.objective(res.x), abs=1e-12)

    def test_bound_tightens_to_relaxation_optimum(self, monkeypatch):
        # at the root the dual optimum equals the minimum of the convex
        # relaxation min_x L(Ax) + h(x), where h is the conjugate of
        # u -> (1/(2*lam)) * top_norm(k, u)^2.  Both the proximal step
        # for h (through the Moreau identity) and the value of h (by
        # proximal point iteration on its defining supremum) are built
        # here from prox_topk_sq alone, so this route shares nothing
        # with the dual ascent loop under test.
        inst = small_instance("quadratic", 11)
        node = root_node(inst.d, inst.k)
        lam, k = inst.lam, inst.k

        def h_value(x):
            u = np.zeros(inst.d)
            for _ in range(20_000):
                u = prox_topk_sq(1.0 / lam, k, u + x)
            return x @ u - 0.5 / lam * top_norm(k, u)**2

        step = inst.loss.gamma / inst.op_norm**2
        x = np.zeros(inst.d)
        for _ in range(40_000):
            u = x - step * (inst.AT @ inst.loss.grad(inst.A @ x))
            x = u - prox_topk_sq(1.0 / (lam * step), k, u)
        p_relax = inst.loss.value(inst.A @ x) + h_value(x)

        # the root's subtree minimum: no D exceeds it, so nothing prunes
        monkeypatch.setattr(l0bfs.subtree, "_EPSILON", 1e-10)
        res = pdal_maximize(inst, node, pdal_root_state(inst),
                            subtree_min(inst, node), SolverConfig())
        assert res.low <= p_relax + 1e-9
        assert res.low == pytest.approx(p_relax, rel=1e-4, abs=1e-8)

    @pytest.mark.parametrize("kind", KINDS)
    def test_full_support_node_closes_gap_to_restricted_solve(
            self, kind, monkeypatch):
        # with |S| = k the tail carries no weight and the dual optimum
        # is the restricted minimum on S itself
        inst = small_instance(kind, 24)
        node = Node((0, 3), inst.d, inst.k)
        ref = solve_restricted(inst, node.indices)
        # ref.value is the subtree minimum
        monkeypatch.setattr(l0bfs.subtree, "_EPSILON", 1e-10)
        res = pdal_maximize(inst, node, pdal_root_state(inst), ref.value,
                            SolverConfig())
        assert res.low <= ref.value + 1e-9
        assert res.low == pytest.approx(ref.value, rel=1e-5, abs=1e-8)

    def test_unconstrained_root_closes_gap_to_ridge_solve(self, monkeypatch):
        # k = d makes the relaxation exact, so the bound should meet
        # the unconstrained minimum
        inst = random_instance("huber", d=5, k=5, n=8, seed=25, lam=1e-2)
        ref = solve_restricted(inst, range(5))
        # ref.value is the subtree minimum
        monkeypatch.setattr(l0bfs.subtree, "_EPSILON", 1e-10)
        res = pdal_maximize(inst, root_node(5, 5), pdal_root_state(inst),
                            ref.value, SolverConfig())
        assert res.low <= ref.value + 1e-9
        assert res.low == pytest.approx(ref.value, rel=1e-5, abs=1e-8)

    def test_rerun_from_final_state_is_stationary(self):
        assert_rerun_is_stationary(pdal_maximize)

    def test_iteration_cap_still_returns_valid_bound(self):
        inst = small_instance("logistic", 13)
        node = root_node(inst.d, inst.k)
        cfg = SolverConfig(max_dual_iters=2)   # P(0) < 1: no D exceeds 1
        res = pdal_maximize(inst, node, pdal_root_state(inst), 1.0, cfg)
        assert res.status == DUAL_BOUND
        assert res.iterations == 2
        assert res.low <= subtree_min(inst, node) + 1e-9
        assert np.flatnonzero(res.x).size <= inst.k


class TestSga:
    @pytest.mark.parametrize("kind", KINDS)
    def test_prunes_on_initial_dual_value(self, kind):
        inst = small_instance(kind, 14)
        node = root_node(inst.d, inst.k)
        res = sga_maximize(inst, node, sga_root_state(inst), -1.0,
                           SolverConfig(subroutine="sga"))
        assert res.status == PRUNED and res.iterations == 0

    @pytest.mark.parametrize("kind", KINDS)
    def test_low_bounds_subtree_minimum(self, kind):
        rng = np.random.default_rng(15)
        cfg = SolverConfig(subroutine="sga")
        for seed in range(4):
            inst = small_instance(kind, 30 + seed)
            leaves = leaf_values(inst)
            p0 = inst.objective(np.zeros(inst.d))
            for _ in range(8):
                node = random_interior_node(rng, inst.d, inst.k)
                res = sga_maximize(inst, node, sga_root_state(inst), p0, cfg)
                assert res.low <= subtree_min(inst, node, leaves) + 1e-9

    def test_low_never_below_initial_dual_value(self):
        # the backtracking accepts only non-decreasing dual values
        rng = np.random.default_rng(16)
        cfg = SolverConfig(subroutine="sga")   # P(0) < 1: no D exceeds 1
        inst = small_instance("huber", 17)
        node = root_node(inst.d, inst.k)
        for _ in range(10):
            beta0 = inst.loss.project_domain(0.05 * rng.standard_normal(inst.n))
            init = hand_built(inst, beta0)
            d0 = dual_value(inst, node, beta0)
            res = sga_maximize(inst, node, init, 1.0, cfg)
            assert res.low >= d0 - 1e-12

    def test_iteration_cap_still_returns_valid_bound(self):
        inst = small_instance("quadratic", 18)
        node = root_node(inst.d, inst.k)
        cfg = SolverConfig(subroutine="sga", max_dual_iters=2)   # P(0) < 1
        res = sga_maximize(inst, node, sga_root_state(inst), 1.0, cfg)
        assert res.status == DUAL_BOUND
        assert res.low <= subtree_min(inst, node) + 1e-9

    def test_rerun_from_final_state_is_stationary(self):
        assert_rerun_is_stationary(sga_maximize)

    @pytest.mark.parametrize("kind", KINDS)
    def test_reads_no_y(self, kind):
        # sga starts from beta alone: two states that differ only in y give
        # the same ascent
        rng = np.random.default_rng(20)
        inst = small_instance(kind, 20)
        node = root_node(inst.d, inst.k)
        p0 = inst.objective(np.zeros(inst.d))
        start = hand_built(inst, domain_point(inst.loss, rng, 0.3))
        moved = dataclasses.replace(start, y=rng.standard_normal(inst.d))
        a, b = (sga_maximize(inst, node, init, p0, SolverConfig())
                for init in (start, moved))
        assert a.status == DUAL_BOUND and a.iterations >= 2
        assert (a.low, a.value, a.status, a.iterations) == (
            b.low, b.value, b.status, b.iterations)


class TestNewton:
    def test_support_split_matches_the_variational_form(self):
        rng = np.random.default_rng(40)
        for _ in range(500):
            d = int(rng.integers(1, 12))
            r = int(rng.integers(1, d + 1))
            v = rng.standard_normal(d) * (rng.random(d) < 0.7)
            if rng.random() < 0.3:   # ties
                v = np.round(v)
            order, f, theta, value = l0bfs.subtree._support_split(np.abs(v),
                                                                  r)
            assert value == pytest.approx(support_norm_sq(v, r), rel=1e-13,
                                          abs=1e-300)
            u = np.abs(v)[order]
            assert 0 <= f < r
            assert np.all(u[:f] > theta) and np.all(u[f:] <= theta)

    @pytest.mark.parametrize("kind", KINDS)
    def test_prunes_on_initial_dual_value(self, kind):
        inst = small_instance(kind, 9)
        node = root_node(inst.d, inst.k)
        res = newton_maximize(inst, node, pdal_root_state(inst), -1.0,
                              SolverConfig())
        assert res.status == PRUNED and res.iterations == 0
        assert res.x is None and res.value == np.inf

    @pytest.mark.parametrize("kind", KINDS)
    def test_low_bounds_subtree_minimum_with_a_certified_gap(self, kind):
        # F(y) - low <= _EPSILON * incumbent at the point y it hands its
        # children, by a norm computed apart from the library's closed form
        rng = np.random.default_rng(41)
        cfg = SolverConfig()
        bounded = 0
        for seed in range(4):
            inst = small_instance(kind, 50 + seed)
            leaves = leaf_values(inst)
            p0 = inst.objective(np.zeros(inst.d))
            for _ in range(8):
                node = random_interior_node(rng, inst.d, inst.k)
                res = newton_maximize(inst, node, pdal_root_state(inst), p0,
                                      cfg)
                assert res.low <= subtree_min(inst, node, leaves) + 1e-9
                if res.status != DUAL_BOUND:
                    continue
                bounded += 1
                value = relaxation_value(inst, node, res.state.y)
                assert res.low <= value + 1e-12
                assert value - res.low <= l0bfs.subtree._EPSILON * p0 + 1e-15
                assert res.value == pytest.approx(inst.objective(res.x),
                                                  abs=1e-12)
                assert np.flatnonzero(res.x).size <= inst.k
        assert bounded

    @pytest.mark.parametrize("kind", KINDS)
    def test_meets_the_dual_optimum(self, kind, monkeypatch):
        # the relaxation's minimum is D's maximum: a tight newton bound and
        # a tight pdal ascent meet
        inst = small_instance(kind, 11)
        node = root_node(inst.d, inst.k)
        p0 = inst.objective(np.zeros(inst.d))
        monkeypatch.setattr(l0bfs.subtree, "_EPSILON", 1e-10)
        newton = newton_maximize(inst, node, pdal_root_state(inst), p0,
                                 SolverConfig())
        pdal = pdal_maximize(inst, node, pdal_root_state(inst), p0,
                             SolverConfig())
        assert newton.status == pdal.status == DUAL_BOUND
        assert newton.low == pytest.approx(pdal.low, rel=1e-6)
        assert newton.low >= pdal.low - 1e-9 * p0

    def test_children_start_from_x_with_the_listing_budget(self):
        inst = small_instance("huber", 12)
        node = root_node(inst.d, inst.k)
        p0 = inst.objective(np.zeros(inst.d))
        res = newton_maximize(inst, node, pdal_root_state(inst), p0,
                              SolverConfig())
        state = res.state
        assert res.status == DUAL_BOUND and res.iterations >= 2
        assert state.iterations == (l0bfs.subtree._LISTING_PER_STEP
                                    * res.iterations)
        # beta = grad L(A y), with its w and conj, and the polish point is
        # the top-k truncation of y
        np.testing.assert_allclose(state.beta,
                                   inst.loss.grad(inst.A @ state.y),
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_array_equal(state.w, inst.AT @ state.beta)
        assert state.conj == inst.loss.conjugate(state.beta)
        polish = solve_restricted(inst, np.flatnonzero(
            l0bfs.subtree.truncate_top(inst.k, state.y)))
        assert res.value == polish.value

    def test_rerun_from_final_state_is_stationary(self):
        # from its own minimizer a newton bound certifies at its first step
        inst = small_instance("huber", 12)
        node = root_node(inst.d, inst.k)
        p0 = inst.objective(np.zeros(inst.d))
        first = newton_maximize(inst, node, pdal_root_state(inst), p0,
                                SolverConfig())
        again = newton_maximize(inst, node, first.state, p0, SolverConfig())
        assert again.status == DUAL_BOUND and again.iterations == 1
        assert again.low >= first.low - l0bfs.subtree._EPSILON * p0

    @pytest.mark.parametrize("fault", ["singular", "no_armijo_step"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_a_failed_step_ends_the_bound_at_its_best_value(
            self, kind, fault, monkeypatch):
        # the failed step is the second: the first reads D at the start
        inst = small_instance(kind, 13)
        node = root_node(inst.d, inst.k)
        p0 = inst.objective(np.zeros(inst.d))
        start = dual_value(inst, node, inst.loss.grad(np.zeros(inst.n)))
        if fault == "singular":
            def solve(*args):
                raise np.linalg.LinAlgError("singular")
            monkeypatch.setattr(l0bfs.subtree, "solve", solve)
        else:
            monkeypatch.setattr(l0bfs.subtree, "_ARMIJO", 1e300)
        res = newton_maximize(inst, node, pdal_root_state(inst), p0,
                              SolverConfig())
        assert res.status == DUAL_BOUND and res.iterations == 2
        assert res.low == max(start, dual_value(inst, node,
                                                np.zeros(inst.n)))
        assert res.low <= subtree_min(inst, node) + 1e-9


class TestPruneAfterAscent:
    MAXIMIZERS = {"newton": (newton_maximize, pdal_root_state),
                  "pdal": (pdal_maximize, pdal_root_state),
                  "sga": (sga_maximize, sga_root_state)}

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("subroutine", SUBROUTINES)
    def test_prune_between_entry_and_final_bound(self, subroutine, kind,
                                                 monkeypatch):
        # a threshold halfway between the entry D and the unpruned final
        # bound passes the entry test and is crossed during the ascent
        maximize, root_state = self.MAXIMIZERS[subroutine]
        inst = random_instance(kind, d=8, k=3, n=12, seed=0, lam=1e-2)
        node = root_node(inst.d, inst.k)
        p0 = inst.objective(np.zeros(inst.d))
        d_entry = dual_value(inst, node, root_state(inst).beta)
        unpruned = maximize(inst, node, root_state(inst), p0,
                            SolverConfig(subroutine=subroutine))
        threshold = 0.5 * (d_entry + unpruned.low)

        calls = [0]
        original = l0bfs.subtree.prox_topk_sq_conjugate

        def counted(*args):
            calls[0] += 1
            return original(*args)

        monkeypatch.setattr(l0bfs.subtree, "prox_topk_sq_conjugate", counted)
        res = maximize(inst, node, root_state(inst), threshold,
                       SolverConfig(subroutine=subroutine))
        assert res.status == PRUNED
        assert res.iterations >= 1
        assert res.low > threshold
        assert res.x is None
        if subroutine == "pdal":
            # the prune test comes before the linesearch of its iteration,
            # so the pruned run makes the top-k prox calls of exactly
            # iterations - 1 full iterations; none of them prunes, so a
            # run capped there at the same threshold takes the same steps
            assert res.iterations >= 2
            pruned_calls, calls[0] = calls[0], 0
            cfg = SolverConfig(max_dual_iters=res.iterations - 1)
            capped = maximize(inst, node, root_state(inst), threshold, cfg)
            assert capped.iterations == res.iterations - 1
            assert pruned_calls == calls[0] > 0


class TestWarmStartMonotonicity:
    @pytest.mark.parametrize("kind", KINDS)
    def test_dual_value_never_drops_from_parent_to_child(self, kind):
        rng = np.random.default_rng(19)
        for seed in range(5):
            inst = random_instance(kind, d=7, k=3, n=10, seed=40 + seed,
                                   lam=1e-2)
            for _ in range(20):
                parent = random_interior_node(rng, inst.d, inst.k)
                children = parent.children()
                if not children:
                    continue
                child = children[int(rng.integers(0, len(children)))]
                beta = domain_point(inst.loss, rng, scale=0.3)
                assert (dual_value(inst, parent, beta)
                        <= dual_value(inst, child, beta) + 1e-10)


class TestPdalWarmStart:
    @pytest.mark.parametrize("kind", KINDS)
    def test_warm_child_bound_matches_cold_child(self, kind):
        # a child warm-started from its parent's final state must still
        # ascend, not stop after one step at a bound no tighter than the
        # parent's (what the parent's spent step schedule leads to)
        inst = random_instance(kind, d=8, k=3, n=12, seed=0, lam=1e-2)
        root = root_node(inst.d, inst.k)
        p0 = inst.objective(np.zeros(inst.d))
        cfg = SolverConfig(subroutine="pdal")
        parent = subtree_solve(inst, root, prune_threshold=p0, cfg=cfg)
        # a zero count keeps the children ascending instead of listing them
        handed = dataclasses.replace(parent.state, iterations=0)
        for child in root.children():
            warm = subtree_solve(inst, child, warm=handed,
                                 prune_threshold=p0, cfg=cfg)
            cold = subtree_solve(inst, child, prune_threshold=p0, cfg=cfg)
            if cold.status != DUAL_BOUND:
                continue
            assert warm.iterations > 1
            # the warm bound closes most of what the cold bound gains
            # over the parent's bound
            assert (warm.low - parent.low
                    >= 0.9 * (cold.low - parent.low)), child.indices

    @pytest.mark.parametrize("at_optimum", [False, True])
    @pytest.mark.parametrize("kind", KINDS)
    def test_listed_child_is_bounded_by_its_leaves(self, kind, at_optimum):
        # with the parent's real iteration count the children it lists
        # skip the ascent; pruning at the optimum prunes all but the
        # optimum's own child, and at P(0), above every leaf, none
        inst = random_instance(kind, d=8, k=3, n=12, seed=0, lam=1e-2)
        root = root_node(inst.d, inst.k)
        p0 = inst.objective(np.zeros(inst.d))
        parent = subtree_solve(inst, root, prune_threshold=p0)
        threshold = min(leaf_values(inst).values()) if at_optimum else p0
        statuses = set()
        for child in root.children():
            leaves = child.leaves(parent.state.iterations)
            if leaves is None:
                continue
            res = subtree_solve(inst, child, warm=parent.state,
                                prune_threshold=threshold)
            best = min(solve_restricted(inst, row).value for row in leaves)
            statuses.add(res.status)
            assert res.iterations == 0
            if res.status == EXACT:
                assert res.low == pytest.approx(best, rel=1e-10, abs=0.0)
                assert res.value == res.low
            else:
                assert res.status == PRUNED
                assert res.low <= best + 1e-10 * abs(best)
        assert PRUNED in statuses if at_optimum else statuses == {EXACT}


class TestSubtreeSolveDispatch:
    @pytest.mark.parametrize("indices", [(1,), ()])
    def test_node_of_another_tree_rejected(self, indices):
        # (1,) is listed, () ascends; read against a d = 6 tail, either
        # would bound the d = 8 subtree from too few supports
        inst = random_instance("quadratic", d=8, k=2, n=12, seed=2, lam=1e-2)
        node = Node(indices, 6, 2)
        with pytest.raises(ValueError, match="d=6"):
            subtree_solve(inst, node)
        for maximize, root_state in ((newton_maximize, pdal_root_state),
                                     (pdal_maximize, pdal_root_state),
                                     (sga_maximize, sga_root_state)):
            with pytest.raises(ValueError, match="d=6"):
                maximize(inst, node, root_state(inst), np.inf, SolverConfig())
        other_k = Node(indices, 8, 3)
        with pytest.raises(ValueError, match="k=3"):
            subtree_solve(inst, other_k)

    @pytest.mark.parametrize("subroutine", SUBROUTINES)
    @pytest.mark.parametrize("indices", [(), (0,)])
    def test_a_wrong_warm_is_rejected_before_it_is_read(self, indices,
                                                        subroutine):
        # the root ascends, the last-level (0,) is listed: both paths, and
        # an expansion, reject a warm that is not a DualState
        inst = small_instance("quadratic", 21)
        node = Node(indices, inst.d, inst.k)
        assert node.lists_leaves() == bool(indices)
        cfg = SolverConfig(subroutine=subroutine)
        for wrong in ({"beta": np.zeros(inst.n)}, np.zeros(inst.n), 3):
            with pytest.raises(ValueError, match="warm must be a DualState"):
                subtree_solve(inst, node, warm=wrong, prune_threshold=1.0,
                              cfg=cfg)
            with pytest.raises(ValueError, match="warm must be a DualState"):
                l0bfs.subtree._Siblings(inst, root_node(inst.d, inst.k),
                                        wrong)

    @pytest.mark.parametrize("maximize",
                             [newton_maximize, pdal_maximize, sga_maximize])
    def test_maximizers_reject_a_wrong_init(self, maximize):
        inst = small_instance("quadratic", 21)
        node = root_node(inst.d, inst.k)
        for wrong in (None, {"beta": np.zeros(inst.n)}, np.zeros(inst.n), 3):
            with pytest.raises(ValueError, match="init must be a DualState"):
                maximize(inst, node, wrong, 1.0, SolverConfig())

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("subroutine", SUBROUTINES)
    def test_either_maximizer_starts_from_the_others_state(self, subroutine,
                                                           kind):
        # the root ascends with one maximizer, its children with the other:
        # listed (the root's own iteration count) and ascending (a count of
        # 0), every child gets an admissible low
        inst = random_instance(kind, d=8, k=3, n=12, seed=0, lam=1e-2)
        leaves = leaf_values(inst)
        root = root_node(inst.d, inst.k)
        p0 = inst.objective(np.zeros(inst.d))
        other = "sga" if subroutine == "pdal" else "pdal"
        parent = subtree_solve(inst, root, prune_threshold=p0,
                               cfg=SolverConfig(subroutine=other))
        assert parent.status == DUAL_BOUND
        cfg = SolverConfig(subroutine=subroutine)
        listed = ascended = 0
        for warm in (parent.state,
                     dataclasses.replace(parent.state, iterations=0)):
            for child in root.children():
                res = subtree_solve(inst, child, warm=warm,
                                    prune_threshold=p0, cfg=cfg)
                assert res.low <= subtree_min(inst, child, leaves) + 1e-9
                if child.lists_leaves(warm.iterations):
                    listed += 1
                else:
                    ascended += res.iterations > 0
        assert listed and ascended

    @pytest.mark.parametrize("kind", KINDS)
    def test_root_states_hold_their_start_point(self, kind):
        # w = A^T 0 and conj = L*(0), bit for bit, in both root states
        inst = small_instance(kind, 22)
        zero = np.zeros(inst.n)
        for state in (pdal_root_state(inst), sga_root_state(inst)):
            assert not state.beta.any() and state.iterations == 0
            assert state.w.tobytes() == (inst.AT @ zero).tobytes()
            assert (float(state.conj).hex()
                    == float(inst.loss.conjugate(zero)).hex())
        with pytest.raises(TypeError):
            DualState(beta=zero, y=np.zeros(inst.d))

    @pytest.mark.parametrize("subroutine", SUBROUTINES)
    def test_dual_state_returned_for_children(self, subroutine):
        inst = small_instance("quadratic", 23)
        node = root_node(inst.d, inst.k)
        cfg = SolverConfig(subroutine=subroutine)   # P(0) < 1
        res = subtree_solve(inst, node, prune_threshold=1.0, cfg=cfg)
        assert res.status == DUAL_BOUND
        assert isinstance(res.state, DualState)
        if subroutine == "sga":   # its y is its polish point
            np.testing.assert_array_equal(
                res.state.y,
                l0bfs.subtree._sga_primal(inst, node, res.state.w))

    @pytest.mark.parametrize("cfg", [{}, {"subroutine": "sga"}, "pdal", 0])
    def test_wrong_type_cfg_rejected(self, cfg):
        inst = small_instance("huber", 24)
        with pytest.raises(ValueError, match="cfg"):
            subtree_solve(inst, root_node(inst.d, inst.k), prune_threshold=1.0,
                          cfg=cfg)

    def test_none_cfg_is_the_default(self):
        inst = small_instance("huber", 24)
        node = root_node(inst.d, inst.k)
        p0 = inst.objective(np.zeros(inst.d))
        res = subtree_solve(inst, node, prune_threshold=p0, cfg=None)
        ref = subtree_solve(inst, node, prune_threshold=p0, cfg=SolverConfig())
        assert (res.status, res.low, res.iterations) == (
            ref.status, ref.low, ref.iterations)

    @pytest.mark.parametrize("maximize,root_state",
                             [(newton_maximize, pdal_root_state),
                              (pdal_maximize, pdal_root_state),
                              (sga_maximize, sga_root_state)])
    def test_maximizers_take_none_cfg_as_the_default(self, maximize,
                                                     root_state):
        inst = small_instance("huber", 24)
        node = root_node(inst.d, inst.k)
        res = maximize(inst, node, root_state(inst), np.inf, None)
        ref = maximize(inst, node, root_state(inst), np.inf, SolverConfig())
        assert res.status == DUAL_BOUND
        assert (res.low, res.value, res.iterations) == (
            ref.low, ref.value, ref.iterations)

    @pytest.mark.parametrize("maximize,root_state",
                             [(newton_maximize, pdal_root_state),
                              (pdal_maximize, pdal_root_state),
                              (sga_maximize, sga_root_state)])
    def test_maximizers_reject_a_dict_cfg(self, maximize, root_state):
        inst = small_instance("huber", 24)
        with pytest.raises(ValueError, match="cfg"):
            maximize(inst, root_node(inst.d, inst.k), root_state(inst),
                     np.inf, {"subroutine": "pdal"})


class TestSharedParentState:
    """Children read the entry bound off their parent's shared state."""

    @staticmethod
    def parent_state(kind, subroutine):
        inst = random_instance(kind, d=8, k=3, n=12, seed=3, lam=1e-2)
        root = root_node(inst.d, inst.k)
        p0 = inst.objective(np.zeros(inst.d))
        cfg = SolverConfig(subroutine=subroutine)
        res = subtree_solve(inst, root, prune_threshold=p0, cfg=cfg)
        assert res.status == DUAL_BOUND
        return inst, root, res.state

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("subroutine", SUBROUTINES)
    def test_exact_child_pruned_at_entry_without_restricted_solve(
            self, subroutine, kind, monkeypatch):
        inst, root, state = self.parent_state(kind, subroutine)
        cfg = SolverConfig(subroutine=subroutine)
        # children (j,) with j >= d - k have |S| + |tail| <= k: exact branch
        exact = [c for c in root.children() if c.size + c.tail_size <= c.k]
        assert exact
        calls = [0]
        original = l0bfs.subtree.solve_restricted

        def counted(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        minima = [solve_restricted(inst, c.indices + tuple(range(c.cut, c.d)))
                  .value for c in exact]
        monkeypatch.setattr(l0bfs.subtree, "solve_restricted", counted)
        for child, minimum in zip(exact, minima):
            d = dual_value(inst, child, state.beta)
            res = subtree_solve(inst, child, warm=state,
                                prune_threshold=d - 1e-3, cfg=cfg)
            assert res.status == PRUNED
            assert res.iterations == 0
            assert res.x is None and res.value == np.inf
            assert res.low == d
            assert res.low <= minimum
        assert calls[0] == 0

    @pytest.mark.parametrize("subroutine", SUBROUTINES)
    def test_exact_node_pruned_at_entry_lists_no_leaves(self, subroutine,
                                                        monkeypatch):
        inst, root, state = self.parent_state("huber", subroutine)
        node = Node((5,), inst.d, inst.k)   # takes its whole tail
        d = dual_value(inst, node, state.beta)
        calls = {"penalty": 0, "leaves": 0}
        penalty, leaves = l0bfs.subtree._penalty, Node.leaves

        def counted_penalty(*args):
            calls["penalty"] += 1
            return penalty(*args)

        def counted_leaves(self):
            calls["leaves"] += 1
            return leaves(self)

        monkeypatch.setattr(l0bfs.subtree, "_penalty", counted_penalty)
        monkeypatch.setattr(Node, "leaves", counted_leaves)
        res = subtree_solve(inst, node, warm=state, prune_threshold=d - 1e-3,
                            cfg=SolverConfig(subroutine=subroutine))
        assert res.status == PRUNED and res.low == d
        assert calls == {"penalty": 1, "leaves": 0}

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("subroutine", SUBROUTINES)
    def test_entry_bound_bit_equal_to_dual_value(self, subroutine, kind):
        inst, root, state = self.parent_state(kind, subroutine)
        cfg = SolverConfig(subroutine=subroutine)
        for child in root.children():
            d = dual_value(inst, child, state.beta)
            # any threshold below D prunes at entry, with D as the bound
            res = subtree_solve(inst, child, warm=state,
                                prune_threshold=d - 1.0, cfg=cfg)
            assert res.status == PRUNED and res.iterations == 0
            assert float(res.low).hex() == float(d).hex(), child.indices

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("subroutine", SUBROUTINES)
    def test_state_arrays_are_read_only(self, subroutine, kind):
        inst, _, state = self.parent_state(kind, subroutine)
        for st in (state, pdal_root_state(inst)):
            arrays = [v for v in vars(st).values()
                      if isinstance(v, np.ndarray)]
            assert arrays
            for a in arrays:
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = 1.0
        assert state.w is not None
        np.testing.assert_array_equal(state.w, inst.AT @ state.beta)
        assert state.conj == inst.loss.conjugate(state.beta)


class TestLastLevel:
    """Nodes one index short of a leaf are bounded by their leaves' minima."""

    @staticmethod
    def last_level_node(kind, seed=4):
        # a last-level child of a root ascent, so the entry test reads a
        # real shared dual state
        inst = random_instance(kind, d=8, k=2, n=12, seed=seed, lam=1e-2)
        root = root_node(inst.d, inst.k)
        p0 = inst.objective(np.zeros(inst.d))
        parent = subtree_solve(inst, root, prune_threshold=p0)
        assert parent.status == DUAL_BOUND
        node = Node((1,), inst.d, inst.k)
        minima = [solve_restricted(inst, leaf).value for leaf in node.leaves()]
        return inst, node, parent.state, minima

    @staticmethod
    def leaf_bounds(inst, node, state):
        return [dual_value(inst, Node(tuple(leaf), inst.d, inst.k), state.beta)
                for leaf in node.leaves()]

    @pytest.mark.parametrize("kind", KINDS)
    def test_exact_at_the_least_leaf_minimum(self, kind, monkeypatch):
        inst, node, state, minima = self.last_level_node(kind)
        # exact from the parent's state and from the cold start alike
        for cold in (False, True):
            if cold:
                cold_start(monkeypatch)
            res = subtree_solve(inst, node, warm=state,
                                prune_threshold=max(minima))
            assert res.status == EXACT
            assert res.iterations == 0 and res.state is None
            assert res.low == res.value == inst.objective(res.x)
            assert res.low == pytest.approx(min(minima), rel=1e-12, abs=1e-15)
            assert np.flatnonzero(res.x).tolist() in node.leaves().tolist()

    @pytest.mark.parametrize("kind", KINDS)
    def test_screened_leaves_are_never_solved(self, kind, monkeypatch):
        inst, node, state, minima = self.last_level_node(kind)
        bounds = self.leaf_bounds(inst, node, state)
        # a threshold between the leaves' entry bounds screens some of them
        threshold = float(np.median(bounds))
        solved = []
        original = l0bfs.subtree.solve_restricted_batch

        def recorded(inst, supports, *args, **kwargs):
            solved.extend(map(tuple, supports))
            return original(inst, supports, *args, **kwargs)

        monkeypatch.setattr(l0bfs.subtree, "solve_restricted_batch", recorded)
        res = subtree_solve(inst, node, warm=state, prune_threshold=threshold)
        leaves = list(map(tuple, node.leaves()))
        expect = [leaf for leaf, bound in zip(leaves, bounds)
                  if bound <= threshold + ZERO_TOL]
        assert 0 < len(expect) < len(leaves)
        assert solved == expect
        assert res.low <= min(minima) + 1e-12

    @pytest.mark.parametrize("kind", KINDS)
    def test_pruned_when_every_leaf_exceeds_the_threshold(self, kind):
        inst, node, state, minima = self.last_level_node(kind)
        d_entry = dual_value(inst, node, state.beta)
        threshold = 0.5 * (d_entry + min(minima))
        assert d_entry < threshold < min(minima)
        res = subtree_solve(inst, node, warm=state, prune_threshold=threshold)
        assert res.status == PRUNED
        assert res.x is None and res.value == np.inf
        assert threshold < res.low <= min(minima) + 1e-12

    def test_k_one_root_is_a_last_level_node(self):
        inst = random_instance("huber", d=6, k=1, n=9, seed=5, lam=1e-2)
        res = subtree_solve(inst, root_node(6, 1),
                            prune_threshold=inst.objective(np.zeros(6)))
        best = min(solve_restricted(inst, [j]).value for j in range(6))
        assert res.status == EXACT
        assert res.value == pytest.approx(best, rel=1e-12)


class TestChildEntryBounds:
    """An expansion's one-pass entry bounds of a node's children equal the
    entry bound subtree_solve takes for each child from the same state."""

    @staticmethod
    def instances(kind):
        inst = random_instance(kind, d=9, k=4, n=12, seed=8, lam=1e-2)
        A = inst.A.copy()
        A[:, 5], A[:, 7] = A[:, 2], -A[:, 2]   # ties in |w| across the tail
        return [inst, Instance(A=A, loss=inst.loss, lam=inst.lam, k=inst.k)]

    @staticmethod
    def states(inst, subroutine, rng):
        cfg = SolverConfig(subroutine=subroutine)
        p0 = inst.objective(np.zeros(inst.d))
        ascended = subtree_solve(inst, root_node(inst.d, inst.k),
                                 prune_threshold=p0, cfg=cfg).state
        out = [ascended]
        for beta in (np.zeros(inst.n), domain_point(inst.loss, rng, 0.3)):
            out.append(hand_built(inst, beta))
        assert not out[1].w.any()   # w = 0
        return out

    @staticmethod
    def interior_nodes(d, k):
        nodes, frontier = [], [root_node(d, k)]
        while frontier:
            node = frontier.pop()
            if node.size < k:
                nodes.append(node)
                frontier.extend(node.children())
        return nodes

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("subroutine", SUBROUTINES)
    def test_equal_to_subtree_solve_entry_bound(self, subroutine, kind):
        rng = np.random.default_rng(9)
        cfg = SolverConfig(subroutine=subroutine)
        for inst in self.instances(kind):
            for state in self.states(inst, subroutine, rng):
                for node in self.interior_nodes(inst.d, inst.k):
                    got = l0bfs.subtree._child_entry_bounds(
                        inst, node, state.w, state.conj)
                    children = node.children()
                    assert len(got) == len(children)
                    for bound, child in zip(got, children):
                        # a threshold of -inf prunes every child at entry,
                        # with its entry bound as the low
                        res = subtree_solve(inst, child, warm=state,
                                            prune_threshold=-np.inf, cfg=cfg)
                        assert res.status == PRUNED and res.iterations == 0
                        # D = -conj - penalty / (2 lam) is a difference, so
                        # rel 1e-15 (4-5 ulps) counts at the larger of its
                        # terms: a logistic D cancels most of them
                        scale = max(abs(state.conj), abs(state.conj + res.low))
                        assert abs(bound - res.low) <= 1e-15 * scale, \
                            (node.indices, child.indices)
                    # the last child's tail holds exactly what it still needs
                    assert children[-1].tail_size == inst.k - node.size - 1

    @pytest.mark.parametrize("subroutine", SUBROUTINES)
    def test_no_screen_where_children_do_not_start_from_the_state(
            self, subroutine):
        # an expansion whose children start cold or from a hand-built state
        # gives D at the state they do start from, not a placeholder;
        # _child_entry_bounds takes the hand-built state's start point as
        # well
        inst = self.instances("huber")[0]
        state = self.states(inst, subroutine, np.random.default_rng(0))[0]
        built = hand_built(inst, state.beta)
        cold = np.zeros(inst.n)
        cases = [(None, cold), (built, state.beta)]
        node = Node((1,), inst.d, inst.k)
        direct = l0bfs.subtree._child_entry_bounds(inst, node, built.w,
                                                   built.conj)
        for warm, beta in cases:
            got = l0bfs.subtree._Siblings(inst, node, warm).entry
            want = [dual_value(inst, child, beta) for child in node.children()]
            conj = inst.loss.conjugate(beta)
            scale = max(abs(conj), *(abs(conj + d) for d in want))
            for bounds in [got] + [direct] * (warm is built):
                assert np.isfinite(bounds).all()
                np.testing.assert_allclose(bounds, want, rtol=0.0,
                                           atol=1e-15 * scale)
        assert (l0bfs.subtree._Siblings(inst, node, None).entry.tolist()
                == [-inst.loss.conjugate(cold)] * len(node.children()))

    def test_an_expansion_lists_the_children(self):
        # every interior node of the d <= 9 trees: one entry bound per child
        for d in range(1, 10):
            for k in range(1, d + 1):
                inst = random_instance("huber", d=d, k=k, n=6, seed=d,
                                       lam=1e-2)
                for node in self.interior_nodes(d, k):
                    expansion = l0bfs.subtree._Siblings(inst, node, None)
                    assert expansion.children == [
                        child.indices for child in node.children()]
                    assert len(expansion.entry) == len(expansion.children)

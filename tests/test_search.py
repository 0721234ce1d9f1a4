import dataclasses
import itertools
import math

import numpy as np
import pytest

import l0bfs.restricted
import l0bfs.search
import l0bfs.subtree
from helpers import (cold_start, leaf_values, listed_node_bound,
                     random_instance, subtree_min)
from l0bfs import (DUAL_BOUND, EXACT, PRUNED, BoundResult, ConvergenceError,
                   Node, SolverConfig, bfs_solve, dual_value, exhaustive_solve,
                   solve_restricted, subtree_solve)
from l0bfs.subtree import SUBROUTINES, ZERO_TOL

KINDS = ["quadratic", "huber", "logistic"]
DELTAS = [1e-4, 1e-3, 1e-2, 1e-1]


def configure(monkeypatch, subroutine, overrides):
    """SolverConfig(subroutine), where {"cold": True} also starts every
    node cold (helpers.cold_start) and {"epsilon": e} sets the ascent
    tolerance subtree._EPSILON to e."""
    if overrides.get("cold"):
        cold_start(monkeypatch)
    if "epsilon" in overrides:
        monkeypatch.setattr(l0bfs.subtree, "_EPSILON", overrides["epsilon"])
    return SolverConfig(subroutine=subroutine)


def assert_matches_oracle(report, oracle, rel=1e-8):
    gap = report.objective - oracle.objective
    assert gap <= rel * max(1.0, abs(oracle.objective))
    assert gap >= -1e-12  # brute force is the true minimum


class Points(l0bfs.search._Siblings):
    """An expansion that keeps the dual points its re-screens read."""

    def _start(self, inst, warm):
        super()._start(inst, warm)
        self.points = []

    def rescreen(self, i, state):
        if state is not None:
            self.points.append(state.beta)
        super().rescreen(i, state)

    def start_beta(self):
        """The children's start point: the parent's beta, or zero where
        they start cold."""
        return l0bfs.subtree._start_state(self.inst, self.warm).beta

    def screen(self, i):
        """max D(beta; child i) over the start point and the points of the
        re-screens so far, each by dual_value."""
        return max(dual_value(self.inst, self.node(i), beta)
                   for beta in [self.start_beta(), *self.points])


class TestExhaustive:
    @pytest.mark.parametrize("kind", KINDS)
    def test_agrees_with_leaf_table(self, kind):
        inst = random_instance(kind, d=6, k=2, n=9, seed=0, lam=1e-2)
        table = leaf_values(inst)
        best_support, best_value = min(table.items(), key=lambda kv: kv[1])
        rep = exhaustive_solve(inst)
        assert rep.objective == pytest.approx(best_value, abs=1e-12)
        assert rep.support == best_support
        assert rep.solver_calls == len(table)


class TestBfsExact:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force(self, kind, seed):
        inst = random_instance(kind, d=7, k=3, n=10, seed=seed, lam=1e-2)
        oracle = exhaustive_solve(inst)
        rep = bfs_solve(inst)
        assert_matches_oracle(rep, oracle)
        assert rep.converged
        assert np.flatnonzero(rep.x).size <= inst.k

    @pytest.mark.parametrize("kind", KINDS)
    def test_sga_subroutine_matches_brute_force(self, kind):
        inst = random_instance(kind, d=7, k=3, n=10, seed=11, lam=1e-2)
        oracle = exhaustive_solve(inst)
        rep = bfs_solve(inst, cfg=SolverConfig(subroutine="sga"))
        assert_matches_oracle(rep, oracle)

    @pytest.mark.parametrize("warm", [True, False])
    @pytest.mark.parametrize("capped", [True, False])
    def test_ablations_stay_exact(self, warm, capped, monkeypatch):
        # capped: every ascent stops at its second iteration, at a loose
        # bound
        if not warm:
            cold_start(monkeypatch)
        inst = random_instance("huber", d=7, k=3, n=10, seed=12, lam=1e-2)
        oracle = exhaustive_solve(inst)
        cfg = SolverConfig(max_dual_iters=2 if capped else 50_000)
        rep = bfs_solve(inst, cfg=cfg)
        assert_matches_oracle(rep, oracle)

    def test_k_equals_d_returns_after_one_bound(self):
        inst = random_instance("quadratic", d=4, k=4, n=7, seed=13, lam=1e-2)
        rep = bfs_solve(inst, record_bounds=True)
        assert rep.solver_calls == 1
        assert rep.pruned == 0
        assert rep.bound_log[0][2] == EXACT


class TestDelta:
    def test_negative_delta_rejected(self):
        inst = random_instance("quadratic", d=5, k=2, n=8, seed=14, lam=1e-2)
        with pytest.raises(ValueError):
            bfs_solve(inst, delta=-1e-9)

    def test_nan_delta_rejected(self):
        inst = random_instance("huber", d=8, k=2, n=12, seed=0, lam=1e-2)
        with pytest.raises(ValueError):
            bfs_solve(inst, delta=float("nan"))

    @pytest.mark.parametrize("delta", [True, "0", None])
    def test_wrong_type_delta_rejected(self, delta):
        inst = random_instance("huber", d=6, k=2, n=10, seed=1, lam=1e-2)
        with pytest.raises(ValueError, match="delta"):
            bfs_solve(inst, delta=delta)

    @pytest.mark.parametrize("flag", ["no", 1, None])
    def test_wrong_type_record_bounds_rejected(self, flag):
        inst = random_instance("huber", d=6, k=2, n=10, seed=1, lam=1e-2)
        with pytest.raises(ValueError, match="record_bounds"):
            bfs_solve(inst, record_bounds=flag)

    @pytest.mark.parametrize("cfg", [{"subroutine": "sga"}, "pdal", 0, {}])
    def test_wrong_type_cfg_rejected(self, cfg):
        inst = random_instance("huber", d=6, k=2, n=10, seed=1, lam=1e-2)
        with pytest.raises(ValueError, match="cfg"):
            bfs_solve(inst, cfg=cfg)

    def test_numpy_bool_record_bounds_accepted(self):
        inst = random_instance("huber", d=6, k=2, n=10, seed=1, lam=1e-2)
        assert bfs_solve(inst, record_bounds=np.bool_(False)).bound_log is None
        rep = bfs_solve(inst, record_bounds=np.bool_(True))
        assert len(rep.bound_log) == rep.solver_calls

    def test_numpy_delta_accepted(self):
        inst = random_instance("huber", d=6, k=2, n=10, seed=1, lam=1e-2)
        rep = bfs_solve(inst, delta=np.float64(0.0))
        assert rep.objective == bfs_solve(inst).objective

    @pytest.mark.parametrize("kind", KINDS)
    def test_gap_bound_and_no_extra_work(self, kind):
        for seed in range(3):
            inst = random_instance(kind, d=7, k=3, n=10, seed=20 + seed,
                                   lam=1e-2)
            p_star = exhaustive_solve(inst).objective
            base_calls = bfs_solve(inst).solver_calls
            for delta in DELTAS:
                rep = bfs_solve(inst, delta=delta)
                assert rep.objective <= p_star + delta + 1e-8
                # relaxing the stopping test never expands more nodes
                assert rep.solver_calls <= base_calls

    @pytest.mark.parametrize("kind,seed", [("huber", 7), ("quadratic", 29),
                                           ("logistic", 15)])
    @pytest.mark.parametrize("delta", [0.0, 1e-3, 1e-2, 1e-1])
    def test_returns_the_best_candidate_found(self, kind, seed, delta):
        # a delta > 0 stop may come before the best candidate's subtree is
        # popped; the search still returns that candidate, not a worse one
        inst = random_instance(kind, d=12, k=3, n=20, seed=seed)
        rep = bfs_solve(inst, delta=delta, record_bounds=True)
        found = [value for _, _, status, value in rep.bound_log
                 if status != PRUNED]
        assert rep.objective == inst.objective(rep.x) == min(found)


class TestChildScreen:
    """The children an expansion prunes at entry without building them are
    the ones subtree_solve, computing its own entry bound, would prune at
    entry or after its ascent, with the same search after.  A child pruned
    at entry has the max of D over the start point and the points of its
    siblings' ascents as its low."""

    # the last one: longer ascents, whose iteration counts list children
    # with more leaves
    CFGS = [{}, {"cold": True}, {"epsilon": 1e-8}]

    @staticmethod
    def run(inst, cfg, monkeypatch, screen):
        bounded, screens = [], []
        solve = l0bfs.search.subtree_solve

        def counted(inst, node, *args):
            bounded.append(node.indices)
            return solve(inst, node, *args)

        class Counted(Points):  # listed children, from a batch
            def bound(self, i, p_min):
                res = super().bound(i, p_min)
                screened = self.entry[i] > p_min + ZERO_TOL
                if res is not None and not screened:
                    bounded.append(self.node(i).indices)
                screens.append(None)
                if screened:   # whether the start point prunes it, max D
                    start = dual_value(self.inst, self.node(i),
                                       self.start_beta())
                    screens[-1] = start > p_min + ZERO_TOL, self.screen(i)
                return res

        class Unlisted(l0bfs.search._Siblings):  # every child: subtree_solve
            def bound(self, i, p_min):
                return None

        with monkeypatch.context() as m:
            m.setattr(l0bfs.search, "subtree_solve", counted)
            m.setattr(l0bfs.search, "_Siblings", Counted)
            if not screen:   # no screen: subtree_solve bounds every child
                m.setattr(l0bfs.search, "_Siblings", Unlisted)
            report = bfs_solve(inst, cfg=cfg, record_bounds=True)
            return report, bounded, screens

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("subroutine", SUBROUTINES)
    @pytest.mark.parametrize("overrides", CFGS)
    def test_same_search_as_without_the_screen(self, kind, subroutine,
                                               overrides, monkeypatch):
        cfg = configure(monkeypatch, subroutine, overrides)
        screened = at_start = 0
        for seed, (d, k) in enumerate([(8, 3), (10, 3), (10, 4)]):
            inst = random_instance(kind, d=d, k=k, n=12, seed=80 + seed,
                                   lam=1e-2)
            got, bounded, screens = self.run(inst, cfg, monkeypatch,
                                             screen=True)
            want, unscreened, _ = self.run(inst, cfg, monkeypatch,
                                           screen=False)
            assert unscreened == [e[0] for e in want.bound_log]
            assert ((got.solver_calls, got.pruned, got.heap_peak)
                    == (want.solver_calls, want.pruned, want.heap_peak))
            # the reference solves each listed child's leaves in a batch of
            # its own, which can move a restricted minimum by an ulp
            assert got.support == want.support
            assert got.objective == pytest.approx(want.objective, rel=1e-14)
            for a, b, screen in zip(got.bound_log, want.bound_log, screens,
                                    strict=True):
                assert (a[0], a[2]) == (b[0], b[2])
                low = b[1] if screen is None else screen[1]
                assert a[1] == pytest.approx(low, rel=1e-14, abs=0.0)
                assert a[3] == pytest.approx(b[3], rel=1e-14, abs=0.0)
            screens = [screen for screen in screens if screen is not None]
            assert len(screens) == got.solver_calls - len(bounded)
            screened += len(screens)
            at_start += sum(start for start, _ in screens)
        # a cold child's D at beta = 0 never exceeds the incumbent, so only
        # a sibling's ascent point prunes it at entry
        assert screened > 0
        assert (at_start > 0) == ("cold" not in overrides)


class TestRescreen:
    """After each ascent of an expansion's child, the children after it take
    their entry test at the larger of their entry bound and their D at the
    point that ascent stopped at."""

    SHAPES = [(10, 4), (12, 3)]
    CFGS = [{}, {"cold": True}]

    @staticmethod
    def instances(kind):
        return [random_instance(kind, d=d, k=k, n=12, seed=100 + seed)
                for d, k in TestRescreen.SHAPES for seed in range(3)]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("subroutine", SUBROUTINES)
    def test_raises_the_later_entry_bounds(self, kind, subroutine,
                                           monkeypatch):
        raised = []

        class Spy(l0bfs.search._Siblings):
            def rescreen(self, i, state):
                before = np.array(self.entry)
                super().rescreen(i, state)
                after = np.array(self.entry)
                assert state is not None
                np.testing.assert_array_equal(after[:i + 1], before[:i + 1])
                for j in range(i + 1, len(self.children)):
                    node = Node(self.children[j], self.inst.d, self.inst.k)
                    want = max(before[j], dual_value(self.inst, node,
                                                     state.beta))
                    assert after[j] == pytest.approx(want, rel=1e-14, abs=0.0)
                raised.append(int(np.sum(after > before)))

        monkeypatch.setattr(l0bfs.search, "_Siblings", Spy)
        cfg = SolverConfig(subroutine=subroutine)
        for inst in self.instances(kind):
            bfs_solve(inst, cfg=cfg)
        assert sum(raised) > 0

    @pytest.mark.parametrize("kind", KINDS)
    # the dual ascents: no warm newton child of these instances is pruned
    # by a re-screen alone
    @pytest.mark.parametrize("subroutine", ["pdal", "sga"])
    @pytest.mark.parametrize("overrides", CFGS)
    def test_exact_with_admissible_lows(self, kind, subroutine, overrides,
                                        monkeypatch):
        cfg = configure(monkeypatch, subroutine, overrides)
        rescreened = 0

        class Spy(Points):
            def bound(self, i, p_min):
                nonlocal rescreened
                res = super().bound(i, p_min)
                threshold = p_min + ZERO_TOL
                start = dual_value(self.inst, self.node(i), self.start_beta())
                rescreened += bool(self.entry[i] > threshold >= start)
                return res

        monkeypatch.setattr(l0bfs.search, "_Siblings", Spy)
        for inst in self.instances(kind):
            oracle = exhaustive_solve(inst)
            rep = bfs_solve(inst, cfg=cfg, record_bounds=True)
            assert_matches_oracle(rep, oracle)
            assert rep.support == oracle.support
            table = leaf_values(inst)
            for indices, low, status, _ in rep.bound_log:
                if status == PRUNED:
                    node = Node(indices, inst.d, inst.k)
                    assert low <= subtree_min(inst, node, table) + 1e-9
        assert rescreened > 0


class TestBoundLog:
    def test_disabled_by_default(self):
        inst = random_instance("quadratic", d=6, k=2, n=9, seed=30, lam=1e-2)
        assert bfs_solve(inst).bound_log is None

    def test_one_entry_per_bound_with_valid_nodes(self):
        inst = random_instance("huber", d=7, k=3, n=10, seed=31, lam=1e-2)
        rep = bfs_solve(inst, record_bounds=True)
        assert len(rep.bound_log) == rep.solver_calls
        assert sum(1 for e in rep.bound_log if e[2] == PRUNED) == rep.pruned
        for indices, low, status, value in rep.bound_log:
            Node(indices, inst.d, inst.k)  # raises if not a tree node
            assert np.isfinite(low)
            if status == PRUNED:
                assert value == np.inf or value == low  # exact-branch prune
            else:
                assert low <= value + 1e-12

    @pytest.mark.parametrize("kind", KINDS)
    def test_prune_decisions_replay_against_incumbent(self, kind):
        # replay the chronological log: the incumbent starts at P(0) and
        # improves with each non-pruned candidate, and every prune must
        # have been triggered by the incumbent in force at that moment
        inst = random_instance(kind, d=7, k=3, n=10, seed=32, lam=1e-2)
        cfg = SolverConfig()
        rep = bfs_solve(inst, record_bounds=True, cfg=cfg)
        p = inst.objective(np.zeros(inst.d))
        for _, low, status, value in rep.bound_log:
            if status == PRUNED:
                assert low > p + ZERO_TOL
            else:
                assert low <= p + ZERO_TOL
                if value < p:
                    p = value
        assert rep.objective == pytest.approx(p, abs=1e-12)

    def test_lows_stay_below_subtree_minima(self):
        inst = random_instance("quadratic", d=6, k=2, n=9, seed=33, lam=1e-2)
        table = leaf_values(inst)
        rep = bfs_solve(inst, record_bounds=True)
        for indices, low, status, value in rep.bound_log:
            node = Node(indices, inst.d, inst.k)
            f_node = min(v for s, v in table.items()
                         if node.covers_support(s))
            assert low <= f_node + 1e-9

    def test_pruned_subtrees_never_cover_the_optimum(self):
        for seed in range(5):
            inst = random_instance("huber", d=7, k=3, n=10, seed=40 + seed,
                                   lam=1e-2)
            oracle_support = exhaustive_solve(inst).support
            rep = bfs_solve(inst, record_bounds=True)
            for indices, _, status, _ in rep.bound_log:
                if status == PRUNED:
                    node = Node(indices, inst.d, inst.k)
                    assert not node.covers_support(oracle_support)


class TestEmptyHeap:
    """The search loop under a stubbed subtree_solve and sibling batch path:
    an empty heap means every subtree was bounded above the incumbent, which
    is returned (x = 0 with P(0) when even the root was pruned, which only
    float noise can do: D <= F <= P(0))."""

    @staticmethod
    def stub(monkeypatch, root_result, child_result):
        calls = []

        def fake(inst, node, warm, prune_threshold, cfg):
            calls.append(node.indices)
            return root_result if node.size == 0 else child_result

        class Fake(l0bfs.search._Siblings):  # listed children get fake too
            def bound(self, i, p_min):
                if not self.node(i).lists_leaves(self.limit):
                    return None
                return fake(self.inst, self.node(i), self.warm, p_min, None)

        monkeypatch.setattr(l0bfs.search, "subtree_solve", fake)
        monkeypatch.setattr(l0bfs.search, "_Siblings", Fake)
        return calls

    def test_pruned_root_returns_zero(self, monkeypatch):
        inst = random_instance("huber", d=6, k=2, n=9, seed=34, lam=1e-2)
        pruned = BoundResult(low=np.inf, x=None, value=np.inf, status=PRUNED,
                             state=None, iterations=0)
        calls = self.stub(monkeypatch, pruned, None)
        rep = bfs_solve(inst, record_bounds=True)
        np.testing.assert_array_equal(rep.x, np.zeros(inst.d))
        assert rep.objective == inst.objective(np.zeros(inst.d))
        assert calls == [()]
        assert (rep.solver_calls, rep.pruned, rep.heap_peak) == (1, 1, 0)
        assert rep.bound_log == [((), np.inf, PRUNED, np.inf)]

    def test_later_empty_heap_returns_the_incumbent(self, monkeypatch):
        # every child is pruned, so the heap empties after the root's
        # expansion and the root's candidate is the incumbent returned
        inst = random_instance("huber", d=6, k=2, n=9, seed=34, lam=1e-2)
        x_root = np.zeros(inst.d)
        x_root[[1, 4]] = 0.5, -0.25
        value = 0.5 * inst.objective(np.zeros(inst.d))
        root = BoundResult(low=0.0, x=x_root, value=value,
                           status=DUAL_BOUND, state=None, iterations=1)
        pruned = BoundResult(low=np.inf, x=None, value=np.inf, status=PRUNED,
                             state=None, iterations=0)
        calls = self.stub(monkeypatch, root, pruned)
        rep = bfs_solve(inst)
        assert rep.x is x_root and rep.objective == value
        children = [(j,) for j in range(inst.d - inst.k + 1)]
        assert calls == [()] + children
        assert (rep.solver_calls, rep.pruned, rep.heap_peak) == (6, 5, 1)


class TestReportFields:
    def test_support_property_and_counters(self):
        inst = random_instance("logistic", d=7, k=3, n=10, seed=50, lam=1e-2)
        rep = bfs_solve(inst)
        assert rep.support == tuple(int(i) for i in np.flatnonzero(rep.x))
        assert len(rep.support) <= inst.k
        assert rep.heap_peak >= 1
        assert rep.wall_time > 0
        assert rep.solver_calls >= 1
        assert rep.objective == pytest.approx(inst.objective(rep.x),
                                              abs=1e-12)

    def test_deterministic_across_runs(self):
        inst = random_instance("huber", d=7, k=3, n=10, seed=51, lam=1e-2)
        a, b = bfs_solve(inst), bfs_solve(inst)
        assert a.objective == b.objective
        assert a.solver_calls == b.solver_calls
        assert a.pruned == b.pruned
        np.testing.assert_array_equal(a.x, b.x)


class TestExhaustiveBatches:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("d,k", [(7, 1), (7, 3), (5, 5)])
    def test_equals_a_loop_of_single_solves(self, kind, d, k):
        inst = random_instance(kind, d=d, k=k, n=10, seed=70, lam=1e-2)
        loop = [solve_restricted(inst, s)
                for s in itertools.combinations(range(d), k)]
        best = min(loop, key=lambda sol: sol.value)
        rep = exhaustive_solve(inst)
        assert rep.solver_calls == len(loop)
        assert rep.objective == pytest.approx(best.value, rel=1e-12, abs=1e-15)
        assert rep.objective == inst.objective(rep.x)
        assert rep.support == tuple(np.flatnonzero(best.x))
        np.testing.assert_allclose(rep.x, best.x, atol=1e-10)

    @pytest.mark.parametrize("kind", KINDS)
    def test_chunks_cover_every_support_once_in_order(self, kind, monkeypatch):
        # 84 supports in batches of 9 rows: nine full batches and one of 3
        d, k = 9, 3
        inst = random_instance(kind, d=d, k=k, n=10, seed=71, lam=1e-2)
        monkeypatch.setattr(l0bfs.subtree, "_BATCH_ROWS", 1)
        batches, solve = [], l0bfs.search.solve_restricted_batch

        def spy(inst, supports):
            batches.append([tuple(map(int, s)) for s in supports])
            return solve(inst, supports)

        monkeypatch.setattr(l0bfs.search, "solve_restricted_batch", spy)
        rep = exhaustive_solve(inst)
        assert [len(b) for b in batches] == [d] * 9 + [3]
        assert list(itertools.chain(*batches)) == list(
            itertools.combinations(range(d), k))
        loop = [solve_restricted(inst, s)
                for s in itertools.combinations(range(d), k)]
        best = min(loop, key=lambda sol: sol.value)
        assert rep.solver_calls == len(loop)
        assert rep.objective == pytest.approx(best.value, rel=1e-12, abs=1e-15)
        assert rep.support == tuple(np.flatnonzero(best.x))
        np.testing.assert_allclose(rep.x, best.x, atol=1e-10)

    @pytest.mark.parametrize("kind", KINDS)
    def test_does_not_list_supports_through_the_tree(self, kind, monkeypatch):
        # the reference must not share the search's leaf listing
        inst = random_instance(kind, d=7, k=3, n=10, seed=72, lam=1e-2)
        table = leaf_values(inst)

        def leaves(self, limit=0):
            raise AssertionError("exhaustive_solve called Node.leaves")

        monkeypatch.setattr(Node, "leaves", leaves)
        rep = exhaustive_solve(inst)
        best_support, best_value = min(table.items(), key=lambda kv: kv[1])
        assert rep.support == best_support
        assert rep.objective == pytest.approx(best_value, rel=1e-12, abs=1e-15)


class TestSiblingBatches:
    """bfs_solve bounds the listed children of an expansion from shared
    leaf batches, each as it would be bounded leaf by leaf alone at its
    turn (listed_node_bound)."""

    # the last one: longer ascents, whose iteration counts list children
    # with more leaves
    CFGS = [{}, {"cold": True}, {"epsilon": 1e-8}]
    SHAPES = [(8, 3), (10, 3), (10, 4)]

    @staticmethod
    def instances(kind, shapes=SHAPES):
        return [random_instance(kind, d=d, k=k, n=12, seed=90 + seed, lam=1e-2)
                for seed, (d, k) in enumerate(shapes)]

    @staticmethod
    def spied(monkeypatch, on_bound=None):
        """Record the rows of every batch call, per expansion."""
        expansions, solve = [], l0bfs.subtree.solve_restricted_batch

        class Spied(Points):
            def __init__(self, *args):
                super().__init__(*args)
                expansions.append([])

            def bound(self, i, p_min):
                res = super().bound(i, p_min)
                if res is not None and on_bound is not None:
                    on_bound(self, i, p_min, res)
                return res

        def batch(inst, supports):
            expansions[-1].append(len(supports))
            return solve(inst, supports)

        monkeypatch.setattr(l0bfs.search, "_Siblings", Spied)
        monkeypatch.setattr(l0bfs.subtree, "solve_restricted_batch", batch)
        return expansions

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("subroutine", SUBROUTINES)
    @pytest.mark.parametrize("overrides", CFGS)
    def test_each_child_as_bounded_alone(self, kind, subroutine, overrides,
                                         monkeypatch):
        cfg = configure(monkeypatch, subroutine, overrides)
        statuses = []

        def check(siblings, i, p_min, got):
            node, inst = siblings.node(i), siblings.inst
            threshold = p_min + ZERO_TOL
            want = listed_node_bound(inst, node, siblings.start_beta(),
                                     threshold)
            assert got.status == want.status, node.indices
            statuses.append(got.status)
            screen = siblings.screen(i)
            if screen > threshold:
                # pruned at entry, at the start point or a sibling's ascent
                # point: the max of D over them is its low
                assert got.x is None
                assert got.low == pytest.approx(screen, rel=1e-14, abs=0.0)
                return
            assert (got.x is None) == (want.x is None)
            if got.x is not None:
                assert np.flatnonzero(got.x).tolist() == \
                    np.flatnonzero(want.x).tolist()
            for a, b in ((got.value, want.value), (got.low, want.low)):
                assert a == pytest.approx(b, rel=1e-14, abs=0.0)

        self.spied(monkeypatch, check)
        for inst in self.instances(kind):
            rep = bfs_solve(inst, cfg=cfg)
            assert_matches_oracle(rep, exhaustive_solve(inst))
        assert EXACT in statuses
        assert PRUNED in statuses

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("subroutine", SUBROUTINES)
    def test_one_batch_per_expansion_when_the_leaves_fit(
            self, kind, subroutine, monkeypatch):
        # every leaf of these trees fits one batch
        insts = self.instances(kind, self.SHAPES[:2])
        assert all(math.comb(inst.d, inst.k)
                   <= l0bfs.subtree._BATCH_ROWS * inst.d for inst in insts)
        expansions = self.spied(monkeypatch)
        cfg = SolverConfig(subroutine=subroutine)
        for inst in insts:
            bfs_solve(inst, cfg=cfg)
        assert all(len(calls) <= 1 for calls in expansions)
        assert sum(map(len, expansions)) > 1

    @pytest.mark.parametrize("kind", KINDS)
    # the dual ascents: a tighter tolerance barely lengthens a newton bound,
    # so its children's listings fit one batch
    @pytest.mark.parametrize("subroutine", ["pdal", "sga"])
    @pytest.mark.parametrize("overrides", CFGS)
    def test_small_batches_give_the_same_search(self, kind, subroutine,
                                                overrides, monkeypatch):
        cfg = configure(monkeypatch, subroutine, overrides)
        several = 0
        for inst in self.instances(kind):
            with monkeypatch.context() as m:
                want = bfs_solve(inst, cfg=cfg, record_bounds=True)
                m.setattr(l0bfs.subtree, "_BATCH_ROWS", 1)
                expansions = self.spied(m)
                got = bfs_solve(inst, cfg=cfg, record_bounds=True)
            assert max(itertools.chain(*expansions)) <= inst.d
            several += sum(len(calls) > 1 for calls in expansions)
            assert ((got.solver_calls, got.pruned, got.heap_peak)
                    == (want.solver_calls, want.pruned, want.heap_peak))
            assert got.support == want.support
            assert got.objective == pytest.approx(want.objective, rel=1e-14)
            for a, b in zip(got.bound_log, want.bound_log, strict=True):
                assert (a[0], a[2]) == (b[0], b[2])
                assert a[1] == pytest.approx(b[1], rel=1e-14, abs=0.0)
                assert a[3] == pytest.approx(b[3], rel=1e-14, abs=0.0)
        if overrides:
            # cold children screen out too few leaves, and parents that
            # ascend longer list too many, for one d-row batch to hold all
            # of an expansion's survivors
            assert several > 0

    @pytest.mark.parametrize("kind", KINDS)
    def test_an_uncertified_sibling_row_raises(self, kind, monkeypatch):
        # a row of a batch that another child's turn solved fails to certify
        inst = random_instance(kind, d=10, k=3, n=12, seed=95, lam=1e-2)
        turns, batches = [], []
        solve = l0bfs.subtree.solve_restricted_batch

        class Turns(l0bfs.search._Siblings):
            def bound(self, i, p_min):
                turns.append(self.node(i))
                res = super().bound(i, p_min)
                if res is not None:
                    turns.append(res)
                return res

        def batch(inst, supports):
            batches.append((turns[-1], [tuple(map(int, s)) for s in supports]))
            return solve(inst, supports)

        monkeypatch.setattr(l0bfs.search, "_Siblings", Turns)
        monkeypatch.setattr(l0bfs.subtree, "solve_restricted_batch", batch)
        bfs_solve(inst)
        call, row, node, support = next(
            (c, r, node, s) for c, (node, rows) in enumerate(batches)
            for r, s in enumerate(rows) if not node.covers_support(s))
        sibling = support[:node.size]

        newton, count = l0bfs.restricted._solve_newton, itertools.count()

        def stubbed(AT, supports, loss, lam):
            w, z, cert = newton(AT, supports, loss, lam)
            if supports.ndim == 2 and next(count) == call:
                cert = cert.copy()
                cert[row] = 1.0
            return w, z, cert

        monkeypatch.setattr(l0bfs.restricted, "_solve_newton", stubbed)
        turns.clear()
        with pytest.raises(ConvergenceError) as err:
            bfs_solve(inst)
        assert tuple(np.flatnonzero(err.value.best.x)) == support
        assert err.value.best.certificate == 1.0
        # the search stopped at the turn that solved the row: no bound came
        # from that batch, and the sibling the row belongs to had no turn
        assert turns[-1] == node
        assert sibling not in [n.indices for n in turns if isinstance(n, Node)]

    @pytest.mark.parametrize("rows,batches", [(16, [140, 70]), (1, None)])
    def test_a_capped_parent_stays_within_the_batch_size(self, rows, batches,
                                                         monkeypatch):
        # a parent at the iteration cap lists children with up to 84 leaves:
        # 84 + 56 fit 16 d = 160 rows; at d = 10 rows each child is solved
        # alone in batches, and none exceeds the size
        inst = random_instance("huber", d=10, k=4, n=12, seed=92, lam=1e-2)
        cfg = SolverConfig()   # no bound exceeds p0, so nothing prunes
        root, p0 = Node((), inst.d, inst.k), inst.objective(np.zeros(inst.d))
        warm = dataclasses.replace(
            subtree_solve(inst, root, None, p0, cfg).state,
            iterations=cfg.max_dual_iters)
        children = [(j,) for j in range(inst.d - inst.k + 1)]
        want = [listed_node_bound(inst, Node(c, inst.d, inst.k), warm.beta,
                                  np.inf) for c in children]
        monkeypatch.setattr(l0bfs.subtree, "_BATCH_ROWS", rows)
        expansions = self.spied(monkeypatch)
        siblings = l0bfs.search._Siblings(inst, root, warm)
        assert siblings.children == children
        got = [siblings.bound(i, p0) for i in range(len(children))]
        [sizes] = expansions
        assert max(sizes) <= rows * inst.d
        assert sum(sizes) == math.comb(inst.d, inst.k)
        if batches is not None:
            assert sizes == batches
        for a, b in zip(got, want, strict=True):
            assert a.status == b.status == EXACT
            assert np.flatnonzero(a.x).tolist() == np.flatnonzero(b.x).tolist()
            assert a.value == pytest.approx(b.value, rel=1e-14, abs=0.0)

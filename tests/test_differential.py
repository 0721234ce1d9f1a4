"""bfs_solve against enumeration on degenerate inputs.

Every case runs with each loss and each bound subroutine, and with pdal
started cold at every node (helpers.cold_start), and the certified
objective must equal exhaustive_solve's to 1e-10 relative.  The newton
bound is also audited node by node: every low it logs lies at or below its
subtree's brute-force minimum, every DUAL_BOUND it returns certifies its
relaxation gap, and a Newton step that fails, at its linear solve or in
its backtracking, still leaves an exact search.  The cases are
the ones where a bound, a screen or a restricted solve is most likely to
slip: duplicate and collinear columns (tied or singular leaves), a ridge
weight of 1e-10 (nearly singular Hessians and a steep dual penalty),
linearly separable labels (the logistic loss alone has no minimizer),
k = 1 (the root is a last-level node), k = d (the root is exact), an
all-zero design (||A|| = 0, so every x has P(x) >= P(0)), a generated
low-sample d = n = 10, k = 3 shape, where nodes two indices short of a
leaf are bounded by their listed leaves, up to 36 of them, and a wide
d = 40, n = 10 design, where a Newton system over more than n columns is
singular.
"""

import numpy as np
import pytest

import l0bfs.subtree
from helpers import (cold_start, leaf_values, random_instance,
                     relaxation_value, subtree_min)
from l0bfs import (DUAL_BOUND, GenSpec, Instance, Node, SolverConfig,
                   bfs_solve, exhaustive_solve, generate, make_loss,
                   root_node, subtree_solve)

KINDS = ["quadratic", "huber", "logistic"]
CASES = ["duplicate", "collinear", "tiny_lam", "separable", "k_one", "k_equals_d",
         "zero_design", "low_sample", "wide"]
# (subroutine, cold): each bound subroutine warm, and pdal cold, where its
# siblings' ascent points are all that prune a child at entry
CFGS = [("pdal", False), ("sga", False), ("pdal", True), ("newton", False)]


def case_instance(case, kind):
    if case == "k_one":
        return random_instance(kind, d=7, k=1, n=10, seed=80)
    if case == "k_equals_d":
        return random_instance(kind, d=5, k=5, n=8, seed=81)
    if case == "low_sample":
        return generate(GenSpec(kind, d=10, k=3, seed=1, n=10)).instance
    if case == "wide":
        return random_instance(kind, d=40, k=2, n=10, seed=86)
    if case == "zero_design":
        inst = random_instance(kind, d=4, k=2, n=6, seed=85)
        return Instance(A=np.zeros((6, 4)), loss=inst.loss, lam=inst.lam, k=2)
    if case == "tiny_lam":
        return random_instance(kind, d=7, k=3, n=10, seed=82, lam=1e-10)
    if case == "separable":
        rng = np.random.default_rng(83)
        A = rng.standard_normal((10, 7))
        x_star = np.zeros(7)
        x_star[[1, 4]] = [1.5, -2.0]
        b = np.sign(A @ x_star)
        return Instance(A=A, loss=make_loss(kind, b), lam=1e-10, k=2)
    inst = random_instance(kind, d=7, k=3, n=10, seed=84)
    A = inst.A.copy()
    if case == "duplicate":
        A[:, 5] = A[:, 2]
    else:
        A[:, 3] = -2.5 * A[:, 0]
    return Instance(A=A, loss=inst.loss, lam=inst.lam, k=inst.k)


@pytest.mark.parametrize("cfg", CFGS,
                         ids=["pdal", "sga", "pdal-cold", "newton"])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("case", CASES)
def test_bfs_matches_enumeration(case, kind, cfg, monkeypatch):
    subroutine, cold = cfg
    if cold:
        cold_start(monkeypatch)
    inst = case_instance(case, kind)
    oracle = exhaustive_solve(inst)
    rep = bfs_solve(inst, cfg=SolverConfig(subroutine=subroutine))
    assert rep.objective == pytest.approx(oracle.objective, rel=1e-10, abs=0.0)
    assert np.flatnonzero(rep.x).size <= inst.k
    assert rep.objective == inst.objective(rep.x)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("case", CASES)
def test_newton_lows_sit_below_subtree_minima(case, kind):
    inst = case_instance(case, kind)
    leaves = leaf_values(inst)
    rep = bfs_solve(inst, cfg=SolverConfig(subroutine="newton"),
                    record_bounds=True)
    for indices, low, _, _ in rep.bound_log:
        node = Node(indices, inst.d, inst.k)
        assert low <= subtree_min(inst, node, leaves) + 1e-9, indices


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("case", CASES)
def test_newton_dual_bounds_certify_their_gap(case, kind, monkeypatch):
    # F(y) - low <= _EPSILON * incumbent at every DUAL_BOUND node, F by a
    # norm computed apart from the library's closed form, unless a singular
    # Newton system failed a step of that bound: duplicate columns, both in
    # the block with one sign, give two equal rows
    bounds, failed = [], []
    newton, solve = l0bfs.subtree.newton_maximize, l0bfs.subtree.solve

    def audited(inst, node, init, p_min, cfg):
        failed.append(False)
        res = newton(inst, node, init, p_min, cfg)
        if res.status == DUAL_BOUND:
            bounds.append((node, p_min, res, failed[-1]))
        return res

    def counted(*args):
        try:
            return solve(*args)
        except np.linalg.LinAlgError:
            failed[-1] = True
            raise

    monkeypatch.setattr(l0bfs.subtree, "newton_maximize", audited)
    monkeypatch.setattr(l0bfs.subtree, "solve", counted)
    inst = case_instance(case, kind)
    bfs_solve(inst, cfg=SolverConfig(subroutine="newton"))
    for node, p_min, res, singular in bounds:
        value = relaxation_value(inst, node, res.state.y)
        assert res.low <= value + 1e-12 * abs(value)
        certified = value - res.low <= l0bfs.subtree._EPSILON * p_min + 1e-15
        assert certified or singular
    assert any(singular for *_, singular in bounds) == (case == "duplicate")


# (case, kind, root steps): the root bounds where pdal crawls, 22,305 and
# 4,145 dual iterations for the logistic loss, and the wide design, whose
# block system is singular once it holds more than n columns
DEGENERATE_ROOTS = [("separable", "logistic", 200),
                    ("tiny_lam", "logistic", 50),
                    ("separable", "huber", 50), ("tiny_lam", "quadratic", 50),
                    *(("wide", kind, 30) for kind in KINDS)]


@pytest.mark.parametrize("case,kind,steps", DEGENERATE_ROOTS)
def test_degenerate_root_certifies_in_few_newton_steps(case, kind, steps):
    inst = case_instance(case, kind)
    root = root_node(inst.d, inst.k)
    p0 = inst.objective(np.zeros(inst.d))
    res = subtree_solve(inst, root, prune_threshold=p0,
                        cfg=SolverConfig(subroutine="newton"))
    assert res.status == DUAL_BOUND and res.iterations < steps
    value = relaxation_value(inst, root, res.state.y)
    assert value - res.low <= l0bfs.subtree._EPSILON * p0


@pytest.mark.parametrize("fault", ["singular", "no_armijo_step"])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("case", CASES)
def test_failed_newton_steps_keep_the_search_exact(case, kind, fault,
                                                   monkeypatch):
    # every Newton step fails: each bound ends at the best D it read, which
    # still bounds its subtree, and no error leaves the bound
    if fault == "singular":
        def solve(*args):
            raise np.linalg.LinAlgError("singular")
        monkeypatch.setattr(l0bfs.subtree, "solve", solve)
    else:
        monkeypatch.setattr(l0bfs.subtree, "_ARMIJO", 1e300)
    inst = case_instance(case, kind)
    oracle = exhaustive_solve(inst)
    rep = bfs_solve(inst, cfg=SolverConfig(subroutine="newton"))
    assert rep.objective == pytest.approx(oracle.objective, rel=1e-10, abs=0.0)
    assert rep.objective == inst.objective(rep.x)

"""bfs_solve against enumeration on degenerate inputs.

Every case runs with each loss and each dual subroutine, and with pdal
started cold at every node (helpers.cold_start), and the certified
objective must equal exhaustive_solve's to 1e-10 relative.  The cases are
the ones where a bound, a screen or a restricted solve is most likely to
slip: duplicate and collinear columns (tied or singular leaves), a ridge
weight of 1e-10 (nearly singular Hessians and a steep dual penalty),
linearly separable labels (the logistic loss alone has no minimizer),
k = 1 (the root is a last-level node), k = d (the root is exact), an
all-zero design (||A|| = 0, so every x has P(x) >= P(0)) and a generated
low-sample d = n = 10, k = 3 shape, where nodes two indices short of a
leaf are bounded by their listed leaves, up to 36 of them.
"""

import numpy as np
import pytest

from helpers import cold_start, random_instance
from l0bfs import (GenSpec, Instance, SolverConfig, bfs_solve,
                   exhaustive_solve, generate, make_loss)

KINDS = ["quadratic", "huber", "logistic"]
CASES = ["duplicate", "collinear", "tiny_lam", "separable", "k_one", "k_equals_d",
         "zero_design", "low_sample"]
# (subroutine, cold): each dual subroutine warm, and pdal cold, where its
# siblings' ascent points are all that prune a child at entry
CFGS = [("pdal", False), ("sga", False), ("pdal", True)]


def case_instance(case, kind):
    if case == "k_one":
        return random_instance(kind, d=7, k=1, n=10, seed=80)
    if case == "k_equals_d":
        return random_instance(kind, d=5, k=5, n=8, seed=81)
    if case == "low_sample":
        return generate(GenSpec(kind, d=10, k=3, seed=1, n=10)).instance
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


@pytest.mark.parametrize("cfg", CFGS, ids=["pdal", "sga", "pdal-cold"])
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

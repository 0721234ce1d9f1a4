"""End-to-end acceptance checks for the solver stack.

Each numbered test settles one shipped guarantee, appends a PASS/FAIL line
with the measured margin to acceptance_report.txt at the repository root,
and then asserts. The 150-instance exactness suite (3 families x 50 seeds,
with brute-force enumeration oracles) is built once per session and shared
by the first four checks.
"""

import json
import os
import time
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (cold_start, domain_point, fd_grad, leaf_values,
                     random_instance, random_interior_node, subtree_min)
from l0bfs import (PRUNED, GenSpec, Node, SolverConfig, bfs_solve, dual_value,
                   exhaustive_solve, generate, htp, iht, make_loss, omp,
                   prox_topk_sq, prox_topk_sq_conjugate, solve_restricted,
                   top_norm)
from l0bfs.cli import main as cli_main
from l0bfs.cli import read_rows
from l0bfs.subtree import SUBROUTINES

pytestmark = pytest.mark.slow

REPORT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "acceptance_report.txt")

_started = False


def record(tag, ok, detail):
    """One verdict line per check; the first write of a session truncates."""
    global _started
    line = f"{tag:<34} {'PASS' if ok else 'FAIL'}  {detail}"
    with open(REPORT_PATH, "a" if _started else "w") as f:
        f.write(line + "\n")
    _started = True
    print(line)


FAMILIES = ("quadratic", "huber", "logistic")
GRID_D = (8, 10, 12)
GRID_K = (2, 3, 4)


@pytest.fixture(scope="session")
def suite():
    """150 generated instances with enumeration oracles and instrumented
    exact solves; d <= 10 cases also carry the full leaf-value table."""
    cases = []
    t0 = time.perf_counter()
    for family in FAMILIES:
        for seed in range(50):
            d = GRID_D[seed % 3]
            k = GRID_K[(seed // 3) % 3]
            gen = generate(GenSpec(family=family, d=d, k=k, seed=seed))
            inst = gen.instance
            if d <= 10:
                leaves = leaf_values(inst)
                best = min(leaves, key=leaves.get)
                oracle_value, oracle_support = leaves[best], best
            else:
                leaves = None
                oracle = exhaustive_solve(inst)
                oracle_value, oracle_support = oracle.objective, oracle.support
            report = bfs_solve(inst, delta=0.0, record_bounds=True)
            cases.append(SimpleNamespace(
                family=family, seed=seed, d=d, k=k, inst=inst, leaves=leaves,
                oracle_value=oracle_value, oracle_support=oracle_support,
                report=report))
    return SimpleNamespace(cases=cases, elapsed=time.perf_counter() - t0)


def test_01_exact_solve_matches_enumeration(suite):
    worst = 0.0
    failures = 0
    for c in suite.cases:
        # dual route: the reported support must itself achieve the optimum
        achieved = solve_restricted(c.inst, c.report.support).value
        rel = max(abs(c.report.objective - c.oracle_value),
                  abs(achieved - c.oracle_value)) / abs(c.oracle_value)
        worst = max(worst, rel)
        if rel > 1e-8 or len(c.report.support) > c.inst.k:
            failures += 1
    ok = failures == 0 and suite.elapsed < 600.0
    record("01 exact-solve-vs-enumeration", ok,
           f"150 instances: worst relative gap {worst:.2e} (tol 1e-8), "
           f"oracle+solve build {suite.elapsed:.0f}s (limit 600s)")
    assert ok


DELTAS = (1e-4, 1e-3, 1e-2)


def test_02_delta_guarantee(suite):
    runs = violations = 0
    worst = -np.inf
    for c in suite.cases:
        for delta in DELTAS:
            rep = bfs_solve(c.inst, delta=delta)
            excess = (rep.objective - c.oracle_value) - delta
            runs += 1
            worst = max(worst, excess)
            if excess > 1e-8:
                violations += 1
    ok = violations == 0
    record("02 delta-guarantee", ok,
           f"{runs} runs, deltas {DELTAS}: worst excess over delta "
           f"{worst:.2e} (allowance 1e-8)")
    assert ok


def test_03_logged_bounds_admissible(suite):
    checked = violations = 0
    worst = -np.inf
    for c in suite.cases:
        if c.d > 10:
            continue
        for indices, low, status, value in c.report.bound_log:
            gap = low - subtree_min(c.inst, Node(indices, c.d, c.k), c.leaves)
            checked += 1
            worst = max(worst, gap)
            if gap > 1e-9:
                violations += 1
    ok = checked > 0 and violations == 0
    record("03 bound-admissibility", ok,
           f"{checked} logged bounds on the d<=10 instances: max "
           f"(bound - true subtree min) {worst:.2e} (tol 1e-9)")
    assert ok


def test_04_pruning_never_discards_optimum(suite):
    pruned = offenders = 0
    for c in suite.cases:
        for indices, low, status, value in c.report.bound_log:
            if status != PRUNED:
                continue
            pruned += 1
            if Node(indices, c.d, c.k).covers_support(c.oracle_support):
                offenders += 1
    ok = pruned > 0 and offenders == 0
    record("04 pruning-never-discards-optimum", ok,
           f"{pruned} pruned nodes across 150 instances, {offenders} covered "
           f"the optimal support")
    assert ok


def test_05_topk_prox_optimality_and_scan_bound():
    rng = np.random.default_rng(20260825)

    def objective(mu, k, v, x):
        return 0.5 * float(np.sum((x - v) ** 2)) \
            + 0.5 * mu * top_norm(k, x) ** 2

    min_slack = np.inf
    worst_recon = 0.0
    slack_bad = scan_bad = 0
    for _ in range(1000):
        d = int(rng.integers(1, 1001))
        k = int(rng.integers(1, d + 1))
        mu = float(10.0 ** rng.uniform(-2.0, 1.0))
        v = rng.standard_normal(d)
        u, count = prox_topk_sq(mu, k, v, with_count=True)
        if count > d:
            scan_bad += 1
        base = objective(mu, k, v, u)
        for _ in range(50):
            w = rng.standard_normal(d)
            w /= np.linalg.norm(w)
            for eps in (1e-4, 1e-5):
                slack = objective(mu, k, v, u + eps * w) - base
                min_slack = min(min_slack, slack)
                if slack < -1e-10:
                    slack_bad += 1
        alpha = float(10.0 ** rng.uniform(-1.0, 1.0))
        recon = alpha * prox_topk_sq(mu / alpha, k, v / alpha) \
            + prox_topk_sq_conjugate(alpha, k, v, 1.0 / mu)
        worst_recon = max(worst_recon, float(np.max(np.abs(recon - v))))
    ok = slack_bad == 0 and scan_bad == 0 and worst_recon <= 1e-9
    record("05 topk-prox-properties", ok,
           f"1000 draws (d up to 1000): min directional slack {min_slack:.2e} "
           f"(floor -1e-10), max Moreau residual {worst_recon:.2e} "
           f"(tol 1e-9), scan counter within d on every call")
    assert ok


def test_06_loss_layer_contracts():
    rng = np.random.default_rng(606)
    n = 40
    min_fy = np.inf
    worst_grad = 0.0
    worst_smooth = -np.inf
    gamma_ok = True
    for kind, gamma in (("quadratic", n), ("huber", n), ("logistic", 4 * n)):
        if kind == "logistic":
            b = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        else:
            b = rng.standard_normal(n)
        loss = make_loss(kind, b)
        gamma_ok = gamma_ok and loss.gamma == gamma
        for _ in range(10_000):
            z = 3.0 * rng.standard_normal(n)
            beta = domain_point(loss, rng)
            min_fy = min(min_fy,
                         loss.value(z) + loss.conjugate(beta) - float(beta @ z))
        for _ in range(1000):
            z = 3.0 * rng.standard_normal(n)
            worst_grad = max(worst_grad, float(np.max(np.abs(
                loss.grad(z) - fd_grad(loss.value, z)))))
        for _ in range(1000):
            z1 = 3.0 * rng.standard_normal(n)
            z2 = 3.0 * rng.standard_normal(n)
            lhs = float(np.linalg.norm(loss.grad(z1) - loss.grad(z2)))
            worst_smooth = max(
                worst_smooth, lhs - float(np.linalg.norm(z1 - z2)) / gamma)
    ok = (min_fy >= -1e-9 and worst_grad <= 1e-5
          and worst_smooth <= 1e-12 and gamma_ok)
    record("06 loss-layer-contracts", ok,
           f"per loss: 10000 conjugate pairs, min Fenchel-Young slack "
           f"{min_fy:.2e} (floor -1e-9); 1000 gradient checks, max deviation "
           f"{worst_grad:.2e} (tol 1e-5); smoothness margin {worst_smooth:.2e} "
           f"at curvature n, n, 4n")
    assert ok


def test_07_bound_monotone_along_tree_edges():
    rng = np.random.default_rng(707)
    kinds = ("quadratic", "huber", "logistic")
    worst = -np.inf
    violations = 0
    for i in range(500):
        inst = random_instance(kinds[i % 3], d=10, k=3, n=24, seed=7000 + i)
        parent = random_interior_node(rng, 10, 3)
        kids = parent.children()
        child = kids[int(rng.integers(len(kids)))]
        beta = domain_point(inst.loss, rng, scale=0.3)
        gap = dual_value(inst, parent, beta) - dual_value(inst, child, beta)
        worst = max(worst, gap)
        if gap > 1e-10:
            violations += 1
    ok = violations == 0
    record("07 bound-monotone-along-edges", ok,
           f"500 parent/child/beta triples: max (parent bound - child bound) "
           f"{worst:.2e} (tol 1e-10)")
    assert ok


def test_08_warm_start_and_pruning_reduce_calls(monkeypatch):
    # the search always prunes and warm starts; the reference starts every
    # node cold
    insts = [generate(GenSpec(family="huber", d=30, k=3, seed=s)).instance
             for s in range(30)]

    def mean_calls():
        return float(np.mean([bfs_solve(inst).solver_calls for inst in insts]))

    mean_on = mean_calls()
    cold_start(monkeypatch)
    mean_off = mean_calls()
    ok = mean_on <= mean_off
    record("08 warm-start-call-reduction", ok,
           f"30 instances (huber, d=30, k=3): mean solver calls {mean_on:.2f} "
           f"with warm start vs {mean_off:.2f} without "
           f"(ratio {mean_on / mean_off:.3f})")
    assert ok, ("warm start issued more subtree-solver calls than the cold "
                "run at this problem size; see acceptance_report.txt")


def test_09_exact_search_never_loses_to_baselines():
    violations = strict = 0
    worst = -np.inf
    for seed in range(50):
        inst = generate(GenSpec(family="huber", d=20, k=3, seed=seed)).instance
        exact = bfs_solve(inst).objective
        for method in (omp, iht, htp):
            gap = exact - method(inst).objective
            worst = max(worst, gap)
            if gap > 1e-10:
                violations += 1
            if gap < -1e-10:
                strict += 1
    ok = violations == 0 and strict >= 1
    record("09 exact-vs-baselines", ok,
           f"50 huber instances (d=20, k=3) x omp/iht/htp: {violations} "
           f"losses (tol 1e-10), {strict} strict wins (need >= 1), max "
           f"objective excess {worst:.2e}")
    assert ok


def test_10_support_recovery_pipeline(tmp_path):
    out = str(tmp_path / "bench")
    code = cli_main(["bench", "--family", "logistic", "--d", "20", "--k", "3",
                     "--n", "200", "--seeds", "0:50", "--methods", "bfs,omp",
                     "--out", out])
    with open(os.path.join(out, "aggregate.json")) as f:
        agg = json.load(f)
    emitted = {r["method"]: r["pssr"] for r in agg["records"]}
    rows = read_rows(os.path.join(out, "runs.csv"))

    def recount(method):
        grp = [r for r in rows if r["method"] == method and r["status"] == "ok"]
        return 100.0 * sum(r["support"] == r["ref_support"] for r in grp) / len(grp)

    ok = (code == 0 and emitted["bfs"] >= emitted["omp"]
          and abs(recount("bfs") - emitted["bfs"]) < 1e-9
          and abs(recount("omp") - emitted["omp"]) < 1e-9)
    record("10 support-recovery-pipeline", ok,
           f"bench on 50 logistic instances (d=20, k=3, n=200): true-support "
           f"recovery {emitted['bfs']:.1f}% (exact search) vs "
           f"{emitted['omp']:.1f}% (omp); both recomputed from runs.csv")
    assert ok


def test_11_dual_subroutines_agree():
    worst = 0.0
    failures = 0
    calls = {sub: [] for sub in SUBROUTINES}
    for seed in range(30):
        inst = generate(GenSpec(family="huber", d=15, k=3, seed=seed)).instance
        oracle = exhaustive_solve(inst).objective
        for sub in SUBROUTINES:
            rep = bfs_solve(inst, cfg=SolverConfig(subroutine=sub))
            calls[sub].append(rep.solver_calls)
            rel = abs(rep.objective - oracle) / max(1.0, abs(oracle))
            worst = max(worst, rel)
            if rel > 1e-8:
                failures += 1
    ok = failures == 0
    mean_calls = " vs ".join(f"{np.mean(c):.1f} ({sub})"
                             for sub, c in calls.items())
    record("11 dual-subroutines-agree", ok,
           f"30 huber instances (d=15, k=3), every bound subroutine: worst "
           f"gap to enumeration {worst:.2e} (tol 1e-8); mean solver calls "
           f"{mean_calls}")
    assert ok

"""Inexact reference methods: greedy selection and hard thresholding.

All three return a SolveReport whose solver_calls is 1: inexact methods
count as a single bound-computation unit when compared against the search,
regardless of how many restricted solves they perform internally.  iht and
htp start from x = 0, step by the exact inverse Lipschitz constant of
grad P, and stop after at most MAX_ITERS iterations.
"""

import time

import numpy as np

from .linalg import truncate_top
from .restricted import solve_restricted
from .search import SolveReport

__all__ = ["omp", "iht", "htp"]

# IHT stops once no entry of the iterate moves by more than this
MOVE_TOL = 1e-10
MAX_ITERS = 1000


def _step(inst):
    # exact inverse Lipschitz constant of grad P
    return 1.0 / (inst.op_norm ** 2 / inst.loss.gamma + inst.lam)


def _report(sol, t0, converged=True):
    return SolveReport(x=sol.x, objective=sol.value, solver_calls=1,
                       wall_time=time.perf_counter() - t0, converged=converged)


def omp(inst):
    """Orthogonal matching pursuit: k rounds of pick-largest-gradient + re-solve."""
    t0 = time.perf_counter()
    chosen = []
    x = np.zeros(inst.d)
    sol = None
    for _ in range(inst.k):
        score = np.abs(inst.objective_grad(x))
        score[chosen] = -np.inf  # never re-pick; ties go to the smallest index
        chosen.append(int(np.argmax(score)))
        sol = solve_restricted(inst, chosen)
        x = sol.x
    return _report(sol, t0)


def iht(inst):
    """Iterative hard thresholding with a terminal restricted polish.

    Stops once the support repeats and the iterate has stopped moving
    (within MOVE_TOL), i.e. a thresholded fixed point; hitting MAX_ITERS
    instead is reported via converged=False.
    """
    t0 = time.perf_counter()
    step = _step(inst)
    x = np.zeros(inst.d)
    support = None
    converged = False
    for _ in range(MAX_ITERS):
        x_new = truncate_top(inst.k, x - step * inst.objective_grad(x))
        new_support = tuple(np.flatnonzero(x_new))
        if new_support == support and np.max(np.abs(x_new - x)) <= MOVE_TOL:
            x = x_new
            converged = True
            break
        support, x = new_support, x_new
    sol = solve_restricted(inst, np.flatnonzero(x))
    return _report(sol, t0, converged)


def htp(inst):
    """Hard thresholding pursuit: IHT step + restricted solve every iteration.

    The support sequence either reaches a fixed point (converged) or cycles;
    cycles and the iteration cap return the best visited solution with
    converged=False.
    """
    t0 = time.perf_counter()
    step = _step(inst)
    x = np.zeros(inst.d)
    prev = None
    seen = set()
    best = None
    converged = False
    for _ in range(MAX_ITERS):
        z = x - step * inst.objective_grad(x)
        support = tuple(np.flatnonzero(truncate_top(inst.k, z)))
        sol = solve_restricted(inst, support)
        if best is None or sol.value < best.value:
            best = sol
        if support == prev:
            converged = True
            break
        if support in seen:
            break  # cycle
        seen.add(support)
        prev = support
        x = sol.x
    return _report(best, t0, converged)

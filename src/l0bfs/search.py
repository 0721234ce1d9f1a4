"""Best-first search for the cardinality-constrained minimum of P.

bfs_solve keeps one incumbent, the best candidate found so far (x = 0 with
P(0) before any), and a min-heap of the nodes still to expand, keyed by
their subtree lower bounds.  After each expansion one test stops the
search: when the incumbent's P is within delta of the smallest open bound,
or no node is open, no unexplored subtree can beat the incumbent by more
than delta, so the incumbent is returned (delta = 0 gives the exact minimum
up to numeric tolerance).  Otherwise the node with the smallest bound is
expanded: subtree._Siblings lists its children, gives them their entry
tests and bounds the listed ones, and every child that passes its test
unlisted ascends in subtree_solve.  The point each ascent stops at
re-screens the children after it (_Siblings.rescreen), so each entry
test reads the best of the start point's bound and those points'.  Each
candidate that beats the incumbent replaces it; a child with a dual bound
is pushed, and a pruned or exactly bounded child is done.  The root is
bounded by the same loop, as an expansion of the root alone, cold and
against the incumbent P(0).
A node with few leaves (always a last-level node, one index short of a
leaf; see subtree.py for the count) is bounded exactly, so no leaf node is
ever created.

exhaustive_solve is the independent reference: it lists every size-k
support with itertools.combinations, not through the tree's Node.leaves,
solves the restricted problem on them in lexicographic batches of at most
16 d rows (the search's batch size), and keeps the first strict minimum.
"""

import heapq
import itertools
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .restricted import _real, solve_restricted_batch
from .state_space import root_node
from .subtree import (DUAL_BOUND, PRUNED, ZERO_TOL, _batch_size, _Siblings,
                      _solver_config, subtree_solve)

__all__ = ["SolveReport", "bfs_solve", "exhaustive_solve"]


@dataclass
class SolveReport:
    x: np.ndarray
    objective: float
    solver_calls: int      # subtree bound computations (1 for inexact methods)
    wall_time: float       # seconds around the solve only
    pruned: int = 0        # search counters: 0 for other methods
    heap_peak: int = 0
    converged: bool = True
    bound_log: Optional[list] = None  # (indices, low, status, value) per bound

    @property
    def support(self):
        return tuple(int(i) for i in np.flatnonzero(self.x))


def bfs_solve(inst, delta=0.0, cfg=None, record_bounds=False):
    """Search for x with P(x) <= min P + delta over all k-sparse x.

    record_bounds keeps one (node indices, low, status, value) tuple per
    subtree bound computation in the report, for auditing.
    """
    if not _real("delta", delta) >= 0:  # NaN fails too
        raise ValueError("delta must be nonnegative")
    if not isinstance(record_bounds, (bool, np.bool_)):
        raise ValueError(f"record_bounds must be a bool, got {record_bounds!r}")
    cfg = _solver_config(cfg)
    t0 = time.perf_counter()
    log = [] if record_bounds else None

    # the incumbent: x = 0 before any bound exists gives the root call a
    # sound prune threshold, since every bound sits below the optimum
    x_inc = np.zeros(inst.d)
    p_min = inst.objective(x_inc)

    # the first expansion: the root alone, cold
    expansion = _Siblings.lone(inst, root_node(inst.d, inst.k), None)
    heap, calls, heap_peak, pruned_count = [], 0, 0, 0
    while True:
        for i, indices in enumerate(expansion.children):
            calls += 1
            res = expansion.bound(i, p_min)
            if res is None:   # not listed: an ascent bounds it
                res = subtree_solve(inst, expansion.node(i), expansion.warm,
                                    p_min, cfg)
                expansion.rescreen(i, res.state)
            if record_bounds:
                log.append((indices, res.low, res.status, res.value))
            if res.status == PRUNED:
                pruned_count += 1
                continue
            if res.value < p_min:
                x_inc, p_min = res.x, res.value
            if res.status == DUAL_BOUND:   # an EXACT child is done
                # calls grows at every push, so it breaks ties in low
                heapq.heappush(heap, (res.low, calls, expansion.node(i),
                                      res.state))
                heap_peak = max(heap_peak, len(heap))
        # empty: every subtree was bounded above the incumbent
        if not heap or p_min <= heap[0][0] + delta + ZERO_TOL:
            break
        _, _, node, state = heapq.heappop(heap)
        expansion = _Siblings(inst, node, state)
    return SolveReport(x=x_inc, objective=p_min, solver_calls=calls,
                       pruned=pruned_count, heap_peak=heap_peak,
                       wall_time=time.perf_counter() - t0, bound_log=log)


def exhaustive_solve(inst):
    """Brute force over all size-k supports via restricted solves: the
    supports in lexicographic order, in batches of _batch_size rows."""
    t0 = time.perf_counter()
    supports = itertools.combinations(range(inst.d), inst.k)
    best_value, best_x, calls = np.inf, None, 0
    while chunk := list(itertools.islice(supports, _batch_size(inst))):
        x, values, _ = solve_restricted_batch(inst, chunk)
        calls += len(values)
        i = int(np.argmin(values))
        if best_x is None or values[i] < best_value:
            best_value, best_x = values[i], x[i]
    return SolveReport(x=best_x, objective=inst.objective(best_x),
                       solver_calls=calls, wall_time=time.perf_counter() - t0)

"""Best-first search for the cardinality-constrained minimum of P.

bfs_solve keeps a min-heap of tree nodes keyed by their subtree lower
bounds.  Popping the smallest bound and checking the node's own candidate
against it gives a certificate: if P(candidate) <= bound + delta, no
unexplored subtree can beat the candidate by more than delta, so the
candidate is returned (delta = 0 gives the exact minimum up to numeric
tolerance).  Otherwise the node's children are bounded and pushed, or
pruned once a bound exceeds the incumbent objective.  The root is bounded
by the same loop, as the one child of the start, cold and against the
incumbent P(0); only it can leave the heap empty.  All children share
the parent's final dual state, and each first takes one entry test, D at
the state it starts from, before any restricted solve or dual ascent of
its own.  One pass gives all their entry bounds (_child_entry_bounds),
and under pruning a child that fails its test is pruned without its Node
being built.  A node with few leaves (always a last-level node, one index
short of a leaf; see subtree.py for the count) is bounded exactly, so it
certifies when popped and no leaf node is ever created.  The listed
children of one expansion are bounded by _Siblings, as subtree_solve
bounds one listed node, from shared batches of their surviving leaves:
the first to take its turn solves its own and its following listed
siblings' survivors together, and each is decided at its own turn,
against the incumbent then.  Every other child ascends in subtree_solve.

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
from .subtree import (PRUNED, ZERO_TOL, _batch_size, _child_entry_bounds,
                      _node_entry_bound, _Siblings, _solver_config,
                      subtree_solve)

__all__ = ["SolveReport", "bfs_solve", "exhaustive_solve"]


@dataclass
class SolveReport:
    x: np.ndarray
    objective: float
    solver_calls: int      # subtree bound computations (1 for inexact methods)
    wall_time: float       # seconds around the solve only
    pruned: int = 0        # search counters and delta: 0 for other methods
    heap_peak: int = 0
    delta: float = 0.0
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

    # incumbent objective: P(0) before any bound exists gives the root call
    # a sound prune threshold, since every bound sits below the optimum
    p_min = inst.objective(np.zeros(inst.d))

    # the children to bound, with their entry bounds: first the root, cold
    children, warm = [()], None
    entry = [_node_entry_bound(inst, root_node(inst.d, inst.k), warm, cfg)]
    heap, calls, seq, heap_peak, pruned_count = [], 0, 0, 0, 0
    while True:
        siblings = _Siblings(inst, children, entry, warm, cfg)
        for i, (indices, d_entry) in enumerate(zip(children, entry)):
            calls += 1
            if cfg.pruning and d_entry > p_min + ZERO_TOL:  # pruned at entry
                low, status, value = float(d_entry), PRUNED, np.inf
            else:
                child = siblings.node(i)
                child_res = siblings.bound(i, p_min)
                if child_res is None:   # not listed: an ascent bounds it
                    child_res = subtree_solve(inst, child, warm, p_min, cfg)
                low, status, value = child_res.low, child_res.status, child_res.value
            if record_bounds:
                log.append((indices, low, status, value))
            if status == PRUNED:
                pruned_count += 1
                continue
            heapq.heappush(heap, (low, seq, child, child_res))
            seq += 1
            heap_peak = max(heap_peak, len(heap))
            p_min = min(p_min, value)
        if not heap:
            if calls > 1:
                raise AssertionError("heap exhausted before termination;"
                                     " exact bounds should always fire")
            # the root was pruned, only reachable through float noise:
            # D <= F <= P(0) there
            x, objective = np.zeros(inst.d), p_min
            break
        low, _, node, res = heapq.heappop(heap)
        if res.value <= low + delta + ZERO_TOL:
            x, objective = res.x, res.value
            break
        warm, entry = res.state, _child_entry_bounds(inst, node, res.state, cfg)
        children = [node.indices + (j,) for j in range(node.cut, node.cut + len(entry))]
    return SolveReport(x=x, objective=objective, solver_calls=calls,
                       pruned=pruned_count, heap_peak=heap_peak,
                       wall_time=time.perf_counter() - t0, delta=delta,
                       bound_log=log)


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

"""Fingerprint the seed-0 searches of the benchmark's search workloads.

Runs bfs_solve with pdal and with sga on every seed-0 instance of the
planted, hard and logistic workloads (perfbench/workloads.py), 102 searches
in all.  For each (workload, subroutine) pair it prints the calls, the
prunes, the dual iterations (iters: the sum of BoundResult.iterations over
the search's subtree_solve calls, outside every digest) and three SHA-256
digests of its searches; the last line is one
SHA-256 over all 102.  Before that last line, one line does the same for
exhaustive_solve on the 13 seed-0 enum instances: their calls and one
SHA-256 over each objective, x and calls.  One more line covers the
ablation, which the searches never run: the seed-0 hard and logistic
searches with pdal and sga with every node started cold, from the root
state that both maximizers share (a patch of subtree._start_state), with
their calls and one SHA-256 over each objective, x and bound_log entry.  A
third line calls subtree_solve directly, as no search does, on the seed-0
hard and logistic instances with pdal and sga: on the root, cold, then
on every child of each node it bounds by an ascent, warm from that node's
result, all against P(0).  It gives the calls and one
SHA-256 over each call's indices, low, status, value and iterations.  A
fourth line covers delta > 0, which the other lines never set: the seed-0
hard and logistic searches with pdal at delta 1e-3 and 1e-2, with their
calls and one SHA-256 over each objective, x and bound_log entry.  These
four lines stay out of the last line, which covers the default bfs
searches alone.

  * sha256 hashes the objectives, x, calls, prunes, heap peaks and
    bound_log entries.  Two checkouts that print the same digest on a line
    ran those searches bit for bit alike, so a change to one workload's
    search can show that the others are unchanged.
  * decisions is the same hash with the low of every PRUNED bound_log entry
    left out: a pruned node's low steers nothing, so two checkouts that
    print the same decisions digest made the same search decisions and
    returned the same x, even where a bound was computed by another route
    and rounds differently.
  * shape hashes no float at all: each bound_log entry's indices and
    status, the calls, prunes and heap peak, and the support of x.  Two
    checkouts that print the same shape digest bounded the same nodes in
    the same order to the same statuses and returned the same supports,
    even where the makeup of a leaf batch moved a restricted minimum by an
    ulp.

BLAS is pinned to one thread, as perfbench/run.py pins it, since the
thread count changes how matrix products round and with it the digests.

    python3 tools/search_digest.py
"""

import hashlib
import os
import sys

# before numpy loads BLAS; the same pins as perfbench/run.py's THREAD_PINS
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

import l0bfs.search  # noqa: E402
import l0bfs.subtree  # noqa: E402
from l0bfs import (DUAL_BOUND, PRUNED, Node, SolverConfig,  # noqa: E402
                   bfs_solve, exhaustive_solve, pdal_root_state, root_node,
                   subtree_solve)
from l0bfs.subtree import SUBROUTINES  # noqa: E402
from workloads import build_cases  # noqa: E402

WORKLOADS = ("planted", "hard", "logistic")
ABLATION_WORKLOADS = ("hard", "logistic")
DELTAS = (1e-3, 1e-2)


def _update(digest, report, decisions=False):
    """Hash a search; decisions=True leaves out the lows of PRUNED entries."""
    digest.update(float(report.objective).hex().encode())
    digest.update(report.x.tobytes())
    digest.update(f"{report.solver_calls},{report.pruned},{report.heap_peak}".encode())
    for indices, low, status, value in report.bound_log:
        low = "" if decisions and status == PRUNED else float(low).hex()
        digest.update(f"{indices}|{low}|{status}|{float(value).hex()}".encode())


def _update_shape(digest, report):
    """Hash a search's shape: no objective, bound or x value, only x's support."""
    digest.update(f"{report.support},{report.solver_calls},{report.pruned},"
                  f"{report.heap_peak}".encode())
    for indices, _, status, _ in report.bound_log:
        digest.update(f"{indices}|{status}".encode())


def _enum_line():
    """Calls and one SHA-256 over the seed-0 enum pass of exhaustive_solve."""
    cases, _ = build_cases("enum", 0)
    calls, digest = 0, hashlib.sha256()
    for case in cases:
        report = exhaustive_solve(case.instance())
        calls += report.solver_calls
        digest.update(float(report.objective).hex().encode())
        digest.update(report.x.tobytes())
        digest.update(f"{report.solver_calls}".encode())
    return f"enum     exh  calls {calls:5d}  sha256 {digest.hexdigest()}"


def _searches_line(name, runs):
    """Calls and one SHA-256 over the seed-0 hard and logistic searches run
    with each (cfg, delta) pair of runs."""
    calls, digest = 0, hashlib.sha256()
    for workload in ABLATION_WORKLOADS:
        cases, _ = build_cases(workload, 0)
        for cfg, delta in runs:
            for case in cases:
                report = bfs_solve(case.instance(), delta=delta, cfg=cfg,
                                   record_bounds=True)
                calls += report.solver_calls
                digest.update(float(report.objective).hex().encode())
                digest.update(report.x.tobytes())
                for indices, low, status, value in report.bound_log:
                    digest.update(f"{indices}|{float(low).hex()}|{status}|"
                                  f"{float(value).hex()}".encode())
    return f"{name} bfs  calls {calls:5d}  sha256 {digest.hexdigest()}"


def _ablation_line():
    """The seed-0 ablation searches: pdal and sga with every node started
    cold."""
    start_state = l0bfs.subtree._start_state
    l0bfs.subtree._start_state = lambda inst, warm: pdal_root_state(inst)
    try:
        return _searches_line("ablation", [
            (SolverConfig(subroutine=subroutine), 0.0)
            for subroutine in SUBROUTINES])
    finally:
        l0bfs.subtree._start_state = start_state


def _delta_line():
    """The seed-0 pdal searches at each delta of DELTAS."""
    return _searches_line("delta   ", [(SolverConfig(), delta)
                                       for delta in DELTAS])


def _subtree_line():
    """Calls and one SHA-256 over the seed-0 direct subtree_solve calls."""
    calls, digest = 0, hashlib.sha256()
    for workload in ABLATION_WORKLOADS:
        cases, _ = build_cases(workload, 0)
        for subroutine in SUBROUTINES:
            cfg = SolverConfig(subroutine=subroutine)
            for case in cases:
                inst = case.instance()
                p0 = inst.objective(np.zeros(inst.d))
                pending = [(root_node(inst.d, inst.k), None)]
                while pending:
                    node, warm = pending.pop()
                    res = subtree_solve(inst, node, warm, p0, cfg)
                    calls += 1
                    digest.update(f"{node.indices}|{float(res.low).hex()}|"
                                  f"{res.status}|{float(res.value).hex()}|"
                                  f"{res.iterations}".encode())
                    if res.status == DUAL_BOUND:
                        pending.extend(
                            (Node(node.indices + (j,), inst.d, inst.k),
                             res.state)
                            for j in reversed(node.child_range()))
    return f"subtree  dir  calls {calls:5d}  sha256 {digest.hexdigest()}"


class _Iterations:
    """search.subtree_solve, summing the iterations of its results."""

    def __init__(self, solve):
        self.solve, self.total = solve, 0

    def __call__(self, *args):
        res = self.solve(*args)
        self.total += res.iterations
        return res


def main():
    digest = hashlib.sha256()
    iterations = l0bfs.search.subtree_solve = _Iterations(subtree_solve)
    for workload in WORKLOADS:
        cases, _ = build_cases(workload, 0)
        for subroutine in SUBROUTINES:
            cfg = SolverConfig(subroutine=subroutine)
            calls = pruned = iterations.total = 0
            pair, decided, shape = (hashlib.sha256() for _ in range(3))
            for case in cases:
                report = bfs_solve(case.instance(), cfg=cfg, record_bounds=True)
                calls += report.solver_calls
                pruned += report.pruned
                _update(digest, report)
                _update(pair, report)
                _update(decided, report, decisions=True)
                _update_shape(shape, report)
            print(f"{workload:8s} {subroutine:4s} calls {calls:5d}  "
                  f"pruned {pruned:5d}  iters {iterations.total:5d}  "
                  f"sha256 {pair.hexdigest()}  "
                  f"decisions {decided.hexdigest()}  shape {shape.hexdigest()}")
    print(_enum_line())
    print(_ablation_line())
    print(_subtree_line())
    print(_delta_line())
    print(f"sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()

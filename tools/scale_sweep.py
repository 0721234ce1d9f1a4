"""Time and fingerprint bfs_solve at d = 40, a scale no benchmark workload
reaches.

For each shape and each bound of subtree.SUBROUTINES (newton, pdal, sga)
it prints one line:

  huber-d40-k6-n40-s0   newton calls   3127  pruned   2978  iters   1611
      heap_peak    11  seconds    0.412  sha256 0123456789abcdef  ok

(on one line).  calls, pruned and heap_peak come from the SolveReport;
iters sums BoundResult.iterations over the search's subtree_solve calls
(newton steps, pdal or sga dual iterations); seconds is the least wall time
of --repeats runs, each on a fresh Instance; sha256 is the first 16 hex
digits of a SHA-256 over the support and the objective.  The last word
gates the line: ok when the support equals the one pinned below from one
offline exhaustive_solve of the shape and the objective lies within 1e-10
relative of the pinned one, FAIL otherwise; the tool exits 1 after a FAIL.
A shape given by --shape has no pinned optimum: exhaustive_solve computes
it first, so keep such shapes small.

The default shapes are huber d40 k6 n40 at generator seeds 0, 1 and 5
(about a minute for all three bounds; sga takes the longest).  --all adds
seeds 2 and 4 and quadratic d40 k8 n40 seed 0, whose searches run 16,000
to 97,000 subtree calls (tens of minutes with pdal and sga).

BLAS is pinned to one thread, as perfbench/run.py pins it.

    python3 tools/scale_sweep.py [--all] [--repeats 3]
                                 [--shape huber,10,3,12,0]
"""

import argparse
import hashlib
import os
import sys
import time

# before numpy loads BLAS; the same pins as perfbench/run.py's THREAD_PINS
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"})

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import l0bfs.search  # noqa: E402
from l0bfs import (GenSpec, Instance, SolverConfig,  # noqa: E402
                   bfs_solve, exhaustive_solve, generate, subtree_solve)
from l0bfs.subtree import SUBROUTINES  # noqa: E402
from search_digest import _Iterations  # noqa: E402

DEFAULT = [GenSpec("huber", 40, 6, seed, n=40) for seed in (0, 1, 5)]
MORE = [GenSpec("huber", 40, 6, seed, n=40) for seed in (2, 4)] + [
    GenSpec("quadratic", 40, 8, 0, n=40)]

# instance_id: (objective, support) of one exhaustive_solve per shape, run
# once offline (42-56 s per huber shape, 287 s for the quadratic one, one
# thread on a 2-vCPU x86 host)
PINNED = {
    "huber-d40-k6-n40-s0": (0.013099555429217246, (1, 10, 12, 18, 22, 29)),
    "huber-d40-k6-n40-s1": (0.011671116931735245, (1, 5, 16, 18, 27, 36)),
    "huber-d40-k6-n40-s5": (0.008502534482377977, (0, 18, 20, 23, 28, 30)),
    "huber-d40-k6-n40-s2": (0.021265701484305736, (4, 9, 11, 16, 29, 32)),
    "huber-d40-k6-n40-s4": (0.012761992263015418, (19, 25, 32, 33, 36, 39)),
    "quadratic-d40-k8-n40-s0": (0.022863863620401367,
                                (2, 9, 11, 17, 19, 28, 32, 36)),
}

REL_TOL = 1e-10


def _shape(text):
    """GenSpec from 'family,d,k,n,seed'."""
    family, *sizes = text.split(",")
    if len(sizes) != 4:
        raise argparse.ArgumentTypeError("expected family,d,k,n,seed")
    d, k, n, seed = map(int, sizes)
    return GenSpec(family, d, k, seed, n=n)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--all", action="store_true",
                   help="add huber seeds 2 and 4 and quadratic d40 k8")
    p.add_argument("--shape", type=_shape, action="append", default=[],
                   help="family,d,k,n,seed in place of the pinned shapes; "
                        "its optimum comes from exhaustive_solve")
    p.add_argument("--repeats", type=int, default=3)
    args = p.parse_args(argv)
    if args.repeats < 1:
        p.error("--repeats must be at least 1")
    return args


def sweep_line(spec, subroutine, repeats, pinned):
    """One search line for the shape; True with it when it passes the
    gate."""
    cfg = SolverConfig(subroutine=subroutine)
    base = generate(spec).instance
    iterations = l0bfs.search.subtree_solve = _Iterations(subtree_solve)
    seconds = []
    try:
        for _ in range(repeats):
            # a fresh Instance, so no cached A^T or ||A|| carries over
            inst = Instance(base.A, base.loss, base.lam, base.k)
            iterations.total = 0
            t0 = time.perf_counter()
            report = bfs_solve(inst, cfg=cfg)
            seconds.append(time.perf_counter() - t0)
    finally:
        l0bfs.search.subtree_solve = subtree_solve
    objective, support = pinned
    ok = (report.support == support and abs(report.objective - objective)
          <= REL_TOL * abs(objective))
    digest = hashlib.sha256(
        f"{report.support}|{float(report.objective).hex()}".encode())
    return ok, (f"{spec.resolved().instance_id:21s} {subroutine:6s} "
                f"calls {report.solver_calls:6d}  pruned {report.pruned:6d}  "
                f"iters {iterations.total:6d}  heap_peak {report.heap_peak:5d}"
                f"  seconds {min(seconds):8.3f}  "
                f"sha256 {digest.hexdigest()[:16]}  {'ok' if ok else 'FAIL'}")


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    specs = args.shape or DEFAULT + (MORE if args.all else [])
    failed = False
    for spec in specs:
        name = spec.resolved().instance_id
        if name in PINNED:
            pinned = PINNED[name]
        else:
            oracle = exhaustive_solve(generate(spec).instance)
            pinned = oracle.objective, oracle.support
        for subroutine in SUBROUTINES:
            ok, line = sweep_line(spec, subroutine, args.repeats, pinned)
            print(line, flush=True)
            failed |= not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

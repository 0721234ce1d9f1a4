"""perfbench's traced run (run.py --trace 1) reaches into the library from
outside: its tracer patches library names by getattr, and its iteration
probe calls both maximizers from their root states.  This runs both against
the library, so a rename that would break a traced run fails here.  It
reads perfbench/ and writes nothing."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import l0bfs
import tracer
from l0bfs import (SolverConfig, bfs_solve, pdal_maximize, pdal_root_state,
                   root_node, sga_maximize, sga_root_state)

inst = l0bfs.generate(l0bfs.GenSpec("logistic", d=8, k=2, seed=0)).instance
with tracer.Tracer() as tr:
    report = bfs_solve(inst)
spans = tr.span_totals(0, len(tr))
assert l0bfs.search.subtree_solve is l0bfs.subtree.subtree_solve
cfg = SolverConfig(max_dual_iters=5)
root = root_node(inst.d, inst.k)
iterations = [maximize(inst, root, root_state(inst), float("inf"),
                       cfg).iterations
              for maximize, root_state in ((pdal_maximize, pdal_root_state),
                                           (sga_maximize, sga_root_state))]
print(report.solver_calls, spans["subtree"][0], *iterations)
"""


def test_tracer_and_probe_run_against_the_library(tmp_path):
    paths = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench"),
             os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    r = subprocess.run([sys.executable, "-c", SCRIPT], cwd=tmp_path, env=env,
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    calls, traced, pdal_iters, sga_iters = map(int, r.stdout.split())
    assert 1 <= traced <= calls
    assert 1 <= pdal_iters <= 5 and 1 <= sga_iters <= 5
    assert not os.listdir(tmp_path)

"""The library runs on numpy alone: scipy is a test and benchmark dependency."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import sys
import l0bfs
inst = l0bfs.generate(l0bfs.GenSpec("logistic", d=8, k=2, seed=0)).instance
l0bfs.bfs_solve(inst)
l0bfs.exhaustive_solve(inst)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_logistic_searches_load_no_scipy():
    paths = [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    r = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"

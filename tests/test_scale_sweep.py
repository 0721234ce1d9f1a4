"""tools/scale_sweep.py times and fingerprints searches at d = 40.  This
runs it in a subprocess on one tiny shape, whose optimum it enumerates
first, and checks the form of what it prints: one line per bound, each
with its calls, prunes, iterations, heap peak, seconds, a digest and a
passed gate.  It checks no count or time, and it writes nothing.  The gate
itself is checked in process against a wrong pinned optimum."""

import importlib.util
import os
import re
import subprocess
import sys

from l0bfs import GenSpec
from l0bfs.subtree import SUBROUTINES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "scale_sweep.py")

LINE = re.compile(
    r"huber-d8-k2-n12-s0 +(newton|pdal|sga) +calls +\d+ +pruned +\d+ +"
    r"iters +\d+ +heap_peak +\d+ +seconds +\d+\.\d{3} +"
    r"sha256 [0-9a-f]{16} +ok")


def test_one_gated_line_per_bound_and_writes_nothing(tmp_path):
    r = subprocess.run([sys.executable, TOOL, "--shape", "huber,8,2,12,0",
                        "--repeats", "1"], cwd=tmp_path, capture_output=True,
                       text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    matches = [LINE.fullmatch(line) for line in lines]
    assert all(matches), lines
    assert [m.group(1) for m in matches] == list(SUBROUTINES)
    assert len({line.split("sha256")[1] for line in lines}) == 1
    assert not os.listdir(tmp_path)


def test_a_wrong_optimum_fails_the_gate(monkeypatch):
    # the tool pins BLAS threads and extends sys.path when it loads
    monkeypatch.setattr(os, "environ", dict(os.environ))
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("scale_sweep", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    shape = GenSpec("huber", 8, 2, 0, n=12)
    ok, line = tool.sweep_line(shape, "newton", 1, (1.0, (0, 1)))
    assert not ok and line.endswith("FAIL")

"""tools/search_digest.py fingerprints the seed-0 searches, enumerations and
ablations of the benchmark's workloads.  This runs it in a subprocess and
checks the form of what it prints: six search lines, each with its calls,
prunes, dual iterations and three digests, six more lines with calls and
one digest, and a last line with the digest over every search.  It checks
no digest value, since a change to how a restricted minimum rounds moves
them, and it writes nothing."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "search_digest.py")

HEX = "[0-9a-f]{64}"
SEARCH_LINE = re.compile(
    rf"(planted|hard|logistic) +(pdal|sga) +calls +\d+ +pruned +\d+ +"
    rf"iters +\d+ +sha256 {HEX} +decisions {HEX} +shape {HEX}")
OTHER_LINES = ("enum-quadratic", "enum-huber", "enum-logistic", "ablation bfs",
               "subtree  dir", "delta    bfs")


def test_digest_prints_every_line_and_writes_nothing(tmp_path):
    r = subprocess.run([sys.executable, TOOL], cwd=tmp_path,
                       capture_output=True, text=True, timeout=600)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert len(lines) == 13
    searches = [SEARCH_LINE.fullmatch(line) for line in lines[:6]]
    assert all(searches), lines[:6]
    assert [m.groups() for m in searches] == [
        (workload, subroutine) for workload in ("planted", "hard", "logistic")
        for subroutine in ("pdal", "sga")]
    for name, line in zip(OTHER_LINES, lines[6:12], strict=True):
        assert re.fullmatch(rf"{name} +calls +\d+ +sha256 {HEX}", line), line
    assert re.fullmatch(f"sha256 {HEX}", lines[12]), lines[12]
    assert not os.listdir(tmp_path)

"""Recompute references.json: the certified optimum of every pool instance.

Run from the repository root with ``python3 perfbench/pin_references.py``.
Enumerable shapes take the optimum from exhaustive_solve and require
bfs_solve to agree; the others take it from bfs_solve with the default pdal
bound and require bfs_solve with the sga bound to agree.  The values in the
checked-in file were computed on the commit that introduced the benchmark,
so they also catch a later change that certifies a different optimum.
"""

import json
import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from l0bfs import SolverConfig, bfs_solve, exhaustive_solve, generate  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

REL_TOL = 1e-8


def pin(shape, gen_seed):
    gen = generate(shape.spec(gen_seed))
    inst = gen.instance
    if shape.enumerable:
        method, value = "exhaustive", exhaustive_solve(inst).objective
        check = bfs_solve(inst).objective
    else:
        method, value = "bfs-pdal", bfs_solve(inst).objective
        check = bfs_solve(inst, cfg=SolverConfig(subroutine="sga")).objective
    if abs(check - value) > REL_TOL * abs(value):
        raise SystemExit(f"{gen.instance_id}: {method} gives {value!r}, "
                         f"the cross-check gives {check!r}")
    return gen.instance_id, {"objective": value, "method": method}


def main():
    refs = {}
    for workload, spec in WORKLOADS.items():
        for shape in spec.shapes:
            for gen_seed in range(shape.pool):
                name, ref = pin(shape, gen_seed)
                refs[name] = ref
                print(workload, name, ref, flush=True)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "references.json")
    with open(path, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()

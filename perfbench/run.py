"""The l0bfs benchmark: certify every instance of a workload, again and again.

Run from the repository root:

    python3 perfbench/run.py --workload planted --seed 0 --seconds 24 --trace 0

One process, single-threaded BLAS, a closed loop: one solve at a time, each
started when the previous one returns.  A solve is bfs_solve (exhaustive_solve
on the enum workload) with library defaults and delta = 0, on a freshly built
Instance.  The run repeats whole passes over the workload's instances until
the next pass would end after --seconds, and checks every certified objective
against references.json.

Solve times are wall seconds scaled to the reference host's fast-phase
speed, as measured by HostProbe next to every solve.  End-to-end metrics
(--trace 0): ladder_s is the sum over instances of their median steady solve
time (see HostProbe), the time to certify the whole workload once;
solve_s_p50 is the median of all solve times and solve_s_tail the
workload's fixed tail percentile of the steady ones (of all of them when
fewer than ten steady ones lie above it);
certified_frac is the share of solves that certified the reference optimum;
setup_s is the median wall time, unscaled, of five set-ups (start Python,
import, warm up, build the instance list, load the references), each in a
fresh interpreter.  A separate traced run (--trace 1) gives the per-layer
metrics, in plain wall seconds.

The last line of standard output is one JSON object with the metrics; the
line before it carries the environment and the details behind them.
"""

import argparse
import glob
import hashlib
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Optional

# Pinned before numpy loads BLAS; a second BLAS thread would share the two
# cores of the reference machine with the measured one.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("planted", "hard", "logistic", "enum")

SETUP_REPEATS = 5
MIN_TAIL_BEYOND = 10      # solves above the reported tail percentile
MAX_TRACED_PASSES = 3     # spans stay in memory: up to 2 MB a pass
PROBE_ITERS = 100         # dual iterations per root probe
PROBE_REF_S = 2.6e-3      # host probe time on the reference host, fast phase
STEADY_TOL = 0.2          # probes around a steady solve differ by less
REL_TOL = 1e-8            # certified objective against the reference
SELF_TOL = 1e-12          # reported objective against inst.objective(x)

END_TO_END = (
    ("ladder_s", "s"),
    ("solve_s_p50", "s"),
    ("solve_s_tail", "s"),
    ("certified_frac", "frac"),
    ("setup_s", "s"),
)

PER_LAYER = (
    ("search.calls", "count"), ("search.pruned", "count"),
    ("search.heap_peak", "count"), ("search.self_s", "s"),
    ("state_space.nodes", "count"), ("state_space.children_s", "s"),
    ("subtree.self_s", "s"), ("subtree.dual_iters", "count"),
    ("subtree.pruned_at_entry", "count"),
    ("subtree.pruned_after_ascent", "count"), ("subtree.exact", "count"),
    ("subtree.cap_hits", "count"), ("subtree.halvings", "count"),
    ("subtree.dual_value_s", "s"), ("subtree.pdal_iter_us", "us"),
    ("subtree.sga_iter_us", "us"),
    ("topk_prox.calls", "count"), ("topk_prox.s", "s"),
    ("topk_prox.us_per_call", "us"),
    *((f"losses.{kind}.prox_conjugate_{what}", unit)
      for kind in ("quadratic", "huber", "logistic")
      for what, unit in (("calls", "count"), ("s", "s"), ("us_per_call", "us"))),
    ("losses.logistic.prox_unconverged", "count"),
    *((f"restricted.{kind}.{what}", unit)
      for kind in ("quadratic", "huber", "logistic")
      for what, unit in (("calls", "count"), ("us_per_call", "us"))),
    ("restricted.s", "s"), ("restricted.convergence_errors", "count"),
    ("linalg.spectral_norm_s", "s"), ("linalg.top_norm_calls", "count"),
    ("linalg.truncate_top_calls", "count"),
    ("instances.generate_s", "s"),
    ("trace.overhead_frac", "frac"), ("trace.count_drift", "count"),
)

# layers whose self times partition a traced solve, for the ranking
SELF_TIMES = ("search.self_s", "subtree.self_s", "subtree.dual_value_s",
              "topk_prox.s", "losses.quadratic.prox_conjugate_s",
              "losses.huber.prox_conjugate_s",
              "losses.logistic.prox_conjugate_s", "restricted.s",
              "linalg.spectral_norm_s")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up and exit; run.py times this for setup_s")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


@dataclass
class Outcome:
    wall: float                # wall seconds of the solve
    seconds: float             # the same at the reference host speed
    steady: bool               # the host kept its speed during the solve
    report: Optional[object]   # SolveReport, None when the solve raised
    error: Optional[str]       # why the solve failed, None when it passed

    def signature(self):
        """What must repeat exactly when the same inputs are solved again."""
        r = self.report
        if r is None:
            return None
        return (r.objective, r.solver_calls, r.pruned, r.heap_peak,
                r.x.tobytes())


class HostProbe:
    """Times a fixed kernel to measure how fast this process runs right now.

    On the 2-vCPU reference host, shared with other tenants, the same solve
    runs up to twice as slow in some phases, which last 1-25 s and drift over
    minutes.  The kernel mixes small matrix products, a sort and a Python
    loop, like the solver's inner loops, and sits in the benchmark, so a
    change to the library leaves it alone.  On repeats of the hard instances
    (single process, 5 minutes) scaling by it cut the median deviation of a
    solve time from its instance's median from 18% to 5%, and the spread of
    the 25-second ladder sums from 23% to 4%; pure-interpreter and
    small-array kernels tracked the solves no better.  A solve is steady
    when its two probes differ by less than STEADY_TOL, so the host did not
    switch speed in between.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.np, self.A, self.x0 = np, rng.standard_normal((40, 40)), rng.standard_normal(40)
        self.last = self()

    def __call__(self):
        np = self.np
        t0 = time.perf_counter()
        x = self.x0
        for _ in range(400):
            v = self.A @ x
            x = np.sort(np.abs(v))[::-1] / (1.0 + np.linalg.norm(v))
            total = 0.0
            for j in range(10):   # interpreter work, as in the solver's loops
                total += float(x[j])
        return time.perf_counter() - t0

    def scale(self):
        """(PROBE_REF_S / mean of the previous probe and a new one, steady)."""
        before, self.last = self.last, self()
        mean = 0.5 * (before + self.last)
        return PROBE_REF_S / mean, abs(before - self.last) < STEADY_TOL * mean


def check(inst, report, ref):
    """None when the report certifies the reference optimum, else why not."""
    if not report.converged:
        return "converged=False"
    if int((report.x != 0).sum()) > inst.k:
        return "x has more than k nonzeros"
    value = inst.objective(report.x)
    if abs(report.objective - value) > SELF_TOL * max(1.0, abs(value)):
        return f"reported objective {report.objective!r} != P(x) = {value!r}"
    if abs(report.objective - ref) > REL_TOL * abs(ref):
        return f"objective {report.objective!r} != reference {ref!r}"
    return None


class Runner:
    def __init__(self, cases, refs, solvers, tail_pct, probe):
        self.cases = cases
        self.refs = [refs[c.name]["objective"] for c in cases]
        self.solvers = solvers
        self.failures = []       # (case name, why), first few only
        self.probe = probe
        # enough passes to leave MIN_TAIL_BEYOND solves above the tail
        need = next(n for n in itertools.count(1) if tail_ok(n, tail_pct))
        self.min_passes = math.ceil(need / len(cases))

    def solve(self, case, ref, tracer=None, nid=None):
        inst = case.instance()
        solver = self.solvers[case.solver]
        t0 = time.perf_counter()
        try:
            report = (solver(inst) if tracer is None
                      else tracer.call(nid, solver, inst))
            why = None
        except Exception as exc:  # a raising solve fails; the run goes on
            if not self.failures:
                traceback.print_exc()
            report, why = None, f"raised {exc!r}"
        wall = time.perf_counter() - t0
        scale, steady = self.probe.scale()
        if report is not None:
            why = check(inst, report, ref)
        if why and len(self.failures) < 10:
            self.failures.append((case.name, why))
        return Outcome(wall, wall * scale, steady, report, why)

    def passes(self, budget, min_passes, max_passes=None, tracer=None):
        """Whole passes until the next one would end after budget seconds.

        With a tracer, also returns the span index and counts at each pass
        boundary.
        """
        out, marks = [], []
        nid = tracer.name_id("solve") if tracer is not None else None
        begin = time.perf_counter()
        while True:
            if tracer is not None:
                marks.append((len(tracer), dict(tracer.counts)))
            start = time.perf_counter()
            out.append([self.solve(c, ref, tracer, nid)
                        for c, ref in zip(self.cases, self.refs)])
            now = time.perf_counter()
            if len(out) >= min_passes and (
                    now - begin + (now - start) > budget
                    or (max_passes and len(out) >= max_passes)):
                break
        if tracer is not None:
            marks.append((len(tracer), dict(tracer.counts)))
        return out, marks


def percentile(groups, pct):
    """Nearest-rank pct-th percentile of the times in groups, each group
    (one instance) weighing the same however many of its solves it holds,
    as in a pass.  Returns the time and how many times lie above it."""
    pairs = sorted((t, 1.0 / len(ts)) for ts in groups for t in ts)
    goal = pct / 100 * len(groups)
    total = 0.0
    for i, (t, w) in enumerate(pairs):
        total += w
        if total >= goal - 1e-9:
            return t, len(pairs) - 1 - i
    return pairs[-1][0], 0


def tail_ok(n, pct):
    """True when pct leaves MIN_TAIL_BEYOND of n solves above it."""
    return n - math.ceil(pct * n / 100) >= MIN_TAIL_BEYOND


def kept(passes, key="seconds"):
    """Per instance, the times of its steady solves, or all when none is."""
    out = []
    for per_case in zip(*passes):
        steady = [getattr(o, key) for o in per_case if o.steady]
        out.append(steady or [getattr(o, key) for o in per_case])
    return out


def ladder(passes, key="seconds"):
    """Seconds to certify every instance once: sum of per-instance medians."""
    return sum(statistics.median(ts) for ts in kept(passes, key))


def timing(passes, tail_pct):
    """End-to-end metrics of a run, and the details behind them.

    p50 counts every solve.  The tail counts the steady ones, while at least
    MIN_TAIL_BEYOND lie above it: a solve the probes mis-scaled lands in the
    tail more often than at the median.  Over ten runs per workload, the
    quartile spread of the steady tail was half that of the tail of every
    solve on hard, logistic and enum (even on planted), while the median of
    every solve spread less than the median of the steady ones.
    """
    every = [[o.seconds for o in per_case] for per_case in zip(*passes)]
    solves = len(passes) * len(every)
    failed = sum(o.error is not None for p in passes for o in p)
    steady = kept(passes)
    tail_s, beyond = percentile(steady, tail_pct)
    tail_samples = sum(map(len, steady))
    if beyond < MIN_TAIL_BEYOND:
        tail_s, beyond = percentile(every, tail_pct)
        tail_samples = solves
    return {
        "ladder_s": ladder(passes),
        "solve_s_p50": percentile(every, 50)[0],
        "solve_s_tail": tail_s,
        "certified_frac": (solves - failed) / solves,
    }, {"solves": solves, "failed": failed, "failed_frac": failed / solves,
        "passes": len(passes),
        "pass_wall_s": [sum(o.wall for o in p) for p in passes],
        "ladder_wall_s": ladder(passes, "wall"),
        "instance_s": [statistics.median(ts) for ts in steady],
        "tail_percentile": tail_pct, "tail_samples": tail_samples,
        "tail_beyond": beyond}


def repeat_mismatches(passes, cases):
    """Instances whose objective, counts or x differ between passes."""
    bad = []
    for case, per_case in zip(cases, zip(*passes)):
        sigs = {o.signature() for o in per_case if o.report is not None}
        if len(sigs) > 1:
            bad.append(case.name)
    return bad


def layer_metrics(tracer, first, last, counts, outcomes, cases):
    spans = tracer.span_totals(first, last)

    def span(name):
        return spans.get(name, (0, 0.0, 0.0))

    def per_call_us(calls, seconds):
        return 1e6 * seconds / calls if calls else 0.0

    bfs = [o.report for o, c in zip(outcomes, cases)
           if c.solver == "bfs" and o.report is not None]
    m = {
        "search.calls": sum(r.solver_calls for r in bfs),
        "search.pruned": sum(r.pruned for r in bfs),
        "search.heap_peak": max((r.heap_peak for r in bfs), default=0),
        # bfs_solve minus subtree_solve: Node.children counts as search
        "search.self_s": span("solve")[2] + span("state_space.children")[1],
        "state_space.nodes": counts.get("state_space.nodes", 0),
        "state_space.children_s": span("state_space.children")[1],
        "subtree.self_s": span("subtree")[2],
        "subtree.dual_value_s": span("dual_value")[1],
    }
    for key in ("dual_iters", "pruned_at_entry", "pruned_after_ascent",
                "exact", "cap_hits"):
        m[f"subtree.{key}"] = counts.get(f"subtree.{key}", 0)
    topk_calls, topk_s, _ = span("topk_prox")
    m["subtree.halvings"] = topk_calls - counts.get("subtree.completed_iters", 0)
    m["topk_prox.calls"] = topk_calls
    m["topk_prox.s"] = topk_s
    m["topk_prox.us_per_call"] = per_call_us(topk_calls, topk_s)
    restricted_s = 0.0
    for kind in ("quadratic", "huber", "logistic"):
        calls, _, own = span(f"losses.{kind}.prox_conjugate")
        m[f"losses.{kind}.prox_conjugate_calls"] = calls
        m[f"losses.{kind}.prox_conjugate_s"] = own
        m[f"losses.{kind}.prox_conjugate_us_per_call"] = per_call_us(calls, own)
        calls, _, own = span(f"restricted.{kind}")
        m[f"restricted.{kind}.calls"] = calls
        m[f"restricted.{kind}.us_per_call"] = per_call_us(calls, own)
        restricted_s += own
    m["restricted.s"] = restricted_s
    for key in ("losses.logistic.prox_unconverged",
                "restricted.convergence_errors", "linalg.top_norm_calls",
                "linalg.truncate_top_calls"):
        m[key] = counts.get(key, 0)
    m["linalg.spectral_norm_s"] = span("linalg.spectral_norm")[1]
    return m


def probe_iterations(cases, l0bfs):
    """Microseconds per pdal and sga iteration at each instance's root.

    Cold root state, prune_threshold = inf, at most PROBE_ITERS iterations;
    the closing restricted solve (the polish) is timed and left out.
    """
    from l0bfs import (SolverConfig, pdal_maximize, pdal_root_state,
                       root_node, sga_maximize, sga_root_state)
    cfg = SolverConfig(max_dual_iters=PROBE_ITERS)
    module = l0bfs.subtree
    polish = [0.0]
    original = module.solve_restricted

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            polish[0] += time.perf_counter() - t0

    out = {}
    module.solve_restricted = timed
    try:
        for method, maximize, root_state in (
                ("pdal", pdal_maximize, pdal_root_state),
                ("sga", sga_maximize, sga_root_state)):
            seconds, iters = 0.0, 0
            for case in cases:
                inst = case.instance()
                state = root_state(inst)   # op_norm is computed here
                polish[0] = 0.0
                t0 = time.perf_counter()
                res = maximize(inst, root_node(inst.d, inst.k), state,
                               float("inf"), cfg)
                seconds += time.perf_counter() - t0 - polish[0]
                iters += res.iterations
            out[f"subtree.{method}_iter_us"] = 1e6 * seconds / iters
    finally:
        module.solve_restricted = original
    return out


def code_digest(library_dir):
    """Digest of the library and workload sources: which code made the counts."""
    h = hashlib.sha256()
    paths = sorted(glob.glob(os.path.join(library_dir, "*.py")))
    for path in paths + [os.path.join(HERE, "workloads.py")]:
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def count_drift(per_pass, units, store):
    """Count metrics that differ between traced passes or from the last run
    of the same code on the same workload, whatever its seed: the seed only
    reorders the instances and flips signs, which leaves the work unchanged."""
    names = [n for n, u in units if u == "count" and n != "trace.count_drift"]
    drifted = {n for n in names if len({m[n] for m in per_pass}) > 1}
    current = {n: per_pass[0][n] for n in names}
    if os.path.exists(store):
        with open(store) as f:
            previous = json.load(f)
        drifted |= {n for n in names if n in previous and previous[n] != current[n]}
    with open(store, "w") as f:
        json.dump(current, f, indent=1, sort_keys=True)
    return sorted(drifted)


def environment(args, np, scipy):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(), "cpu": cpu, "thread_pins": THREAD_PINS,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
    }


def emit(correct, attempted, failed, values, units, detail):
    print(json.dumps({"perfbench": detail}, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units},
    }))


class SetupError(Exception):
    """The checkout cannot be benchmarked."""


def set_up(workload, seed):
    """Import the library, warm it up and build the workload's instances.

    Returns (library module, cases, references, seconds spent in generate).
    """
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "l0bfs", "__init__.py")):
        raise SetupError(f"no l0bfs package under {src}; "
                         "run from the repository root")
    sys.path.insert(0, src)
    import l0bfs
    from l0bfs import GenSpec, bfs_solve, exhaustive_solve, generate
    if not os.path.abspath(l0bfs.__file__).startswith(src + os.sep):
        raise SetupError(f"imported l0bfs from {l0bfs.__file__}, not {src}")
    from workloads import build_cases

    # warm-up: lazy imports and first-call costs, once
    for family in ("quadratic", "huber", "logistic"):
        inst = generate(GenSpec(family, 6, 2, 0)).instance
        bfs_solve(inst)
        exhaustive_solve(inst)

    cases, generate_s = build_cases(workload, seed)
    with open(os.path.join(HERE, "references.json")) as f:
        refs = json.load(f)
    missing = [c.name for c in cases if c.name not in refs]
    if missing:
        raise SetupError(f"no reference for {missing}")
    return l0bfs, cases, refs, generate_s


def time_setup(args):
    """Wall seconds of SETUP_REPEATS set-ups, each in a fresh interpreter.

    A set-up is what a user pays before the first timed solve: start Python,
    import, warm up, generate the instances and load the references.  The
    times are not scaled by HostProbe: the probe's swings in this process did
    not carry over to the child's set-up time, and scaling made its spread
    seven times wider.
    """
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--setup-only"]
    walls = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        done = subprocess.run(command, capture_output=True, text=True)
        walls.append(time.perf_counter() - t0)
        if done.returncode:
            raise SetupError(f"set-up failed:\n{done.stderr}")
    return walls


def main(argv=None):
    args = parse_args(argv)
    try:
        l0bfs, cases, refs, generate_s = set_up(args.workload, args.seed)
        if args.setup_only:
            return 0
        import numpy as np
        import scipy

        from l0bfs import bfs_solve, exhaustive_solve
        from workloads import WORKLOADS, build_cases
        setup_walls = None if args.trace else time_setup(args)
        probe = HostProbe()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    tail_pct = WORKLOADS[args.workload].tail_pct
    runner = Runner(cases, refs, {"bfs": bfs_solve, "enum": exhaustive_solve},
                    tail_pct, probe)
    detail = {"env": environment(args, np, scipy),
              "instances": [c.name for c in cases],
              "setup_wall_s": setup_walls}

    if not args.trace:
        passes, _ = runner.passes(args.seconds, runner.min_passes)
        values, detail["run"] = timing(passes, tail_pct)
        values["setup_s"] = statistics.median(setup_walls)
        mismatched = repeat_mismatches(passes, cases)
        detail.update(failures=runner.failures, mismatched=mismatched,
                      calls=[o.report.solver_calls if o.report else None
                             for o in passes[0]])
        failed = detail["run"]["failed"]
        emit(not failed and not mismatched, detail["run"]["solves"], failed,
             values, END_TO_END, detail)
        return 0

    import tracer as tracing
    untraced, _ = runner.passes(args.seconds / 2, 1)
    tr = tracing.Tracer()
    with tr:
        traced, marks = runner.passes(args.seconds / 2, 1, MAX_TRACED_PASSES,
                                      tracer=tr)
    per_pass = []
    for outcomes, (first, before), (last, after) in zip(traced, marks, marks[1:]):
        counts = {k: after.get(k, 0) - before.get(k, 0) for k in after}
        per_pass.append(layer_metrics(tr, first, last, counts, outcomes, cases))
    values = {name: (per_pass[0][name] if unit == "count" else
                     statistics.median(m[name] for m in per_pass))
              for name, unit in PER_LAYER if name in per_pass[0]}
    values.update(probe_iterations(cases, l0bfs))
    values["instances.generate_s"] = statistics.median(
        [generate_s] + [build_cases(args.workload, args.seed)[1]
                        for _ in range(SETUP_REPEATS - 1)])
    values["trace.overhead_frac"] = ladder(traced) / ladder(untraced) - 1.0

    os.makedirs(".perfbench", exist_ok=True)
    stem = os.path.join(".perfbench", f"{args.workload}-s{args.seed}")
    store = os.path.join(".perfbench", f"{args.workload}-"
                         f"{code_digest(os.path.dirname(l0bfs.__file__))}-counts.json")
    drifted = count_drift(per_pass, PER_LAYER, store)
    values["trace.count_drift"] = len(drifted)
    tr.save(stem + "-spans.npz")

    everything = untraced + traced
    mismatched = repeat_mismatches(everything, cases)
    failed = sum(o.error is not None for p in everything for o in p)
    solves = sum(len(p) for p in everything)
    detail.update(failures=runner.failures, mismatched=mismatched,
                  drifted=drifted, traced_passes=len(traced),
                  untraced_passes=len(untraced),
                  self_time_ranking=sorted(SELF_TIMES, key=lambda n: -values[n]),
                  spans=stem + "-spans.npz")
    emit(not failed and not mismatched, solves, failed, values, PER_LAYER,
         detail)
    return 0


if __name__ == "__main__":
    sys.exit(main())

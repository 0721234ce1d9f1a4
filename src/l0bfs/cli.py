"""Command-line driver.

Verbs:
    generate  write a synthetic instance directory (A.csv, b.csv, truth.json,
              manifest.json)
    solve     run one method on one instance, append a CSV result row
    oracle    shorthand for solve --method oracle
    bench     generate-and-solve over a seed range, write runs.csv plus an
              aggregate.json recomputed from the emitted rows

Result rows share one schema (COLUMNS). Floats are written with repr so a
parsed row re-emits byte-identically. Exit codes: 0 success, 1 solver or I/O
failure, 2 usage error. When --out is omitted the L0BFS_OUT environment
variable, if set, names the default output directory.
"""

import argparse
import csv
import json
import os
import sys

import numpy as np

from .baselines import htp, iht, omp
from .instances import GenSpec, generate, load_instance, pssr, save_instance
from .search import bfs_solve, exhaustive_solve
from .subtree import SolverConfig

__all__ = ["main", "COLUMNS", "append_rows", "read_rows", "aggregate_from_rows"]

OUT_ENV = "L0BFS_OUT"

COLUMNS = ["instance_id", "method", "delta", "objective", "objective_error",
           "solver_calls", "pruned", "wall_ms", "support", "status",
           "subroutine", "warm_start", "pruning", "seed", "ref_support"]

METHODS = ("bfs", "omp", "iht", "htp", "oracle")


def _fmt(x):
    return repr(float(x))


def _join(indices):
    return ";".join(str(int(i)) for i in indices)


def append_rows(path, rows):
    """Append dict rows to a CSV file, writing the header on first use."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    fresh = not (os.path.exists(path) and os.path.getsize(path) > 0)
    if not fresh:
        with open(path, newline="") as f:
            header = next(csv.reader(f), None)
        if header != COLUMNS:
            raise ValueError(f"{path} has an incompatible header")
    with open(path, "a", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=COLUMNS, lineterminator="\n")
        if fresh:
            writer.writeheader()
        writer.writerows(rows)


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _result_row(instance_id, method, report, *, subroutine="",
                warm_start="", pruning="", seed=None, ref_support=None,
                oracle_objective=None):
    err = ""
    if oracle_objective is not None:
        err = _fmt(report.objective - oracle_objective)
    return {
        "instance_id": instance_id,
        "method": method,
        "delta": _fmt(report.delta),
        "objective": _fmt(report.objective),
        "objective_error": err,
        "solver_calls": str(report.solver_calls),
        "pruned": str(report.pruned),
        "wall_ms": _fmt(report.wall_time * 1000.0),
        "support": _join(report.support),
        "status": "ok",
        "subroutine": subroutine,
        "warm_start": warm_start,
        "pruning": pruning,
        "seed": "" if seed is None else str(seed),
        "ref_support": "" if ref_support is None else _join(ref_support),
    }


def _error_row(instance_id, method, delta, seed=None):
    row = {c: "" for c in COLUMNS}
    row.update(instance_id=instance_id, method=method, delta=_fmt(delta),
               status="error", seed="" if seed is None else str(seed))
    return row


def _run_method(inst, method, args):
    if method == "bfs":
        cfg = SolverConfig(epsilon=args.epsilon, subroutine=args.subroutine,
                           warm_start=not args.no_warm_start,
                           pruning=not args.no_pruning)
        return bfs_solve(inst, delta=args.delta, cfg=cfg)
    if method == "oracle":
        return exhaustive_solve(inst)
    return {"omp": omp, "iht": iht, "htp": htp}[method](inst)


def _bfs_flags(method, args):
    if method != "bfs":
        return {"subroutine": "", "warm_start": "", "pruning": ""}
    return {"subroutine": args.subroutine,
            "warm_start": str(not args.no_warm_start).lower(),
            "pruning": str(not args.no_pruning).lower()}


# ---------------------------------------------------------------- commands

def cmd_generate(args):
    out = _resolve_out(args.out, args.family)
    spec = GenSpec(family=args.family, d=args.d, k=args.k, seed=args.seed,
                   n=args.n, lam=args.lam, delta=args.huber_delta)
    path = save_instance(out, generate(spec))
    print(path)
    return 0


def cmd_solve(args):
    method = args.method
    out = _resolve_out(args.out, "results.csv")
    inst, meta = load_instance(args.instance)
    iid = meta["instance_id"]
    try:
        report = _run_method(inst, method, args)
    except Exception as exc:  # record the failure, then signal it
        append_rows(out, [_error_row(iid, method, getattr(args, "delta", 0.0),
                                     meta["seed"])])
        print(f"error: {method} failed on {iid}: {exc}", file=sys.stderr)
        return 1
    oracle_obj = report.objective if method == "oracle" else None
    if oracle_obj is None and os.path.exists(out):
        for row in read_rows(out):
            if (row["instance_id"] == iid and row["method"] == "oracle"
                    and row["status"] == "ok"):
                oracle_obj = float(row["objective"])
    append_rows(out, [_result_row(iid, method, report, **_bfs_flags(method, args),
                                  seed=meta["seed"],
                                  ref_support=meta["true_support"],
                                  oracle_objective=oracle_obj)])
    print(f"{iid} {method} objective={report.objective:.12g} "
          f"support={_join(report.support)} wall_ms={report.wall_time * 1e3:.3f}")
    return 0


def cmd_bench(args):
    out = _resolve_out(args.out, "bench")
    os.makedirs(out, exist_ok=True)
    seeds = _parse_seeds(args.seeds)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in METHODS:
            raise _Usage(f"unknown method {m!r}")
    deltas = [float(t) for t in args.deltas.split(",") if t.strip()]
    if not all(dv >= 0 for dv in deltas):
        raise _Usage("deltas must be nonnegative")
    want_oracle = "oracle" in methods or args.pssr_ref == "oracle"

    rows = []
    for seed in seeds:
        spec = GenSpec(family=args.family, d=args.d, k=args.k, seed=seed,
                       n=args.n, lam=args.lam, delta=args.huber_delta)
        gen = generate(spec)
        inst, iid = gen.instance, gen.instance_id
        oracle_report = None
        if want_oracle:
            oracle_report = exhaustive_solve(inst)
        oracle_obj = (oracle_report.objective
                      if "oracle" in methods and oracle_report else None)
        ref = (gen.true_support if args.pssr_ref == "truth"
               else oracle_report.support)
        for method in methods:
            for delta in deltas if method == "bfs" else [0.0]:
                args.delta = delta
                try:
                    if method == "oracle":
                        report = oracle_report
                    else:
                        report = _run_method(inst, method, args)
                except Exception as exc:
                    rows.append(_error_row(iid, method, delta, seed))
                    print(f"warning: {method} failed on {iid}: {exc}",
                          file=sys.stderr)
                    continue
                rows.append(_result_row(
                    iid, method, report, **_bfs_flags(method, args),
                    seed=seed, ref_support=ref, oracle_objective=oracle_obj))

    runs_path = os.path.join(out, "runs.csv")
    if os.path.exists(runs_path):
        os.remove(runs_path)
    append_rows(runs_path, rows)
    aggregate = {
        "family": args.family, "d": args.d, "k": args.k,
        "n": GenSpec(family=args.family, d=args.d, k=args.k, seed=0,
                     n=args.n).resolved().n,
        "seeds": seeds,
        "pssr_reference": args.pssr_ref,
        "records": aggregate_from_rows(read_rows(runs_path)),
    }
    agg_path = os.path.join(out, "aggregate.json")
    with open(agg_path, "w") as f:
        json.dump(aggregate, f, indent=1, sort_keys=True)
        f.write("\n")
    print(agg_path)
    failures = sum(r["status"] == "error" for r in rows)
    return 1 if failures == len(rows) else 0


def aggregate_from_rows(rows):
    """Group parsed result rows by (method, delta) and summarize.

    Pure function of the row strings so that aggregates can always be
    recomputed from runs.csv. Error rows are excluded from the statistics
    and surface only in the error count.
    """
    groups = {}
    for row in rows:
        groups.setdefault((row["method"], row["delta"]), []).append(row)

    def stats(values):
        a = np.asarray(values, dtype=float)
        return float(np.mean(a)), float(np.std(a))

    records = []
    for (method, delta), group in sorted(groups.items()):
        ok = [r for r in group if r["status"] == "ok"]
        rec = {"method": method, "delta": float(delta),
               "runs": len(group), "errors": len(group) - len(ok)}
        if ok:
            for col in ("objective", "solver_calls", "wall_ms"):
                mean, std = stats([r[col] for r in ok])
                rec[f"{col}_mean"], rec[f"{col}_std"] = mean, std
            errs = [r["objective_error"] for r in ok]
            if all(errs):
                mean, std = stats(errs)
                rec["objective_error_mean"], rec["objective_error_std"] = mean, std
            scored = [r for r in ok if r["ref_support"] != ""]
            if scored:
                rec["pssr"] = pssr(
                    [r["support"].split(";") if r["support"] else [] for r in scored],
                    [r["ref_support"].split(";") for r in scored])
        records.append(rec)
    return records


# ---------------------------------------------------------------- plumbing

class _Usage(Exception):
    pass


def _resolve_out(out, default_name):
    if out:
        return out
    base = os.environ.get(OUT_ENV)
    if base:
        return os.path.join(base, default_name)
    raise _Usage(f"--out is required (or set {OUT_ENV})")


def _parse_seeds(text):
    seeds = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            lo, hi = part.split(":")
            seeds.extend(range(int(lo), int(hi)))
        else:
            seeds.append(int(part))
    if not seeds:
        raise _Usage("empty seed list")
    return seeds


def _nonneg(text):
    value = float(text)
    if not value >= 0:  # NaN fails too
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _positive(text):
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _add_gen_flags(p, with_seed):
    p.add_argument("--family", required=True,
                   choices=["huber", "logistic", "quadratic"])
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, default=None,
                   help="sample count (default: floor(10 k ln d))")
    if with_seed:
        p.add_argument("--seed", type=int, required=True)
    p.add_argument("--lam", type=_positive, default=None,
                   help="ridge weight (default: family-specific)")
    p.add_argument("--huber-delta", type=_positive, default=1.0,
                   help="huber transition width")


def _add_solver_flags(p):
    p.add_argument("--subroutine", choices=["pdal", "sga"],
                   default=SolverConfig.subroutine)
    p.add_argument("--epsilon", type=_positive, default=SolverConfig.epsilon,
                   help="relative convergence tolerance of the bound subroutine")
    p.add_argument("--no-warm-start", action="store_true")
    p.add_argument("--no-pruning", action="store_true")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="l0bfs",
        description="Cardinality-constrained minimization: exact search, "
                    "baselines, and benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic instance directory")
    _add_gen_flags(p, with_seed=True)
    p.add_argument("--out", help="instance directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="run one method on a saved instance")
    p.add_argument("--instance", required=True,
                   help="manifest path or instance directory")
    p.add_argument("--method", required=True, choices=list(METHODS))
    p.add_argument("--delta", type=_nonneg, default=0.0,
                   help="allowed gap above the exact optimum")
    _add_solver_flags(p)
    p.add_argument("--out", help="results CSV to append to")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="exhaustive reference solve")
    p.add_argument("--instance", required=True)
    p.add_argument("--out", help="results CSV to append to")
    p.set_defaults(func=cmd_solve, method="oracle")

    p = sub.add_parser("bench", help="seed sweep with per-run CSV + aggregate")
    _add_gen_flags(p, with_seed=False)
    p.add_argument("--seeds", required=True,
                   help="e.g. '0:50' (half-open) or '3,7,11'")
    p.add_argument("--methods", default="bfs",
                   help="comma-separated subset of " + ",".join(METHODS))
    p.add_argument("--deltas", default="0",
                   help="comma-separated gap sweep, applies to bfs")
    _add_solver_flags(p)
    p.add_argument("--pssr-ref", choices=["truth", "oracle"], default="truth",
                   help="support-recovery reference")
    p.add_argument("--out", help="output directory for runs.csv/aggregate.json")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        # unreadable paths, corrupt manifests, incompatible CSV headers
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

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
from .instances import (FAMILIES, GenSpec, generate, load_instance, pssr,
                        save_instance)
from .search import bfs_solve, exhaustive_solve
from .subtree import SUBROUTINES, SolverConfig

__all__ = ["main", "COLUMNS", "append_rows", "read_rows", "aggregate_from_rows"]

OUT_ENV = "L0BFS_OUT"

COLUMNS = ["instance_id", "method", "delta", "objective", "objective_error",
           "solver_calls", "pruned", "wall_ms", "support", "status",
           "subroutine", "seed", "ref_support"]

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
        read_rows(path)  # rejects a file with another header
    with open(path, "a", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=COLUMNS, lineterminator="\n")
        if fresh:
            writer.writeheader()
        writer.writerows(rows)


def read_rows(path):
    """Parsed rows of a results CSV; ValueError unless its header is COLUMNS."""
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames not in (None, COLUMNS):  # None: an empty file
            raise ValueError(f"{path} has an incompatible header")
        return list(reader)


def _run_method(inst, method, args):
    if method == "bfs":
        return bfs_solve(inst, delta=args.delta,
                         cfg=SolverConfig(subroutine=args.subroutine))
    if method == "oracle":
        return exhaustive_solve(inst)
    return {"omp": omp, "iht": iht, "htp": htp}[method](inst)


def _record(inst, iid, method, args, seed, ref, oracle_objective, report=None):
    """The CSV row of one run, running method on inst unless handed its report.

    A failed run prints one error line and gives a status=error row.
    objective_error is measured against oracle_objective, and an oracle
    row against its own objective.
    """
    row = dict.fromkeys(COLUMNS, "")
    # only bfs takes delta; the other methods record 0.0
    row.update(instance_id=iid, method=method,
               delta=_fmt(args.delta if method == "bfs" else 0.0),
               seed="" if seed is None else str(seed))
    if report is None:
        try:
            report = _run_method(inst, method, args)
        except Exception as exc:  # record the failure, then go on
            print(f"error: {method} failed on {iid}: {exc}", file=sys.stderr)
            row["status"] = "error"
            return row
    if method == "oracle":
        oracle_objective = report.objective
    if oracle_objective is not None:
        row["objective_error"] = _fmt(report.objective - oracle_objective)
    if method == "bfs":
        row["subroutine"] = args.subroutine
    row.update(objective=_fmt(report.objective),
               solver_calls=str(report.solver_calls), pruned=str(report.pruned),
               wall_ms=_fmt(report.wall_time * 1000.0),
               support=_join(report.support), status="ok",
               ref_support="" if ref is None else _join(ref))
    return row


# ---------------------------------------------------------------- commands

def cmd_generate(args):
    out = _resolve_out(args.out, args.family)
    spec = GenSpec(family=args.family, d=args.d, k=args.k, seed=args.seed,
                   n=args.n, lam=args.lam, delta=args.huber_delta)
    path = save_instance(out, generate(spec))
    print(path)
    return 0


def cmd_solve(args):
    out = _resolve_out(args.out, "results.csv")
    inst, meta = load_instance(args.instance)
    iid = meta["instance_id"]
    oracle_obj = None
    for row in read_rows(out) if os.path.exists(out) else []:
        if (row["instance_id"], row["method"], row["status"]) == (
                iid, "oracle", "ok"):
            oracle_obj = float(row["objective"])
    row = _record(inst, iid, args.method, args, meta["seed"],
                  meta["true_support"], oracle_obj)
    append_rows(out, [row])
    if row["status"] == "error":
        return 1
    print(f"{iid} {args.method} objective={float(row['objective']):.12g} "
          f"support={row['support']} wall_ms={float(row['wall_ms']):.3f}")
    return 0


def cmd_bench(args):
    out = _resolve_out(args.out, "bench")
    seeds = _parse_seeds(args.seeds)
    methods = _parse_list(args.methods, "method")
    for m in methods:
        if m not in METHODS:
            raise _Usage(f"unknown method {m!r}")
    deltas = _parse_list(args.deltas, "delta", float)
    if not all(dv >= 0 for dv in deltas):
        raise _Usage("deltas must be nonnegative")
    want_oracle = "oracle" in methods or args.pssr_ref == "oracle"

    rows = []
    for seed in seeds:
        gen = generate(GenSpec(family=args.family, d=args.d, k=args.k,
                               seed=seed, n=args.n, lam=args.lam,
                               delta=args.huber_delta))
        inst, iid = gen.instance, gen.instance_id
        oracle = exhaustive_solve(inst) if want_oracle else None
        oracle_obj = oracle.objective if "oracle" in methods else None
        ref = gen.true_support if args.pssr_ref == "truth" else oracle.support
        for method in methods:
            for delta in deltas if method == "bfs" else [0.0]:
                run_args = argparse.Namespace(**vars(args), delta=delta)
                rows.append(_record(inst, iid, method, run_args, seed, ref,
                                    oracle_obj,
                                    oracle if method == "oracle" else None))

    runs_path = os.path.join(out, "runs.csv")
    if os.path.exists(runs_path):
        os.remove(runs_path)
    append_rows(runs_path, rows)
    aggregate = {
        "family": args.family, "d": args.d, "k": args.k, "n": inst.n,
        "seeds": seeds, "pssr_reference": args.pssr_ref,
        "records": aggregate_from_rows(read_rows(runs_path)),
    }
    agg_path = os.path.join(out, "aggregate.json")
    with open(agg_path, "w") as f:
        json.dump(aggregate, f, indent=1, sort_keys=True)
        f.write("\n")
    print(agg_path)
    return 0 if any(r["status"] == "ok" for r in rows) else 1


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


def _parse_list(text, what, convert=str):
    """The comma-separated values of a bench flag; a usage error if none is
    given or one does not convert."""
    try:
        values = [convert(t.strip()) for t in text.split(",") if t.strip()]
    except ValueError:
        raise _Usage(f"malformed {what} list {text!r}") from None
    if not values:
        raise _Usage(f"empty {what} list")
    return values


def _seed_span(text):
    lo, colon, hi = text.partition(":")
    return range(int(lo), int(hi)) if colon else [int(text)]


def _parse_seeds(text):
    seeds = [s for span in _parse_list(text, "seed", _seed_span) for s in span]
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
    p.add_argument("--family", required=True, choices=FAMILIES)
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
    p.add_argument("--subroutine", choices=SUBROUTINES,
                   default=SolverConfig.subroutine,
                   help="node bound: newton (damped Newton on the node's "
                        "relaxation, to a certified gap), pdal or sga (dual "
                        "ascents); default: %(default)s")


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

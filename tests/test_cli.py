import json
import os
import shutil
import subprocess

import numpy as np
import pytest

from l0bfs import (SolverConfig, bfs_solve, cli, exhaustive_solve,
                   load_instance)
from l0bfs.cli import (COLUMNS, aggregate_from_rows, append_rows, main,
                       read_rows)

GEN = ["--family", "quadratic", "--d", "6", "--k", "2", "--n", "25"]


def gen_dir(tmp_path, seed=0, name="inst"):
    out = str(tmp_path / name)
    assert main(["generate", *GEN, "--seed", str(seed), "--out", out]) == 0
    return out


class TestParsing:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "generate" in capsys.readouterr().out

    def test_missing_required_flag_is_usage_error(self, tmp_path, capsys):
        rc = main(["generate", "--family", "huber", "--d", "6",
                   "--seed", "0", "--out", str(tmp_path / "x")])
        capsys.readouterr()
        assert rc == 2

    def test_unknown_method_rejected(self, tmp_path, capsys):
        rc = main(["solve", "--instance", "whatever", "--method", "magic",
                   "--out", str(tmp_path / "r.csv")])
        capsys.readouterr()
        assert rc == 2

    def test_search_always_prunes(self, tmp_path, capsys):
        # no flag turns pruning off
        inst = gen_dir(tmp_path)
        rc = main(["solve", "--instance", inst, "--method", "bfs",
                   "--no-pruning", "--out", str(tmp_path / "r.csv")])
        capsys.readouterr()
        assert rc == 2
        assert not os.path.exists(tmp_path / "r.csv")

    def test_search_always_warm_starts(self, tmp_path, capsys):
        # no flag starts the children cold, and no column records it
        assert "warm_start" not in COLUMNS
        inst = gen_dir(tmp_path)
        rc = main(["solve", "--instance", inst, "--method", "bfs",
                   "--no-warm-start", "--out", str(tmp_path / "r.csv")])
        capsys.readouterr()
        assert rc == 2
        assert not os.path.exists(tmp_path / "r.csv")

    def test_oracle_rejects_search_flags(self, tmp_path, capsys):
        # the exhaustive solve has no subroutine or delta
        inst = gen_dir(tmp_path)
        rc = main(["oracle", "--instance", inst, "--subroutine", "sga",
                   "--out", str(tmp_path / "r.csv")])
        capsys.readouterr()
        assert rc == 2
        assert not os.path.exists(tmp_path / "r.csv")

    def test_seed_ranges(self):
        assert cli._parse_seeds("0:3") == [0, 1, 2]
        assert cli._parse_seeds("0:2,7") == [0, 1, 7]
        assert cli._parse_seeds("5") == [5]
        with pytest.raises(cli._Usage):
            cli._parse_seeds(",")

    def test_negative_delta_rejected(self, tmp_path, capsys):
        inst = gen_dir(tmp_path)
        rc = main(["solve", "--instance", inst, "--method", "bfs",
                   "--delta", "-1", "--out", str(tmp_path / "r.csv")])
        capsys.readouterr()
        assert rc == 2

    @pytest.mark.parametrize("flag", ["--delta"])
    def test_nan_setting_rejected(self, tmp_path, capsys, flag):
        inst = gen_dir(tmp_path)
        rc = main(["solve", "--instance", inst, "--method", "bfs",
                   flag, "nan", "--out", str(tmp_path / "r.csv")])
        capsys.readouterr()
        assert rc == 2
        assert not os.path.exists(tmp_path / "r.csv")

    @pytest.mark.parametrize("verb", ["solve", "bench"])
    def test_epsilon_flag_is_usage_error(self, tmp_path, capsys, verb):
        # the ascent tolerance is a constant, not a setting
        out = tmp_path / "out"
        target = (["--instance", gen_dir(tmp_path), "--method", "bfs"]
                  if verb == "solve" else [*GEN, "--seeds", "0"])
        rc = main([verb, *target, "--epsilon", "1e-4", "--out", str(out)])
        assert rc == 2
        assert "--epsilon" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("flags", [
        ["--methods", ","], ["--methods", "bfs", "--deltas", ","],
        ["--seeds", "0:2:3"], ["--seeds", "a"], ["--deltas", "abc"]],
        ids=" ".join)
    def test_malformed_bench_list_is_usage_error(self, tmp_path, monkeypatch,
                                                 capsys, flags):
        def no_generate(spec):
            raise AssertionError("generated an instance")

        monkeypatch.setattr(cli, "generate", no_generate)
        out = tmp_path / "b"
        rc = main(["bench", *GEN, "--seeds", "0:2", *flags, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("usage error:")
        assert not os.path.exists(out)

    def test_nan_bench_delta_rejected(self, tmp_path, capsys):
        rc = main(["bench", *GEN, "--seeds", "0", "--deltas", "0,nan",
                   "--out", str(tmp_path / "b")])
        capsys.readouterr()
        assert rc == 2
        assert not os.path.exists(tmp_path / "b" / "runs.csv")

    @pytest.mark.parametrize("key", ["paths", "A", "b", "family", "lambda",
                                     "k", "loss"])
    def test_manifest_missing_key_is_an_error_line(self, tmp_path, capsys,
                                                   key):
        inst = gen_dir(tmp_path)
        path = os.path.join(inst, "manifest.json")
        with open(path) as f:
            manifest = json.load(f)
        if key == "loss":  # only external manifests name their loss
            manifest["family"] = "external"
        elif key in ("A", "b"):
            del manifest["paths"][key]
        else:
            del manifest[key]
        with open(path, "w") as f:
            json.dump(manifest, f)
        rc = main(["solve", "--instance", inst, "--method", "omp",
                   "--out", str(tmp_path / "r.csv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and repr(key) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key,value", [
        ("k", 2.5), ("k", True), ("k", "2"), ("k", None), ("lambda", "0.1"),
        ("delta", "x"), ("normalize_columns", "false"),
        ("normalize_columns", 1), ("normalize_columns", None)])
    def test_manifest_value_of_wrong_type_is_an_error_line(
            self, tmp_path, capsys, key, value):
        inst = gen_dir(tmp_path)
        path = os.path.join(inst, "manifest.json")
        with open(path) as f:
            manifest = json.load(f)
        manifest[key] = value
        if key == "delta":  # only the huber loss reads delta
            manifest["family"] = "huber"
        with open(path, "w") as f:
            json.dump(manifest, f)
        rc = main(["solve", "--instance", inst, "--method", "bfs",
                   "--out", str(tmp_path / "r.csv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "Traceback" not in err
        if key == "normalize_columns":
            assert repr(key) in err
        assert not os.path.exists(tmp_path / "r.csv")

    @pytest.mark.parametrize("case", ["paths_string", "path_number",
                                      "truth_without_support",
                                      "support_number", "support_index_string"])
    def test_manifest_entry_of_wrong_type_is_an_error_line(
            self, tmp_path, capsys, case):
        inst = gen_dir(tmp_path)
        path = os.path.join(inst, "manifest.json")
        with open(path) as f:
            manifest = json.load(f)
        if case == "paths_string":
            manifest["paths"], entry = "A.csv", "paths"
        elif case == "path_number":
            manifest["paths"]["A"], entry = 5, "'A'"
        else:
            truth, entry = {"truth_without_support": ({}, "'support'"),
                            "support_number": ({"support": 5}, "'support'"),
                            "support_index_string": ({"support": [0, "1"]},
                                                     "'1'")}[case]
            with open(os.path.join(inst, "truth.json"), "w") as f:
                json.dump(truth, f)
        with open(path, "w") as f:
            json.dump(manifest, f)
        rc = main(["solve", "--instance", inst, "--method", "omp",
                   "--out", str(tmp_path / "r.csv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and entry in err
        assert "Traceback" not in err
        assert not os.path.exists(tmp_path / "r.csv")

    def test_missing_out_without_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv(cli.OUT_ENV, raising=False)
        inst = gen_dir(tmp_path)
        rc = main(["solve", "--instance", inst, "--method", "omp"])
        capsys.readouterr()
        assert rc == 2

    def test_out_env_supplies_default_dir(self, tmp_path, monkeypatch,
                                          capsys):
        inst = gen_dir(tmp_path)
        monkeypatch.setenv(cli.OUT_ENV, str(tmp_path / "envout"))
        assert main(["solve", "--instance", inst, "--method", "omp"]) == 0
        capsys.readouterr()
        assert os.path.exists(tmp_path / "envout" / "results.csv")


class TestGenerate:
    def test_writes_instance_directory(self, tmp_path, capsys):
        out = gen_dir(tmp_path, seed=4)
        printed = capsys.readouterr().out.strip()
        assert printed == os.path.join(out, "manifest.json")
        for name in ("A.csv", "b.csv", "truth.json", "manifest.json"):
            assert os.path.exists(os.path.join(out, name))
        inst, meta = load_instance(out)
        assert inst.A.shape == (25, 6)
        assert meta["seed"] == 4

    @pytest.mark.parametrize("lam", ["inf", "1e999"])
    def test_infinite_lam_rejected(self, tmp_path, capsys, lam):
        out = str(tmp_path / "inst")
        assert main(["generate", "--family", "huber", "--d", "6", "--k", "2",
                     "--seed", "0", "--n", "25", "--lam", lam,
                     "--out", out]) == 1
        assert "lam must be positive and finite" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_regeneration_is_byte_identical(self, tmp_path, capsys):
        a = gen_dir(tmp_path, seed=9, name="a")
        b = gen_dir(tmp_path, seed=9, name="b")
        capsys.readouterr()
        for name in ("A.csv", "b.csv", "truth.json"):
            with open(os.path.join(a, name), "rb") as f:
                left = f.read()
            with open(os.path.join(b, name), "rb") as f:
                right = f.read()
            assert left == right, name


class TestSolve:
    def test_row_schema_and_round_trip(self, tmp_path, capsys):
        inst = gen_dir(tmp_path)
        out = str(tmp_path / "r.csv")
        assert main(["solve", "--instance", inst, "--method", "bfs",
                     "--out", out]) == 0
        capsys.readouterr()
        rows = read_rows(out)
        assert len(rows) == 1
        row = rows[0]
        assert list(row) == COLUMNS
        assert row["method"] == "bfs"
        assert row["status"] == "ok"
        assert row["subroutine"] == "pdal"
        assert row["seed"] == "0"
        assert row["ref_support"]  # generated instances carry their truth
        # a parsed row re-emits byte-identically
        copy = str(tmp_path / "copy.csv")
        append_rows(copy, rows)
        with open(out, "rb") as f:
            original = f.read()
        with open(copy, "rb") as f:
            rewritten = f.read()
        assert original == rewritten

    def test_oracle_then_bfs_fills_objective_error(self, tmp_path, capsys):
        inst = gen_dir(tmp_path)
        out = str(tmp_path / "r.csv")
        assert main(["oracle", "--instance", inst, "--out", out]) == 0
        assert main(["solve", "--instance", inst, "--method", "bfs",
                     "--out", out]) == 0
        capsys.readouterr()
        oracle_row, bfs_row = read_rows(out)
        assert oracle_row["method"] == "oracle"
        assert oracle_row["objective_error"] == "0.0"
        assert bfs_row["objective_error"] != ""
        assert abs(float(bfs_row["objective_error"])) <= 1e-8
        assert float(bfs_row["objective"]) == pytest.approx(
            float(oracle_row["objective"]), abs=1e-8)

    def test_bfs_without_oracle_leaves_error_blank(self, tmp_path, capsys):
        inst = gen_dir(tmp_path)
        out = str(tmp_path / "r.csv")
        assert main(["solve", "--instance", inst, "--method", "bfs",
                     "--out", out]) == 0
        capsys.readouterr()
        assert read_rows(out)[0]["objective_error"] == ""

    def test_baseline_solver_calls_is_one(self, tmp_path, capsys):
        inst = gen_dir(tmp_path)
        out = str(tmp_path / "r.csv")
        for method in ("omp", "iht", "htp"):
            assert main(["solve", "--instance", inst, "--method", method,
                         "--out", out]) == 0
        capsys.readouterr()
        for row in read_rows(out):
            assert row["solver_calls"] == "1"
            assert row["subroutine"] == ""

    def test_ablation_flags_recorded(self, tmp_path, capsys):
        inst = gen_dir(tmp_path)
        out = str(tmp_path / "r.csv")
        assert main(["solve", "--instance", inst, "--method", "bfs",
                     "--subroutine", "sga", "--out", out]) == 0
        capsys.readouterr()
        row = read_rows(out)[0]
        assert row["subroutine"] == "sga"

    def test_default_flags_build_default_config(self, tmp_path, monkeypatch,
                                                capsys):
        inst = gen_dir(tmp_path)
        seen = []

        def recording(inst, delta=0.0, cfg=None, record_bounds=False):
            seen.append(cfg)
            return bfs_solve(inst, delta=delta, cfg=cfg,
                             record_bounds=record_bounds)

        monkeypatch.setattr(cli, "bfs_solve", recording)
        assert main(["solve", "--instance", inst, "--method", "bfs",
                     "--out", str(tmp_path / "r.csv")]) == 0
        capsys.readouterr()
        assert seen == [SolverConfig()]

    def test_solver_failure_appends_error_row(self, tmp_path, monkeypatch,
                                              capsys):
        inst = gen_dir(tmp_path)
        out = str(tmp_path / "r.csv")

        def boom(inst, method, args):
            raise RuntimeError("instrumented failure")

        monkeypatch.setattr(cli, "_run_method", boom)
        rc = main(["solve", "--instance", inst, "--method", "bfs",
                   "--out", out])
        err = capsys.readouterr().err
        assert rc == 1
        assert "instrumented failure" in err
        row = read_rows(out)[0]
        assert row["status"] == "error"
        assert row["objective"] == ""

    def test_error_row_of_a_method_without_delta_groups_with_its_ok_row(
            self, tmp_path, monkeypatch, capsys):
        inst = gen_dir(tmp_path)
        out = str(tmp_path / "r.csv")
        argv = ["solve", "--instance", inst, "--method", "omp",
                "--delta", "0.5", "--out", out]
        assert main(argv) == 0

        def boom(inst, method, args):
            raise RuntimeError("instrumented failure")

        monkeypatch.setattr(cli, "_run_method", boom)
        assert main(argv) == 1
        capsys.readouterr()
        rows = read_rows(out)
        assert [(r["delta"], r["status"]) for r in rows] == [
            ("0.0", "ok"), ("0.0", "error")]
        [record] = aggregate_from_rows(rows)
        assert (record["runs"], record["errors"]) == (2, 1)

    @pytest.mark.parametrize("text", ["not,the,right,header\n",
                                      "not,the,right,header\n1,2,3,4\n"],
                             ids=["header_only", "with_data_row"])
    def test_header_mismatch_is_io_error(self, tmp_path, monkeypatch, capsys,
                                         text):
        inst = gen_dir(tmp_path)
        out = str(tmp_path / "r.csv")
        with open(out, "w") as f:
            f.write(text)
        ran = []
        monkeypatch.setattr(cli, "omp", lambda inst: ran.append(inst))
        rc = main(["solve", "--instance", inst, "--method", "omp",
                   "--out", out])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert ran == []  # rejected before the method runs
        with open(out) as f:
            assert f.read() == text


class TestBench:
    def run_bench(self, tmp_path, name="bench", extra=()):
        out = str(tmp_path / name)
        rc = main(["bench", *GEN, "--seeds", "0:3",
                   "--methods", "bfs,omp,oracle", "--deltas", "0,0.001",
                   "--out", out, *extra])
        assert rc == 0
        return out

    def test_rows_and_aggregate(self, tmp_path, capsys):
        out = self.run_bench(tmp_path)
        capsys.readouterr()
        rows = read_rows(os.path.join(out, "runs.csv"))
        # per seed: two bfs deltas + omp + oracle
        assert len(rows) == 12
        with open(os.path.join(out, "aggregate.json")) as f:
            agg = json.load(f)
        assert agg["records"] == aggregate_from_rows(rows)
        keys = {(r["method"], r["delta"]) for r in agg["records"]}
        assert keys == {("bfs", 0.0), ("bfs", 0.001),
                        ("omp", 0.0), ("oracle", 0.0)}
        for rec in agg["records"]:
            assert rec["runs"] == 3 and rec["errors"] == 0
            assert 0.0 <= rec["pssr"] <= 100.0
            assert "objective_mean" in rec and "wall_ms_mean" in rec
        bfs0 = next(r for r in agg["records"]
                    if r["method"] == "bfs" and r["delta"] == 0.0)
        oracle = next(r for r in agg["records"] if r["method"] == "oracle")
        assert bfs0["objective_error_mean"] <= 1e-8
        assert oracle["solver_calls_mean"] == 15.0  # C(6,2) supports

    def test_deterministic_up_to_timing(self, tmp_path, capsys):
        a = self.run_bench(tmp_path, "a")
        b = self.run_bench(tmp_path, "b")
        capsys.readouterr()

        def strip(rows):
            return [{k: v for k, v in r.items() if k != "wall_ms"}
                    for r in rows]

        assert strip(read_rows(os.path.join(a, "runs.csv"))) == \
            strip(read_rows(os.path.join(b, "runs.csv")))

    def test_runs_csv_is_replaced_not_appended(self, tmp_path, capsys):
        out = self.run_bench(tmp_path)
        out = self.run_bench(tmp_path)
        capsys.readouterr()
        assert len(read_rows(os.path.join(out, "runs.csv"))) == 12

    def test_pssr_reference_oracle(self, tmp_path, capsys):
        out = str(tmp_path / "bench")
        assert main(["bench", *GEN, "--seeds", "0:2", "--methods", "bfs",
                     "--pssr-ref", "oracle", "--out", out]) == 0
        capsys.readouterr()
        rows = read_rows(os.path.join(out, "runs.csv"))
        # reference equals the exhaustive support, so exact search scores 100
        for row in rows:
            assert row["ref_support"]
        agg = aggregate_from_rows(rows)
        assert agg[0]["pssr"] == 100.0

    def test_unknown_method_is_usage_error(self, tmp_path, capsys):
        rc = main(["bench", *GEN, "--seeds", "0:1", "--methods", "magic",
                   "--out", str(tmp_path / "bench")])
        capsys.readouterr()
        assert rc == 2

    def test_all_failures_exit_one(self, tmp_path, monkeypatch, capsys):
        def boom(inst, method, args):
            raise RuntimeError("instrumented failure")

        monkeypatch.setattr(cli, "_run_method", boom)
        rc = main(["bench", *GEN, "--seeds", "0:2", "--methods", "bfs",
                   "--out", str(tmp_path / "bench")])
        capsys.readouterr()
        assert rc == 1
        rows = read_rows(str(tmp_path / "bench" / "runs.csv"))
        assert all(r["status"] == "error" for r in rows)

    def test_failed_run_prints_one_error_line(self, tmp_path, monkeypatch,
                                              capsys):
        def boom(inst, method, args):
            raise RuntimeError("instrumented failure")

        monkeypatch.setattr(cli, "_run_method", boom)
        rc = main(["bench", *GEN, "--seeds", "0", "--methods", "omp",
                   "--out", str(tmp_path / "bench")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == ("error: omp failed on quadratic-d6-k2-n25-s0: "
                       "instrumented failure\n")

    def test_partial_failures_still_aggregate(self, tmp_path, monkeypatch,
                                              capsys):
        def boom(inst, method, args):
            raise RuntimeError("instrumented failure")

        monkeypatch.setattr(cli, "_run_method", boom)
        out = str(tmp_path / "bench")
        rc = main(["bench", *GEN, "--seeds", "0:2",
                   "--methods", "bfs,oracle", "--out", out])
        capsys.readouterr()
        assert rc == 0  # oracle runs bypass the instrumented failure
        with open(os.path.join(out, "aggregate.json")) as f:
            agg = json.load(f)
        by_method = {r["method"]: r for r in agg["records"]}
        assert by_method["bfs"]["errors"] == 2
        assert by_method["oracle"]["errors"] == 0


class TestPssrMatchesHandCount:
    def test_recomputable_from_rows(self, tmp_path, capsys):
        out = str(tmp_path / "bench")
        assert main(["bench", *GEN, "--seeds", "0:4", "--methods", "omp",
                     "--out", out]) == 0
        capsys.readouterr()
        rows = read_rows(os.path.join(out, "runs.csv"))
        hits = sum(set(r["support"].split(";")) == set(r["ref_support"].split(";"))
                   for r in rows)
        expected = 100.0 * hits / len(rows)
        agg = aggregate_from_rows(rows)
        assert agg[0]["pssr"] == pytest.approx(expected, abs=1e-12)


class TestConsoleScript:
    # the script exists only after `pip install -e .`; a source-tree run
    # with PYTHONPATH=src has the package but no script on PATH
    @pytest.mark.skipif(shutil.which("l0bfs") is None,
                        reason="l0bfs console script not on PATH "
                               "(run `pip install -e .`)")
    def test_entry_point_round_trip(self, tmp_path):
        exe = shutil.which("l0bfs")
        assert exe, "console script not installed"
        inst = str(tmp_path / "inst")
        r = subprocess.run([exe, "generate", *GEN, "--seed", "1",
                            "--out", inst], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        out = str(tmp_path / "r.csv")
        r = subprocess.run([exe, "solve", "--instance", inst, "--method",
                            "bfs", "--out", out], capture_output=True,
                           text=True)
        assert r.returncode == 0, r.stderr
        row = read_rows(out)[0]
        loaded, _ = load_instance(inst)
        assert float(row["objective"]) == pytest.approx(
            exhaustive_solve(loaded).objective, rel=1e-8)

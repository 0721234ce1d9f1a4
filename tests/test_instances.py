import json
import math

import numpy as np
import pytest
from scipy.stats import chisquare

from l0bfs import (GenSpec, default_n, generate, load_instance, pssr,
                   save_instance)

REG_FAMILIES = ["huber", "quadratic"]


def spec(family="huber", d=12, k=3, seed=0, **kw):
    return GenSpec(family=family, d=d, k=k, seed=seed, **kw)


class TestGenSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            spec(family="poisson")
        with pytest.raises(ValueError):
            spec(k=0)
        with pytest.raises(ValueError):
            spec(d=3, k=4)
        with pytest.raises(ValueError):
            spec(n=0)
        with pytest.raises(ValueError):
            spec(lam=0.0)
        with pytest.raises(ValueError):
            spec(delta=0.0)

    @pytest.mark.parametrize("lam", [math.inf, -math.inf])
    def test_infinite_lam_rejected(self, lam):
        with pytest.raises(ValueError, match="lam must be positive and finite"):
            spec(lam=lam)

    def test_nan_lam_and_delta_rejected(self):
        with pytest.raises(ValueError):
            spec(lam=float("nan"))
        with pytest.raises(ValueError):
            spec(delta=float("nan"))

    @pytest.mark.parametrize("field,value", [
        (field, value) for field in ("d", "k", "n", "seed")
        for value in (2.5, 3.0, True, "3", None)
        if (field, value) != ("n", None)])  # n = None asks for the default
    def test_non_integer_sizes_and_seed_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            spec(**{field: value})

    @pytest.mark.parametrize("field", ["lam", "delta"])
    def test_non_real_lam_and_delta_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be a real number"):
            spec(**{field: "0.1"})

    def test_numpy_integers_accepted(self):
        assert spec(d=np.int64(12), k=np.int64(3), seed=np.int64(0)).k == 3

    def test_resolved_fills_defaults(self):
        s = spec(family="logistic", d=20, k=3).resolved()
        assert s.n == default_n(20, 3)
        assert s.lam == 2e-4
        h = spec(family="huber", d=20, k=3).resolved()
        assert h.lam == 1e-3

    def test_resolved_keeps_explicit_values(self):
        s = spec(n=77, lam=0.5).resolved()
        assert s.n == 77 and s.lam == 0.5

    def test_default_n_values(self):
        assert default_n(30, 3) == 102
        assert default_n(20, 3) == 89
        assert default_n(15, 3) == 81
        assert default_n(8, 2) == int(math.floor(20 * math.log(8)))

    def test_instance_id_format(self):
        s = spec(family="huber", d=30, k=3, seed=7)
        assert s.instance_id == "huber-d30-k3-n102-s7"
        assert spec(n=50, seed=1).instance_id == "huber-d12-k3-n50-s1"


class TestRegressionFamilies:
    @pytest.mark.parametrize("family", REG_FAMILIES)
    def test_shapes_and_unit_columns(self, family):
        g = generate(spec(family=family, n=40))
        inst = g.instance
        assert inst.A.shape == (40, 12)
        np.testing.assert_allclose(np.linalg.norm(inst.A, axis=0), 1.0,
                                   atol=1e-12)
        assert len(g.true_support) == 3
        assert np.all(g.x_true[list(g.true_support)] == 1.0)
        assert np.flatnonzero(g.x_true).size == 3

    def test_bitwise_deterministic(self):
        a = generate(spec(seed=3))
        b = generate(spec(seed=3))
        np.testing.assert_array_equal(a.instance.A, b.instance.A)
        np.testing.assert_array_equal(a.instance.loss.b, b.instance.loss.b)
        assert a.true_support == b.true_support

    def test_seed_changes_data(self):
        a, b = generate(spec(seed=0)), generate(spec(seed=1))
        assert not np.array_equal(a.instance.A, b.instance.A)

    def test_quadratic_shares_the_huber_draw(self):
        h = generate(spec(family="huber", seed=5))
        q = generate(spec(family="quadratic", seed=5))
        np.testing.assert_array_equal(h.instance.A, q.instance.A)
        np.testing.assert_array_equal(h.instance.loss.b, q.instance.loss.b)
        assert h.true_support == q.true_support
        assert (h.instance.loss.kind, q.instance.loss.kind) == ("huber",
                                                                "quadratic")

    def test_signal_to_coefficient_noise_ratio_is_ten(self):
        for seed in range(5):
            g = generate(spec(seed=seed, n=40))
            ratio = np.linalg.norm(g.x_true) / np.linalg.norm(g.x_noise)
            assert ratio == pytest.approx(10.0, rel=1e-12)

    def test_outlier_rows_are_a_tenth_of_the_sample(self):
        for n in (40, 59, 103):
            g = generate(spec(n=n, seed=1))
            assert len(g.outlier_rows) == n // 10
            assert len(set(g.outlier_rows)) == len(g.outlier_rows)
            assert all(0 <= r < n for r in g.outlier_rows)

    def test_small_sample_warns_and_skips_outliers(self):
        with pytest.warns(UserWarning, match="outlier"):
            g = generate(spec(n=9, seed=2))
        assert g.outlier_rows == ()

    def test_outliers_inflate_the_response(self):
        # rebuild b without the inflation: rows marked as outliers must
        # differ from their clean value by 10x the unmarked perturbation
        s = spec(n=50, seed=4).resolved()
        g = generate(s)
        b_clean = g.instance.A @ (g.x_true + g.x_noise)
        resid = g.instance.loss.b - b_clean
        inflated = np.abs(resid[list(g.outlier_rows)])
        rest = np.delete(np.abs(resid), list(g.outlier_rows))
        # not a per-row identity (noise is random), but the scale gap shows
        assert np.median(inflated) > 3 * np.median(rest)

    def test_design_correlation_smoke(self):
        g = generate(spec(d=8, k=2, n=100_000, seed=6))
        c = np.corrcoef(g.instance.A, rowvar=False)
        off = c[~np.eye(8, dtype=bool)]
        assert abs(off.mean() - 0.2) < 0.02

    def test_support_draw_is_uniform(self):
        from itertools import combinations
        counts = {c: 0 for c in combinations(range(6), 2)}
        for seed in range(10_000):
            counts[generate(spec(d=6, k=2, n=12, seed=seed)).true_support] += 1
        stat = chisquare(list(counts.values()))
        assert stat.pvalue > 1e-3


class TestLogisticFamily:
    def test_shapes_labels_and_signal(self):
        g = generate(spec(family="logistic", d=12, k=3, n=60, seed=0))
        inst = g.instance
        assert inst.loss.kind == "logistic"
        assert set(np.unique(inst.loss.b)) <= {-1.0, 1.0}
        np.testing.assert_allclose(np.linalg.norm(inst.A, axis=0), 1.0,
                                   atol=1e-12)
        assert np.all(g.x_true[list(g.true_support)] == 10.0)

    def test_confuser_set_straddles_the_support(self):
        for k in (2, 3, 4, 5):
            g = generate(spec(family="logistic", d=14, k=k, n=30, seed=k))
            hat = set(g.confusers)
            assert len(hat) == k
            assert len(hat & set(g.true_support)) == (k + 1) // 2

    def test_confuser_block_is_more_correlated(self):
        g = generate(spec(family="logistic", d=10, k=4, n=100_000,
                              seed=3))
        c = np.corrcoef(g.instance.A, rowvar=False)
        hat = list(g.confusers)
        other = [j for j in range(10) if j not in g.confusers]
        hat_block = c[np.ix_(hat, hat)]
        oth_block = c[np.ix_(other, other)]
        cross = c[np.ix_(hat, other)]
        assert abs(hat_block[~np.eye(4, dtype=bool)].mean() - 0.5) < 0.02
        assert abs(oth_block[~np.eye(6, dtype=bool)].mean() - 0.2) < 0.02
        assert abs(cross.mean()) < 0.02

    def test_rejects_too_few_decoy_candidates(self):
        with pytest.raises(ValueError, match="confuser"):
            generate(spec(family="logistic", d=3, k=3, n=20, seed=0))

    def test_bitwise_deterministic(self):
        a = generate(spec(family="logistic", seed=9, n=30))
        b = generate(spec(family="logistic", seed=9, n=30))
        np.testing.assert_array_equal(a.instance.A, b.instance.A)
        np.testing.assert_array_equal(a.instance.loss.b, b.instance.loss.b)
        assert a.confusers == b.confusers


class TestPssr:
    def test_exact_match_percentage(self):
        assert pssr([(0, 1)], [(1, 0)]) == 100.0
        assert pssr([(0, 1)], [(1, 2)]) == 0.0
        found = [(0, 1), (2, 3), (4, 5), (0, 2)]
        true = [(1, 0), (2, 3), (4, 6), (0, 2)]
        assert pssr(found, true) == 75.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            pssr([], [])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            pssr([(0,)], [(0,), (1,)])


class TestDiskFormat:
    def test_round_trip_is_bitwise(self, tmp_path):
        g = generate(spec(n=25, seed=11))
        manifest = save_instance(tmp_path / "inst", g)
        inst, meta = load_instance(manifest)
        np.testing.assert_array_equal(inst.A, g.instance.A)
        np.testing.assert_array_equal(inst.loss.b, g.instance.loss.b)
        assert inst.lam == g.instance.lam
        assert inst.k == g.instance.k
        assert meta["instance_id"] == g.instance_id
        assert meta["seed"] == 11
        assert meta["true_support"] == g.true_support

    def test_load_accepts_directory(self, tmp_path):
        g = generate(spec(family="logistic", n=20, seed=12))
        save_instance(tmp_path / "inst", g)
        inst, meta = load_instance(tmp_path / "inst")
        assert type(inst.loss).__name__ == "LogisticLoss"
        assert meta["true_support"] == g.true_support

    def test_manifest_contents(self, tmp_path):
        g = generate(spec(n=25, seed=13, lam=0.5, delta=2.0))
        path = save_instance(tmp_path / "inst", g)
        with open(path) as f:
            m = json.load(f)
        assert m["family"] == "huber"
        assert m["lambda"] == 0.5 and m["delta"] == 2.0
        assert m["d"] == 12 and m["k"] == 3 and m["n"] == 25
        assert m["paths"] == {"A": "A.csv", "b": "b.csv",
                              "truth": "truth.json"}
        assert g.instance.loss.delta == 2.0

    def test_external_manifest_with_normalization(self, tmp_path):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((8, 4)) * 3.0
        b = rng.standard_normal(8)
        np.savetxt(tmp_path / "A.csv", A, fmt="%.17g", delimiter=",")
        np.savetxt(tmp_path / "b.csv", b, fmt="%.17g", delimiter=",")
        manifest = {"family": "external", "loss": "quadratic", "k": 2,
                    "lambda": 0.01, "normalize_columns": True,
                    "paths": {"A": "A.csv", "b": "b.csv"}}
        with open(tmp_path / "manifest.json", "w") as f:
            json.dump(manifest, f)
        inst, meta = load_instance(tmp_path)
        np.testing.assert_allclose(np.linalg.norm(inst.A, axis=0), 1.0,
                                   atol=1e-12)
        np.testing.assert_array_equal(inst.loss.b, b)
        assert meta["true_support"] is None

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, None])
    def test_normalize_columns_must_be_a_bool(self, tmp_path, flag):
        # a JSON string "false" is truthy: it must not rescale the design
        np.savetxt(tmp_path / "A.csv", [[3.0, 0.0], [4.0, 2.0]],
                   fmt="%.17g", delimiter=",")
        np.savetxt(tmp_path / "b.csv", np.ones(2), fmt="%.17g", delimiter=",")
        manifest = {"family": "external", "loss": "quadratic", "k": 1,
                    "lambda": 0.01, "normalize_columns": flag,
                    "paths": {"A": "A.csv", "b": "b.csv"}}
        with open(tmp_path / "manifest.json", "w") as f:
            json.dump(manifest, f)
        with pytest.raises(ValueError, match="'normalize_columns'"):
            load_instance(tmp_path)
        manifest["normalize_columns"] = False
        with open(tmp_path / "manifest.json", "w") as f:
            json.dump(manifest, f)
        inst, _ = load_instance(tmp_path)
        np.testing.assert_array_equal(inst.A, [[3.0, 0.0], [4.0, 2.0]])

    def test_zero_column_of_a_loaded_design_is_named(self, tmp_path):
        A = np.ones((4, 3))
        A[:, 1] = 0.0
        np.savetxt(tmp_path / "A.csv", A, fmt="%.17g", delimiter=",")
        np.savetxt(tmp_path / "b.csv", np.ones(4), fmt="%.17g", delimiter=",")
        manifest = {"family": "external", "loss": "quadratic", "k": 1,
                    "lambda": 0.01, "normalize_columns": True,
                    "paths": {"A": "A.csv", "b": "b.csv"}}
        with open(tmp_path / "manifest.json", "w") as f:
            json.dump(manifest, f)
        with pytest.raises(ValueError, match="column 1 ") as err:
            load_instance(tmp_path)
        assert "generated" not in str(err.value)

    def test_unknown_family_rejected(self, tmp_path):
        with open(tmp_path / "manifest.json", "w") as f:
            json.dump({"family": "mystery", "k": 1, "lambda": 1.0,
                       "paths": {"A": "A.csv", "b": "b.csv"}}, f)
        np.savetxt(tmp_path / "A.csv", np.eye(2), delimiter=",")
        np.savetxt(tmp_path / "b.csv", np.ones(2), delimiter=",")
        with pytest.raises(ValueError, match="family"):
            load_instance(tmp_path)

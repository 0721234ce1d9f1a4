"""Synthetic instance generators and on-disk instance format.

Generation is deterministic in the seed: every family documents its draw
order, and regenerating with the same GenSpec reproduces (A, b) bitwise.

Disk layout for an instance directory:
    A.csv         design matrix, one row per line, %.17g
    b.csv         targets / labels, one value per line, %.17g
    truth.json    planted support and coefficient vector
    manifest.json family, sizes, seed, hyperparameters, relative paths
External data can be wrapped by writing a manifest with family "external"
pointing at existing A/b CSV files.
"""

import json
import math
import os
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .losses import _expit, make_loss
from .restricted import Instance, _integer, _real

__all__ = [
    "GenSpec", "GeneratedInstance", "generate", "default_n", "pssr",
    "save_instance", "load_instance", "FAMILIES",
]

FAMILIES = ("huber", "logistic", "quadratic")

DEFAULT_LAMBDA = {"huber": 1e-3, "quadratic": 1e-3, "logistic": 2e-4}


def default_n(d, k):
    """Sample count used when a spec leaves n unset."""
    return int(math.floor(10 * k * math.log(d)))


@dataclass(frozen=True)
class GenSpec:
    family: str
    d: int
    k: int
    seed: int
    n: Optional[int] = None
    lam: Optional[float] = None
    delta: float = 1.0  # huber transition width; ignored elsewhere

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        for name in ("d", "k", "seed"):
            _integer(name, getattr(self, name))
        if not (0 < self.k <= self.d):
            raise ValueError("need 0 < k <= d")
        if self.n is not None and _integer("n", self.n) < 1:
            raise ValueError("n must be positive")
        if self.lam is not None and not 0 < _real("lam", self.lam) < math.inf:
            raise ValueError("lam must be positive and finite")
        if not _real("delta", self.delta) > 0:
            raise ValueError("delta must be positive")

    def resolved(self):
        """Fill in family defaults for n and lam."""
        out = self
        if out.n is None:
            out = replace(out, n=default_n(out.d, out.k))
        if out.lam is None:
            out = replace(out, lam=DEFAULT_LAMBDA[out.family])
        return out

    @property
    def instance_id(self):
        s = self.resolved()
        return f"{s.family}-d{s.d}-k{s.k}-n{s.n}-s{s.seed}"


@dataclass(frozen=True)
class GeneratedInstance:
    instance: Instance
    true_support: tuple
    x_true: np.ndarray
    spec: GenSpec
    # audit fields so experiments can verify what was planted
    x_noise: Optional[np.ndarray] = None   # dense coefficient noise (regression)
    outlier_rows: Optional[tuple] = None   # rows with inflated response noise
    confusers: Optional[tuple] = None      # decoy-correlated columns (logistic)

    @property
    def instance_id(self):
        return self.spec.instance_id


def _correlated_rows(rng, n, dim, corr):
    # rows ~ N(0, (1-corr) I + corr 11^T)
    z = rng.standard_normal((n, dim))
    if dim <= 1 or corr == 0.0:
        return z
    cov = np.full((dim, dim), corr)
    np.fill_diagonal(cov, 1.0)
    return z @ np.linalg.cholesky(cov).T


def _normalize_columns(A):
    norms = np.linalg.norm(A, axis=0)
    if np.any(norms == 0):
        raise ValueError(f"column {int(np.argmin(norms))} of the design is "
                         f"zero and cannot be normalized")
    return A / norms


def _huber_design(spec, rng):
    """Shared (support, A, b) recipe for the regression families.

    Draw order: support, design rows, coefficient noise, response noise,
    outlier positions.
    """
    d, k, n = spec.d, spec.k, spec.n
    support = np.sort(rng.choice(d, size=k, replace=False))
    A = _normalize_columns(_correlated_rows(rng, n, d, 0.2))
    x_true = np.zeros(d)
    x_true[support] = 1.0
    x_noise = rng.standard_normal(d)
    x_noise *= np.linalg.norm(x_true) / (10.0 * np.linalg.norm(x_noise))
    b_clean = A @ (x_true + x_noise)
    b_noise = rng.standard_normal(n)
    b_noise *= np.linalg.norm(b_clean) / (10.0 * np.linalg.norm(b_noise))
    n_out = n // 10
    if n_out == 0:
        warnings.warn(f"n={n} too small for outliers, generating none",
                      stacklevel=4)
        rows = ()
    else:
        picked = rng.choice(n, size=n_out, replace=False)
        b_noise[picked] *= 10.0
        rows = tuple(int(i) for i in np.sort(picked))
    return support, A, b_clean + b_noise, x_true, x_noise, rows


def _finish(spec, support, A, b, x_true, **extras):
    loss = make_loss(spec.family, b, delta=spec.delta)
    inst = Instance(A=A, loss=loss, lam=spec.lam, k=spec.k)
    return GeneratedInstance(instance=inst, true_support=tuple(int(i) for i in support),
                             x_true=x_true, spec=spec, **extras)


def _gen_regression(spec):
    """The huber and quadratic families: one (A, b) draw, either loss."""
    rng = np.random.default_rng(spec.seed)
    support, A, b, x_true, x_noise, rows = _huber_design(spec, rng)
    return _finish(spec, support, A, b, x_true,
                   x_noise=x_noise, outlier_rows=rows)


def _gen_logistic(spec):
    """Classification with a decoy-correlated block.

    Draw order: support, confuser set (ceil(k/2) true coordinates then
    floor(k/2) off-support ones), confuser design block, remaining block,
    label coin flips.
    """
    d, k, n = spec.d, spec.k, spec.n
    n_in = (k + 1) // 2
    n_out = k - n_in
    if d - k < n_out:
        raise ValueError("d - k too small for the confuser set")
    rng = np.random.default_rng(spec.seed)
    support = np.sort(rng.choice(d, size=k, replace=False))
    x_true = np.zeros(d)
    x_true[support] = 10.0
    hat_in = rng.choice(support, size=n_in, replace=False)
    rest_of_d = np.setdiff1d(np.arange(d), support)
    hat_out = rng.choice(rest_of_d, size=n_out, replace=False)
    hat = np.sort(np.concatenate([hat_in, hat_out]).astype(int))
    other = np.setdiff1d(np.arange(d), hat)
    A = np.empty((n, d))
    A[:, hat] = _correlated_rows(rng, n, hat.size, 0.5)
    if other.size:
        A[:, other] = _correlated_rows(rng, n, other.size, 0.2)
    A = _normalize_columns(A)
    b = np.where(rng.random(n) < _expit(A @ x_true), 1.0, -1.0)
    return _finish(spec, support, A, b, x_true,
                   confusers=tuple(int(i) for i in hat))


def generate(spec):
    """The instance of spec.family drawn from spec.seed."""
    spec = spec.resolved()
    if spec.family == "logistic":
        return _gen_logistic(spec)
    return _gen_regression(spec)


def pssr(found_supports, true_supports):
    """Percentage of runs whose support matches the reference exactly."""
    pairs = list(zip(found_supports, true_supports, strict=True))
    if not pairs:
        raise ValueError("pssr needs at least one pair")
    hits = sum(set(f) == set(t) for f, t in pairs)
    return 100.0 * hits / len(pairs)


def save_instance(dirpath, gen):
    """Write A.csv, b.csv, truth.json, manifest.json; returns manifest path."""
    os.makedirs(dirpath, exist_ok=True)
    spec = gen.spec.resolved()
    inst = gen.instance
    np.savetxt(os.path.join(dirpath, "A.csv"), inst.A, fmt="%.17g", delimiter=",")
    np.savetxt(os.path.join(dirpath, "b.csv"), inst.loss.b, fmt="%.17g", delimiter=",")
    with open(os.path.join(dirpath, "truth.json"), "w") as f:
        json.dump({"support": [int(i) for i in gen.true_support],
                   "x_true": [float(v) for v in gen.x_true]}, f, indent=1)
        f.write("\n")
    manifest = {
        "instance_id": spec.instance_id,
        "family": spec.family,
        "d": spec.d, "k": spec.k, "n": spec.n, "seed": spec.seed,
        "lambda": spec.lam, "delta": spec.delta,
        "paths": {"A": "A.csv", "b": "b.csv", "truth": "truth.json"},
    }
    path = os.path.join(dirpath, "manifest.json")
    with open(path, "w") as f:
        json.dump(manifest, f, indent=1)
        f.write("\n")
    return path


def _required(mapping, key, where="manifest"):
    if not isinstance(mapping, dict):
        raise ValueError(f"{where} must be a JSON object, got {mapping!r}")
    if key not in mapping:
        raise ValueError(f"{where} has no {key!r} entry")
    return mapping[key]


def load_instance(path):
    """Load a manifest (or a directory containing manifest.json).

    Returns (Instance, meta) where meta carries instance_id, seed and the
    true support when a truth file is present. External manifests must give
    family "external" plus an explicit loss name and k; they may also set
    normalize_columns to rescale the loaded design to unit column norms.
    """
    if os.path.isdir(path):
        path = os.path.join(path, "manifest.json")
    with open(path) as f:
        manifest = json.load(f)
    base = os.path.dirname(os.path.abspath(path))
    paths = _required(manifest, "paths")

    def rel(key):
        name = _required(paths, key, "paths")
        if not isinstance(name, str):
            raise ValueError(f"paths entry {key!r} must be a string, "
                             f"got {name!r}")
        return os.path.join(base, name)

    A = np.loadtxt(rel("A"), delimiter=",", ndmin=2)
    b = np.loadtxt(rel("b"), delimiter=",", ndmin=1)
    normalize = manifest.get("normalize_columns", False)
    if not isinstance(normalize, bool):
        raise ValueError(f"manifest entry 'normalize_columns' must be a JSON "
                         f"bool, got {normalize!r}")
    if normalize:
        A = _normalize_columns(A)

    family = _required(manifest, "family")
    if family != "external" and family not in FAMILIES:
        raise ValueError(f"unknown family {family!r} in manifest")
    loss_kind = _required(manifest, "loss") if family == "external" else family
    lam = _required(manifest, "lambda")
    delta = manifest.get("delta", 1.0)
    inst = Instance(A=A, loss=make_loss(loss_kind, b, delta=delta),
                    lam=lam, k=_required(manifest, "k"))

    meta = {
        "instance_id": manifest.get("instance_id",
                                    os.path.basename(base) or "instance"),
        "seed": manifest.get("seed"),
        "true_support": None,
    }
    if paths.get("truth") and os.path.exists(rel("truth")):
        with open(rel("truth")) as f:
            truth = json.load(f)
        support = _required(truth, "support", "truth file")
        if not isinstance(support, list):
            raise ValueError(f"truth file entry 'support' must be a list, "
                             f"got {support!r}")
        meta["true_support"] = tuple(_integer("support index", i)
                                     for i in support)
    return inst, meta

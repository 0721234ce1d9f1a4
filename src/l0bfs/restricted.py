"""Problem instances and the exact support-restricted solver.

An Instance bundles the design matrix A, a loss L, the ridge weight lam,
and the sparsity budget k; its objective is

    P(x) = L(A x) + (lam / 2) ||x||^2.

solve_restricted minimizes P over {x : supp(x) subseteq S} to a gradient
certificate by damped Newton on the restricted variables, the same for
every loss (Boyd & Vandenberghe, Convex Optimization, 9.5).  The ridge term
makes the Hessian A_S^T diag(L'') A_S + lam I SPD, so each step is one
dense linear solve; the quadratic loss takes one full step, and Huber's
piecewise-constant curvature is handled as in semismooth Newton.

solve_restricted_batch runs the same loop on a stack of equal-size
supports at once, for about the numpy calls of one solve; its first
Newton systems are gathered from one system over the union of the
supports' columns (_first_system).  Both certify to the gradient norm _TOL
within _MAX_NEWTON_STEPS Newton steps or raise.
"""

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import spectral_norm

__all__ = ["Instance", "RestrictedSolution", "ConvergenceError", "solve_restricted",
           "solve_restricted_batch"]

# certificate every restricted solve must reach, and the Newton steps it gets
_TOL = 1e-12
_MAX_NEWTON_STEPS = 100

# Newton line search: halvings allowed per step, Armijo fraction of the
# predicted decrease, and a relative slack on phi so that a step at the
# optimum, whose true decrease is below phi's rounding, still passes
_MAX_HALVINGS = 60
_ARMIJO = 1e-4
_ROUNDING = 64 * np.finfo(float).eps


def _integer(name, value):
    """value, if it is an integer and not a bool; ValueError otherwise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _real(name, value):
    """value, if it is a real number and not a bool; ValueError otherwise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value


@dataclass(frozen=True)
class Instance:
    A: np.ndarray
    loss: object
    lam: float
    k: int

    def __post_init__(self):
        A = np.array(self.A, dtype=float)
        if A.ndim != 2:
            raise ValueError("A must be a 2-D matrix")
        if not np.all(np.isfinite(A)):
            raise ValueError("A must be finite")
        if A.shape[0] != self.loss.n:
            raise ValueError("loss dimension does not match rows of A")
        if not (1 <= _integer("k", self.k) <= A.shape[1]):
            raise ValueError("need 1 <= k <= d")
        if not 0 < _real("lam", self.lam) < math.inf:  # NaN fails too
            raise ValueError("lam must be positive and finite")
        A.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "lam", float(self.lam))
        object.__setattr__(self, "k", int(self.k))

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def d(self):
        return self.A.shape[1]

    @cached_property
    def AT(self):
        AT = np.ascontiguousarray(self.A.T)
        AT.setflags(write=False)
        return AT

    @cached_property
    def op_norm(self):
        """Largest singular value of A (cached)."""
        return spectral_norm(self.A)

    def objective(self, x):
        x = np.asarray(x, dtype=float)
        return float(self.loss.value(self.A @ x)) + 0.5 * self.lam * float(x @ x)

    def objective_grad(self, x):
        x = np.asarray(x, dtype=float)
        return self.AT @ self.loss.grad(self.A @ x) + self.lam * x


@dataclass(frozen=True)
class RestrictedSolution:
    x: np.ndarray          # full-length vector, zero off the given support
    value: float
    certificate: float     # restricted gradient norm at x


class ConvergenceError(RuntimeError):
    """Iterative solve did not converge; .best holds the best iterate found."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


def solve_restricted(inst, support):
    """Minimize P over vectors supported on the given index set.

    Returns a RestrictedSolution whose certificate is the norm of the
    objective gradient restricted to the support (off-support entries of the
    gradient are not constrained to vanish); raises ConvergenceError, with
    the last Newton iterate as .best, when that norm does not reach _TOL.
    """
    support = sorted(int(_integer("support index", i)) for i in support)
    if support and (support[0] < 0 or support[-1] >= inst.d):
        raise ValueError("support indices out of range")
    if len(set(support)) != len(support):
        raise ValueError("support indices must be distinct")
    support = np.array(support, dtype=int)
    w, _, cert = _solve_certified(inst, support)
    return _solution(inst, support, w, cert)


def solve_restricted_batch(inst, supports):
    """solve_restricted on every row of supports, a (t, m) array of index sets.

    Returns (x, values, certificates): row i of the (t, d) array x minimizes
    P over vectors supported on supports[i], values[i] is P there (from the
    Newton iterate's own A_S w) and certificates[i] its restricted gradient
    norm.  Every row must certify to _TOL; the first that does not raises
    ConvergenceError with that row's last Newton iterate as .best.
    """
    supports = np.asarray(supports)
    if supports.size and supports.dtype.kind not in "iu":  # bools fail too
        raise ValueError(f"support indices must be integers, got {supports.dtype}")
    supports = np.sort(np.asarray(supports, dtype=int), axis=-1)
    if supports.ndim != 2:
        raise ValueError("supports must be a 2-D array of index sets")
    if supports.size and (supports.min() < 0 or supports.max() >= inst.d):
        raise ValueError("support indices out of range")
    if (supports[:, 1:] == supports[:, :-1]).any():
        raise ValueError("support indices must be distinct")
    w, z, cert = _solve_certified(inst, supports)
    x = np.zeros((len(supports), inst.d))
    np.put_along_axis(x, supports, w, axis=1)
    return x, inst.loss.value(z) + (0.5 * inst.lam) * np.vecdot(w, w), cert


def _solution(inst, support, w, cert):
    x = np.zeros(inst.d)
    x[support] = w
    return RestrictedSolution(x=x, value=inst.objective(x), certificate=float(cert))


def _solve_certified(inst, supports):
    """_solve_newton on supports (..., m) of inst; raises for the first uncertified one."""
    w, z, cert = _solve_newton(inst.AT, supports, inst.loss, inst.lam)
    if not all((cert <= _TOL).flat):
        i = np.unravel_index(np.argmin(cert <= _TOL), np.shape(cert))
        raise ConvergenceError(
            f"restricted solve on {tuple(map(int, supports[i]))} stopped at certificate"
            f" {cert[i]:.3e} > tol={_TOL} within {_MAX_NEWTON_STEPS} Newton steps",
            best=_solution(inst, supports[i], w[i], cert[i]))
    return w, z, cert


def _first_system(AT, supports, AtS, curvature, grad, ridge):
    """The Newton systems (Hessians, gradients) of phi at w = 0 on each
    support of supports (..., m), for A^T = AT, A_S^T = AtS = AT[supports],
    curvature = L''(0), grad = grad L(0) and ridge = lam I.

    Every support starts at w = 0, where A_S w = 0, so its system is a
    block of one system over the sorted union U of the supports' columns:
    the Hessian is gathered from the Gram A_U^T diag(L''(0)) A_U and the
    gradient from A_U^T grad L(0).  U is found with a boolean mask over d
    and an inverse lookup, cheaper than np.unique on these sizes.  A single
    sorted support is its own union, so it takes its own Gram directly: the
    same bytes, without the lookup, which cost 5-7 us of a 35-50 us single
    quadratic or Huber solve at d = 10-100.
    """
    if supports.ndim == 1:
        return (AtS * curvature) @ AtS.T + ridge, AtS @ grad
    mask = np.zeros(len(AT), dtype=bool)
    mask[supports] = True
    union = np.flatnonzero(mask)
    inverse = np.empty(len(AT), dtype=np.intp)
    inverse[union] = np.arange(union.size)
    pos, AtU = inverse[supports], AT[union]
    hess = ((AtU * curvature) @ AtU.T)[pos[..., :, None], pos[..., None, :]]
    return hess + ridge, (AtU @ grad)[pos]


def _solve_newton(AT, supports, loss, lam):
    """Damped Newton on phi(w) = L(A_S w) + (lam/2)||w||^2 from w = 0, for
    A^T = AT of shape (d, n) and S a support of shape (m,), or each row of
    a stack of them, shape (..., m), solved at once.

    Returns (w, z = A_S w, restricted gradient norm), one per leading index;
    a norm above _TOL means the cap or a failed line search stopped the loop.
    The first Newton systems are gathered from one Gram for the call
    (_first_system); later steps take each row's Hessian at its own z.
    A trial point that certifies is
    taken at once; any other must pass an Armijo test on phi, with
    rounding slack, or its step is halved (rows that passed repeat their
    trial bit for bit).  Certified rows keep stepping until every row
    certifies: indexing them out of the stack costs more numpy calls than
    it saves.  Squared norms are tested against tol2 < _TOL**2, so a
    certified norm is at most _TOL once rounded; all() over .flat is
    cheaper than a numpy reduction on so few rows.
    """
    AtS = AT[supports]
    At, tol2, ridge = AtS.mT, math.nextafter(_TOL * _TOL, 0.0), lam * np.eye(AtS.shape[-2])
    z0 = np.zeros(loss.n)
    hess, g = _first_system(AT, supports, AtS, loss.curvature(z0), loss.grad(z0), ridge)
    w, z, f = np.zeros(AtS.shape[:-1]), None, None
    cert = np.vecdot(g, g)
    done = all((cert <= tol2).flat)
    for _ in range(_MAX_NEWTON_STEPS):
        if done:
            break
        if z is not None:  # past w = 0, each row at its own z
            hess = (AtS * loss.curvature(z)[..., None, :]) @ At + ridge
        dw = np.linalg.solve(hess, g[..., None])[..., 0]
        for _ in range(_MAX_HALVINGS + 1):
            w_t = w - dw
            z_t = np.vecmat(w_t, AtS)
            g_t = np.matvec(AtS, loss.grad(z_t)) + lam * w_t
            c_t, f_t = np.vecdot(g_t, g_t), None
            ok = c_t <= tol2
            done = all(ok.flat)
            if done:
                break
            if f is None:  # only ever at w = 0, where phi is L(0) for every row
                f = np.full(c_t.shape, loss.value(z0))
            f_t = loss.value(z_t) + (0.5 * lam) * np.vecdot(w_t, w_t)
            ok |= f_t <= f - _ARMIJO * np.vecdot(g, dw) + _ROUNDING * np.abs(f)
            if all(ok.flat):
                break
            dw = np.where(ok[..., None], dw, 0.5 * dw)
        else:  # some row found no Armijo step within _MAX_HALVINGS halvings
            break
        w, z, g, cert, f = w_t, z_t, g_t, c_t, f_t
    if z is None:  # no step taken: every row is still at w = 0
        z = np.zeros(AtS.shape[:-2] + (loss.n,))
    return w, z, np.sqrt(cert)

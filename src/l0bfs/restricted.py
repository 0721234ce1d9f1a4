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
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import l2_norm, spectral_norm

__all__ = ["Instance", "RestrictedSolution", "ConvergenceError", "solve_restricted"]

# Newton line search: halvings allowed per step, Armijo fraction of the
# predicted decrease, and a relative slack on phi so that a step at the
# optimum, whose true decrease is below phi's rounding, still passes
_MAX_HALVINGS = 60
_ARMIJO = 1e-4
_ROUNDING = 64 * np.finfo(float).eps


@dataclass(frozen=True)
class Instance:
    A: np.ndarray
    loss: object
    lam: float
    k: int
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        A = np.array(self.A, dtype=float)
        if A.ndim != 2:
            raise ValueError("A must be a 2-D matrix")
        if not np.all(np.isfinite(A)):
            raise ValueError("A must be finite")
        if A.shape[0] != self.loss.n:
            raise ValueError("loss dimension does not match rows of A")
        if not (1 <= self.k <= A.shape[1]):
            raise ValueError("need 1 <= k <= d")
        if not self.lam > 0:
            raise ValueError("lam must be positive")
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

    @property
    def AT(self):
        if "AT" not in self._cache:
            AT = np.ascontiguousarray(self.A.T)
            AT.setflags(write=False)
            self._cache["AT"] = AT
        return self._cache["AT"]

    @property
    def op_norm(self):
        """Largest singular value of A (cached)."""
        if "op" not in self._cache:
            self._cache["op"] = spectral_norm(self.A)
        return self._cache["op"]

    def objective(self, x):
        x = np.asarray(x, dtype=float)
        return self.loss.value(self.A @ x) + 0.5 * self.lam * float(x @ x)

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


def solve_restricted(inst, support, tol=1e-12, max_iters=100):
    """Minimize P over vectors supported on the given index set.

    Returns a RestrictedSolution whose certificate is the norm of the
    objective gradient restricted to the support (off-support entries of the
    gradient are not constrained to vanish); raises ConvergenceError, with
    the last Newton iterate as .best, when that norm does not reach tol.
    """
    support = np.asarray(sorted(int(i) for i in support), dtype=int)
    if support.size and (support[0] < 0 or support[-1] >= inst.d):
        raise ValueError("support indices out of range")
    if np.unique(support).size != support.size:
        raise ValueError("support indices must be distinct")
    w, cert = _solve_newton(inst.A[:, support], inst.loss, inst.lam, tol, max_iters)
    x = np.zeros(inst.d)
    x[support] = w
    sol = RestrictedSolution(x=x, value=inst.objective(x), certificate=cert)
    if not cert <= tol:
        raise ConvergenceError(f"restricted solve stopped at certificate {cert:.3e}"
                               f" > tol={tol} within {max_iters} Newton steps", best=sol)
    return sol


def _solve_newton(A_S, loss, lam, tol, max_iters):
    """Damped Newton on phi(w) = L(A_S w) + (lam/2)||w||^2 from w = 0.

    Returns (w, restricted gradient norm at w); a norm above tol means the
    cap or a failed line search stopped it at the last accepted iterate.  A
    trial point that certifies returns at once; any other must pass an
    Armijo test on phi, with rounding slack, or the step is halved.
    """
    def at(w):
        z = A_S @ w
        g = A_S.T @ loss.grad(z) + lam * w
        return z, g, l2_norm(g)

    w, f = np.zeros(A_S.shape[1]), None  # f = phi(w), evaluated once needed
    z, g, cert = at(w)
    if cert <= tol:
        return w, cert
    ridge = lam * np.eye(w.size)
    for _ in range(max_iters):
        hess = (A_S.T * loss.curvature(z)) @ A_S + ridge
        dw = np.linalg.solve(hess, g)
        for _ in range(_MAX_HALVINGS + 1):
            w_new = w - dw
            z_new, g_new, cert_new = at(w_new)
            if cert_new <= tol:
                return w_new, cert_new
            if f is None:
                f = loss.value(z) + 0.5 * lam * float(w @ w)
            f_new = loss.value(z_new) + 0.5 * lam * float(w_new @ w_new)
            if f_new <= f - _ARMIJO * float(g @ dw) + _ROUNDING * abs(f):
                break
            dw = 0.5 * dw
        else:
            break  # no Armijo step within _MAX_HALVINGS halvings
        w, z, g, cert, f = w_new, z_new, g_new, cert_new, f_new
    return w, cert

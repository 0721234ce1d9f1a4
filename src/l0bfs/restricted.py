"""Problem instances and the exact support-restricted solver.

An Instance bundles the design matrix A, a loss L, the ridge weight lam,
and the sparsity budget k; its objective is

    P(x) = L(A x) + (lam / 2) ||x||^2.

solve_restricted minimizes P over {x : supp(x) subseteq S} to a gradient
certificate.  The quadratic loss reduces to an SPD linear system (Cholesky);
the other losses use accelerated gradient descent on the restricted
variables with gradient-based restarts, which is linear-rate since the
ridge term makes the problem lam-strongly convex.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .linalg import spectral_norm

__all__ = ["Instance", "RestrictedSolution", "ConvergenceError", "solve_restricted"]


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
    """Iterative solve hit its cap; .best holds the best iterate found."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


def solve_restricted(inst, support, tol=1e-12, max_iters=100_000):
    """Minimize P over vectors supported on the given index set.

    Returns a RestrictedSolution whose certificate is the norm of the
    objective gradient restricted to the support (off-support entries of the
    gradient are not constrained to vanish).
    """
    support = np.asarray(sorted(int(i) for i in support), dtype=int)
    if support.size and (support[0] < 0 or support[-1] >= inst.d):
        raise ValueError("support indices out of range")
    if np.unique(support).size != support.size:
        raise ValueError("support indices must be distinct")
    x = np.zeros(inst.d)
    if support.size == 0:
        return RestrictedSolution(x=x, value=inst.objective(x), certificate=0.0)

    A_S = inst.A[:, support]
    if inst.loss.kind == "quadratic":
        w, cert = _solve_quadratic(A_S, inst.loss.b, inst.lam, inst.loss.n, tol)
    else:
        w, cert, ok = _solve_accelerated(A_S, inst.loss, inst.lam, tol, max_iters)
        if not ok:
            x[support] = w
            best = RestrictedSolution(x=x, value=inst.objective(x), certificate=cert)
            raise ConvergenceError(
                f"restricted solve did not reach tol={tol} within {max_iters} iterations"
                f" (certificate {cert:.3e})",
                best=best,
            )
    x[support] = w
    return RestrictedSolution(x=x, value=inst.objective(x), certificate=cert)


def _solve_quadratic(A_S, b, lam, n, tol):
    # stationarity: (A_S^T A_S / n + lam I) w = A_S^T b / n
    s = A_S.shape[1]
    G = A_S.T @ A_S / n + lam * np.eye(s)
    rhs = A_S.T @ b / n
    cf = cho_factor(G)
    w = cho_solve(cf, rhs)
    cert = float(np.linalg.norm(G @ w - rhs))
    for _ in range(3):  # iterative refinement, usually a no-op
        if cert <= 0.5 * tol:
            break
        w = w - cho_solve(cf, G @ w - rhs)
        cert = float(np.linalg.norm(G @ w - rhs))
    return w, cert


def _solve_accelerated(A_S, loss, lam, tol, max_iters):
    """Accelerated gradient with gradient-based restarts on phi(w) = L(A_S w) + (lam/2)||w||^2."""
    s = A_S.shape[1]
    lip = spectral_norm(A_S) ** 2 / loss.gamma + lam
    q = lam / lip
    momentum = (1.0 - np.sqrt(q)) / (1.0 + np.sqrt(q))

    def grad(w):
        return A_S.T @ loss.grad(A_S @ w) + lam * w

    w = np.zeros(s)
    z = w.copy()
    best_w, best_cert = w, np.inf
    for _ in range(max_iters):
        g = grad(z)
        ng = float(np.linalg.norm(g))
        if ng < best_cert:
            best_w, best_cert = z, ng
        w_new = z - g / lip
        if ng <= 0.5 * tol:
            # z is essentially stationary; certify at the new primal point
            cert = float(np.linalg.norm(grad(w_new)))
            if cert <= tol:
                return w_new, cert, True
        # restart the momentum when the gradient opposes the last move
        if g @ (w_new - w) > 0:
            z = w_new
        else:
            z = w_new + momentum * (w_new - w)
        w = w_new
    return best_w, best_cert, False

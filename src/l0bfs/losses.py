"""Convex loss functions: values, gradients, conjugates, and proximal maps.

Each loss L maps R^n to R and owns its observation vector b.  The search
needs four exact ingredients per loss: L(z), grad L(z), the conjugate
L*(beta) together with its effective domain, and the proximal operators of
tau*L and tau*L*; restricted solves also use the diagonal curvature of L.
Each loss implements prox_{tau L*}, the prox the dual solver calls: in
closed form for quadratic and Huber (a clip to the box), by a monotone
Newton iteration in the conjugate's own variable for logistic.  prox_{c L}
follows from it through Moreau's identity

    prox_{c L}(w) = w - c * prox_{L*/c}(w / c).

Every loss is (1/gamma)-smooth; gamma drives the dual solver's step-size
schedule.  value, grad and curvature also take a stack of points, shape
(..., n), as the batched restricted solves do; value then reduces over the
last axis only.
"""

import math

import numpy as np
from scipy.special import expit, logit, xlogy

from .restricted import ConvergenceError, _real

__all__ = ["QuadraticLoss", "HuberLoss", "LogisticLoss", "make_loss"]

# logistic conjugate prox: Newton stops once |a t + expit(t) - u| is within
# this share of max(1, u), and raises ConvergenceError if that takes more
# than the step cap
_PROX_TOL = 1e-14
_PROX_MAX_STEPS = 100


class Loss:
    """Base class holding b and the Moreau route from prox_{tau L*} to prox_{c L}."""

    kind = "base"

    def __init__(self, b):
        b = np.array(b, dtype=float)
        if b.ndim != 1 or b.size == 0:
            raise ValueError("b must be a nonempty 1-D vector")
        if not np.all(np.isfinite(b)):
            raise ValueError("b must be finite")
        b.setflags(write=False)
        self.b = b
        self.n = b.size

    @property
    def gamma(self):
        """L is (1/gamma)-smooth."""
        raise NotImplementedError

    def value(self, z):
        raise NotImplementedError

    def grad(self, z):
        raise NotImplementedError

    def curvature(self, z):
        """Diagonal of the (generalized) Hessian of L at z, in [0, 1/gamma]."""
        raise NotImplementedError

    def conjugate(self, beta):
        raise NotImplementedError

    def conjugate_grad(self, beta):
        """A supergradient of L* usable on the domain boundary."""
        raise NotImplementedError

    def prox(self, tau, v):
        """prox of tau*L at v via Moreau's identity; v where 1/tau overflows."""
        v = self._check_dim(v)
        if tau < 0:
            raise ValueError("tau must be nonnegative")
        if tau == 0 or 1.0 / float(tau) == math.inf:
            return v.copy()
        if float(np.abs(v).max()) / float(tau) == math.inf:
            raise ValueError(f"v / tau overflows at tau = {tau!r}")
        return v - tau * self.prox_conjugate(1.0 / tau, v / tau)

    def prox_conjugate(self, tau, v):
        """argmin_beta tau L*(beta) + ||beta - v||^2 / 2, exact per component."""
        v = self._check_dim(v)
        if not 0 < tau < math.inf:
            raise ValueError("tau must be positive and finite")
        return self._prox_conjugate(tau, v)

    def _prox_conjugate(self, tau, v):
        raise NotImplementedError

    def project_domain(self, beta):
        """Euclidean projection onto the effective domain of L*."""
        return np.asarray(beta, dtype=float).copy()

    def _check_dim(self, z, stack=False):
        """z as a float array of shape (n,), or (..., n) when stack is set."""
        z = np.asarray(z, dtype=float)
        if z.shape[-1:] != (self.n,) or not (stack or z.ndim == 1):
            raise ValueError(f"expected vector of length {self.n}, got shape {z.shape}")
        return z

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n})"


class QuadraticLoss(Loss):
    """L(z) = ||b - z||^2 / (2n)."""

    kind = "quadratic"

    @property
    def gamma(self):
        return float(self.n)

    def value(self, z):
        r = self._check_dim(z, stack=True) - self.b
        return np.vecdot(r, r) / (2.0 * self.n)

    def grad(self, z):
        z = self._check_dim(z, stack=True)
        return (z - self.b) / self.n

    def curvature(self, z):
        z = self._check_dim(z, stack=True)
        return np.full(z.shape, 1.0 / self.n)

    def conjugate(self, beta):
        # L*(beta) = <beta, b> + (n/2) ||beta||^2, finite everywhere
        beta = self._check_dim(beta)
        return float(beta @ self.b) + 0.5 * self.n * float(beta @ beta)

    def conjugate_grad(self, beta):
        beta = self._check_dim(beta)
        return self.b + self.n * beta

    def _prox_conjugate(self, tau, v):
        return (v - tau * self.b) / (1.0 + tau * self.n)


class HuberLoss(Loss):
    """L(z) = (1/n) sum_i l(z_i - b_i) with l quadratic up to delta, linear beyond."""

    kind = "huber"

    def __init__(self, b, delta=1.0):
        super().__init__(b)
        if not _real("delta", delta) > 0:
            raise ValueError("delta must be positive")
        self.delta = float(delta)

    @property
    def gamma(self):
        return float(self.n)

    def value(self, z):
        r = np.abs(self._check_dim(z, stack=True) - self.b)
        per = np.where(r <= self.delta, 0.5 * r * r, self.delta * (r - 0.5 * self.delta))
        return np.add.reduce(per, axis=-1) / self.n

    def grad(self, z):
        z = self._check_dim(z, stack=True)
        return np.clip(z - self.b, -self.delta, self.delta) / self.n

    def curvature(self, z):
        z = self._check_dim(z, stack=True)
        return (np.abs(z - self.b) <= self.delta) / self.n

    def conjugate(self, beta):
        # finite on the box |beta_i| <= delta/n:
        #   L*(beta) = sum_i [ b_i beta_i + (n/2) beta_i^2 ]
        beta = self._check_dim(beta)
        bound = self.delta / self.n
        if np.abs(beta).max() > bound:
            return np.inf
        return float(beta @ self.b) + 0.5 * self.n * float(beta @ beta)

    def conjugate_grad(self, beta):
        # b + n*beta is a valid supergradient everywhere on the box
        beta = self._check_dim(beta)
        return self.b + self.n * beta

    def _prox_conjugate(self, tau, v):
        # the quadratic's conjugate prox, clipped to the box
        bound = self.delta / self.n
        return np.minimum(np.maximum((v - tau * self.b) / (1.0 + tau * self.n),
                                     -bound), bound)

    def project_domain(self, beta):
        beta = self._check_dim(beta)
        bound = self.delta / self.n
        return np.clip(beta, -bound, bound)


class LogisticLoss(Loss):
    """L(z) = (1/n) sum_i log(1 + exp(-b_i z_i)) with labels b_i in {-1, +1}.

    The conjugate is the scaled binary entropy of s_i = -n b_i beta_i:
    L*(beta) = (1/n) sum_i [ s_i log s_i + (1 - s_i) log(1 - s_i) ] on
    s in [0, 1]^n, +inf outside.  Neither prox has a closed form: the
    conjugate prox is a monotone per-component Newton iteration in s, and
    the loss prox follows from it by Moreau's identity.
    """

    kind = "logistic"

    def __init__(self, b):
        super().__init__(b)
        if not np.all(np.abs(self.b) == 1.0):
            raise ValueError("logistic labels must be -1 or +1")

    @property
    def gamma(self):
        return 4.0 * self.n

    def value(self, z):
        z = self._check_dim(z, stack=True)
        # logaddexp(0, t) = log(1 + exp(t)), overflow-safe
        return np.add.reduce(np.logaddexp(0.0, -self.b * z), axis=-1) / self.n

    def grad(self, z):
        z = self._check_dim(z, stack=True)
        return -self.b * expit(-self.b * z) / self.n

    def curvature(self, z):
        # sigma(1 - sigma) as expit(z) * expit(-z): no cancellation in 1 - sigma
        z = self._check_dim(z, stack=True)
        return expit(z) * expit(-z) / self.n

    def _s(self, beta):
        return -self.n * self.b * beta

    def conjugate(self, beta):
        beta = self._check_dim(beta)
        s = self._s(beta)
        if s.min() < 0.0 or s.max() > 1.0:
            return np.inf
        # xlogy(0, 0) = 0 handles both endpoints exactly
        return float(np.sum(xlogy(s, s) + xlogy(1.0 - s, 1.0 - s))) / self.n

    def conjugate_grad(self, beta):
        # dL*/dbeta_i = b_i log((1-s_i)/s_i); clamp s away from {0,1} so the
        # supergradient stays finite on the boundary (ascent backtracking
        # shrinks the step until the move improves D, so a large finite
        # surrogate is safe)
        beta = self._check_dim(beta)
        s = np.clip(self._s(beta), 1e-12, 1.0 - 1e-12)
        return self.b * np.log((1.0 - s) / s)

    def _prox_conjugate(self, tau, v):
        """Solved in s = -n b beta.

        Per component, a logit(s) + s = u with a = tau n, u = -n b v.  After
        s -> 1 - s, u -> 1 - u where u < 1/2, t = logit(s) >= 0 is the root
        of f(t) = a t + expit(t) - u, increasing and concave, so Newton rises
        monotonically from any start with f <= 0 (_prox_start).
        """
        a = tau * self.n
        u = -self.n * self.b * v
        flip = u < 0.5
        u = np.where(flip, 1.0 - u, u)
        t = _prox_start(a, u)
        tol = _PROX_TOL * np.maximum(1.0, u)
        for _ in range(_PROX_MAX_STEPS):
            s = expit(t)
            r = a * t + s - u
            if (np.abs(r) <= tol).all():
                return -self.b * expit(np.where(flip, -t, t)) / self.n
            t = t - r / (a + s * (1.0 - s))
        raise ConvergenceError(f"logistic conjugate prox: residual {np.max(np.abs(r)):.3e}"
                               f" after {_PROX_MAX_STEPS} Newton steps")

    def project_domain(self, beta):
        beta = self._check_dim(beta)
        s = np.clip(self._s(beta), 0.0, 1.0)
        # invert s = -n b beta using b in {-1,+1}
        return -s * self.b / self.n


def _prox_start(a, u):
    """t0 with f(t0) <= 0 for f(t) = a t + expit(t) - u, u >= 1/2: the largest
    of 0, (u - 1)/a, logit(u - a logit(u)) where defined and, for u >= 1, the
    asymptote L - ln L <= W(1/(2a)) of a t = exp(-t)/2, L = ln(1/(2a)) >= 2
    (Hoorfar & Hassani 2008), where a t0 <= exp(-t0)/2 <= expit(-t0)."""
    # logit returns nan where its argument leaves [0, 1]; fmax skips it
    t = np.maximum(0.0, (u - 1.0) / a)
    big = math.log(0.5 / a) if a < 0.5 else 0.0
    if big >= 2.0:
        t = np.maximum(t, np.where(u >= 1.0, big - math.log(big), 0.0))
    return np.fmax(t, logit(u - a * logit(u)))


def make_loss(kind, b, delta=1.0):
    """Build a loss by name: quadratic, huber, or logistic."""
    if kind == "quadratic":
        return QuadraticLoss(b)
    if kind == "huber":
        return HuberLoss(b, delta=delta)
    if kind == "logistic":
        return LogisticLoss(b)
    raise ValueError(f"unknown loss kind: {kind!r}")

"""Convex loss functions: values, gradients, conjugates, and proximal maps.

Each loss L maps R^n to R and owns its observation vector b.  The search
needs four exact ingredients per loss: L(z), grad L(z), the conjugate
L*(beta) together with its effective domain, and the proximal operators of
tau*L and tau*L*; restricted solves also use the diagonal curvature of L.
The conjugate prox comes from the loss prox through Moreau's identity

    prox_{tau L*}(v) = v - tau * prox_{L/tau}(v / tau),

so only prox_{c L} needs a per-loss implementation.  Every loss is
(1/gamma)-smooth; gamma drives the dual solver's step-size schedule.
"""

import numpy as np
from scipy.special import expit, xlogy

__all__ = ["QuadraticLoss", "HuberLoss", "LogisticLoss", "make_loss"]

# conjugate arguments may land epsilon-outside the domain after a prox in
# floats; within this relative slack of the boundary we evaluate the
# continuous extension at the projected point instead of returning +inf
_DOMAIN_SLACK = 1e-9


class Loss:
    """Base class holding b and the Moreau route to prox_{tau L*}."""

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
        """prox of tau*L at v, exact per component."""
        raise NotImplementedError

    def prox_conjugate(self, tau, v):
        """prox of tau*L* at v via Moreau's identity."""
        if tau <= 0:
            raise ValueError("tau must be positive")
        v = np.asarray(v, dtype=float)
        return v - tau * self.prox(1.0 / tau, v / tau)

    def project_domain(self, beta):
        """Euclidean projection onto the effective domain of L*."""
        return np.asarray(beta, dtype=float).copy()

    def _check_dim(self, z):
        z = np.asarray(z, dtype=float)
        if z.shape != (self.n,):
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
        z = self._check_dim(z)
        r = z - self.b
        return float(r @ r) / (2.0 * self.n)

    def grad(self, z):
        z = self._check_dim(z)
        return (z - self.b) / self.n

    def curvature(self, z):
        z = self._check_dim(z)
        return np.full(self.n, 1.0 / self.n)

    def conjugate(self, beta):
        # L*(beta) = <beta, b> + (n/2) ||beta||^2, finite everywhere
        beta = self._check_dim(beta)
        return float(beta @ self.b) + 0.5 * self.n * float(beta @ beta)

    def conjugate_grad(self, beta):
        beta = self._check_dim(beta)
        return self.b + self.n * beta

    def prox(self, tau, v):
        v = self._check_dim(v)
        if tau < 0:
            raise ValueError("tau must be nonnegative")
        c = tau / self.n
        return (v + c * self.b) / (1.0 + c)


class HuberLoss(Loss):
    """L(z) = (1/n) sum_i l(z_i - b_i) with l quadratic up to delta, linear beyond."""

    kind = "huber"

    def __init__(self, b, delta=1.0):
        super().__init__(b)
        if delta <= 0:
            raise ValueError("delta must be positive")
        self.delta = float(delta)

    @property
    def gamma(self):
        return float(self.n)

    def value(self, z):
        z = self._check_dim(z)
        r = np.abs(z - self.b)
        per = np.where(r <= self.delta, 0.5 * r * r, self.delta * (r - 0.5 * self.delta))
        return float(np.sum(per)) / self.n

    def grad(self, z):
        z = self._check_dim(z)
        return np.clip(z - self.b, -self.delta, self.delta) / self.n

    def curvature(self, z):
        z = self._check_dim(z)
        return (np.abs(z - self.b) <= self.delta) / self.n

    def conjugate(self, beta):
        # finite on the box |beta_i| <= delta/n:
        #   L*(beta) = sum_i [ b_i beta_i + (n/2) beta_i^2 ]
        beta = self._check_dim(beta)
        bound = self.delta / self.n
        if np.max(np.abs(beta)) > bound * (1.0 + _DOMAIN_SLACK):
            return np.inf
        beta = np.clip(beta, -bound, bound)
        return float(beta @ self.b) + 0.5 * self.n * float(beta @ beta)

    def conjugate_grad(self, beta):
        # b + n*beta is a valid supergradient everywhere on the box
        beta = self._check_dim(beta)
        return self.b + self.n * beta

    def prox(self, tau, v):
        v = self._check_dim(v)
        if tau < 0:
            raise ValueError("tau must be nonnegative")
        c = tau / self.n
        r = v - self.b
        quad = self.b + r / (1.0 + c)
        lin = v - c * self.delta * np.sign(r)
        return np.where(np.abs(r) <= self.delta * (1.0 + c), quad, lin)

    def project_domain(self, beta):
        beta = self._check_dim(beta)
        bound = self.delta / self.n
        return np.clip(beta, -bound, bound)


class LogisticLoss(Loss):
    """L(z) = (1/n) sum_i log(1 + exp(-b_i z_i)) with labels b_i in {-1, +1}.

    The conjugate is the scaled binary entropy of s_i = -n b_i beta_i:
    L*(beta) = (1/n) sum_i [ s_i log s_i + (1 - s_i) log(1 - s_i) ] on
    s in [0, 1]^n, +inf outside.  The prox has no closed form and is found
    by a safeguarded per-component Newton iteration.
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
        z = self._check_dim(z)
        # logaddexp(0, t) = log(1 + exp(t)), overflow-safe
        return float(np.sum(np.logaddexp(0.0, -self.b * z))) / self.n

    def grad(self, z):
        z = self._check_dim(z)
        return -self.b * expit(-self.b * z) / self.n

    def curvature(self, z):
        # sigma(1 - sigma) as expit(z) * expit(-z): no cancellation in 1 - sigma
        z = self._check_dim(z)
        return expit(z) * expit(-z) / self.n

    def _s(self, beta):
        return -self.n * self.b * beta

    def conjugate(self, beta):
        beta = self._check_dim(beta)
        s = self._s(beta)
        if np.min(s) < -_DOMAIN_SLACK or np.max(s) > 1.0 + _DOMAIN_SLACK:
            return np.inf
        s = np.clip(s, 0.0, 1.0)
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

    def prox(self, tau, v):
        """Componentwise argmin_y { c log(1+exp(-b y)) + (y-v)^2/2 }, c = tau/n.

        Newton on g(y) = y - v - c b sigma(-b y), safeguarded by bisection on
        the bracket [v - c, v + c] (g is increasing, g(v-c) <= 0 <= g(v+c)).
        """
        v = self._check_dim(v)
        if tau < 0:
            raise ValueError("tau must be nonnegative")
        if tau == 0:
            return v.copy()
        c = tau / self.n
        b = self.b
        lo = v - c
        hi = v + c
        y = v.copy()
        for _ in range(100):
            sig = expit(-b * y)
            g = y - v - c * b * sig
            if np.all(np.abs(g) <= 1e-12):
                break
            hi = np.where(g > 0, np.minimum(hi, y), hi)
            lo = np.where(g < 0, np.maximum(lo, y), lo)
            h = 1.0 + c * sig * (1.0 - sig)
            y_new = y - g / h
            outside = (y_new <= lo) | (y_new >= hi)
            y = np.where(outside, 0.5 * (lo + hi), y_new)
        return y

    def project_domain(self, beta):
        beta = self._check_dim(beta)
        s = np.clip(self._s(beta), 0.0, 1.0)
        # invert s = -n b beta using b in {-1,+1}
        return -s * self.b / self.n


def make_loss(kind, b, delta=1.0):
    """Build a loss by name: quadratic, huber, or logistic."""
    if kind == "quadratic":
        return QuadraticLoss(b)
    if kind == "huber":
        return HuberLoss(b, delta=delta)
    if kind == "logistic":
        return LogisticLoss(b)
    raise ValueError(f"unknown loss kind: {kind!r}")

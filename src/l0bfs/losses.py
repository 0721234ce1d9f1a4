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
last axis only.  The restricted Newton's line search evaluates value on
every stack it tries, so each value is one expression on one branch: no
where() that computes both branches, and no scalar ufunc loop.
"""

import math

import numpy as np

from .restricted import ConvergenceError, _real

__all__ = ["QuadraticLoss", "HuberLoss", "LogisticLoss", "make_loss"]

# logistic conjugate prox: Newton stops once |a t + expit(t) - u| is within
# this share of max(1, u), and raises ConvergenceError if that takes more
# than the step cap
_PROX_TOL = 1e-14
_PROX_MAX_STEPS = 100

# prox of tau*L: the Moreau step's point y must satisfy the stationarity
# |y - v + tau grad L(y)| <= _MOREAU_TOL max(1, |v|, tau / n) per component
_MOREAU_TOL = 1e-9

# smallest normal double: s log(max(s, _TINY)) is 0 at s = 0, as s log s tends to
_TINY = np.finfo(float).tiny


def _expit(t):
    """1 / (1 + exp(-t)) as exp(min(t, 0)) / (1 + exp(-|t|)): no overflow."""
    return np.exp(np.minimum(t, 0.0)) / (1.0 + np.exp(-np.abs(t)))


def _logit(x):
    """log(x / (1 - x)) for x in (0, 1)."""
    return np.log(x / (1.0 - x))


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
        """prox of tau*L at v via Moreau's identity; v where 1/tau overflows.
        Raises ConvergenceError when the Moreau step's cancellation leaves
        a point that is not stationary (_MOREAU_TOL)."""
        v = self._check_dim(v)
        if tau < 0:
            raise ValueError("tau must be nonnegative")
        if tau == 0 or 1.0 / float(tau) == math.inf:
            return v.copy()
        if float(np.abs(v).max()) / float(tau) == math.inf:
            raise ValueError(f"v / tau overflows at tau = {tau!r}")
        y = v - tau * self.prox_conjugate(1.0 / tau, v / tau)
        residual = np.abs(y - v + tau * self.grad(y))
        scale = np.maximum(np.maximum(np.abs(v), tau / self.n), 1.0)
        if not np.all(residual <= _MOREAU_TOL * scale):  # NaN fails too
            raise ConvergenceError(
                f"prox of tau*L is not stationary at tau = {tau!r}")
        return y

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
        # l(r) = m (r - m/2) with m = min(|r|, delta): r r/2 up to delta, in
        # the same bits (r - r/2 is r/2 exactly wherever r r/2 does not
        # underflow), and delta (r - delta/2) beyond; one branch, and no r^2
        # to overflow where l is finite
        r = np.abs(self._check_dim(z, stack=True) - self.b)
        m = np.minimum(r, self.delta)
        return np.add.reduce(m * (r - 0.5 * m), axis=-1) / self.n

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
        # log(1 + exp(t)) = max(t, 0) + log1p(exp(-|t|)), t = -b z: the form
        # numpy's logaddexp(0, t) takes, without overflow, through the
        # vectorized exp and log1p loops instead of logaddexp's scalar one
        t = -self.b * self._check_dim(z, stack=True)
        return np.add.reduce(np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t))),
                             axis=-1) / self.n

    def grad(self, z):
        z = self._check_dim(z, stack=True)
        return -self.b * _expit(-self.b * z) / self.n

    def curvature(self, z):
        # sigma(1 - sigma) = e / (1 + e)^2, e = exp(-|z|): no overflow or cancellation
        z = self._check_dim(z, stack=True)
        e = np.exp(-np.abs(z))
        return e / (1.0 + e) ** 2 / self.n

    def _s(self, beta):
        return -self.n * self.b * beta

    def conjugate(self, beta):
        beta = self._check_dim(beta)
        s = self._s(beta)
        if s.min() < 0.0 or s.max() > 1.0:
            return np.inf
        # s log s with 0 log 0 = 0 at both endpoints
        r = 1.0 - s
        return float(s @ np.log(np.maximum(s, _TINY))
                     + r @ np.log(np.maximum(r, _TINY))) / self.n

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
        monotonically from any start with f <= 0 (_prox_start).  It runs in
        m = -t <= 0, where e = exp(m) <= 1, s = 1/(1 + e), 1 - s = e s and
        f'(t) = a + e s s.
        """
        a = tau * self.n
        u = -self.n * self.b * v
        flip = u < 0.5
        u = np.where(flip, 1.0 - u, u)
        m = -_prox_start(a, u)
        tol = _PROX_TOL * np.maximum(1.0, u)
        for _ in range(_PROX_MAX_STEPS):
            e = np.exp(m)
            s = 1.0 / (1.0 + e)
            r = s - u - a * m
            # count_nonzero costs a third of .all() at these sizes
            if np.count_nonzero(np.abs(r) <= tol) == r.size:
                return -self.b * np.where(flip, e * s, s) / self.n
            m = m + r / (a + e * s * s)
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
    # the logit term counts only for u < 1 and where it is positive; both
    # logits take 1/2 elsewhere, giving 0, so _logit stays inside (0, 1)
    v = np.where(u < 1.0, u, 0.5)
    t = np.maximum((u - 1.0) / a, _logit(np.maximum(v - a * _logit(v), 0.5)))
    big = math.log(0.5 / a) if a < 0.5 else 0.0
    if big >= 2.0:
        t = np.maximum(t, np.where(u >= 1.0, big - math.log(big), 0.0))
    return t


def make_loss(kind, b, delta=1.0):
    """Build a loss by name: quadratic, huber, or logistic."""
    if kind == "quadratic":
        return QuadraticLoss(b)
    if kind == "huber":
        return HuberLoss(b, delta=delta)
    if kind == "logistic":
        return LogisticLoss(b)
    raise ValueError(f"unknown loss kind: {kind!r}")

"""Proximal operator of the squared top-k l2-norm.

prox_topk_sq computes argmin_x { (mu/2) ||x||_{k,2}^2 + (1/2) ||x - v||^2 }
where ||x||_{k,2} is the l2-norm of the k largest-magnitude entries.  The
minimizer, expressed on |v| sorted non-increasingly as u, shrinks a leading
block by 1/(1+mu), keeps a trailing block unchanged, and is constant equal
to some xi on a middle block [js, je] straddling position k.  After a
stable sort, an O(d) scan on Python floats walks a staircase of at most d
candidate blocks, each with its xi from one prefix sum of u.  The objective
is strictly convex, so its minimizer is the one block whose xi meets the
optimality conditions

    u_{je+1} <= xi <= u_{js-1}/(1+mu)   and   u_js/(1+mu) <= xi <= u_je,

the block conditions of the squared k-support-norm prox, whose norm is the
dual of this one (Argyriou, Foygel & Srebro, NeurIPS 2012).  The scan stops
at the first candidate that meets them.  It forms no squares, so the prox
of s*v is, up to rounding, s times the prox of v down to the subnormal
range; should the prefix sums of a finite v overflow, the scan runs on v
scaled down by a power of two, and should mu * k overflow, xi comes from
sums and mu scaled down alike (the block lengths it adds lie below an ulp
of mu).  When rounding leaves no candidate consistent (exact ties at some
scales), a second pass takes the candidate of least violation, with its
xi clamped to its neighbours.  The vectors are short (the open tail of a
search node), so per-call numpy overhead would outweigh the arithmetic.

prox_topk_sq_conjugate gives the prox of alpha * h* for h = (1/(2 lam)) *
||.||_{k,2}^2, the form needed by the dual solver's primal update, via
Moreau's identity.
"""

from itertools import accumulate
from math import inf, isfinite, ldexp

import numpy as np

__all__ = ["prox_topk_sq", "prox_topk_sq_conjugate"]

# binary exponent by which an input whose prefix sums overflow is scaled
# down: a sum of fewer than 2**63 terms then stays finite
_RESCALE = 64


def prox_topk_sq(mu, k, v, with_count=False):
    """Prox of (mu/2)||.||_{k,2}^2 at v.

    Parameters
    ----------
    mu : positive, finite shrinkage weight.
    k : number of entries the norm covers; k <= 0 returns v unchanged,
        k > v.size is treated as v.size.
    v : 1-D array.  A NaN in v raises ValueError where the block scan
        runs; where the top k entries only shrink, it comes back as NaN.
    with_count : also return the number of candidate blocks examined
        (always <= v.size; the basis of the linear-time bound).
    """
    v = np.asarray(v, dtype=float)
    if not mu > 0 or not isfinite(mu):
        raise ValueError("mu must be positive and finite")
    if k <= 0:
        out = v.copy()
        return (out, 0) if with_count else out
    out, count = _prox_list(float(mu), int(k), v.tolist())
    return (np.array(out), count) if with_count else np.array(out)


def _candidates(mu, k, d, U, Ubar, cum_u):
    """The candidate blocks (js, je, xi) in scan order, xi unclamped."""
    j_hat = k
    e = k - 1  # last index known to satisfy u_j > current threshold
    for js in range(1, k + 1):
        thresh = Ubar[js]
        # endpoints: {j : u_j > ubar_js and j >= j_hat}; u non-increasing, so
        # the threshold set is a prefix whose end e only moves right as js grows
        while e + 1 <= d and U[e + 1] > thresh:
            e += 1
        if e < j_hat:
            continue
        m1 = k - js + 1
        for je in range(j_hat, e + 1):
            yield js, je, (cum_u[je] - cum_u[js - 1]) / (mu * m1 + je - js + 1)
        j_hat = e


def _violation(U, Ubar, js, je, xi):
    """How far xi falls outside the optimality conditions of block [js, je]."""
    return max(U[je + 1] - xi, xi - Ubar[js - 1], Ubar[js] - xi, xi - U[je])


def _prox_list(mu, k, vals):
    """(prox, candidates examined) on Python floats, for k >= 1."""
    d = len(vals)
    k = min(k, d)
    shrink = 1.0 + mu
    mags = [abs(x) for x in vals]
    # stable: ties keep original index order, as argsort(-|v|, kind="stable")
    order = sorted(range(d), key=mags.__getitem__, reverse=True)
    u = [mags[i] for i in order]  # non-increasing
    ub = [x / shrink for x in u[:k]]

    # 1-based views with sentinels: U[i] = u_i (U[d+1] = 0), Ubar[i] = u_i/(1+mu)
    # for i in [k], Ubar[0] = +inf
    U = [inf] + u + [0.0]
    Ubar = [inf] + ub

    count = 0
    if Ubar[k] >= U[k + 1]:
        # shrink-top branch: blocks don't interact
        x_sorted = ub + u[k:]
    else:
        # accumulate adds in np.cumsum's order
        cum_u = list(accumulate(u, initial=0.0))
        if not cum_u[d] < inf:  # the sums of |v| hold a NaN or overflow
            if cum_u[d] != cum_u[d]:
                raise ValueError("v holds a NaN")
            if u[0] < inf:  # finite v whose sums overflow
                out, count = _prox_list(mu, k, [ldexp(x, -_RESCALE) for x in vals])
                return [ldexp(x, _RESCALE) for x in out], count
        if mu * k == inf:  # xi's denominators overflow; mu is not read below
            mu, cum_u = ldexp(mu, -_RESCALE), [ldexp(x, -_RESCALE) for x in cum_u]
        for count, (js, je, xi) in enumerate(
                _candidates(mu, k, d, U, Ubar, cum_u), 1):
            if U[je + 1] <= xi <= Ubar[js - 1] and Ubar[js] <= xi <= U[je]:
                break  # the block of the minimizer
        else:  # rounding left no block consistent
            js, je, xi = min(_candidates(mu, k, d, U, Ubar, cum_u),
                             key=lambda c: _violation(U, Ubar, *c))
            xi = min(Ubar[js - 1], max(U[je + 1], xi))
        assert count <= d, "candidate scan exceeded the linear bound"
        x_sorted = ub[:js - 1] + [xi] * (je - js + 1) + u[je:]

    # the sign of v, with v >= 0 (so -0.0 too) taken as positive
    out = [0.0] * d
    for i, x in zip(order, x_sorted):
        out[i] = x if vals[i] >= 0 else -x
    return out, count


def prox_topk_sq_conjugate(alpha, k, v, lam):
    """Prox of alpha * h* at v, where h = (1/(2 lam)) ||.||_{k,2}^2.

    Moreau: prox_{alpha h*}(v) = v - alpha * prox_{h / alpha}(v / alpha),
    and h/alpha has shrinkage weight mu = 1/(lam * alpha).  The identity is
    applied on Python floats, with the same operations numpy would make;
    where v / alpha overflows, as v - prox_{h / alpha}(v) by homogeneity.
    Raises ValueError when mu overflows or v holds a NaN.
    """
    if (not alpha > 0 or not lam > 0
            or not isfinite(alpha) or not isfinite(lam)):
        raise ValueError("alpha and lam must be positive and finite")
    v = np.asarray(v, dtype=float)
    if k <= 0:
        # h = 0, so h* is the indicator of {0} and its prox is the zero map;
        # Moreau agrees, as prox_{h/alpha} is the identity.  The dual solver
        # never takes this branch: it calls with k - s >= 1.
        return np.zeros_like(v)
    alpha, vals = float(alpha), v.tolist()
    mu = 1.0 / (lam * alpha) if lam * alpha > 0 else inf
    if mu == inf:
        raise ValueError(f"1/(lam * alpha) overflows: lam * alpha = {lam * alpha!r}")
    scaled = [x / alpha for x in vals]
    # the sum screens cheaply for a NaN in v and an entry of v / alpha
    # that overflowed
    if not isfinite(sum(scaled)):
        if any(x != x for x in vals):
            raise ValueError("v holds a NaN")
        if inf in map(abs, scaled):
            alpha, scaled = 1.0, vals
    p, _ = _prox_list(mu, int(k), scaled)
    return np.array([x - alpha * q for x, q in zip(vals, p)])

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
range; should the prefix sums of a finite v near overflow, the scan runs on
u scaled down by a power of two, and should mu * k overflow, xi comes from
sums and mu scaled down alike (the block lengths it adds lie below an ulp
of mu).  When rounding leaves no candidate consistent (exact ties at some
scales), the candidate of least violation is taken, with its xi clamped to
its neighbours.

Only the sorted head, ranks 1 to je (1 to k when the top k only shrink),
changes; every entry after it keeps its value.  So the scan reads its
magnitudes from one numpy pass, extends the prefix sums only as far as the
walk reads, and the output is one numpy expression for the entries the prox
leaves alone with only the head written back.

prox_topk_sq_conjugate gives the prox of alpha * h* for h = (1/(2 lam)) *
||.||_{k,2}^2, the form needed by the dual solver's primal update, via
Moreau's identity.
"""

from itertools import accumulate, islice, repeat
from math import inf, isfinite, ldexp

import numpy as np

__all__ = ["prox_topk_sq", "prox_topk_sq_conjugate"]

# binary exponent by which the magnitudes are scaled down when their sum
# reaches _SUM_LIMIT: a sum of fewer than 2**63 terms then stays finite
_RESCALE = 64
# a sum of the magnitudes below it stays finite added in any other order,
# as the walk adds them (sorted)
_SUM_LIMIT = 2.0 ** 1023


def prox_topk_sq(mu, k, v, with_count=False):
    """Prox of (mu/2)||.||_{k,2}^2 at v.

    Parameters
    ----------
    mu : positive, finite shrinkage weight.
    k : number of entries the norm covers; k <= 0 returns v unchanged,
        k > v.size is treated as v.size.
    v : 1-D array.  A NaN in v raises ValueError (for k >= 1).
    with_count : also return the number of candidate blocks examined
        (always <= v.size; the basis of the linear-time bound).
    """
    v = np.asarray(v, dtype=float)
    if not mu > 0 or not isfinite(mu):
        raise ValueError("mu must be positive and finite")
    if k <= 0:
        out = v.copy()
        return (out, 0) if with_count else out
    out, count = _prox(float(mu), int(k), v)
    return (out, count) if with_count else out


def prox_topk_sq_conjugate(alpha, k, v, lam):
    """Prox of alpha * h* at v, where h = (1/(2 lam)) ||.||_{k,2}^2.

    Moreau: prox_{alpha h*}(v) = v - alpha * prox_{h / alpha}(v / alpha),
    and h/alpha has shrinkage weight mu = 1/(lam * alpha); where v / alpha
    overflows (numpy warns of it), it is v - prox_{h / alpha}(v) by
    homogeneity.  Raises
    ValueError when mu overflows or v holds a NaN.
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
    alpha = float(alpha)
    mu = 1.0 / (lam * alpha) if lam * alpha > 0 else inf
    if mu == inf:
        raise ValueError(f"1/(lam * alpha) overflows: lam * alpha = {lam * alpha!r}")
    return _prox(mu, int(k), v, alpha)[0]


def _violation(U, Ubar, js, je, xi):
    """How far xi falls outside the optimality conditions of block [js, je]."""
    return max(U[je + 1] - xi, xi - Ubar[js - 1], Ubar[js] - xi, xi - U[je])


def _prox(mu, k, v, alpha=None):
    """(out, candidates examined) for k >= 1: out is prox_topk_sq(mu, k, v)
    when alpha is None, else v - alpha * prox_topk_sq(mu, k, v / alpha)."""
    s = v if alpha is None else v / alpha
    mags = np.abs(s).tolist()
    total = sum(mags)  # screens for a NaN in v and for sums near overflow
    if not total < _SUM_LIMIT:
        if total != total:
            raise ValueError("v holds a NaN")
        if alpha is not None and inf in mags:  # v / alpha overflowed
            alpha, s = 1.0, v
            mags = np.abs(v).tolist()
            total = sum(mags)
    d = len(mags)
    k = min(k, d)
    shrink = 1.0 + mu
    # stable: ties keep original index order, as argsort(-|v|, kind="stable")
    order = sorted(range(d), key=mags.__getitem__, reverse=True)
    # 1-based views with sentinels: U[i] = u_i for u the sorted magnitudes
    # (non-increasing), U[d+1] = 0; Ubar[i] = u_i/(1+mu) for i in [k],
    # Ubar[0] = +inf
    U = [inf, *map(mags.__getitem__, order), 0.0]
    Ubar = [inf] + [x / shrink for x in U[1:k + 1]]

    count = 0
    if Ubar[k] >= U[k + 1]:
        # shrink-top branch: blocks don't interact
        head = Ubar[1:]
    else:
        scaled = not total < _SUM_LIMIT and U[1] < inf  # finite v, large sums
        if scaled:
            U = [ldexp(x, -_RESCALE) for x in U]
            Ubar = [inf] + [x / shrink for x in U[1:k + 1]]
        # prefix sums of u in np.cumsum's order, cum[j] = u_1 + ... + u_j
        sums = accumulate(islice(U, 1, d + 1), initial=0.0)
        if mu * k == inf:  # xi's denominators overflow; Ubar is set already
            mu, sums = ldexp(mu, -_RESCALE), map(ldexp, sums, repeat(-_RESCALE))
        cum, spans, j_hat, e = [], [], k, k - 1
        for js in range(1, k + 1):
            thresh = Ubar[js]
            # endpoints: {j : u_j > ubar_js and j >= j_hat}; u non-increasing, so
            # the threshold set is a prefix whose end e only moves right as js grows
            while e < d and U[e + 1] > thresh:
                e += 1
            if e < j_hat:
                continue
            if len(cum) <= e:
                cum += islice(sums, e + 1 - len(cum))
            low, weight = cum[js - 1], mu * (k - js + 1)
            for je in range(j_hat, e + 1):
                xi = (cum[je] - low) / (weight + je - js + 1)
                if U[je + 1] <= xi <= Ubar[js - 1] and Ubar[js] <= xi <= U[je]:
                    break  # the block of the minimizer
            else:
                spans.append((js, j_hat, e))
                count += e - j_hat + 1
                j_hat = e
                continue
            count += je - j_hat + 1
            break
        else:  # rounding left no block consistent
            js, je, xi = min(
                ((js, je, (cum[je] - cum[js - 1]) / (mu * (k - js + 1) + je - js + 1))
                 for js, first, last in spans for je in range(first, last + 1)),
                key=lambda c: _violation(U, Ubar, *c))
            xi = min(Ubar[js - 1], max(U[je + 1], xi))
        assert count <= d, "candidate scan exceeded the linear bound"
        head = Ubar[1:js] + [xi] * (je - js + 1)
        if scaled:
            head = [ldexp(x, _RESCALE) for x in head]

    # q = prox at s: the head ranks take their new magnitudes and every later
    # entry keeps |s|, each with the sign of s, s >= 0 (so -0.0 too) positive
    q = s + 0.0
    for i, x in zip(order, head):
        q[i] = x if q.item(i) >= 0 else -x
    return (q if alpha is None else v - alpha * q), count

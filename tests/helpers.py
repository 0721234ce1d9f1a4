"""Shared oracle machinery for the test suite.

Everything here recomputes quantities through routes independent of the
library implementation: numeric 1-D optimization for conjugates and proxes,
finite differences for gradients, and explicit leaf enumeration for subtree
minima.  The one fake, cold_start, gives the search a cold start, which the
library has no setting for.
"""

import itertools

import numpy as np
from scipy.optimize import minimize_scalar

import l0bfs.subtree
from l0bfs import (EXACT, PRUNED, BoundResult, Instance, Node, dual_value,
                   make_loss, pdal_root_state, solve_restricted)


def cold_start(monkeypatch):
    """Start every node from the root state instead of its parent's final
    state: the reference warm-start comparisons run against."""
    monkeypatch.setattr(l0bfs.subtree, "_start_state",
                        lambda inst, warm: pdal_root_state(inst))


def random_instance(kind, d, k, n, seed, lam=1e-2, delta=1.0):
    """Small random instance built directly, bypassing the generators."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, d))
    A /= np.linalg.norm(A, axis=0)
    if kind == "logistic":
        b = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    else:
        x = np.zeros(d)
        support = rng.choice(d, size=k, replace=False)
        x[support] = rng.standard_normal(k)
        b = A @ x + 0.1 * rng.standard_normal(n)
    return Instance(A=A, loss=make_loss(kind, b, delta=delta), lam=lam, k=k)


def numeric_conjugate(loss, beta):
    """sup_z <beta, z> - L(z) by per-component bounded 1-D maximization.

    All three losses are separable: L(z) = sum_i l_i(z_i).  Each term
    sup_t (beta_i t - l_i(t)) is computed numerically on L(t e_i), which
    equals l_i(t) + (L(0) - l_i(0)); summing and correcting the repeated
    off-component contributions leaves an (n-1) L(0) offset.  Callers must
    keep beta strictly inside the domain so every maximizer is interior.
    """
    zero = np.zeros(loss.n)
    total = (loss.n - 1) * loss.value(zero)
    for i in range(loss.n):
        def neg(t, i=i):
            z = zero.copy()
            z[i] = t
            return loss.value(z) - beta[i] * t
        res = minimize_scalar(neg, bounds=(-1e4, 1e4), method="bounded",
                              options={"xatol": 1e-10})
        total += -res.fun
    return total


def numeric_prox(loss, tau, v):
    """argmin_y tau*L(y) + 0.5||y - v||^2, componentwise numeric route."""
    out = np.empty(loss.n)
    for i in range(loss.n):
        def obj(yi, i=i):
            y = np.array(v, dtype=float)
            y[i] = yi
            return tau * loss.value(y) + 0.5 * (yi - v[i]) ** 2
        span = abs(tau) + np.abs(v[i]) + 10.0
        res = minimize_scalar(obj, bounds=(v[i] - span, v[i] + span),
                              method="bounded", options={"xatol": 1e-12})
        out[i] = res.x
    return out


def fd_grad(f, z, h=1e-6):
    """Central finite-difference gradient of a scalar function."""
    z = np.asarray(z, dtype=float)
    g = np.empty(z.size)
    for i in range(z.size):
        e = np.zeros(z.size)
        e[i] = h
        g[i] = (f(z + e) - f(z - e)) / (2.0 * h)
    return g


def leaf_values(inst):
    """Restricted-solve value of every size-k support, as a dict."""
    out = {}
    for support in itertools.combinations(range(inst.d), inst.k):
        out[support] = solve_restricted(inst, support).value
    return out


def descendant_leaves(node):
    """All size-k supports reachable below the node."""
    need = node.k - node.size
    for extra in itertools.combinations(range(node.cut, node.d), need):
        yield tuple(sorted(node.indices + extra))


def subtree_min(inst, node, leaves=None):
    """F(node): exact minimum over the node's descendant leaves."""
    if leaves is None:
        leaves = leaf_values(inst)
    return min(leaves[s] for s in descendant_leaves(node))


def support_norm_sq(v, r):
    """Squared r-support norm of v by its variational form

        inf { sum_i v_i^2 / t_i : 0 < t_i <= 1, sum_i t_i <= r }

    (McDonald, Pontil & Stamos, NeurIPS 2014), whose minimizer is
    t_i = min(1, |v_i| / a) with a set by bisection so that the t_i sum to
    r; not the sort-and-scan closed form the library uses."""
    u = np.abs(np.asarray(v, dtype=float))
    if np.count_nonzero(u) <= r:
        return float(u @ u)
    a = u.sum() / r
    if a < u.max():   # some t_i = 1: sum_i min(1, u_i / a) = r
        lo, hi = 0.0, float(u.max())
        for _ in range(200):
            a = 0.5 * (lo + hi)
            lo, hi = (a, hi) if np.minimum(1.0, u / a).sum() > r else (lo, a)
        a = hi
    capped = u >= a
    return float(u[capped] @ u[capped]) + a * float(u[~capped].sum())


def relaxation_value(inst, node, x):
    """F(x) = L(Ax) + (lam/2) (||x_S||^2 + ||x_T||_(sp,r)^2) of node's
    relaxation, r = k - |S|, T the open tail; x must vanish off S and T."""
    x = np.asarray(x, dtype=float)
    off = np.ones(inst.d, dtype=bool)
    off[list(node.indices)] = False
    off[node.cut:] = False
    assert not x[off].any()
    x_s = x[list(node.indices)]
    return (inst.loss.value(inst.A @ x) + 0.5 * inst.lam
            * (float(x_s @ x_s)
               + support_norm_sq(x[node.cut:], node.k - node.size)))


def listed_node_bound(inst, node, beta, threshold):
    """Bound a node by its leaves alone, one by one, from the dual point beta.

    The node is PRUNED at D(beta; node) when that exceeds threshold.
    Otherwise each leaf T with D(beta; T) <= threshold is solved by
    solve_restricted, and the node is EXACT at its best solved leaf (the
    first in leaf order) when that leaf's value does not exceed threshold,
    else PRUNED at the least of the solved values and the other leaves'
    D(beta; T).
    """
    entry = dual_value(inst, node, beta)
    if entry > threshold:
        return BoundResult(low=entry, x=None, value=np.inf, status=PRUNED,
                           state=None, iterations=0)
    best, low = None, np.inf
    for leaf in descendant_leaves(node):
        bound = dual_value(inst, Node(leaf, node.d, node.k), beta)
        if bound > threshold:
            low = min(low, bound)
            continue
        sol = solve_restricted(inst, leaf)
        if best is None or sol.value < best.value:
            best = sol
    if best is None or best.value > threshold:
        low = low if best is None else min(low, best.value)
        return BoundResult(low=low, x=None, value=np.inf, status=PRUNED,
                           state=None, iterations=0)
    value = inst.objective(best.x)
    return BoundResult(low=value, x=best.x, value=value, status=EXACT,
                       state=None, iterations=0)


def random_interior_node(rng, d, k):
    """Random valid node with |S| < k and more than k - |S| open indices,
    i.e. one that lands in the dual-bound regime."""
    while True:
        size = int(rng.integers(0, k))
        indices = ()
        cut = 0
        ok = True
        for _ in range(size):
            hi = d - (k - len(indices) - 1) - 1  # leave room to finish
            if cut > hi:
                ok = False
                break
            j = int(rng.integers(cut, hi + 1))
            indices = indices + (j,)
            cut = j + 1
        if not ok:
            continue
        node = Node(indices, d, k)
        if node.size < k and node.size + node.tail_size > k:
            return node


def domain_point(loss, rng, scale=1.0):
    """Random beta strictly inside the conjugate's effective domain."""
    kind = loss.kind
    n = loss.n
    if kind == "quadratic":
        return scale * rng.standard_normal(n)
    if kind == "huber":
        bound = loss.delta / n
        return rng.uniform(-0.95 * bound, 0.95 * bound, size=n)
    # logistic: beta = -s b / n with s strictly inside (0, 1)
    s = rng.uniform(0.05, 0.95, size=n)
    return -s * loss.b / n


def numpy_prox_topk_sq(mu, k, v):
    """Frozen numpy implementation of l0bfs.topk_prox.prox_topk_sq.

    The scan that picks the candidate of least objective g, written with
    argsort, cumsum and numpy scalars, kept as the bit-level reference for
    the Python-float version.  Returns (prox, candidate count, 1-based
    position of the chosen candidate in scan order), with count and position
    0 when no scan runs.
    """
    v = np.asarray(v, dtype=float)
    d = v.size
    k = min(int(k), d)
    signs = np.where(v >= 0, 1.0, -1.0)
    order = np.argsort(-np.abs(v), kind="stable")
    u = np.abs(v)[order]
    U = np.concatenate(([np.inf], u, [0.0]))
    Ubar = np.concatenate(([np.inf], u[:k] / (1.0 + mu)))

    def scatter(x_sorted):
        out = np.empty(d)
        out[order] = x_sorted
        return out * signs

    if Ubar[k] >= U[k + 1]:
        return scatter(np.concatenate((Ubar[1:], u[k:]))), 0, 0

    cum_u = np.concatenate(([0.0], np.cumsum(u)))
    cum_u2 = np.concatenate(([0.0], np.cumsum(u * u)))
    ub = Ubar[1:]
    cum_ub = np.concatenate(([0.0], np.cumsum(ub)))
    cum_ub2 = np.concatenate(([0.0], np.cumsum(ub * ub)))

    def g_value(js, je, xi):
        m1 = k - js + 1
        s1 = cum_ub[k] - cum_ub[js - 1]
        q1 = cum_ub2[k] - cum_ub2[js - 1]
        total = (1.0 + mu) * (m1 * xi * xi - 2.0 * xi * s1 + q1)
        if je > k:
            m2 = je - k
            s2 = cum_u[je] - cum_u[k]
            q2 = cum_u2[je] - cum_u2[k]
            total += m2 * xi * xi - 2.0 * xi * s2 + q2
        return total

    j_hat, g_min, best, count, e = k, np.inf, None, 0, k - 1
    for js in range(1, k + 1):
        thresh = Ubar[js]
        while e + 1 <= d and U[e + 1] > thresh:
            e += 1
        if e < j_hat:
            continue
        for je in range(j_hat, e + 1):
            count += 1
            xi_free = (cum_u[je] - cum_u[js - 1]) / (mu * (k - js + 1) + je - js + 1)
            xi = min(Ubar[js - 1], max(U[je + 1], xi_free))
            g = g_value(js, je, xi)
            if g < g_min:
                g_min, best, position = g, (js, je, xi), count
        j_hat = e
    js, je, xi = best
    out = scatter(np.concatenate((Ubar[1:js], np.full(je - js + 1, xi), u[je:])))
    return out, count, position

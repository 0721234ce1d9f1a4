"""Per-node lower bounds and candidates for the best-first search.

subtree_solve returns, for a tree node S, a lower bound on the best
objective over the subtree below S together with a feasible candidate.
Every bound rests on the concave dual lower bound

    D(beta; S) = -L*(beta) - (1/(2 lam)) ||A_S^T beta||^2
                 - (1/(2 lam)) ||A_tail^T beta||_{k-s,2}^2,

which under-estimates the subtree minimum for every beta (Fenchel-Young
applied to L, then minimizing the linearized objective over supports
reachable below S).  Each node first takes one entry test: D at the state
it starts from (_start_state), from the w = A^T beta and conj = L*(beta)
that every state holds, the root states too.  All children of a node
share that state (its arrays are read-only).  The expansion of a node
(_Siblings) resolves their start state once, lists them by
Node.child_range and computes their entry bounds in one pass
(_child_entry_bounds); the root and a direct subtree_solve call's listed
node are expansions of one node, which take that node's own.  Every
ascent hands back the dual point it stopped at, in the state of its
result, pruned or not, and the expansion re-tests the children after it
there (_Siblings.rescreen): each entry bound becomes the max of D over the
start point and those points, so a child takes its entry test against the
best bound the expansion has seen for it by its turn.  D never exceeds the
subtree minimum, so no winner is pruned.

A node with at most max(|tail|, t) leaves, where t is the number of dual
iterations its parent's ascent took (0 at the root), is bounded exactly:
its subtree minimum is the least restricted minimum over its leaves.  The
parent's count stands in for the cost of the node's own ascent, and a leaf
in a batch costs less than one dual iteration; the rule reads no clock, so
the search stays deterministic.  The last level k - |S| = 1 is always
listed.  Every listed node is bounded by an expansion: the search's of its
parent, or subtree_solve's of the node alone.  A listed node that passes
its entry test screens each leaf T by D with the top-k term exact on T,
and its surviving leaves are solved in batches of at most
_BATCH_ROWS * d rows, shared with its siblings'.  A child with more
survivors than one batch holds keeps all their solutions at once: at most
max(|tail|, t) rows of d floats.  It is EXACT, with its best leaf as
candidate and bound, when that leaf does not exceed the incumbent: the
search takes the leaf as a candidate and never expands the node, so it
never creates a leaf.  Otherwise it is PRUNED, bounded by the least of its
solved minima and screened leaf bounds (_leaf_bound).

Every other node ascends.  Both dual maximizers run one loop (_ascend),
which owns the entry test, the prune test after each iteration, the
running max D_max, the convergence test (an improvement of at most
_EPSILON times the incumbent), the polish restricted solve and the
iteration cap.  Each maximizer holds only its method's state and a step
closure that makes one iteration:

  * pdal_maximize: a primal-dual iteration with linesearch, whose step
    returns before its linesearch when the new D already prunes;
  * sga_maximize: projected supergradient ascent with step backtracking.

Pruning stops the ascent as soon as some D value exceeds the incumbent
objective, which certifies the subtree cannot win.  Every child starts
from its parent's final state: for pdal the dual and primal iterates
(beta, y), with the step schedule restarted at every call, because the
parent's spent schedule barely moves the child and would stop its ascent
at a loose bound; for sga beta and the parent's first accepted step.
"""

import heapq
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .linalg import l2_norm, top_norm, truncate_top
from .restricted import (ConvergenceError, _integer, solve_restricted,
                         solve_restricted_batch)
from .state_space import Node
from .topk_prox import prox_topk_sq_conjugate

__all__ = [
    "EXACT", "DUAL_BOUND", "PRUNED", "ZERO_TOL",
    "SolverConfig", "DualState", "SgaState", "BoundResult",
    "dual_value", "pdal_maximize", "sga_maximize", "subtree_solve",
    "pdal_root_state", "sga_root_state",
]

EXACT = "exact"
DUAL_BOUND = "dual_bound"
PRUNED = "pruned"

# magnitude below which differences count as zero in prune/termination tests
ZERO_TOL = 1e-12

# a leaf batch holds at most _BATCH_ROWS * d supports: it pays the batched
# Newton loop's fixed numpy cost once, and its peak size grows with d only
_BATCH_ROWS = 16

# the relative dual-improvement tolerance of an ascent (_converged)
_EPSILON = 1e-5


def _batch_size(inst):
    """Rows per solve_restricted_batch call: _BATCH_ROWS * d."""
    return _BATCH_ROWS * inst.d


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for subtree_solve and the search driver: the dual maximizer
    and its iteration cap.  The ascent's convergence tolerance is the
    constant _EPSILON."""

    subroutine: str = "pdal"  # or "sga"
    max_dual_iters: int = 50_000

    def __post_init__(self):
        if self.subroutine not in ("pdal", "sga"):
            raise ValueError("subroutine must be 'pdal' or 'sga'")
        if _integer("max_dual_iters", self.max_dual_iters) < 1:
            raise ValueError("max_dual_iters must be at least 1")


def _solver_config(cfg):
    """cfg itself, or the default SolverConfig for None; else ValueError."""
    cfg = SolverConfig() if cfg is None else cfg
    if not isinstance(cfg, SolverConfig):
        raise ValueError(f"cfg must be a SolverConfig, got {cfg!r}")
    return cfg


class _Shared:
    def __post_init__(self):  # all children of a node read the same arrays
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)


@dataclass(frozen=True)
class DualState(_Shared):
    """PDAL iterate carried between parent and child nodes."""

    beta: np.ndarray      # dual point, length n
    y: np.ndarray         # primal point, length d
    w: np.ndarray         # A^T beta, length d
    conj: float           # L*(beta)
    iterations: int = 0   # dual iterations of its ascent


@dataclass(frozen=True)
class SgaState(_Shared):
    """Supergradient-ascent iterate: dual point and inherited step size."""

    beta: np.ndarray
    eta: float
    w: np.ndarray
    conj: float
    iterations: int = 0


class BoundResult(NamedTuple):
    low: float                 # admissible lower bound for the subtree
    x: Optional[np.ndarray]    # feasible candidate (None when pruned early)
    value: float               # P(x), inf when pruned early
    status: str                # EXACT, DUAL_BOUND, or PRUNED
    state: object              # DualState/SgaState the ascent ended at
    iterations: int


def pdal_root_state(inst):
    """Cold start at the tree root: zero dual and primal iterates."""
    beta = np.zeros(inst.n)
    return DualState(beta=beta, y=np.zeros(inst.d), w=inst.AT @ beta,
                     conj=inst.loss.conjugate(beta))


def sga_root_state(inst):
    beta = np.zeros(inst.n)
    return SgaState(beta=beta, eta=1.0, w=inst.AT @ beta,
                    conj=inst.loss.conjugate(beta))


def _penalty(w, node):
    """||w_S||^2 + ||w_tail||_{k-s,2}^2 for w = A^T beta; the open tail is
    the slice w[cut:]."""
    ws = w[node.support_array]
    return float(ws @ ws) + top_norm(node.k - node.size, w[node.cut:]) ** 2


def _check_node(inst, node):
    """ValueError unless node belongs to inst's tree (same d and k)."""
    if (node.d, node.k) != (inst.d, inst.k):
        raise ValueError(f"node {node} is for d={node.d}, k={node.k}, the "
                         f"instance for d={inst.d}, k={inst.k}")


def _start_state(inst, warm, cfg):
    """The state a node starts from: warm, its parent's final state, or
    cfg's maximizer's root state for None.  ValueError for any other warm,
    such as a state of the other maximizer."""
    pdal = cfg.subroutine == "pdal"
    if warm is None:
        return (pdal_root_state if pdal else sga_root_state)(inst)
    state_type = DualState if pdal else SgaState
    if not isinstance(warm, state_type):
        raise ValueError(f"warm must be a {state_type.__name__} for "
                         f"{cfg.subroutine}, got {type(warm).__name__}")
    return warm


def _entry_bound(inst, node, w, conj):
    """D(beta; node) from w = A^T beta and conj = L*(beta)."""
    return -conj - _penalty(w, node) / (2.0 * inst.lam)


def _child_entry_bounds(inst, node, w, conj, first=0):
    """D_j = -conj - (||w_S||^2 + w_j^2 + ||w_{>j}||_{k-s-1,2}^2) / (2 lam),
    the entry bound of each child S + {j} of node in the order of
    node.child_range, from the first-th child on, from w = A^T beta and
    conj = L*(beta)."""
    count = len(node.child_range())
    ws, sq = w[node.support_array], w[node.cut:] ** 2
    # top-(k-s-1) sums of sq[j+1:], one min-heap scan from the right (no mask)
    top, tops = sorted(sq[count:].tolist()), []   # a sorted list is a heap
    for v in reversed(sq[first:count].tolist()):
        tops.append(sum(top))
        heapq.heappushpop(top, v)
    penalty = float(ws @ ws) + sq[first:count] + tops[::-1]
    return -conj - penalty / (2.0 * inst.lam)


def dual_value(inst, node, beta, w=None):
    """D(beta; node): lower bound on the subtree minimum; -inf off-domain."""
    beta = np.asarray(beta, dtype=float)
    conj = inst.loss.conjugate(beta)
    if not math.isfinite(conj):
        return -np.inf
    if w is None:
        w = inst.AT @ beta
    return _entry_bound(inst, node, w, conj)


def _screen_leaves(inst, leaves, w, conj, stop_above):
    """Screen leaves T by D_T = -conj - ||w_T||^2 / (2 lam): the rows to
    solve (D_T at or below stop_above), their D_T, and the least D_T of
    the rest."""
    w_t = w[leaves]
    bounds = -conj - np.vecdot(w_t, w_t) / (2.0 * inst.lam)
    solve = bounds <= stop_above
    return leaves[solve], bounds[solve], bounds[~solve].min(initial=np.inf)


def _leaf_bound(inst, bounds, values, xs, rest, stop_above):
    """Bound a listed node that passed its entry test by its leaves (see the
    module docstring): bounds, values and xs give D_T, the minimum and the
    minimizer of its solved leaves T in leaf order, and rest is the least
    bound of the others.  A solved leaf whose bound exceeds stop_above
    counts as screened, so leaves solved at a higher incumbent give the
    same bound."""
    keep = bounds <= stop_above
    values = np.where(keep, values, np.inf)
    low = min(values.min(initial=np.inf), rest,
              bounds[~keep].min(initial=np.inf))
    if low > stop_above:
        return BoundResult(low=low, x=None, value=np.inf, status=PRUNED,
                           state=None, iterations=0)
    # the screened leaves lie above stop_above, so the best solved one is
    # the subtree minimum
    x = xs[np.argmin(values)]
    value = inst.objective(x)
    return BoundResult(low=value, x=x, value=value, status=EXACT,
                       state=None, iterations=0)


class _Siblings:
    """An expansion: the children of one node, which all start from the
    state the node ended at, as index tuples (Node.child_range) with their
    entry bounds at that start point (_child_entry_bounds).  lone() gives a
    node alone instead, as the one child of the state it starts from: the
    search's root and subtree_solve's listed node.  rescreen(i, state)
    raises the entry bounds of the children after i to their D at the
    point child i's ascent stopped at, where that is higher.

    bound(i, p_min) decides child i at incumbent p_min.  It takes the entry
    test first, at the entry bound as the re-screens left it, and a child
    that fails it is PRUNED, at that bound, without its Node being
    built.  It returns None for a child that passes and that Node.leaves
    does not list: that child ascends in subtree_solve.  A listed child it
    bounds by its leaves, solved in shared batches.  The first listed child
    whose leaves are not solved yet solves its surviving leaves and those
    of the following siblings (all listed) that pass their entry tests at
    p_min, while they fit in _batch_size rows with its own, in batches of
    _batch_size rows: one batch, unless the child alone has more survivors,
    whose solutions are then all held at once.  Each sibling is still
    decided at its own turn by _leaf_bound: the incumbent only falls, so
    every leaf that survives its screen then was solved.
    """

    def __init__(self, inst, node, state, cfg):
        """The children of node, which ended its bound at state."""
        self._start(inst, state, cfg)
        self.parent = node
        self.children = [node.indices + (j,) for j in node.child_range()]
        self.entry = _child_entry_bounds(inst, node, self.w, self.conj)

    @classmethod
    def lone(cls, inst, node, warm, cfg):
        """node alone, from warm, its parent's final state (None at the
        root)."""
        self = cls.__new__(cls)
        self._start(inst, warm, cfg)
        self.children = [node.indices]
        self.nodes[0] = node
        self.entry = [_entry_bound(inst, node, self.w, self.conj)]
        return self

    def _start(self, inst, warm, cfg):
        """Resolve the children's start state from warm once for all of
        them."""
        self.inst, self.warm = inst, warm
        self.limit = 0 if warm is None else warm.iterations
        start = _start_state(inst, warm, cfg)
        self.w, self.conj = start.w, start.conj
        self.nodes, self.solved = {}, {}

    def node(self, i):
        """Node of child i, built once."""
        if i not in self.nodes:
            self.nodes[i] = Node(self.children[i], self.inst.d, self.inst.k)
        return self.nodes[i]

    def rescreen(self, i, state):
        """Raise the entry bound of each child after i to its D at state,
        the point child i's ascent stopped at, where that is higher."""
        if i + 1 >= len(self.children) or state is None:
            return
        raised = _child_entry_bounds(self.inst, self.parent, state.w,
                                     state.conj, i + 1)
        np.maximum(self.entry[i + 1:], raised, out=self.entry[i + 1:])

    def bound(self, i, p_min):
        stop_above = p_min + ZERO_TOL
        if self.entry[i] > stop_above:
            return BoundResult(low=float(self.entry[i]), x=None, value=np.inf,
                               status=PRUNED, state=None, iterations=0)
        if not self.node(i).lists_leaves(self.limit):
            return None
        if i not in self.solved:
            self._solve(i, stop_above)
        return _leaf_bound(self.inst, *self.solved.pop(i), stop_above)

    def _solve(self, i, stop_above):
        """Screen the leaves of child i, and of the siblings after it that
        pass their entry tests, while they fit in _batch_size rows with
        child i's, and solve the survivors in batches of _batch_size rows.
        Stores (bounds, values, x, rest) for each child taken."""
        size = _batch_size(self.inst)
        taken, total = [], 0
        for j in range(i, len(self.children)):
            # the entry test bound(j) would take at this incumbent
            if self.entry[j] > stop_above:
                continue
            rows, bounds, rest = _screen_leaves(
                self.inst, self.node(j).leaves(self.limit), self.w, self.conj,
                stop_above)
            if taken and total + len(rows) > size:
                break
            taken.append((j, rows, bounds, rest))
            total += len(rows)
        rows = np.concatenate([t[1] for t in taken])
        xs, values = np.empty((0, self.inst.d)), np.empty(0)
        for start in range(0, total, size):
            x, v, _ = solve_restricted_batch(self.inst,
                                             rows[start:start + size])
            xs, values = np.concatenate((xs, x)), np.concatenate((values, v))
        start = 0
        for j, rows, bounds, rest in taken:
            end = start + len(rows)
            self.solved[j] = bounds, values[start:end], xs[start:end], rest
            start = end


def _converged(improve, incumbent):
    # relative improvement against the incumbent objective; absolute when the
    # incumbent is not a usable positive scale
    if np.isfinite(incumbent) and incumbent > 0:
        return improve <= _EPSILON * incumbent
    return improve <= _EPSILON


def _ascend(inst, node, init, prune_threshold, cfg, step, first_stop):
    """Bound node from init: one entry test, then an ascent.

    The entry test is D(init.beta; node), from init.w and init.conj.  A
    node that passes it maximizes D(.; node) by calls of step(beta, w, d,
    stop_above), which makes one iteration from beta (w = A^T beta, d its
    D value) and returns (beta, w, D, finish); finish(t) gives the primal
    point to polish and the state for the children, which records the t
    iterations taken.  The step may return early once D > stop_above,
    since that iteration ends in a prune.  The returned bound is the
    running max D_max.  Converged, from iteration first_stop on, when the D
    improvement is _EPSILON-small relative to the incumbent and the current
    D is D_max.  A node pruned after t >= 1 iterations returns as its state
    init with the beta, w and conj of the point it stopped at and t, for
    its siblings' re-screen.
    cfg is a SolverConfig, or None for the default one.
    """
    cfg = _solver_config(cfg)
    _check_node(inst, node)
    beta, w = init.beta, init.w
    d_max = d_prev = _entry_bound(inst, node, w, init.conj)
    stop_above = prune_threshold + ZERO_TOL
    if d_prev > stop_above:
        return BoundResult(low=d_max, x=None, value=np.inf,
                           status=PRUNED, state=None, iterations=0)

    for t in range(1, cfg.max_dual_iters + 1):
        beta, w, d_cur, finish = step(beta, w, d_prev, stop_above)
        d_max = max(d_max, d_cur)
        if d_cur > stop_above:
            # no child starts from a pruned node: y or eta stay init's
            state = replace(init, beta=beta, w=w,
                            conj=inst.loss.conjugate(beta), iterations=t)
            return BoundResult(low=d_max, x=None, value=np.inf,
                               status=PRUNED, state=state, iterations=t)
        if (t >= first_stop and d_cur >= d_max
                and _converged(d_cur - d_prev, prune_threshold)):
            break
        d_prev = d_cur

    # converged or at the iteration cap: D_max is a valid bound either way;
    # the restricted solve on the polish point's support gives the candidate
    x, state = finish(t)
    sol = solve_restricted(inst, np.flatnonzero(x))
    return BoundResult(low=d_max, x=sol.x, value=sol.value,
                       status=DUAL_BOUND, state=state, iterations=t)


def pdal_maximize(inst, node, init, prune_threshold, cfg):
    """Maximize D(.; node) by a primal-dual iteration with linesearch.

    Dual step: beta_t = prox of tau * L* at beta - tau * A y.  Primal step:
    blockwise prox of the support penalty at ybar, where the open-tail block
    is the conjugate prox of the scaled top-(k-s) squared norm.  The step
    sizes follow the acceleration schedule driven by the loss's gamma
    (strong convexity of L*), starting from tau = 1/||A||_2 (1 when A = 0,
    where every step passes), rho = theta = 1, with tau halved until

        sqrt(rho_t) * tau_t * ||A (y_t - y_{t-1})|| <= ||y_t - y_{t-1}||.

    Convergence is accepted from the second iteration on: a warm start at a
    near-fixed point shows no improvement on its first step without having
    ascended.  The polish point is the top-k truncation of y.  It ascends
    on any node, listed or not (subtree_solve lists the leaves instead).
    """
    A, lam, loss = inst.A, inst.lam, inst.loss
    k, rem, cut = node.k, node.k - node.size, node.cut
    s_arr = node.support_array
    y = init.y
    # tau is set at the first step: a node pruned at entry needs no ||A||
    tau, rho, theta = None, 1.0, 1.0

    def step(beta, w, d, stop_above):
        nonlocal y, tau, rho, theta
        if tau is None:
            tau = 1.0 / inst.op_norm if inst.op_norm > 0 else 1.0
        beta_new = loss.prox_conjugate(tau, beta - tau * (A @ y))
        w_new = inst.AT @ beta_new
        d_new = dual_value(inst, node, beta_new, w_new)
        if d_new > stop_above:
            return beta_new, w_new, d_new, None

        rho_new = rho * (1.0 + loss.gamma * tau)
        tau_new = tau * math.sqrt((rho / rho_new) * (1.0 + theta))
        dw = w_new - w
        for _ in range(61):  # at most 60 halvings
            theta_new = tau_new / tau
            coef = rho_new * tau_new
            ybar = y + coef * (w_new + theta_new * dw)
            y_new = np.zeros(inst.d)
            if s_arr.size:
                y_new[s_arr] = ybar[s_arr] / (1.0 + lam * coef)
            if cut < inst.d:
                y_new[cut:] = prox_topk_sq_conjugate(coef, rem, ybar[cut:], lam)
            diff = y_new - y
            nd = l2_norm(diff)
            if math.sqrt(rho_new) * tau_new * l2_norm(A @ diff) <= nd:
                break
            tau_new *= 0.5
        else:
            raise ConvergenceError(
                "primal-dual linesearch failed to pass after 60 halvings")

        y, tau, rho, theta = y_new, tau_new, rho_new, theta_new
        return beta_new, w_new, d_new, lambda t: (
            truncate_top(k, y_new),
            DualState(beta_new, y_new, w_new, loss.conjugate(beta_new), t))

    return _ascend(inst, node, init, prune_threshold, cfg, step, first_stop=2)


def _sga_primal(inst, node, w):
    """x~(beta; node) used for the supergradient: blockwise -w/lam, truncated on the tail."""
    x = np.zeros(inst.d)
    x[node.support_array] = w[node.support_array]
    x[node.cut:] = truncate_top(node.k - node.size, w[node.cut:])
    return x / (-inst.lam)


def sga_maximize(inst, node, init, prune_threshold, cfg):
    """Maximize D(.; node) by projected supergradient ascent.

    Each iteration doubles the previous step then halves it until the dual
    value does not decrease, so the D trace is non-decreasing and low equals
    the final (= maximal) D.  If no step improves (possible at a kink of the
    nonsmooth D), the iterate is kept and the zero improvement triggers the
    convergence test.  The state stores the step that produced the first
    accepted iterate, which is what a warm-started child inherits.
    """
    loss = inst.loss
    eta, eta_first = float(init.eta), None

    def step(beta, w, d, stop_above):
        nonlocal eta, eta_first
        g = inst.A @ _sga_primal(inst, node, w) - loss.conjugate_grad(beta)
        eta_in = eta
        eta *= 2.0
        for _ in range(100):
            cand = loss.project_domain(beta + eta * g)
            w_cand = inst.AT @ cand
            d_cand = dual_value(inst, node, cand, w_cand)
            if d_cand >= d:
                break
            eta *= 0.5
        else:
            # supergradient stall: keep the iterate, improvement is zero
            cand, w_cand, d_cand, eta = beta, w, d, eta_in
        if eta_first is None:
            eta_first = eta
        return cand, w_cand, d_cand, lambda t: (
            _sga_primal(inst, node, w_cand),
            SgaState(cand, eta_first, w_cand, loss.conjugate(cand), t))

    return _ascend(inst, node, init, prune_threshold, cfg, step, first_stop=1)


def subtree_solve(inst, node, warm=None, prune_threshold=np.inf, cfg=None):
    """Lower bound + feasible candidate for the subtree below node.

    warm is the start state: the parent's final state, a DualState for
    pdal and an SgaState for sga, or None for cfg.subroutine's root state
    (_start_state).  Its dual iteration count sets which nodes Node.leaves
    lists.  A listed node is bounded as an expansion of itself alone
    (_Siblings.lone), from D at the start state; bfs_solve bounds it the
    same way in its parent's expansion.  Any other node is bounded by
    cfg.subroutine's maximizer.  prune_threshold is the incumbent
    objective; it also scales the dual convergence test.  Raises
    ValueError for a warm of another type, or a node of another tree than
    inst's (other d or k).
    """
    cfg = _solver_config(cfg)
    _check_node(inst, node)
    if node.lists_leaves(0 if warm is None else warm.iterations):
        return _Siblings.lone(inst, node, warm, cfg).bound(0, prune_threshold)
    maximize = pdal_maximize if cfg.subroutine == "pdal" else sga_maximize
    return maximize(inst, node, _start_state(inst, warm, cfg),
                    prune_threshold, cfg)

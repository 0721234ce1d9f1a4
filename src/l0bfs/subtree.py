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

A node with at most max(|tail|, t) leaves, where t is the listing budget
its parent's bound handed down (0 at the root), is bounded exactly: its
subtree minimum is the least restricted minimum over its leaves.  The
budget is the number of dual iterations of a pdal or sga ascent, and
_LISTING_PER_STEP per step of a newton bound; it stands in for the cost of
the node's own bound, and a leaf in a batch costs less than one dual
iteration.  The rule reads no clock, so the search stays deterministic.
The last level k - |S| = 1 is always listed.  Every listed node is bounded
by an expansion: the search's of its parent, or subtree_solve's of the
node alone.  A listed node that passes its entry test screens each leaf T
by D with the top-k term exact on T, and its surviving leaves are solved
in batches of at most _BATCH_ROWS * d rows, shared with its siblings'.  A
child with more survivors than one batch holds keeps all their solutions
at once: at most max(|tail|, t) rows of d floats.  It is EXACT, with its
best leaf as candidate and bound, when that leaf does not exceed the
incumbent: the search takes the leaf as a candidate and never expands the
node, so it never creates a leaf.  Otherwise it is PRUNED, bounded by the
least of its solved minima and screened leaf bounds (_leaf_bound).

Every other node is bounded by SolverConfig.subroutine, one of three
bounds that run one loop (_ascend).  It owns the entry test, the prune
test after each step, the running max D_max, the polish restricted solve
and the iteration cap.  Each bound holds only its method's state, a step
closure that makes one iteration, and its stop test:

  * newton_maximize (the default): damped Newton on the node's relaxation
    min_x L(Ax) + (lam/2) (||x_S||^2 + ||x_tail||_(sp,k-s)^2), whose
    Fenchel dual is D (the r-support norm is the dual of the top-r norm).
    D is read at beta = grad L(Ax) after each step, so every step gives a
    bound, and the relaxation's value F(x) gives a certified gap: it stops
    once F(x) - D_max is at most _EPSILON times the incumbent, or after a
    failed step (a singular system or no Armijo step), at D_max;
  * pdal_maximize: a primal-dual iteration with linesearch, whose step
    returns before its linesearch when the new D already prunes;
  * sga_maximize: projected supergradient ascent with step backtracking.

The two dual ascents stop once an iteration improves D by at most
_EPSILON times the incumbent.  Pruning stops any bound as soon as some D
value exceeds the incumbent objective, which certifies the subtree cannot
win.  Every child starts from its parent's final state, a DualState that
every bound reads and writes: newton starts from the primal point y (the
parent's relaxation solution), pdal from its dual and primal points
(beta, y), sga from beta alone.  pdal and sga restart their step schedules
at every call: a parent's spent pdal schedule barely moves the child and
would stop its ascent at a loose bound, and a restarted sga schedule takes
fewer dual iterations than an inherited step, with the same certified
objectives.
"""

import heapq
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np
from numpy.linalg import LinAlgError, solve

from .linalg import l2_norm, top_norm, truncate_top
from .restricted import (_ARMIJO, _MAX_HALVINGS, _ROUNDING, ConvergenceError,
                         _integer, solve_restricted, solve_restricted_batch)
from .state_space import Node
from .topk_prox import prox_topk_sq_conjugate

__all__ = [
    "EXACT", "DUAL_BOUND", "PRUNED", "ZERO_TOL",
    "SUBROUTINES", "SolverConfig", "DualState", "BoundResult",
    "dual_value", "newton_maximize", "pdal_maximize", "sga_maximize",
    "subtree_solve", "pdal_root_state", "sga_root_state",
]

EXACT = "exact"
DUAL_BOUND = "dual_bound"
PRUNED = "pruned"

# magnitude below which differences count as zero in prune/termination tests
ZERO_TOL = 1e-12

# a leaf batch holds at most _BATCH_ROWS * d supports: it pays the batched
# Newton loop's fixed numpy cost once, and its peak size grows with d only
_BATCH_ROWS = 16

# the relative tolerance of a bound (_converged): on the newton bound's
# certified gap, on a dual ascent's improvement per iteration
_EPSILON = 1e-5

# the node bounds SolverConfig.subroutine names; newton is the default
SUBROUTINES = ("newton", "pdal", "sga")

# the listing budget a newton bound hands its children (DualState.iterations,
# which Node.lists_leaves reads) per step it took, where a pdal or sga
# ascent hands one per dual iteration.  A newton step does the work of
# several pdal iterations, and a budget of one per step lists too little:
# at 1, 4 and 10 per step the seed-0 hard pass took 470, 254 and 153 calls
# (pdal: 153), planted 3,596, 3,596 and 3,578, and logistic 90 each
_LISTING_PER_STEP = 10


def _batch_size(inst):
    """Rows per solve_restricted_batch call: _BATCH_ROWS * d."""
    return _BATCH_ROWS * inst.d


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for subtree_solve and bfs_solve: the node bound and its
    iteration cap (newton steps, or dual iterations).  The bound's
    tolerance is the constant _EPSILON."""

    subroutine: str = "newton"  # one of SUBROUTINES
    max_dual_iters: int = 50_000

    def __post_init__(self):
        if self.subroutine not in SUBROUTINES:
            raise ValueError(f"subroutine must be one of {SUBROUTINES}, "
                             f"got {self.subroutine!r}")
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
    """The point a bound ends at, which the node's children start from;
    every bound reads and writes it."""

    beta: np.ndarray      # dual point, length n
    y: np.ndarray         # primal point, length d (sga: its polish point)
    w: np.ndarray         # A^T beta, length d
    conj: float           # L*(beta)
    # the children's listing budget (Node.lists_leaves): the dual iterations
    # of its ascent, _LISTING_PER_STEP per step of a newton bound
    iterations: int = 0


class BoundResult(NamedTuple):
    low: float                 # admissible lower bound for the subtree
    x: Optional[np.ndarray]    # feasible candidate (None when pruned early)
    value: float               # P(x), inf when pruned early
    status: str                # EXACT, DUAL_BOUND, or PRUNED
    state: Optional[DualState]  # the state the ascent ended at
    iterations: int


def pdal_root_state(inst):
    """Cold start at the tree root, for every bound: zero dual and primal
    points."""
    beta = np.zeros(inst.n)
    return DualState(beta=beta, y=np.zeros(inst.d), w=inst.AT @ beta,
                     conj=inst.loss.conjugate(beta))


sga_root_state = pdal_root_state


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


def _checked_state(name, state):
    """state itself; ValueError unless it is a DualState."""
    if not isinstance(state, DualState):
        raise ValueError(f"{name} must be a DualState, "
                         f"got {type(state).__name__}")
    return state


def _start_state(inst, warm):
    """The state a node starts from: warm, its parent's final state, or the
    root state for None.  ValueError for any other warm."""
    if warm is None:
        return pdal_root_state(inst)
    return _checked_state("warm", warm)


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

    def __init__(self, inst, node, state):
        """The children of node, which ended its bound at state."""
        self._start(inst, state)
        self.parent = node
        self.children = [node.indices + (j,) for j in node.child_range()]
        self.entry = _child_entry_bounds(inst, node, self.w, self.conj)

    @classmethod
    def lone(cls, inst, node, warm):
        """node alone, from warm, its parent's final state (None at the
        root)."""
        self = cls.__new__(cls)
        self._start(inst, warm)
        self.children = [node.indices]
        self.nodes[0] = node
        self.entry = [_entry_bound(inst, node, self.w, self.conj)]
        return self

    def _start(self, inst, warm):
        """Resolve the children's start state from warm once for all of
        them."""
        start = _start_state(inst, warm)
        self.inst, self.warm = inst, warm
        self.limit = 0 if warm is None else warm.iterations
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


def _ascend(inst, node, init, prune_threshold, cfg, step, stop=None):
    """Bound node from init, a DualState: one entry test, then an ascent.

    The entry test is D(init.beta; node), from init.w and init.conj.  A
    node that passes it maximizes D(.; node) by calls of step(beta, w, d,
    stop_above), which makes one iteration from beta (w = A^T beta, d its
    D value) and returns (beta, w, D, finish); finish(t) gives the primal
    point to polish and the state for the children, which records the
    listing budget of the t iterations taken.  The step may return early
    once D > stop_above, since that iteration ends in a prune.  The
    returned bound is the running max D_max.  stop(d_max), when given,
    ends the ascent after an iteration that does not prune (the newton
    bound's certified gap or failed step).  Without it the ascent has
    converged, from the second iteration on, when the D improvement is
    _EPSILON-small relative to the incumbent and the current D is D_max: a
    warm start at a near-fixed point shows no improvement on its first
    step without having ascended.  A node pruned after t >= 1 iterations
    returns as its state init with the beta, w and conj of the point it
    stopped at and t, for its siblings' re-screen.
    cfg is a SolverConfig, or None for the default one.  ValueError for an
    init that is not a DualState.
    """
    cfg = _solver_config(cfg)
    _check_node(inst, node)
    beta, w = _checked_state("init", init).beta, init.w
    d_max = d_prev = _entry_bound(inst, node, w, init.conj)
    stop_above = prune_threshold + ZERO_TOL
    if d_prev > stop_above:
        return BoundResult(low=d_max, x=None, value=np.inf,
                           status=PRUNED, state=None, iterations=0)

    for t in range(1, cfg.max_dual_iters + 1):
        beta, w, d_cur, finish = step(beta, w, d_prev, stop_above)
        d_max = max(d_max, d_cur)
        if d_cur > stop_above:
            # no child starts from a pruned node: y stays init's
            state = replace(init, beta=beta, w=w,
                            conj=inst.loss.conjugate(beta), iterations=t)
            return BoundResult(low=d_max, x=None, value=np.inf,
                               status=PRUNED, state=state, iterations=t)
        if stop is not None:
            if stop(d_max):
                break
        elif (t >= 2 and d_cur >= d_max
                and _converged(d_cur - d_prev, prune_threshold)):
            break
        d_prev = d_cur

    # converged or at the iteration cap: D_max is a valid bound either way;
    # the restricted solve on the polish point's support gives the candidate
    x, state = finish(t)
    sol = solve_restricted(inst, np.flatnonzero(x))
    return BoundResult(low=d_max, x=sol.x, value=sol.value,
                       status=DUAL_BOUND, state=state, iterations=t)


def _support_split(mags, r):
    """The squared r-support norm of a vector with magnitudes mags (at
    least r >= 1 of them) in closed form (Argyriou, Foygel & Srebro,
    NeurIPS 2012, Prop. 2.1).  With z the magnitudes sorted
    non-increasingly, the f largest are free and the rest form a block,
    which counts as r - f entries at its mean theta:

        ||.||_(sp,r)^2 = z_1^2 + ... + z_f^2 + (r - f) theta^2,
        theta = (z_{f+1} + z_{f+2} + ...) / (r - f),

    f being the least count in 0..r-1 with z_{f+1} <= theta.  That test
    holds from some f on, and always at r - 1, so the scan walks down from
    r - 1, adding each z_f to the block sum from below.  Returns (order, f,
    theta, value), order the stable sort of mags, largest first."""
    order = np.argsort(-mags, kind="stable")
    top = mags[order[:r]].tolist()
    f, block = r - 1, float(mags[order[r - 1:]].sum())
    while f and block + top[f - 1] >= (r - f + 1) * top[f - 1]:
        f -= 1
        block += top[f]
    theta = block / (r - f)
    return order, f, theta, sum(v * v for v in top[:f]) + block * theta


# the split of an empty tail (a node with |S| = k)
_NO_TAIL = (np.empty(0, dtype=np.intp), 0, 0.0, 0.0)


class _Point(NamedTuple):
    """A newton bound's iterate x over the node's columns, with A x, the
    relaxation's value there, the split of its tail (_support_split), and
    the dual point beta = grad L(A x) with A^T beta, L*(beta) and D."""
    x: np.ndarray
    z: np.ndarray
    value: float
    split: tuple
    beta: np.ndarray
    w: np.ndarray
    conj: float
    d: float


def newton_maximize(inst, node, init, prune_threshold, cfg):
    """Bound node by damped Newton on its relaxation

        F(x) = L(A x) + (lam/2) (||x_S||^2 + ||x_T||_(sp,r)^2)

    over x supported on S and the open tail T, r = k - |S|.  The squared
    r-support norm is the conjugate of the squared top-r norm in D, so
    D(.; node) is F's Fenchel dual: D(grad L(A x); node) <= min F bounds
    the subtree at every x, and equals min F at F's minimizer (the
    perspective relaxation of the node; Pilanci, Wainwright & El Ghaoui
    2015).  Hence, as L0BnB takes its node bounds (Hazimeh, Mazumder &
    Saab 2022), a second-order method on x gives a bound at each step and
    a certified gap F(x) - D_max to stop on.

    The first step reads D at init.y on S and T, the parent's x.  Every
    later step is one active-set Newton step.  The sort of |x_T| made when
    x was evaluated splits the tail into free entries, which weigh lam/2
    x_i^2, and a block, which weighs lam / (2 (r - f)) (sum |x_i|)^2.  A
    zero block entry whose |grad_i| beats the block's threshold lam theta
    joins it with sign -sign(grad_i), the largest |grad_i| first while the
    active set P holds at most n entries: over more columns than rows the
    system is singular, and on a wide design (d = 40, n = 10) a root took
    58-184 steps with every such entry joining against 9-10 with the cap.
    One dense solve on the active set

        (A_P^T diag(L'') A_P + lam I_free + lam / (r - f) s s^T) dx = grad

    gives the step; a joining entry that the step would move against its
    sign stays at zero.  The full step comes first, with each tail entry it
    takes across zero set to zero; if it fails restricted's Armijo test
    with rounding slack on the true F, the step to the first zero crossing
    (a ratio test), halved until it passes.  Each trial sorts |x_T| once,
    and the sort of the point taken splits its tail for the next step.  D
    is read at beta = grad L(A x).

    The bound stops when D prunes, when F(x) - D_max <= _EPSILON times the
    incumbent (_converged), or after a failed step: a singular system, a
    step with no predicted decrease, no Armijo step within _MAX_HALVINGS
    halvings, or one that leaves F where it was.  A failed step ends the
    bound at D_max, which is admissible; it never raises.  The children
    start from beta, its w and conj, and y = x, with a listing budget of
    _LISTING_PER_STEP per step; the polish point is the top-k truncation
    of x.
    """
    AT, lam, loss = inst.AT, inst.lam, inst.loss
    s, rem = node.size, node.k - node.size
    cols = node.support_array
    if rem:
        cols = np.concatenate((cols, np.arange(node.cut, inst.d)))
    AtJ = cur = None   # set at the first step, after _ascend has checked init
    failed = False

    def value_at(x, z):
        """F at x over cols, with z = A x, and the split of its tail."""
        xs = x[:s]
        split = _support_split(np.abs(x[s:]), rem) if rem else _NO_TAIL
        penalty = float(xs @ xs) + split[3]
        return float(loss.value(z)) + 0.5 * lam * penalty, split

    def evaluate(x, z, value, split):
        beta = loss.grad(z)
        w = AT @ beta
        conj = loss.conjugate(beta)
        return _Point(x, z, value, split, beta, w, conj,
                      _entry_bound(inst, node, w, conj))

    def newton_step(p):
        """The point one damped Newton step from p reaches; None for a
        failed step."""
        order, f, theta, _ = p.split
        q = s + f   # S and the free entries come first in P, then the block
        grad = p.w[cols]
        x_tail, g_tail = p.x[s:], grad[s:]
        block = order[f:]
        on = x_tail[block] != 0
        joining = ~on & (np.abs(g_tail[block]) > lam * theta)
        room = inst.n - q - np.count_nonzero(on)
        if np.count_nonzero(joining) > room:   # the largest |grad_i| join
            late = np.flatnonzero(joining)
            late = late[np.argsort(-np.abs(g_tail[block[late]]),
                                   kind="stable")[max(room, 0):]]
            joining[late] = False
        block = block[on | joining]
        sign = np.sign(x_tail[block])
        sign = np.where(sign == 0, -np.sign(g_tail[block]), sign)
        P = np.concatenate((np.arange(s), s + order[:f], s + block))
        x_p, g = p.x[P], grad[P]
        g[:q] += lam * x_p[:q]
        g[q:] += (lam * theta) * sign
        AtP = AtJ[P]
        hess = (AtP * loss.curvature(p.z)) @ AtP.T
        hess.flat[:q * (len(P) + 1):len(P) + 1] += lam   # S and free: ridge
        if block.size:
            hess[q:, q:] += (lam / (rem - f)) * (sign[:, None] * sign)
        try:
            dx = solve(hess, g)
        except LinAlgError:
            return None
        # a joining entry moves along its sign only
        dx[q:][(x_p[q:] == 0) & (sign * dx[q:] > 0)] = 0.0
        pred = float(g @ dx)
        if not 0.0 < pred < math.inf:
            return None
        slack = _ROUNDING * abs(p.value)

        def trial(x_t):
            """The point at x_t on P, if it passes the Armijo test."""
            x = np.zeros(len(cols))
            x[P] = x_t
            z = x_t @ AtP
            value, split = value_at(x, z)
            if value <= p.value - _ARMIJO * float(g @ (x_p - x_t)) + slack:
                return evaluate(x, z, value, split)
            return None

        # the full step, with each tail entry it takes across zero set to
        # zero; failing that, the step to the first zero crossing (the ratio
        # test), halved until it passes
        moving = s + np.flatnonzero(x_p[s:] * dx[s:] > 0)
        ratios = x_p[moving] / dx[moving]
        x_t = x_p - dx
        x_t[moving[ratios < 1.0]] = 0.0
        if (nxt := trial(x_t)) is not None:
            return nxt
        t = 0.5
        if ratios.size and ratios.min() < 1.0:
            first = int(np.argmin(ratios))
            t = float(ratios[first])
            x_t = x_p - t * dx
            x_t[moving[first]] = 0.0
            if (nxt := trial(x_t)) is not None:
                return nxt
            t *= 0.5
        for _ in range(_MAX_HALVINGS):
            if (nxt := trial(x_p - t * dx)) is not None:
                return nxt
            t *= 0.5
        return None

    def step(beta, w, d, stop_above):
        nonlocal AtJ, cur, failed
        if cur is None:
            AtJ = AT[cols]
            x = init.y[cols]
            z = x @ AtJ
            cur = evaluate(x, z, *value_at(x, z))
        else:
            nxt = newton_step(cur)
            failed = nxt is None or nxt.value >= cur.value
            cur = cur if nxt is None else nxt
        return cur.beta, cur.w, cur.d, finish

    def finish(t):
        y = np.zeros(inst.d)
        y[cols] = cur.x
        return truncate_top(node.k, y), DualState(
            cur.beta, y, cur.w, cur.conj, _LISTING_PER_STEP * t)

    def stop(d_max):
        return failed or _converged(cur.value - d_max, prune_threshold)

    return _ascend(inst, node, init, prune_threshold, cfg, step, stop)


def pdal_maximize(inst, node, init, prune_threshold, cfg):
    """Maximize D(.; node) by a primal-dual iteration with linesearch.

    Dual step: beta_t = prox of tau * L* at beta - tau * A y.  Primal step:
    blockwise prox of the support penalty at ybar, where the open-tail block
    is the conjugate prox of the scaled top-(k-s) squared norm.  The step
    sizes follow the acceleration schedule driven by the loss's gamma
    (strong convexity of L*), starting from tau = 1/||A||_2 (1 when A = 0,
    where every step passes), rho = theta = 1, with tau halved until

        sqrt(rho_t) * tau_t * ||A (y_t - y_{t-1})|| <= ||y_t - y_{t-1}||.

    The primal iterate starts at init.y.  The polish point is the top-k
    truncation of y.  It ascends on any node, listed or not (subtree_solve
    lists the leaves instead).
    """
    A, lam, loss = inst.A, inst.lam, inst.loss
    k, rem, cut = node.k, node.k - node.size, node.cut
    s_arr = node.support_array
    # y and tau are set at the first step, after _ascend has checked init:
    # a node pruned at entry needs no ||A||
    y, tau, rho, theta = None, None, 1.0, 1.0

    def step(beta, w, d, stop_above):
        nonlocal y, tau, rho, theta
        if tau is None:
            y = init.y
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

    return _ascend(inst, node, init, prune_threshold, cfg, step)


def _sga_primal(inst, node, w):
    """x~(beta; node) used for the supergradient: blockwise -w/lam, truncated on the tail."""
    x = np.zeros(inst.d)
    x[node.support_array] = w[node.support_array]
    x[node.cut:] = truncate_top(node.k - node.size, w[node.cut:])
    return x / (-inst.lam)


def sga_maximize(inst, node, init, prune_threshold, cfg):
    """Maximize D(.; node) by projected supergradient ascent.

    Each iteration doubles the previous step (1 before the first) then
    halves it until the dual value does not decrease, so the D trace is
    non-decreasing and low equals the final (= maximal) D.  If no step
    improves (possible at a kink of the nonsmooth D), the iterate is kept
    and the zero improvement triggers the convergence test.  It reads beta
    alone from init; the state it ends at holds its polish point as y.
    """
    loss = inst.loss
    step_size = 1.0   # restarted at every call

    def step(beta, w, d, stop_above):
        nonlocal step_size
        g = inst.A @ _sga_primal(inst, node, w) - loss.conjugate_grad(beta)
        step_before = step_size
        step_size *= 2.0
        for _ in range(100):
            cand = loss.project_domain(beta + step_size * g)
            w_cand = inst.AT @ cand
            d_cand = dual_value(inst, node, cand, w_cand)
            if d_cand >= d:
                break
            step_size *= 0.5
        else:
            # supergradient stall: keep the iterate, improvement is zero
            cand, w_cand, d_cand, step_size = beta, w, d, step_before

        def finish(t):
            x = _sga_primal(inst, node, w_cand)
            return x, DualState(cand, x, w_cand, loss.conjugate(cand), t)
        return cand, w_cand, d_cand, finish

    return _ascend(inst, node, init, prune_threshold, cfg, step)


def subtree_solve(inst, node, warm=None, prune_threshold=np.inf, cfg=None):
    """Lower bound + feasible candidate for the subtree below node.

    warm is the start state: the parent's final DualState, from any bound,
    or None for the root state (_start_state).  Its listing budget
    (DualState.iterations) sets which nodes Node.leaves lists.  A listed
    node is bounded as an expansion of itself alone (_Siblings.lone), from
    D at the start state; bfs_solve bounds it the same way in its parent's
    expansion.  Any other node is bounded by cfg.subroutine's bound.
    prune_threshold is the incumbent objective; it also scales the bound's
    stop test.  Raises ValueError for a warm that is not a DualState, or a
    node of another tree than inst's (other d or k).
    """
    cfg = _solver_config(cfg)
    _check_node(inst, node)
    start = _start_state(inst, warm)
    if node.lists_leaves(0 if warm is None else warm.iterations):
        return _Siblings.lone(inst, node, warm).bound(0, prune_threshold)
    maximize = {"newton": newton_maximize, "pdal": pdal_maximize,
                "sga": sga_maximize}[cfg.subroutine]
    return maximize(inst, node, start, prune_threshold, cfg)

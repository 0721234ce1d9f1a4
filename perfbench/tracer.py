"""Spans and counts for the traced run, recorded from outside the library.

Tracer.install() replaces library functions with wrappers that record a span
(name, start, end, parent) or bump a count, and Tracer.remove() puts every
original back.  subtree.py and search.py bind their helpers with
``from .x import y``, so each helper is replaced in the module that looks it
up, not where it is defined.  Spans stay in memory until the run ends.
"""

import time
from array import array
from collections import Counter

import numpy as np
from scipy.special import expit

import l0bfs.restricted
import l0bfs.search
import l0bfs.subtree
from l0bfs import (PRUNED, ConvergenceError, HuberLoss, LogisticLoss, Node,
                   QuadraticLoss, SolverConfig)

KINDS = ("quadratic", "huber", "logistic")
LOSS_CLASSES = (QuadraticLoss, HuberLoss, LogisticLoss)
MAX_DUAL_ITERS = SolverConfig().max_dual_iters

# A LogisticLoss.prox return counts as unconverged when a component of the
# stationarity residual y - v - c b sigma(-b y) exceeds this share of
# max(1, |v_i|, c), the scale of the terms it balances.
PROX_REL_TOL = 1e-9

# Spans with this name hold the tracer's own checks; they are subtracted
# from their parent's self time and belong to no layer.
CHECK = "trace.check"


class Tracer:
    def __init__(self):
        self.table = []                  # span name per name id
        self.ids = array("i")            # name id per span
        self.starts, self.ends = array("d"), array("d")
        self.parents = array("q")
        self.stack = [-1]
        self.counts = Counter()
        self._saved = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name):
        if name not in self.table:
            self.table.append(name)
        return self.table.index(name)

    def _open(self, nid):
        i = len(self.ids)
        self.ids.append(nid)
        self.parents.append(self.stack[-1])
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def _close(self, i):
        self.ends[i] = time.perf_counter()
        self.stack.pop()

    def call(self, nid, fn, *args, **kwargs):
        """Run fn inside a span with name id nid."""
        i = self._open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(i)

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, make):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, make(original))

    def install(self):
        search, subtree, restricted = l0bfs.search, l0bfs.subtree, l0bfs.restricted
        self._patch(search, "subtree_solve", self._wrap_subtree)
        for module in (subtree, restricted):
            self._patch(module, "solve_restricted", self._wrap_restricted)
        self._patch(subtree, "prox_topk_sq_conjugate",
                    lambda fn: self._spanned("topk_prox", fn))
        self._patch(subtree, "dual_value",
                    lambda fn: self._spanned("dual_value", fn))
        self._patch(restricted, "spectral_norm",
                    lambda fn: self._spanned("linalg.spectral_norm", fn))
        for attr in ("top_norm", "truncate_top"):
            self._patch(subtree, attr,
                        lambda fn, key=f"linalg.{attr}_calls": self._counted(key, fn))
        for cls in LOSS_CLASSES:
            self._patch(cls, "prox_conjugate",
                        lambda fn, kind=cls.kind: self._spanned(
                            f"losses.{kind}.prox_conjugate", fn))
            self._patch(cls, "prox", self._wrap_prox)
        self._patch(Node, "children", self._wrap_children)

    def remove(self):
        while self._saved:
            owner, attr, original, owned = self._saved.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.remove()
            raise
        return self

    def __exit__(self, *exc):
        self.remove()

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, name, fn):
        nid = self.name_id(name)

        def wrapper(*args, **kwargs):
            return self.call(nid, fn, *args, **kwargs)
        return wrapper

    def _counted(self, key, fn):
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _wrap_subtree(self, fn):
        nid, counts = self.name_id("subtree"), self.counts

        def wrapper(inst, node, warm=None, prune_threshold=np.inf, cfg=None):
            res = self.call(nid, fn, inst, node, warm, prune_threshold, cfg)
            if node.size == node.k or node.size + node.tail_size <= node.k:
                counts["subtree.exact"] += 1
                return res
            cap = cfg.max_dual_iters if cfg is not None else MAX_DUAL_ITERS
            counts["subtree.dual_iters"] += res.iterations
            if res.status == PRUNED:
                key = "pruned_after_ascent" if res.iterations else "pruned_at_entry"
                counts["subtree." + key] += 1
                # the prune test precedes the linesearch of its iteration
                counts["subtree.completed_iters"] += max(res.iterations - 1, 0)
            else:
                counts["subtree.cap_hits"] += res.iterations == cap
                counts["subtree.completed_iters"] += res.iterations
            return res
        return wrapper

    def _wrap_restricted(self, fn):
        nids = {kind: self.name_id(f"restricted.{kind}") for kind in KINDS}

        def wrapper(inst, support, *args, **kwargs):
            try:
                return self.call(nids[inst.loss.kind], fn, inst, support,
                                 *args, **kwargs)
            except ConvergenceError:
                self.counts["restricted.convergence_errors"] += 1
                raise
        return wrapper

    def _wrap_prox(self, fn):
        nid = self.name_id(CHECK)

        def wrapper(loss, tau, v):
            y = fn(loss, tau, v)
            if loss.kind == "logistic" and tau > 0:
                i = self._open(nid)
                c = tau / loss.n
                b = loss.b
                v = np.asarray(v, dtype=float)
                residual = np.abs(y - v - c * b * expit(-b * y))
                scale = np.maximum(np.maximum(np.abs(v), c), 1.0)
                self.counts["losses.logistic.prox_unconverged"] += bool(
                    np.any(residual > PROX_REL_TOL * scale))
                self._close(i)
            return y
        return wrapper

    def _wrap_children(self, fn):
        nid = self.name_id("state_space.children")

        def wrapper(node):
            kids = self.call(nid, fn, node)
            self.counts["state_space.nodes"] += len(kids)
            return kids
        return wrapper

    # -- analysis ----------------------------------------------------------

    def __len__(self):
        return len(self.ids)

    def span_totals(self, first, last):
        """Per span name: (calls, total seconds, self seconds) of spans first..last-1.

        A span's self time is its duration minus its children's durations.
        """
        # slicing an array.array copies it, so no buffer stays exported
        ids = np.frombuffer(self.ids[first:last], dtype=np.int32)
        dur = (np.frombuffer(self.ends[first:last])
               - np.frombuffer(self.starts[first:last]))
        parents = np.frombuffer(self.parents[first:last], dtype=np.int64) - first
        inside = parents >= 0
        child = np.bincount(parents[inside], weights=dur[inside],
                            minlength=dur.size)
        m = len(self.table)
        calls = np.bincount(ids, minlength=m)
        total = np.bincount(ids, weights=dur, minlength=m)
        own = np.bincount(ids, weights=dur - child, minlength=m)
        return {name: (int(calls[i]), float(total[i]), float(own[i]))
                for i, name in enumerate(self.table)}

    def save(self, path):
        """Write every span: name table, name id, start, end, parent index."""
        np.savez(path, names=np.asarray(self.table),
                 name=np.array(self.ids, dtype=np.int32),
                 start=np.array(self.starts), end=np.array(self.ends),
                 parent=np.array(self.parents, dtype=np.int64))

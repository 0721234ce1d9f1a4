"""Search tree over candidate supports.

A node is a strictly increasing tuple S of 0-based indices with |S| <= k.
Its children extend S by one index strictly greater than max(S), and a node
is kept only if enough indices remain above max(S) to complete S to size k,
i.e. k - |S| <= d - (max(S) + 1).  Leaves are exactly the size-k supports.
Every index above max(S) is "open" at S: the subtree below S can still use
it.  The tuple (S, open tail) drives the dual bound, and Node.leaves lists
the leaves of a node that has few enough of them for the subtree solver to
bound it exactly.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .restricted import _integer

__all__ = ["Node", "is_node", "root_node"]


def is_node(indices, d, k):
    """True iff the strictly increasing index tuple is a valid tree node."""
    s = len(indices)
    if s > k:
        return False
    bound = indices[-1] + 1 if s else 0  # first open index
    return k - s <= d - bound


@dataclass(frozen=True)
class Node:
    """A support prefix S in the search tree for dimension d, sparsity k."""

    indices: tuple
    d: int
    k: int

    def __post_init__(self):
        idx = tuple(int(_integer("index", i)) for i in self.indices)
        object.__setattr__(self, "indices", idx)
        if not (1 <= _integer("k", self.k) <= _integer("d", self.d)):
            raise ValueError("need 1 <= k <= d")
        if any(i < 0 or i >= self.d for i in idx):
            raise ValueError("indices out of range")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError("indices must be strictly increasing")
        if not is_node(idx, self.d, self.k):
            raise ValueError(f"{idx} is not a valid node for d={self.d}, k={self.k}")

    @property
    def size(self):
        return len(self.indices)

    @property
    def cut(self):
        """First open index: max(S)+1, or 0 at the root."""
        return self.indices[-1] + 1 if self.indices else 0

    @cached_property
    def support_array(self):
        """S as an int array (cached)."""
        return np.array(self.indices, dtype=int)

    @property
    def tail_size(self):
        return self.d - self.cut

    def child_range(self):
        """The tree's child rule: the new index j of each child S + {j}, in
        increasing order; empty at a leaf.

        Adding j leaves d - j - 1 indices open, so j can run only up to
        d - k + |S|; larger j could never be completed to a size-k leaf.
        """
        if self.size == self.k:
            return range(0)
        return range(self.cut, self.d - self.k + self.size + 1)

    def children(self):
        """Valid one-index extensions, in the order of child_range."""
        return [Node(self.indices + (j,), self.d, self.k)
                for j in self.child_range()]

    def lists_leaves(self, limit=0):
        """True iff the node has at most max(|tail|, limit, 1) leaves, so
        that leaves(limit) lists them.  It holds for a suffix of the
        children, as C(t, need) <= max(t, limit, 1) implies it at t - 1."""
        count = math.comb(self.tail_size, self.k - self.size)
        return count <= max(self.tail_size, limit, 1)

    def leaves(self, limit=0):
        """The size-k supports below the node, one per row in lexicographic
        order (itertools.combinations over the open tail), as an int array,
        when lists_leaves(limit); None otherwise.  A leaf lists itself, also
        with an empty tail.  Limit 0 lists the last level (k - |S| = 1) and
        the nodes that must take all their open indices or all but one.
        """
        if not self.lists_leaves(limit):
            return None
        s, need = self.support_array, self.k - self.size
        count = math.comb(self.tail_size, need)
        rest = np.fromiter(itertools.chain.from_iterable(
            itertools.combinations(range(self.cut, self.d), need)),
            dtype=int, count=count * need).reshape(count, need)
        return np.column_stack((np.broadcast_to(s, (count, s.size)), rest))

    def covers_support(self, target):
        """True iff some descendant leaf's support contains the target set.

        Equivalent test: every target index below the cut must already be in
        S, and |S union target| <= k (the new indices all lie in the open
        tail, where any <= k - |S| of them can still be added).
        """
        target = set(int(t) for t in target)
        if len(target) > self.k:
            raise ValueError("target support larger than k")
        mine = set(self.indices)
        if any(t < self.cut and t not in mine for t in target):
            return False
        return len(mine | target) <= self.k

    def __str__(self):
        return "{" + ",".join(map(str, self.indices)) + "}"


def root_node(d, k):
    return Node((), d, k)

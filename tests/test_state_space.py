import dataclasses
import itertools
import math

import numpy as np
import pytest

from l0bfs.state_space import Node, is_node, root_node


def enumerate_tree(d, k):
    """All valid nodes by explicit breadth-first expansion."""
    seen = []
    frontier = [root_node(d, k)]
    while frontier:
        node = frontier.pop()
        seen.append(node)
        frontier.extend(node.children())
    return seen


class TestIsNode:
    def test_almost_full_prefix_with_no_room_is_invalid(self):
        # two chosen, one more needed, but nothing opens past index 3
        assert not is_node((0, 3), d=4, k=3)

    def test_full_size_leaf_is_valid(self):
        assert is_node((0, 1, 3), d=4, k=3)

    def test_root_valid_whenever_k_fits(self):
        for d in range(1, 6):
            assert is_node((), d=d, k=d)

    def test_oversized_set_invalid(self):
        assert not is_node((0, 1, 2), d=4, k=2)


class TestNodeConstruction:
    def test_rejects_invalid_node(self):
        with pytest.raises(ValueError):
            Node((0, 3), d=4, k=3)

    def test_rejects_decreasing_or_duplicate_indices(self):
        with pytest.raises(ValueError):
            Node((2, 1), d=5, k=3)
        with pytest.raises(ValueError):
            Node((1, 1), d=5, k=3)

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(ValueError):
            Node((4,), d=4, k=2)
        with pytest.raises(ValueError):
            Node((-1,), d=4, k=2)

    def test_rejects_bad_dk(self):
        with pytest.raises(ValueError):
            Node((), d=3, k=4)
        with pytest.raises(ValueError):
            Node((), d=3, k=0)

    @pytest.mark.parametrize("indices,d,k", [
        ((1.5,), 6, 2), ((True,), 6, 2), ((np.bool_(True),), 6, 2),
        ((1.0,), 6, 2), ((), 6.0, 2), ((), 6, 2.0), ((), 6, True)])
    def test_non_integer_indices_and_sizes_rejected(self, indices, d, k):
        with pytest.raises(ValueError, match="must be an integer"):
            Node(indices, d=d, k=k)

    def test_numpy_ints_normalized(self):
        node = Node(tuple(np.array([1, 3])), d=5, k=2)
        assert node.indices == (1, 3)
        assert all(isinstance(i, int) for i in node.indices)

    def test_derived_quantities(self):
        node = Node((1, 2), d=5, k=3)
        assert node.size == 2
        assert node.cut == 3
        assert node.tail_size == 2
        np.testing.assert_array_equal(node.support_array, [1, 2])
        np.testing.assert_array_equal(np.arange(node.cut, node.d), [3, 4])
        assert str(node) == "{1,2}"

    def test_root_derived_quantities(self):
        root = root_node(4, 3)
        assert root.size == 0 and root.cut == 0 and root.tail_size == 4
        np.testing.assert_array_equal(np.arange(root.cut, root.d), [0, 1, 2, 3])


class TestChildren:
    def test_root_children_limited_by_completion_room(self):
        kids = [c.indices for c in root_node(4, 3).children()]
        assert kids == [(0,), (1,)]

    def test_child_cut_off_when_tail_too_short(self):
        kids = [c.indices for c in Node((1,), d=4, k=3).children()]
        assert kids == [(1, 2)]

    def test_full_room_keeps_all_extensions(self):
        kids = [c.indices for c in Node((0, 1), d=4, k=3).children()]
        assert kids == [(0, 1, 2), (0, 1, 3)]

    def test_leaves_have_no_children(self):
        assert Node((0, 1, 2), d=4, k=3).children() == []

    def test_children_empty_iff_full_size(self):
        for node in enumerate_tree(6, 3):
            assert (node.children() == []) == (node.size == node.k)


class TestTreeShape:
    @pytest.mark.parametrize("d,k", [(4, 2), (5, 3), (6, 3), (8, 4), (8, 1)])
    def test_leaves_are_exactly_the_size_k_subsets(self, d, k):
        leaves = [n.indices for n in enumerate_tree(d, k) if n.size == k]
        expected = list(itertools.combinations(range(d), k))
        assert sorted(leaves) == sorted(expected)
        assert len(leaves) == len(set(leaves))

    @pytest.mark.parametrize("d,k", [(5, 2), (6, 3), (7, 4)])
    def test_every_nonroot_node_has_valid_parent_edge(self, d, k):
        for node in enumerate_tree(d, k):
            if node.size == 0:
                continue
            parent = Node(node.indices[:-1], d, k)  # raises if not a valid node
            assert node.indices in [c.indices for c in parent.children()]

    def test_single_index_budget(self):
        kids = [c.indices for c in root_node(3, 1).children()]
        assert kids == [(0,), (1,), (2,)]


class TestCoversSupport:
    def test_prefix_on_path_to_target_covers(self):
        assert Node((0,), d=4, k=3).covers_support((0, 3))

    def test_prefix_that_skipped_a_target_index_does_not(self):
        assert not Node((1,), d=4, k=3).covers_support((0, 3))

    def test_root_covers_everything(self):
        root = root_node(5, 3)
        for size in range(4):
            for t in itertools.combinations(range(5), size):
                assert root.covers_support(t)

    def test_oversized_target_rejected(self):
        with pytest.raises(ValueError):
            root_node(4, 2).covers_support((0, 1, 2))

    def test_budget_exhausted_by_disjoint_indices(self):
        # node used both slots already; a target off its support cannot fit
        assert not Node((0, 1), d=5, k=2).covers_support((0, 4))
        assert Node((0, 1), d=5, k=2).covers_support((0, 1))

    @pytest.mark.parametrize("d,k", [(5, 2), (6, 3)])
    def test_matches_descendant_enumeration(self, d, k):
        nodes = enumerate_tree(d, k)
        leaves = [set(n.indices) for n in nodes if n.size == k]
        rng = np.random.default_rng(0)
        for _ in range(40):
            size = int(rng.integers(1, k + 1))
            target = set(map(int, rng.choice(d, size=size, replace=False)))
            for node in nodes:
                # oracle: does any size-k superset of target extend this node?
                reachable = any(
                    target <= leaf and set(node.indices) <= leaf
                    and all(i in node.indices
                            for i in leaf if i < node.cut)
                    for leaf in leaves)
                assert node.covers_support(target) == reachable

    @pytest.mark.parametrize("d,k", [(5, 2), (6, 3), (7, 3)])
    def test_covering_set_closed_under_parents_and_reaches_a_leaf(self, d, k):
        rng = np.random.default_rng(1)
        for _ in range(20):
            size = int(rng.integers(1, k + 1))
            target = tuple(sorted(map(int, rng.choice(d, size, replace=False))))
            covering = [n for n in enumerate_tree(d, k)
                        if n.covers_support(target)]
            assert any(n.size == k for n in covering)
            for node in covering:
                if node.size:
                    assert Node(node.indices[:-1], d, k).covers_support(target)


class TestValueSemantics:
    def test_equality_ignores_cache(self):
        a = Node((1, 2), d=5, k=3)
        b = Node((1, 2), d=5, k=3)
        _ = a.support_array  # populate one side's cache only
        assert a == b

    def test_replace_recomputes_cached_arrays(self):
        node = Node((1,), d=5, k=3)
        _ = node.support_array  # fill the cache
        moved = dataclasses.replace(node, indices=(2,))
        np.testing.assert_array_equal(moved.support_array, [2])
        np.testing.assert_array_equal(np.arange(moved.cut, moved.d), [3, 4])

    def test_frozen(self):
        node = Node((1,), d=4, k=2)
        with pytest.raises(AttributeError):
            node.indices = (2,)


class TestLeaves:
    @pytest.mark.parametrize("limit", [0, 5, 10**4])
    @pytest.mark.parametrize("d,k", [(5, 1), (6, 2), (6, 3), (4, 4), (7, 4),
                                     (9, 5)])
    def test_lists_the_leaves_exactly_when_there_are_few_enough(self, d, k,
                                                                limit):
        listed = deep = 0
        for node in enumerate_tree(d, k):
            need, tail = k - node.size, node.tail_size
            leaves = node.leaves(limit)
            # a leaf lists itself, also when its tail is empty
            if need and math.comb(tail, need) > max(tail, limit):
                assert leaves is None
                continue
            listed += 1
            deep += need >= 3
            below = [list(node.indices + extra) for extra in
                     itertools.combinations(range(node.cut, d), need)]
            assert leaves.tolist() == below
            assert leaves.dtype == np.dtype(int)
            assert leaves.shape == (len(below), k)
        assert listed > 0
        if limit == 10**4 and k >= 3:
            assert deep > 0


class TestListedChildren:
    @pytest.mark.parametrize("d", range(1, 13))
    def test_listed_children_are_a_suffix_of_child_range(self, d):
        # lists_leaves(limit) changes only where limit crosses a child's
        # leaf count, so these limits stand for every limit
        pairs = 0
        for k in range(1, d + 1):
            for node in enumerate_tree(d, k):
                children = node.children()
                counts = [math.comb(c.tail_size, k - c.size) for c in children]
                for limit in {0, *counts, *(c - 1 for c in counts)}:
                    listed = [c.lists_leaves(limit) for c in children]
                    assert listed == sorted(listed), (node.indices, limit)
                    pairs += 1
        assert pairs > 0

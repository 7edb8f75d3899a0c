"""Tests for the tree-based planners (repro.core.tree_algorithms)."""
import itertools

import pytest

from repro.core import cost_model as cm
from repro.core.cost_model import Objective
from repro.core.order_algorithms import greedy
from repro.core.pattern import Op, Predicate, conj, seq
from repro.core.plans import all_tree_plans, left_deep_tree
from repro.core.stats import PatternStats
from repro.core.tree_algorithms import TREE_ALGORITHMS, dp_b, zstream, zstream_ord
from tests.util import random_stats


def brute_force_trees(obj):
    return min(obj.tree_cost(t) for t in all_tree_plans(obj.stats.n))


def _contiguous_trees(order):
    """All full binary trees over a fixed left-to-right leaf sequence."""
    from repro.core.plans import join, leaf

    if len(order) == 1:
        yield leaf(order[0])
        return
    for k in range(1, len(order)):
        for lt in _contiguous_trees(order[:k]):
            for rt in _contiguous_trees(order[k:]):
                yield join(lt, rt)


def brute_force_contiguous(obj, leaf_order):
    """Optimal tree among those whose left-to-right leaves == leaf_order."""
    from repro.core.plans import TreePlan

    return min(
        obj.tree_cost(TreePlan(root)) for root in _contiguous_trees(tuple(leaf_order))
    )


class TestDPB:
    @pytest.mark.parametrize("seed", range(8))
    def test_optimal_conjunction(self, seed):
        obj = Objective(random_stats(5, seed, op=Op.AND))
        assert dp_b(obj).cost == pytest.approx(brute_force_trees(obj), rel=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_optimal_sequence_exact(self, seed):
        obj = Objective(random_stats(5, seed, op=Op.SEQ, temporal_mode="exact"))
        assert dp_b(obj).cost == pytest.approx(brute_force_trees(obj), rel=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_optimal_with_latency(self, seed):
        obj = Objective(
            random_stats(4, seed, op=Op.SEQ, temporal_mode="exact"), alpha=0.5
        )
        assert dp_b(obj).cost == pytest.approx(brute_force_trees(obj), rel=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_optimal_next_strategy(self, seed):
        obj = Objective(random_stats(4, seed, op=Op.AND), strategy="next")
        assert dp_b(obj).cost == pytest.approx(brute_force_trees(obj), rel=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_never_worse_than_best_left_deep(self, seed):
        obj = Objective(random_stats(5, seed, op=Op.AND))
        best_ld = min(
            obj.tree_cost(left_deep_tree(p))
            for p in itertools.permutations(range(5))
        )
        assert dp_b(obj).cost <= best_ld + 1e-9 * best_ld

    def test_reported_cost_matches_plan(self):
        obj = Objective(random_stats(5, 3, op=Op.SEQ, temporal_mode="exact"))
        res = dp_b(obj)
        assert res.cost == pytest.approx(obj.tree_cost(res.plan), rel=1e-9)


class TestZStream:
    @pytest.mark.parametrize("seed", range(8))
    def test_optimal_among_fixed_leaf_order(self, seed):
        obj = Objective(random_stats(5, seed, op=Op.SEQ, temporal_mode="exact"))
        res = zstream(obj)
        assert res.plan.root.leaves_in_order() == (0, 1, 2, 3, 4)
        assert res.cost == pytest.approx(
            brute_force_contiguous(obj, range(5)), rel=1e-9
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_zstream_ord_uses_greedy_order(self, seed):
        obj = Objective(random_stats(5, seed, op=Op.AND))
        res = zstream_ord(obj)
        assert res.plan.root.leaves_in_order() == greedy(obj).plan.order

    @pytest.mark.parametrize("seed", range(6))
    def test_zstream_ord_optimal_on_its_order(self, seed):
        obj = Objective(random_stats(5, seed, op=Op.AND))
        res = zstream_ord(obj)
        assert res.cost == pytest.approx(
            brute_force_contiguous(obj, greedy(obj).plan.order), rel=1e-9
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_dp_b_never_worse_than_zstream(self, seed):
        obj = Objective(random_stats(5, seed, op=Op.SEQ, temporal_mode="exact"))
        assert dp_b(obj).cost <= zstream(obj).cost + 1e-12
        assert dp_b(obj).cost <= zstream_ord(obj).cost + 1e-12

    @pytest.mark.parametrize(
        "planner", [zstream, zstream_ord], ids=["zstream", "zstream_ord"]
    )
    def test_above_subset_dp_cap(self, planner):
        """ZSTREAM's O(n²) groupings need no 2ⁿ subset tables, so n=30 plans."""
        obj = Objective(random_stats(30, 0, op=Op.SEQ, temporal_mode="exact"))
        res = planner(obj)
        assert res.plan.root.mask == (1 << 30) - 1
        assert res.cost == pytest.approx(obj.tree_cost(res.plan), rel=1e-9)

    def test_zstream_misses_reordered_plan(self):
        """The paper's Figure 3: SEQ(A,B,C) with a highly selective A–C
        predicate — only leaf reordering reaches the optimal tree."""
        rates = {"A": 5.0, "B": 5.0, "C": 5.0}
        pat = seq("ABC", (Predicate(0, 2, sel=0.001),), window=10.0)
        st = PatternStats.from_pattern(pat, rates)
        obj = Objective(st)
        zs, db = zstream(obj), dp_b(obj)
        assert db.cost < zs.cost
        # optimal tree joins A with C first
        first_join = [
            n for n in db.plan.root.nodes() if not n.is_leaf()
        ][0]
        assert first_join.mask == 0b101


class TestRegistry:
    def test_registry_complete(self):
        assert set(TREE_ALGORITHMS) == {"ZSTREAM", "ZSTREAM-ORD", "DP-B"}

    @pytest.mark.parametrize("name", sorted(TREE_ALGORITHMS))
    def test_all_return_valid_tree(self, name):
        obj = Objective(random_stats(6, 2, op=Op.SEQ, temporal_mode="exact"))
        res = TREE_ALGORITHMS[name](obj)
        assert sorted(res.plan.root.leaves_in_order()) == list(range(6))
        assert res.plan.root.mask == (1 << 6) - 1
        assert res.gen_seconds >= 0


class TestEnumeration:
    @pytest.mark.parametrize(
        "n,count", [(2, 1), (3, 3), (4, 15), (5, 105)]
    )
    def test_all_tree_plans_count(self, n, count):
        """#unordered binary trees over n labelled leaves = (2n-3)!!."""
        assert sum(1 for _ in all_tree_plans(n)) == count

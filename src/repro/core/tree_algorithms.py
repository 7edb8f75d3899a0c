"""Tree-based plan generation algorithms (paper §7.1).

- :func:`zstream` — ZStream's native optimizer [35]: dynamic programming
  over all tree topologies for a *fixed* left-to-right leaf order
  (matrix-chain style, O(n³)). Leaf reordering is not supported — the
  limitation Figure 3 of the paper illustrates.
- :func:`zstream_ord` — ZSTREAM-ORD: run the JQPG greedy heuristic to
  produce a good leaf order first, then ZStream's DP on that order.
- :func:`dp_b` — DP over subsets for unrestricted bushy trees [45, 36]
  (cross products allowed), provably optimal; O(3ⁿ).

Node and latency costs are the :class:`repro.core.cost_model.Objective`
methods, which read subset PMs from its one memoized kernel, so ZSTREAM
pays for its O(n²) contiguous groupings only, not for all 2ⁿ subsets.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .cost_model import Objective
from .order_algorithms import greedy
from .plans import TreeNode, TreePlan, join, leaf


@dataclass(frozen=True)
class TreePlanResult:
    """A generated tree plan plus its objective cost and generation time."""

    plan: TreePlan
    cost: float
    gen_seconds: float


def _zstream_dp(obj: Objective, leaf_order: tuple[int, ...]) -> tuple[TreePlan, float]:
    """Optimal tree over contiguous groupings of ``leaf_order``."""
    n = len(leaf_order)
    masks = {}
    for i in range(n):
        m = 0
        for j in range(i, n):
            m |= 1 << leaf_order[j]
            masks[i, j] = m
    cost: dict[tuple[int, int], float] = {}
    split: dict[tuple[int, int], int] = {}
    for i in range(n):
        cost[i, i] = obj.node_pm(1 << leaf_order[i])
    for span in range(2, n + 1):
        for i in range(0, n - span + 1):
            j = i + span - 1
            node = obj.node_pm(masks[i, j])
            best, best_k = math.inf, i
            for k in range(i, j):
                c = (
                    cost[i, k]
                    + cost[k + 1, j]
                    + obj.lat_combine(masks[i, k], masks[k + 1, j])
                )
                if c < best:
                    best, best_k = c, k
            cost[i, j] = node + best
            split[i, j] = best_k

    def build(i: int, j: int) -> TreeNode:
        if i == j:
            return leaf(leaf_order[i])
        k = split[i, j]
        return join(build(i, k), build(k + 1, j))

    return TreePlan(build(0, n - 1)), cost[0, n - 1]


def zstream(obj: Objective) -> TreePlanResult:
    """ZStream's DP on the pattern's own leaf order [35]."""
    t0 = time.perf_counter()
    plan, cost = _zstream_dp(obj, tuple(range(obj.stats.n)))
    return TreePlanResult(plan, cost, time.perf_counter() - t0)


def zstream_ord(obj: Objective) -> TreePlanResult:
    """GREEDY leaf ordering followed by ZStream's DP (ZSTREAM-ORD)."""
    t0 = time.perf_counter()
    order = greedy(obj).plan.order
    plan, cost = _zstream_dp(obj, order)
    return TreePlanResult(plan, cost, time.perf_counter() - t0)


def dp_b(obj: Objective) -> TreePlanResult:
    """Optimal bushy tree via DP over subsets (DP-B) [45].

    ``cost[S] = node_pm(S) + min_{L⊂S} (cost[L] + cost[S∖L] +
    lat_combine(L, S∖L))``; leaves are the singleton base case. The split
    enumeration fixes S's lowest bit on the left side so each unordered
    split is tried once. O(3ⁿ) — the paper reports 50 h at n = 22 for its
    Java implementation; callers cap n accordingly, and n > 24 is refused
    before the 2ⁿ-entry cost and split lists are allocated.
    """
    t0 = time.perf_counter()
    n = obj.stats.n
    if n > 24:
        raise ValueError(f"DP-B over 2^{n} subsets is infeasible")
    size = 1 << n
    cost = [math.inf] * size
    split = [0] * size
    for i in range(n):
        cost[1 << i] = obj.node_pm(1 << i)
    for mask in range(3, size):
        if mask.bit_count() < 2:
            continue
        low = mask & -mask
        rest = mask ^ low
        best, best_l = math.inf, 0
        sub = rest
        while True:
            left_mask = low | (sub & rest)
            right_mask = mask ^ left_mask
            if right_mask:
                c = (
                    cost[left_mask]
                    + cost[right_mask]
                    + obj.lat_combine(left_mask, right_mask)
                )
                if c < best:
                    best, best_l = c, left_mask
            if sub == 0:
                break
            sub = (sub - 1) & rest
        cost[mask] = obj.node_pm(mask) + best
        split[mask] = best_l

    def build(mask: int) -> TreeNode:
        if mask.bit_count() == 1:
            return leaf(mask.bit_length() - 1)
        l_mask = split[mask]
        return join(build(l_mask), build(mask ^ l_mask))

    plan = TreePlan(build(size - 1))
    return TreePlanResult(plan, cost[size - 1], time.perf_counter() - t0)


TREE_ALGORITHMS = {
    "ZSTREAM": zstream,
    "ZSTREAM-ORD": zstream_ord,
    "DP-B": dp_b,
}

"""Cost models for CEP evaluation plans (paper §4, §6.1, §6.2).

Both throughput models are sums of one quantity, the expected number of
partial matches PM of a subset of event types. :class:`SubsetKernel`
computes it once per subset; every cost function below and every planner
(through :class:`Objective`) reads it from there.

Implemented functions, with the paper's names:

- :func:`cost_ord`  — ``Cost_ord``  (§4.1): Σ expected partial matches over
  every prefix of an order-based plan.
- :func:`cost_ldj`  — ``Cost_LDJ``  (§4.1): left-deep join-tree cost. Kept
  as an *independent* implementation (cardinality propagation over the
  join side of the reduction) so Theorem 1's equality ``Cost_ord(O) ==
  Cost_LDJ(L_O)`` is an executable test, not a tautology.
- :func:`cost_tree` — ``Cost_tree`` (§4.2): Σ PM over all tree-plan nodes.
- :func:`cost_bj`   — ``Cost_BJ``   (§4.2): bushy join-tree cost,
  independently implemented (Theorem 2's counterpart).
- :func:`cost_ord_lat` / :func:`cost_tree_lat` — ``Cost^lat`` (§6.1).
- :func:`cost_ord_next` / :func:`cost_tree_next` — ``Cost^next`` (§6.2),
  the skip-till-next-match model (also used for contiguity strategies).
- :class:`Objective` — the planner-facing combination
  ``Cost^trpt + α·Cost^lat`` (§6.1) with the strategy-specific throughput
  model, normalized so α ∈ [0, 1] trades the two off on comparable scales
  (the paper leaves the mixing scale implicit; see DESIGN.md §5).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .plans import OrderPlan, TreePlan
from .stats import PatternStats

# ---------------------------------------------------------------------------
# The subset kernel — PM of a set of planning positions (§4.1, §4.2, §6.2)
# ---------------------------------------------------------------------------


class SubsetKernel:
    """Memoized expected partial matches of every subset a plan touches.

    For a bitmask over the planning positions the memo holds
    ``(Π W·r_i, Π sel, min W·r_i, Π sel × 1/k!)``: the counts, every filter
    and pair selectivity inside the subset, the smallest count, and the
    selectivities times the exact-mode ordering factor for the subset's k
    sequence members. An entry is built from the entry of the mask minus
    its lowest bit, so a value depends only on its mask, never on which
    plan asked for it first. Entries are filled on demand: a planner pays
    for the subsets it visits, not for all 2ⁿ.

    The 1/k! factor multiplies the finished product instead of being
    folded in bit by bit: a position with no predicate against the subset
    then leaves ``Π sel`` bitwise unchanged, so subsets that tie exactly
    in the skip-till-next model stay tied and GREEDY breaks the tie by
    position.
    """

    def __init__(self, stats: PatternStats):
        self._counts = stats.counts.tolist()
        self._sel = stats.sel.tolist()
        self._seq = stats.seq_members if stats.temporal_mode == "exact" else 0
        self._inv_fact = [1.0 / math.factorial(k) for k in range(stats.n + 1)]
        self._memo = {0: (1.0, 1.0, math.inf, 1.0)}

    def _fill(self, mask: int) -> tuple[float, float, float, float]:
        memo, sel = self._memo, self._sel
        chain = []
        while mask not in memo:
            chain.append(mask)
            mask &= mask - 1
        count, sel_prod, min_count, _ = memo[mask]
        for mask in reversed(chain):
            b = (mask & -mask).bit_length() - 1
            f = sel[b][b]
            rest = mask & (mask - 1)
            while rest:
                i = (rest & -rest).bit_length() - 1
                f *= sel[i][b]
                rest &= rest - 1
            sel_prod *= f
            count *= self._counts[b]
            min_count = min(min_count, self._counts[b])
            ordered = sel_prod * self._inv_fact[(mask & self._seq).bit_count()]
            memo[mask] = (count, sel_prod, min_count, ordered)
        return memo[mask]

    def pm(self, mask: int) -> float:
        """PM(mask) — ``Π (W·r_i) · Π sel × 1/k!`` (§4.1 PM(k), §4.2 PM(N))."""
        count, _, _, ordered = self._memo.get(mask) or self._fill(mask)
        return count * ordered

    def pm_next(self, mask: int) -> float:
        """``W·min(r_i) · Π sel × 1/k!`` — the skip-till-next PM (§6.2)."""
        _, _, min_count, ordered = self._memo.get(mask) or self._fill(mask)
        return min_count * ordered


def _prefixes(order) -> list[int]:
    """The masks of an order plan's prefixes, shortest first."""
    masks, mask = [], 0
    for t in order:
        mask |= 1 << t
        masks.append(mask)
    return masks


# ---------------------------------------------------------------------------
# Throughput (intermediate partial matches) models — §4
# ---------------------------------------------------------------------------


def cost_ord(plan: OrderPlan, stats: PatternStats) -> float:
    """Σ_k PM(k) — the order-based throughput cost (§4.1)."""
    pm = SubsetKernel(stats).pm
    return sum(pm(mask) for mask in _prefixes(plan.order))


def cost_ldj(plan: OrderPlan, stats: PatternStats) -> float:
    """``Cost_LDJ`` — left-deep join cost over the reduced join instance.

    Written against the join-side quantities of §3.2/§4.1: relation
    cardinalities ``|R_i| = W·r_i`` and predicate selectivities ``f = sel``.
    ``C_1 = |R_{i_1}|·f_{i_1,i_1}``; each further step contributes
    ``C(P_{k-1}, R_{i_k}) = |P_{k-1}|·|R_{i_k}|·f_{P,R}`` where ``f_{P,R}``
    is the product of the selectivities of all predicates between the new
    relation and the relations already joined (including the new relation's
    own filter). Only valid for pure conjunctive instances
    (``temporal_mode`` none/pairwise — Theorem 1's setting).
    """
    if stats.temporal_mode == "exact" and stats.seq_members:
        raise ValueError("Cost_LDJ is defined on the pure conjunctive reduction")
    order = plan.order
    first = order[0]
    card = stats.counts[first] * stats.sel[first, first]
    total = card
    joined = [first]
    for t in order[1:]:
        f = stats.sel[t, t]
        for i in joined:
            f *= stats.sel[i, t]
        card = card * stats.counts[t] * f
        total += card
        joined.append(t)
    return total


def cost_tree(plan: TreePlan, stats: PatternStats) -> float:
    """Σ_N PM(N) — the tree-based throughput cost (§4.2).

    ``PM(leaf) = W·r_i`` (times the filter selectivity, folded in so the
    order- and tree-based models treat filters identically) and
    ``PM(in) = PM(L)·PM(R)·SEL_LR(in)``, which is the PM of the node's
    leaf set.
    """
    pm = SubsetKernel(stats).pm
    return sum(pm(node.mask) for node in plan.root.nodes())


def cost_bj(plan: TreePlan, stats: PatternStats) -> float:
    """``Cost_BJ`` — bushy join-tree cost (Theorem 2's join side).

    Independent implementation: node cardinalities are propagated as
    ``|N| = |L|·|R|·f_{L,R}`` with ``f_{L,R}`` computed by a literal double
    loop over the selectivity matrix. Pure conjunctive instances only.
    """
    if stats.temporal_mode == "exact" and stats.seq_members:
        raise ValueError("Cost_BJ is defined on the pure conjunctive reduction")
    card: dict[int, float] = {}
    total = 0.0
    for node in plan.root.nodes():
        if node.is_leaf():
            v = stats.counts[node.leaf] * stats.sel[node.leaf, node.leaf]
        else:
            f = 1.0
            for i in range(stats.n):
                if not (node.left.mask >> i & 1):
                    continue
                for j in range(stats.n):
                    if node.right.mask >> j & 1:
                        f *= stats.sel[i, j]
            v = card[node.left.mask] * card[node.right.mask] * f
        card[node.mask] = v
        total += v
    return total


# ---------------------------------------------------------------------------
# Latency models — §6.1
# ---------------------------------------------------------------------------


def cost_ord_lat(plan: OrderPlan, stats: PatternStats) -> float:
    """``Cost^lat_ord`` — Σ W·r_i over the types succeeding T_n in the plan.

    T_n is the temporally last positive event of a sequence pattern. For
    conjunctive patterns the last arrival is unknown in advance (the paper
    proposes an output profiler); we return 0 so that α has no effect —
    the paper's Fig 18 likewise uses sequence patterns only.
    """
    last = stats.last_seq_position
    if last is None:
        return 0.0
    idx = plan.order.index(last)
    return float(sum(stats.counts[t] for t in plan.order[idx + 1 :]))


def cost_tree_lat(plan: TreePlan, stats: PatternStats) -> float:
    """``Cost^lat_tree`` — Σ PM(sibling(N)) over ancestors of T_n's leaf."""
    last = stats.last_seq_position
    if last is None:
        return 0.0
    pm = SubsetKernel(stats).pm
    bit = 1 << last
    total = 0.0
    node = plan.root
    while not node.is_leaf():
        sibling = node.right if node.left.mask & bit else node.left
        total += pm(sibling.mask)
        node = node.left if node.left.mask & bit else node.right
    return total


# ---------------------------------------------------------------------------
# Skip-till-next-match models — §6.2
# ---------------------------------------------------------------------------


def cost_ord_next(plan: OrderPlan, stats: PatternStats) -> float:
    """``Cost^next_ord = Σ_k W·m[k]`` (§6.2, as written in the paper)."""
    pm_next = SubsetKernel(stats).pm_next
    return sum(stats.window * pm_next(mask) for mask in _prefixes(plan.order))


def cost_tree_next(plan: TreePlan, stats: PatternStats) -> float:
    """``Cost^next_tree = Σ_N PM^next(N)`` (§6.2)."""
    pm_next = SubsetKernel(stats).pm_next
    return float(sum(pm_next(node.mask) for node in plan.root.nodes()))


# ---------------------------------------------------------------------------
# Planner-facing objective — §6.1 hybrid, strategy-aware
# ---------------------------------------------------------------------------

STRATEGIES = ("any", "next", "contiguity")


@dataclass
class Objective:
    """``Cost = Cost^trpt + α·Cost^lat`` with strategy-specific Cost^trpt.

    ``strategy`` selects the throughput model: ``"any"`` uses the §4 cost
    functions; ``"next"`` and ``"contiguity"`` use the §6.2 skip-till-next
    model (the paper prescribes it for both). The throughput term is
    normalized by the trivial (pattern-order) plan's cost and the latency
    term by Σ W·r_i, so α ∈ {0, 0.5, 1} spans the paper's Fig 18 range.

    Planners rely on the decomposability helpers: ``prefix_pm(mask)`` /
    ``node_pm(mask)`` are the contributions of a prefix / tree node (both
    throughput models are functions of the member *set* only, read from the
    objective's one :class:`SubsetKernel`), and ``lat_step(mask, t)`` /
    ``lat_combine(a, b)`` are the latency added by placing position ``t``
    after the subset ``mask`` / by joining two subtrees.
    """

    stats: PatternStats
    alpha: float = 0.0
    strategy: str = "any"
    kernel: SubsetKernel = field(init=False, repr=False, compare=False)
    trpt_ref: float = field(init=False)
    lat_ref: float = field(init=False)

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        self.kernel = SubsetKernel(self.stats)
        trivial = OrderPlan(tuple(range(self.stats.n)))
        if self.strategy == "any":
            self.trpt_ref = cost_ord(trivial, self.stats)
        else:
            self.trpt_ref = cost_ord_next(trivial, self.stats)
        self.lat_ref = max(self.stats.total_count(), 1e-300)
        self.trpt_ref = max(self.trpt_ref, 1e-300)

    # -- decomposable pieces ------------------------------------------------
    def prefix_pm(self, mask: int) -> float:
        """Normalized throughput contribution of one subset/prefix/node."""
        if self.strategy == "any":
            return self.kernel.pm(mask) / self.trpt_ref
        return self.stats.window * self.kernel.pm_next(mask) / self.trpt_ref

    def node_pm(self, mask: int) -> float:
        """Normalized throughput contribution of one tree node."""
        if self.strategy == "any":
            return self.kernel.pm(mask) / self.trpt_ref
        return self.kernel.pm_next(mask) / self.trpt_ref

    def lat_step(self, mask: int, t: int) -> float:
        """α-weighted latency added by placing ``t`` after subset ``mask``."""
        last = self.stats.last_seq_position
        if self.alpha == 0.0 or last is None or t == last:
            return 0.0
        if mask >> last & 1:
            return self.alpha * self.stats.counts[t] / self.lat_ref
        return 0.0

    def lat_combine(self, mask_a: int, mask_b: int) -> float:
        """α-weighted latency added by a tree node joining two subtrees.

        When T_n sits in one subtree, the completion cascade scans the
        sibling subtree's buffered partial matches (§6.1): PM(sibling).
        """
        last = self.stats.last_seq_position
        if self.alpha == 0.0 or last is None:
            return 0.0
        bit = 1 << last
        if mask_a & bit:
            sib = mask_b
        elif mask_b & bit:
            sib = mask_a
        else:
            return 0.0
        return self.alpha * self.kernel.pm(sib) / self.lat_ref

    # -- whole-plan evaluation ------------------------------------------------
    def order_cost(self, plan: OrderPlan) -> float:
        """Σ over the plan's prefixes of ``prefix_pm`` plus ``lat_step``."""
        total = 0.0
        mask = 0
        for t in plan.order:
            total += self.lat_step(mask, t)
            mask |= 1 << t
            total += self.prefix_pm(mask)
        return total

    def tree_cost(self, plan: TreePlan) -> float:
        total = 0.0
        for node in plan.root.nodes():
            total += self.node_pm(node.mask)
            if not node.is_leaf():
                total += self.lat_combine(node.left.mask, node.right.mask)
        return total

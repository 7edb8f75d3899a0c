"""Order-based plan generation algorithms (paper §7.1).

CEP-native baselines:

- :func:`trivial` — the pattern's own order (SASE [50], Cayuga [18]).
- :func:`efreq` — ascending arrival frequency (PB-CED [6], Lazy NFA [29]).

JQPG methods adapted to CPG:

- :func:`greedy` — Swami's greedy heuristic [47]: repeatedly append the
  event type minimizing the cost increment.
- :func:`ii_random` / :func:`ii_greedy` — Iterative Improvement [47]:
  local search over *swap* and *cycle* moves from a random / greedy start.
- :func:`dp_ld` — Selinger-style dynamic programming over subsets [45],
  provably optimal among left-deep plans (cross products allowed).

Every algorithm minimizes a :class:`repro.core.cost_model.Objective`, so
the hybrid latency model (§6.1) and the selection-strategy models (§6.2)
come for free; every subset PM it reads comes from the objective's one
memoized :class:`repro.core.cost_model.SubsetKernel`.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

from .cost_model import Objective
from .plans import OrderPlan


@dataclass(frozen=True)
class PlanResult:
    """A generated plan plus its objective cost and generation time."""

    plan: OrderPlan
    cost: float
    gen_seconds: float


def _result(obj: Objective, order: tuple[int, ...], t0: float) -> PlanResult:
    plan = OrderPlan(order)
    return PlanResult(plan, obj.order_cost(plan), time.perf_counter() - t0)


def trivial(obj: Objective) -> PlanResult:
    """The initial pattern order — no optimization."""
    t0 = time.perf_counter()
    return _result(obj, tuple(range(obj.stats.n)), t0)


def efreq(obj: Objective) -> PlanResult:
    """Ascending order of arrival frequency (W·r_i), ties by position."""
    t0 = time.perf_counter()
    n = obj.stats.n
    order = tuple(sorted(range(n), key=lambda i: (obj.stats.counts[i], i)))
    return _result(obj, order, t0)


def greedy(obj: Objective) -> PlanResult:
    """Greedy cost-based ordering [47].

    At each step appends the remaining position that minimizes the added
    cost (the new prefix's expected partial matches plus its latency
    contribution).
    """
    t0 = time.perf_counter()
    n = obj.stats.n
    remaining = set(range(n))
    order: list[int] = []
    mask = 0
    while remaining:
        best_t, best_c = None, math.inf
        for t in sorted(remaining):
            c = obj.prefix_pm(mask | 1 << t) + obj.lat_step(mask, t)
            if c < best_c:
                best_t, best_c = t, c
        order.append(best_t)
        remaining.remove(best_t)
        mask |= 1 << best_t
    return _result(obj, tuple(order), t0)


def _neighbours(order: tuple[int, ...]):
    """Swap and cycle moves of Iterative Improvement [47]."""
    n = len(order)
    lst = list(order)
    for i in range(n):
        for j in range(i + 1, n):
            nb = lst.copy()
            nb[i], nb[j] = nb[j], nb[i]
            yield tuple(nb)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                nb = lst.copy()
                nb[i], nb[j], nb[k] = nb[k], nb[i], nb[j]
                yield tuple(nb)
                nb2 = lst.copy()
                nb2[i], nb2[j], nb2[k] = nb2[j], nb2[k], nb2[i]
                yield tuple(nb2)


def _descend(obj: Objective, order: tuple[int, ...]) -> tuple[tuple[int, ...], float]:
    """Steepest-descent local search until a local minimum."""
    cost = obj.order_cost(OrderPlan(order))
    while True:
        best_nb, best_c = None, cost
        for nb in _neighbours(order):
            c = obj.order_cost(OrderPlan(nb))
            if c < best_c - 1e-300 and c < best_c * (1 - 1e-12):
                best_nb, best_c = nb, c
        if best_nb is None:
            return order, cost
        order, cost = best_nb, best_c


def ii_random(obj: Objective, seed: int = 0) -> PlanResult:
    """Iterative Improvement from a random initial order (II-RANDOM)."""
    t0 = time.perf_counter()
    order = list(range(obj.stats.n))
    random.Random(seed).shuffle(order)
    order, cost = _descend(obj, tuple(order))
    return PlanResult(OrderPlan(order), cost, time.perf_counter() - t0)


def ii_greedy(obj: Objective) -> PlanResult:
    """Iterative Improvement from the greedy order (II-GREEDY)."""
    t0 = time.perf_counter()
    start = greedy(obj).plan.order
    order, cost = _descend(obj, start)
    return PlanResult(OrderPlan(order), cost, time.perf_counter() - t0)


def dp_ld(obj: Objective) -> PlanResult:
    """Optimal left-deep plan via dynamic programming over subsets [45].

    ``cost[S] = pm(S) + min_{t∈S} (cost[S∖t] + lat_step(S∖t, t))`` — valid
    because both throughput models depend on the member *set* only, and
    the latency term decomposes over placements after T_n (see
    DESIGN.md). O(2ⁿ·n) time and space, so n is capped at 24.
    """
    t0 = time.perf_counter()
    n = obj.stats.n
    if n > 24:
        raise ValueError(f"DP-LD over 2^{n} subsets is infeasible")
    size = 1 << n
    cost = [math.inf] * size
    choice = [-1] * size
    cost[0] = 0.0
    for mask in range(1, size):
        pm = obj.prefix_pm(mask)
        best, best_t = math.inf, -1
        m = mask
        while m:
            t = (m & -m).bit_length() - 1
            m ^= 1 << t
            prev = mask ^ (1 << t)
            c = cost[prev] + obj.lat_step(prev, t)
            if c < best:
                best, best_t = c, t
        cost[mask] = best + pm
        choice[mask] = best_t
    order: list[int] = []
    mask = size - 1
    while mask:
        t = choice[mask]
        order.append(t)
        mask ^= 1 << t
    order.reverse()
    plan = OrderPlan(tuple(order))
    return PlanResult(plan, cost[size - 1], time.perf_counter() - t0)


ORDER_ALGORITHMS = {
    "TRIVIAL": trivial,
    "EFREQ": efreq,
    "GREEDY": greedy,
    "II-RANDOM": ii_random,
    "II-GREEDY": ii_greedy,
    "DP-LD": dp_ld,
}

"""The benchmark workloads: their inputs, drawn from the seed, and calls.

A call is one pattern x planner (x selection strategy): ``plan_pattern``
and, on the engine workloads, one engine run. A pass is the fixed,
seed-drawn list of calls a workload repeats while it is timed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.pattern import Op, Pattern
from repro.experiments.tables import ExperimentConfig
from repro.streams.estimation import StreamStatistics
from repro.streams.stock import StreamConfig
from repro.workloads.generator import make_pattern

# All nine planners by plan kind, in a fixed order so a seed always draws
# the same ones. Each slot of a pass fixes the kind (order plans and tree
# plans issue different numbers of Spark jobs) and the seed picks the
# planner within it.
PLANNERS = {
    "order": ("TRIVIAL", "EFREQ", "GREEDY", "II-RANDOM", "II-GREEDY", "DP-LD"),
    "tree": ("ZSTREAM", "ZSTREAM-ORD", "DP-B"),
}
ALGORITHMS = PLANNERS["order"] + PLANNERS["tree"]
STRATEGIES = ("any", "next", "contiguity")

# The benchmark stream of the table harnesses: 14 symbols, 40 windows.
BENCH_STREAM = StreamConfig(
    n_symbols=14, duration=2400.0, window=60.0, rate_min=0.05, rate_max=0.7,
    diff_mu_spread=1.2, seed=7,
)
# The Table 4 planner stream: 24 symbols, enough for n = 16 distinct types.
PLAN_STREAM = StreamConfig(n_symbols=24)

PLAN_SIZES = range(10, 17)
PLAN_PER_SIZE = 4
PLAN_ALGORITHMS = ("EFREQ", "GREEDY", "II-GREEDY", "DP-LD", "ZSTREAM", "DP-B")

LIGHT_SLOTS = (
    ("sequence", 3, "order"), ("sequence", 5, "tree"),
    ("negation", 3, "order"), ("negation", 4, "tree"),
    ("kleene", 3, "order"), ("kleene", 4, "tree"),
    ("disjunction", 3, "tree"),
)
EVENT_SIZES = (3, 4, 3, 4)


@dataclass(frozen=True)
class Call:
    slot: int
    pattern_key: int
    category: str
    pattern: Pattern
    algorithm: str
    strategy: str

    @property
    def size(self) -> int:
        return self.pattern.size


def rates_of(pattern: Pattern, stats: StreamStatistics) -> dict[str, float]:
    subs = pattern.subpatterns if pattern.op is Op.OR else (pattern,)
    return {t: stats.rates[t] for sp in subs for t in sp.types}


def _plan_large(stats, window, seed) -> list[Call]:
    skip = ExperimentConfig().skip
    sizes = [n for n in PLAN_SIZES for _ in range(PLAN_PER_SIZE)]
    calls = []
    for key, n in enumerate(sizes):
        p = make_pattern("sequence", n, stats, window, seed * 10_000 + key)
        for alg in PLAN_ALGORITHMS:
            if not skip(alg, n):
                calls.append(Call(len(calls), key, "sequence", p, alg, "any"))
    return calls


def _pick(rng: np.random.Generator, kind: str) -> str:
    return str(rng.choice(PLANNERS[kind]))


def _join_light(stats, window, seed) -> list[Call]:
    rng = np.random.default_rng(seed)
    return [
        Call(i, i, cat, make_pattern(cat, n, stats, window, seed * 10_000 + i),
             _pick(rng, kind), "any")
        for i, (cat, n, kind) in enumerate(LIGHT_SLOTS)
    ]


def _event_strategies(stats, window, seed) -> list[Call]:
    """Each pattern under every strategy; plan kinds alternate by slot."""
    rng = np.random.default_rng(seed)
    calls = []
    for key, n in enumerate(EVENT_SIZES):
        p = make_pattern("sequence", n, stats, window, seed * 10_000 + key)
        for strategy in STRATEGIES:
            kind = ("order", "tree")[len(calls) % 2]
            calls.append(Call(len(calls), key, "sequence", p, _pick(rng, kind), strategy))
    return calls


@dataclass(frozen=True)
class Workload:
    """A named pass builder over one stream; BENCHMARK.json says why each."""

    name: str
    engine: str  # "plan", "join" or "event"
    stream: StreamConfig

    def make_calls(self, stats: StreamStatistics, seed: int) -> list[Call]:
        make = {"plan": _plan_large, "join": _join_light, "event": _event_strategies}
        return make[self.engine](stats, self.stream.window, seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("plan-large", "plan", PLAN_STREAM),
        Workload("join-light", "join", BENCH_STREAM),
        Workload("event-strategies", "event", BENCH_STREAM),
    )
}

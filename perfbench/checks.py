"""Output checks, run after the timed region.

Engine counts are compared with DuckDB evaluating the same pattern as a
multi-way self-join (``tests.cep_sql.pattern_sql``): a Kleene position is
folded as sum(2^m - 1) over the groups of its non-Kleene partners, and the
subpatterns of a disjunction are summed. ``next`` has no SQL form, so its
count must not exceed the ``any`` count and must repeat exactly in every
pass. Plans must cover every position, repeat exactly in every pass, and
the exhaustive planners (DP-LD, DP-B) must be no costlier than any other
planner of their kind on the same pattern.
"""
from __future__ import annotations

import duckdb
import pandas as pd

from repro.core.pattern import Op, Pattern
from tests.cep_sql import pattern_sql

OPTIMAL = {"order": "DP-LD", "tree": "DP-B"}
REL_TOL = 1e-9


class Oracle:
    """Expected match counts from DuckDB, computed once per pattern."""

    def __init__(self, events: pd.DataFrame):
        self.con = duckdb.connect()
        self.con.register("ev", events)
        self._cache: dict[tuple[int, str], int] = {}

    def close(self) -> None:
        self.con.close()

    def count(self, key: int, pattern: Pattern, strategy: str) -> int:
        if (key, strategy) not in self._cache:
            subs = pattern.subpatterns if pattern.op is Op.OR else (pattern,)
            self._cache[key, strategy] = sum(self._simple(sp, strategy) for sp in subs)
        return self._cache[key, strategy]

    def _simple(self, pattern: Pattern, strategy: str) -> int:
        sql = pattern_sql(pattern, strategy=strategy)
        if not pattern.kleene:
            return int(self.con.execute(f"SELECT count(*) FROM ({sql})").fetchone()[0])
        (k,) = sorted(pattern.kleene)
        ids = ", ".join(f"p{i}_id" for i in pattern.positive() if i != k)
        rows = self.con.execute(f"SELECT count(*) FROM ({sql}) GROUP BY {ids}").fetchall()
        return sum(2 ** int(m) - 1 for (m,) in rows)


def check(engine: str, results: list[dict], events: pd.DataFrame) -> None:
    """Set ``ok`` and ``why`` on every result. A call that raised fails."""
    for r in results:
        r["ok"], r["why"] = "error" not in r, r.get("error", "")
    done = [r for r in results if r["ok"]]
    if engine == "plan":
        _check_plans(done)
        return
    oracle = Oracle(events)
    try:
        _check_counts(done, oracle)
    finally:
        oracle.close()


def _fail(r: dict, why: str) -> None:
    r["ok"] = False
    r["why"] = why


def _check_counts(results: list[dict], oracle: Oracle) -> None:
    next_counts: dict[int, set[int]] = {}
    for r in results:
        if r["strategy"] == "next":
            next_counts.setdefault(r["slot"], set()).add(r["count"])
    for r in results:
        if r["strategy"] == "next":
            bound = oracle.count(r["pattern_key"], r["pattern"], "any")
            if r["count"] > bound or len(next_counts[r["slot"]]) > 1:
                _fail(r, f"next count {r['count']} vs any {bound}, "
                         f"counts over passes {sorted(next_counts[r['slot']])}")
        else:
            want = oracle.count(r["pattern_key"], r["pattern"], r["strategy"])
            if r["count"] != want:
                _fail(r, f"count {r['count']} vs oracle {want}")


def _covers(pp) -> bool:
    plan = pp.order_plan.order if pp.order_plan else pp.tree_plan.root.leaves_in_order()
    return sorted(plan) == list(range(pp.stats.n))


def _check_plans(results: list[dict]) -> None:
    costs: dict[int, set[float]] = {}
    best: dict[tuple[int, str], float] = {}
    for r in results:
        (pp,) = r["planned"]
        costs.setdefault(r["slot"], set()).add(pp.objective_cost)
        if r["algorithm"] == OPTIMAL[pp.kind]:
            best[r["pattern_key"], pp.kind] = pp.objective_cost
    for r in results:
        (pp,) = r["planned"]
        opt = best.get((r["pattern_key"], pp.kind))
        if not _covers(pp):
            _fail(r, "plan does not cover every position")
        elif len(costs[r["slot"]]) > 1:
            _fail(r, f"plan cost differs between passes: {sorted(costs[r['slot']])}")
        elif opt is not None and opt > pp.objective_cost * (1 + REL_TOL):
            _fail(r, f"{OPTIMAL[pp.kind]} cost {opt} above {r['algorithm']} cost {pp.objective_cost}")

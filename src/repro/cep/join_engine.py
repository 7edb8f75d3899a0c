"""CEP plan execution as Spark DataFrame window-join dataflows.

This is the reproduction's primary evaluation mechanism (DESIGN.md §2).
One recursive compiler turns every plan into a tree of window joins:

- a **tree-based plan** runs as its bushy join tree — ZStream's instance
  buffers materialized as per-node DataFrames (§4.2);
- an **order-based plan** runs as its left-deep tree
  ``plans.left_deep_tree(order)`` (Theorem 1: Cost_ord(O) =
  Cost_LDJ(L_O)), whose k-th join *is* the set of partial matches of
  length k of the lazy NFA (§4.1).

Detection semantics (DESIGN.md §3): matches are event combinations
sharing a tumbling window id, every pattern predicate (declared, implied
temporal order for SEQ, §6.2 contiguity adjacency) is attached at the
earliest join where both operands are bound, negated events become
left-anti joins at the earliest node that binds their dependencies
(§5.3), and a Kleene position is joined event-at-a-time with a final
power-set aggregation (Σ(2^m − 1) logical matches, instance-shared as
in [52]).

Every join (and every leaf an anti-join filtered) is counted — those
counts are the paper's "number of partial matches" and feed the memory
proxy; an unfiltered leaf's size is its type's measured event count.
Wall-clock time over the whole dataflow gives throughput. Only the §6.1
latency surrogate depends on the plan kind.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

from pyspark.sql import Column, DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.pattern import Op, Pattern, Predicate
from repro.core.planner import PlannedPattern
from repro.core.plans import TreeNode, left_deep_tree
from repro.core.transformations import negation_dependencies
from .metrics import ExecutionMetrics

# Per-window joins and streaming state stores are tiny; a session-wide
# partition count would spend most of each stage on empty tasks.
SHUFFLE_PARTITIONS = 8


@dataclass
class JoinExecution:
    """Result of executing one simple pattern: matches + metrics.

    ``matches`` has one column ``p{i}_id`` per positive non-Kleene pattern
    position (event ids) plus ``kl_ids`` (array) when a Kleene position
    exists. Logical match counts fold the Kleene power set analytically.
    """

    matches: DataFrame
    metrics: ExecutionMetrics


@contextmanager
def _engine_conf(spark: SparkSession):
    """Scope :data:`SHUFFLE_PARTITIONS` to the tiny per-window joins."""
    key = "spark.sql.shuffle.partitions"
    old = spark.conf.get(key)
    spark.conf.set(key, str(SHUFFLE_PARTITIONS))
    try:
        yield
    finally:
        spark.conf.set(key, old)


def _position_df(events: DataFrame, pattern: Pattern, i: int, prefix: str = "p") -> DataFrame:
    """Events of position ``i``'s type, columns renamed ``{prefix}{i}_*``."""
    e = events.filter(F.col("symbol") == pattern.types[i])
    return e.select(
        F.col("wid").alias(f"{prefix}{i}_wid"),
        F.col("event_id").alias(f"{prefix}{i}_id"),
        F.col("ts").alias(f"{prefix}{i}_ts"),
        F.col("serial").alias(f"{prefix}{i}_serial"),
        F.col("diff").alias(f"{prefix}{i}_diff"),
    )


def _pred_expr(q: Predicate, li: str, lj: str) -> Column:
    """The executable Spark expression of predicate ``q`` between the
    column prefixes bound at positions ``q.i`` (→ ``li``) and ``q.j``
    (→ ``lj``)."""
    if q.kind == "diff_lt":
        return F.col(f"{li}_diff") < F.col(f"{lj}_diff")
    if q.kind == "diff_gt":
        return F.col(f"{li}_diff") > F.col(f"{lj}_diff")
    if q.kind == "ts_lt":
        return F.col(f"{li}_ts") < F.col(f"{lj}_ts")
    if q.kind == "serial_adj":
        return F.col(f"{lj}_serial") == F.col(f"{li}_serial") + 1
    return F.lit(True)


def _cross_conditions(
    pattern: Pattern,
    left_positions: set[int],
    right_positions: set[int],
    strategy: str,
) -> list[Column]:
    """All predicate expressions spanning two disjoint bound position sets.

    Includes declared predicates, the implied temporal total order for SEQ
    patterns (what the lazy NFA / ZStream actually check — DESIGN.md §3),
    a distinct-event guard for duplicate types, and — under the
    ``contiguity`` strategy — serial adjacency between pattern-adjacent
    positive positions.
    """
    conds: list[Column] = []
    for q in pattern.predicates:
        if q.i == q.j:
            continue
        if (q.i in left_positions and q.j in right_positions) or (
            q.j in left_positions and q.i in right_positions
        ):
            conds.append(_pred_expr(q, f"p{q.i}", f"p{q.j}"))
    positives = set(pattern.positive())
    for a in sorted(left_positions & positives):
        for b in sorted(right_positions & positives):
            lo, hi = min(a, b), max(a, b)
            if pattern.op is Op.SEQ:
                conds.append(F.col(f"p{lo}_ts") < F.col(f"p{hi}_ts"))
            elif pattern.types[a] == pattern.types[b]:
                conds.append(F.col(f"p{lo}_id") != F.col(f"p{hi}_id"))
    if strategy == "contiguity":
        order = sorted(positives)
        bound = left_positions | right_positions
        for a, b in zip(order, order[1:]):
            spans = (a in left_positions) != (b in left_positions)
            if a in bound and b in bound and spans:
                conds.append(F.col(f"p{b}_serial") == F.col(f"p{a}_serial") + 1)
    return conds


def _apply_negations(
    cur: DataFrame,
    events: DataFrame,
    pattern: Pattern,
    bound: set[int],
    pending: dict[int, frozenset[int]],
    wid: str,
) -> tuple[DataFrame, list[int]]:
    """Left-anti join every negated position whose dependencies are bound.

    ``wid`` names ``cur``'s window-id column. Returns the filtered
    DataFrame and the positions applied (§5.3: the absence check runs at
    the earliest possible point).
    """
    applied = []
    for j, deps in sorted(pending.items()):
        if not deps <= bound:
            continue
        neg = _position_df(events, pattern, j, prefix="n")
        conds = [F.col(f"n{j}_wid") == F.col(wid)]
        if pattern.op is Op.SEQ:
            for i in range(j - 1, -1, -1):
                if i in bound:
                    conds.append(F.col(f"p{i}_ts") < F.col(f"n{j}_ts"))
                    break
            for i in range(j + 1, len(pattern.types)):
                if i in bound:
                    conds.append(F.col(f"n{j}_ts") < F.col(f"p{i}_ts"))
                    break
        for q in pattern.predicates:
            if q.i == j and q.j in bound:
                conds.append(_pred_expr(q, f"n{j}", f"p{q.j}"))
            elif q.j == j and q.i in bound:
                conds.append(_pred_expr(q, f"p{q.i}", f"n{j}"))
        cond = conds[0]
        for c in conds[1:]:
            cond = cond & c
        cur = cur.join(neg, cond, "left_anti")
        applied.append(j)
    for j in applied:
        del pending[j]
    return cur, applied


def _finalize(cur: DataFrame, pattern: Pattern, n_rows: int) -> tuple[DataFrame, int]:
    """Project match ids; fold the Kleene power set analytically.

    ``n_rows`` is ``cur``'s already measured row count. The fold sums
    ``2**m − 1`` as Python ints over a histogram of Kleene group sizes,
    so groups of any size count exactly.
    """
    base = [i for i in pattern.positive() if i not in pattern.kleene]
    id_cols = [f"p{i}_id" for i in base]
    if not pattern.kleene:
        return cur.select(*id_cols), n_rows
    (k,) = pattern.kleene
    grouped = cur.groupBy(*id_cols).agg(
        F.sort_array(F.collect_list(F.col(f"p{k}_id"))).alias("kl_ids"),
        F.count(F.lit(1)).alias("_m"),
    )
    grouped = grouped.persist()
    hist = grouped.groupBy("_m").count().collect()
    n_logical = sum(r["count"] * (2 ** r["_m"] - 1) for r in hist)
    matches = grouped.select(*id_cols, "kl_ids")
    return matches, n_logical


def _measured_window_counts(events: DataFrame) -> tuple[dict[str, float], int, int]:
    """(avg events per window per symbol, n_events, n_windows) — measured."""
    rows = events.groupBy("symbol").count().collect()
    n_events = int(sum(r["count"] for r in rows))
    n_windows = events.select("wid").distinct().count()
    per_window = {r["symbol"]: r["count"] / max(n_windows, 1) for r in rows}
    return per_window, n_events, n_windows


def execute_planned(
    spark: SparkSession,
    events: DataFrame,
    planned: PlannedPattern,
    *,
    strategy: str = "any",
    measured: tuple[dict[str, float], int, int] | None = None,
) -> JoinExecution:
    """Run a plan as a tree of window joins.

    An order plan runs as its left-deep tree, a tree plan as itself.
    ``measured`` optionally carries precomputed
    :func:`_measured_window_counts` output so batch harnesses running many
    plans over one cached stream skip the two measurement actions.
    """
    if strategy not in ("any", "contiguity"):
        raise ValueError(
            "join engine supports 'any' and 'contiguity'; use the event "
            "engine for skip-till-next-match"
        )
    pattern, stats, order_plan = planned.pattern, planned.stats, planned.order_plan
    tree = planned.tree_plan if order_plan is None else left_deep_tree(order_plan.order)
    if tree is None:
        raise ValueError("planned pattern carries no plan")
    pending = dict(negation_dependencies(pattern))
    per_window, n_events, n_windows = measured or _measured_window_counts(events)

    # Rows per node, in post-order; a tree's node masks are distinct.
    node_pm: dict[int, int] = {}
    cached: list[DataFrame] = []

    def build(node: TreeNode) -> tuple[DataFrame, set[int], str]:
        """Returns (df, bound pattern positions, window-id column)."""
        if node.is_leaf():
            i = stats.positions[node.leaf]
            df, bound, wid = _position_df(events, pattern, i), {i}, f"p{i}_wid"
        else:
            ldf, lpos, wid = build(node.left)
            rdf, rpos, rwid = build(node.right)
            cond = F.col(wid) == F.col(rwid)
            for c in _cross_conditions(pattern, lpos, rpos, strategy):
                cond = cond & c
            df, bound = ldf.join(rdf, cond, "inner").drop(rwid), lpos | rpos
        df, applied = _apply_negations(df, events, pattern, bound, pending, wid)
        if node.is_leaf() and not applied:
            # A leaf buffer's size is its type's event count, already
            # measured — no Spark action needed.
            size = per_window.get(pattern.types[i], 0.0) * n_windows
            node_pm[node.mask] = round(size)
        else:
            df = df.persist()
            cached.append(df)
            node_pm[node.mask] = df.count()
        return df, bound, wid

    t0 = time.perf_counter()
    with _engine_conf(spark):
        root_df, _, _ = build(tree.root)
        matches, n_matches = _finalize(root_df, pattern, node_pm[tree.root.mask])
        wall = time.perf_counter() - t0
    for df in cached:
        df.unpersist()

    # §6.1 latency surrogate, as cost_ord_lat / cost_tree_lat model it.
    latency = 0.0
    if pattern.op is Op.SEQ and order_plan is not None:
        # Buffered events of types succeeding T_n in the executed order.
        order = order_plan.order
        after = order[order.index(stats.last_seq_position) + 1 :]
        latency = float(
            sum(per_window.get(pattern.types[stats.positions[k]], 0.0) for k in after)
        )
    elif pattern.op is Op.SEQ:
        # Measured partial matches buffered on the siblings of T_n's
        # ancestors.
        last_bit = 1 << stats.last_seq_position
        node = tree.root
        while not node.is_leaf():
            sib = node.right if node.left.mask & last_bit else node.left
            latency += node_pm[sib.mask]
            node = node.left if node.left.mask & last_bit else node.right
        latency /= max(n_windows, 1)
    metrics = ExecutionMetrics(
        strategy=strategy,
        n_events=n_events,
        n_windows=n_windows,
        intermediate_counts=list(node_pm.values()),
        n_matches=n_matches,
        wall_seconds=wall,
        latency_surrogate=latency,
    )
    return JoinExecution(matches=matches, metrics=metrics)


def execute_pattern(
    spark: SparkSession,
    events: DataFrame,
    planned_list: list[PlannedPattern],
    *,
    strategy: str = "any",
    measured: tuple[dict[str, float], int, int] | None = None,
) -> tuple[list[JoinExecution], ExecutionMetrics]:
    """Execute a (possibly disjunctive) pattern: one run per subplan.

    Subpatterns are detected independently and their metrics merged
    (§5.4); the returned list preserves subpattern order.
    """
    runs = [
        execute_planned(spark, events, pp, strategy=strategy, measured=measured)
        for pp in planned_list
    ]
    merged = runs[0].metrics
    for r in runs[1:]:
        merged = merged.merged_with(r.metrics)
    return runs, merged

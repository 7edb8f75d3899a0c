"""One workload at one seed: set-up, warm-up, calls and their metrics.

Imported by ``run.py`` after it has put the checkout's ``src`` on the path.
"""
from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext

from pyspark import SparkContext
from pyspark.sql import SparkSession

from repro.cep.event_engine import run_metrics
from repro.cep.join_engine import execute_pattern
from repro.core.cost_model import Objective
from repro.core.order_algorithms import ORDER_ALGORITHMS
from repro.core.planner import plan_pattern
from repro.core.plans import left_deep_tree
from repro.core.stats import PatternStats
from repro.streams.estimation import estimate
from repro.streams.stock import stock_events_pdf
from repro.workloads.generator import make_pattern
from tracing import JobCounter, duration, self_times
from workloads import ALGORITHMS, STRATEGIES, Call, rates_of

SETUP_ROUNDS = {"plan": 5, "join": 3, "event": 3}
# How long the reference job of each engine takes on the host the
# benchmark was sized on (4 cores, 15 GB); see ``Bench.reference_s``.
REF_NOMINAL_S = {"plan": 0.005, "join": 0.25, "event": 0.25}
# Warm-up calls (planner, strategy): an order plan and a tree plan, and
# every strategy on the event engine.
WARMUP = {
    "join": (("DP-LD", "any"), ("DP-B", "any")),
    "event": (("DP-LD", "any"), ("DP-B", "next"), ("DP-LD", "contiguity")),
}


class Bench:
    """Owns the Spark session (if any), the inputs and the pass of calls."""

    def __init__(self, workload, seed: int, tracer, spark_settings: dict[str, str]):
        self.wl = workload
        self.seed = seed
        self.tracer = tracer
        self.spark_settings = spark_settings
        self.spark = None
        self.jobs = None

    # -- set-up ---------------------------------------------------------
    def setup(self) -> list[dict]:
        """Set up several times; returns each round's timings.

        The first round starts the JVM; later rounds stop the Spark
        context and start a new one in the same JVM.
        """
        rounds = []
        for r in range(SETUP_ROUNDS[self.wl.engine]):
            with self.tracer.span("setup", round=r):
                rounds.append(self._setup_round())
        if self.spark is not None:
            self.jobs = JobCounter(self.spark.sparkContext)
        return rounds

    def _setup_round(self) -> dict:
        t: dict[str, float] = {}

        def timed(name, fn):
            with self.tracer.span(name):
                t0 = time.perf_counter()
                out = fn()
                t[name + "_s"] = time.perf_counter() - t0
            return out

        if self.wl.engine != "plan":
            self._stop_spark()
            self.spark = timed("spark.session", self._start_spark)
        pdf = timed("streams.generate", lambda: stock_events_pdf(self.wl.stream))
        self.stats = timed(
            "streams.estimate",
            lambda: estimate(pdf, self.wl.stream.duration, seed=self.seed),
        )
        self.pdf = pdf
        if self.wl.engine != "plan":
            timed("spark.load", self._load)
        self.calls = timed("workloads.make", lambda: self.wl.make_calls(self.stats, self.seed))
        t["setup_s"] = sum(t.values())
        return t

    def _start_spark(self) -> SparkSession:
        b = SparkSession.builder
        for k, v in self.spark_settings.items():
            b = b.config(k, v)
        spark = b.getOrCreate()
        spark.sparkContext.setLogLevel("ERROR")
        return spark

    def _load(self) -> None:
        """The event table, cached, plus the per-window type counts the
        join engine accepts precomputed (as the table harnesses do)."""
        pdf = self.pdf
        self.events = self.spark.createDataFrame(pdf).persist()
        self.events.count()
        n_windows = int(pdf["wid"].nunique())
        per_window = {s: c / n_windows for s, c in pdf["symbol"].value_counts().items()}
        self.measured = (per_window, len(pdf), n_windows)

    def _stop_spark(self) -> None:
        if self.spark is not None:
            self.spark.stop()
            self.spark = None

    def close(self) -> None:
        """Stop Spark and wait for its JVM to exit."""
        self._stop_spark()
        gateway = SparkContext._gateway
        if gateway is None:
            return
        proc = getattr(gateway, "proc", None)
        gateway.shutdown()
        SparkContext._gateway = SparkContext._jvm = None
        if proc is not None:
            proc.stdin.close()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    # -- calls ----------------------------------------------------------
    def warm_up(self) -> None:
        """Untimed calls and one reference job, so JIT and Python-worker
        start-up (paid once per process) stay out of the timed region."""
        for _ in range(3):
            self.reference_s()
        if self.wl.engine == "plan":
            for c in self.calls:
                if c.pattern_key == 0:
                    self.call(c, 0)
            return
        p = make_pattern("sequence", 3, self.stats, self.wl.stream.window, 0)
        for alg, strategy in WARMUP[self.wl.engine]:
            self.call(Call(-1, -1, "sequence", p, alg, strategy), 0)

    def call(self, c: Call, pass_no: int) -> dict:
        """One pattern x planner: plan, then run the engine. A call that
        raises is recorded with its error, never re-raised."""
        tr = self.tracer
        group = f"perfbench-{pass_no}-{c.slot}"
        res = {"slot": c.slot, "pass": pass_no, "pattern_key": c.pattern_key,
               "pattern": c.pattern, "algorithm": c.algorithm, "strategy": c.strategy,
               "category": c.category, "size": c.size, "planned": None}
        t0 = time.perf_counter()
        try:
            with tr.span("call", call=c.slot):
                with tr.span("planner.plan", call=c.slot, algorithm=c.algorithm):
                    planned = plan_pattern(
                        c.pattern, rates_of(c.pattern, self.stats), c.algorithm,
                        strategy="any" if c.strategy == "any" else "next", seed=self.seed,
                    )
                res["planned"] = planned
                res["kind"] = planned[0].kind
                if self.wl.engine == "join":
                    with self._job_group(group), tr.span("join.exec", call=c.slot, kind=res["kind"]):
                        _, m = execute_pattern(
                            self.spark, self.events, planned, strategy=c.strategy,
                            measured=self.measured,
                        )
                elif self.wl.engine == "event":
                    pp = planned[0]
                    with self._job_group(group), tr.span("event.exec", call=c.slot, strategy=c.strategy):
                        rows, m = run_metrics(
                            self.spark, self.events, c.pattern,
                            pp.order_plan or pp.tree_plan, strategy=c.strategy,
                        )
                    res["comparisons"] = int(rows["comparisons"].sum())
            res["wall_s"] = time.perf_counter() - t0
            res["gen_s"] = sum(pp.gen_seconds for pp in planned)
            if self.wl.engine != "plan":
                res["count"] = m.n_matches
                res["pm_rows"] = m.memory_proxy
            if tr.enabled and self.jobs is not None:
                res["jobs"], res["tasks"] = self.jobs.count(group)
        except Exception as e:  # a failed call is counted, not fatal
            res["error"] = f"{type(e).__name__}: {e}".splitlines()[0][:300]
            traceback.print_exc(file=sys.stderr)
        return res

    def _job_group(self, group: str):
        if self.tracer.enabled and self.jobs is not None:
            return self.jobs.group(group)
        return nullcontext()

    def timed(self, seconds: float) -> tuple[list[dict], list[float]]:
        """Repeat the pass until ``seconds`` have passed. No call starts
        after the deadline, but the first pass always completes, so the
        checks see every call at least once. The reference job is timed
        before every call."""
        out, refs = [], []
        deadline = time.perf_counter() + seconds
        i = 0
        while True:
            pass_no, slot = divmod(i, len(self.calls))
            if pass_no >= 1 and time.perf_counter() >= deadline:
                return out, refs
            refs.append(self.reference_s())
            out.append(self.call(self.calls[slot], pass_no))
            i += 1

    def reference_s(self) -> float:
        """Seconds for a fixed job that runs none of the program's code: a
        Python loop (planner) or a small Spark shuffle job (engines). It
        measures how fast the host runs right now; the shared host drifts
        by 20 % and more over minutes, moving every call time with it."""
        t0 = time.perf_counter()
        if self.wl.engine == "plan":
            sum(i * i for i in range(50_000))
        else:
            self.spark.range(0, 100_000, 1, 8).selectExpr("id % 40 AS k").groupBy("k").count().collect()
        return time.perf_counter() - t0

    def traced(self) -> tuple[list[dict], list[dict]]:
        """The pass twice, untraced and traced, alternating per call which
        goes first so that warming favours neither."""
        plain, traced = [], []
        for c in self.calls:
            for on in ((False, True) if c.slot % 2 == 0 else (True, False)):
                self.tracer.enabled = on
                (traced if on else plain).append(self.call(c, int(on)))
        return plain, traced


# -- metrics --------------------------------------------------------------
def _p90(values: list[float]) -> float:
    values = sorted(values)
    return values[math.ceil(0.9 * len(values)) - 1]


def cost_gain(results: list[dict], stats) -> float:
    """Geometric mean of the EFREQ plan's cost over the chosen plan's cost
    under the same objective (Table 4's normalised cost). Tree plans are
    compared with EFREQ's order as a left-deep tree, as Table 4 does."""
    logs = []
    for r in results:
        ref = cost = 0.0
        rates = rates_of(r["pattern"], stats)
        for pp in r["planned"]:
            obj = Objective(
                PatternStats.from_pattern(pp.pattern, rates),
                strategy="any" if r["strategy"] == "any" else "next",
            )
            base = ORDER_ALGORITHMS["EFREQ"](obj)
            if pp.kind == "order":
                ref += base.cost
            else:
                ref += obj.tree_cost(left_deep_tree(base.plan.order))
            cost += pp.objective_cost
        logs.append(math.log(ref / max(cost, 1e-300)))
    return math.exp(statistics.fmean(logs)) if logs else 1.0


def slot_gmean_s(results: list[dict]) -> float:
    """Geometric mean over the pass's slots of one call's mean wall time.
    Each slot weighs the same however many passes reached it, so a
    partial last pass does not shift the mix."""
    per_slot: dict[int, list[float]] = {}
    for r in results:
        if "error" not in r:
            per_slot.setdefault(r["slot"], []).append(r["wall_s"])
    return statistics.geometric_mean([statistics.fmean(v) for v in per_slot.values()])


def end_to_end(engine: str, setup_rounds: list[dict], results: list[dict],
               refs: list[float]) -> dict:
    """Set-up median, and the slot geometric mean of call wall time scaled
    to the nominal host speed by the reference job: raw x nominal /
    median measured."""
    scale = REF_NOMINAL_S[engine] / statistics.median(refs)
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in setup_rounds), "s"),
        "call_gmean_ms": (1e3 * slot_gmean_s(results) * scale, "ms"),
    }


def per_layer(bench: Bench, setup_rounds, plain, traced, spans) -> dict:
    """Per-pass layer totals from the traced pass; set-up metrics are
    medians over the set-up rounds."""
    m = {
        k: (statistics.median(r.get(k, 0.0) for r in setup_rounds), "s")
        for k in ("streams.generate_s", "streams.estimate_s", "spark.session_s",
                  "spark.load_s", "workloads.make_s")
    }
    m["setup.cold_s"] = (setup_rounds[0]["setup_s"], "s")
    ok = [r for r in traced if "error" not in r]
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total(name, **match):
        return sum(
            duration(s) for s in by_name.get(name, [])
            if all(s[k] == v for k, v in match.items())
        )

    plan_s = total("planner.plan")
    gen_s = sum(r["gen_s"] for r in ok)
    m["planner.plan_s"] = (plan_s, "s")
    for alg in ALGORITHMS:
        m[f"planner.plan_s.{alg}"] = (total("planner.plan", algorithm=alg), "s")
    m["planner.gen_s"] = (gen_s, "s")
    m["planner.overhead_s"] = (plan_s - gen_s, "s")
    plan_ms = [1e3 * duration(s) for s in by_name.get("planner.plan", [])] or [0.0]
    m["planner.plan_p50_ms"] = (statistics.median(plan_ms), "ms")
    m["planner.plan_p90_ms"] = (_p90(plan_ms), "ms")
    m["planner.cost_gain"] = (cost_gain(ok, bench.stats), "ratio")

    join_s = total("join.exec")
    join = [r for r in ok if bench.wl.engine == "join"]
    jobs = sum(r["jobs"] for r in join)
    rows = sum(r["pm_rows"] for r in join)
    m["join.exec_s"] = (join_s, "s")
    for kind in ("order", "tree"):
        m[f"join.exec_s.{kind}"] = (total("join.exec", kind=kind), "s")
    m["join.spark_jobs"] = (jobs, "count")
    m["join.spark_tasks"] = (sum(r["tasks"] for r in join), "count")
    m["join.s_per_job"] = (join_s / jobs if jobs else 0.0, "s")
    m["join.pm_rows"] = (rows, "rows")
    m["join.rows_per_s"] = (rows / join_s if join_s else 0.0, "rows/s")

    event = [r for r in ok if bench.wl.engine == "event"]
    m["event.exec_s"] = (total("event.exec"), "s")
    for st in STRATEGIES:
        m[f"event.exec_s.{st}"] = (total("event.exec", strategy=st), "s")
    m["event.spark_jobs"] = (sum(r["jobs"] for r in event), "count")
    m["event.comparisons"] = (sum(r["comparisons"] for r in event), "count")
    m["event.peak_partials"] = (sum(r["pm_rows"] for r in event), "rows")

    w_plain = sum(r["wall_s"] for r in plain if "error" not in r)
    w_traced = total("call")
    selfs = self_times(spans)
    unaccounted = sum(x for x, s in zip(selfs, spans) if s["name"] == "call")
    m["trace.overhead_frac"] = (w_traced / w_plain - 1.0, "ratio")
    m["trace.unaccounted_frac"] = (unaccounted / w_traced, "ratio")
    return m

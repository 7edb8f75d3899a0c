"""Repository benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload join-light --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The benchmark imports the program from
that checkout's ``src/``, makes its inputs from ``--seed``, sets up
several times and reports the median, warms up, then repeats the
workload's pass of calls for ``--seconds``. Outputs are checked after the
timed region. ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs the pass once untraced and once traced and prints the per-layer
metrics. Scratch files go under ``.bench_build/perfbench`` in the
checkout. See ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"
CORES = min(4, len(os.sched_getaffinity(0)))


def spark_settings() -> dict[str, str]:
    """Every Spark setting the results depend on, pinned."""
    return {
        "spark.master": f"local[{CORES}]",
        "spark.app.name": "perfbench",
        "spark.driver.memory": "3g",
        "spark.driver.host": "127.0.0.1",
        "spark.driver.extraJavaOptions": f"-Djava.io.tmpdir={WORK / 'tmp'} -XX:-UsePerfData",
        "spark.local.dir": str(WORK / "spark-local"),
        "spark.sql.warehouse.dir": str(WORK / "warehouse"),
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        "spark.sql.shuffle.partitions": "8",
        "spark.sql.adaptive.enabled": "true",
        "spark.sql.autoBroadcastJoinThreshold": "-1",
        "spark.sql.execution.arrow.pyspark.enabled": "true",
    }


def bootstrap() -> None:
    """Make the checkout's ``src`` importable here and in Python workers."""
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "tests" / "cep_sql.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {ROOT}")
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    paths = [str(ROOT / "src"), str(ROOT)]
    sys.path[:0] = paths
    os.environ["PYTHONPATH"] = os.pathsep.join(
        paths + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(WORK / "tmp")
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {ROOT / 'src'}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    bootstrap()
    from bench import Bench, end_to_end, per_layer, slot_gmean_s
    from checks import check
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    tracer = Tracer(bool(args.trace))
    bench = Bench(wl, args.seed, tracer, spark_settings())
    t_start = time.perf_counter()
    try:
        setup_rounds = bench.setup()
        tracer.enabled = False
        bench.warm_up()
        if args.trace:
            plain, results = bench.traced()
            checked = plain + results
        else:
            results, refs = bench.timed(args.seconds)
            checked = results
        settings = {k: bench.spark.conf.get(k) for k in spark_settings()} if bench.spark else {}
    finally:
        bench.close()
    t_checks = time.perf_counter()
    check(wl.engine, checked, bench.pdf)
    failed = [r for r in checked if not r["ok"]]
    for r in failed:
        print(f"perfbench: FAILED {r['category']} n={r['size']} {r['algorithm']} "
              f"{r['strategy']}: {r['why']}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(bench, setup_rounds, plain, results, tracer.spans)
    else:
        metrics = end_to_end(wl.engine, setup_rounds, results, refs)
    n_events = len(bench.pdf)
    walls = [r["wall_s"] for r in results if "error" not in r]
    info = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cores": CORES, "settings": settings,
        "events": n_events, "windows": int(bench.pdf["wid"].nunique()),
        "symbols": wl.stream.n_symbols,
        "patterns": len({c.pattern_key for c in bench.calls}),
        "calls_per_pass": len(bench.calls), "calls_timed": len(results),
        "failed_frac": len(failed) / len(checked),
        "events_per_s": n_events * len(walls) / sum(walls) if wl.engine != "plan" and walls else None,
        "reference_s": None if args.trace else refs,
        "call_gmean_raw_ms": 1e3 * slot_gmean_s(results) if walls else None,
        "check_s": time.perf_counter() - t_checks,
        "run_s": time.perf_counter() - t_start,
    }
    tracer.dump(
        WORK / f"{wl.name}-seed{args.seed}-trace{args.trace}.json",
        info=info, metrics=metrics,
        calls=[{k: v for k, v in r.items() if k not in ("pattern", "planned")} for r in checked],
    )
    print("perfbench info " + json.dumps(info))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checked),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

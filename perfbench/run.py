"""Repository benchmark: query latency of the write-ahead-lineage engine.

Run from the root of a checkout::

    python3 perfbench/run.py --workload joins-16w --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all       # every workload, one process

Workloads are defined in ``workloads.py``; the metric names, units and
regression bounds in ``BENCHMARK.json`` at the root. The engine has two
clocks and both are reported: real wall-clock seconds of this Python
program (``pass_wall_s``, ``setup_s``) and the modelled cluster's
simulated seconds from ``engine/simtime.py`` (``sim_s``,
``sim_recovery_x``), which are deterministic for a given seed.

``--trace 0`` times untraced passes and reports the end-to-end metrics.
``--trace 1`` spends half of ``--seconds`` on untraced passes and half on
passes with every layer wrapped (see ``tracing.py``), and reports the
per-layer metrics and the tracing overhead between the two. Each query
run is checked against the DuckDB oracle after the timed passes; repeated
passes must repeat bit for bit. Human-readable output comes first; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A full report (environment, per-pass detail,
failures) and, when traced, the spans are written under
``perfbench/out/``.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: Data sets built per run; ``setup_s`` takes their median.
SETUP_REPEATS = 3


def parse_args(workload_names: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=workload_names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--test-scale", action="store_true",
                    help="SF 0.01 and 16 batches per table (the test suite's "
                         "scale), for checking the benchmark itself")
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def peak_rss_mb() -> float:
    """Peak resident memory since start (or since the last reset)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def reset_peak_rss() -> bool:
    """Restart the peak-RSS count (Linux); False if this kernel can't."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def environment() -> dict:
    import duckdb
    import numpy
    import pandas

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": list(os.getloadavg()),
        "python": platform.python_version(),
        "pandas": pandas.__version__,
        "numpy": numpy.__version__,
        "duckdb": duckdb.__version__,
        "platform": platform.platform(),
    }


def run_workload(wl, seed: int, seconds: float, trace: bool, sf: float,
                 batches: int, import_s: float, spans_path: Path) -> dict:
    import workloads as W
    from tracing import Tracer, install_layers

    tracer = Tracer() if trace else None
    gen, split = [], []
    inputs = None
    for _ in range(SETUP_REPEATS):
        inputs = None  # free the previous set before building the next
        inputs = W.make_inputs(sf, batches, seed, tracer)
        gen.append(inputs.generate_s)
        split.append(inputs.split_s)
    setup_s = import_s + statistics.median(g + s for g, s in zip(gen, split))

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        runner = W.Runner(wl, inputs, batches, Path(tmp))
        warm = runner.run_query(W.WARMUP_QUERY)
        if trace:
            passes = runner.measure(seconds / 2)
            untraced = len(passes)
            runner.tracer = tracer
            install_layers(tracer)
            try:
                passes += runner.measure(seconds / 2)
            finally:
                tracer.remove()
        else:
            passes = runner.measure(seconds)
            untraced = len(passes)
        peak = peak_rss_mb()
        problems = runner.check(passes)

    attempted = sum(len(p.runs) for p in passes)
    failed = len(problems)
    e2e = W.end_to_end(passes[:untraced])
    metrics: dict[str, tuple[float, int]] = dict(e2e)
    metrics["failed_frac"] = (failed / attempted, attempted)
    metrics["setup_s"] = (setup_s, SETUP_REPEATS)
    metrics["peak_rss_mb"] = (peak, 1)
    if trace:
        traced = passes[untraced:]
        rows = [W.layer_metrics(p) for p in traced]
        for name in rows[0]:
            metrics[name] = (statistics.median(r[name] for r in rows), len(rows))
        for p in traced:
            run_s, self_sum = p.trace["run_s"], p.trace["in_run_self_s"]
            if abs(run_s - self_sum) > 1e-6 * run_s + 1e-9:
                problems.append(f"trace: layer self times {self_sum} do not "
                                f"sum to Executor.run time {run_s}")
        metrics["synth_data.generate_s"] = (statistics.median(gen), len(gen))
        metrics["synth_data.split_s"] = (statistics.median(split), len(split))
        t_wall = statistics.median(p.wall_s for p in traced)
        u_wall = e2e["pass_wall_s"][0]
        metrics["trace.pass_wall_s"] = (t_wall, len(traced))
        metrics["trace.untraced_pass_wall_s"] = (u_wall, untraced)
        metrics["trace.overhead_frac"] = (t_wall / u_wall - 1.0, len(traced))
        tracer.write_spans(spans_path)

    return {
        "workload": wl.name,
        "system": W.SYSTEM,
        "queries": list(wl.queries),
        "sf": sf,
        "workers": wl.n_workers,
        "batches_per_table": batches,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "warmup": {"query": W.WARMUP_QUERY, "wall_s": warm.wall_s,
                   "note": "untimed; not part of setup_s or any pass"},
        "setup": {"import_s": import_s, "generate_s": gen, "split_s": split},
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "passes": [
            {"traced": p.trace is not None, "wall_s": p.wall_s,
             "oracle_s": p.oracle_s,
             "runs": [{"query": r.query, "killed": r.failure is not None,
                       "wall_s": r.wall_s,
                       "sim_s": r.result.sim_time if r.result else None,
                       "tasks": r.result.stats["n_tasks"] if r.result else None}
                      for r in p.runs]}
            for p in passes
        ],
    }


def print_report(rep: dict, units: dict[str, str]) -> None:
    print(f"== {rep['workload']}: {rep['system']}, queries "
          f"{','.join(rep['queries'])}, SF {rep['sf']}, {rep['workers']} "
          f"workers, {rep['batches_per_table']} batches/table, seed "
          f"{rep['seed']}, trace {rep['trace']}")
    w = rep["warmup"]
    print(f"warm-up: {w['query']} ran in {w['wall_s']:.3f} s, {w['note']}")
    print(f"{'metric':36} {'value':>16} {'unit':8} n")
    for name, (value, n) in rep["metrics"].items():
        print(f"{name:36} {value:16.6g} {units.get(name, ''):8} {n}")
    print(f"runs attempted {rep['attempted']}, failed {rep['failed']}")
    for msg in rep["problems"]:
        print(f"FAILED {msg}")


def main() -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: the program's source ({src}/repro) is missing; run "
              "from the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    import workloads as W

    args = parse_args(list(W.WORKLOADS))
    import_s = time.perf_counter() - _T0
    from repro.harness.configs import (BENCH_INPUT_BATCHES, BENCH_SF,
                                       TEST_INPUT_BATCHES, TEST_SF)

    sf, batches = ((TEST_SF, TEST_INPUT_BATCHES) if args.test_scale
                   else (BENCH_SF, BENCH_INPUT_BATCHES))
    env = environment()
    names = list(W.WORKLOADS) if args.workload == "all" else [args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    reports = []
    for i, name in enumerate(names):
        if i and not reset_peak_rss():
            env["peak_rss_note"] = "cumulative over workloads: no reset"
        spans = OUT / f"{tag}-{name}-spans.jsonl"
        reports.append(run_workload(W.WORKLOADS[name], args.seed, args.seconds,
                                    bool(args.trace), sf, batches, import_s,
                                    spans))
    env["loadavg_after"] = list(os.getloadavg())

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    units["failed_frac"] = "ratio"
    out_metrics = {}
    for rep in reports:
        prefix = f"{rep['workload']}." if len(reports) > 1 else ""
        for m in wanted:
            if m["name"] not in rep["metrics"]:
                rep["problems"].append(f"metric {m['name']} not measured")
                continue
            out_metrics[prefix + m["name"]] = {
                "value": rep["metrics"][m["name"]][0], "unit": m["unit"]}
    print("environment: " + json.dumps(env))
    for rep in reports:
        print_report(rep, units)

    (OUT / f"{tag}.json").write_text(
        json.dumps({"environment": env, "workloads": reports}, indent=1))

    print(json.dumps({
        "correct": not any(rep["problems"] for rep in reports),
        "attempted": sum(rep["attempted"] for rep in reports),
        "failed": sum(rep["failed"] for rep in reports),
        "metrics": out_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

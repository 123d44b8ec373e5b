"""Check the benchmark itself, at the test suite's scale (SF 0.01).

Run from the root of a checkout::

    python3 perfbench/selfcheck.py

For every workload in ``BENCHMARK.json`` it runs ``run.py --test-scale``
twice untraced and twice traced with one seed, and checks that:

* the last line of stdout has exactly the keys ``correct``, ``attempted``,
  ``failed`` and ``metrics``, every listed metric with its unit, correct
  results and no failed run;
* simulated metrics and every count repeat exactly across invocations;
* layer self times sum to the traced ``Executor.run`` time;
* ``recovery.*`` and ``executor.tasks_reexecuted`` are non-zero on the
  recovery workload only.

It also checks that the benchmark exits non-zero, printing no result, in a
directory that holds only ``BENCHMARK.json`` and ``perfbench/``. Exits 1
if any check fails. Not collected by pytest (no ``test_``/``bench_``
prefix, outside ``testpaths``).
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
SECONDS = "2"
RECOVERY_WORKLOAD = "recovery-4w"


def invoke(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace),
         "--test-scale"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict | None:
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def deterministic(metric: dict) -> bool:
    """Metrics that depend only on the seed, not on the clock or memory."""
    return (metric["unit"] in ("sim-s", "ratio", "count", "bytes")
            and not metric["name"].startswith("trace."))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors: list[str] = []

    for wl in (w["name"] for w in bench["workloads"]):
        for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            outs = []
            for _ in range(2):
                proc = invoke(ROOT, wl, trace)
                out = last_json(proc)
                if proc.returncode != 0 or out is None:
                    errors.append(f"{wl} trace {trace}: exit {proc.returncode}, "
                                  f"stderr {proc.stderr[-2000:]}")
                    break
                outs.append(out)
                where = f"{wl} trace {trace}"
                if set(out) != {"correct", "attempted", "failed", "metrics"}:
                    errors.append(f"{where}: keys {sorted(out)}")
                if not out["correct"] or out["failed"] or out["attempted"] < 1:
                    errors.append(f"{where}: correct={out['correct']} "
                                  f"failed={out['failed']}\n{proc.stdout[-3000:]}")
                want = {m["name"]: m["unit"] for m in listed}
                got = {k: v["unit"] for k, v in out["metrics"].items()}
                if got != want:
                    errors.append(f"{where}: metrics {sorted(set(got) ^ set(want))} "
                                  "differ from BENCHMARK.json")
            if len(outs) < 2:
                continue
            a, b = (o["metrics"] for o in outs)
            for m in listed:
                if deterministic(m) and m["name"] in a and a[m["name"]] != b.get(m["name"]):
                    errors.append(f"{wl} trace {trace}: {m['name']} "
                                  f"{a[m['name']]} then {b.get(m['name'])}")
            if trace:
                run_s = a["trace.executor_run_s"]["value"]
                total = a["trace.layer_self_sum_s"]["value"]
                if abs(run_s - total) > 1e-6 * run_s:
                    errors.append(f"{wl}: self times {total} != run {run_s}")
                recovery = {k: a[k]["value"] for k in a
                            if k.startswith("recovery.")
                            or k == "executor.tasks_reexecuted"}
                nonzero = [k for k, v in recovery.items() if v]
                if wl == RECOVERY_WORKLOAD and len(nonzero) != len(recovery):
                    errors.append(f"{wl}: zero recovery metrics "
                                  f"{sorted(set(recovery) - set(nonzero))}")
                if wl != RECOVERY_WORKLOAD and nonzero:
                    errors.append(f"{wl}: non-zero recovery metrics {nonzero}")
        print(f"checked {wl}", flush=True)

    bare = HERE / "out" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = invoke(bare, bench["workloads"][0]["name"], 0)
        if proc.returncode == 0 or last_json(proc) is not None:
            errors.append(f"without the program: exit {proc.returncode}, "
                          f"stdout {proc.stdout[-500:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("checked the run without the program's source")

    for e in errors:
        print("FAIL", e)
    print("selfcheck", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

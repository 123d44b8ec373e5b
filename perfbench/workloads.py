"""Workloads of the repository benchmark and their closed-loop runner.

One client runs each workload closed loop: a query run starts when the
previous one returns. A *pass* is one run of every query in the
workload's list (plus, on a recovery workload, a rerun of each with a
worker killed). Only ``Query.plan``, ``Executor(...)`` and ``.run()`` are
timed; the DuckDB oracle and the determinism gate run after the timed
passes.
"""
from __future__ import annotations

import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np
import pandas as pd

from repro import oracle, synth_data
from repro.engine.executor import Executor, Failure, RunResult
from repro.engine.util import pdf_nbytes
from repro.harness.configs import SYSTEMS
from repro.harness.experiments import geomean
from repro.queries.tpch import QUERIES

from tracing import Tracer

SYSTEM = "quokka"
#: Untimed run before timing starts: the first runs of a process are
#: slower (lazy imports and caches inside pandas/numpy).
WARMUP_QUERY = "q1"
#: Kill point of the recovery protocol, as a share of the normal run's
#: simulated time (paper Fig 10).
KILL_FRAC = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    queries: tuple[str, ...]
    n_workers: int
    #: When set, every query is rerun with this worker killed at
    #: ``KILL_FRAC`` of its normal run's simulated time.
    kill_worker: Optional[int] = None


# Why each workload is here (also the "why" lines of BENCHMARK.json):
# * joins-16w: the paper's 16-worker shape; ~6.3k small tasks put the join
#   kernel, hash partitioning and concat/size accounting on the hot path.
# * agg-32w: the widest cluster (64 scan channels) with fused scan ->
#   partial aggregation; no join, and the only shuffle carries a few
#   partial-aggregate rows per channel: a join or shuffle change must leave
#   it unchanged, while scan maps, HashAgg and executor/GCS bookkeeping
#   carry its time.
# * recovery-4w: losing one of four workers makes Algorithm 2 (rewind,
#   replay, rescan, retrace) the largest share of the work, reads the GCS
#   as well as writing it, and gives operators batches ~16x larger than
#   at 16 workers.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("joins-16w", ("q3", "q12", "q14"), 16),
        Workload("agg-32w", ("q1", "q6"), 32),
        Workload("recovery-4w", ("q3", "q9"), 4, kill_worker=1),
    )
}


def table_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th table generator, derived from the run's."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class Inputs:
    db: dict[str, pd.DataFrame]
    tables: dict[str, list[pd.DataFrame]]
    generate_s: float
    split_s: float


def make_inputs(sf: float, batches: int, seed: int,
                tracer: Optional[Tracer] = None) -> Inputs:
    """Seeded tables and their batch lists: all the engine receives."""
    span = tracer.span if tracer else (lambda name: nullcontext())
    t0 = time.perf_counter()
    with span("synth_data.generate"):
        db = {
            name: gen(sf=sf, seed=table_seed(seed, i))
            for i, (name, gen) in enumerate(synth_data.PDF_GENERATORS.items())
        }
    t1 = time.perf_counter()
    with span("synth_data.split"):
        tables = {k: synth_data.split_batches(v, batches) for k, v in db.items()}
    t2 = time.perf_counter()
    return Inputs(db, tables, t1 - t0, t2 - t1)


@dataclass
class QueryRun:
    query: str
    run_id: int
    failure: Optional[Failure] = None
    wall_s: float = 0.0
    result: Optional[RunResult] = None
    error: Optional[str] = None
    journal_bytes: int = 0
    #: bytes of upstream backups still held by live workers at the end.
    backup_bytes: int = 0

    def fingerprint(self) -> tuple:
        """What must repeat bit for bit when the same run is repeated."""
        if self.result is None:
            return (self.query, self.failure is not None, self.error)
        st = self.result.stats
        return (self.query, self.failure is not None, self.result.sim_time,
                st["n_tasks"], st["gcs_txns"], st["n_replays"],
                st["n_rescans"], self.journal_bytes, self.backup_bytes)


@dataclass
class Pass:
    runs: list[QueryRun]
    #: Tracer accumulators of this pass; None for an untraced pass.
    trace: Optional[dict] = None
    oracle_s: float = 0.0

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.runs)

    def pairs(self) -> list[tuple[QueryRun, QueryRun]]:
        """(normal run, killed run) of every query rerun with a failure."""
        normal = {r.query: r for r in self.runs if r.failure is None}
        return [(normal[r.query], r) for r in self.runs if r.failure is not None]


class Runner:
    """Runs one workload's queries over one set of inputs."""

    def __init__(self, wl: Workload, inputs: Inputs, batches: int,
                 journal_dir: Path) -> None:
        self.wl = wl
        self.inputs = inputs
        self.sysdef = SYSTEMS[SYSTEM]
        self.cfg = self.sysdef.exec_config(wl.n_workers, batches)
        self.journal_dir = journal_dir
        self.tracer: Optional[Tracer] = None
        self._runs = 0

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def run_query(self, query: str, failure: Optional[Failure] = None) -> QueryRun:
        self._runs += 1
        run = QueryRun(query, self._runs, failure)
        if self.tracer:
            self.tracer.run_id = run.run_id
        # The GCS journal goes to a file: the durable configuration.
        journal = self.journal_dir / f"run{run.run_id}.jsonl"
        cfg = replace(self.cfg, journal_path=str(journal))
        ex = None
        t0 = time.perf_counter()
        try:
            with self._span("bench.query"):
                plan = QUERIES[query].plan(self.inputs.db,
                                           pushdown=self.sysdef.pushdown)
                ex = Executor(plan, self.inputs.tables, cfg)
                run.result = ex.run([failure] if failure else [])
        except Exception:  # counted as a failed run; the workload goes on
            run.error = traceback.format_exc()
        finally:
            run.wall_s = time.perf_counter() - t0
            if ex is not None:
                ex.store.gcs.close()
        if journal.exists():
            run.journal_bytes = journal.stat().st_size
            journal.unlink()
        if ex is not None and run.result is not None:
            run.backup_bytes = sum(
                pdf_nbytes(b) for w in ex.workers for b in w.backups.values()
            )
        return run

    def run_pass(self) -> list[QueryRun]:
        runs = []
        for q in self.wl.queries:
            normal = self.run_query(q)
            runs.append(normal)
            if self.wl.kill_worker is None:
                continue
            if normal.result is None:
                runs.append(QueryRun(q, 0, Failure(self.wl.kill_worker, 0.0),
                                     error="normal run failed: no kill time"))
                continue
            kill = Failure(self.wl.kill_worker,
                           KILL_FRAC * normal.result.sim_time)
            runs.append(self.run_query(q, kill))
        return runs

    def measure(self, seconds: float) -> list[Pass]:
        """Whole passes, closed loop. Another pass starts only if one more
        of the last pass's length still fits in ``seconds``; at least one
        pass runs."""
        passes: list[Pass] = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            if self.tracer:
                self.tracer.reset()
            runs = self.run_pass()
            passes.append(Pass(runs, self.tracer.snapshot() if self.tracer else None))
            now = time.perf_counter()
            if (now - start) + (now - t0) > seconds:
                return passes

    def check(self, passes: list[Pass]) -> list[str]:
        """Oracle-check every run and gate determinism, after the timed
        passes; returns one message per failed run."""
        problems: list[str] = []
        failed: set[int] = set()

        def fail(run: QueryRun, why: str) -> None:
            if id(run) not in failed:
                failed.add(id(run))
                problems.append(f"run {run.run_id} {run.query}"
                                f"{' (killed)' if run.failure else ''}: {why}")

        for p in passes:
            t0 = time.perf_counter()
            for run in p.runs:
                if run.error is not None:
                    fail(run, run.error.strip().splitlines()[-1])
                    continue
                if self.tracer:
                    self.tracer.run_id = run.run_id
                try:
                    with self._span("oracle.check"):
                        oracle.assert_equivalent(
                            run.result.df, QUERIES[run.query].sql, **self.inputs.db
                        )
                except Exception as e:  # a wrong result, not a crash
                    fail(run, f"differs from the DuckDB oracle: {e}")
            p.oracle_s = time.perf_counter() - t0
            for normal, killed in p.pairs():
                if (normal.result is not None and killed.result is not None
                        and not same_result(normal.result.df, killed.result.df)):
                    fail(killed, "differs from its own normal run")

        # Lineage replay is deterministic: every pass repeats the first.
        base = [r.fingerprint() for r in passes[0].runs]
        for p in passes[1:]:
            for run, want in zip(p.runs, base):
                if run.fingerprint() != want:
                    fail(run, f"drift: {run.fingerprint()} != {want}")
        traced = [p for p in passes if p.trace is not None]
        for p in traced[1:]:
            for key in ("counts", "calls"):
                if p.trace[key] != traced[0].trace[key]:
                    for run in p.runs:
                        fail(run, f"traced {key} drift between passes")
        return problems


def same_result(a: pd.DataFrame, b: pd.DataFrame) -> bool:
    """Equal as multisets of rows: exact, except floats to 1e-9 relative.

    A killed run retraces its logged lineage exactly, but after recovery
    its dynamic tasks group inputs differently from the normal run, which
    reorders float sums in the last bits (as the test suite allows)."""
    cols = list(a.columns)
    if list(b.columns) != cols or len(a) != len(b):
        return False
    if not cols:
        return True
    a = a.sort_values(cols).reset_index(drop=True)
    b = b.sort_values(cols).reset_index(drop=True)
    try:
        pd.testing.assert_frame_equal(a, b, check_exact=False, rtol=1e-9)
    except AssertionError:
        return False
    return True


# ------------------------------------------------------------------ metrics


def end_to_end(passes: list[Pass]) -> dict[str, tuple[float, int]]:
    """Untraced metrics as (value, sample count)."""
    first = passes[0].runs
    normal = [r.result.sim_time for r in first
              if r.failure is None and r.result is not None]
    ratios = [k.result.sim_time / n.result.sim_time
              for n, k in passes[0].pairs()
              if n.result is not None and k.result is not None]
    return {
        "pass_wall_s": (statistics.median(p.wall_s for p in passes), len(passes)),
        "sim_s": (geomean(normal) if normal else 0.0, len(normal)),
        # No failure runs: no recovery overhead, the empty geomean is 1.
        "sim_recovery_x": (geomean(ratios) if ratios else 1.0, len(ratios)),
    }


def layer_metrics(p: Pass) -> dict[str, float]:
    """Per-layer metrics of one traced pass (set-up is reported apart)."""
    s, n, c = p.trace["self_s"], p.trace["calls"], p.trace["counts"]
    tasks = c.get("executor.n_tasks", 0)
    slices = c.get("partition.slices", 0)
    backup = c.get("cluster.backup_bytes", 0)
    journal = sum(r.journal_bytes for r in p.runs)
    reexecuted = sum(k.result.stats["n_tasks"] - m.result.stats["n_tasks"]
                     for m, k in p.pairs()
                     if m.result is not None and k.result is not None)
    return {
        "operators.join.s": s.get("operators.join", 0.0),
        "operators.join.calls": n.get("operators.join", 0),
        "operators.join.rows_in": c.get("operators.join.rows_in", 0),
        "operators.join.rows_out": c.get("operators.join.rows_out", 0),
        "operators.agg.s": s.get("operators.agg", 0.0),
        "operators.agg.calls": n.get("operators.agg", 0),
        "operators.topk.s": s.get("operators.topk", 0.0),
        "partition.s": s.get("partition", 0.0),
        "partition.calls": n.get("partition", 0),
        "partition.rows": c.get("partition.rows", 0),
        "partition.empty_slice_frac":
            c.get("partition.empty_slices", 0) / slices if slices else 0.0,
        "util.concat_s": s.get("util.concat", 0.0),
        "util.nbytes_s": s.get("util.nbytes", 0.0),
        "util.nbytes_calls": n.get("util.nbytes", 0),
        "queries.plan_s": s.get("queries.plan", 0.0),
        "queries.scan_map_s": s.get("queries.scan_map", 0.0),
        "executor.self_s": s.get("executor.run", 0.0),
        "executor.tasks": tasks,
        "executor.wall_per_task_ms":
            1000.0 * p.trace["run_s"] / tasks if tasks else 0.0,
        "executor.tasks_reexecuted": reexecuted,
        "executor.replays": c.get("executor.n_replays", 0),
        "executor.rescans": c.get("executor.n_rescans", 0),
        "wal.commits": n.get("wal.commit", 0),
        "wal.commit_s": s.get("wal.commit", 0.0),
        "wal.lookups": n.get("wal.lookup", 0),
        "wal.lookup_s": s.get("wal.lookup", 0.0),
        "wal.lineage_bytes_per_backup_byte": journal / backup if backup else 0.0,
        "gcs.txns": n.get("gcs.txn", 0),
        "gcs.ops": c.get("gcs.ops", 0),
        "gcs.txn_s": s.get("gcs.txn", 0.0),
        "gcs.get_calls": n.get("gcs.get", 0),
        "gcs.get_s": s.get("gcs.get", 0.0),
        "gcs.journal_bytes": journal,
        "simtime.cpu_s": c.get("simtime.cpu_s", 0.0),
        "simtime.nic_busy_s": c.get("simtime.nic_busy_s", 0.0),
        "simtime.nic_wait_s": c.get("simtime.nic_wait_s", 0.0),
        "simtime.disk_busy_s": c.get("simtime.disk_busy_s", 0.0),
        "simtime.disk_wait_s": c.get("simtime.disk_wait_s", 0.0),
        "cluster.backups": n.get("cluster.backup", 0),
        "cluster.backup_bytes": backup,
        "recovery.plan_s": s.get("recovery.plan", 0.0),
        "recovery.rewound": c.get("recovery.rewound", 0),
        "recovery.replays_planned": c.get("recovery.replays_planned", 0),
        "recovery.rescans_planned": c.get("recovery.rescans_planned", 0),
        "oracle.check_s": p.oracle_s,
        "trace.executor_run_s": p.trace["run_s"],
        "trace.layer_self_sum_s": p.trace["in_run_self_s"],
    }

"""One function per reproduced exhibit (paper Figs 6-11 + Table I).

Each ``fig*_rows`` function returns a list of row dicts whose columns
mirror what the paper plots; jobs and benchmarks print them with
:func:`format_rows` and EXPERIMENTS.md records paper-vs-measured. All
engine runs share one :class:`Harness`, which caches the synthetic
database, the per-table batch lists, and completed runs (recovery
experiments reuse the no-failure run for the kill time and denominator).
"""
from __future__ import annotations

import math
from typing import Optional

from .. import oracle, synth_data
from ..engine.executor import Executor, Failure, RunResult
from ..queries.tpch import QUERIES, REPRESENTATIVE
from .configs import SYSTEMS, TABLE1_SYSTEMS


def geomean(xs: list[float]) -> float:
    xs = [x for x in xs if x > 0]
    return math.exp(sum(math.log(x) for x in xs) / len(xs)) if xs else float("nan")


def format_rows(rows: list[dict], title: str = "") -> str:
    """Render row dicts as an aligned text table."""
    if not rows:
        return f"{title}\n(no rows)"
    cols = list(rows[0])
    widths = {
        c: max(len(c), *(len(_fmt(r.get(c))) for r in rows)) for c in cols
    }
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(c.ljust(widths[c]) for c in cols))
    lines.append("  ".join("-" * widths[c] for c in cols))
    for r in rows:
        lines.append("  ".join(_fmt(r.get(c)).ljust(widths[c]) for c in cols))
    return "\n".join(lines)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.3f}"
    return "" if v is None else str(v)


class Harness:
    """Shared data + memoised engine runs for one (sf, batches) setting.
    With ``check_oracle``, DuckDB checks every run it makes."""

    def __init__(self, sf: float, input_batches: int, check_oracle: bool = True):
        self.sf = sf
        self.input_batches = input_batches
        self.check_oracle = check_oracle
        self.db = synth_data.tpch_db(sf=sf)
        self.tables = {
            k: synth_data.split_batches(v, input_batches)
            for k, v in self.db.items()
        }
        self._cache: dict[tuple, RunResult] = {}

    def run(
        self,
        qname: str,
        system: str,
        n_workers: int,
        *,
        failure_frac: Optional[float] = None,
        failure_worker: int = 1,
    ) -> RunResult:
        key = (qname, system, n_workers, failure_frac, failure_worker)
        if key in self._cache:
            return self._cache[key]
        sysdef = SYSTEMS[system]
        cfg = sysdef.exec_config(n_workers, self.input_batches)
        plan = QUERIES[qname].plan(self.db, pushdown=sysdef.pushdown)
        failures: list[Failure] = []
        if failure_frac is not None:
            base = self.run(qname, system, n_workers)
            failures = [Failure(failure_worker, failure_frac * base.sim_time)]
        res = Executor(plan, self.tables, cfg).run(failures)
        if self.check_oracle:
            oracle.assert_equivalent(res.df, QUERIES[qname].sql, **self.db)
        self._cache[key] = res
        return res

    # -------------------------------------------------------------- exhibits

    def fig6_rows(self, workers: list[int] = (4, 16),
                  queries: Optional[list[str]] = None) -> list[dict]:
        """Fig 6: Quokka vs Trino (with FT) vs SparkSQL-sim, normal exec."""
        queries = queries or list(QUERIES)
        rows = []
        for w in workers:
            speed_t, speed_s = [], []
            for q in queries:
                tq = self.run(q, "quokka", w).sim_time
                tt = self.run(q, "trino", w).sim_time
                ts = self.run(q, "spark", w).sim_time
                speed_t.append(tt / tq)
                speed_s.append(ts / tq)
                rows.append(
                    {"workers": w, "query": q, "quokka_s": tq, "trino_s": tt,
                     "spark_s": ts, "speedup_vs_trino": tt / tq,
                     "speedup_vs_spark": ts / tq}
                )
            rows.append(
                {"workers": w, "query": "GEOMEAN", "quokka_s": None,
                 "trino_s": None, "spark_s": None,
                 "speedup_vs_trino": geomean(speed_t),
                 "speedup_vs_spark": geomean(speed_s)}
            )
        return rows

    def fig7_rows(self, workers: list[int] = (4, 16)) -> list[dict]:
        """Fig 7: pipelined vs stagewise Quokka."""
        rows = []
        for w in workers:
            ratios_ii_iii = []
            for q in REPRESENTATIVE:
                tp = self.run(q, "quokka", w).sim_time
                tb = self.run(q, "quokka_stagewise", w).sim_time
                if QUERIES[q].category in ("II", "III"):
                    ratios_ii_iii.append(tb / tp)
                rows.append(
                    {"workers": w, "query": q, "cat": QUERIES[q].category,
                     "pipelined_s": tp, "stagewise_s": tb, "speedup": tb / tp}
                )
            rows.append(
                {"workers": w, "query": "GEOMEAN(II+III)", "cat": "",
                 "pipelined_s": None, "stagewise_s": None,
                 "speedup": geomean(ratios_ii_iii)}
            )
        return rows

    def fig8_rows(self, workers: list[int] = (4, 16)) -> list[dict]:
        """Fig 8: dynamic vs static-small vs static-large dependencies.

        Paper batches 8 vs 128 partitions at SF100; the scale-equivalent
        static pair here is 2 vs 16 (see configs.py).
        """
        rows = []
        for w in workers:
            for q in REPRESENTATIVE:
                td = self.run(q, "quokka", w).sim_time
                ts = self.run(q, "quokka_static_small", w).sim_time
                tl = self.run(q, "quokka_static_large", w).sim_time
                rows.append(
                    {"workers": w, "query": q, "cat": QUERIES[q].category,
                     "dynamic_s": td, "static_small_s": ts,
                     "static_large_s": tl,
                     "dyn_vs_best_static": td / min(ts, tl)}
                )
        return rows

    def fig9_rows(self, workers: list[int] = (4, 16)) -> list[dict]:
        """Fig 9: normal-execution overhead of each FT strategy.

        Overhead = runtime with FT / runtime with FT off (same engine).
        """
        rows = []
        for w in workers:
            ov_t, ov_sp, ov_wal = [], [], []
            for q in REPRESENTATIVE:
                t_noft = self.run(q, "quokka_noft", w).sim_time
                trino = (
                    self.run(q, "trino", w).sim_time
                    / self.run(q, "trino_noft", w).sim_time
                )
                spool = self.run(q, "quokka_spool", w).sim_time / t_noft
                wal = self.run(q, "quokka", w).sim_time / t_noft
                ov_t.append(trino)
                ov_sp.append(spool)
                ov_wal.append(wal)
                rows.append(
                    {"workers": w, "query": q, "cat": QUERIES[q].category,
                     "trino_hdfs_spool": trino, "quokka_s3_spool": spool,
                     "quokka_wal": wal}
                )
            rows.append(
                {"workers": w, "query": "GEOMEAN", "cat": "",
                 "trino_hdfs_spool": geomean(ov_t),
                 "quokka_s3_spool": geomean(ov_sp),
                 "quokka_wal": geomean(ov_wal)}
            )
        return rows

    def recovery_rows(self, n_workers: int, *, frac: float = 0.5,
                      queries: Optional[list[str]] = None) -> list[dict]:
        """Figs 10a / 11b: kill one worker at ``frac`` of normal runtime.

        Overhead = runtime with failure / normal runtime. The restart
        baseline is *measured*: the same failure with ft off degenerates
        to re-executing the whole pipeline on the surviving workers.
        """
        queries = queries or REPRESENTATIVE
        rows = []
        ov_q, ov_s = [], []
        for q in queries:
            tq = self.run(q, "quokka", n_workers).sim_time
            tqf = self.run(q, "quokka", n_workers, failure_frac=frac).sim_time
            ts = self.run(q, "spark", n_workers).sim_time
            tsf = self.run(q, "spark", n_workers, failure_frac=frac).sim_time
            tr = self.run(q, "quokka_noft", n_workers).sim_time
            trf = self.run(
                q, "quokka_noft", n_workers, failure_frac=frac
            ).sim_time
            ov_q.append(tqf / tq)
            ov_s.append(tsf / ts)
            rows.append(
                {"workers": n_workers, "query": q, "cat": QUERIES[q].category,
                 "quokka_overhead": tqf / tq, "spark_overhead": tsf / ts,
                 "restart_overhead": trf / tr,
                 "quokka_vs_spark_e2e": tsf / tqf}
            )
        rows.append(
            {"workers": n_workers, "query": "GEOMEAN", "cat": "",
             "quokka_overhead": geomean(ov_q), "spark_overhead": geomean(ov_s),
             "restart_overhead": None, "quokka_vs_spark_e2e": None}
        )
        return rows

    def fig10b_rows(self, n_workers: int = 16, qname: str = "q9",
                    fracs: tuple = (0.1, 0.3, 0.5, 0.7, 0.9)) -> list[dict]:
        """Fig 10b: Q9, kill a worker at varying points of execution."""
        rows = []
        tq = self.run(qname, "quokka", n_workers).sim_time
        ts = self.run(qname, "spark", n_workers).sim_time
        for f in fracs:
            tqf = self.run(qname, "quokka", n_workers, failure_frac=f).sim_time
            tsf = self.run(qname, "spark", n_workers, failure_frac=f).sim_time
            rows.append(
                {"kill_at": f, "quokka_overhead": tqf / tq,
                 "spark_overhead": tsf / ts, "quokka_e2e_speedup": tsf / tqf}
            )
        return rows


def table1_rows() -> list[dict]:
    """Paper Table I: which FT techniques each system employs, derived
    from the engine mode flags so the matrix always reflects the code."""
    rows = []
    flink_like = {"Kafka Streams": ("spool", "ckpt", "lineage"),
                  "Flink": ("ckpt",), "StreamScope": ("ckpt", "lineage")}
    for label, sysname in TABLE1_SYSTEMS.items():
        s = SYSTEMS[sysname]
        rows.append(
            {"system": label,
             "description": "Pipelined SQL" if s.exec_mode == "pipelined"
             else "Stagewise SQL",
             "spooling": "yes" if s.ft_mode.startswith("spool") else "no",
             "state_checkpoint": "yes" if s.ft_mode == "checkpoint" else "no",
             "lineage": "yes" if s.ft_mode in ("wal", "spool_hdfs",
                                               "spool_s3", "none") else "no"}
        )
    for label, techs in flink_like.items():
        rows.append(
            {"system": label, "description": "Dataflow",
             "spooling": "yes" if "spool" in techs else "no",
             "state_checkpoint": "yes" if "ckpt" in techs else "no",
             "lineage": "yes" if "lineage" in techs else "no"}
        )
    return rows

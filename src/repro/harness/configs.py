"""Named system configurations and cluster setups for the experiments.

Each *system* is a point in the engine's mode matrix (DESIGN.md §3),
matching a system measured in the paper:

* ``quokka``          — pipelined + dynamic deps + write-ahead lineage
                        (+ aggregation pushdown); the paper's system.
* ``quokka_noft``     — fault tolerance off (overhead denominator, and
                        the measured restart baseline when failed).
* ``quokka_stagewise``— Fig 7's blocking-execution ablation.
* ``quokka_static_small`` / ``quokka_static_large`` — Fig 8's static
                        lineage strategies (paper: batch 8 vs 128).
* ``quokka_spool``    — Fig 9's Quokka-with-S3-spooling variant.
* ``quokka_ckpt``     — §V-C's incremental-checkpointing variant.
* ``trino``           — pipelined + static deps + durable HDFS spooling,
                        no aggregation pushdown (per §V-C).
* ``trino_noft``      — Trino with fault tolerance off.
* ``spark``           — stagewise (blocking) + upstream backup + data-
                        parallel recovery (monolithic per-partition
                        recompute tasks), with partial aggregation
                        (SparkSQL performs partial aggregation) and
                        ~2x-slower row-oriented kernels.

Workers model r6id instances: 2 task slots per worker (the paper's two
cluster shapes hold cores×workers constant; we do the same).
"""
from __future__ import annotations

from dataclasses import dataclass

from ..engine.executor import ExecConfig
from ..engine.simtime import CostModel

#: Scale factor / batch count used by benchmarks (SF0.1 rescaled to
#: SF100-equivalent volumes by CostModel.bytes_scale) and by tests.
BENCH_SF = 0.1
BENCH_INPUT_BATCHES = 64
TEST_SF = 0.01
TEST_INPUT_BATCHES = 16

@dataclass(frozen=True)
class System:
    name: str
    exec_mode: str
    dep_mode: str
    static_batch: int
    ft_mode: str
    recovery_mode: str
    pushdown: bool
    #: single-node kernel throughput (bytes/s/slot). Quokka uses DuckDB/
    #: Polars kernels; SparkSQL's Tungsten row kernels are ~2x slower
    #: (paper §V-A attributes part of the gap to kernels); Trino's
    #: vectorised Java kernels sit in between.
    cpu_bps: float = 600e6
    scan_bps: float = 350e6

    def exec_config(self, n_workers: int, input_batches: int) -> ExecConfig:
        cost = CostModel(
            cpu_bytes_per_sec=self.cpu_bps, scan_bytes_per_sec=self.scan_bps
        )
        return ExecConfig(
            n_workers=n_workers,
            exec_mode=self.exec_mode,
            dep_mode=self.dep_mode,
            static_batch=self.static_batch,
            ft_mode=self.ft_mode,
            recovery_mode=self.recovery_mode,
            input_batches=input_batches,
            cost=cost,
        )


SYSTEMS: dict[str, System] = {
    "quokka": System("quokka", "pipelined", "dynamic", 0, "wal",
                     "pipelined_parallel", True),
    "quokka_noft": System("quokka_noft", "pipelined", "dynamic", 0, "none",
                          "pipelined_parallel", True),
    "quokka_stagewise": System("quokka_stagewise", "stagewise", "dynamic", 0,
                               "wal", "pipelined_parallel", True),
    # Fig 8's static strategies. The paper batches 8 vs 128 partitions at
    # SF100 (~thousands of partitions per channel); at our batch counts
    # the scale-equivalent pair is 2 vs 16 (small: fine-grained
    # pipelining, many tiny shuffles; large: effectively stage-at-a-time).
    "quokka_static_small": System("quokka_static_small", "pipelined",
                                  "static", 2, "wal", "pipelined_parallel",
                                  True),
    "quokka_static_large": System("quokka_static_large", "pipelined",
                                  "static", 16, "wal", "pipelined_parallel",
                                  True),
    "quokka_spool": System("quokka_spool", "pipelined", "dynamic", 0,
                           "spool_s3", "pipelined_parallel", True),
    "quokka_ckpt": System("quokka_ckpt", "pipelined", "dynamic", 0,
                          "checkpoint", "pipelined_parallel", True),
    # Trino without FT is *faster* than Quokka (paper Figs 6+9 imply
    # trino-noFT ≈ 0.8x quokka: with-FT is 1.25-1.7x slower while spooling
    # alone costs 1.5-2.7x) — its mature vectorised Java kernels outrun
    # Quokka's Python-orchestrated DuckDB/Polars calls.
    "trino": System("trino", "pipelined", "static", 8, "spool_hdfs",
                    "pipelined_parallel", False, cpu_bps=1000e6,
                    scan_bps=500e6),
    "trino_noft": System("trino_noft", "pipelined", "static", 8, "none",
                         "pipelined_parallel", False, cpu_bps=1000e6,
                         scan_bps=500e6),
    "spark": System("spark", "stagewise", "dynamic", 0, "wal",
                    "data_parallel", True, cpu_bps=280e6, scan_bps=280e6),
}

#: Fault-tolerance design-choice matrix (paper Table I), derived from the
#: system definitions above so the table always reflects the code.
TABLE1_SYSTEMS = {
    "Trino": "trino",
    "SparkSQL": "spark",
    "Quokka": "quokka",
}

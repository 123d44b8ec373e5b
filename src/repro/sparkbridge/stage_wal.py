"""Write-ahead lineage on real Spark (the repro hint's integration).

We cannot kill JVM executors inside one pinned local session, so the
failure domain demonstrated here is the *driver/job*: a staged Spark
DataFrame pipeline whose per-stage lineage is journaled write-ahead, so
a crashed job resumes from its last committed stage instead of
recomputing the whole query — the same commit protocol as Algorithm 1 at
stage granularity:

1. compute the stage's DataFrame and write it to a *temporary* Parquet
   directory (execute + upstream-backup);
2. atomically rename it into place (publish);
3. append ``{stage, lineage: deps, path}`` to the journal (commit).

A consumer (the next run) only reads stage outputs whose journal record
exists *and* whose published path is present — the "consume only
committed lineage" invariant; a crash between (2) and (3) just recomputes
that stage. :class:`SimulatedCrash` models the paper's worker
pre-emption at stage boundaries.
"""
from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from pyspark.sql import DataFrame, SparkSession

from ..core.gcs import read_journal


class SimulatedCrash(RuntimeError):
    """Injected failure: the job process dies after a given stage."""


@dataclass
class SparkStage:
    """One stage of a staged Spark pipeline.

    ``deps`` name the stages (or registered base tables) whose
    DataFrames are passed to ``fn`` — this is the stage's lineage.
    """

    name: str
    deps: list[str]
    fn: Callable[[SparkSession, dict[str, DataFrame]], DataFrame]


class StagedWalRunner:
    """Executes a stage list with write-ahead lineage + resume."""

    def __init__(
        self,
        spark: SparkSession,
        stages: list[SparkStage],
        base_tables: dict[str, DataFrame],
        job_dir: str,
    ) -> None:
        names = [s.name for s in stages]
        if len(set(names)) != len(names):
            raise ValueError("duplicate stage names")
        known = set(base_tables)
        for s in stages:
            missing = [d for d in s.deps if d not in known]
            if missing:
                raise ValueError(f"stage {s.name}: unknown deps {missing}")
            known.add(s.name)
        self.spark = spark
        self.stages = stages
        self.base = base_tables
        self.job_dir = Path(job_dir)
        self.job_dir.mkdir(parents=True, exist_ok=True)
        self.journal_path = self.job_dir / "wal.jsonl"
        #: stage names actually recomputed by the last ``run`` call.
        self.recomputed: list[str] = []

    # -- journal -----------------------------------------------------------

    def _committed(self) -> dict[str, str]:
        """stage -> published path, for records whose output still exists.
        A torn last record (see :func:`read_journal`) is cut from the file,
        so the next commit starts its own line."""
        out: dict[str, str] = {}
        if not self.journal_path.exists():
            return out
        records, end = read_journal(self.journal_path)
        os.truncate(self.journal_path, end)
        for rec in records:
            if os.path.isdir(rec["path"]):
                out[rec["stage"]] = rec["path"]
        return out

    def _commit(self, stage: SparkStage, path: str) -> None:
        rec = {"stage": stage.name, "lineage": stage.deps, "path": path}
        with open(self.journal_path, "a") as fh:
            fh.write(json.dumps(rec) + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    # -- execution -----------------------------------------------------------

    def run(self, *, crash_after: Optional[str] = None) -> DataFrame:
        """Run (or resume) the pipeline; returns the final stage's frame.

        ``crash_after``: raise :class:`SimulatedCrash` right after that
        stage commits, leaving the journal behind for a resume run.
        """
        committed = self._committed()
        frames: dict[str, DataFrame] = dict(self.base)
        self.recomputed = []
        for st in self.stages:
            if st.name in committed:
                frames[st.name] = self.spark.read.parquet(committed[st.name])
                continue
            df = st.fn(self.spark, {d: frames[d] for d in st.deps})
            tmp = str(self.job_dir / f".tmp-{st.name}")
            final = str(self.job_dir / st.name)
            if os.path.isdir(tmp):
                shutil.rmtree(tmp)
            df.write.mode("overwrite").parquet(tmp)
            if os.path.isdir(final):
                shutil.rmtree(final)
            os.rename(tmp, final)  # publish atomically
            self._commit(st, final)  # write-ahead lineage commit
            frames[st.name] = self.spark.read.parquet(final)
            self.recomputed.append(st.name)
            if crash_after == st.name:
                raise SimulatedCrash(st.name)
        return frames[self.stages[-1].name]

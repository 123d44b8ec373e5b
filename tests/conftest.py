"""Shared fixtures for the test suite.

The engine substrate is pure Python/pandas, so most tests avoid Spark
entirely and run at SF=0.01 (~60k lineitem rows). The session-scoped
``spark`` fixture from the root conftest is used only by the SparkSQL
baseline and stage-WAL tests.
"""
from __future__ import annotations

import pytest

from repro import synth_data
from repro.engine.executor import ExecConfig, Executor, Failure, RunResult
from repro.queries.tpch import QUERIES

from .journal_audit import audit_journal

TEST_SF = 0.01
TEST_BATCHES = 16


@pytest.fixture(scope="session")
def db():
    return synth_data.tpch_db(sf=TEST_SF)


@pytest.fixture(scope="session")
def tables(db):
    return {k: synth_data.split_batches(v, TEST_BATCHES) for k, v in db.items()}


class EngineRunner:
    """Run queries on the engine with memoised results (failure tests
    reuse the no-failure run for the kill time). Every run's GCS journal
    must pass :func:`audit_journal`, and is kept for :meth:`journal`."""

    def __init__(self, db, tables):
        self.db = db
        self.tables = tables
        self._memo: dict = {}
        self._journals: dict = {}

    @staticmethod
    def _key(qname, pushdown, failure, cfg_kw) -> tuple:
        return (qname, pushdown, failure, tuple(sorted(cfg_kw.items())))

    def config(self, **kw) -> ExecConfig:
        kw.setdefault("n_workers", 4)
        return ExecConfig(**kw)

    def run(self, qname: str, *, pushdown: bool = True,
            failure: tuple[int, float] | None = None, **cfg_kw) -> RunResult:
        key = self._key(qname, pushdown, failure, cfg_kw)
        if key in self._memo:
            return self._memo[key]
        plan = QUERIES[qname].plan(self.db, pushdown=pushdown)
        failures = []
        if failure is not None:
            wid, frac = failure
            base = self.run(qname, pushdown=pushdown, **cfg_kw)
            failures = [Failure(wid, frac * base.sim_time)]
        ex = Executor(plan, self.tables, self.config(**cfg_kw))
        res = ex.run(failures)
        journal = ex.store.gcs.journal
        assert audit_journal(journal) == []
        self._memo[key] = res
        self._journals[key] = journal
        return res

    def journal(self, qname: str, *, pushdown: bool = True,
                failure: tuple[int, float] | None = None, **cfg_kw) -> list:
        """The GCS journal of the run :meth:`run` returns for these arguments."""
        self.run(qname, pushdown=pushdown, failure=failure, **cfg_kw)
        return self._journals[self._key(qname, pushdown, failure, cfg_kw)]


@pytest.fixture(scope="session")
def runner(db, tables):
    return EngineRunner(db, tables)

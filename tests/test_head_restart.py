"""Head-node restart: the GCS rebuilt from its journal file mid-run.

The paper keeps all coordinator state in the GCS, and anything written
there is persisted. So a head process that dies and is rebuilt from its
journal must leave the run exactly as it would have been: q3 (SF 0.003,
8 batches, 4 workers, worker 1 killed at half the failure-free run's
simulated time) restarts its GCS with :meth:`Gcs.recover_from_journal`
just before one event, for every event in turn, and must match the
uninterrupted run in simulated time, stats, journal bytes and result
frame, and pass the journal audit.
"""
import pandas as pd

from repro import synth_data
from repro.core.gcs import Gcs
from repro.engine.executor import ExecConfig, Executor, Failure
from repro.queries.tpch import QUERIES

from .journal_audit import audit_journal

_DB = synth_data.tpch_db(sf=0.003)
_TABLES = {k: synth_data.split_batches(v, 8) for k, v in _DB.items()}


class _Restarting(Executor):
    """An executor whose GCS is rebuilt from its journal just before its
    ``restart_at``-th event (1-based; 0 never); it records the kind of
    every event it applies."""

    def __init__(self, *args, restart_at: int = 0, **kw):
        super().__init__(*args, **kw)
        self.restart_at = restart_at
        self.events: list[str] = []

    def _event(self, kind: str) -> None:
        self.events.append(kind)
        if len(self.events) == self.restart_at:
            self.store.gcs.close()
            self.store.gcs = Gcs.recover_from_journal(self.cfg.journal_path)

    def _apply_done(self, now, task):
        self._event(task.kind)
        super()._apply_done(now, task)

    def _apply_fail(self, now, wid):
        self._event("fail")
        super()._apply_fail(now, wid)

    def _apply_detect(self, now):
        self._event("detect")
        super()._apply_detect(now)

    def _apply_recover(self, now):
        self._event("recover")
        super()._apply_recover(now)


def _run(path, failures=(), restart_at=0):
    """(executor, result, journal bytes) of one q3 run journaling to ``path``."""
    cfg = ExecConfig(n_workers=4, journal_path=str(path))
    ex = _Restarting(QUERIES["q3"].plan(_DB), _TABLES, cfg, restart_at=restart_at)
    res = ex.run(list(failures))
    ex.store.gcs.close()
    return ex, res, path.read_bytes()


def test_head_restart_at_any_event_changes_nothing(tmp_path):
    normal = _run(tmp_path / "normal.jsonl")[1]
    failures = [Failure(1, 0.5 * normal.sim_time)]
    ex, base, journal = _run(tmp_path / "base.jsonl", failures)
    assert base.stats["n_recoveries"] == 1 and base.stats["n_replays"] > 0
    assert "replay" in ex.events and "rescan" in ex.events
    for k in range(1, len(ex.events) + 1):
        path = tmp_path / f"restart{k}.jsonl"
        ex2, res, journal2 = _run(path, failures, restart_at=k)
        where = f"GCS restarted before event {k} ({ex.events[k - 1]})"
        assert repr(res.sim_time) == repr(base.sim_time), where
        assert res.stats == base.stats, where
        assert journal2 == journal, where
        pd.testing.assert_frame_equal(res.df, base.df, check_exact=True, obj=where)
        assert audit_journal(ex2.store.gcs.journal) == [], where
        path.unlink()


"""Deterministic kill-point sweep: one failure at every event boundary.

Between two task completions nothing the coordinator can observe
changes, so killing a worker just after each distinct completion time
of the failure-free run covers every schedule of one failure of that
worker. q3 and q9 (SF 0.003, 8 batches, 4 workers) are swept for
workers 1 and 0. Each killed run must give the failure-free result, pass
the Algorithm 1 journal audit, and show no global rollback: a channel
that was not rewound ran exactly one task per committed lineage record.
"""
import numpy as np
import pytest

from repro import oracle, synth_data
from repro.engine.executor import ExecConfig, Executor, Failure
from repro.queries.tpch import QUERIES

from .journal_audit import audit_journal

_DB = synth_data.tpch_db(sf=0.003)
_TABLES = {k: synth_data.split_batches(v, 8) for k, v in _DB.items()}


class _Timed(Executor):
    """An executor that records the simulated time of every completion."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.completions: list[float] = []

    def _apply_done(self, now, task):
        self.completions.append(now)
        super()._apply_done(now, task)


def _executor(qname, cls=Executor):
    return cls(QUERIES[qname].plan(_DB), _TABLES, ExecConfig(n_workers=4))


_BASE = {}


def _baseline(qname):
    """(failure-free result, its distinct completion times)."""
    if qname not in _BASE:
        ex = _executor(qname, _Timed)
        res = ex.run()
        _BASE[qname] = (res, sorted(set(ex.completions)))
    return _BASE[qname]


@pytest.mark.parametrize("wid", [1, 0])
@pytest.mark.parametrize("qname", ["q3", "q9"])
def test_kill_just_after_every_completion(qname, wid):
    base, times = _baseline(qname)
    assert len(times) > 100
    for t in times:
        ex = _executor(qname)
        res = ex.run([Failure(wid, float(np.nextafter(t, np.inf)))])
        where = f"{qname}, worker {wid} killed just after t={t!r}"
        # a kill after the last completion finds the query done
        assert res.stats["n_recoveries"] == (t < times[-1]), where
        assert audit_journal(ex.store.gcs.journal) == [], where
        oracle.assert_same_rows(res.df, base.df)
        rewound = {cid for batch in res.stats["rewound"] for cid in batch}
        for cid, n in res.stats["exec_count"].items():
            if cid not in rewound:
                assert n == ex.store.lineage_len(cid), f"{where}: {cid}"

"""Hypothesis property tests for the fault-tolerance protocol.

The central property of write-ahead lineage: for ANY failure schedule,
the query result equals the failure-free result.
"""
import pandas as pd
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import synth_data
from repro.engine.executor import ExecConfig, Executor, Failure
from repro.queries.tpch import QUERIES

from .journal_audit import audit_journal

_DB = synth_data.tpch_db(sf=0.003)
_TABLES = {k: synth_data.split_batches(v, 8) for k, v in _DB.items()}
_BASE = {}


def _baseline(qname):
    if qname not in _BASE:
        ex = Executor(QUERIES[qname].plan(_DB), _TABLES, ExecConfig(n_workers=4))
        _BASE[qname] = _run(ex)
    return _BASE[qname]


def _sorted(df):
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _run(ex, failures=()):
    """Run ``ex`` and check its journal against Algorithm 1."""
    res = ex.run(failures)
    assert audit_journal(ex.store.gcs.journal) == []
    return res


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    qname=st.sampled_from(["q6", "q3", "q9"]),
    wid=st.integers(min_value=0, max_value=3),
    frac=st.floats(min_value=0.02, max_value=0.98),
)
def test_any_single_failure_preserves_result(qname, wid, frac):
    base = _baseline(qname)
    ex = Executor(QUERIES[qname].plan(_DB), _TABLES, ExecConfig(n_workers=4))
    res = _run(ex, [Failure(wid, frac * base.sim_time)])
    pd.testing.assert_frame_equal(_sorted(res.df), _sorted(base.df))


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    fracs=st.lists(
        st.floats(min_value=0.05, max_value=0.95), min_size=2, max_size=2
    ),
    wids=st.permutations([0, 1, 2]),
)
def test_any_double_failure_preserves_result(fracs, wids):
    base = _baseline("q3")
    ex = Executor(QUERIES["q3"].plan(_DB), _TABLES, ExecConfig(n_workers=4))
    failures = [
        Failure(wids[i], f * base.sim_time) for i, f in enumerate(sorted(fracs))
    ]
    res = _run(ex, failures)
    pd.testing.assert_frame_equal(_sorted(res.df), _sorted(base.df))


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    wid=st.integers(min_value=0, max_value=3),
    frac=st.floats(min_value=0.05, max_value=0.95),
    ft=st.sampled_from(["wal", "spool_s3", "none"]),
)
def test_failure_under_any_ft_mode_preserves_result(wid, frac, ft):
    base = _baseline("q6")
    cfg = ExecConfig(n_workers=4, ft_mode=ft)
    norm = _run(Executor(QUERIES["q6"].plan(_DB), _TABLES, cfg))
    ex = Executor(
        QUERIES["q6"].plan(_DB), _TABLES, ExecConfig(n_workers=4, ft_mode=ft)
    )
    res = _run(ex, [Failure(wid, frac * norm.sim_time)])
    pd.testing.assert_frame_equal(_sorted(res.df), _sorted(base.df))


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    k=st.integers(min_value=1, max_value=12),
    mode=st.sampled_from(["pipelined", "stagewise"]),
)
def test_result_invariant_to_scheduling(k, mode):
    """Result is independent of dependency/exec mode — the schedule only
    changes *which* lineage gets logged, never the answer."""
    base = _baseline("q3")
    ex = Executor(
        QUERIES["q3"].plan(_DB), _TABLES,
        ExecConfig(n_workers=4, dep_mode="static", static_batch=k,
                   exec_mode=mode),
    )
    res = _run(ex)
    pd.testing.assert_frame_equal(_sorted(res.df), _sorted(base.df))

"""Engine correctness in normal (failure-free) execution.

Every query runs through the engine and is checked row-for-row against
DuckDB over the same input — across execution modes, dependency modes,
FT modes, and cluster widths.
"""
import pytest

from repro import oracle
from repro.engine.executor import ExecConfig, Executor, Failure
from repro.queries.tpch import QUERIES, REPRESENTATIVE


def check(runner, qname, **kw):
    res = runner.run(qname, **kw)
    oracle.assert_equivalent(res.df, QUERIES[qname].sql, **runner.db)
    return res


@pytest.mark.parametrize("qname", list(QUERIES))
def test_query_correct_default_config(runner, qname):
    check(runner, qname)


@pytest.mark.parametrize("qname", list(QUERIES))
def test_query_correct_without_pushdown(runner, qname):
    check(runner, qname, pushdown=False)


@pytest.mark.parametrize("qname", REPRESENTATIVE)
def test_query_correct_stagewise(runner, qname):
    check(runner, qname, exec_mode="stagewise")


@pytest.mark.parametrize("qname", ["q1", "q3", "q9"])
@pytest.mark.parametrize("k", [2, 8])
def test_query_correct_static_deps(runner, qname, k):
    check(runner, qname, dep_mode="static", static_batch=k)


@pytest.mark.parametrize("qname", ["q6", "q5"])
@pytest.mark.parametrize("ft", ["none", "spool_s3", "spool_hdfs", "checkpoint"])
def test_query_correct_other_ft_modes(runner, qname, ft):
    check(runner, qname, ft_mode=ft)


@pytest.mark.parametrize("qname", ["q3", "q9"])
@pytest.mark.parametrize("workers", [2, 8])
def test_query_correct_other_cluster_sizes(runner, qname, workers):
    check(runner, qname, n_workers=workers)


@pytest.mark.parametrize("qname", ["q1", "q9"])
def test_deterministic_sim_times(runner, qname):
    """Two identical runs produce identical simulated times and results
    (the DES is fully deterministic — a prerequisite for replay tests)."""
    from repro.engine.executor import Executor, ExecConfig

    plan_a = QUERIES[qname].plan(runner.db)
    plan_b = QUERIES[qname].plan(runner.db)
    a = Executor(plan_a, runner.tables, ExecConfig(n_workers=4)).run()
    b = Executor(plan_b, runner.tables, ExecConfig(n_workers=4)).run()
    assert a.sim_time == b.sim_time
    assert a.stats["n_tasks"] == b.stats["n_tasks"]
    import pandas as pd

    pd.testing.assert_frame_equal(a.df, b.df)


def test_pushdown_shrinks_shuffled_bytes(runner):
    """Aggregation pushdown is what makes Quokka's cat-I spool volume
    negligible (paper §V-C) — partials must shuffle far less than rows."""
    with_pd = runner.run("q1", pushdown=True, ft_mode="spool_s3")
    without = runner.run("q1", pushdown=False, ft_mode="spool_s3")
    assert with_pd.stats["spooled_bytes"] < without.stats["spooled_bytes"]


def test_executor_single_use(runner, db, tables):
    from repro.engine.executor import Executor, ExecConfig

    ex = Executor(QUERIES["q6"].plan(db), tables, ExecConfig(n_workers=2))
    ex.run()
    with pytest.raises(RuntimeError, match="single-use"):
        ex.run()


def test_lineage_is_kb_sized(runner):
    """The headline claim: persisted lineage is KB-sized while the data
    moved is MB-sized. Measure the journal for a join-heavy query."""
    import json

    from repro.engine.executor import Executor, ExecConfig
    from repro.engine.util import pdf_nbytes

    plan = QUERIES["q9"].plan(runner.db)
    ex = Executor(plan, runner.tables, ExecConfig(n_workers=4))
    ex.run()
    lineage_bytes = sum(
        len(json.dumps(v))
        for v in ex.store.gcs.table("lineage").values()
    )
    data_bytes = sum(
        pdf_nbytes(b) for t in plan.tables() for b in runner.tables[t]
    )
    assert lineage_bytes < data_bytes / 50


@pytest.mark.parametrize(
    "kw",
    [
        {"ft_mode": "WAL"},
        {"exec_mode": "pipeline"},
        {"dep_mode": "Dynamic"},
        {"recovery_mode": "spark"},
        {"dep_mode": "static", "static_batch": 0},
        {"n_workers": 0},
    ],
)
def test_config_rejects_unknown_modes_and_bad_sizes(kw):
    with pytest.raises(ValueError):
        ExecConfig(**kw)


@pytest.mark.parametrize("wid", [-1, 4])
def test_run_rejects_failure_of_unknown_worker(db, tables, wid):
    ex = Executor(QUERIES["q6"].plan(db), tables, ExecConfig(n_workers=4))
    with pytest.raises(ValueError, match="worker"):
        ex.run([Failure(wid, 0.1)])


def test_executor_rejects_a_table_the_plan_scans_but_is_not_given(db, tables):
    partial = {k: v for k, v in tables.items() if k != "orders"}
    with pytest.raises(ValueError, match="q3: a scan reads table 'orders'"):
        Executor(QUERIES["q3"].plan(db), partial, ExecConfig(n_workers=4))


def test_executor_rejects_a_batch_that_is_not_a_column_batch(db, tables):
    """A frame from an older caller fails at construction, not mid-run."""
    batches = list(tables["lineitem"])
    batches[3] = batches[3].to_frame()
    with pytest.raises(TypeError, match="batch 3 of table 'lineitem' is a DataFrame"):
        Executor(QUERIES["q6"].plan(db), {**tables, "lineitem": batches},
                 ExecConfig(n_workers=4))

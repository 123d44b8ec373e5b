"""End-to-end write-ahead property: a query's full lineage is
reconstructible from the GCS journal file alone (head-process crash)."""
from repro.core.gcs import Gcs
from repro.core.wal import LineageStore
from repro.engine.executor import ExecConfig, Executor, Failure
from repro.queries.tpch import QUERIES


def test_engine_lineage_survives_head_crash(runner, tmp_path):
    path = str(tmp_path / "gcs.jsonl")
    ex = Executor(
        QUERIES["q3"].plan(runner.db), runner.tables,
        ExecConfig(n_workers=4, journal_path=path),
    )
    ex.run()
    ex.store.gcs.close()
    revived = LineageStore(Gcs.recover_from_journal(path))
    assert revived.all_lineage() == ex.store.all_lineage()
    assert revived.gcs.table("closed") == ex.store.gcs.table("closed")
    assert revived.assignments() == ex.store.assignments()
    revived.gcs.close()


def test_journal_after_failure_recovery(runner, tmp_path):
    """Recovery bookkeeping (reassignments, relocations) is journaled
    too — a second head crash after a worker failure loses nothing."""
    base = runner.run("q3")
    path = str(tmp_path / "gcs2.jsonl")
    ex = Executor(
        QUERIES["q3"].plan(runner.db), runner.tables,
        ExecConfig(n_workers=4, journal_path=path),
    )
    ex.run([Failure(1, 0.5 * base.sim_time)])
    ex.store.gcs.close()
    revived = LineageStore(Gcs.recover_from_journal(path))
    assert revived.all_lineage() == ex.store.all_lineage()
    # rewound channels' new homes are persisted
    assert revived.assignments() == ex.store.assignments()
    revived.gcs.close()

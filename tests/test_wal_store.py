"""LineageStore: Algorithm 1's commit protocol over the GCS."""
import pytest

from repro.core.gcs import Gcs
from repro.core.naming import ConsumeLineage, FlushLineage, ScanLineage
from repro.core.wal import DURABLE, LineageStore


@pytest.fixture()
def store():
    return LineageStore(Gcs())


def test_commit_appends_lineage_and_location(store):
    store.commit_task((1, 0), 0, ScanLineage(5), 2)
    assert store.lineage((1, 0)) == [ScanLineage(5)]
    assert store.location((1, 0, 0)) == 2
    assert store.is_committed((1, 0), 0)
    assert not store.is_committed((1, 0), 1)


def test_commit_is_one_transaction(store):
    n0 = store.gcs.txn_count
    store.commit_task((0, 0), 0, ScanLineage(0), 1, close_total=1)
    assert store.gcs.txn_count == n0 + 1
    assert store.closed_total((0, 0)) == 1


def test_out_of_order_commit_rejected(store):
    store.commit_task((0, 0), 0, ScanLineage(0), 1)
    with pytest.raises(ValueError):
        store.commit_task((0, 0), 2, ScanLineage(2), 1)
    with pytest.raises(ValueError):
        store.commit_task((0, 0), 0, ScanLineage(0), 1)  # duplicate seq


def test_watermark_vector_from_lineage(store):
    cid = (2, 1)
    store.commit_task(cid, 0, ConsumeLineage((1, 0), 0, 3), 0)
    store.commit_task(cid, 1, ConsumeLineage((1, 1), 0, 2), 0)
    store.commit_task(cid, 2, ConsumeLineage((1, 0), 3, 4), 0)
    store.commit_task(cid, 3, FlushLineage(), 0, close_total=4)
    assert store.watermark(cid) == {(1, 0): 7, (1, 1): 2}
    assert store.closed_total(cid) == 4


def test_prune_locations_on_worker_death(store):
    store.commit_task((0, 0), 0, ScanLineage(0), 1)
    store.commit_task((0, 1), 0, ScanLineage(1), 2)
    store.commit_task((0, 2), 0, ScanLineage(2), DURABLE)
    store.prune_locations({1})
    assert store.location((0, 0, 0)) is None
    assert store.location((0, 1, 0)) == 2
    assert store.location((0, 2, 0)) == DURABLE  # durable survives failures


def test_assignments(store):
    store.set_assignment((0, 0), 3)
    store.set_assignment((1, 0), 1)
    assert store.assignments()[(0, 0)] == 3
    assert store.assignments() == {(0, 0): 3, (1, 0): 1}


def test_recovery_flag(store):
    assert store.recovery_flag() is False
    store.set_recovery_flag(True)
    assert store.recovery_flag() is True
    store.set_recovery_flag(False)
    assert store.recovery_flag() is False


def test_lineage_survives_head_crash(tmp_path):
    """The write-ahead property end-to-end: lineage committed via the
    store is reconstructible from the journal file alone."""
    path = str(tmp_path / "gcs.jsonl")
    store = LineageStore(Gcs(journal_path=path))
    store.commit_task((0, 0), 0, ScanLineage(0), 1)
    store.commit_task((1, 0), 0, ConsumeLineage((0, 0), 0, 1), 2)
    store.commit_task((1, 0), 1, FlushLineage(), 2, close_total=2)
    store.set_assignment((1, 0), 2)
    store.gcs.close()

    revived = LineageStore(Gcs.recover_from_journal(path))
    assert revived.lineage((1, 0)) == store.lineage((1, 0))
    assert revived.closed_total((1, 0)) == 2
    assert revived.watermark((1, 0)) == {(0, 0): 1}
    assert revived.assignments() == {(1, 0): 2}
    revived.gcs.close()


def test_all_lineage(store):
    store.commit_task((0, 0), 0, ScanLineage(0), 1)
    store.commit_task((1, 0), 0, ConsumeLineage((0, 0), 0, 1), 1)
    al = store.all_lineage()
    assert set(al) == {(0, 0), (1, 0)}
    assert al[(0, 0)] == [ScanLineage(0)]

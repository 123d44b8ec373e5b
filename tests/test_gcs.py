"""GCS: transactional KV store with a write-ahead journal."""
import pytest

from repro.core.gcs import Gcs, TransactionError, read_journal


def test_set_get():
    g = Gcs()
    g.set("ns", "k", 1)
    assert g.get("ns", "k") == 1
    assert g.get("ns", "missing") is None
    assert g.get("ns", "missing", 7) == 7


def test_append_builds_list():
    g = Gcs()
    g.transaction([["append", "lin", "c", 1]])
    g.transaction([["append", "lin", "c", 2]])
    assert g.get("lin", "c") == [1, 2]


def test_delete():
    g = Gcs()
    g.set("ns", "k", 1)
    g.transaction([["del", "ns", "k"]])
    assert g.get("ns", "k") is None
    g.transaction([["del", "ns", "never-existed"]])  # deleting absent keys is a no-op


def test_multi_op_transaction_atomic_apply():
    g = Gcs()
    g.transaction(
        [["set", "a", "x", 1], ["append", "b", "y", 2], ["del", "a", "z"]]
    )
    assert g.get("a", "x") == 1 and g.get("b", "y") == [2]
    assert g.txn_count == 1


def test_malformed_transaction_rejected_entirely():
    g = Gcs()
    with pytest.raises(TransactionError):
        g.transaction([["set", "a", "x", 1], ["bogus", "a", "y", 2]])
    # write-ahead validation: nothing applied, nothing journaled
    assert g.get("a", "x") is None
    assert g.txn_count == 0
    assert g.journal == []


def test_table_returns_copy():
    g = Gcs()
    g.set("ns", "k", 1)
    t = g.table("ns")
    t["k"] = 999
    assert g.get("ns", "k") == 1


def test_replay_reconstructs_state():
    g = Gcs()
    g.set("a", "x", 1)
    g.transaction([["append", "l", "c", [1, 2]], ["set", "a", "y", 3]])
    g.transaction([["del", "a", "x"]])
    g2 = Gcs.replay(g.journal)
    assert g2.table("a") == g.table("a")
    assert g2.table("l") == g.table("l")


def test_journal_file_persistence_and_crash_recovery(tmp_path):
    path = str(tmp_path / "wal.jsonl")
    g = Gcs(journal_path=path)
    g.transaction([["append", "lineage", "0.1", ["S", 3]]])
    g.transaction(
        [["append", "lineage", "0.1", ["C", 0, 1, 0, 4]],
         ["set", "closed", "0.1", 2]]
    )
    g.close()  # head process "crashes"
    g2 = Gcs.recover_from_journal(path)
    assert g2.get("lineage", "0.1") == [["S", 3], ["C", 0, 1, 0, 4]]
    assert g2.get("closed", "0.1") == 2


def _journal_of_three(path):
    g = Gcs(journal_path=str(path))
    g.transaction([["append", "lineage", "0.1", ["S", 3]]])
    g.transaction([["set", "loc", "0.1.0", 2], ["set", "closed", "0.1", 1]])
    g.transaction([["set", "loc", "0.1.0", 3], ["del", "closed", "0.1"]])
    g.close()
    return g


def test_torn_journal_tail_is_dropped(tmp_path):
    """A head crash mid-write tears the last line: recovery drops it and
    rebuilds the store as it was before that transaction. A line whose
    newline was not written is torn too."""
    path = tmp_path / "wal.jsonl"
    g = _journal_of_three(path)
    data = path.read_bytes()
    last = data.rstrip(b"\n").rfind(b"\n") + 1
    want = Gcs.replay(g.journal[:2])
    for cut in (len(data) - 7, last + 1, len(data) - 2, len(data) - 1):
        path.write_bytes(data[:cut])
        # the records kept, and the bytes they fill: where the next goes
        assert read_journal(path) == (want.journal, last)
        g2 = Gcs.recover_from_journal(str(path))
        assert g2.journal == want.journal
        assert g2.table("loc") == {"0.1.0": 2}
        assert g2.get("closed", "0.1") == 1
    path.write_bytes(data[:last])  # cut on a line boundary: nothing torn
    assert Gcs.recover_from_journal(str(path)).journal == want.journal


def test_corrupt_journal_line_before_the_tail_raises(tmp_path):
    path = tmp_path / "wal.jsonl"
    _journal_of_three(path)
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = lines[1][: len(lines[1]) // 2] + "\n"
    path.write_text("".join(lines))
    with pytest.raises(TransactionError, match="line 2"):
        Gcs.recover_from_journal(str(path))


def test_journal_written_before_apply(tmp_path):
    """Write-ahead property: the journal line exists on disk by the time
    the transaction is visible in the store."""
    path = str(tmp_path / "wal.jsonl")
    g = Gcs(journal_path=path)
    g.set("ns", "k", 42)
    with open(path) as fh:
        lines = fh.readlines()
    assert len(lines) == 1
    assert '"k"' in lines[0]


def test_append_to_non_list_rejected_entirely(tmp_path):
    path = tmp_path / "journal.jsonl"
    g = Gcs(str(path))
    g.set("a", "k", 1)
    before = (g.table("a"), g.journal, g.txn_count, path.read_text())
    with pytest.raises(TransactionError):
        g.transaction([["set", "a", "j", 5], ["append", "a", "k", 2]])
    # an earlier op of the same transaction decides the target too
    with pytest.raises(TransactionError):
        g.transaction([["append", "a", "m", 1], ["set", "a", "m", 3],
                       ["append", "a", "m", 4]])
    assert (g.table("a"), g.journal, g.txn_count, path.read_text()) == before
    g.transaction([["del", "a", "k"], ["append", "a", "k", 2],
                   ["set", "a", "n", [1]], ["append", "a", "n", 2]])
    assert g.get("a", "k") == [2] and g.get("a", "n") == [1, 2]
    g.close()


def _rejected(g, path, ops):
    """``ops`` raise TransactionError and leave the store as it was."""
    before = (g.table("a"), g.journal, g.txn_count, path.read_text())
    with pytest.raises(TransactionError):
        g.transaction(ops)
    assert (g.table("a"), g.journal, g.txn_count, path.read_text()) == before


@pytest.fixture()
def journaled(tmp_path):
    path = tmp_path / "journal.jsonl"
    g = Gcs(str(path))
    g.set("a", "k", 1)
    yield g, path
    g.close()


def test_empty_op_rejected_entirely(journaled):
    g, path = journaled
    _rejected(g, path, [["set", "a", "j", 2], []])


def test_unhashable_namespace_or_key_rejected_entirely(journaled):
    g, path = journaled
    _rejected(g, path, [["set", "a", "j", 2], ["set", ["a"], "k", 3]])
    _rejected(g, path, [["set", "a", "j", 2], ["append", "a", ["k"], 3]])
    _rejected(g, path, [["set", "a", "j", 2], ["del", "a", {"k": 1}]])


def test_unserialisable_value_rejected_with_or_without_journal(journaled):
    g, path = journaled
    _rejected(g, path, [["set", "a", "j", 2], ["set", "a", "k", object()]])
    _rejected(g, path, [["append", "a", "j", {1, 2}]])
    g2 = Gcs()
    with pytest.raises(TransactionError):
        g2.transaction([["set", "a", "j", 2], ["set", "a", "k", object()]])
    assert (g2.table("a"), g2.journal, g2.txn_count) == ({}, [], 0)

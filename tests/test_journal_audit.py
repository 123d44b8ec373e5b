"""The offline Algorithm 1 audit flags each kind of broken journal.

Engine runs are audited where they happen (``EngineRunner.run`` and the
property tests); this checks the audit itself on hand-built journals.
"""
from .journal_audit import audit_journal

#: Channel 0.0 commits two scans and closes; 1.0 consumes both.
CLEAN = [
    [["append", "lineage", "0.0", ["S", 0]], ["set", "loc", "0.0.0", 0]],
    [["append", "lineage", "0.0", ["S", 1]], ["set", "loc", "0.0.1", 0],
     ["set", "closed", "0.0", 2]],
    [["append", "lineage", "1.0", ["C", 0, 0, 0, 2]], ["set", "loc", "1.0.0", 1]],
]


def test_clean_journal_passes():
    assert audit_journal(CLEAN) == []
    # a range may start past the previous end (skipped empty slices)
    gap = CLEAN[:2] + [
        [["append", "lineage", "1.0", ["C", 0, 0, 1, 1]]],
        [["set", "flag", "recovery", True]],
    ]
    assert audit_journal(gap) == []


def test_every_violation_is_reported():
    journal = CLEAN + [
        # 1.0 consumes output 1 of 0.0 again: overlaps its [0, 2)
        [["append", "lineage", "1.0", ["C", 0, 0, 1, 1]]],
        # 1.1 consumes from 0.1 before 0.1 commits anything
        [["append", "lineage", "1.1", ["C", 0, 1, 0, 1]]],
        [["append", "lineage", "0.1", ["S", 2]]],
        # 1.2 consumes two outputs of 0.2, whose closed total is one
        [["append", "lineage", "0.2", ["S", 3]]],
        [["append", "lineage", "0.2", ["S", 4]], ["set", "closed", "0.2", 1]],
        [["append", "lineage", "1.2", ["C", 0, 2, 0, 2]]],
    ]
    v = audit_journal(journal)
    assert len(v) == 3, v
    assert "txn 3: (1, 0)" in v[0] and "before the end of its previous range, 2" in v[0]
    assert "txn 4: (1, 1)" in v[1] and "with only 0 committed" in v[1]
    assert "(1, 2) consumes (0, 2) up to 2, past its closed total 1" in v[2]

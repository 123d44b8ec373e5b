"""Algorithm 2 (recovery planner) on synthetic lineage."""
import pytest

from repro.core.gcs import Gcs
from repro.core.naming import ConsumeLineage, FlushLineage, ScanLineage
from repro.core.recovery import plan_recovery
from repro.core.wal import DURABLE, LineageStore


def _pipeline_store(*, scan_worker=None):
    """Two-stage pipeline: scan stage 0 (2 channels, 2 outputs each) ->
    stateful stage 1 (2 channels). Channel (s, c) lives on worker c
    unless overridden."""
    st = LineageStore(Gcs())
    for ch in range(2):
        w = scan_worker if scan_worker is not None else ch
        st.commit_task((0, ch), 0, ScanLineage(ch), w)
        st.commit_task((0, ch), 1, ScanLineage(ch + 2), w, close_total=2)
        st.set_assignment((0, ch), w)
    for ch in range(2):
        st.commit_task((1, ch), 0, ConsumeLineage((0, 0), 0, 2), ch)
        st.commit_task((1, ch), 1, ConsumeLineage((0, 1), 0, 2), ch)
        st.set_assignment((1, ch), ch)
    return st


def _chain(n_stages):
    """Wiring of a one-channel-per-stage chain 0 -> 1 -> ... -> n-1."""
    wiring = {(0, 0): []}
    for stage in range(1, n_stages):
        wiring[(stage, 0)] = [(stage - 1, 0)]
    return wiring


TOPO = dict(
    upstream_channels={
        (0, 0): [],
        (0, 1): [],
        (1, 0): [(0, 0), (0, 1)],
        (1, 1): [(0, 0), (0, 1)],
    },
    input_stages={0},
)


def test_only_failed_channels_rewound():
    st = _pipeline_store()
    plan = plan_recovery(st, dead_workers={1}, live_workers=[0, 2], **TOPO)
    assert plan.rewound == [(1, 1)]
    # scan channel (0,1) had CLOSED before the failure: no outstanding
    # tasks, so it is not rewound — its lost outputs become rescans.
    assert plan.rewound_inputs == []
    assert {r.name for r in plan.rescans} == {(0, 1, 0), (0, 1, 1)}
    assert (1, 0) not in plan.new_assignments  # no global rollback


def test_replays_from_live_backups():
    st = _pipeline_store(scan_worker=0)  # all scan outputs live on worker 0
    plan = plan_recovery(st, dead_workers={1}, live_workers=[0, 2], **TOPO)
    # stage-1 channel 1 is rewound; all four scan outputs replay from w0
    assert plan.rewound == [(1, 1)]
    assert plan.rewound_inputs == []
    sources = {r.source for r in plan.replays}
    assert sources == {(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)}
    assert all(r.owner == 0 and r.dest == (1, 1) for r in plan.replays)
    assert plan.rescans == []


def test_lost_scans_become_data_parallel_rescans():
    st = _pipeline_store()  # scan channel 1 lives on dead worker 1
    plan = plan_recovery(st, dead_workers={1}, live_workers=[0, 2], **TOPO)
    names = {r.name for r in plan.rescans}
    assert names == {(0, 1, 0), (0, 1, 1)}
    # correct source batch indices recovered from lineage
    by_name = {r.name: r.batch_idx for r in plan.rescans}
    assert by_name == {(0, 1, 0): 1, (0, 1, 1): 3}
    # spread over live workers (any node may rescan)
    assert {r.worker for r in plan.rescans} <= {0, 2}
    # no replay for outputs covered by a rescan
    assert all(r.source not in names for r in plan.replays)


def test_pipelined_parallel_placement():
    """Rewound channels from different stages go to different workers."""
    st = LineageStore(Gcs())
    for stage in (1, 2, 3):
        st.commit_task((stage, 0), 0, FlushLineage(), 5)
        st.set_assignment((stage, 0), 5)
    st.set_assignment((0, 0), 0)
    st.commit_task((0, 0), 0, ScanLineage(0), 0, close_total=1)
    plan = plan_recovery(
        st,
        upstream_channels=_chain(4),
        input_stages={0},
        dead_workers={5},
        live_workers=[0, 1, 2],
    )
    assert plan.rewound == [(1, 0), (2, 0), (3, 0)]
    workers = [plan.new_assignments[c] for c in plan.rewound]
    assert len(set(workers)) == 3  # one stage per worker


def test_transitive_rewind_when_backup_lost():
    """A needed input with no surviving backup rewinds its producer,
    recursively (reverse topological traversal)."""
    st = LineageStore(Gcs())
    st.set_assignment((0, 0), 0)
    st.commit_task((0, 0), 0, ScanLineage(0), 0, close_total=1)
    # stage 1 on worker 1 produced an output consumed by stage 2 on worker 2;
    # worker 1's backup dies with it.
    st.set_assignment((1, 0), 1)
    st.commit_task((1, 0), 0, ConsumeLineage((0, 0), 0, 1), 1)
    st.set_assignment((2, 0), 2)
    st.commit_task((2, 0), 0, ConsumeLineage((1, 0), 0, 1), 2)
    st.prune_locations({1, 2})
    plan = plan_recovery(
        st,
        upstream_channels=_chain(3),
        input_stages={0},
        dead_workers={1, 2},
        live_workers=[0],
    )
    assert set(plan.rewound) == {(1, 0), (2, 0)}
    # scan output survives on worker 0 -> replay, not rescan
    assert any(r.source == (0, 0, 0) and r.dest == (1, 0) for r in plan.replays)


def test_durable_locations_survive(tmp_path):
    st = _pipeline_store()
    # overwrite scan output locations as spooled
    for ch in range(2):
        for seq in range(2):
            st.set_location((0, ch, seq), DURABLE)
    plan = plan_recovery(st, dead_workers={1}, live_workers=[0, 2], **TOPO)
    durable_replays = [r for r in plan.replays if r.owner == DURABLE]
    assert durable_replays  # spooled partitions are replayed, not rescanned
    assert not plan.rescans


def test_no_live_workers_raises():
    st = _pipeline_store()
    with pytest.raises(RuntimeError, match="no live workers"):
        plan_recovery(st, dead_workers={0, 1}, live_workers=[], **TOPO)


def test_no_failure_no_work():
    st = _pipeline_store()
    plan = plan_recovery(st, dead_workers={9}, live_workers=[0, 1], **TOPO)
    assert not plan.rewound and not plan.replays and not plan.rescans

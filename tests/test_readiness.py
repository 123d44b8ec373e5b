"""The executor's one readiness rule, and its take-or-flush choice.

A channel is built only when it is marked: an input was delivered to
it, its own task completed, an upstream closed, or recovery ran. A
clean channel's build would return no task, so skipping it must change
nothing: against a reference that marks every channel before every
scheduling pass (the poll-everything executor), simulated time, stats,
the GCS journal and the result are identical, with and without a
failure. The second half pins the take-or-flush rule of
``_build_streaming`` on hand-built inboxes, and that a build walks only
the upstreams touched since the last one.
"""
import hashlib
import heapq
import itertools
import json

import pandas as pd
import pytest

from repro import synth_data
from repro.core.naming import ConsumeLineage, FlushLineage, ScanLineage
from repro.core.wal import LineageStore
from repro.engine.executor import DYNAMIC_MIN, ExecConfig, Executor, Failure, Task
from repro.engine.operators import Operator
from repro.engine.partition import partition
from repro.engine.plan import OpStage, Plan, ScanStage
from repro.engine.util import as_columns
from repro.queries.tpch import QUERIES

# the kill-point sweep's data: small enough to run every mode twice
_DB = synth_data.tpch_db(sf=0.003)
_TABLES = {k: synth_data.split_batches(v, 8) for k, v in _DB.items()}


class _Polling(Executor):
    """The reference: every channel is built on every pass, and every
    build walks all of its upstreams from scratch."""

    def _schedule_pass(self, now):
        for cid, rt in self.channels.items():
            rt.reset_runs()
            self._mark(cid)
        super()._schedule_pass(now)


def _run(cls, qname, cfg, failures=()):
    ex = cls(QUERIES[qname].plan(_DB), _TABLES, cfg)
    res = ex.run(list(failures))
    journal = hashlib.sha256(json.dumps(ex.store.gcs.journal).encode()).hexdigest()
    return res, journal


def _assert_same(got, want):
    (res, journal), (ref, ref_journal) = got, want
    assert repr(res.sim_time) == repr(ref.sim_time)
    assert res.stats == ref.stats
    assert journal == ref_journal
    pd.testing.assert_frame_equal(res.df, ref.df, check_exact=True)


# every execution, dependency and output-durability mode, and Spark-sim's
# data-parallel recovery with a stagewise and with a pipelined executor
MODES = [
    dict(exec_mode=e, dep_mode=d, static_batch=2, ft_mode=f, recovery_mode=r)
    for e, d, f, r in itertools.chain(
        itertools.product(
            ("pipelined", "stagewise"),
            ("dynamic", "static"),
            ("wal", "spool_s3"),
            ("pipelined_parallel",),
        ),
        [
            ("stagewise", "dynamic", "wal", "data_parallel"),
            ("pipelined", "static", "spool_s3", "data_parallel"),
        ],
    )
]


@pytest.mark.parametrize("qname", ["q3", "q9"])
@pytest.mark.parametrize(
    "mode", MODES, ids=["-".join(str(v) for v in m.values()) for m in MODES]
)
def test_marked_channels_schedule_as_polling_does(qname, mode):
    cfg = ExecConfig(n_workers=4, **mode)
    ref = _run(_Polling, qname, cfg)
    _assert_same(_run(Executor, qname, cfg), ref)
    kill = [Failure(1, 0.5 * ref[0].sim_time)]
    killed = _run(_Polling, qname, cfg, kill)
    assert killed[0].stats["n_recoveries"] == 1
    _assert_same(_run(Executor, qname, cfg, kill), killed)


# ------------------------------------------------------- take or flush


class _Recorder(Operator):
    def __init__(self):
        self.seen = []

    def on_batch(self, upstream_idx, batch):
        self.seen.append((upstream_idx, len(batch)))
        return None


_ROWS = partition(as_columns(pd.DataFrame({"k": [1, 2, 3]})), [], 1)[0]
U0, U1 = (0, 0), (1, 0)


def _channel(**cfg):
    """An executor and its one consumer channel, which reads two
    single-channel upstreams ``U0`` and ``U1``."""
    tables = {"a": [as_columns(pd.DataFrame({"k": [1]}))],
              "b": [as_columns(pd.DataFrame({"k": [1]}))]}
    plan = Plan(
        "two-way",
        [
            ScanStage("a", n_channels=1),
            ScanStage("b", n_channels=1),
            OpStage(_Recorder, [0, 1], [[], []], n_channels=1),
        ],
    )
    ex = Executor(plan, tables, ExecConfig(n_workers=1, **cfg))
    return ex, ex.channels[(2, 0)]


def _wide_channel(n):
    """An executor and its one consumer channel, which reads the ``n``
    channels of one scan stage."""
    tables = {"a": [as_columns(pd.DataFrame({"k": [1]}))] * n}
    plan = Plan(
        "wide",
        [ScanStage("a", n_channels=n), OpStage(_Recorder, [0], [[]], n_channels=1)],
    )
    ex = Executor(plan, tables, ExecConfig(n_workers=1))
    return ex, ex.channels[(1, 0)]


def _commit(ex, u, n, close=False):
    """Commit ``n`` more outputs of ``u``, the last one closing it."""
    for i in range(n):
        seq = ex.store.lineage_len(u)
        total = seq + 1 if close and i == n - 1 else None
        ex.store.commit_task(u, seq, ScanLineage(seq), 0, total)


def _deliver(ex, rt, u, seqs, empty=()):
    for seq in seqs:
        ex._deliver(rt.cid, u, seq, None if seq in empty else _ROWS, "stream")


def _taken(task):
    """(upstream, start, count) of a stream task's one record."""
    (rec,) = task.records
    assert isinstance(rec, ConsumeLineage)
    return rec.upstream, rec.start, rec.count


def test_dynamic_takes_a_short_run_only_from_a_closed_upstream():
    n = DYNAMIC_MIN - 1
    ex, rt = _channel()
    _commit(ex, U0, n)
    _deliver(ex, rt, U0, range(n))
    assert ex._build_streaming(rt) is None  # open, and short of the minimum
    ex, rt = _channel()
    _commit(ex, U0, n, close=True)
    _deliver(ex, rt, U0, range(n - 1))
    assert ex._build_streaming(rt) is None  # closed, but one still to come
    _deliver(ex, rt, U0, [n - 1])
    assert _taken(ex._build_streaming(rt)) == (U0, 0, n)
    assert rt.watermark[U0] == n and rt.op.seen == [(0, n * len(_ROWS))]


def test_dynamic_takes_everything_available_once_at_the_minimum():
    ex, rt = _channel()
    _commit(ex, U0, DYNAMIC_MIN + 3)
    _deliver(ex, rt, U0, range(DYNAMIC_MIN + 2))
    assert _taken(ex._build_streaming(rt)) == (U0, 0, DYNAMIC_MIN + 2)


def test_static_takes_exactly_k_or_the_closed_remainder():
    for close, last in ((False, None), (True, (U0, 6, 1))):
        ex, rt = _channel(dep_mode="static", static_batch=3)
        _commit(ex, U0, 7, close=close)
        _deliver(ex, rt, U0, range(7))
        assert _taken(ex._build_streaming(rt)) == (U0, 0, 3)
        assert _taken(ex._build_streaming(rt)) == (U0, 3, 3)
        task = ex._build_streaming(rt)
        assert (task and _taken(task)) == last


def test_empty_slice_prefix_advances_the_watermark_without_a_task():
    ex, rt = _channel()
    _commit(ex, U0, 3)
    _deliver(ex, rt, U0, range(3), empty=(0, 1))
    assert ex._build_streaming(rt) is None
    assert rt.watermark[U0] == 2 and list(rt.inbox[U0]) == [2]
    assert rt.op.seen == []
    # an empty slice after a non-empty one is consumed with the run
    _commit(ex, U0, DYNAMIC_MIN)
    _deliver(ex, rt, U0, range(3, 3 + DYNAMIC_MIN), empty=(3,))
    assert _taken(ex._build_streaming(rt)) == (U0, 2, DYNAMIC_MIN + 1)


def test_richest_upstream_wins_and_the_first_wins_a_tie():
    for n0, n1, want in ((5, 6, (U1, 0, 6)), (6, 5, (U0, 0, 6)), (5, 5, (U0, 0, 5))):
        ex, rt = _channel()
        _commit(ex, U0, n0)
        _commit(ex, U1, n1)
        _deliver(ex, rt, U0, range(n0))
        _deliver(ex, rt, U1, range(n1))
        assert _taken(ex._build_streaming(rt)) == want
    # static mode caps every run at K, so richer runs tie
    ex, rt = _channel(dep_mode="static", static_batch=2)
    _commit(ex, U0, 3)
    _commit(ex, U1, 5)
    _deliver(ex, rt, U0, range(3))
    _deliver(ex, rt, U1, range(5))
    assert _taken(ex._build_streaming(rt)) == (U0, 0, 2)


def test_flush_only_when_every_upstream_is_closed_and_consumed(monkeypatch):
    ex, rt = _channel()
    _commit(ex, U0, 1, close=True)
    _deliver(ex, rt, U0, [0], empty=(0,))
    assert ex._build_streaming(rt) is None  # U1 open
    _commit(ex, U1, 2, close=True)
    _deliver(ex, rt, U1, [0])
    assert ex._build_streaming(rt) is None  # U1's last output still to come
    _deliver(ex, rt, U1, [1])
    assert _taken(ex._build_streaming(rt)) == (U1, 0, 2)
    task = ex._build_streaming(rt)
    assert task.records == [FlushLineage()] and task.close == rt.next_seq + 1
    # the launched flush keeps the channel active, so it is not built
    # again however often it is marked, and its completion closes it
    w = ex.workers[rt.worker]
    ex._launch(0.0, w, rt, task)
    built = []
    monkeypatch.setattr(ex, "_build_task", built.append)
    ex._mark(rt.cid)
    assert not ex._launch_some_channel(0.0, w)
    assert rt.active and rt not in built
    ex.paused = True  # apply the completion without a scheduling pass
    ex._apply_done(0.0, heapq.heappop(ex._heap)[2])
    assert rt.done and not rt.active
    assert ex.store.closed_total(rt.cid) == 1


# ------------------------------------------------------------- marking


def _clean(ex):
    """Clear every channel's mark, as its build would."""
    for rt in ex.channels.values():
        if rt.dirty:
            rt.dirty = False
            ex.marked[rt.worker] -= 1


def test_a_stream_delivery_marks_only_when_its_run_reaches_need():
    ex, rt = _channel()
    _clean(ex)
    _deliver(ex, rt, U0, [0], empty=(0,))
    # an empty slice at the watermark is skipped at delivery
    assert not rt.dirty and rt.watermark[U0] == 1 and not rt.inbox[U0]
    _deliver(ex, rt, U0, range(1, DYNAMIC_MIN))
    assert not rt.dirty  # one input short, and U0 open
    _deliver(ex, rt, U0, [DYNAMIC_MIN])
    assert rt.dirty and ex.marked[rt.worker] == 1


@pytest.mark.parametrize("kind", ["retrace", "replay", "rescan"])
def test_a_recovery_task_delivery_always_marks(kind):
    ex, rt = _channel()
    _clean(ex)
    ex._deliver(rt.cid, U0, 0, _ROWS, kind)
    assert rt.dirty


def test_a_delivery_to_a_retracing_channel_always_marks():
    ex, rt = _channel()
    rt.retrace_records = [ConsumeLineage(U0, 0, 2)]
    _clean(ex)
    _deliver(ex, rt, U0, [0], empty=(0,))
    # the empty slice stays: the retrace consumes exactly its logged inputs
    assert rt.dirty and rt.inbox[U0] == {0: None}


@pytest.mark.parametrize("exec_mode", ["pipelined", "stagewise"])
def test_a_close_marks_the_channels_that_read_it(exec_mode):
    """Each channel of an aligned stage reads one scan channel; only the
    close that opens a stagewise gate marks the whole stage."""
    tables = {"a": [as_columns(pd.DataFrame({"k": [1]}))] * 3}
    plan = Plan(
        "aligned",
        [ScanStage("a", n_channels=3), OpStage(_Recorder, [0], ["aligned"])],
    )
    ex = Executor(plan, tables, ExecConfig(n_workers=1, exec_mode=exec_mode))
    marked = []
    for ch in (1, 0, 2):
        _clean(ex)
        ex._apply_close((0, ch))
        marked.append([ex.channels[(1, c)].dirty for c in range(3)])
    last = [True] * 3 if exec_mode == "stagewise" else [False, False, True]
    assert marked == [[False, True, False], [True, False, False], last]


# ------------------------------------------------ per-upstream run state


def _count_closed_reads(monkeypatch):
    """The channels whose closed total is read from the GCS, in order."""
    reads = []
    real = LineageStore.closed_total
    monkeypatch.setattr(
        LineageStore, "closed_total", lambda s, cid: reads.append(cid) or real(s, cid)
    )
    return reads


def test_a_build_reads_the_close_of_only_the_touched_upstream(monkeypatch):
    ex, rt = _wide_channel(8)
    assert len(rt.upstream_cids) == 8
    reads = _count_closed_reads(monkeypatch)
    assert ex._build_streaming(rt) is None  # every upstream walked once
    assert sorted(reads) == rt.upstream_cids
    u = rt.upstream_cids[5]
    _commit(ex, u, 1)
    _deliver(ex, rt, u, [0])
    reads.clear()
    assert ex._build_streaming(rt) is None  # one input, open: too short
    assert reads == [u]
    reads.clear()
    assert ex._build_streaming(rt) is None  # nothing touched since
    assert reads == []


def test_an_applied_close_turns_a_short_run_into_a_take():
    n = DYNAMIC_MIN - 1
    ex, rt = _channel()
    _commit(ex, U0, n - 1)
    # the consumer already holds the closing output, so only the close
    # itself, not a delivery, can wake U0's run
    _deliver(ex, rt, U0, range(n))
    assert ex._build_streaming(rt) is None  # open, and short of the minimum
    ex.paused = True  # apply the close without a scheduling pass
    close = Task("scan", U0, [(n - 1, None)], [ScanLineage(n - 1)], close=n, worker=0)
    ex._apply_done(0.0, close)
    assert _taken(ex._build_streaming(rt)) == (U0, 0, n)


def test_a_tie_goes_to_the_first_upstream_though_the_later_came_first():
    ex, rt = _channel(dep_mode="static", static_batch=2)
    _commit(ex, U1, 4)
    _deliver(ex, rt, U1, range(4))
    assert _taken(ex._build_streaming(rt)) == (U1, 0, 2)
    # U1 still holds a run of 2 when U0's arrives
    _commit(ex, U0, 2)
    _deliver(ex, rt, U0, range(2))
    assert _taken(ex._build_streaming(rt)) == (U0, 0, 2)
    assert _taken(ex._build_streaming(rt)) == (U1, 2, 2)


def test_builds_read_few_closed_totals(db, tables, monkeypatch):
    """A build re-reads only the upstreams that changed, so the GCS reads
    of closed totals stay a few per task; walking every upstream on every
    build cost about 62 per task here."""
    reads = _count_closed_reads(monkeypatch)
    res = Executor(QUERIES["q3"].plan(db), tables, ExecConfig(n_workers=16)).run()
    assert len(reads) < 8 * res.stats["n_tasks"]

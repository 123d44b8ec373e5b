"""The shuffle data plane: slices gathered into one batch per task.

A consumer's gather must materialise to exactly the frame that
concatenating frame-per-slice shuffle output with ``pd.concat`` gives
(values, dtypes, column order, ``RangeIndex``), and size it exactly as
the column batch of that frame: simulated time depends on it.
"""
import numpy as np
import pandas as pd
import pytest

from repro.core.naming import ConsumeLineage, ScanLineage
from repro.core.wal import LineageStore
from repro.engine.executor import DYNAMIC_MIN, ChannelRt, ExecConfig, Executor
from repro.engine.operators import Operator
from repro.engine.partition import hash_indices, partition
from repro.engine.plan import OpStage
from repro.engine.util import (
    as_columns,
    concat_batches,
    dtype_width,
    pdf_nbytes,
    row_nbytes,
)
from repro.queries.tpch import QUERIES

N = 4  # consumer channels


def reference_slices(pdf, cols, n):
    """Frame-per-slice partitioning: one ``take``, then a reset ``iloc``
    slice per channel — the reference every slice must materialise to."""
    if n == 1 or not cols:
        return [pdf] + [None] * (n - 1)
    idx = hash_indices(as_columns(pdf), cols, n)
    order = np.argsort(idx, kind="stable")
    bounds = np.searchsorted(idx[order], np.arange(n + 1))
    taken = pdf.take(order)
    return [
        taken.iloc[a:b].reset_index(drop=True) if a < b else None
        for a, b in zip(bounds[:-1], bounds[1:])
    ]


def reference_concat(frames):
    frames = [f for f in frames if f is not None]
    if not frames:
        return None
    return frames[0] if len(frames) == 1 else pd.concat(frames, ignore_index=True)


class Recorder(Operator):
    def __init__(self):
        self.seen = []

    def on_batch(self, upstream_idx, pdf):
        self.seen.append(pdf)
        return None


def committed(u, n):
    """A lineage store in which ``u``'s first ``n`` outputs are committed."""
    store = LineageStore()
    for seq in range(n):
        store.commit_task(u, seq, ScanLineage(seq), 0)
    return store


def gather(parts):
    """Run the executor's gather over ``parts`` as one upstream's inputs:
    (the operator's input as a frame, bytes charged)."""
    u = (0, 0)
    rt = ChannelRt((1, 0), None, 0, [u], {u: 0}, Recorder(), [])
    rt.inbox[u] = dict(enumerate(parts))
    _, nbytes = Executor._gather(committed(u, len(parts)), rt, u, 0, len(parts))
    assert rt.inbox[u] == {} and rt.watermark[u] == len(parts)
    return (rt.op.seen[0].to_frame() if rt.op.seen else None), nbytes


def batch(seed, v):
    g = np.random.default_rng(seed)
    n = len(v)
    return pd.DataFrame(
        {
            "k": g.integers(0, 50, n),
            "s": [f"s-{seed}-{i}" for i in range(n)],
            "d": pd.to_datetime("1995-01-01")
            + pd.to_timedelta(g.integers(0, 365, n), unit="D"),
            "v": v,
        }
    )


def _rows(n, seed):
    return np.random.default_rng(seed).integers(-9, 9, n)


CASES = {
    "one-slice": [batch(0, _rows(60, 0).astype("float64"))],
    "same-schema": [batch(i, _rows(60, i).astype("float64")) for i in range(5)],
    "int32+int64": [batch(1, _rows(60, 1).astype("int32")),
                    batch(2, _rows(60, 2).astype("int64"))],
    "int64+float64": [batch(3, _rows(60, 3).astype("int64")),
                      batch(4, _rows(60, 4).astype("float64"))],
    "bool+int64": [batch(5, _rows(60, 5) > 0),
                   batch(6, _rows(60, 6).astype("int64"))],
}


@pytest.mark.parametrize("case", list(CASES))
def test_gather_equals_concat_of_frame_slices(case):
    batches = CASES[case]
    sliced = [partition(as_columns(b), ["k"], N) for b in batches]
    reference = [reference_slices(b, ["k"], N) for b in batches]
    for ch in range(N):
        parts = [s[ch] for s in sliced if s[ch] is not None]
        want = reference_concat([r[ch] for r in reference])
        if case == "one-slice":
            assert len(parts) == 1
        got, nbytes = gather(parts)
        pd.testing.assert_frame_equal(got, want, check_index_type=True)
        assert isinstance(got.index, pd.RangeIndex)
        assert list(got.columns) == ["k", "s", "d", "v"]
        assert nbytes == as_columns(want).nbytes
        # the public concat is the same frame
        pd.testing.assert_frame_equal(concat_batches(parts).to_frame(), want)


def test_gathered_frame_is_consolidated():
    batches = CASES["same-schema"]
    parts = [partition(as_columns(b), ["k"], N)[0] for b in batches]
    got = concat_batches(parts).to_frame()
    # one block per dtype: int64, object, datetime64, float64
    assert got._mgr.nblocks == 4


def test_single_channel_slice_is_the_batch():
    pdf = batch(7, _rows(10, 7))
    cb = as_columns(pdf)
    (s,) = partition(cb, ["k"], 1)
    assert s is cb
    assert concat_batches([None, s, None]) is s
    pd.testing.assert_frame_equal(s.to_frame(), pdf)
    assert s.nbytes == len(pdf) * sum(dtype_width(d) for d in pdf.dtypes)


def test_empty_and_none_gather():
    assert concat_batches([]) is None
    assert concat_batches([None, None]) is None
    assert gather([]) == (None, 0)


@pytest.fixture()
def ext():
    n = 40
    return pd.DataFrame(
        {
            "k": np.arange(n) % 7,
            "i": pd.array([None if i % 5 == 0 else i for i in range(n)],
                          dtype="Int64"),
            "s": pd.array([None if i % 6 == 0 else f"s{i}" for i in range(n)],
                          dtype="string"),
            "c": pd.Categorical([f"c{i % 3}" for i in range(n)]),
            "b": pd.array([None if i % 4 == 0 else i % 2 == 0 for i in range(n)],
                          dtype="boolean"),
            "t": pd.date_range("2020-01-01", periods=n, freq="h", tz="UTC"),
        }
    )


def test_extension_dtype_widths(ext):
    d = ext.dtypes
    assert dtype_width(d["i"]) == 8
    assert dtype_width(d["s"]) == 24  # no itemsize
    assert dtype_width(d["c"]) == d["c"].itemsize
    assert dtype_width(d["b"]) == 1
    assert dtype_width(d["t"]) == 8
    cb = as_columns(ext)
    assert row_nbytes(cb) == 8 + 8 + 24 + d["c"].itemsize + 1 + 8
    assert pdf_nbytes(cb) == 40 * row_nbytes(cb)


def test_extension_dtypes_round_trip(ext):
    slices = partition(as_columns(ext), ["k"], N)
    reference = reference_slices(ext, ["k"], N)
    for s, want in zip(slices, reference):
        assert (s is None) == (want is None)
        if s is not None:
            pd.testing.assert_frame_equal(s.to_frame(), want)
            assert s.width == as_columns(ext).width
    parts = [s for s in slices if s is not None]
    got, nbytes = gather(parts)
    want = reference_concat(reference)
    pd.testing.assert_frame_equal(got, want)
    assert list(got.dtypes) == list(ext.dtypes)
    assert nbytes == as_columns(want).nbytes


def test_object_column_of_timestamps_stays_object():
    """The frame constructor would infer datetime64 from such a column;
    pd.concat keeps it object, and so must a gather."""
    pdf = pd.DataFrame(
        {
            "k": np.arange(12),
            "o": pd.Series([pd.Timestamp("2020-01-01")] * 12, dtype=object),
        }
    )
    assert pdf["o"].dtype == object
    slices = partition(as_columns(pdf), ["k"], N)
    reference = reference_slices(pdf, ["k"], N)
    for s, want in zip(slices, reference):
        if s is not None:
            pd.testing.assert_frame_equal(s.to_frame(), want)
    got = concat_batches(slices).to_frame()
    pd.testing.assert_frame_equal(got, reference_concat(reference))
    assert got["o"].dtype == object


# ------------------------------------------- Algorithm 1: consume committed


def test_gather_rejects_uncommitted_output():
    u = (0, 0)
    parts = [as_columns(batch(8, _rows(6, 8))), as_columns(batch(9, _rows(6, 9)))]
    # nothing committed, then only the first of the two outputs: the
    # check covers the whole consumed range, not its first output
    for store in (LineageStore(), committed(u, 1)):
        rt = ChannelRt((1, 0), None, 0, [u], {u: 0}, Recorder(), [])
        rt.inbox[u] = dict(enumerate(parts))
        with pytest.raises(RuntimeError, match="not all committed"):
            Executor._gather(store, rt, u, 0, len(parts))
        assert rt.op.seen == [] and rt.watermark == {}


def _join_channel(db, tables):
    """An executor for q3 and its first join channel with an upstream
    channel that has committed nothing."""
    plan = QUERIES["q3"].plan(db)
    ex = Executor(plan, tables, ExecConfig(n_workers=2))
    sid = next(i for i, st in enumerate(plan.stages) if isinstance(st, OpStage))
    rt = ex.channels[(sid, 0)]
    return ex, rt, rt.upstream_cids[0]


@pytest.mark.parametrize("path", ["streaming", "retrace"])
def test_task_build_rejects_uncommitted_input(db, tables, path):
    ex, rt, u = _join_channel(db, tables)
    source = ex.tables[ex.plan.stages[u[0]].table][0]
    for seq in range(DYNAMIC_MIN):
        ex._deliver(rt.cid, u, seq, partition(source, [], 1)[0])
    if path == "retrace":
        rt.retrace_records = [ConsumeLineage(u, 0, DYNAMIC_MIN)]
    with pytest.raises(RuntimeError, match="not all committed"):
        ex._build_task(rt)

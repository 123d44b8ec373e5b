"""The shuffle data plane: slices gathered into one batch per task.

A consumer's gather must materialise to exactly the frame that
concatenating frame-per-slice shuffle output with ``pd.concat`` gives
(values, dtypes, column order, ``RangeIndex``), and size it exactly as
the column batch of that frame: simulated time depends on it. Columns
are numpy arrays, checked where they are born, and the batches of one
gather share one schema: a gather of two schemas raises.
"""
import re

import numpy as np
import pandas as pd
import pytest

from repro.core.naming import ConsumeLineage, ScanLineage
from repro.core.wal import LineageStore
from repro.engine.executor import DYNAMIC_MIN, ChannelRt, ExecConfig, Executor
from repro.engine.operators import Operator, _View
from repro.engine.partition import hash_indices, partition
from repro.engine.plan import OpStage
from repro.engine.util import ColumnBatch, as_columns, concat_batches, dtype_width
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


# ------------------------------------------------- one column type, one schema


@pytest.mark.parametrize(
    "dtype, values",
    [
        ("Int64", pd.array([1, None, 3], dtype="Int64")),
        ("category", pd.Categorical(["a", "b", "a"])),
        ("datetime64[ns, UTC]", pd.date_range("2020-01-01", periods=3, tz="UTC")),
    ],
    ids=["Int64", "categorical", "tz-aware"],
)
def test_as_columns_rejects_extension_columns_by_name(dtype, values):
    frame = pd.DataFrame({"k": np.arange(3), "x": values})
    with pytest.raises(TypeError, match=rf"column 'x' has dtype {re.escape(dtype)}, not"):
        as_columns(frame)


def test_of_arrays_rejects_a_pandas_array():
    ints = pd.array([1, None, 3], dtype="Int64")
    with pytest.raises(TypeError, match=r"column 'i' is IntegerArray of Int64, not numpy"):
        ColumnBatch.of_arrays({"k": np.arange(3), "i": ints})
    # as does a fused map that derives one
    view = _View.of_batch(ColumnBatch.of_arrays({"k": np.arange(3)}))
    with pytest.raises(TypeError, match="column 'i'"):
        view.out(["k", "i"], i=ints)


def test_of_arrays_keeps_objects_it_cannot_infer_to_numpy():
    stamps = np.array([pd.Timestamp("2020-01-01", tz="UTC")] * 3, dtype=object)
    cb = ColumnBatch.of_arrays({"t": stamps})
    assert cb.cols[0] is stamps and cb.width == 24


@pytest.mark.parametrize(
    "other, where",
    [
        (lambda f: f.assign(v=f.v.astype("int64")),
         r"column 3: 'v' \(int32\) against 'v' \(int64\)"),
        (lambda f: f[["k", "d", "s", "v"]],
         r"column 1: 's' \(object\) against 'd' \(datetime64\[ns\]\)"),
        (lambda f: f.assign(w=f.v), r"column 4: no column against 'w' \(int32\)"),
    ],
    ids=["int32+int64", "reordered", "extra-column"],
)
def test_gather_of_differing_schemas_raises_naming_the_column(other, where):
    first = batch(1, _rows(6, 1).astype("int32"))
    parts = [as_columns(first), as_columns(other(batch(2, _rows(6, 2).astype("int32"))))]
    with pytest.raises(ValueError, match=where):
        concat_batches(parts)
    with pytest.raises(ValueError, match=where):
        gather(parts)


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
        ex._deliver(rt.cid, u, seq, partition(source, [], 1)[0], "stream")
    if path == "retrace":
        rt.retrace_records = [ConsumeLineage(u, 0, DYNAMIC_MIN)]
    with pytest.raises(RuntimeError, match="not all committed"):
        ex._build_task(rt)

"""The columnar join path: column batches in, column batches out.

A join works on column arrays and emits a column batch, which the
shuffle partitions and backs up as it is. Everything a frame used to
decide must come out the same: the key hash of every dtype, the join's
materialised output and state size, and the bytes charged for it.
"""
import zlib

import numpy as np
import pandas as pd
import pytest

from repro.engine.operators import SymmetricHashJoin
from repro.engine.partition import _col_hash, _mix64, key_hash, partition
from repro.engine.util import (
    ColumnBatch,
    as_columns,
    concat_batches,
    pdf_nbytes,
    row_nbytes,
)

N = 4


def reference_col_hash(s: pd.Series) -> np.ndarray:
    """The column hash as it was computed on a frame's Series."""
    if pd.api.types.is_datetime64_any_dtype(s):
        return _mix64(s.astype("int64").to_numpy().view(np.uint64))
    if pd.api.types.is_integer_dtype(s):
        return _mix64(s.to_numpy().astype(np.int64).view(np.uint64))
    if pd.api.types.is_float_dtype(s):
        return _mix64(s.to_numpy().astype(np.float64).view(np.uint64))
    vals = np.fromiter(
        (zlib.crc32(str(x).encode()) for x in s), dtype=np.uint64, count=len(s)
    )
    return _mix64(vals)


def typed_frame(n=48, seed=0):
    g = np.random.default_rng(seed)
    return pd.DataFrame(
        {
            "int32": g.integers(-9, 9, n).astype("int32"),
            "int64": g.integers(-(2**62), 2**62, n),
            "uint64": g.integers(0, 2**63, n).astype("uint64") * np.uint64(2),
            "float32": g.random(n).astype("float32"),
            "float64": g.random(n),
            "bool": g.random(n) > 0.5,
            "str": [f"s{i % 7}" for i in range(n)],
            "int8": g.integers(-9, 9, n).astype("int8"),
            "uint16": g.integers(0, 999, n).astype("uint16"),
            "float16": g.random(n).astype("float16"),
            "complex": g.random(n) + 1j * g.random(n),
            "dt": pd.date_range("1995-01-01", periods=n, freq="D"),
            "dt_s": pd.date_range("1995-01-01", periods=n, freq="D").astype("datetime64[s]"),
            "td": pd.to_timedelta(g.integers(0, 99, n), unit="s"),
        }
    )


def test_array_hash_equals_series_hash_for_every_dtype():
    pdf = typed_frame()
    cb = as_columns(pdf)
    for c in pdf:
        want = reference_col_hash(pdf[c])
        np.testing.assert_array_equal(_col_hash(cb.column(c)), want, err_msg=c)
        # a gathered batch hashes its arrays the same
        gathered = ColumnBatch(cb.names, cb.cols, cb.rows, cb.width)
        np.testing.assert_array_equal(key_hash(gathered, [c]), want, err_msg=c)
    # fixed-width strings, which a frame holds as objects
    n = len(pdf)
    for arr in (np.array([f"u{i % 7}" for i in range(n)]),
                np.array([b"b%d" % (i % 7) for i in range(n)])):
        np.testing.assert_array_equal(
            _col_hash(arr), reference_col_hash(pd.Series(arr)), err_msg=str(arr.dtype)
        )
    # why timedeltas take the Series path: their str differs
    assert str(np.timedelta64(1, "s")) != str(pd.Timedelta(1, "s"))


def sides(seed, n_batches):
    """Left/right frames with a shared int key."""
    g = np.random.default_rng(seed)

    def one(prefix, n):
        return pd.DataFrame({
            f"{prefix}k": g.integers(0, 12, n),
            f"{prefix}s": [f"{prefix}{i % 5}" for i in g.integers(0, 99, n)],
            f"{prefix}d": pd.to_datetime("1995-01-01")
            + pd.to_timedelta(g.integers(0, 365, n), unit="D"),
            f"{prefix}f": g.random(n),
            f"{prefix}i": g.integers(0, 9, n).astype("int32"),
            f"{prefix}b": g.random(n) > 0.3,
        })

    return ([one("l", int(n)) for n in g.integers(5, 40, n_batches)],
            [one("r", int(n)) for n in g.integers(5, 40, n_batches)])


def feeds(seed):
    """One feed of (side, slices) per gather, slices from ``partition``:
    some gathers take one slice, some several (concatenated column by
    column)."""
    left, right = sides(seed, 6)
    out = []
    for side, frames, key in ((0, left, "lk"), (1, right, "rk")):
        sliced = [partition(as_columns(f), [key], N) for f in frames]
        for ch in range(N):
            parts = [s[ch] for s in sliced if s[ch] is not None]
            out += [(side, parts[:1]), (side, parts[1:])]
    g = np.random.default_rng(seed)
    return [out[i] for i in g.permutation(len(out)) if out[i][1]]


@pytest.mark.parametrize("post", [False, True], ids=["no-post", "post"])
def test_join_output_same_for_frames_slices_and_gathers(post):
    left, right = sides(5, 1)
    names = list(left[0].columns) + list(right[0].columns)
    fn = (lambda d: d.out(names, d.lf > 0.3)) if post else None
    joins = {way: SymmetricHashJoin(["lk"], ["rk"], fn)
             for way in ("frame", "batch")}
    sizes = set()
    for side, parts in feeds(5):
        frame = pd.concat([p.to_frame() for p in parts], ignore_index=True)
        gathered = concat_batches(parts)
        sizes.add(len(parts) > 1)
        got = {"frame": joins["frame"].on_batch(side, as_columns(frame)),
               "batch": joins["batch"].on_batch(side, gathered)}
        assert (got["frame"] is None) == (got["batch"] is None)
        if got["frame"] is not None:
            want = got["frame"].to_frame()
            pd.testing.assert_frame_equal(got["batch"].to_frame(), want)
            assert row_nbytes(got["batch"]) == row_nbytes(as_columns(want))
            assert isinstance(got["batch"], ColumnBatch)
        assert joins["frame"].state_nbytes() == joins["batch"].state_nbytes()
    # the feeds covered lone slices and gathers of several
    assert sizes == {False, True}


def test_join_infers_timestamp_objects_like_the_frame_constructor():
    left = pd.DataFrame({
        "lk": np.arange(6),
        "lo": pd.Series([pd.Timestamp("2020-01-01")] * 6, dtype=object),
    })
    right = pd.DataFrame({"rk": np.arange(6), "rv": np.arange(6.0)})
    assert left["lo"].dtype == object
    j = SymmetricHashJoin(["lk"], ["rk"])
    j.on_batch(0, as_columns(left))
    out = j.on_batch(1, as_columns(right))
    assert isinstance(out, ColumnBatch)
    frame = out.to_frame()
    assert frame["lo"].dtype == "datetime64[ns]"
    assert out.width == 8 + 8 + 8 + 8  # the Timestamp column is 8, not 24
    assert out.width == as_columns(frame).width
    # the frame the join built before emitting column batches (rows come
    # grouped by key hash; every key matches its equal on the other side)
    cols = {c: left[c].to_numpy() for c in left} | {c: right[c].to_numpy() for c in right}
    pd.testing.assert_frame_equal(
        frame.sort_values("lk", ignore_index=True), pd.DataFrame(cols, copy=False)
    )


def join_output():
    left, right = sides(11, 3)
    j = SymmetricHashJoin(["lk"], ["rk"])
    for f in left:
        j.on_batch(0, as_columns(f))
    out = j.on_batch(1, as_columns(pd.concat(right, ignore_index=True)))
    assert isinstance(out, ColumnBatch)
    return out


def test_pdf_nbytes_of_a_batch_equals_that_of_its_frame():
    out = join_output()
    cb = as_columns(typed_frame())
    batches = [out, cb]
    for b, key in ((out, "lk"), (cb, "int64")):
        batches += [s for s in partition(b, [key], N) if s is not None]
    batches.append(concat_batches(partition(out, ["rs"], N)))
    for b in batches:
        assert isinstance(b, ColumnBatch)
        assert pdf_nbytes(b) == as_columns(b.to_frame()).nbytes
        assert row_nbytes(b) == as_columns(b.to_frame()).width


def test_partition_of_a_backed_up_batch_gives_the_pushed_slices():
    out = join_output()
    frame = out.to_frame()
    pushed = partition(out, ["lk", "rs"], N)
    # consumers gather and join what was pushed; the batch itself waits
    # as the upstream backup until a replay partitions it again
    SymmetricHashJoin(["lk"], ["x"]).on_batch(0, concat_batches(pushed))
    replayed = partition(out, ["lk", "rs"], N)
    for a, b in zip(pushed, replayed):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.names == b.names and a.width == b.width
            pd.testing.assert_frame_equal(a.to_frame(), b.to_frame())
    pd.testing.assert_frame_equal(out.to_frame(), frame)
    # and they are the slices of the materialised frame
    for a, want in zip(pushed, partition(as_columns(frame), ["lk", "rs"], N)):
        if a is not None:
            pd.testing.assert_frame_equal(a.to_frame(), want.to_frame())

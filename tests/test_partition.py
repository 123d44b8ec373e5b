"""Shuffle partitioning: stability, completeness, determinism."""
import numpy as np
import pandas as pd
import pytest

from repro.engine.partition import hash_indices, partition, slice_order
from repro.engine.util import as_columns


def frames(slices):
    """Each slice materialised as the frame a consumer would see."""
    return [None if s is None else s.to_frame() for s in slices]


@pytest.fixture()
def pdf():
    g = np.random.default_rng(0)
    return pd.DataFrame(
        {
            "k": g.integers(0, 1000, 5000),
            "s": [f"key-{i % 97}" for i in range(5000)],
            "d": pd.to_datetime("1995-01-01")
            + pd.to_timedelta(g.integers(0, 365, 5000), unit="D"),
            "v": g.random(5000),
        }
    )


def test_partition_is_complete_and_disjoint(pdf):
    slices = frames(partition(as_columns(pdf), ["k"], 8))
    total = sum(len(s) for s in slices if s is not None)
    assert total == len(pdf)
    recon = pd.concat([s for s in slices if s is not None])
    assert sorted(recon.v.tolist()) == sorted(pdf.v.tolist())


def test_same_key_same_slice(pdf):
    slices = frames(partition(as_columns(pdf), ["k"], 8))
    seen = {}
    for i, s in enumerate(slices):
        if s is None:
            continue
        for k in s.k.unique():
            assert seen.setdefault(k, i) == i


def test_deterministic_across_calls(pdf):
    a = frames(partition(as_columns(pdf), ["k", "s"], 16))
    b = frames(partition(as_columns(pdf), ["k", "s"], 16))
    for x, y in zip(a, b):
        if x is None:
            assert y is None
        else:
            pd.testing.assert_frame_equal(x, y)


def test_within_slice_row_order_preserved(pdf):
    """Replay-identical slices require stable within-slice ordering."""
    idx = hash_indices(as_columns(pdf), ["k"], 4)
    slices = frames(partition(as_columns(pdf), ["k"], 4))
    for i, s in enumerate(slices):
        expected = pdf[idx == i].reset_index(drop=True)
        pd.testing.assert_frame_equal(s, expected)


@pytest.mark.parametrize("cols", [["k"], ["s"], ["d"], ["v"], ["k", "s"]])
def test_hash_supports_dtypes(pdf, cols):
    idx = hash_indices(as_columns(pdf), cols, 8)
    assert idx.min() >= 0 and idx.max() < 8


def test_reasonable_balance(pdf):
    slices = frames(partition(as_columns(pdf), ["k"], 8))
    sizes = [len(s) for s in slices]
    assert min(sizes) > 0.5 * np.mean(sizes)


def test_empty_and_none_inputs():
    assert partition(None, ["k"], 4) == [None] * 4
    empty = pd.DataFrame({"k": pd.Series([], dtype="int64")})
    assert partition(as_columns(empty), ["k"], 4) == [None] * 4


def test_gather_mode():
    pdf = pd.DataFrame({"k": [1, 2, 3]})
    slices = frames(partition(as_columns(pdf), [], 4))
    assert len(slices[0]) == 3
    assert slices[1] is None and slices[3] is None


def test_single_channel():
    pdf = pd.DataFrame({"k": [1, 2, 3]})
    slices = frames(partition(as_columns(pdf), ["k"], 1))
    assert len(slices) == 1 and len(slices[0]) == 3


def test_empty_slices_are_none(pdf):
    # 10 rows over 64 channels: some channels must be empty
    slices = frames(partition(as_columns(pdf.head(10)), ["k"], 64))
    assert any(s is None for s in slices)
    assert sum(len(s) for s in slices if s is not None) == 10


@pytest.mark.parametrize("n", [1, 2, 16, 64])
def test_slice_order_is_the_int64_stable_argsort(pdf, n):
    """The radix sort of a narrow copy gives the comparison sort's
    permutation, so slices are unchanged."""
    idx = hash_indices(as_columns(pdf), ["k", "s"], n)
    assert idx.dtype == np.int64
    want = np.argsort(idx, kind="stable")
    np.testing.assert_array_equal(slice_order(idx, n), want)
    if n > 1:
        for ch, s in enumerate(partition(as_columns(pdf), ["k", "s"], n)):
            rows = want[idx[want] == ch]
            assert s is not None
            pd.testing.assert_frame_equal(
                s.to_frame(), pdf.take(rows).reset_index(drop=True)
            )

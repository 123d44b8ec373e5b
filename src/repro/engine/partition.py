"""Stable vectorised hash partitioning for the shuffle data plane.

Python's builtin ``hash`` is salted per process, which would make shuffle
routing non-replayable across runs; we use a fixed splitmix64-style mix
for integer/datetime keys and CRC32 for strings, so a re-executed task
re-produces byte-identical slices — a requirement of lineage-based
replay ("tasks consume only objects with committed lineage" only helps
if replayed objects equal the originals).
"""
from __future__ import annotations

import zlib
from typing import Optional

import numpy as np
import pandas as pd

from .util import ColumnBatch

_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix64(v: np.ndarray) -> np.ndarray:
    v = v.astype(np.uint64, copy=True)
    v ^= v >> np.uint64(30)
    v *= _MIX1
    v ^= v >> np.uint64(27)
    v *= _MIX2
    v ^= v >> np.uint64(31)
    return v


def _crc_hash(values, n: int) -> np.ndarray:
    """Hash of ``str`` of each of ``n`` values (strings / objects)."""
    return _mix64(
        np.fromiter((zlib.crc32(str(x).encode()) for x in values), dtype=np.uint64, count=n)
    )


def _col_hash(col: np.ndarray) -> np.ndarray:
    """Hash of every value of one column array. Datetimes, integers and
    floats hash their 64-bit values and objects the CRC of their ``str``.
    The rare other kinds (bool, timedelta, fixed-width strings) hash the
    ``str`` of each value of the array as a Series, whose element types
    decide it: ``str`` of a ``np.timedelta64`` is not that of a
    ``pd.Timedelta``."""
    kind = col.dtype.kind
    if kind == "M":
        return _mix64(col.view(np.int64).view(np.uint64))
    if kind in ("i", "u"):
        return _mix64(col.astype(np.int64, copy=False).view(np.uint64))
    if kind == "f":
        return _mix64(col.astype(np.float64, copy=False).view(np.uint64))
    if kind == "O":
        return _crc_hash(col, len(col))
    return _crc_hash(pd.Series(col, copy=False), len(col))


def key_hash(batch: ColumnBatch, cols: list[str]) -> np.ndarray:
    """uint64 hash of every row's ``cols`` — the one key hash shared by
    shuffle routing and the join index. For a single integer column it is
    a bijection of the value (the splitmix64 finaliser is invertible), so
    equal hashes mean equal keys; otherwise callers must check equality."""
    if not cols:
        return np.zeros(len(batch), dtype=np.uint64)
    # Folding from zero would start at 0 * _GOLDEN + first: start there.
    h = _col_hash(batch.column(cols[0]))
    for c in cols[1:]:
        h *= _GOLDEN
        h += _col_hash(batch.column(c))
    return h


def hash_indices(batch: ColumnBatch, cols: list[str], n: int) -> np.ndarray:
    """Channel index in ``[0, n)`` for every row, hashing ``cols``."""
    return (_mix64(key_hash(batch, cols)) % np.uint64(n)).astype(np.int64)


def slice_order(idx: np.ndarray, n: int) -> np.ndarray:
    """The stable argsort of channel indices (or any codes) ``idx`` in
    ``[0, n)``.

    It sorts a copy in the narrowest unsigned type that holds ``n - 1``:
    numpy radix-sorts 8- and 16-bit integers, several times faster than
    its comparison sort of int64, and a stable sort's permutation does
    not depend on the dtype it sorts."""
    return np.argsort(idx.astype(np.min_scalar_type(n - 1)), kind="stable")


def partition(
    batch: Optional[ColumnBatch], cols: list[str], n: int
) -> list[Optional[ColumnBatch]]:
    """Split a batch into ``n`` slices by hash of ``cols``.

    A slice is a :class:`~repro.engine.util.ColumnBatch` that owns its
    rows' arrays. An empty ``cols`` sends everything to channel 0
    (global aggregation / top-k stages have a single channel) as the
    whole batch. Empty slices are ``None`` — the engine's empty-output
    sentinel — so downstream cost accounting and inbox bookkeeping stay
    uniform.
    """
    out: list[Optional[ColumnBatch]] = [None] * n
    if batch is None or len(batch) == 0:
        return out
    if n == 1 or not cols:
        out[0] = batch
        return out
    idx = hash_indices(batch, cols, n)
    # One stable argsort, then every slice gathers its rows of each
    # column; stability preserves within-slice row order, keeping slices
    # replay-identical.
    order = slice_order(idx, n)
    bounds = np.searchsorted(idx[order], np.arange(n + 1)).tolist()
    for i in range(n):
        a, b = bounds[i], bounds[i + 1]
        if a < b:
            out[i] = batch.take(order[a:b])
    return out

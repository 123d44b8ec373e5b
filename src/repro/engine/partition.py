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

from .util import Slice, dtype_width

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


def _col_hash(s: pd.Series) -> np.ndarray:
    if pd.api.types.is_datetime64_any_dtype(s):
        return _mix64(s.astype("int64").to_numpy().view(np.uint64))
    if pd.api.types.is_integer_dtype(s):
        return _mix64(s.to_numpy().astype(np.int64).view(np.uint64))
    if pd.api.types.is_float_dtype(s):
        return _mix64(s.to_numpy().astype(np.float64).view(np.uint64))
    # strings / objects
    vals = np.fromiter(
        (zlib.crc32(str(x).encode()) for x in s), dtype=np.uint64, count=len(s)
    )
    return _mix64(vals)


def key_hash(pdf: pd.DataFrame, cols: list[str]) -> np.ndarray:
    """uint64 hash of every row's ``cols`` — the one key hash shared by
    shuffle routing and the join index. For a single integer column it is
    a bijection of the value (the splitmix64 finaliser is invertible), so
    equal hashes mean equal keys; otherwise callers must check equality."""
    h = np.zeros(len(pdf), dtype=np.uint64)
    for c in cols:
        h = h * _GOLDEN + _col_hash(pdf[c])
    return h


def hash_indices(pdf: pd.DataFrame, cols: list[str], n: int) -> np.ndarray:
    """Channel index in ``[0, n)`` for every row, hashing ``cols``."""
    return (_mix64(key_hash(pdf, cols)) % np.uint64(n)).astype(np.int64)


def partition(
    pdf: Optional[pd.DataFrame], cols: list[str], n: int
) -> list[Optional[Slice]]:
    """Split a batch into ``n`` slices by hash of ``cols``.

    A slice holds its rows column by column (see
    :class:`~repro.engine.util.Slice`) and becomes a frame only when a
    consumer gathers it. An empty ``cols`` sends everything to channel 0
    (global aggregation / top-k stages have a single channel) as a slice
    wrapping the batch itself. Empty slices are ``None`` — the engine's
    empty-output sentinel — so downstream cost accounting and inbox
    bookkeeping stay uniform.
    """
    out: list[Optional[Slice]] = [None] * n
    if pdf is None or len(pdf) == 0:
        return out
    names = list(pdf.columns)
    arrays = []
    width = 0
    for c in names:
        s = pdf[c]
        arrays.append(s.to_numpy() if isinstance(s.dtype, np.dtype) else s.array)
        width += dtype_width(s.dtype)
    if n == 1 or not cols:
        out[0] = Slice(names, arrays, len(pdf), width, pdf)
        return out
    idx = hash_indices(pdf, cols, n)
    # One stable argsort, then every slice gathers its rows of each
    # column; stability preserves within-slice row order, keeping slices
    # replay-identical. A slice owns its arrays, positions included, so
    # one still waiting in an inbox pins nothing of the other slices.
    order = np.argsort(idx, kind="stable")
    bounds = np.searchsorted(idx[order], np.arange(n + 1)).tolist()
    for i in range(n):
        a, b = bounds[i], bounds[i + 1]
        if a < b:
            pos = order[a:b].copy()
            out[i] = Slice(names, [col[pos] for col in arrays], b - a, width, pdf, pos)
    return out

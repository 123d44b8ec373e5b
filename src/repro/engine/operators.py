"""Stateful single-node kernels (the paper's DuckDB/Polars analogue).

Each operator instance is one channel's *state variable* (paper Fig. 1):
``on_batch`` absorbs one upstream output and may emit rows; ``flush``
emits the final output once every upstream channel has closed and been
fully consumed. Operators are deterministic functions of the sequence of
``(upstream_idx, batch)`` calls — the property lineage-based replay
relies on: retracing the logged consumption order reproduces
byte-identical outputs.

All non-scan operators here are stateful; stateless maps/filters are
fused into scans, into a join's ``select`` projection or ``post`` map and
into an aggregation's ``derived`` map (paper §III-B: stateless channels
"are typically input readers").
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Optional

import numpy as np
import pandas as pd

from .partition import key_hash
from .util import ColumnBatch, as_columns, dtype_width, pdf_nbytes

MapFn = Callable[[pd.DataFrame], pd.DataFrame]


class Operator(ABC):
    """One channel's kernel + state variable."""

    @abstractmethod
    def on_batch(self, upstream_idx: int, batch: ColumnBatch) -> Optional[ColumnBatch]:
        """Absorb one upstream output batch; return emitted rows or None,
        never an empty batch.

        ``batch`` is a :class:`~repro.engine.util.ColumnBatch` (a scan's
        output over a fused edge, or a gather of shuffle slices); None or
        an empty batch is a no-op. Output is a column batch too. Frames
        are built only for pandas code — a join's ``post`` map, an
        aggregation's ``derived`` map (once, at flush) and :class:`TopK`'s
        state — whose result re-enters the engine through
        :func:`~repro.engine.util.as_columns`.
        """

    def flush(self) -> Optional[ColumnBatch]:
        """Final emission after all upstreams closed; None if nothing."""
        return None

    def state_nbytes(self) -> int:
        """Size of the state variable (drives checkpointing cost)."""
        return 0


class _Columns:
    """Named columns in numpy buffers whose capacity doubles, so appends
    cost O(rows) amortised and the rows are held once in RAM."""

    def __init__(self) -> None:
        self.n = 0
        self._bufs: dict[str, np.ndarray] = {}

    def append(self, cols: dict[str, np.ndarray], rows: int) -> None:
        """Add ``rows`` rows given as ``{column: values}``."""
        end = self.n + rows
        for c, vals in cols.items():
            buf = self._bufs.get(c, vals[:0])
            # A batch whose column is wider than the buffer (float into
            # int, say) widens the buffer as pd.concat would.
            if len(buf) < end or not np.can_cast(vals.dtype, buf.dtype):
                cap = len(buf) if len(buf) >= end else max(end, 2 * len(buf))
                dtype = np.result_type(buf.dtype, vals.dtype)
                buf = _grown(buf, self.n, cap, dtype)
            buf[self.n:end] = vals
            self._bufs[c] = buf
        self.n = end

    def __contains__(self, c: str) -> bool:
        return c in self._bufs

    def column(self, c: str) -> np.ndarray:
        return self._bufs[c][: self.n]

    def take(self, pos: np.ndarray) -> dict[str, np.ndarray]:
        """Rows ``pos`` as ``{column: values}``."""
        return {c: buf[pos] for c, buf in self._bufs.items()}


def _grown(buf: np.ndarray, n: int, cap: int, dtype) -> np.ndarray:
    """A ``cap``-row buffer of ``dtype`` holding ``buf``'s first n rows."""
    out = np.empty(cap, dtype=dtype)
    out[:n] = buf[:n]
    return out


class _JoinSide:
    """One side of a symmetric hash join, held column by column in
    :class:`_Columns`.

    Every row's key hash (:func:`partition.key_hash`) feeds a sorted
    (hash, position) index; the next probe stably sorts the rows appended
    since the last one and merges them in, so equal hashes stay in
    insertion order. A probe is two ``searchsorted`` calls plus a
    ``repeat``/``cumsum`` expansion of the matching runs — no Python loop
    over keys.
    """

    def __init__(self, keys: list[str]) -> None:
        self.keys = keys
        self.cols = _Columns()
        self._hash = np.empty(0, dtype=np.uint64)
        self._idx_hash = np.empty(0, dtype=np.uint64)
        self._idx_pos = np.empty(0, dtype=np.int64)
        self._nbytes = 0

    @property
    def n(self) -> int:
        return self.cols.n

    def append(self, cols: dict[str, np.ndarray], width: int, h: np.ndarray) -> None:
        """Add rows given as ``{column: values}``, ``width`` bytes each,
        whose key hashes are ``h``."""
        end = self.n + len(h)
        if end > len(self._hash):
            cap = max(end, 2 * len(self._hash))
            self._hash = _grown(self._hash, self.n, cap, np.uint64)
        self._hash[self.n:end] = h
        self.cols.append(cols, len(h))
        self._nbytes += width * len(h)

    def _index(self) -> tuple[np.ndarray, np.ndarray]:
        """The sorted (hash, position) index over all rows appended."""
        done = len(self._idx_pos)
        if done < self.n:
            order = np.argsort(self._hash[done:self.n], kind="stable")
            new_h = self._hash[done:self.n][order]
            # side="right" files new rows after the indexed rows with an
            # equal hash, so every run of equal hashes stays in insertion
            # order; the merge is linear in the side.
            at = np.searchsorted(self._idx_hash, new_h, side="right")
            self._idx_hash = np.insert(self._idx_hash, at, new_h)
            self._idx_pos = np.insert(self._idx_pos, at, order + done)
        return self._idx_hash, self._idx_pos

    def probe(self, h: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """Positions (mine, probe's) of all row pairs with equal key hash,
        grouped by probe row in hash order, each group in my insertion
        order."""
        if not self.n:
            return None
        idx_hash, idx_pos = self._index()
        # Sorted needles keep consecutive binary searches on the same
        # cache lines: several times faster than in probe-row order.
        order = np.argsort(h, kind="stable")
        h = h[order]
        lo = np.searchsorted(idx_hash, h, side="left")
        cnt = np.searchsorted(idx_hash, h, side="right") - lo
        total = int(cnt.sum())
        if not total:
            return None
        theirs = np.repeat(order, cnt)
        # Pair j of sorted probe row r sits at idx_hash[lo[r] + j - first[r]],
        # where first[r] is the number of pairs before row r's.
        first = np.cumsum(cnt) - cnt
        mine = idx_pos[np.arange(total) - np.repeat(first - lo, cnt)]
        return mine, theirs

    def nbytes(self) -> int:
        return self._nbytes


class SymmetricHashJoin(Operator):
    """Streaming two-sided equi-join.

    Both sides accumulate; a new batch from side ``i`` first probes the
    accumulated other side (emitting matches exactly once) and is then
    inserted into side ``i``'s table. Correct for any interleaving of the
    two inputs, which is what lets a *dynamic* scheduler choose freely —
    and what makes the logged consumption order the only thing recovery
    must pin down. Emitted rows are grouped by probe row; the order is a
    deterministic function of the consumption sequence, so replays stay
    byte-identical.

    The join works on column arrays: it reads each input column once and
    emits a standalone :class:`~repro.engine.util.ColumnBatch`, the left
    input's columns first. ``select`` projects it: only the named
    columns are gathered, in that order. ``post`` is an optional fused
    stateless map/filter over emitted rows, for what a projection cannot
    express; it gets them as a frame and its output is emitted as a
    column batch. The plan builder guarantees the two sides have
    disjoint column names.
    """

    def __init__(
        self,
        left_on: list[str],
        right_on: list[str],
        post: Optional[MapFn] = None,
        select: Optional[list[str]] = None,
    ) -> None:
        if select is not None:
            if post is not None:
                raise ValueError("a join takes select or post, not both")
            if not select:
                raise ValueError("a join's select names no column")
            dups = sorted({c for c in select if select.count(c) > 1})
            if dups:
                raise ValueError(f"a join's select names {dups} more than once")
        self.left_on, self.right_on, self.post = left_on, right_on, post
        self.select = select
        self._sides = [_JoinSide(left_on), _JoinSide(right_on)]

    def on_batch(self, upstream_idx: int, batch: ColumnBatch) -> Optional[ColumnBatch]:
        if upstream_idx not in (0, 1):
            raise ValueError(f"join has upstreams 0/1, got {upstream_idx}")
        if batch is None or len(batch) == 0:
            return None
        mine = self._sides[upstream_idx]
        other = self._sides[1 - upstream_idx]
        h = key_hash(batch, mine.keys)
        # The key hash reads the columns as they are; probing, the key
        # check and the append read numpy arrays.
        cols = {
            c: col if isinstance(col, np.ndarray) else col.to_numpy()
            for c, col in zip(batch.names, batch.cols)
        }
        hit = other.probe(h)
        out = None
        if hit is not None:
            opos, ppos = self._verified(hit, other, batch, cols, mine.keys)
            if len(opos):
                out = self._gathered(upstream_idx, cols, ppos, other.cols, opos)
        mine.append(cols, batch.width, h)
        if out is None:
            return None
        if self.post is None:
            return ColumnBatch.of_arrays(out)
        # Every column is a fresh gather, so the frame may own it as is
        # rather than copy it into consolidated blocks.
        out = self.post(pd.DataFrame(out, copy=False))
        return as_columns(out) if out is not None and len(out) else None

    def _gathered(self, upstream_idx: int, cols, ppos, stored: _Columns, opos):
        """The output columns of matched pairs (probe rows ``ppos`` of
        ``cols``, stored rows ``opos``): the selected ones in order, else
        every column, the left input's first."""
        if self.select is None:
            left = {c: vals[ppos] for c, vals in cols.items()}
            right = stored.take(opos)
            if upstream_idx == 1:
                left, right = right, left
            return {**left, **right}
        out = {}
        for c in self.select:
            if c in cols:
                out[c] = cols[c][ppos]
            elif c in stored:
                out[c] = stored.column(c)[opos]
            else:
                raise ValueError(f"a join's select names {c!r}, which neither input has")
        return out

    @staticmethod
    def _verified(hit, other: _JoinSide, batch: ColumnBatch, cols, keys: list[str]):
        """Drop hash-equal pairs whose real keys differ. Equal hashes imply
        equal keys (see ``key_hash``) only for one integer key on both
        sides, so every other key shape is re-checked column by column."""
        opos, ppos = hit
        if len(keys) == 1 and (
            batch.column(keys[0]).dtype.kind in "iu"
            and other.cols.column(other.keys[0]).dtype.kind in "iu"
        ):
            return opos, ppos
        keep = np.ones(len(opos), dtype=bool)
        for ok, pk in zip(other.keys, keys):
            keep &= other.cols.column(ok)[opos] == cols[pk][ppos]
        return opos[keep], ppos[keep]

    def state_nbytes(self) -> int:
        return self._sides[0].nbytes() + self._sides[1].nbytes()


class _View:
    """A batch's columns as aggregate expressions read them: ``d.col``
    and ``d["col"]`` are the column's array and ``len(d)`` is the row
    count, so ``d.a * (1 - d.b)`` is numpy arithmetic."""

    __slots__ = ("_batch",)

    def __init__(self, batch: ColumnBatch) -> None:
        self._batch = batch

    def __len__(self) -> int:
        return len(self._batch)

    def __getitem__(self, name: str):
        return self._batch.column(name)

    def __getattr__(self, name: str):
        try:
            return self._batch.column(name)
        except ValueError:
            raise AttributeError(name) from None


class HashAgg(Operator):
    """Hash aggregation where every aggregate is a SUM of an expression.

    This covers the reproduced queries: ``count(*)`` is the sum of ones,
    ``avg`` and ratio aggregates are derived from sums in ``derived`` at
    flush time. Two roles:

    * ``partial``: accumulates partial sums per group from raw rows and
      emits them only at flush — the *aggregation pushdown* the paper
      credits for Quokka's near-zero spool volume on TPC-H Q1/Q6.
    * ``final``: merges partial outputs (or raw rows when no pushdown,
      the Trino-sim plan shape), then applies ``derived`` at flush.

    ``aggs`` maps output column -> expression over a :class:`_View` of
    the input batch, returning an array. ``raw`` distinguishes a final
    agg fed raw rows (compute expressions) from one fed partials
    (columns already computed; just sum).

    The state is the key and value columns of every contribution in
    :class:`_Columns` buffers. Compaction reduces them to one row per
    group, in ``groupby(sort=True)`` order: rows with an NA key are
    dropped, each key's factorised codes combine lexicographically into a
    group code (:func:`_groups`), and ``np.add.reduceat`` sums each run
    of a stable sort by it. Integer sums are exact and keep their dtype
    (bool sums become int64); float sums skip NaN, as pandas' do, but are
    not compensated, so they may differ from pandas' in the last bits.
    """

    def __init__(
        self,
        keys: list[str],
        aggs: dict[str, Callable[[_View], np.ndarray]],
        *,
        raw: bool = True,
        derived: Optional[MapFn] = None,
    ) -> None:
        self.keys, self.aggs, self.raw, self.derived = keys, aggs, raw, derived
        self._state = _Columns()
        self._nbytes = 0

    _COMPACT_ROWS = 20_000  # amortised re-aggregation threshold
    #: A keyless aggregation sizes its state as if every row also held an
    #: int64 group id, so its checkpoint cost follows the same rows ×
    #: width model as a keyed one's.
    _DUMMY_WIDTH = 8

    def _width(self, cols: dict[str, np.ndarray]) -> int:
        """Bytes per row of state holding ``cols``."""
        width = sum(dtype_width(v.dtype) for v in cols.values())
        return width if self.keys else width + self._DUMMY_WIDTH

    def on_batch(self, upstream_idx: int, batch: ColumnBatch) -> None:
        if batch is None or len(batch) == 0:
            return None
        d = _View(batch)
        cols = {k: d[k] for k in self.keys}
        for col, fn in self.aggs.items():
            cols[col] = np.asarray(fn(d)) if self.raw else d[col]
        for k, v in cols.items():
            if not isinstance(v, np.ndarray):
                raise TypeError(f"HashAgg column {k!r} is a {v.dtype} array, not numpy")
        self._state.append(cols, len(batch))
        self._nbytes += self._width(cols) * len(batch)
        # Amortised compaction keeps the state variable bounded by the
        # group count (the paper's hash-table-state model) without a full
        # re-aggregation per batch; thresholds are deterministic, so
        # replayed consumption sequences compact identically.
        if self._state.n >= self._COMPACT_ROWS:
            self._compact()
        return None

    def _compact(self) -> None:
        st = self._state
        order, starts = _groups([st.column(k) for k in self.keys], st.n)
        at = order[starts]
        out = {k: st.column(k)[at] for k in self.keys}
        for c in self.aggs:
            v = st.column(c)
            if v.dtype.kind == "f":
                v = np.where(np.isnan(v), v.dtype.type(0), v)
            dtype = np.int64 if v.dtype == bool else v.dtype
            out[c] = np.add.reduceat(v[order], starts, dtype=dtype)
        self._state = _Columns()
        self._state.append(out, len(starts))
        self._nbytes = self._width(out) * len(starts)

    def flush(self) -> Optional[ColumnBatch]:
        if not self._state.n:
            return None
        self._compact()
        if not self._state.n:
            return None
        out = {c: self._state.column(c) for c in self.keys + list(self.aggs)}
        if self.derived is None:
            return ColumnBatch.of_arrays(out)
        out = self.derived(pd.DataFrame(out))
        return as_columns(out) if len(out) else None

    def state_nbytes(self) -> int:
        return self._nbytes


def _groups(keys: list[np.ndarray], rows: int) -> tuple[np.ndarray, np.ndarray]:
    """(order, starts): the positions of the ``rows`` rows whose keys are
    all non-NA, stably sorted by key tuple as ``groupby(sort=True)``
    sorts groups, and the position in ``order`` where each group
    begins. No keys make one group of every row.

    Each key is factorised with ``pd.factorize(sort=True)``, groupby's
    own factoriser: NA (None, NaN, NaT) gets code -1, and hashing finds
    the groups of an object column many times faster than sorting its
    Python strings would. The codes combine lexicographically into one
    group code per row."""
    if not rows:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if not keys:
        return np.arange(rows), np.zeros(1, dtype=np.int64)
    codes, span = None, 1
    na = np.zeros(rows, dtype=bool)
    for k in keys:
        c, uniq = pd.factorize(k, sort=True)
        na |= c < 0
        if span * len(uniq) > np.iinfo(np.int64).max:
            # Renumber the groups seen so far densely so the combined
            # code cannot overflow.
            _, codes = np.unique(codes, return_inverse=True)
            span = int(codes.max()) + 1
        codes = c if codes is None else codes * len(uniq) + c
        span *= len(uniq)
    if na.any():
        keep = np.flatnonzero(~na)
        order = keep[np.argsort(codes[keep], kind="stable")]
        if not len(order):
            return order, order
    else:
        order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    starts = np.flatnonzero(np.r_[True, sorted_codes[1:] != sorted_codes[:-1]])
    return order, starts


class TopK(Operator):
    """Order-by/limit tail stage (single channel).

    Keeps the best ``k`` rows by ``sort_by``/``ascending``; the plan
    builder must include full tie-break columns so the result set is
    deterministic (required both by replay and by the DuckDB oracle).
    The state is a frame, sorted with pandas; ``flush`` emits it as a
    column batch.
    """

    def __init__(
        self,
        sort_by: list[str],
        ascending: list[bool],
        k: int,
        select: Optional[list[str]] = None,
    ) -> None:
        self.sort_by, self.ascending, self.k, self.select = (
            sort_by,
            ascending,
            k,
            select,
        )
        self._state: Optional[pd.DataFrame] = None

    def on_batch(self, upstream_idx: int, batch: ColumnBatch) -> None:
        if batch is None or len(batch) == 0:
            return None
        pdf = batch.to_frame()
        merged = (
            pdf
            if self._state is None
            else pd.concat([self._state, pdf], ignore_index=True)
        )
        self._state = (
            merged.sort_values(self.sort_by, ascending=self.ascending)
            .head(self.k)
            .reset_index(drop=True)
        )
        return None

    def flush(self) -> Optional[ColumnBatch]:
        if self._state is None:
            return None
        out = self._state
        if self.select is not None:
            out = out[self.select]
        return as_columns(out)

    def state_nbytes(self) -> int:
        return pdf_nbytes(self._state)

"""Stateful single-node kernels (the paper's DuckDB/Polars analogue).

Each operator instance is one channel's *state variable* (paper Fig. 1):
``on_batch`` absorbs one upstream output and may emit rows; ``flush``
emits the final output once every upstream channel has closed and been
fully consumed. Operators are deterministic functions of the sequence of
``(upstream_idx, batch)`` calls — the property lineage-based replay
relies on: retracing the logged consumption order reproduces
byte-identical outputs.

All non-scan operators here are stateful; stateless maps/filters are
fused into scans, into a join's ``project`` and into an aggregation's
``derived`` map (paper §III-B: stateless channels "are typically input
readers"). Each fused map is a function from a :class:`_View` of column
arrays to a :class:`~repro.engine.util.ColumnBatch`, built by
:meth:`_View.out`.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Optional

import numpy as np
import pandas as pd

from .partition import key_hash
from .util import ColumnBatch, concat_batches, dtype_width, pdf_nbytes


class Operator(ABC):
    """One channel's kernel + state variable."""

    @abstractmethod
    def on_batch(self, upstream_idx: int, batch: ColumnBatch) -> Optional[ColumnBatch]:
        """Absorb one upstream output batch; return emitted rows or None,
        never an empty batch.

        ``batch`` is a :class:`~repro.engine.util.ColumnBatch` (a scan's
        output over a fused edge, or a gather of shuffle slices); None or
        an empty batch is a no-op. Output is a column batch too: kernels,
        their state and their fused maps work on column arrays, and build
        no frame.
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
            # int, say) widens the buffer as pandas' concat would.
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
    (hash, position) index, merged lazily: the next probe orders the rows
    appended since the last one with :func:`_hash_order` and merges them
    in after every indexed row of an equal hash, so each run of equal
    hashes stays in insertion order. A probe orders its needles the same
    way, finds where each lands with one ``searchsorted``, and bounds and
    expands (``repeat``/``cumsum``) only the needles that hit — no Python
    loop over keys.
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
            order, new_h = _hash_order(self._hash[done:self.n])
            # side="right" files new rows after the indexed rows with an
            # equal hash; adding arange(m) turns "before old slot i" into
            # the new row's slot in the merged index.
            at = np.searchsorted(self._idx_hash, new_h, side="right")
            at += np.arange(len(at))
            old = np.ones(len(self._idx_hash) + len(at), dtype=bool)
            old[at] = False
            self._idx_hash = _merged(self._idx_hash, new_h, old, at)
            self._idx_pos = _merged(self._idx_pos, order + done, old, at)
        return self._idx_hash, self._idx_pos

    def probe(self, h: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """Positions (mine, probe's) of all row pairs with equal key hash,
        grouped by probe row in the probe's stable hash order, each group
        in my insertion order."""
        if not self.n:
            return None
        idx_hash, idx_pos = self._index()
        # Sorted needles keep consecutive binary searches on the same
        # cache lines: several times faster than in probe-row order.
        order, h = _hash_order(h)
        lo = np.searchsorted(idx_hash, h, side="left")
        # A needle hits iff the slot it would take holds its hash; only
        # hits are bounded and expanded, as a miss adds no pair.
        hit = idx_hash[np.minimum(lo, len(idx_hash) - 1)] == h
        if not hit.any():
            return None
        order, h, lo = order[hit], h[hit], lo[hit]
        cnt = np.searchsorted(idx_hash, h, side="right") - lo
        total = int(cnt.sum())
        theirs = np.repeat(order, cnt)
        # Pair j of sorted probe row r sits at idx_hash[lo[r] + j - first[r]],
        # where first[r] is the number of pairs before row r's.
        first = np.cumsum(cnt) - cnt
        mine = idx_pos[np.arange(total) - np.repeat(first - lo, cnt)]
        return mine, theirs

    def nbytes(self) -> int:
        return self._nbytes


def _hash_order(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.argsort(h, kind="stable")`` of uint64 hashes ``h``, and ``h``
    in that order.

    One in-place sort of packed keys replaces the stable argsort: each
    key is a hash with its low ``b`` bits replaced by the row's position,
    where ``b`` bits hold any position, so numpy's (SIMD) sort of plain
    uint64 does the work, several times faster than a stable argsort.
    Equal hashes share their high bits and so sort by position. If the
    hashes come out non-decreasing the permutation is therefore the
    stable one; if not, two different hashes agreed on their high bits
    with their positions reversed, and the stable argsort is taken
    instead."""
    n = len(h)
    b = np.uint64(max(1, (n - 1).bit_length()))
    key = h >> b << b
    key |= np.arange(n, dtype=np.uint64)
    key.sort()
    order = (key & ((np.uint64(1) << b) - np.uint64(1))).astype(np.int64)
    sorted_h = h[order]
    if (sorted_h[1:] < sorted_h[:-1]).any():
        order = np.argsort(h, kind="stable")
        sorted_h = h[order]
    return order, sorted_h


def _merged(old: np.ndarray, new: np.ndarray, is_old: np.ndarray,
            at: np.ndarray) -> np.ndarray:
    """``new`` placed at slots ``at`` and ``old`` in order in the slots
    where ``is_old`` is true."""
    out = np.empty(len(is_old), dtype=old.dtype)
    out[at] = new
    out[is_old] = old
    return out


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
    emits a standalone :class:`~repro.engine.util.ColumnBatch`, by
    default every column of both inputs, the left input's first.
    ``project`` is the fused stateless map over emitted rows: it reads a
    :class:`_View` of the matched pairs, which gathers only the columns it
    names, and returns the output batch (:meth:`_View.out`). The plan
    builder guarantees the two sides have disjoint column names.
    """

    def __init__(self, left_on: list[str], right_on: list[str],
                 project: Optional[Callable[["_View"], ColumnBatch]] = None) -> None:
        self.left_on, self.right_on, self.project = left_on, right_on, project
        self._sides = [_JoinSide(left_on), _JoinSide(right_on)]

    def on_batch(self, upstream_idx: int, batch: ColumnBatch) -> Optional[ColumnBatch]:
        if upstream_idx not in (0, 1):
            raise ValueError(f"join has upstreams 0/1, got {upstream_idx}")
        if batch is None or len(batch) == 0:
            return None
        mine = self._sides[upstream_idx]
        other = self._sides[1 - upstream_idx]
        h = key_hash(batch, mine.keys)
        cols = dict(zip(batch.names, batch.cols))
        hit = other.probe(h)
        out = None
        if hit is not None:
            opos, ppos = self._verified(hit, other, batch, cols, mine.keys)
            if len(opos):
                out = self._emitted(upstream_idx, cols, ppos, other.cols, opos)
        mine.append(cols, batch.width, h)
        return out if out is not None and len(out) else None

    def _emitted(self, upstream_idx: int, cols, ppos, stored: _Columns, opos):
        """The output of matched pairs (probe rows ``ppos`` of ``cols``,
        stored rows ``opos``): ``project``'s, else every column, the left
        input's first."""
        if self.project is None:
            left = {c: vals[ppos] for c, vals in cols.items()}
            right = stored.take(opos)
            if upstream_idx == 1:
                left, right = right, left
            return ColumnBatch.of_arrays({**left, **right})

        def read(c: str):
            if c in cols:
                return cols[c][ppos]
            return stored.column(c)[opos] if c in stored else None

        return self.project(_View(read, len(ppos)))

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
    """The columns a fused map or an aggregate expression reads: ``d.col``
    and ``d["col"]`` are the column's array and ``len(d)`` is the row
    count, so ``d.a * (1 - d.b)`` is numpy arithmetic.

    ``read(name)`` gives a column's array, or None when the input has no
    such column; each column is read once, when first named, so a view
    over a join's matched pairs gathers only the columns a map reads.
    """

    __slots__ = ("_read", "_rows", "_cols")

    def __init__(self, read: Callable[[str], object], rows: int) -> None:
        self._read, self._rows, self._cols = read, rows, {}

    @classmethod
    def of_batch(cls, batch: ColumnBatch) -> "_View":
        names, cols = batch.names, batch.cols
        return cls(lambda c: cols[names.index(c)] if c in names else None, len(batch))

    def __len__(self) -> int:
        return self._rows

    def __getitem__(self, name: str):
        col = self._cols.get(name)
        if col is None:
            col = self._read(name)
            if col is None:
                raise ValueError(f"{name!r} is not a column of the input")
            self._cols[name] = col
        return col

    def __getattr__(self, name: str):
        try:
            return self[name]
        except ValueError:
            raise AttributeError(name) from None

    def out(self, names: list[str], mask=None, **derived) -> ColumnBatch:
        """The batch of columns ``names`` in that order — each the derived
        array of that name if one is given, else the input's column — of
        the rows where the boolean array ``mask`` is true (all rows
        without a mask); it may have no rows. A projection that names no
        column, names one twice or names a column the input lacks raises
        ValueError."""
        if not names:
            raise ValueError("a projection names no column")
        dups = sorted({c for c in names if names.count(c) > 1})
        if dups:
            raise ValueError(f"a projection names {dups} more than once")
        pos = None if mask is None else np.flatnonzero(mask)
        data = {}
        for c in names:
            col = derived[c] if c in derived else self[c]
            if len(col) != self._rows:
                raise ValueError(f"{c!r} has {len(col)} rows, the input {self._rows}")
            data[c] = col if pos is None else col[pos]
        return ColumnBatch.of_arrays(data)


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
    (columns already computed; just sum). ``derived`` maps a view of the
    flushed key and sum columns to the output batch.

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
        derived: Optional[Callable[[_View], ColumnBatch]] = None,
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
        d = _View.of_batch(batch)
        cols = {k: d[k] for k in self.keys}
        for col, fn in self.aggs.items():
            cols[col] = np.asarray(fn(d)) if self.raw else d[col]
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
        names = self.keys + list(self.aggs)
        out = ColumnBatch.of_arrays({c: self._state.column(c) for c in names})
        if self.derived is None:
            return out
        out = self.derived(_View.of_batch(out))
        return out if len(out) else None

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
    The state is a column batch. Each batch is appended to it and the
    rows ordered as pandas orders a frame sorted by several columns:
    every key is factorised in sorted order, NA last whatever the
    direction, and ``np.lexsort`` sorts the codes stably.
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
        self._state: Optional[ColumnBatch] = None

    def on_batch(self, upstream_idx: int, batch: ColumnBatch) -> None:
        if batch is None or len(batch) == 0:
            return None
        merged = concat_batches([self._state, batch])
        codes = []
        for c, asc in zip(self.sort_by, self.ascending):
            code, uniq = pd.factorize(merged.column(c), sort=True)
            n = len(uniq)
            codes.append(np.where(code < 0, n, code if asc else n - 1 - code))
        self._state = merged.take(np.lexsort(codes[::-1])[: self.k])
        return None

    def flush(self) -> Optional[ColumnBatch]:
        if self._state is None or self.select is None:
            return self._state
        return _View.of_batch(self._state).out(self.select)

    def state_nbytes(self) -> int:
        return pdf_nbytes(self._state)

"""Stateful single-node kernels (the paper's DuckDB/Polars analogue).

Each operator instance is one channel's *state variable* (paper Fig. 1):
``on_batch`` absorbs one upstream output and may emit rows; ``flush``
emits the final output once every upstream channel has closed and been
fully consumed. Operators are deterministic functions of the sequence of
``(upstream_idx, batch)`` calls — the property lineage-based replay
relies on: retracing the logged consumption order reproduces
byte-identical outputs.

All non-scan operators here are stateful; stateless maps/filters are
fused into scans and into join/agg ``post`` callbacks (paper §III-B:
stateless channels "are typically input readers").
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Optional

import numpy as np
import pandas as pd

from .partition import key_hash
from .util import Batch, ColumnBatch, as_columns, as_frame, pdf_nbytes

MapFn = Callable[[pd.DataFrame], pd.DataFrame]


class Operator(ABC):
    """One channel's kernel + state variable."""

    @abstractmethod
    def on_batch(self, upstream_idx: int, batch: Batch) -> Optional[Batch]:
        """Absorb one upstream output batch; return emitted rows or None.

        ``batch`` is a frame (a scan's output over a fused edge, say) or a
        :class:`~repro.engine.util.ColumnBatch` (a gather of shuffle
        slices). An operator that runs pandas code builds its frame with
        :func:`~repro.engine.util.as_frame`; one that works on arrays
        reads them with :func:`~repro.engine.util.as_columns`. It may
        emit either kind.
        """

    def flush(self) -> Optional[pd.DataFrame]:
        """Final emission after all upstreams closed; None if nothing."""
        return None

    def state_nbytes(self) -> int:
        """Size of the state variable (drives checkpointing cost)."""
        return 0


class _JoinSide:
    """One side of a symmetric hash join, held column by column.

    Each column lives in a numpy buffer whose capacity doubles, so appends
    cost O(batch) amortised and the side is held once in RAM. Every row's
    key hash (:func:`partition.key_hash`) feeds a sorted (hash, position)
    index; the next probe stably sorts the rows appended since the last
    one and merges them in, so equal hashes stay in insertion order. A
    probe is two ``searchsorted`` calls plus a ``repeat``/``cumsum``
    expansion of the matching runs — no Python loop over keys.
    """

    def __init__(self, keys: list[str]) -> None:
        self.keys = keys
        self.n = 0
        self._cols: dict[str, np.ndarray] = {}
        self._hash = np.empty(0, dtype=np.uint64)
        self._idx_hash = np.empty(0, dtype=np.uint64)
        self._idx_pos = np.empty(0, dtype=np.int64)
        self._nbytes = 0

    def append(self, cols: dict[str, np.ndarray], width: int, h: np.ndarray) -> None:
        """Add rows given as ``{column: values}``, ``width`` bytes each,
        whose key hashes are ``h``."""
        end = self.n + len(h)
        cap = len(self._hash)
        if end > cap:
            cap = max(end, 2 * cap)
            self._hash = _grown(self._hash, self.n, cap, np.uint64)
        self._hash[self.n:end] = h
        for c, vals in cols.items():
            buf = self._cols.get(c, vals[:0])
            # A batch whose column is wider than the buffer (float into
            # int, say) widens the buffer as pd.concat would.
            if len(buf) < cap or not np.can_cast(vals.dtype, buf.dtype):
                dtype = np.result_type(buf.dtype, vals.dtype)
                buf = self._cols[c] = _grown(buf, self.n, cap, dtype)
            buf[self.n:end] = vals
        self.n = end
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

    def column(self, c: str) -> np.ndarray:
        return self._cols[c][: self.n]

    def take(self, pos: np.ndarray) -> dict[str, np.ndarray]:
        """Rows ``pos`` as ``{column: values}``."""
        return {c: buf[pos] for c, buf in self._cols.items()}

    def nbytes(self) -> int:
        return self._nbytes


def _grown(buf: np.ndarray, n: int, cap: int, dtype) -> np.ndarray:
    """A ``cap``-row buffer of ``dtype`` holding ``buf``'s first n rows."""
    out = np.empty(cap, dtype=dtype)
    out[:n] = buf[:n]
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
    emits a standalone :class:`~repro.engine.util.ColumnBatch`. ``post``
    is an optional fused stateless map/filter over emitted rows; it gets
    them as a frame and its output is emitted. The plan builder
    guarantees the two sides have disjoint column names.
    """

    def __init__(
        self,
        left_on: list[str],
        right_on: list[str],
        post: Optional[MapFn] = None,
    ) -> None:
        self.left_on, self.right_on, self.post = left_on, right_on, post
        self._sides = [_JoinSide(left_on), _JoinSide(right_on)]

    def on_batch(self, upstream_idx: int, batch: Batch) -> Optional[Batch]:
        if upstream_idx not in (0, 1):
            raise ValueError(f"join has upstreams 0/1, got {upstream_idx}")
        if batch is None or len(batch) == 0:
            return None
        batch = as_columns(batch)
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
                left = {c: vals[ppos] for c, vals in cols.items()}
                right = other.take(opos)
                if upstream_idx == 1:  # keep left columns first
                    left, right = right, left
                out = {**left, **right}
        mine.append(cols, batch.width, h)
        if out is None:
            return None
        if self.post is None:
            return ColumnBatch.of_arrays(out)
        # Every column is a fresh gather, so the frame may own it as is
        # rather than copy it into consolidated blocks.
        out = self.post(pd.DataFrame(out, copy=False))
        return out if out is not None and len(out) else None

    @staticmethod
    def _verified(hit, other: _JoinSide, batch: ColumnBatch, cols, keys: list[str]):
        """Drop hash-equal pairs whose real keys differ. Equal hashes imply
        equal keys (see ``key_hash``) only for one integer key on both
        sides, so every other key shape is re-checked column by column."""
        opos, ppos = hit
        if len(keys) == 1 and (
            batch.column(keys[0]).dtype.kind in "iu"
            and other.column(other.keys[0]).dtype.kind in "iu"
        ):
            return opos, ppos
        keep = np.ones(len(opos), dtype=bool)
        for ok, pk in zip(other.keys, keys):
            keep &= other.column(ok)[opos] == cols[pk][ppos]
        return opos[keep], ppos[keep]

    def state_nbytes(self) -> int:
        return self._sides[0].nbytes() + self._sides[1].nbytes()


class HashAgg(Operator):
    """Hash aggregation where every aggregate is a SUM of an expression.

    This covers the reproduced queries: ``count(*)`` is the sum of ones,
    ``avg`` and ratio aggregates are derived from sums in ``derived`` at
    flush time. Two roles:

    * ``partial``: accumulates partial sums per group from raw rows and
      emits them only at flush — the *aggregation pushdown* the paper
      credits for Quokka's near-zero spool volume on TPC-H Q1/Q6.
    * ``final``: merges partial frames (or raw rows when no pushdown,
      the Trino-sim plan shape), then applies ``derived`` at flush.

    ``aggs`` maps output column -> expression over the input batch.
    ``raw`` distinguishes a final agg fed raw rows (compute expressions)
    from one fed partials (columns already computed; just sum).
    """

    _DUMMY = "__g"

    def __init__(
        self,
        keys: list[str],
        aggs: dict[str, Callable[[pd.DataFrame], pd.Series]],
        *,
        raw: bool = True,
        derived: Optional[MapFn] = None,
    ) -> None:
        self.keys, self.aggs, self.raw, self.derived = keys, aggs, raw, derived
        self._chunks: list[pd.DataFrame] = []
        self._rows = 0

    _COMPACT_ROWS = 20_000  # amortised re-aggregation threshold

    def _contrib(self, pdf: pd.DataFrame) -> pd.DataFrame:
        if self.raw:
            data = {k: pdf[k] for k in self.keys}
            for col, fn in self.aggs.items():
                data[col] = np.asarray(fn(pdf))
            out = pd.DataFrame(data)
        else:
            out = pdf[self.keys + list(self.aggs)].copy()
        if not self.keys:
            out[self._DUMMY] = 0
        return out

    def _compact(self) -> Optional[pd.DataFrame]:
        if not self._chunks:
            return None
        merged = (
            self._chunks[0]
            if len(self._chunks) == 1
            else pd.concat(self._chunks, ignore_index=True)
        )
        gkeys = self.keys if self.keys else [self._DUMMY]
        out = merged.groupby(gkeys, as_index=False, sort=True).sum()
        self._chunks = [out]
        self._rows = len(out)
        return out

    def on_batch(self, upstream_idx: int, batch: Batch) -> None:
        if batch is None or len(batch) == 0:
            return None
        contrib = self._contrib(as_frame(batch))
        self._chunks.append(contrib)
        self._rows += len(contrib)
        # Amortised compaction keeps the state variable bounded by the
        # group count (the paper's hash-table-state model) without a full
        # re-aggregation per batch; thresholds are deterministic, so
        # replayed consumption sequences compact identically.
        if self._rows >= self._COMPACT_ROWS:
            self._compact()
        return None

    def flush(self) -> Optional[pd.DataFrame]:
        out = self._compact()
        if out is None:
            return None
        if not self.keys:
            out = out.drop(columns=[self._DUMMY])
        if self.derived is not None:
            out = self.derived(out)
        return out if len(out) else None

    def state_nbytes(self) -> int:
        return sum(pdf_nbytes(c) for c in self._chunks)


class TopK(Operator):
    """Order-by/limit tail stage (single channel).

    Keeps the best ``k`` rows by ``sort_by``/``ascending``; the plan
    builder must include full tie-break columns so the result set is
    deterministic (required both by replay and by the DuckDB oracle).
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

    def on_batch(self, upstream_idx: int, batch: Batch) -> None:
        if batch is None or len(batch) == 0:
            return None
        pdf = as_frame(batch)
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

    def flush(self) -> Optional[pd.DataFrame]:
        if self._state is None:
            return None
        out = self._state
        if self.select is not None:
            out = out[self.select]
        return out

    def state_nbytes(self) -> int:
        return pdf_nbytes(self._state)

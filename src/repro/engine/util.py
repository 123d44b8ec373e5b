"""Shared data-plane helpers: column batches, their sizes and gathers."""
from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np
import pandas as pd


def dtype_width(dtype) -> int:
    """Bytes per value of a column of ``dtype``: numpy dtypes at their
    item size except object (string) columns, which count a flat 24;
    pandas extension dtypes at their ``itemsize`` when they have one, else
    24. Cheap and stable, which matters because the cost model sizes
    every task output."""
    if isinstance(dtype, np.dtype):
        return 24 if dtype == object else dtype.itemsize
    return getattr(dtype, "itemsize", None) or 24


def pdf_nbytes(batch: Optional[Batch]) -> int:
    """Approximate wire/storage size of a batch, in bytes: rows times
    :func:`row_nbytes`. ``None`` (the empty-output sentinel) is 0 bytes."""
    if batch is None or len(batch) == 0:
        return 0
    return row_nbytes(batch) * len(batch)


def row_nbytes(batch: Batch) -> int:
    """Bytes per row: the sum of :func:`dtype_width` over the columns."""
    if isinstance(batch, ColumnBatch):
        return batch.width
    return sum(dtype_width(dtype) for dtype in batch.dtypes.to_numpy())


class ColumnBatch:
    """Rows held column by column until an operator needs a frame — the
    role an Arrow record batch plays between the paper's kernels.

    ``cols`` are numpy arrays for numpy dtypes and pandas extension arrays
    otherwise (``to_numpy`` would lose an ``Int64`` with NA or a tz-aware
    datetime), in ``names`` order. ``width`` is bytes per row under
    :func:`dtype_width`, so sizing a batch walks no dtypes.

    A batch read from a frame keeps it as ``src``, with ``pos`` the rows'
    positions in it (None for the whole frame), and materialises with one
    ``take``. A batch with no ``src`` is standalone — a gathered
    concatenation, a join or aggregation output, or a slice of one — and
    materialises as one consolidated frame.
    """

    __slots__ = ("names", "cols", "rows", "width", "src", "pos")

    def __init__(
        self,
        names: list[str],
        cols: list,
        rows: int,
        width: int,
        src: Optional[pd.DataFrame] = None,
        pos: Optional[np.ndarray] = None,
    ) -> None:
        self.names = names
        self.cols = cols
        self.rows = rows
        self.width = width
        self.src = src
        self.pos = pos

    @classmethod
    def of_arrays(cls, data: dict[str, np.ndarray]) -> "ColumnBatch":
        """The columns ``pd.DataFrame(data)`` would hold, as a standalone
        batch: an object array the frame constructor infers (all
        Timestamps become ``datetime64[ns]``, say) is inferred the same
        way, which the Series constructor shares with it. An array that
        starts with a string cannot be inferred and is kept as is."""
        cols, width = [], 0
        for col in data.values():
            if col.dtype == object and len(col) and not isinstance(col[0], str):
                s = pd.Series(col, copy=False)
                col = s.to_numpy() if isinstance(s.dtype, np.dtype) else s.array
            cols.append(col)
            width += dtype_width(col.dtype)
        return cls(list(data), cols, len(cols[0]), width)

    def __len__(self) -> int:
        return self.rows

    @property
    def nbytes(self) -> int:
        return self.rows * self.width

    def column(self, name: str):
        return self.cols[self.names.index(name)]

    def take(self, pos: np.ndarray) -> "ColumnBatch":
        """Rows ``pos`` in a batch that owns its arrays, positions
        included, so it pins nothing of this batch's arrays (a slice of a
        whole frame still references the frame, to materialise from)."""
        cols = [col[pos] for col in self.cols]
        if self.src is not None and self.pos is None:
            return ColumnBatch(self.names, cols, len(pos), self.width, self.src, pos.copy())
        return ColumnBatch(self.names, cols, len(pos), self.width)

    def to_frame(self) -> pd.DataFrame:
        """The batch as a frame with a ``RangeIndex``: the source frame
        itself for a whole frame; one ``take`` from it for some of its
        rows, which keeps its blocks and dtypes and costs far less than
        building a frame column by column; else one consolidated frame
        built from the columns."""
        if self.src is None:
            return _frame(self.names, self.cols, self.rows)
        if self.pos is None:
            return self.src
        out = self.src.take(self.pos)
        out.index = pd.RangeIndex(self.rows)
        return out


Batch = Union[pd.DataFrame, ColumnBatch]


def as_frame(batch: Batch) -> pd.DataFrame:
    """``batch`` as a frame, for an operator that runs pandas code."""
    return batch if isinstance(batch, pd.DataFrame) else batch.to_frame()


def as_columns(batch: Batch) -> ColumnBatch:
    """``batch`` as a column batch: itself, or a frame's columns, each
    read once, wrapping the frame."""
    if isinstance(batch, ColumnBatch):
        return batch
    cols, width = [], 0
    for _, s in batch.items():
        cols.append(s.to_numpy() if isinstance(s.dtype, np.dtype) else s.array)
        width += dtype_width(s.dtype)
    return ColumnBatch(list(batch.columns), cols, len(batch), width, batch)


def _frame(names: list[str], cols: list, rows: int) -> pd.DataFrame:
    """One consolidated frame with a ``RangeIndex`` over ``cols``.

    The dict constructor infers datetimes from an object array holding
    only Timestamps (or Timedeltas, Periods), where ``pd.concat`` keeps
    it object; such a column goes in as an object Series, which is kept
    as is. An array that starts with a string cannot be inferred.
    """
    data = {}
    for name, col in zip(names, cols):
        if (
            isinstance(col, np.ndarray)
            and col.dtype == object
            and len(col)
            and not isinstance(col[0], str)
        ):
            col = pd.Series(col, dtype=object, copy=False)
        data[name] = col
    # Columns imply the RangeIndex; only a frame without any needs one.
    return pd.DataFrame(data, index=None if data else pd.RangeIndex(rows))


def columnar(parts: Sequence[Batch]) -> bool:
    """True when ``parts`` are all column batches with the same column
    names and the same numpy dtypes. Such batches concatenate column by
    column into a batch of that schema, so its size is the sum of theirs."""
    first = parts[0]
    if not isinstance(first, ColumnBatch) or not all(
        isinstance(c, np.ndarray) for c in first.cols
    ):
        return False
    for p in parts[1:]:
        if not isinstance(p, ColumnBatch):
            return False
        if p.names is first.names:
            continue  # slices of one partition call share one schema
        if p.names != first.names or any(
            a.dtype != b.dtype for a, b in zip(p.cols, first.cols)
        ):
            return False
    return True


def concat_batches(batches: list[Optional[Batch]]) -> Optional[Batch]:
    """Concatenate batches, treating ``None`` and empty batches as absent;
    ``None`` if all are.

    A lone batch is returned as is. Column batches of one numpy schema
    become one standalone column batch, with one ``np.concatenate`` per
    column and no frame. Anything else — frames, extension dtypes,
    schemas that differ — goes through ``pd.concat``, so dtype promotion
    (int32 with int64 gives int64, say) is exactly pandas'.
    """
    parts = [b for b in batches if b is not None and len(b)]
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    if columnar(parts):
        first = parts[0]
        cols = [
            np.concatenate([p.cols[i] for p in parts])
            for i in range(len(first.names))
        ]
        return ColumnBatch(first.names, cols, sum(p.rows for p in parts), first.width)
    return pd.concat([as_frame(p) for p in parts], ignore_index=True)

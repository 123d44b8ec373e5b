"""Shared data-plane helpers: column batches, their sizes and gathers."""
from __future__ import annotations

from typing import Optional, Sequence

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


def pdf_nbytes(batch: Optional[ColumnBatch]) -> int:
    """Approximate wire/storage size of a batch, in bytes: rows times
    :func:`row_nbytes`. ``None`` (the empty-output sentinel) is 0 bytes."""
    if batch is None or len(batch) == 0:
        return 0
    return row_nbytes(batch) * len(batch)


def row_nbytes(batch: ColumnBatch) -> int:
    """Bytes per row: the sum of :func:`dtype_width` over the columns."""
    return batch.width


class ColumnBatch:
    """Rows held column by column — the one batch type the engine moves,
    in the role an Arrow record batch plays between the paper's kernels.

    ``cols`` are numpy arrays for numpy dtypes and pandas extension arrays
    otherwise (``to_numpy`` would lose an ``Int64`` with NA or a tz-aware
    datetime), in ``names`` order. ``width`` is bytes per row under
    :func:`dtype_width`, so sizing a batch walks no dtypes.
    """

    __slots__ = ("names", "cols", "rows", "width")

    def __init__(self, names: list[str], cols: list, rows: int, width: int) -> None:
        self.names = names
        self.cols = cols
        self.rows = rows
        self.width = width

    @classmethod
    def of_arrays(cls, data: dict[str, np.ndarray]) -> "ColumnBatch":
        """The columns ``pd.DataFrame(data)`` would hold: an object array
        the frame constructor infers (all Timestamps become
        ``datetime64[ns]``, say) is inferred the same way, which the
        Series constructor shares with it. An array that starts with a
        string cannot be inferred and is kept as is."""
        if not data:
            raise ValueError("a column batch needs at least one column")
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
        """Rows ``pos`` in a batch that owns its arrays."""
        return ColumnBatch(self.names, [col[pos] for col in self.cols], len(pos), self.width)

    def to_frame(self) -> pd.DataFrame:
        """The batch as one consolidated frame with a ``RangeIndex``.

        The dict constructor infers datetimes from an object array holding
        only Timestamps (or Timedeltas, Periods), where ``pd.concat`` keeps
        it object; such a column goes in as an object Series, which is kept
        as is. An array that starts with a string cannot be inferred.
        """
        data = {}
        for name, col in zip(self.names, self.cols):
            if (
                isinstance(col, np.ndarray)
                and col.dtype == object
                and len(col)
                and not isinstance(col[0], str)
            ):
                col = pd.Series(col, dtype=object, copy=False)
            data[name] = col
        # Columns imply the RangeIndex; only a frame without any needs one.
        return pd.DataFrame(data, index=None if data else pd.RangeIndex(self.rows))


def as_columns(frame: pd.DataFrame) -> ColumnBatch:
    """A frame's columns, each read once, as a column batch: numpy
    arrays for numpy dtypes, pandas arrays otherwise. A source table
    enters the engine this way, once (see ``synth_data.split_batches``),
    as does ``concat_batches``' ``pd.concat`` fallback."""
    cols, width = [], 0
    for _, s in frame.items():
        cols.append(s.to_numpy() if isinstance(s.dtype, np.dtype) else s.array)
        width += dtype_width(s.dtype)
    return ColumnBatch(list(frame.columns), cols, len(frame), width)


def columnar(parts: Sequence[ColumnBatch]) -> bool:
    """True when ``parts`` all have the same column names and the same
    numpy dtypes. Such batches concatenate column by column into a batch
    of that schema, so its size is the sum of theirs."""
    first = parts[0]
    if not all(isinstance(c, np.ndarray) for c in first.cols):
        return False
    for p in parts[1:]:
        if p.names is first.names:
            continue  # slices of one partition call share one schema
        if p.names != first.names or any(
            a.dtype != b.dtype for a, b in zip(p.cols, first.cols)
        ):
            return False
    return True


def concat_batches(batches: list[Optional[ColumnBatch]]) -> Optional[ColumnBatch]:
    """Concatenate batches, treating ``None`` and empty batches as absent;
    ``None`` if all are.

    A lone batch is returned as is. Batches of one numpy schema become
    one batch with one ``np.concatenate`` per column. Batches with
    extension dtypes or schemas that differ go through ``pd.concat``, so
    dtype promotion (int32 with int64 gives int64, say) is exactly
    pandas'.
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
    return as_columns(pd.concat([p.to_frame() for p in parts], ignore_index=True))

"""Shared data-plane helpers: column batches, their sizes and gathers."""
from __future__ import annotations

from itertools import zip_longest
from typing import Optional

import numpy as np
import pandas as pd


def dtype_width(dtype: np.dtype) -> int:
    """Bytes per value of a column of numpy ``dtype``: its item size,
    except object (string) columns, which count a flat 24. Cheap and
    stable, which matters because the cost model sizes every task
    output."""
    return 24 if dtype == object else dtype.itemsize


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

    ``cols`` are numpy arrays, in ``names`` order: no pandas extension
    array (``Int64``, ``string``, categorical, tz-aware) is ever a column.
    The two places columns are born check it, :func:`as_columns` for a
    frame and :meth:`of_arrays` for the arrays a kernel computes.
    ``width`` is bytes per row under :func:`dtype_width`, so sizing a
    batch walks no dtypes.
    """

    __slots__ = ("names", "cols", "rows", "width")

    def __init__(self, names: list[str], cols: list[np.ndarray], rows: int, width: int) -> None:
        self.names = names
        self.cols = cols
        self.rows = rows
        self.width = width

    @classmethod
    def of_arrays(cls, data: dict[str, np.ndarray]) -> "ColumnBatch":
        """A batch of the numpy arrays ``data``; any other array raises
        TypeError naming its column.

        An object array the frame constructor infers to a numpy dtype
        (all naive Timestamps become ``datetime64[ns]``, say) is inferred
        the same way, through the Series constructor the two share. One
        it would infer to an extension dtype (tz-aware Timestamps), or
        one that starts with a string, is kept as is."""
        if not data:
            raise ValueError("a column batch needs at least one column")
        cols, width = [], 0
        for name, col in data.items():
            if not isinstance(col, np.ndarray):
                kind = type(col).__name__
                raise TypeError(f"column {name!r} is {kind} of {col.dtype}, not numpy")
            if col.dtype == object and len(col) and not isinstance(col[0], str):
                s = pd.Series(col, copy=False)
                if isinstance(s.dtype, np.dtype):
                    col = s.to_numpy()
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
        only Timestamps (or Timedeltas, Periods); such a column goes in as
        an object Series, which keeps it object, as the batch holds it. An
        array that starts with a string cannot be inferred.
        """
        data = {}
        for name, col in zip(self.names, self.cols):
            if col.dtype == object and len(col) and not isinstance(col[0], str):
                col = pd.Series(col, dtype=object, copy=False)
            data[name] = col
        # Columns imply the RangeIndex; only a frame without any needs one.
        return pd.DataFrame(data, index=None if data else pd.RangeIndex(self.rows))


def as_columns(frame: pd.DataFrame) -> ColumnBatch:
    """A frame's columns, each read once, as a column batch. A source
    table enters the engine this way, once (see
    ``synth_data.split_batches``). A column of a pandas extension dtype
    raises TypeError naming it and its dtype."""
    for name, dtype in frame.dtypes.items():
        if not isinstance(dtype, np.dtype):
            raise TypeError(f"column {name!r} has dtype {dtype}, not a numpy dtype")
    cols = [s.to_numpy() for _, s in frame.items()]
    width = sum(dtype_width(col.dtype) for col in cols)
    return ColumnBatch(list(frame.columns), cols, len(frame), width)


def concat_batches(batches: list[Optional[ColumnBatch]]) -> Optional[ColumnBatch]:
    """Concatenate batches, treating ``None`` and empty batches as absent;
    ``None`` if all are.

    A lone batch is returned as is. Batches of one schema (the same
    column names, each of the same dtype) become one batch with one
    ``np.concatenate`` per column, so its size is the sum of theirs. A
    batch whose schema differs from the first's raises ValueError naming
    the first column that differs: one gather has one schema.
    """
    parts = [b for b in batches if b is not None and len(b)]
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    first = parts[0]
    for p in parts[1:]:
        if p.names is not first.names and (
            p.names != first.names
            or any(a.dtype != b.dtype for a, b in zip(p.cols, first.cols))
        ):
            raise ValueError(_schema_difference(first, p))
    cols = [
        np.concatenate([p.cols[i] for p in parts])
        for i in range(len(first.names))
    ]
    return ColumnBatch(first.names, cols, sum(p.rows for p in parts), first.width)


def _schema_difference(a: ColumnBatch, b: ColumnBatch) -> str:
    """Where ``b``'s schema first differs from ``a``'s."""
    def schema(batch):
        return [f"{n!r} ({c.dtype})" for n, c in zip(batch.names, batch.cols)]

    for i, (x, y) in enumerate(zip_longest(schema(a), schema(b), fillvalue="no column")):
        if x != y:
            break
    return f"batches of one gather differ at column {i}: {x} against {y}"

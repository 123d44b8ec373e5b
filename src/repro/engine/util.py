"""Shared data-plane helpers: batch sizes, shuffle slices and gathers."""
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


def pdf_nbytes(pdf: Optional[pd.DataFrame]) -> int:
    """Approximate wire/storage size of a batch, in bytes: rows times
    :func:`row_nbytes`. ``None`` (the empty-output sentinel) is 0 bytes."""
    if pdf is None or len(pdf) == 0:
        return 0
    return row_nbytes(pdf) * len(pdf)


def row_nbytes(pdf: pd.DataFrame) -> int:
    """Bytes per row: the sum of :func:`dtype_width` over the columns."""
    return sum(dtype_width(dtype) for dtype in pdf.dtypes.to_numpy())


class Slice:
    """Rows of one shuffled batch, held column by column until a consumer
    needs a frame — the role an Arrow record batch plays on the wire.

    ``cols`` are numpy arrays for numpy dtypes and pandas extension arrays
    otherwise (``to_numpy`` would lose an ``Int64`` with NA or a tz-aware
    datetime), in ``names`` order. ``width`` is bytes per row under
    :func:`dtype_width`, so sizing a slice walks no dtypes. ``src`` is the
    batch the rows come from and ``pos`` their positions in it, or None
    when the slice is the whole batch.
    """

    __slots__ = ("names", "cols", "rows", "width", "src", "pos")

    def __init__(
        self,
        names: list[str],
        cols: list,
        rows: int,
        width: int,
        src: pd.DataFrame,
        pos: Optional[np.ndarray] = None,
    ) -> None:
        self.names = names
        self.cols = cols
        self.rows = rows
        self.width = width
        self.src = src
        self.pos = pos

    def __len__(self) -> int:
        return self.rows

    @property
    def nbytes(self) -> int:
        return self.rows * self.width

    def to_frame(self) -> pd.DataFrame:
        """The slice as a frame on its own: the batch itself for a whole
        batch, else one ``take`` from the batch, which keeps its blocks
        and dtypes and costs far less than building a frame column by
        column."""
        if self.pos is None:
            return self.src
        out = self.src.take(self.pos)
        out.index = pd.RangeIndex(self.rows)
        return out


Batch = Union[pd.DataFrame, Slice]


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
    """True when ``parts`` are all slices with the same column names and
    the same numpy dtypes. Such slices concatenate column by column
    into a frame of that schema, so its size is the sum of theirs."""
    first = parts[0]
    if not isinstance(first, Slice) or not all(
        isinstance(c, np.ndarray) for c in first.cols
    ):
        return False
    for p in parts[1:]:
        if not isinstance(p, Slice):
            return False
        if p.names is first.names:
            continue  # slices of one partition call share one schema
        if p.names != first.names or any(
            a.dtype != b.dtype for a, b in zip(p.cols, first.cols)
        ):
            return False
    return True


def concat_batches(batches: list[Optional[Batch]]) -> Optional[pd.DataFrame]:
    """Concatenate batches into one frame, treating ``None`` and empty
    batches as absent; ``None`` if all are.

    Slices of one numpy schema are concatenated column by column into a
    single consolidated frame. Anything else — frames, extension dtypes,
    schemas that differ — goes through ``pd.concat``, so dtype promotion
    (int32 with int64 gives int64, say) is exactly pandas'.
    """
    parts = [b for b in batches if b is not None and len(b)]
    if not parts:
        return None
    if len(parts) == 1:
        p = parts[0]
        return p.to_frame() if isinstance(p, Slice) else p
    if columnar(parts):
        first = parts[0]
        cols = [
            np.concatenate([p.cols[i] for p in parts])
            for i in range(len(first.names))
        ]
        return _frame(first.names, cols, sum(p.rows for p in parts))
    frames = [p.to_frame() if isinstance(p, Slice) else p for p in parts]
    return pd.concat(frames, ignore_index=True)

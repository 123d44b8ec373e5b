"""The array ``HashAgg`` against the pandas kernel it replaced.

:class:`PandasHashAgg` is that kernel, kept here as the reference (as
``test_gather.py`` keeps frame-per-slice partitioning): contributions as
frames, compaction by ``pd.concat`` and ``groupby(sort=True).sum()``.
On random batches the array version must give the same groups in the
same order, with the same key dtypes, exact integer sums, float sums
within ``rtol=1e-12`` (``np.add.reduceat`` does not compensate as pandas
does) and the same ``state_nbytes()`` after every call: checkpoint cost
reads it.
"""
from typing import Optional

import numpy as np
import pandas as pd
import pytest

from repro.engine.operators import HashAgg, _groups
from repro.engine.util import ColumnBatch, as_columns


class PandasHashAgg:
    """The pandas ``HashAgg``: every aggregate a SUM of an expression,
    computed on the input batch's frame."""

    _DUMMY = "__g"
    _COMPACT_ROWS = 20_000

    def __init__(self, keys, aggs, *, raw=True, derived=None):
        self.keys, self.aggs, self.raw, self.derived = keys, aggs, raw, derived
        self._chunks: list[pd.DataFrame] = []
        self._rows = 0

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

    def on_batch(self, upstream_idx, batch):
        if batch is None or len(batch) == 0:
            return None
        contrib = self._contrib(batch.to_frame())
        self._chunks.append(contrib)
        self._rows += len(contrib)
        if self._rows >= self._COMPACT_ROWS:
            self._compact()
        return None

    def flush(self) -> Optional[ColumnBatch]:
        out = self._compact()
        if out is None:
            return None
        if not self.keys:
            out = out.drop(columns=[self._DUMMY])
        if self.derived is not None:
            out = self.derived(out)
        return as_columns(out) if len(out) else None

    def state_nbytes(self) -> int:
        return sum(as_columns(c).nbytes for c in self._chunks)


def _keys(g, kind: str, n: int, na: bool):
    if kind == "int":
        return g.integers(0, 12, n)
    if kind == "str":
        out = np.array([f"s{v}" for v in g.integers(0, 9, n)], dtype=object)
        if na:
            out[g.random(n) < 0.15] = None
            out[g.random(n) < 0.1] = np.nan
        return out
    if kind == "float":
        out = g.integers(0, 7, n) / 2.0
        if na:
            out[g.random(n) < 0.2] = np.nan
        return out
    if kind == "date":
        out = (np.datetime64("1995-01-01", "us")
               + g.integers(0, 20, n).astype("timedelta64[D]"))
        if na:
            out[g.random(n) < 0.2] = np.datetime64("NaT")
        return out
    raise AssertionError(kind)


def _batches(seed: int, kinds: list[str], na: bool, n_batches: int = 12):
    g = np.random.default_rng(seed)
    out = []
    for _ in range(n_batches):
        n = int(g.integers(1, 40))
        cols = {f"k{i}": _keys(g, kind, n, na) for i, kind in enumerate(kinds)}
        cols["vi"] = g.integers(-1000, 1000, n)
        cols["vf"] = g.normal(size=n) * 1e3
        if na:
            cols["vf"][g.random(n) < 0.1] = np.nan
        out.append(pd.DataFrame(cols))
    return out


AGGS = {
    "si": lambda d: d.vi,
    "sf": lambda d: d.vf * (1 - d["vf"] / 1e4),
    "n": lambda d: np.ones(len(d), dtype="int64"),
    "pos": lambda d: d.vi > 0,
}

KEYS = {
    "int": ["int"],
    "str": ["str"],
    "date": ["date"],
    "composite": ["int", "str", "date"],
    "none": [],
}


def _as_input(frame: pd.DataFrame, how: str):
    """A batch as a frame's columns (a fused scan's output) or as a
    standalone column batch (a gather or a join output)."""
    if how == "frame":
        return as_columns(frame)
    return ColumnBatch.of_arrays({c: frame[c].to_numpy() for c in frame})


def _run(agg, batches, how):
    """Feed ``batches``; (flush output as a frame, state_nbytes after
    every call, flush included)."""
    sizes = []
    for b in batches:
        assert agg.on_batch(0, _as_input(b, how)) is None
        sizes.append(agg.state_nbytes())
    out = agg.flush()
    sizes.append(agg.state_nbytes())
    return (None if out is None else out.to_frame()), sizes


def _assert_same(got: Optional[pd.DataFrame], want: Optional[pd.DataFrame], keys):
    assert (got is None) == (want is None)
    if want is None:
        return
    assert list(got.columns) == list(want.columns)
    assert got.dtypes.to_dict() == want.dtypes.to_dict()
    assert len(got) == len(want)
    pd.testing.assert_frame_equal(got[keys], want[keys])  # order included
    for c in want.columns:
        if c in keys:
            continue
        if want[c].dtype.kind == "f":
            np.testing.assert_allclose(got[c], want[c], rtol=1e-12)
        else:
            np.testing.assert_array_equal(got[c], want[c])


def _pair(keys, compact_rows=None, **kw):
    new, ref = HashAgg(keys, AGGS, **kw), PandasHashAgg(keys, AGGS, **kw)
    if compact_rows is not None:
        new._COMPACT_ROWS = ref._COMPACT_ROWS = compact_rows
    return new, ref


@pytest.mark.parametrize("how", ["frame", "columns"])
@pytest.mark.parametrize("compact_rows", [None, 10], ids=["no-compact", "compact10"])
@pytest.mark.parametrize("shape", list(KEYS))
def test_matches_pandas_kernel(shape, compact_rows, how):
    kinds = KEYS[shape]
    keys = [f"k{i}" for i in range(len(kinds))]
    batches = _batches(3, kinds, na=False)
    new, ref = _pair(keys, compact_rows)
    got, got_sizes = _run(new, batches, how)
    want, want_sizes = _run(ref, batches, "frame")
    assert got_sizes == want_sizes
    _assert_same(got, want, keys)


@pytest.mark.parametrize("compact_rows", [None, 10], ids=["no-compact", "compact10"])
@pytest.mark.parametrize("kind", ["str", "float", "date"])
def test_na_keys_are_dropped_as_groupby_drops_them(kind, compact_rows):
    kinds = [kind, "int"]
    keys = ["k0", "k1"]
    batches = _batches(4, kinds, na=True)
    assert any(b.k0.isna().any() for b in batches)
    new, ref = _pair(keys, compact_rows)
    got, got_sizes = _run(new, batches, "columns")
    want, want_sizes = _run(ref, batches, "frame")
    assert got_sizes == want_sizes
    _assert_same(got, want, keys)
    assert not got.k0.isna().any()


def test_all_keys_na_flushes_nothing():
    frame = pd.DataFrame({"k0": [None, np.nan], "vi": [1, 2], "vf": [0.5, 1.5]})
    new, ref = _pair(["k0"])
    assert _run(new, [frame], "frame") == _run(ref, [frame], "frame")


@pytest.mark.parametrize("compact_rows", [None, 10], ids=["no-compact", "compact10"])
@pytest.mark.parametrize("shape", ["composite", "none"])
def test_partial_then_final(shape, compact_rows):
    kinds = KEYS[shape]
    keys = [f"k{i}" for i in range(len(kinds))]
    batches = _batches(5, kinds, na=False, n_batches=16)
    final_aggs = {c: (lambda c: lambda d: d[c])(c) for c in AGGS}
    outs = {}
    for way, cls in (("new", HashAgg), ("ref", PandasHashAgg)):
        final = cls(keys, final_aggs, raw=False)
        if compact_rows is not None:
            final._COMPACT_ROWS = compact_rows
        sizes = []
        for part in range(4):
            p = cls(keys, AGGS)
            if compact_rows is not None:
                p._COMPACT_ROWS = compact_rows
            for b in batches[part::4]:
                p.on_batch(0, as_columns(b))
            final.on_batch(0, p.flush())
            sizes.append(final.state_nbytes())
        out = final.flush()
        outs[way] = (out.to_frame(), sizes + [final.state_nbytes()])
    assert outs["new"][1] == outs["ref"][1]
    _assert_same(outs["new"][0], outs["ref"][0], keys)


def test_derived_map_gets_the_grouped_frame():
    """The array ``derived`` map over the flushed columns gives what the
    pandas one gave over the grouped frame."""
    batches = _batches(6, ["str"], na=False)
    new = HashAgg(["k0"], AGGS, derived=lambda d: d.out(["k0", *AGGS, "avg"], avg=d.si / d.n))
    ref = PandasHashAgg(["k0"], AGGS, derived=lambda d: d.assign(avg=d.si / d.n))
    got, got_sizes = _run(new, batches, "columns")
    want, want_sizes = _run(ref, batches, "frame")
    assert got_sizes == want_sizes
    _assert_same(got, want, ["k0"])


def test_extension_column_fails_early():
    frame = pd.DataFrame({"k": pd.array([1, None], dtype="Int64"), "v": [1.0, 2.0]})
    agg = HashAgg(["k"], {"s": lambda d: d.v})
    with pytest.raises(TypeError, match="column 'k' has dtype Int64"):
        agg.on_batch(0, as_columns(frame))


def test_many_wide_keys_do_not_overflow_the_group_code():
    """Seven keys of 600 distinct values each span 600**7 > 2**63 codes:
    the groups seen so far are renumbered before the code would wrap."""
    g = np.random.default_rng(7)
    n = 600
    frame = pd.DataFrame({f"k{i}": g.permutation(n) for i in range(7)})
    frame["vi"] = g.integers(0, 100, n)
    frame["vf"] = g.random(n)
    keys = [f"k{i}" for i in range(7)]
    batches = [frame.iloc[:300].reset_index(drop=True),
               frame.iloc[300:].reset_index(drop=True), frame]
    new, ref = _pair(keys)
    got, got_sizes = _run(new, batches, "columns")
    want, want_sizes = _run(ref, batches, "frame")
    assert got_sizes == want_sizes
    _assert_same(got, want, keys)


@pytest.mark.parametrize("span", [255, 256, 257, 65_535, 65_536, 65_537])
@pytest.mark.parametrize("with_na", [False, True])
def test_group_order_is_the_stable_argsort_of_the_group_codes(span, with_na):
    """``_groups`` sorts its codes in the narrowest unsigned type that
    holds ``span - 1``; the order must be the int64 stable argsort's, on
    either side of the 8- and 16-bit limits."""
    g = np.random.default_rng(span)
    values = np.concatenate([g.permutation(span), g.integers(0, span, span)])
    key = values.astype(np.float64)
    if with_na:  # NA rows between the others, so the span stays exact
        key = np.insert(key, g.integers(0, len(key), span // 8), np.nan)
    codes, uniq = pd.factorize(key, sort=True)
    assert len(uniq) == span
    keep = np.flatnonzero(codes >= 0)
    want = keep[np.argsort(codes[keep], kind="stable")]
    order, starts = _groups([key], len(key))
    np.testing.assert_array_equal(order, want)
    assert len(starts) == len(uniq)

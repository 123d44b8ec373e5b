"""DuckDB correctness oracle.

``assert_equivalent(result, sql, **tables)`` runs ``sql`` in DuckDB over
``tables`` and asserts the sorted rows match ``result``. This catches
wrong results from a rewritten plan or a custom operator — "it ran" is
not "it is correct".

``result`` may be a Spark DataFrame (collected via ``.toPandas()``) or a
pandas DataFrame (the simulated engine's output). ``tables`` may be
Spark or pandas DataFrames. Alias every output column identically on
both sides (Spark names ``count(*)`` as ``count(1)``, DuckDB as
``count_star()``) and project to scalar columns — array/map/struct
columns are not orderable so cannot be compared here.

Float columns are compared with *relative* tolerance (1e-6): the three
engines (Spark, DuckDB, the pandas kernels) sum in different orders, so
large aggregates legitimately differ in the last few ulps.
"""
import duckdb
import numpy as np
import pandas as pd


def _to_pandas(obj) -> pd.DataFrame:
    if isinstance(obj, pd.DataFrame):
        return obj
    if hasattr(obj, "toPandas"):
        return obj.toPandas()
    raise TypeError(f"expected Spark or pandas DataFrame, got {type(obj)!r}")


def _canon(pdf: pd.DataFrame) -> pd.DataFrame:
    """Canonical column order, normalised dtypes, then row order.

    Floats are rounded scale-aware (9 significant digits) *for sorting
    only downstream comparison uses relative tolerance* so that rows
    land in the same order on both sides even when engines differ in the
    last ulps.
    """
    pdf = pdf[sorted(pdf.columns)].reset_index(drop=True).copy()
    for c in pdf.columns:
        if pd.api.types.is_float_dtype(pdf[c]):
            col = pdf[c].astype("float64")
            scale = np.nanmax(np.abs(col.to_numpy())) if len(col) else 0.0
            if scale and np.isfinite(scale):
                digits = max(0, 9 - int(np.floor(np.log10(scale))))
                col = col.round(digits)
            pdf[c] = col
        elif pd.api.types.is_integer_dtype(pdf[c]):
            pdf[c] = pdf[c].astype("int64")
        elif pd.api.types.is_datetime64_any_dtype(pdf[c]):
            pdf[c] = pd.to_datetime(pdf[c]).dt.tz_localize(None)
    return pdf.sort_values(list(pdf.columns), kind="mergesort").reset_index(
        drop=True
    )


def assert_equivalent(result, sql: str, **tables) -> None:
    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, _to_pandas(t) if not isinstance(t, pd.DataFrame) else t)
        expected = con.execute(sql).fetchdf()
    finally:
        con.close()
    assert_same_rows(_to_pandas(result), expected)


def assert_same_rows(got: pd.DataFrame, expected: pd.DataFrame) -> None:
    """Assert two result frames hold the same rows in any order, floats
    within the oracle's relative tolerance."""
    if len(expected) == 0 and len(got) == 0:
        # An all-empty streamed result carries no schema; empty == empty.
        return
    assert set(expected.columns) == set(got.columns), (
        f"column mismatch: {sorted(got.columns)} vs {sorted(expected.columns)} "
        "— alias every output column identically on both sides"
    )
    assert len(expected) == len(got), (
        f"row count mismatch: got {len(got)}, expected {len(expected)}"
    )
    pd.testing.assert_frame_equal(
        _canon(got),
        _canon(expected),
        check_dtype=False,
        check_exact=False,
        rtol=1e-6,
        atol=1e-9,
    )

"""TPC-H-lite generator tests: schemas, determinism, key integrity."""
import numpy as np
import pandas as pd
import pytest

from repro import synth_data as sd
from repro.engine.util import ColumnBatch, as_columns


@pytest.mark.parametrize("name", list(sd.PDF_GENERATORS))
def test_deterministic_in_seed(name):
    a = sd.PDF_GENERATORS[name](sf=0.002)
    b = sd.PDF_GENERATORS[name](sf=0.002)
    pd.testing.assert_frame_equal(a, b)


@pytest.mark.parametrize(
    "name,expected",
    [
        ("lineitem", 12_000), ("orders", 3_000), ("customer", 300),
        ("part", 400), ("supplier", 20), ("partsupp", 1_600),
    ],
)
def test_row_counts_scale(name, expected):
    assert len(sd.PDF_GENERATORS[name](sf=0.002)) == expected


def test_nation_region_fixed():
    nat, reg = sd.nation_pdf(), sd.region_pdf()
    assert len(nat) == 25 and len(reg) == 5
    assert set(nat.n_regionkey) <= set(reg.r_regionkey)
    assert nat.n_name.is_unique


def test_lineitem_schema():
    li = sd.lineitem_pdf(sf=0.002)
    for col in [
        "l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
        "l_extendedprice", "l_discount", "l_tax", "l_returnflag",
        "l_linestatus", "l_shipdate", "l_commitdate", "l_receiptdate",
        "l_shipmode",
    ]:
        assert col in li.columns
    assert str(li.l_shipdate.dtype) == "datetime64[us]"


def test_foreign_keys_in_range():
    db = sd.tpch_db(sf=0.002)
    li, o, c, p, s = (db[k] for k in
                      ("lineitem", "orders", "customer", "part", "supplier"))
    assert li.l_orderkey.between(1, len(o)).all()
    assert li.l_partkey.between(1, len(p)).all()
    assert li.l_suppkey.between(1, len(s)).all()
    assert o.o_custkey.between(1, len(c)).all()


def test_lineitem_partsupp_join_selectivity():
    """(l_partkey, l_suppkey) must hit partsupp (TPC-H semantics; Q9)."""
    db = sd.tpch_db(sf=0.002)
    li, ps = db["lineitem"], db["partsupp"]
    hit = li.merge(
        ps, left_on=["l_partkey", "l_suppkey"],
        right_on=["ps_partkey", "ps_suppkey"],
    )
    assert len(hit) == len(li)


def test_partsupp_pairs_unique():
    ps = sd.partsupp_pdf(sf=0.002)
    assert not ps.duplicated(["ps_partkey", "ps_suppkey"]).any()


def _frame(batches):
    return pd.concat([b.to_frame() for b in batches], ignore_index=True)


def test_split_batches_roundtrip():
    li = sd.lineitem_pdf(sf=0.002)
    batches = sd.split_batches(li, 7)
    assert len(batches) == 7
    assert all(isinstance(b, ColumnBatch) for b in batches)
    pd.testing.assert_frame_equal(_frame(batches), li.reset_index(drop=True))
    assert sum(b.nbytes for b in batches) == as_columns(li).nbytes


def test_split_batches_more_than_rows():
    pdf = pd.DataFrame({"a": [1, 2, 3]})
    batches = sd.split_batches(pdf, 10)
    assert len(batches) == 3
    assert sum(len(b) for b in batches) == 3


def test_split_batches_deterministic():
    li = sd.lineitem_pdf(sf=0.002)
    a = sd.split_batches(li, 5)
    b = sd.split_batches(li, 5)
    for x, y in zip(a, b):
        pd.testing.assert_frame_equal(x.to_frame(), y.to_frame())


def test_split_batches_are_read_only_views_of_the_table():
    """The replayable source: a kernel that writes into its input raises
    instead of changing what a rescan reads again."""
    li = sd.lineitem_pdf(sf=0.002)
    table = as_columns(li)
    batch = sd.split_batches(li, 4)[1]
    for name, col in zip(batch.names, batch.cols):
        assert np.shares_memory(col, table.column(name)), name
        with pytest.raises(ValueError, match="read-only"):
            col[0] = col[1]
    with pytest.raises(ValueError, match="read-only"):
        batch.column("l_quantity")[:] *= 2
    pd.testing.assert_frame_equal(_frame(sd.split_batches(li, 4)), li)


def test_tpch_db_has_all_tables():
    db = sd.tpch_db(sf=0.002)
    assert set(db) == {
        "lineitem", "orders", "customer", "part", "supplier", "partsupp",
        "nation", "region",
    }


def test_dates_in_tpch_range():
    li = sd.lineitem_pdf(sf=0.002)
    assert li.l_shipdate.min() >= pd.Timestamp("1992-01-01")
    assert li.l_shipdate.max() <= pd.Timestamp("1998-12-31")


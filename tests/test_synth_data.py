"""TPC-H-lite generator tests: schemas, determinism, key integrity."""
import hashlib

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



_DTYPES = {
    "lineitem": {
        "l_orderkey": "int64", "l_partkey": "int64", "l_suppkey": "int64",
        "l_linenumber": "int64", "l_quantity": "float64",
        "l_extendedprice": "float64", "l_discount": "float64",
        "l_tax": "float64", "l_returnflag": "object",
        "l_linestatus": "object", "l_shipdate": "datetime64[us]",
        "l_commitdate": "datetime64[us]", "l_receiptdate": "datetime64[us]",
        "l_shipmode": "object",
    },
    "orders": {
        "o_orderkey": "int64", "o_custkey": "int64",
        "o_orderstatus": "object", "o_totalprice": "float64",
        "o_orderdate": "datetime64[us]", "o_orderpriority": "object",
        "o_shippriority": "int64",
    },
    "customer": {
        "c_custkey": "int64", "c_nationkey": "int64",
        "c_acctbal": "float64", "c_mktsegment": "object",
    },
    "part": {
        "p_partkey": "int64", "p_type": "object", "p_brand": "object",
        "p_size": "int64", "p_retailprice": "float64",
    },
    "supplier": {
        "s_suppkey": "int64", "s_nationkey": "int64", "s_acctbal": "float64",
    },
    "partsupp": {
        "ps_partkey": "int64", "ps_suppkey": "int64",
        "ps_availqty": "int64", "ps_supplycost": "float64",
    },
    "nation": {
        "n_nationkey": "int64", "n_name": "object", "n_regionkey": "int64",
    },
    "region": {"r_regionkey": "int64", "r_name": "object"},
}

_NATION = "958d6fb8d757fa83e9d999e13ca7fe8d14a70f78ea2087d659498b620b73b050"
_REGION = "2722b675f2a9502ecb8cd0154b8173880a2d54cc0ceab8da99d22c7c603c8b62"

#: sha256 of ``hash_pandas_object`` of each table, ``gen(sf=sf, seed=seed)``.
_TABLE_SHA256 = {
    (0.01, 0): {
        "lineitem": "4319f63be8ca7a6749b7427655e50dac7129a5dce4a8c95115b89cfc53014744",
        "orders": "cf598f705da7ac2a69a56cbf07bde9c6c86271b2f3a08365ff15c735188b2b20",
        "customer": "d32e3242b8c0de30cd6c34595356d310d2ed6a5c195856ca735055e5e3f20ebc",
        "part": "674b76d123a369cebd67172b14e09fde02516a4576ed12fb8382e627c656f1fc",
        "supplier": "68ae282e2d8d9aa5467828e00618f18d1efdc30b21a10f56286310cfadddd22b",
        "partsupp": "6e3dafd717a2f4c9453ae036cd90b099b7599ca325c0eebca02403aa3b3392af",
        "nation": _NATION,
        "region": _REGION,
    },
    (0.01, 7): {
        "lineitem": "44b84120baf4a5cb15323e8dafe8e222b64b14bb4af26a8386f3424331d6b5f9",
        "orders": "e539895faca2f265c60eabbbaafe224a385efe0820ff8c0c4f76233ebd0dfd79",
        "customer": "3b61eae088383c454a105d291fe42064ee53e6255e93d37cd7b3e9dc8d6a7dd3",
        "part": "ff7d58187d1d7f4752c9d9831e5f0b14e7c3e2128fce3567dc61beb26213e3ca",
        "supplier": "992d5f4348847618418a1f40cff36ad50b173508845a75a5363ee3f12b809606",
        "partsupp": "d73b04a4191120bd0a06761a3fd9a70e2f52b077b7f8305711bcc13c4eb6d74f",
        "nation": _NATION,
        "region": _REGION,
    },
    (0.003, 13): {
        "lineitem": "c349630a647a65a7ff34e4eae410be330cbd330339e12ff1168b7dd3b526b676",
        "orders": "6ca4592b700777fc397bd98bf341d824d30267230be1beeed47cbe6addad16af",
        "customer": "8f960ad43ad4aa15139b32130a65b268836514f4d3bd61f1d8cdb7074404ae0a",
        "part": "c3a9fde5dcfdff57c07e571e15980de81e327420f85c8627ef64bf9a247b0854",
        "supplier": "521b7aa166abe5a475ebff18ce36a0f301369b351531b30bd98af84fc6093e6a",
        "partsupp": "d4c25e79b9acc533071b92897aea09416e4fb0d05f08090ee3e68c7b2c7b80b2",
        "nation": _NATION,
        "region": _REGION,
    },
}


@pytest.mark.parametrize("sf,seed", list(_TABLE_SHA256))
def test_tables_equal_their_pins(sf, seed):
    """Column names, order, dtypes and every value are pinned: a change to
    how the tables are built must leave them byte-identical."""
    for name, gen in sd.PDF_GENERATORS.items():
        table = gen(sf=sf, seed=seed)
        assert {c: str(t) for c, t in table.dtypes.items()} == _DTYPES[name]
        assert list(table.columns) == list(_DTYPES[name]), name
        digest = hashlib.sha256(
            pd.util.hash_pandas_object(table).to_numpy().tobytes()
        ).hexdigest()
        assert digest == _TABLE_SHA256[sf, seed][name], name


@pytest.mark.parametrize("name", list(sd.PDF_GENERATORS))
def test_string_rows_share_their_str_objects(name):
    """A string column holds one ``str`` object per distinct value, not one
    per row."""
    table = sd.PDF_GENERATORS[name](sf=0.003, seed=3)
    for col in table.columns:
        values = table[col].to_numpy()
        if values.dtype == object:
            assert len({id(v) for v in values}) == len(set(values)), col

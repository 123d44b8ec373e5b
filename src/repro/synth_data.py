"""Synthetic OLAP data at a configurable scale factor (TPC-H-lite).

SF=1.0 is roughly TPC-H SF1 (~1 GB across tables). Tests use SF<=0.01;
benchmarks use SF~=0.1. Generators are deterministic in ``seed`` so the
DuckDB oracle sees identical input.

The ``*_pdf(sf, seed)`` generators return pandas frames, which the
DuckDB oracle, the real-SparkSQL baseline (through
``sparkbridge.sparksql.register_views``) and query planning read.
:func:`split_batches` turns a table into the column batches the engine
scans.

Every column is built as one numpy array and the frame keeps it as is
(``copy=False``: no consolidated block copy). Dates are datetime64[us]
days after one epoch; a string column is an object array whose rows
point to its few distinct ``str`` objects, not a fresh ``str`` per row.
So a table costs about its own bytes to build and to hold.

All eight TPC-H tables are provided (lineitem, orders, customer, part,
supplier, partsupp, nation, region) with the column subset needed by the
reproduced queries (Q1,3,5,6,7,8,9,10,12,14). See DESIGN.md §5 for the
documented predicate substitutions.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from .engine.util import ColumnBatch, as_columns

_N_LINEITEM_PER_SF = 6_000_000
_N_ORDERS_PER_SF = 1_500_000
_N_CUSTOMER_PER_SF = 150_000
_N_PART_PER_SF = 200_000
_N_SUPPLIER_PER_SF = 10_000
_N_PARTSUPP_PER_SF = 800_000

#: The 25 TPC-H nations and their region keys (AFRICA, AMERICA, ASIA,
#: EUROPE, MIDDLE EAST = 0..4), verbatim from the TPC-H spec.
_NATIONS = [
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1),
    ("EGYPT", 4), ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3),
    ("INDIA", 2), ("INDONESIA", 2), ("IRAN", 4), ("IRAQ", 4),
    ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0), ("MOROCCO", 0),
    ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3),
    ("UNITED KINGDOM", 3), ("UNITED STATES", 1),
]
_REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
_P_TYPES = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"]
_SHIP_MODES = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"]
#: Day 0 of every date column. datetime64[us] maps to plain TIMESTAMP in
#: DuckDB/Arrow (TIMESTAMP_NS cannot be compared to DATE literals in
#: DuckDB 1.0).
_EPOCH = np.datetime64("1992-01-01", "us")


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _n(per_sf: int, sf: float) -> int:
    return max(1, int(per_sf * sf))


def _dates(days: np.ndarray) -> np.ndarray:
    """``days`` after :data:`_EPOCH`, as datetime64[us]."""
    return _EPOCH + days.astype("timedelta64[D]")


def _choice(g: np.random.Generator, values: list[str], n: int) -> np.ndarray:
    """``n`` uniform draws from ``values`` as an object array whose rows
    share the ``len(values)`` str objects (the same draws as
    ``g.choice(values, n)``, without a fresh str per row)."""
    return g.choice(np.array(values, dtype=object), n)


def lineitem_pdf(*, sf: float = 0.01, seed: int = 0) -> pd.DataFrame:
    """Fact table. Keys reference orders/part/supplier at the same ``sf``."""
    n = _n(_N_LINEITEM_PER_SF, sf)
    n_orders = _n(_N_ORDERS_PER_SF, sf)
    n_part = _n(_N_PART_PER_SF, sf)
    n_supp = _n(_N_SUPPLIER_PER_SF, sf)
    g = _rng(seed)
    shipdate = _dates(g.integers(0, 2557, n))
    commit_delta = g.integers(-30, 60, n)
    receipt_delta = g.integers(1, 30, n)
    partkey = g.integers(1, n_part + 1, n)
    # As in TPC-H, (l_partkey, l_suppkey) is drawn from partsupp: the
    # supplier is one of the part's suppliers (see partsupp_pdf's stride
    # formula), so Q9's lineitem ⋈ partsupp join has TPC-H selectivity.
    per_part = max(1, min(4, n_supp))
    offs = g.integers(0, per_part, n)
    suppkey = ((partkey * 13 + offs * (n_supp // per_part + 1)) % n_supp) + 1
    return pd.DataFrame(
        {
            "l_orderkey": g.integers(1, n_orders + 1, n),
            "l_partkey": partkey,
            "l_suppkey": suppkey,
            "l_linenumber": g.integers(1, 8, n),
            "l_quantity": g.integers(1, 51, n).astype("float64"),
            "l_extendedprice": (g.random(n) * 90000 + 900).round(2),
            "l_discount": (g.random(n) * 0.1).round(2),
            "l_tax": (g.random(n) * 0.08).round(2),
            "l_returnflag": _choice(g, list("NRA"), n),
            "l_linestatus": _choice(g, list("OF"), n),
            "l_shipdate": shipdate,
            "l_commitdate": shipdate + commit_delta.astype("timedelta64[D]"),
            "l_receiptdate": shipdate + receipt_delta.astype("timedelta64[D]"),
            "l_shipmode": _choice(g, _SHIP_MODES, n),
        },
        copy=False,
    )


def orders_pdf(*, sf: float = 0.01, seed: int = 1) -> pd.DataFrame:
    n = _n(_N_ORDERS_PER_SF, sf)
    n_cust = _n(_N_CUSTOMER_PER_SF, sf)
    g = _rng(seed)
    return pd.DataFrame(
        {
            "o_orderkey": np.arange(1, n + 1),
            "o_custkey": g.integers(1, n_cust + 1, n),
            "o_orderstatus": _choice(g, list("OFP"), n),
            "o_totalprice": (g.random(n) * 500000 + 1000).round(2),
            "o_orderdate": _dates(g.integers(0, 2406, n)),
            "o_orderpriority": _choice(
                g, ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT", "5-LOW"], n
            ),
            "o_shippriority": np.zeros(n, dtype="int64"),
        },
        copy=False,
    )


def customer_pdf(*, sf: float = 0.01, seed: int = 2) -> pd.DataFrame:
    n = _n(_N_CUSTOMER_PER_SF, sf)
    g = _rng(seed)
    return pd.DataFrame(
        {
            "c_custkey": np.arange(1, n + 1),
            "c_nationkey": g.integers(0, 25, n),
            "c_acctbal": (g.random(n) * 10000 - 1000).round(2),
            "c_mktsegment": _choice(
                g, ["BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"], n
            ),
        },
        copy=False,
    )


def part_pdf(*, sf: float = 0.01, seed: int = 5) -> pd.DataFrame:
    n = _n(_N_PART_PER_SF, sf)
    g = _rng(seed)
    return pd.DataFrame(
        {
            "p_partkey": np.arange(1, n + 1),
            "p_type": _choice(g, _P_TYPES, n),
            "p_brand": _choice(
                g, [f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6)], n
            ),
            "p_size": g.integers(1, 51, n),
            "p_retailprice": (900 + (np.arange(1, n + 1) % 1000) / 10.0).round(2),
        },
        copy=False,
    )


def supplier_pdf(*, sf: float = 0.01, seed: int = 6) -> pd.DataFrame:
    n = _n(_N_SUPPLIER_PER_SF, sf)
    g = _rng(seed)
    return pd.DataFrame(
        {
            "s_suppkey": np.arange(1, n + 1),
            "s_nationkey": g.integers(0, 25, n),
            "s_acctbal": (g.random(n) * 10000 - 1000).round(2),
        },
        copy=False,
    )


def partsupp_pdf(*, sf: float = 0.01, seed: int = 7) -> pd.DataFrame:
    """Each (partkey, suppkey) pair appears at most once, as in TPC-H."""
    n_part = _n(_N_PART_PER_SF, sf)
    n_supp = _n(_N_SUPPLIER_PER_SF, sf)
    per_part = max(1, min(4, n_supp))
    g = _rng(seed)
    partkey = np.repeat(np.arange(1, n_part + 1), per_part)
    # Distinct suppliers per part: a deterministic stride pattern.
    offs = np.tile(np.arange(per_part), n_part)
    suppkey = ((partkey * 13 + offs * (n_supp // per_part + 1)) % n_supp) + 1
    return pd.DataFrame(
        {
            "ps_partkey": partkey,
            "ps_suppkey": suppkey,
            "ps_availqty": g.integers(1, 10000, len(partkey)),
            "ps_supplycost": (g.random(len(partkey)) * 1000 + 1).round(2),
        },
        copy=False,
    )


def nation_pdf(**_: object) -> pd.DataFrame:
    return pd.DataFrame(
        {
            "n_nationkey": np.arange(25),
            "n_name": [n for n, _ in _NATIONS],
            "n_regionkey": np.array([r for _, r in _NATIONS], dtype="int64"),
        },
        copy=False,
    )


def region_pdf(**_: object) -> pd.DataFrame:
    return pd.DataFrame(
        {"r_regionkey": np.arange(5), "r_name": _REGIONS}, copy=False
    )


#: name -> pandas generator, for "give me the whole database" call sites.
PDF_GENERATORS = {
    "lineitem": lineitem_pdf,
    "orders": orders_pdf,
    "customer": customer_pdf,
    "part": part_pdf,
    "supplier": supplier_pdf,
    "partsupp": partsupp_pdf,
    "nation": nation_pdf,
    "region": region_pdf,
}


def tpch_db(*, sf: float = 0.01) -> dict[str, pd.DataFrame]:
    """All eight TPC-H-lite tables at ``sf`` as pandas frames."""
    return {name: gen(sf=sf) for name, gen in PDF_GENERATORS.items()}


def split_batches(pdf: pd.DataFrame, n_batches: int) -> list[ColumnBatch]:
    """Split a table into ``n_batches`` row-group-like column batches.

    Models Parquet row groups in replayable cloud storage: the table is
    read into columns once, and each batch is a read-only view of a row
    range of them, so the batch list is deterministic and input tasks can
    be replayed by index after a failure (the paper's replayable-input
    assumption). A kernel that writes into its input raises instead of
    changing what a rescan re-reads.
    """
    table = as_columns(pdf)
    n_batches = max(1, min(n_batches, len(pdf)))
    bounds = np.linspace(0, len(pdf), n_batches + 1).astype(int)
    batches = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        cols = [col[lo:hi] for col in table.cols]
        for col in cols:
            col.flags.writeable = False
        batches.append(ColumnBatch(table.names, cols, int(hi - lo), table.width))
    return batches

"""TPC-H-lite queries: shared SQL text + engine plan builders.

Each query exists in two forms that must agree row-for-row:

* ``sql`` — executed verbatim by both the DuckDB oracle and real
  SparkSQL (the baseline), over the same synthetic tables.
* ``plan(db, pushdown=...)`` — an engine :class:`~repro.engine.plan.Plan`
  over the same data. ``pushdown=True`` (Quokka) inserts a partial
  aggregation on the scan/join channels before the shuffle;
  ``pushdown=False`` (Trino-sim, per paper §V-C) shuffles raw rows.

Predicate substitutions vs. official TPC-H (documented in DESIGN.md §5):
``p_name LIKE '%green%'`` → ``p_type = 'ECONOMY'`` (Q9), ``p_type =
'ECONOMY ANODIZED STEEL'`` → ``'ECONOMY'`` (Q8), ``p_type LIKE 'PROMO%'``
→ ``= 'PROMO'`` (Q14); LIMIT queries add full tie-break columns so the
result set is deterministic. Tiny dimension tables (nation, region,
supplier in the post-join maps) are broadcast — fused into operator
closures as :func:`lookup` tables — as the compared engines also
broadcast them.

Every fused map (scan ``map_fn``, join ``project``, aggregation ``derived``)
returns ``d.out(names, mask, **derived)`` of numpy arrays over its column view ``d``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pandas as pd

from ..engine.operators import HashAgg, SymmetricHashJoin, TopK
from ..engine.plan import OpStage, Plan, ScanStage

D = np.datetime64  # date literal shorthand for map closures


def _rev(d):
    """Discounted revenue over the column arrays of a map's view."""
    return d.l_extendedprice * (1 - d.l_discount)


def _year(dates: np.ndarray) -> np.ndarray:
    """The int64 calendar year of each date, as ``.dt.year`` gives it."""
    return dates.astype("datetime64[Y]").astype(np.int64) + 1970


def lookup(keys: pd.Series, values: pd.Series) -> Callable[[np.ndarray], np.ndarray]:
    """``Series.map(dict(zip(keys, values)))`` for small non-negative
    integer keys, as one index into a table: the values keep their dtype
    (names stay an object array). A key with no value — negative, past
    the largest key or a hole — raises KeyError, where numpy indexing
    would wrap ``-1`` to the last entry."""
    keys, values = keys.to_numpy(), values.to_numpy()
    if keys.min() < 0:
        raise ValueError(f"lookup keys must be non-negative, got {keys.min()}")
    table = np.empty(keys.max() + 1, dtype=values.dtype)
    table[keys] = values
    known = np.zeros(len(table), dtype=bool)
    known[keys] = True

    def look(k: np.ndarray) -> np.ndarray:
        hit = (k >= 0) & (k < len(table))
        hit[hit] = known[k[hit]]
        if not hit.all():
            raise KeyError(k[~hit][0])
        return table[k]

    return look


def _agg_stages(
    stages: list,
    upstream: int,
    keys: list[str],
    aggs: dict[str, Callable],
    *,
    pushdown: bool,
    derived=None,
    final_width: int | None = None,
) -> None:
    """Append (partial?) + final aggregation stages to ``stages``.

    ``aggs`` maps each output column to an expression over the input's
    column arrays (``d.col``, ``d["col"]``, ``len(d)``; see
    :class:`~repro.engine.operators.HashAgg`)."""
    part_keys: list | str = keys if keys else []
    if pushdown:
        stages.append(
            OpStage(
                make_op=lambda: HashAgg(keys, aggs, raw=True),
                upstreams=[upstream],
                partition_keys=["aligned"],
            )
        )
        upstream = len(stages) - 1
        stages.append(
            OpStage(
                make_op=lambda: HashAgg(keys, aggs, raw=False, derived=derived),
                upstreams=[upstream],
                partition_keys=[part_keys],
                n_channels=final_width,
            )
        )
    else:
        stages.append(
            OpStage(
                make_op=lambda: HashAgg(keys, aggs, raw=True, derived=derived),
                upstreams=[upstream],
                partition_keys=[part_keys],
                n_channels=final_width,
            )
        )


@dataclass
class Query:
    name: str
    category: str  # "I" | "II" | "III" | "extra"
    sql: str
    plan_builder: Callable[[dict, bool], Plan]

    def plan(self, db: dict[str, pd.DataFrame], pushdown: bool = True) -> Plan:
        return self.plan_builder(db, pushdown)


# --------------------------------------------------------------------- Q1

_Q1_SQL = """
SELECT l_returnflag, l_linestatus,
       sum(l_quantity)                                       AS sum_qty,
       sum(l_extendedprice)                                  AS sum_base_price,
       sum(l_extendedprice * (1 - l_discount))               AS sum_disc_price,
       sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
       sum(l_quantity) / count(*)                            AS avg_qty,
       count(*)                                              AS count_order
FROM lineitem
WHERE l_shipdate <= DATE '1998-09-02'
GROUP BY l_returnflag, l_linestatus
"""


def _q1_plan(db: dict, pushdown: bool) -> Plan:
    def scan_map(d):
        return d.out(["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
                      "l_discount", "l_tax"], d.l_shipdate <= D("1998-09-02"))

    aggs = {
        "sum_qty": lambda d: d.l_quantity,
        "sum_base_price": lambda d: d.l_extendedprice,
        "sum_disc_price": _rev,
        "sum_charge": lambda d: _rev(d) * (1 + d.l_tax),
        "count_order": lambda d: np.ones(len(d), dtype="int64"),
    }

    def derived(d):
        return d.out(["l_returnflag", "l_linestatus", *aggs, "avg_qty"],
                     avg_qty=d.sum_qty / d.count_order)

    stages: list = [ScanStage("lineitem", scan_map)]
    _agg_stages(
        stages, 0, ["l_returnflag", "l_linestatus"], aggs,
        pushdown=pushdown, derived=derived,
    )
    return Plan("q1", stages)


# --------------------------------------------------------------------- Q6

_Q6_SQL = """
SELECT sum(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01'
  AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24
"""


def _q6_plan(db: dict, pushdown: bool) -> Plan:
    def scan_map(d):
        m = (
            (d.l_shipdate >= D("1994-01-01"))
            & (d.l_shipdate < D("1995-01-01"))
            & (d.l_discount >= 0.05)
            & (d.l_discount <= 0.07)
            & (d.l_quantity < 24)
        )
        return d.out(["l_extendedprice", "l_discount"], m)

    aggs = {"revenue": lambda d: d.l_extendedprice * d.l_discount}
    stages: list = [ScanStage("lineitem", scan_map)]
    _agg_stages(stages, 0, [], aggs, pushdown=pushdown, final_width=1)
    return Plan("q6", stages)


# --------------------------------------------------------------------- Q3

_Q3_SQL = """
SELECT l_orderkey,
       sum(l_extendedprice * (1 - l_discount)) AS revenue,
       o_orderdate, o_shippriority
FROM customer, orders, lineitem
WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND o_orderdate < DATE '1995-03-15' AND l_shipdate > DATE '1995-03-15'
GROUP BY l_orderkey, o_orderdate, o_shippriority
ORDER BY revenue DESC, o_orderdate, l_orderkey
LIMIT 10
"""


def _q3_plan(db: dict, pushdown: bool) -> Plan:
    def cust_map(d):
        return d.out(["c_custkey"], d.c_mktsegment == "BUILDING")

    def ord_map(d):
        return d.out(["o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"],
                     d.o_orderdate < D("1995-03-15"))

    def li_map(d):
        return d.out(["l_orderkey", "l_extendedprice", "l_discount"],
                     d.l_shipdate > D("1995-03-15"))

    stages: list = [
        ScanStage("customer", cust_map),              # 0
        ScanStage("orders", ord_map),                 # 1
        OpStage(                                      # 2: customer ⋈ orders
            make_op=lambda: SymmetricHashJoin(
                ["c_custkey"], ["o_custkey"],
                lambda d: d.out(["o_orderkey", "o_orderdate", "o_shippriority"]),
            ),
            upstreams=[0, 1],
            partition_keys=[["c_custkey"], ["o_custkey"]],
        ),
        ScanStage("lineitem", li_map),                # 3
        OpStage(                                      # 4: ⋈ lineitem
            make_op=lambda: SymmetricHashJoin(["o_orderkey"], ["l_orderkey"]),
            upstreams=[2, 3],
            partition_keys=[["o_orderkey"], ["l_orderkey"]],
        ),
    ]
    aggs = {"revenue": _rev}
    _agg_stages(
        stages, 4, ["l_orderkey", "o_orderdate", "o_shippriority"], aggs,
        pushdown=pushdown,
    )
    stages.append(
        OpStage(
            make_op=lambda: TopK(
                ["revenue", "o_orderdate", "l_orderkey"],
                [False, True, True], 10,
                select=["l_orderkey", "revenue", "o_orderdate", "o_shippriority"],
            ),
            upstreams=[len(stages) - 1],
            partition_keys=[[]],
            n_channels=1,
        )
    )
    return Plan("q3", stages)


# --------------------------------------------------------------------- Q10

_Q10_SQL = """
SELECT c_custkey,
       sum(l_extendedprice * (1 - l_discount)) AS revenue,
       c_acctbal, n_name
FROM customer, orders, lineitem, nation
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND o_orderdate >= DATE '1993-10-01' AND o_orderdate < DATE '1994-01-01'
  AND l_returnflag = 'R' AND c_nationkey = n_nationkey
GROUP BY c_custkey, c_acctbal, n_name
ORDER BY revenue DESC, c_custkey
LIMIT 20
"""


def _q10_plan(db: dict, pushdown: bool) -> Plan:
    nname = lookup(db["nation"].n_nationkey, db["nation"].n_name)

    def cust_map(d):
        return d.out(["c_custkey", "c_acctbal", "n_name"],
                     n_name=nname(d.c_nationkey))

    def ord_map(d):
        m = (d.o_orderdate >= D("1993-10-01")) & (d.o_orderdate < D("1994-01-01"))
        return d.out(["o_orderkey", "o_custkey"], m)

    def li_map(d):
        return d.out(["l_orderkey", "l_extendedprice", "l_discount"],
                     d.l_returnflag == "R")

    stages: list = [
        ScanStage("customer", cust_map),
        ScanStage("orders", ord_map),
        OpStage(
            make_op=lambda: SymmetricHashJoin(["c_custkey"], ["o_custkey"]),
            upstreams=[0, 1],
            partition_keys=[["c_custkey"], ["o_custkey"]],
        ),
        ScanStage("lineitem", li_map),
        OpStage(
            make_op=lambda: SymmetricHashJoin(["o_orderkey"], ["l_orderkey"]),
            upstreams=[2, 3],
            partition_keys=[["o_orderkey"], ["l_orderkey"]],
        ),
    ]
    aggs = {"revenue": _rev}
    _agg_stages(
        stages, 4, ["c_custkey", "c_acctbal", "n_name"], aggs, pushdown=pushdown
    )
    stages.append(
        OpStage(
            make_op=lambda: TopK(
                ["revenue", "c_custkey"], [False, True], 20,
                select=["c_custkey", "revenue", "c_acctbal", "n_name"],
            ),
            upstreams=[len(stages) - 1],
            partition_keys=[[]],
            n_channels=1,
        )
    )
    return Plan("q10", stages)


# --------------------------------------------------------------------- Q5

_Q5_SQL = """
SELECT n_name, sum(l_extendedprice * (1 - l_discount)) AS revenue
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
  AND r_name = 'ASIA'
  AND o_orderdate >= DATE '1994-01-01' AND o_orderdate < DATE '1995-01-01'
GROUP BY n_name
"""


def _q5_plan(db: dict, pushdown: bool) -> Plan:
    nat, reg = db["nation"], db["region"]
    asia = nat[nat.n_regionkey.isin(reg[reg.r_name == "ASIA"].r_regionkey)]
    asia = asia.n_nationkey.to_numpy()
    nname = lookup(nat.n_nationkey, nat.n_name)

    def ord_map(d):
        m = (d.o_orderdate >= D("1994-01-01")) & (d.o_orderdate < D("1995-01-01"))
        return d.out(["o_orderkey", "o_custkey"], m)

    def supp_map(d):
        return d.out(["s_suppkey", "s_nationkey"], np.isin(d.s_nationkey, asia))

    def post_final(d):
        return d.out(["n_name", "l_extendedprice", "l_discount"],
                     d.c_nationkey == d.s_nationkey, n_name=nname(d.s_nationkey))

    stages: list = [
        ScanStage("orders", ord_map),    # 0
        ScanStage("customer", lambda d: d.out(["c_custkey", "c_nationkey"])),  # 1
        OpStage(                         # 2: orders ⋈ customer
            make_op=lambda: SymmetricHashJoin(
                ["o_custkey"], ["c_custkey"],
                lambda d: d.out(["o_orderkey", "c_nationkey"]),
            ),
            upstreams=[0, 1],
            partition_keys=[["o_custkey"], ["c_custkey"]],
        ),
        ScanStage("lineitem", lambda d: d.out(  # 3
            ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"])),
        OpStage(                         # 4: ⋈ lineitem
            make_op=lambda: SymmetricHashJoin(
                ["o_orderkey"], ["l_orderkey"],
                lambda d: d.out(["l_suppkey", "l_extendedprice", "l_discount",
                                 "c_nationkey"]),
            ),
            upstreams=[2, 3],
            partition_keys=[["o_orderkey"], ["l_orderkey"]],
        ),
        ScanStage("supplier", supp_map), # 5
        OpStage(                         # 6: ⋈ supplier
            make_op=lambda: SymmetricHashJoin(["l_suppkey"], ["s_suppkey"], post_final),
            upstreams=[4, 5],
            partition_keys=[["l_suppkey"], ["s_suppkey"]],
        ),
    ]
    _agg_stages(stages, 6, ["n_name"], {"revenue": _rev}, pushdown=pushdown)
    return Plan("q5", stages)


# --------------------------------------------------------------------- Q7

_Q7_SQL = """
SELECT supp_nation, cust_nation, l_year, sum(volume) AS revenue
FROM (
  SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
         EXTRACT(year FROM l_shipdate) AS l_year,
         l_extendedprice * (1 - l_discount) AS volume
  FROM supplier, lineitem, orders, customer, nation n1, nation n2
  WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey
    AND c_custkey = o_custkey
    AND s_nationkey = n1.n_nationkey AND c_nationkey = n2.n_nationkey
    AND ((n1.n_name = 'FRANCE' AND n2.n_name = 'GERMANY')
      OR (n1.n_name = 'GERMANY' AND n2.n_name = 'FRANCE'))
    AND l_shipdate BETWEEN DATE '1995-01-01' AND DATE '1996-12-31'
) shipping
GROUP BY supp_nation, cust_nation, l_year
"""


def _q7_plan(db: dict, pushdown: bool) -> Plan:
    nat = db["nation"]
    fr_de = nat[nat.n_name.isin(["FRANCE", "GERMANY"])].n_nationkey.to_numpy()
    nname = lookup(nat.n_nationkey, nat.n_name)

    def supp_map(d):
        return d.out(["s_suppkey", "supp_nation"], np.isin(d.s_nationkey, fr_de),
                     supp_nation=nname(d.s_nationkey))

    def li_map(d):
        m = (d.l_shipdate >= D("1995-01-01")) & (d.l_shipdate <= D("1996-12-31"))
        return d.out(["l_orderkey", "l_suppkey", "l_year", "volume"], m,
                     l_year=_year(d.l_shipdate), volume=_rev(d))

    def cust_map(d):
        return d.out(["c_custkey", "cust_nation"], np.isin(d.c_nationkey, fr_de),
                     cust_nation=nname(d.c_nationkey))

    def post_final(d):
        m = d.supp_nation != d.cust_nation  # (FR,DE) or (DE,FR)
        return d.out(["supp_nation", "cust_nation", "l_year", "volume"], m)

    stages: list = [
        ScanStage("supplier", supp_map),  # 0
        ScanStage("lineitem", li_map),    # 1
        OpStage(                          # 2: supplier ⋈ lineitem
            make_op=lambda: SymmetricHashJoin(
                ["s_suppkey"], ["l_suppkey"],
                lambda d: d.out(["l_orderkey", "supp_nation", "l_year", "volume"]),
            ),
            upstreams=[0, 1],
            partition_keys=[["s_suppkey"], ["l_suppkey"]],
        ),
        ScanStage("orders", lambda d: d.out(["o_orderkey", "o_custkey"])),  # 3
        OpStage(                          # 4: ⋈ orders
            make_op=lambda: SymmetricHashJoin(
                ["l_orderkey"], ["o_orderkey"],
                lambda d: d.out(["o_custkey", "supp_nation", "l_year", "volume"]),
            ),
            upstreams=[2, 3],
            partition_keys=[["l_orderkey"], ["o_orderkey"]],
        ),
        ScanStage("customer", cust_map),  # 5
        OpStage(                          # 6: ⋈ customer
            make_op=lambda: SymmetricHashJoin(["o_custkey"], ["c_custkey"], post_final),
            upstreams=[4, 5],
            partition_keys=[["o_custkey"], ["c_custkey"]],
        ),
    ]
    _agg_stages(
        stages, 6, ["supp_nation", "cust_nation", "l_year"],
        {"revenue": lambda d: d.volume}, pushdown=pushdown,
    )
    return Plan("q7", stages)


# --------------------------------------------------------------------- Q8

_Q8_SQL = """
SELECT o_year,
       sum(CASE WHEN nation = 'BRAZIL' THEN volume ELSE 0 END) / sum(volume)
         AS mkt_share
FROM (
  SELECT EXTRACT(year FROM o_orderdate) AS o_year,
         l_extendedprice * (1 - l_discount) AS volume,
         n2.n_name AS nation
  FROM part, supplier, lineitem, orders, customer, nation n1, nation n2, region
  WHERE p_partkey = l_partkey AND s_suppkey = l_suppkey
    AND l_orderkey = o_orderkey AND o_custkey = c_custkey
    AND c_nationkey = n1.n_nationkey AND n1.n_regionkey = r_regionkey
    AND r_name = 'AMERICA' AND s_nationkey = n2.n_nationkey
    AND o_orderdate BETWEEN DATE '1995-01-01' AND DATE '1996-12-31'
    AND p_type = 'ECONOMY'
) all_nations
GROUP BY o_year
"""


def _q8_plan(db: dict, pushdown: bool) -> Plan:
    nat, reg = db["nation"], db["region"]
    america = nat[nat.n_regionkey.isin(reg[reg.r_name == "AMERICA"].r_regionkey)]
    america = america.n_nationkey.to_numpy()
    nname = lookup(nat.n_nationkey, nat.n_name)
    s_nat = lookup(db["supplier"].s_suppkey, db["supplier"].s_nationkey)

    def part_map(d):
        return d.out(["p_partkey"], d.p_type == "ECONOMY")

    def li_map(d):
        return d.out(["l_orderkey", "l_partkey", "l_suppkey", "volume"],
                     volume=_rev(d))

    def ord_map(d):
        m = (d.o_orderdate >= D("1995-01-01")) & (d.o_orderdate <= D("1996-12-31"))
        return d.out(["o_orderkey", "o_custkey", "o_year"], m,
                     o_year=_year(d.o_orderdate))

    def cust_map(d):
        return d.out(["c_custkey"], np.isin(d.c_nationkey, america))

    def post_final(d):
        return d.out(["o_year", "volume", "nation"],
                     nation=nname(s_nat(d.l_suppkey)))

    stages: list = [
        ScanStage("part", part_map),      # 0
        ScanStage("lineitem", li_map),    # 1
        OpStage(                          # 2: part ⋈ lineitem
            make_op=lambda: SymmetricHashJoin(
                ["p_partkey"], ["l_partkey"],
                lambda d: d.out(["l_orderkey", "l_suppkey", "volume"]),
            ),
            upstreams=[0, 1],
            partition_keys=[["p_partkey"], ["l_partkey"]],
        ),
        ScanStage("orders", ord_map),     # 3
        OpStage(                          # 4: ⋈ orders
            make_op=lambda: SymmetricHashJoin(
                ["l_orderkey"], ["o_orderkey"],
                lambda d: d.out(["o_custkey", "o_year", "l_suppkey", "volume"]),
            ),
            upstreams=[2, 3],
            partition_keys=[["l_orderkey"], ["o_orderkey"]],
        ),
        ScanStage("customer", cust_map),  # 5
        OpStage(                          # 6: ⋈ customer
            make_op=lambda: SymmetricHashJoin(["o_custkey"], ["c_custkey"], post_final),
            upstreams=[4, 5],
            partition_keys=[["o_custkey"], ["c_custkey"]],
        ),
    ]
    aggs = {
        "__num": lambda d: np.where(d.nation == "BRAZIL", d.volume, 0.0),
        "__den": lambda d: d.volume,
    }

    def derived(d):
        return d.out(["o_year", "mkt_share"], mkt_share=d["__num"] / d["__den"])

    _agg_stages(stages, 6, ["o_year"], aggs, pushdown=pushdown, derived=derived)
    return Plan("q8", stages)


# --------------------------------------------------------------------- Q9

_Q9_SQL = """
SELECT nation, o_year, sum(amount) AS sum_profit
FROM (
  SELECT n_name AS nation, EXTRACT(year FROM o_orderdate) AS o_year,
         l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity
           AS amount
  FROM part, supplier, lineitem, partsupp, orders, nation
  WHERE s_suppkey = l_suppkey AND ps_suppkey = l_suppkey
    AND ps_partkey = l_partkey AND p_partkey = l_partkey
    AND o_orderkey = l_orderkey AND s_nationkey = n_nationkey
    AND p_type = 'ECONOMY'
) profit
GROUP BY nation, o_year
"""


def _q9_plan(db: dict, pushdown: bool) -> Plan:
    nname = lookup(db["nation"].n_nationkey, db["nation"].n_name)
    s_nat = lookup(db["supplier"].s_suppkey, db["supplier"].s_nationkey)

    li_cols = ["l_orderkey", "l_partkey", "l_suppkey", "l_quantity", "l_extendedprice",
               "l_discount"]

    def part_map(d):
        return d.out(["p_partkey"], d.p_type == "ECONOMY")

    def ord_map(d):
        return d.out(["o_orderkey", "o_year"], o_year=_year(d.o_orderdate))

    def post_ps(d):
        amount = _rev(d) - d.ps_supplycost * d.l_quantity
        return d.out(["l_orderkey", "l_suppkey", "amount"], amount=amount)

    def post_final(d):
        return d.out(["nation", "o_year", "amount"],
                     nation=nname(s_nat(d.l_suppkey)))

    stages: list = [
        ScanStage("part", part_map),      # 0
        ScanStage("lineitem", lambda d: d.out(li_cols)),  # 1
        OpStage(                          # 2: part ⋈ lineitem
            make_op=lambda: SymmetricHashJoin(
                ["p_partkey"], ["l_partkey"], lambda d: d.out(li_cols)
            ),
            upstreams=[0, 1],
            partition_keys=[["p_partkey"], ["l_partkey"]],
        ),
        ScanStage("partsupp", lambda d: d.out(  # 3
            ["ps_partkey", "ps_suppkey", "ps_supplycost"])),
        OpStage(                          # 4: ⋈ partsupp on (partkey, suppkey)
            make_op=lambda: SymmetricHashJoin(
                ["l_partkey", "l_suppkey"], ["ps_partkey", "ps_suppkey"], post_ps
            ),
            upstreams=[2, 3],
            partition_keys=[["l_partkey", "l_suppkey"], ["ps_partkey", "ps_suppkey"]],
        ),
        ScanStage("orders", ord_map),     # 5
        OpStage(                          # 6: ⋈ orders
            make_op=lambda: SymmetricHashJoin(["l_orderkey"], ["o_orderkey"], post_final),
            upstreams=[4, 5],
            partition_keys=[["l_orderkey"], ["o_orderkey"]],
        ),
    ]
    _agg_stages(
        stages, 6, ["nation", "o_year"], {"sum_profit": lambda d: d.amount},
        pushdown=pushdown,
    )
    return Plan("q9", stages)


# --------------------------------------------------------------------- Q12

_Q12_SQL = """
SELECT l_shipmode,
       sum(CASE WHEN o_orderpriority = '1-URGENT'
                  OR o_orderpriority = '2-HIGH' THEN 1 ELSE 0 END)
         AS high_line_count,
       sum(CASE WHEN o_orderpriority <> '1-URGENT'
                 AND o_orderpriority <> '2-HIGH' THEN 1 ELSE 0 END)
         AS low_line_count
FROM orders, lineitem
WHERE o_orderkey = l_orderkey AND l_shipmode IN ('MAIL', 'SHIP')
  AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate
  AND l_receiptdate >= DATE '1994-01-01' AND l_receiptdate < DATE '1995-01-01'
GROUP BY l_shipmode
"""


def _q12_plan(db: dict, pushdown: bool) -> Plan:
    def li_map(d):
        m = (
            np.isin(d.l_shipmode, ["MAIL", "SHIP"])
            & (d.l_commitdate < d.l_receiptdate)
            & (d.l_shipdate < d.l_commitdate)
            & (d.l_receiptdate >= D("1994-01-01"))
            & (d.l_receiptdate < D("1995-01-01"))
        )
        return d.out(["l_orderkey", "l_shipmode"], m)

    stages: list = [
        ScanStage("orders", lambda d: d.out(["o_orderkey", "o_orderpriority"])),
        ScanStage("lineitem", li_map),
        OpStage(
            make_op=lambda: SymmetricHashJoin(
                ["o_orderkey"], ["l_orderkey"],
                lambda d: d.out(["l_shipmode", "o_orderpriority"]),
            ),
            upstreams=[0, 1],
            partition_keys=[["o_orderkey"], ["l_orderkey"]],
        ),
    ]
    high = ["1-URGENT", "2-HIGH"]
    aggs = {
        "high_line_count": lambda d: np.isin(d.o_orderpriority, high).astype(np.int64),
        "low_line_count": lambda d: (~np.isin(d.o_orderpriority, high)).astype(np.int64),
    }
    _agg_stages(stages, 2, ["l_shipmode"], aggs, pushdown=pushdown)
    return Plan("q12", stages)


# --------------------------------------------------------------------- Q14

_Q14_SQL = """
SELECT 100.00 * sum(CASE WHEN p_type = 'PROMO'
                         THEN l_extendedprice * (1 - l_discount) ELSE 0 END)
       / sum(l_extendedprice * (1 - l_discount)) AS promo_revenue
FROM lineitem, part
WHERE l_partkey = p_partkey
  AND l_shipdate >= DATE '1995-09-01' AND l_shipdate < DATE '1995-10-01'
"""


def _q14_plan(db: dict, pushdown: bool) -> Plan:
    def li_map(d):
        m = (d.l_shipdate >= D("1995-09-01")) & (d.l_shipdate < D("1995-10-01"))
        return d.out(["l_partkey", "l_extendedprice", "l_discount"], m)

    def post(d):
        rev = _rev(d)
        return d.out(["rev", "promo"], rev=rev,
                     promo=np.where(d.p_type == "PROMO", rev, 0.0))

    stages: list = [
        ScanStage("part", lambda d: d.out(["p_partkey", "p_type"])),
        ScanStage("lineitem", li_map),
        OpStage(
            make_op=lambda: SymmetricHashJoin(["p_partkey"], ["l_partkey"], post),
            upstreams=[0, 1],
            partition_keys=[["p_partkey"], ["l_partkey"]],
        ),
    ]
    aggs = {"__promo": lambda d: d.promo, "__rev": lambda d: d.rev}

    def derived(d):
        return d.out(["promo_revenue"],
                     promo_revenue=100.0 * d["__promo"] / d["__rev"])

    _agg_stages(stages, 2, [], aggs, pushdown=pushdown, derived=derived,
                final_width=1)
    return Plan("q14", stages)


# ------------------------------------------------------------------ registry

QUERIES: dict[str, Query] = {
    "q1": Query("q1", "I", _Q1_SQL, _q1_plan),
    "q6": Query("q6", "I", _Q6_SQL, _q6_plan),
    "q3": Query("q3", "II", _Q3_SQL, _q3_plan),
    "q10": Query("q10", "II", _Q10_SQL, _q10_plan),
    "q5": Query("q5", "III", _Q5_SQL, _q5_plan),
    "q7": Query("q7", "III", _Q7_SQL, _q7_plan),
    "q8": Query("q8", "III", _Q8_SQL, _q8_plan),
    "q9": Query("q9", "III", _Q9_SQL, _q9_plan),
    "q12": Query("q12", "extra", _Q12_SQL, _q12_plan),
    "q14": Query("q14", "extra", _Q14_SQL, _q14_plan),
}

#: The paper's 8 representative queries (categories I/II/III), used by
#: the ablation and fault-recovery experiments (Figs 7-10).
REPRESENTATIVE = ["q1", "q6", "q3", "q10", "q5", "q7", "q8", "q9"]

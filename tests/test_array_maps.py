"""The array fused maps of every query against the pandas maps they replaced.

:func:`reference_maps` keeps the pandas scan maps, join projections
(``select`` lists and ``post`` maps) and ``derived`` maps of all ten
queries as they were written on frames, the way ``test_hashagg.py`` keeps
``PandasHashAgg``. Every scan map runs on every source batch of the small
db; every join projection and ``derived`` map runs inside a real run of
its query, on the join's full output and on the final aggregation's
flushed columns. Each array map must give the same names, dtypes,
``width`` and values as its pandas map, also on a batch whose every row
the map filters out.
"""
import numpy as np
import pandas as pd
import pytest

from repro.engine.executor import ExecConfig, Executor
from repro.engine.operators import HashAgg, SymmetricHashJoin, _View
from repro.engine.plan import OpStage, ScanStage
from repro.engine.util import ColumnBatch, as_columns
from repro.queries.tpch import QUERIES, _year, lookup

D = pd.Timestamp


def _rev(df):
    return df.l_extendedprice * (1 - df.l_discount)


def reference_maps(db) -> dict:
    """{query: {"scans": {stage: map}, "joins": {stage: map}, "derived":
    map}}: the pandas maps over frames, stage ids as in the query's plan."""
    nat, reg = db["nation"], db["region"]
    nname = dict(zip(nat.n_nationkey, nat.n_name))
    s_nat = dict(zip(db["supplier"].s_suppkey, db["supplier"].s_nationkey))

    def select(*cols):
        return lambda d: d[list(cols)]

    q1 = {
        "scans": {0: lambda df: df[df.l_shipdate <= D("1998-09-02")][
            ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
             "l_discount", "l_tax"]]},
        "joins": {},
        "derived": lambda d: d.assign(avg_qty=d.sum_qty / d.count_order),
    }

    def q6_scan(df):
        m = (
            (df.l_shipdate >= D("1994-01-01"))
            & (df.l_shipdate < D("1995-01-01"))
            & (df.l_discount >= 0.05)
            & (df.l_discount <= 0.07)
            & (df.l_quantity < 24)
        )
        return df[m][["l_extendedprice", "l_discount"]]

    q6 = {"scans": {0: q6_scan}, "joins": {}, "derived": None}
    q3 = {
        "scans": {
            0: lambda df: df[df.c_mktsegment == "BUILDING"][["c_custkey"]],
            1: lambda df: df[df.o_orderdate < D("1995-03-15")][
                ["o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"]],
            3: lambda df: df[df.l_shipdate > D("1995-03-15")][
                ["l_orderkey", "l_extendedprice", "l_discount"]],
        },
        "joins": {2: select("o_orderkey", "o_orderdate", "o_shippriority")},
        "derived": None,
    }
    q10 = {
        "scans": {
            0: lambda df: df.assign(n_name=df.c_nationkey.map(nname))[
                ["c_custkey", "c_acctbal", "n_name"]],
            1: lambda df: df[(df.o_orderdate >= D("1993-10-01"))
                             & (df.o_orderdate < D("1994-01-01"))][
                ["o_orderkey", "o_custkey"]],
            3: lambda df: df[df.l_returnflag == "R"][
                ["l_orderkey", "l_extendedprice", "l_discount"]],
        },
        "joins": {},
        "derived": None,
    }
    asia = set(nat[nat.n_regionkey.isin(reg[reg.r_name == "ASIA"].r_regionkey)].n_nationkey)

    def q5_post_final(d):
        d = d[d.c_nationkey == d.s_nationkey]
        return d.assign(n_name=d.s_nationkey.map(nname))[
            ["n_name", "l_extendedprice", "l_discount"]]

    q5 = {
        "scans": {
            0: lambda df: df[(df.o_orderdate >= D("1994-01-01"))
                             & (df.o_orderdate < D("1995-01-01"))][
                ["o_orderkey", "o_custkey"]],
            1: select("c_custkey", "c_nationkey"),
            3: select("l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"),
            5: lambda df: df[df.s_nationkey.isin(asia)][["s_suppkey", "s_nationkey"]],
        },
        "joins": {
            2: select("o_orderkey", "c_nationkey"),
            4: select("l_suppkey", "l_extendedprice", "l_discount", "c_nationkey"),
            6: q5_post_final,
        },
        "derived": None,
    }
    fr_de = dict(zip(nat[nat.n_name.isin(["FRANCE", "GERMANY"])].n_nationkey,
                     nat[nat.n_name.isin(["FRANCE", "GERMANY"])].n_name))

    def q7_supp(df):
        d = df[df.s_nationkey.isin(fr_de)]
        return d.assign(supp_nation=d.s_nationkey.map(fr_de))[["s_suppkey", "supp_nation"]]

    def q7_li(df):
        d = df[(df.l_shipdate >= D("1995-01-01")) & (df.l_shipdate <= D("1996-12-31"))]
        return d.assign(l_year=d.l_shipdate.dt.year.astype("int64"), volume=_rev(d))[
            ["l_orderkey", "l_suppkey", "l_year", "volume"]]

    def q7_cust(df):
        d = df[df.c_nationkey.isin(fr_de)]
        return d.assign(cust_nation=d.c_nationkey.map(fr_de))[["c_custkey", "cust_nation"]]

    q7 = {
        "scans": {0: q7_supp, 1: q7_li, 3: select("o_orderkey", "o_custkey"),
                  5: q7_cust},
        "joins": {
            2: select("l_orderkey", "supp_nation", "l_year", "volume"),
            4: select("o_custkey", "supp_nation", "l_year", "volume"),
            6: lambda d: d[d.supp_nation != d.cust_nation][
                ["supp_nation", "cust_nation", "l_year", "volume"]],
        },
        "derived": None,
    }
    america = set(
        nat[nat.n_regionkey.isin(reg[reg.r_name == "AMERICA"].r_regionkey)].n_nationkey)

    def q8_ord(df):
        d = df[(df.o_orderdate >= D("1995-01-01")) & (df.o_orderdate <= D("1996-12-31"))]
        return d.assign(o_year=d.o_orderdate.dt.year.astype("int64"))[
            ["o_orderkey", "o_custkey", "o_year"]]

    q8 = {
        "scans": {
            0: lambda df: df[df.p_type == "ECONOMY"][["p_partkey"]],
            1: lambda df: df.assign(volume=_rev(df))[
                ["l_orderkey", "l_partkey", "l_suppkey", "volume"]],
            3: q8_ord,
            5: lambda df: df[df.c_nationkey.isin(america)][["c_custkey"]],
        },
        "joins": {
            2: select("l_orderkey", "l_suppkey", "volume"),
            4: select("o_custkey", "o_year", "l_suppkey", "volume"),
            6: lambda d: d.assign(nation=d.l_suppkey.map(s_nat).map(nname))[
                ["o_year", "volume", "nation"]],
        },
        "derived": lambda d: d.assign(mkt_share=d["__num"] / d["__den"])[
            ["o_year", "mkt_share"]],
    }

    def q9_post_ps(d):
        amount = _rev(d) - d.ps_supplycost * d.l_quantity
        return d.assign(amount=amount)[["l_orderkey", "l_suppkey", "amount"]]

    q9 = {
        "scans": {
            0: lambda df: df[df.p_type == "ECONOMY"][["p_partkey"]],
            1: select("l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
                      "l_extendedprice", "l_discount"),
            3: select("ps_partkey", "ps_suppkey", "ps_supplycost"),
            5: lambda df: df.assign(o_year=df.o_orderdate.dt.year.astype("int64"))[
                ["o_orderkey", "o_year"]],
        },
        "joins": {
            2: select("l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
                      "l_extendedprice", "l_discount"),
            4: q9_post_ps,
            6: lambda d: d.assign(nation=d.l_suppkey.map(s_nat).map(nname))[
                ["nation", "o_year", "amount"]],
        },
        "derived": None,
    }

    def q12_li(df):
        m = (
            df.l_shipmode.isin(["MAIL", "SHIP"])
            & (df.l_commitdate < df.l_receiptdate)
            & (df.l_shipdate < df.l_commitdate)
            & (df.l_receiptdate >= D("1994-01-01"))
            & (df.l_receiptdate < D("1995-01-01"))
        )
        return df[m][["l_orderkey", "l_shipmode"]]

    q12 = {
        "scans": {0: select("o_orderkey", "o_orderpriority"), 1: q12_li},
        "joins": {2: select("l_shipmode", "o_orderpriority")},
        "derived": None,
    }
    q14 = {
        "scans": {
            0: select("p_partkey", "p_type"),
            1: lambda df: df[(df.l_shipdate >= D("1995-09-01"))
                             & (df.l_shipdate < D("1995-10-01"))][
                ["l_partkey", "l_extendedprice", "l_discount"]],
        },
        "joins": {2: lambda d: d.assign(
            rev=_rev(d), promo=np.where(d.p_type == "PROMO", _rev(d), 0.0),
        )[["rev", "promo"]]},
        "derived": lambda d: d.assign(promo_revenue=100.0 * d["__promo"] / d["__rev"])[
            ["promo_revenue"]],
    }
    return {"q1": q1, "q6": q6, "q3": q3, "q10": q10, "q5": q5, "q7": q7,
            "q8": q8, "q9": q9, "q12": q12, "q14": q14}


def assert_same(got: ColumnBatch, want: pd.DataFrame, where: str) -> None:
    """Equal names, dtypes, ``width`` and values (NaN equal to NaN)."""
    want = as_columns(want)
    assert isinstance(got, ColumnBatch), where
    assert got.names == want.names, where
    assert [c.dtype for c in got.cols] == [c.dtype for c in want.cols], where
    assert got.width == want.width, where
    assert len(got) == len(want), where
    for name, a, b in zip(got.names, got.cols, want.cols):
        np.testing.assert_array_equal(a, b, err_msg=f"{where}: {name}", strict=True)


def check(fn, ref, frame: pd.DataFrame, view: _View, where: str, filtered: set) -> ColumnBatch:
    """Run the array map ``fn`` on ``view`` and the pandas map ``ref`` on
    ``frame`` (the same rows) and compare. When ``ref`` drops rows,
    compare them again on the dropped rows, an all-filtered batch, and
    add the map's name to ``filtered``. Returns ``fn``'s output."""
    got, want = fn(view), ref(frame)
    assert_same(got, want, where)
    if len(want) < len(frame):
        dropped = frame.drop(index=want.index).reset_index(drop=True)
        assert_same(fn(_View.of_batch(as_columns(dropped))), ref(dropped),
                    f"{where}, all filtered")
        filtered.add(where.split(" batch")[0])
    return got


#: The maps that filter rows; each must meet an all-filtered batch.
FILTERING = {
    "q1 scan 0", "q6 scan 0", "q3 scan 0", "q3 scan 1", "q3 scan 3", "q10 scan 1",
    "q10 scan 3", "q5 scan 0", "q5 scan 5", "q5 join 6", "q7 scan 0", "q7 scan 1",
    "q7 scan 5", "q7 join 6", "q8 scan 0", "q8 scan 3", "q8 scan 5", "q9 scan 0",
    "q12 scan 1", "q14 scan 1",
}


def _filtering(qname: str, kind: str) -> set:
    return {m for m in FILTERING if m.startswith(f"{qname} {kind} ")}


@pytest.mark.parametrize("qname", list(QUERIES))
def test_scan_maps_equal_the_pandas_maps(db, tables, qname):
    refs = reference_maps(db)[qname]["scans"]
    plan = QUERIES[qname].plan(db)
    scans = {i: st for i, st in enumerate(plan.stages) if isinstance(st, ScanStage)}
    assert set(scans) == set(refs)
    filtered: set = set()
    for sid, st in scans.items():
        for b, raw in enumerate(tables[st.table]):
            check(st.map_fn, refs[sid], raw.to_frame(), _View.of_batch(raw),
                  f"{qname} scan {sid} batch {b}", filtered)
    assert filtered == _filtering(qname, "scan")


class _CheckedJoin(SymmetricHashJoin):
    """A join that emits its full output through its projection after
    checking the projection against the pandas map."""

    def __init__(self, op: SymmetricHashJoin, ref, where: str, seen: list,
                 filtered: set) -> None:
        super().__init__(op.left_on, op.right_on)
        self._fn, self._ref, self._where = op.project, ref, where
        self._seen, self._filtered = seen, filtered

    def on_batch(self, upstream_idx, batch):
        full = super().on_batch(upstream_idx, batch)
        if full is None:
            return None
        self._seen.append(self._where)
        out = check(self._fn, self._ref, full.to_frame(), _View.of_batch(full),
                    f"{self._where} batch {len(self._seen)}", self._filtered)
        return out if len(out) else None


class _CheckedAgg(HashAgg):
    """A final aggregation that checks its ``derived`` map against the
    pandas one on its flushed columns."""

    def __init__(self, op: HashAgg, ref, where: str, seen: list) -> None:
        super().__init__(op.keys, op.aggs, raw=op.raw)
        self._fn, self._ref, self._where, self._seen = op.derived, ref, where, seen

    def flush(self):
        full = super().flush()
        if full is None:
            return None
        self._seen.append(self._where)
        return check(self._fn, self._ref, full.to_frame(), _View.of_batch(full),
                     self._where, set())


@pytest.mark.parametrize("pushdown", [True, False], ids=["pushdown", "raw"])
@pytest.mark.parametrize("qname", list(QUERIES))
def test_join_and_derived_maps_equal_the_pandas_maps(db, tables, qname, pushdown):
    refs = reference_maps(db)[qname]
    plan = QUERIES[qname].plan(db, pushdown=pushdown)
    seen: list = []
    filtered: set = set()
    joins, derived = set(), False
    for sid, st in enumerate(plan.stages):
        if not isinstance(st, OpStage):
            continue
        op = st.make_op()
        if isinstance(op, SymmetricHashJoin) and op.project is not None:
            joins.add(sid)
            st.make_op = lambda mk=st.make_op, ref=refs["joins"].get(sid), \
                w=f"{qname} join {sid}": _CheckedJoin(mk(), ref, w, seen, filtered)
        elif isinstance(op, HashAgg) and op.derived is not None:
            derived = True
            st.make_op = lambda mk=st.make_op: _CheckedAgg(
                mk(), refs["derived"], f"{qname} derived", seen)
    assert joins == set(refs["joins"])
    assert derived == (refs["derived"] is not None)
    res = Executor(plan, tables, ExecConfig(n_workers=4)).run([])
    assert len(res.df)
    assert set(seen) == {f"{qname} join {sid}" for sid in joins} | (
        {f"{qname} derived"} if derived else set())
    assert filtered == _filtering(qname, "join")


def test_lookup_is_series_map_and_rejects_unknown_keys():
    keys = pd.Series([3, 0, 7, 5])
    names = pd.Series(["c", "a", "g", "e"], dtype=object)
    ints = pd.Series([30, 0, 70, 50])
    k = np.array([7, 0, 0, 5, 3])
    for values in (names, ints):
        got = lookup(keys, values)(k)
        want = pd.Series(k).map(dict(zip(keys, values))).to_numpy()
        np.testing.assert_array_equal(got, want, strict=True)
        empty = lookup(keys, values)(k[:0])
        assert empty.dtype == pd.Series(k[:0]).map(dict(zip(keys, values))).dtype
    look = lookup(keys, names)
    # a hole pandas would map to NaN, a key past the largest, and a
    # negative one that numpy indexing would wrap to the last entry
    for bad in (1, 8, -1):
        with pytest.raises(KeyError, match=str(bad)):
            look(np.array([0, bad, 3]))
    with pytest.raises(ValueError, match="non-negative"):
        lookup(pd.Series([-2, 1]), names[:2])


def test_year_is_dt_year(db):
    for col in (db["lineitem"].l_shipdate, db["orders"].o_orderdate):
        np.testing.assert_array_equal(
            _year(col.to_numpy()), col.dt.year.astype("int64").to_numpy(), strict=True
        )

"""Operator kernels vs pandas reference implementations."""
from typing import Optional

import numpy as np
import pandas as pd
import pytest

from repro.engine import operators
from repro.engine.operators import HashAgg, SymmetricHashJoin, TopK, _View
from repro.engine.util import ColumnBatch, as_columns, row_nbytes


def _sorted(df, cols=None):
    cols = cols or list(df.columns)
    return df.sort_values(cols).reset_index(drop=True)[sorted(df.columns)]


@pytest.fixture()
def left_batches():
    g = np.random.default_rng(1)
    return [
        pd.DataFrame({"lk": g.integers(0, 50, 200), "lv": g.random(200)})
        for _ in range(4)
    ]


@pytest.fixture()
def right_batches():
    g = np.random.default_rng(2)
    return [
        pd.DataFrame({"rk": g.integers(0, 50, 150), "rv": g.random(150)})
        for _ in range(3)
    ]


def _reference_join(lbatches, rbatches):
    left = pd.concat(lbatches, ignore_index=True)
    right = pd.concat(rbatches, ignore_index=True)
    return left.merge(right, left_on="lk", right_on="rk")


def _drive(join, feed):
    outs = []
    for side, batch in feed:
        r = join.on_batch(side, as_columns(batch))
        if r is not None:
            outs.append(r.to_frame())
    return pd.concat(outs, ignore_index=True) if outs else pd.DataFrame()


@pytest.mark.parametrize("interleave", ["left_first", "right_first", "mixed"])
def test_symmetric_join_matches_reference(left_batches, right_batches, interleave):
    if interleave == "left_first":
        feed = [(0, b) for b in left_batches] + [(1, b) for b in right_batches]
    elif interleave == "right_first":
        feed = [(1, b) for b in right_batches] + [(0, b) for b in left_batches]
    else:
        feed = []
        for i in range(4):
            feed.append((0, left_batches[i]))
            if i < 3:
                feed.append((1, right_batches[i]))
    got = _drive(SymmetricHashJoin(["lk"], ["rk"]), feed)
    expected = _reference_join(left_batches, right_batches)
    pd.testing.assert_frame_equal(
        _sorted(got), _sorted(expected), check_dtype=False
    )


def test_join_emits_each_match_exactly_once(left_batches, right_batches):
    feed = [(0, left_batches[0]), (1, right_batches[0]),
            (0, left_batches[1]), (1, right_batches[1])]
    got = _drive(SymmetricHashJoin(["lk"], ["rk"]), feed)
    expected = _reference_join(left_batches[:2], right_batches[:2])
    assert len(got) == len(expected)


def test_join_multi_column_keys():
    left = pd.DataFrame({"a": [1, 1, 2], "b": [1, 2, 1], "x": [10, 20, 30]})
    right = pd.DataFrame({"c": [1, 2, 1], "d": [2, 1, 9], "y": [7, 8, 9]})
    j = SymmetricHashJoin(["a", "b"], ["c", "d"])
    outs = [j.on_batch(0, as_columns(left)), j.on_batch(1, as_columns(right))]
    got = pd.concat([o.to_frame() for o in outs if o is not None], ignore_index=True)
    expected = left.merge(right, left_on=["a", "b"], right_on=["c", "d"])
    pd.testing.assert_frame_equal(
        _sorted(got), _sorted(expected), check_dtype=False
    )


def test_join_post_map_applied(left_batches, right_batches):
    j = SymmetricHashJoin(["lk"], ["rk"], lambda d: d.out(["lk", "lv"], d.lv > 0.5))
    got = _drive(j, [(0, left_batches[0]), (1, right_batches[0])])
    assert len(got)
    assert list(got.columns) == ["lk", "lv"]
    assert (got.lv > 0.5).all()


@pytest.mark.parametrize("first", [0, 1])
def test_join_select_equals_projection_post(left_batches, right_batches, first):
    """A projection that selects columns and one that filters and derives
    give what the pandas maps give on the join's full output frame, as
    column batches of the same width, whichever side probes; the state
    is the same as without a projection."""
    cols = ["rv", "lk", "lv"]
    maps = {
        "select": (lambda d: d.out(cols), lambda f: f[cols]),
        "filter": (
            lambda d: d.out(["lk", "x"], d.rv > 0.3, x=d.lv * (1 - d.rv)),
            lambda f: f[f.rv > 0.3].assign(x=f.lv * (1 - f.rv))[["lk", "x"]],
        ),
    }
    feed = [(0, b) for b in left_batches[:2]] + [(1, b) for b in right_batches[:2]]
    if first == 1:
        feed = feed[2:] + feed[:2]
    feed += [(0, left_batches[2]), (1, right_batches[2])]
    full = SymmetricHashJoin(["lk"], ["rk"])
    joins = {name: SymmetricHashJoin(["lk"], ["rk"], fn) for name, (fn, _) in maps.items()}
    emitted = 0
    for side, batch in feed:
        batch = as_columns(batch)
        want = full.on_batch(side, batch)
        for name, (_, ref) in maps.items():
            got = joins[name].on_batch(side, batch)
            assert joins[name].state_nbytes() == full.state_nbytes()
            ref_out = None if want is None else ref(want.to_frame())
            if ref_out is None or not len(ref_out):
                assert got is None
                continue
            emitted += 1
            ref_out = as_columns(ref_out)
            assert isinstance(got, ColumnBatch) and got.names == ref_out.names
            assert row_nbytes(got) == row_nbytes(ref_out)
            pd.testing.assert_frame_equal(got.to_frame(), ref_out.to_frame())
    assert emitted >= 4


def test_join_select_rejects_bad_projections():
    left = as_columns(pd.DataFrame({"lk": [1], "lv": [0.5]}))
    right = as_columns(pd.DataFrame({"rk": [1], "rv": [2.0]}))
    for names, match in (([], "no column"),
                         (["lv", "rk", "lv"], r"\['lv'\] more than once")):
        j = SymmetricHashJoin(["lk"], ["rk"], lambda d, names=names: d.out(names))
        j.on_batch(0, left)
        with pytest.raises(ValueError, match=match):
            j.on_batch(1, right)


def test_join_select_of_a_missing_column_fails_at_first_output():
    j = SymmetricHashJoin(["lk"], ["rk"], lambda d: d.out(["lv", "nope"]))
    assert j.on_batch(0, as_columns(pd.DataFrame({"lk": [1], "lv": [0.5]}))) is None
    with pytest.raises(ValueError, match="'nope'"):
        j.on_batch(1, as_columns(pd.DataFrame({"rk": [1], "rv": [2.0]})))


def test_projection_of_a_view_fails_early_on_malformed_names():
    frame = pd.DataFrame({"a": [1, 2, 3], "b": [0.5, 1.5, 2.5]})
    d = _View.of_batch(as_columns(frame))
    with pytest.raises(ValueError, match="no column"):
        d.out([])
    with pytest.raises(ValueError, match=r"\['a'\] more than once"):
        d.out(["a", "b", "a"])
    with pytest.raises(ValueError, match="'c'"):
        d.out(["a", "c"])
    with pytest.raises(ValueError, match="'x' has 2 rows"):
        d.out(["a", "x"], x=np.zeros(2))
    with pytest.raises(AttributeError):
        d.c  # noqa: B018
    out = d.out(["b", "x"], d.a > 1, x=d.a * 2)
    pd.testing.assert_frame_equal(
        out.to_frame(), pd.DataFrame({"b": [1.5, 2.5], "x": [4, 6]})
    )
    empty = d.out(["a", "b"], d.a > 9)
    assert len(empty) == 0 and empty.width == 16
    with pytest.raises(ValueError, match="at least one column"):
        ColumnBatch.of_arrays({})


def test_join_empty_batches_are_noops():
    j = SymmetricHashJoin(["lk"], ["rk"])
    assert j.on_batch(0, None) is None
    assert j.on_batch(1, as_columns(pd.DataFrame({"rk": [], "rv": []}))) is None


def test_join_no_matches_returns_none():
    j = SymmetricHashJoin(["lk"], ["rk"])
    j.on_batch(0, as_columns(pd.DataFrame({"lk": [1], "lv": [0.0]})))
    assert j.on_batch(1, as_columns(pd.DataFrame({"rk": [99], "rv": [0.0]}))) is None


def test_join_state_nbytes_grows(left_batches):
    j = SymmetricHashJoin(["lk"], ["rk"])
    j.on_batch(0, as_columns(left_batches[0]))
    s1 = j.state_nbytes()
    j.on_batch(0, as_columns(left_batches[1]))
    assert j.state_nbytes() > s1 > 0


def test_join_deterministic_replay(left_batches, right_batches):
    feed = [(0, left_batches[0]), (1, right_batches[0]), (0, left_batches[1])]
    a = _drive(SymmetricHashJoin(["lk"], ["rk"]), feed)
    b = _drive(SymmetricHashJoin(["lk"], ["rk"]), feed)
    pd.testing.assert_frame_equal(a, b)  # byte-identical, not just equal


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_join_random_interleavings_heavy_duplicates(seed):
    g = np.random.default_rng(seed)
    lb = [
        pd.DataFrame({"lk": g.integers(0, 6, n), "lv": g.random(n)})
        for n in g.integers(1, 60, 12)
    ]
    rb = [
        pd.DataFrame({"rk": g.integers(0, 6, n), "rv": g.random(n)})
        for n in g.integers(1, 60, 9)
    ]
    feed = [(0, b) for b in lb] + [(1, b) for b in rb]
    feed = [feed[i] for i in g.permutation(len(feed))]
    got = _drive(SymmetricHashJoin(["lk"], ["rk"]), feed)
    expected = _reference_join(lb, rb)
    assert len(got) == len(expected)
    pd.testing.assert_frame_equal(
        _sorted(got), _sorted(expected), check_dtype=False
    )


def test_join_composite_keys_exact_under_hash_collisions(monkeypatch):
    """With every key hashing alike, only the key check separates rows."""
    monkeypatch.setattr(
        operators, "key_hash", lambda pdf, cols: np.zeros(len(pdf), np.uint64)
    )
    g = np.random.default_rng(7)
    left = [
        pd.DataFrame({"a": g.integers(0, 4, 40), "b": g.integers(0, 3, 40),
                      "s": g.choice(["x", "y"], 40), "x": g.random(40)})
        for _ in range(3)
    ]
    right = [
        pd.DataFrame({"c": g.integers(0, 4, 30), "d": g.integers(0, 3, 30),
                      "t": g.choice(["x", "y"], 30), "y": g.random(30)})
        for _ in range(3)
    ]
    feed = [(0, left[0]), (1, right[0]), (1, right[1]), (0, left[1]),
            (0, left[2]), (1, right[2])]
    got = _drive(SymmetricHashJoin(["a", "b", "s"], ["c", "d", "t"]), feed)
    expected = pd.concat(left).merge(
        pd.concat(right), left_on=["a", "b", "s"], right_on=["c", "d", "t"]
    )
    assert len(got) == len(expected)
    pd.testing.assert_frame_equal(
        _sorted(got), _sorted(expected), check_dtype=False
    )


def test_join_single_string_key_matches_exactly():
    left = pd.DataFrame({"ls": ["a", "b", "c", "a"], "lv": [1, 2, 3, 4]})
    right = pd.DataFrame({"rs": ["a", "c", "d"], "rv": [5, 6, 7]})
    j = SymmetricHashJoin(["ls"], ["rs"])
    j.on_batch(1, as_columns(right))
    got = j.on_batch(0, as_columns(left)).to_frame()
    expected = left.merge(right, left_on="ls", right_on="rs")
    pd.testing.assert_frame_equal(_sorted(got), _sorted(expected))


def test_join_output_dtypes_match_merge():
    left = pd.DataFrame({
        "lk": np.array([1, 2, 2, 3], dtype="int64"),
        "ld": pd.to_datetime(["1995-01-01", "1995-02-01", "1996-03-01",
                              "1997-04-01"]).astype("datetime64[us]"),
        "ls": ["a", "b", "c", "d"],
        "lf": [0.5, 1.5, 2.5, 3.5],
    })
    right = pd.DataFrame({
        "rk": np.array([2, 3, 3], dtype="int64"),
        "rd": pd.to_datetime(["1998-01-01", "1998-01-02", "1998-01-03"])
        .astype("datetime64[us]"),
        "rs": ["x", "y", "z"],
        "ri": np.array([7, 8, 9], dtype="int64"),
    })
    expected = left.merge(right, left_on="lk", right_on="rk")
    for feed in ([(0, left), (1, right)], [(1, right), (0, left)]):
        got = _drive(SymmetricHashJoin(["lk"], ["rk"]), feed)
        assert list(got.columns) == list(expected.columns)
        assert got.dtypes.to_dict() == expected.dtypes.to_dict()
        pd.testing.assert_frame_equal(_sorted(got), _sorted(expected))


def test_join_later_batch_widens_column_dtype():
    ints = pd.DataFrame({"lk": [1, 2], "lv": np.array([10, 20], dtype="int64")})
    floats = pd.DataFrame({"lk": [1, 2], "lv": [0.25, 0.75]})
    right = pd.DataFrame({"rk": [1, 2], "rv": [5, 6]})
    got = _drive(SymmetricHashJoin(["lk"], ["rk"]),
                 [(0, ints), (0, floats), (1, right)])
    expected = _reference_join([ints, floats], [right])
    assert got.lv.dtype == np.float64
    pd.testing.assert_frame_equal(_sorted(got), _sorted(expected))


def test_join_state_nbytes_equals_appended_batch_sizes(left_batches, right_batches):
    j = SymmetricHashJoin(["lk"], ["rk"])
    fed = []
    for side, batch in [(0, left_batches[0]), (1, right_batches[0]),
                        (0, left_batches[1]), (1, right_batches[1]),
                        (0, left_batches[2])]:
        j.on_batch(side, as_columns(batch))
        fed.append(batch)
        assert j.state_nbytes() == sum(as_columns(b).nbytes for b in fed)


# ---------------------------------------------------------------- HashAgg

def _agg_feed(agg, batches):
    for b in batches:
        assert agg.on_batch(0, as_columns(b)) is None  # aggs emit only at flush
    return agg.flush().to_frame()


def test_hashagg_grouped_sums():
    g = np.random.default_rng(3)
    batches = [
        pd.DataFrame({"k": g.integers(0, 5, 100), "v": g.random(100)})
        for _ in range(5)
    ]
    agg = HashAgg(["k"], {"total": lambda d: d.v,
                          "cnt": lambda d: np.ones(len(d), dtype="int64")})
    got = _agg_feed(agg, batches)
    all_rows = pd.concat(batches)
    expected = (
        all_rows.groupby("k").agg(total=("v", "sum"), cnt=("v", "size"))
        .reset_index()
    )
    pd.testing.assert_frame_equal(
        _sorted(got), _sorted(expected), check_dtype=False
    )


def test_hashagg_global_sum_no_keys():
    batches = [pd.DataFrame({"v": [1.0, 2.0]}), pd.DataFrame({"v": [3.5]})]
    agg = HashAgg([], {"s": lambda d: d.v})
    out = _agg_feed(agg, batches)
    assert len(out) == 1 and out.s.iloc[0] == pytest.approx(6.5)


def test_hashagg_partial_then_final():
    g = np.random.default_rng(4)
    batches = [
        pd.DataFrame({"k": g.integers(0, 4, 50), "v": g.random(50)})
        for _ in range(4)
    ]
    partials = []
    for i in (0, 1):
        p = HashAgg(["k"], {"s": lambda d: d.v})
        p.on_batch(0, as_columns(batches[2 * i]))
        p.on_batch(0, as_columns(batches[2 * i + 1]))
        partials.append(p.flush())
    final = HashAgg(["k"], {"s": lambda d: d.s}, raw=False)
    for p in partials:
        final.on_batch(0, p)
    got = final.flush().to_frame()
    expected = (
        pd.concat(batches).groupby("k").v.sum().reset_index(name="s")
    )
    pd.testing.assert_frame_equal(
        _sorted(got), _sorted(expected), check_dtype=False
    )


def test_hashagg_derived_map():
    agg = HashAgg(
        ["k"],
        {"s": lambda d: d.v, "n": lambda d: np.ones(len(d), dtype="int64")},
        derived=lambda d: d.out(["k", "s", "n", "avg"], avg=d.s / d.n),
    )
    agg.on_batch(0, as_columns(pd.DataFrame({"k": [1, 1, 2], "v": [2.0, 4.0, 10.0]})))
    out = agg.flush().to_frame().set_index("k")
    assert out.loc[1, "avg"] == pytest.approx(3.0)
    assert out.loc[2, "avg"] == pytest.approx(10.0)


def test_hashagg_compaction_keeps_sums_exactly():
    agg = HashAgg(["k"], {"s": lambda d: d.v})
    agg._COMPACT_ROWS = 10  # force frequent compaction
    g = np.random.default_rng(5)
    batches = [
        pd.DataFrame({"k": g.integers(0, 3, 7), "v": g.integers(0, 100, 7)})
        for _ in range(20)
    ]
    got = _agg_feed(agg, batches)
    expected = pd.concat(batches).groupby("k").v.sum().reset_index(name="s")
    pd.testing.assert_frame_equal(
        _sorted(got), _sorted(expected), check_dtype=False
    )


def test_hashagg_empty_flush_none():
    agg = HashAgg(["k"], {"s": lambda d: d.v})
    assert agg.flush() is None


# ------------------------------------------------------------------- TopK

class PandasTopK:
    """The frame ``TopK`` the array one replaced, kept as the reference:
    its state is a frame, ordered by ``sort_values`` after each batch."""

    def __init__(self, sort_by, ascending, k, select=None):
        self.sort_by, self.ascending, self.k, self.select = sort_by, ascending, k, select
        self._state: Optional[pd.DataFrame] = None

    def on_batch(self, upstream_idx, batch):
        if batch is None or len(batch) == 0:
            return None
        pdf = batch.to_frame()
        merged = (
            pdf
            if self._state is None
            else pd.concat([self._state, pdf], ignore_index=True)
        )
        self._state = (
            merged.sort_values(self.sort_by, ascending=self.ascending)
            .head(self.k)
            .reset_index(drop=True)
        )
        return None

    def flush(self):
        if self._state is None:
            return None
        out = self._state
        if self.select is not None:
            out = out[self.select]
        return as_columns(out)

    def state_nbytes(self):
        return 0 if self._state is None else as_columns(self._state).nbytes


def _topk_batches(seed, n_batches=6):
    """Batches with many ties in ``r`` (broken by ``k``, and rows equal
    in both, told apart only by ``p``), NaN in ``r``, dates and strings."""
    g = np.random.default_rng(seed)
    out = []
    for _ in range(n_batches):
        n = int(g.integers(1, 30))
        r = g.integers(0, 4, n) / 2.0
        r[g.random(n) < 0.15] = np.nan
        out.append(pd.DataFrame({
            "r": r,
            "k": g.integers(0, 5, n),
            "d": np.datetime64("1995-01-01", "us")
            + g.integers(0, 6, n).astype("timedelta64[D]"),
            "s": np.array([f"s{v}" for v in g.integers(0, 4, n)], dtype=object),
            "p": g.random(n),
        }))
    return out


@pytest.mark.parametrize("k", [1, 7, 500], ids=["k1", "k7", "k-above-rows"])
@pytest.mark.parametrize("order", [
    (["r", "k"], [False, True]),
    (["r", "k"], [True, False]),
    (["d", "r"], [False, True]),
    (["s", "d", "k"], [False, True, False]),
    (["k", "s"], [False, False]),
], ids=["r-desc", "r-asc", "date-desc", "str-desc", "int-desc"])
@pytest.mark.parametrize("select", [None, ["p", "k"]], ids=["all", "select"])
def test_topk_matches_the_pandas_topk(order, k, select):
    """Same rows in the same order, with the same dtypes, and the same
    ``state_nbytes`` after every batch: checkpoint cost reads it."""
    sort_by, ascending = order
    new, ref = TopK(sort_by, ascending, k, select), PandasTopK(sort_by, ascending, k, select)
    for b in _topk_batches(len(sort_by) * 10 + k):
        cb = as_columns(b)
        assert new.on_batch(0, cb) is None and ref.on_batch(0, cb) is None
        assert new.state_nbytes() == ref.state_nbytes()
    got, want = new.flush(), ref.flush()
    assert got.names == want.names and got.width == want.width
    pd.testing.assert_frame_equal(got.to_frame(), want.to_frame())


def test_topk_matches_sort_head():
    g = np.random.default_rng(6)
    batches = [
        pd.DataFrame({"r": g.random(40), "k": np.arange(40) + 40 * i})
        for i in range(4)
    ]
    top = TopK(["r", "k"], [False, True], 10)
    for b in batches:
        assert top.on_batch(0, as_columns(b)) is None
    got = top.flush().to_frame()
    expected = (
        pd.concat(batches)
        .sort_values(["r", "k"], ascending=[False, True])
        .head(10)
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, expected, check_dtype=False)


def test_topk_select_projection():
    top = TopK(["r"], [False], 2, select=["k"])
    top.on_batch(0, as_columns(pd.DataFrame({"r": [3.0, 1.0, 2.0], "k": [1, 2, 3]})))
    out = top.flush().to_frame()
    assert list(out.columns) == ["k"]
    assert out.k.tolist() == [1, 3]


def test_topk_fewer_rows_than_k():
    top = TopK(["r"], [True], 10)
    top.on_batch(0, as_columns(pd.DataFrame({"r": [2.0, 1.0]})))
    assert top.flush().to_frame().r.tolist() == [1.0, 2.0]

"""Plan validation and topology helpers."""
import pytest

from repro.engine.operators import HashAgg
from repro.engine.plan import OpStage, Plan, ScanStage


def _agg():
    return HashAgg(["k"], {"s": lambda d: d.v})


def test_valid_plan_topology():
    p = Plan(
        "t",
        [
            ScanStage("a"),
            ScanStage("b"),
            OpStage(_agg, [0, 1], [["k"], ["k"]]),
            OpStage(_agg, [2], [["k"]]),
        ],
    )
    assert p.final_stage == 3
    assert p.consumer_of(0) == (2, 0)
    assert p.consumer_of(1) == (2, 1)
    assert p.consumer_of(3) is None
    assert p.input_stages() == {0, 1}
    assert p.tables() == {"a", "b"}


def test_upstream_must_be_earlier():
    with pytest.raises(ValueError, match="topologically"):
        Plan("t", [OpStage(_agg, [0], [["k"]]), ScanStage("a")])


def test_two_consumers_rejected():
    with pytest.raises(ValueError, match="two consumers"):
        Plan(
            "t",
            [
                ScanStage("a"),
                OpStage(_agg, [0], [["k"]]),
                OpStage(_agg, [0], [["k"]]),
            ],
        )


def test_unused_stage_rejected():
    with pytest.raises(ValueError, match="unused"):
        Plan("t", [ScanStage("a"), ScanStage("b"), OpStage(_agg, [1], [["k"]])])


def test_partition_keys_arity_checked():
    with pytest.raises(ValueError, match="one key list per upstream"):
        Plan("t", [ScanStage("a"), OpStage(_agg, [0], [["k"], ["k"]])])


def test_all_query_plans_validate(db):
    from repro.queries.tpch import QUERIES

    for q in QUERIES.values():
        for pushdown in (True, False):
            plan = q.plan(db, pushdown=pushdown)
            assert plan.final_stage == len(plan.stages) - 1
            assert plan.input_stages()
            assert plan.tables() <= set(db)

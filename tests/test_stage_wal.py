"""Write-ahead lineage on real Spark: staged execution with journaled
per-stage lineage, crash injection, and resume-from-journal."""
import json

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro import oracle
from repro.core.gcs import TransactionError
from repro.sparkbridge.stage_wal import SimulatedCrash, SparkStage, StagedWalRunner


@pytest.fixture(scope="module")
def base(spark, db):
    return {
        "lineitem": spark.createDataFrame(db["lineitem"]),
        "orders": spark.createDataFrame(db["orders"]),
    }


def _stages():
    return [
        SparkStage(
            "filtered", ["lineitem"],
            lambda s, d: d["lineitem"]
            .where(F.col("l_shipdate") > F.lit("1995-03-15"))
            .select("l_orderkey", "l_extendedprice", "l_discount"),
        ),
        SparkStage(
            "joined", ["filtered", "orders"],
            lambda s, d: d["filtered"].join(
                d["orders"], d["filtered"].l_orderkey == d["orders"].o_orderkey
            ),
        ),
        SparkStage(
            "agg", ["joined"],
            lambda s, d: d["joined"]
            .groupBy("o_orderpriority")
            .agg(
                F.sum(
                    F.col("l_extendedprice") * (1 - F.col("l_discount"))
                ).alias("revenue")
            ),
        ),
    ]


_SQL = """
SELECT o_orderpriority, sum(l_extendedprice * (1 - l_discount)) AS revenue
FROM lineitem, orders
WHERE l_orderkey = o_orderkey AND l_shipdate > DATE '1995-03-15'
GROUP BY o_orderpriority
"""


def test_full_run_matches_oracle(spark, db, base, tmp_path):
    runner = StagedWalRunner(spark, _stages(), base, str(tmp_path / "job"))
    out = runner.run()
    oracle.assert_equivalent(out, _SQL, lineitem=db["lineitem"], orders=db["orders"])
    assert runner.recomputed == ["filtered", "joined", "agg"]


def test_crash_and_resume_skips_committed_stages(spark, db, base, tmp_path):
    job = str(tmp_path / "job2")
    r1 = StagedWalRunner(spark, _stages(), base, job)
    with pytest.raises(SimulatedCrash):
        r1.run(crash_after="joined")
    assert r1.recomputed == ["filtered", "joined"]

    # "restarted driver": a fresh runner over the same journal
    r2 = StagedWalRunner(spark, _stages(), base, job)
    out = r2.run()
    assert r2.recomputed == ["agg"]  # committed stages were not recomputed
    oracle.assert_equivalent(out, _SQL, lineitem=db["lineitem"], orders=db["orders"])


def test_resume_result_equals_fresh_result(spark, base, tmp_path):
    j1, j2 = str(tmp_path / "a"), str(tmp_path / "b")
    r1 = StagedWalRunner(spark, _stages(), base, j1)
    with pytest.raises(SimulatedCrash):
        r1.run(crash_after="filtered")
    resumed = StagedWalRunner(spark, _stages(), base, j1).run().toPandas()
    fresh = StagedWalRunner(spark, _stages(), base, j2).run().toPandas()
    key = ["o_orderpriority"]
    pd.testing.assert_frame_equal(
        resumed.sort_values(key).reset_index(drop=True),
        fresh.sort_values(key).reset_index(drop=True),
        check_exact=False, rtol=1e-9,
    )


def test_journal_records_lineage(spark, base, tmp_path):
    job = str(tmp_path / "job3")
    runner = StagedWalRunner(spark, _stages(), base, job)
    runner.run()
    records = [
        json.loads(line) for line in open(runner.journal_path) if line.strip()
    ]
    assert [r["stage"] for r in records] == ["filtered", "joined", "agg"]
    assert records[1]["lineage"] == ["filtered", "orders"]


def test_resume_after_a_torn_commit(spark, db, base, tmp_path):
    """A crash in the middle of a commit's write tears the journal's last
    line: resume drops that record, recomputes its stage and appends
    whole lines after the ones that parse."""
    job = str(tmp_path / "torn")
    r1 = StagedWalRunner(spark, _stages(), base, job)
    with pytest.raises(SimulatedCrash):
        r1.run(crash_after="joined")
    data = r1.journal_path.read_bytes()
    r1.journal_path.write_bytes(data[: len(data) - 9])  # mid "joined"
    r2 = StagedWalRunner(spark, _stages(), base, job)
    out = r2.run()
    assert r2.recomputed == ["joined", "agg"]
    oracle.assert_equivalent(out, _SQL, lineitem=db["lineitem"], orders=db["orders"])
    lines = r2.journal_path.read_text().splitlines()
    assert [json.loads(line)["stage"] for line in lines] == ["filtered", "joined", "agg"]


def test_corrupt_journal_line_before_the_tail_raises(spark, base, tmp_path):
    job = str(tmp_path / "corrupt")
    StagedWalRunner(spark, _stages(), base, job).run()
    r2 = StagedWalRunner(spark, _stages(), base, job)
    lines = r2.journal_path.read_text().splitlines(keepends=True)
    lines[0] = lines[0][:20] + "\n"
    r2.journal_path.write_text("".join(lines))
    with pytest.raises(TransactionError, match="line 1"):
        r2.run()


def test_missing_output_dir_forces_recompute(spark, base, tmp_path):
    import shutil

    job = str(tmp_path / "job4")
    r1 = StagedWalRunner(spark, _stages(), base, job)
    r1.run()
    shutil.rmtree(f"{job}/joined")  # committed but the publish dir is gone
    r2 = StagedWalRunner(spark, _stages(), base, job)
    r2.run()
    assert "joined" in r2.recomputed
    assert "filtered" not in r2.recomputed


def test_unknown_dep_rejected(spark, base, tmp_path):
    stages = [SparkStage("x", ["nope"], lambda s, d: d["nope"])]
    with pytest.raises(ValueError, match="unknown deps"):
        StagedWalRunner(spark, stages, base, str(tmp_path / "job5"))


def test_duplicate_stage_names_rejected(spark, base, tmp_path):
    stages = _stages() + [_stages()[0]]
    with pytest.raises(ValueError, match="duplicate"):
        StagedWalRunner(spark, stages, base, str(tmp_path / "job6"))

"""Experiment harness sanity at tiny scale (structures, caching,
geomeans). Real numbers come from benchmarks/ at BENCH_SF."""
import pytest

from repro import oracle
from repro.harness.configs import SYSTEMS
from repro.harness.experiments import Harness, format_rows, geomean, table1_rows


@pytest.fixture(scope="module")
def tiny():
    return Harness(sf=0.003, input_batches=8, check_oracle=True)


def test_geomean():
    assert geomean([1.0, 4.0]) == pytest.approx(2.0)
    assert geomean([2.0]) == 2.0


def test_run_is_memoised(tiny):
    a = tiny.run("q6", "quokka", 2)
    b = tiny.run("q6", "quokka", 2)
    assert a is b


def test_failure_run_uses_base_runtime(tiny):
    base = tiny.run("q6", "quokka", 2)
    fail = tiny.run("q6", "quokka", 2, failure_frac=0.5)
    assert fail.sim_time > base.sim_time
    assert fail.stats["n_recoveries"] == 1


def test_fig6_rows_structure(tiny):
    rows = tiny.fig6_rows(workers=[2], queries=["q6", "q3"])
    assert [r["query"] for r in rows] == ["q6", "q3", "GEOMEAN"]
    gm = rows[-1]
    assert gm["speedup_vs_spark"] > 0 and gm["speedup_vs_trino"] > 0


def test_fig9_rows_overheads_positive(tiny):
    rows = tiny.fig9_rows(workers=[2])
    gm = [r for r in rows if r["query"] == "GEOMEAN"][0]
    assert gm["quokka_wal"] > 0.9
    assert gm["trino_hdfs_spool"] > 1.0


def test_recovery_rows_include_restart_baseline(tiny):
    rows = tiny.recovery_rows(2, frac=0.5, queries=["q6"])
    assert rows[0]["restart_overhead"] > 1.0
    assert rows[0]["quokka_overhead"] > 1.0


def test_format_rows_alignment():
    text = format_rows(
        [{"a": 1, "b": "xy"}, {"a": 22, "b": None}], title="T"
    )
    lines = text.splitlines()
    assert lines[0] == "T"
    assert lines[1].startswith("a")
    assert len(lines) == 5


def test_table1_matches_paper_matrix():
    by = {r["system"]: r for r in table1_rows()}
    # paper Table I, row by row
    assert by["Trino"]["spooling"] == "yes" and by["Trino"]["lineage"] == "yes"
    assert by["SparkSQL"]["spooling"] == "no"
    assert by["Quokka"]["spooling"] == "no"
    assert by["Quokka"]["state_checkpoint"] == "no"
    assert by["Flink"]["lineage"] == "no"
    assert by["Kafka Streams"]["spooling"] == "yes"
    assert by["StreamScope"]["state_checkpoint"] == "yes"


def test_all_named_systems_run(tiny):
    for name in SYSTEMS:
        res = tiny.run("q6", name, 2)
        assert res.sim_time > 0


def test_every_new_run_is_checked_against_the_oracle(monkeypatch):
    """Each worker count and kill point is a run of its own, so each is
    checked; a memoised run is not checked again."""
    checked = []
    real = oracle.assert_equivalent

    def counted(df, sql, **db):
        checked.append(sql)
        real(df, sql, **db)

    monkeypatch.setattr(oracle, "assert_equivalent", counted)
    h = Harness(sf=0.003, input_batches=8, check_oracle=True)
    for workers in (2, 4):
        h.run("q6", "quokka", workers)
    for frac in (0.3, 0.5):
        h.run("q6", "quokka", 2, failure_frac=frac)
    h.run("q6", "quokka", 4)
    assert len(checked) == 4

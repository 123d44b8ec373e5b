"""Pinned simulated behaviour of the default engine configuration.

Simulated time is a deterministic function of the plan, the data and
every byte count the cost model sees, so a data-plane change that moves
it shows here. The values were recorded before shuffle slices became
column views, and must not move: q3 and q9 at SF 0.01 on 4 workers,
normally and with worker 1 killed at half the normal run's sim time.
"""
import pytest

#: (query, killed) -> (sim_time, n_tasks, gcs_txns, n_replays, n_rescans)
GOLDEN = {
    ("q3", False): (5.057085866666668, 225, 266, 0, 0),
    ("q3", True): (9.095139047619023, 222, 282, 84, 10),
    ("q9", False): (7.2847050666666675, 300, 352, 0, 0),
    ("q9", True): (13.413461257142824, 320, 396, 99, 10),
}


@pytest.mark.parametrize("qname,killed", list(GOLDEN))
def test_sim_golden(runner, qname, killed):
    res = runner.run(qname, failure=(1, 0.5) if killed else None)
    sim_time, *counts = GOLDEN[(qname, killed)]
    st = res.stats
    assert res.sim_time == pytest.approx(sim_time, rel=1e-12)
    assert [st[k] for k in ("n_tasks", "gcs_txns", "n_replays", "n_rescans")] == counts

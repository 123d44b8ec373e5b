"""Pinned simulated behaviour of the engine.

Simulated time is a deterministic function of the plan, the data and
every byte count the cost model sees, so a data-plane change that moves
it shows here. The values must not move. ``GOLDEN`` was recorded before
shuffle slices became column views: q3 and q9 at SF 0.01 on 4 workers,
normally and with worker 1 killed at half the normal run's sim time.
``GOLDEN_WIDE`` was recorded before join morsels became column batches:
q12 and q14 on 16 workers (joins with a ``post`` map), and q3 with
worker 1 killed under output spooling (sized with ``pdf_nbytes``) and
under state checkpointing (sized with ``state_nbytes``).
"""
import pytest

#: (query, killed) -> (sim_time, n_tasks, gcs_txns, n_replays, n_rescans)
GOLDEN = {
    ("q3", False): (5.057085866666668, 225, 266, 0, 0),
    ("q3", True): (9.095139047619023, 222, 282, 84, 10),
    ("q9", False): (7.2847050666666675, 300, 352, 0, 0),
    ("q9", True): (13.413461257142824, 320, 396, 99, 10),
}

#: (query, killed, n_workers, ft_mode) -> as GOLDEN
GOLDEN_WIDE = {
    ("q12", False, 16, "wal"): (2.0579399619047574, 617, 761, 0, 0),
    ("q14", False, 16, "wal"): (2.0962071619047573, 637, 766, 0, 0),
    ("q3", True, 4, "spool_s3"): (10.828534780952355, 220, 269, 67, 0),
    ("q3", True, 4, "checkpoint"): (13.122314133333314, 222, 282, 90, 10),
}


def check(res, golden):
    sim_time, *counts = golden
    st = res.stats
    assert res.sim_time == pytest.approx(sim_time, rel=1e-12)
    assert [st[k] for k in ("n_tasks", "gcs_txns", "n_replays", "n_rescans")] == counts


@pytest.mark.parametrize("qname,killed", list(GOLDEN))
def test_sim_golden(runner, qname, killed):
    res = runner.run(qname, failure=(1, 0.5) if killed else None)
    check(res, GOLDEN[(qname, killed)])


@pytest.mark.parametrize("qname,killed,n_workers,ft_mode", list(GOLDEN_WIDE))
def test_sim_golden_wide(runner, qname, killed, n_workers, ft_mode):
    res = runner.run(
        qname,
        failure=(1, 0.5) if killed else None,
        n_workers=n_workers,
        ft_mode=ft_mode,
    )
    check(res, GOLDEN_WIDE[(qname, killed, n_workers, ft_mode)])

"""Pinned simulated behaviour of the engine.

Simulated time is a deterministic function of the plan, the data and
every byte count the cost model sees, so a data-plane change that moves
it shows here. The values must not move. ``GOLDEN`` was recorded before
shuffle slices became column views: q3 and q9 at SF 0.01 on 4 workers,
normally and with worker 1 killed at half the normal run's sim time.
``GOLDEN_WIDE`` was recorded before join morsels became column batches:
q12 and q14 on 16 workers (joins with a ``post`` map), and q3 with
worker 1 killed under output spooling (sized with ``pdf_nbytes``) and
under state checkpointing (sized with ``state_nbytes``). The SHA-256 of
each run's GCS journal was recorded before replays and rescans became
kinds of the executor's one task record: a reordering of GCS writes that
leaves the counts equal shows there.
"""
import hashlib
import json

import pytest

#: (query, killed) -> (sim_time, n_tasks, gcs_txns, n_replays, n_rescans,
#: journal SHA-256)
GOLDEN = {
    ("q3", False): (5.057085866666668, 225, 266, 0, 0,
        "b4e3523c696ac76f45039b6740aa8062b72acc2cb6c490e83766b0d3f2c3ac30"),
    ("q3", True): (9.095139047619023, 222, 282, 84, 10,
        "91fcd16845d9349f1d877ca2087f543f551e30fd88948bda2c0c574c3dc4d555"),
    ("q9", False): (7.2847050666666675, 300, 352, 0, 0,
        "9533b05cb5e859d6625d3abd953335c785c94d1ab023fc469413144774cb62ee"),
    ("q9", True): (13.413461257142824, 320, 396, 99, 10,
        "941f279de6176607d137df1f83831ca60fc4a543c4cfa4ab1a489921950d0fa1"),
}

#: (query, killed, n_workers, ft_mode) -> as GOLDEN
GOLDEN_WIDE = {
    ("q12", False, 16, "wal"): (2.0579399619047574, 617, 761, 0, 0,
        "4b5a57bc747ae83a0d18f05496c612556c08f0c9f3a8566d787e207137a19935"),
    ("q14", False, 16, "wal"): (2.0962071619047573, 637, 766, 0, 0,
        "df95af3d32692481715627da259353ce00f431d257949d5d62e6d849baf2fdd8"),
    ("q3", True, 4, "spool_s3"): (10.828534780952355, 220, 269, 67, 0,
        "e8fd8b6161a85a8ac1978f2f108d1dcb5dadaa9faff8aadbb038478a766841d7"),
    ("q3", True, 4, "checkpoint"): (13.122314133333314, 222, 282, 90, 10,
        "31645a00ce2f228acac87f94b8d2f65b1d5d1099b53db743cc3f5fb91f7a3989"),
}


def check(res, journal, golden):
    sim_time, *counts, sha = golden
    st = res.stats
    assert res.sim_time == pytest.approx(sim_time, rel=1e-12)
    assert [st[k] for k in ("n_tasks", "gcs_txns", "n_replays", "n_rescans")] == counts
    assert hashlib.sha256(json.dumps(journal).encode()).hexdigest() == sha


@pytest.mark.parametrize("qname,killed", list(GOLDEN))
def test_sim_golden(runner, qname, killed):
    failure = (1, 0.5) if killed else None
    res = runner.run(qname, failure=failure)
    check(res, runner.journal(qname, failure=failure), GOLDEN[(qname, killed)])


@pytest.mark.parametrize("qname,killed,n_workers,ft_mode", list(GOLDEN_WIDE))
def test_sim_golden_wide(runner, qname, killed, n_workers, ft_mode):
    kw = dict(failure=(1, 0.5) if killed else None, n_workers=n_workers,
              ft_mode=ft_mode)
    res = runner.run(qname, **kw)
    check(res, runner.journal(qname, **kw), GOLDEN_WIDE[(qname, killed, n_workers, ft_mode)])

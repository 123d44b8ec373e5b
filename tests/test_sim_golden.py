"""Pinned simulated behaviour of the engine.

Simulated time is a deterministic function of the plan, the data and
every byte count the cost model sees, so a data-plane change that moves
it shows here. The values must not move. ``GOLDEN`` was recorded before
shuffle slices became column views: q3 and q9 at SF 0.01 on 4 workers,
normally and with worker 1 killed at half the normal run's sim time.
``GOLDEN_WIDE`` was recorded before join morsels became column batches:
q12 and q14 on 16 workers (joins with a ``post`` map), and q3 with
worker 1 killed under output spooling (sized with ``pdf_nbytes``) and
under state checkpointing (sized with ``state_nbytes``). The q1 and q6
pins (fused scan, partial ``HashAgg``, final ``HashAgg``: the plan shape
of the ``agg-32w`` benchmark workload) on 8 workers, normally and with
worker 1 killed, under backups and under checkpointing, were recorded
before ``HashAgg`` moved from pandas to column arrays. The SHA-256 of
each run's GCS journal was recorded before replays and rescans became
kinds of the executor's one task record: a reordering of GCS writes that
leaves the counts equal shows there. The hash of each run's result frame
(:func:`frame_sha`: values, index, dtypes and column names) was recorded
before column batches became the only batch the engine moves, while the
client frame was still built by ``pd.concat`` of frames.
"""
import hashlib
import json

import pandas as pd
import pytest

#: (query, killed) -> (sim_time, n_tasks, gcs_txns, n_replays, n_rescans,
#: journal SHA-256, result-frame SHA-256)
GOLDEN = {
    ("q3", False): (5.057085866666668, 225, 266, 0, 0,
        "b4e3523c696ac76f45039b6740aa8062b72acc2cb6c490e83766b0d3f2c3ac30",
        "9dee8e0b80066cb39c3031727b776de1677e36d57ad9ee92b8413404e44ab026"),
    ("q3", True): (9.095139047619023, 222, 282, 84, 10,
        "91fcd16845d9349f1d877ca2087f543f551e30fd88948bda2c0c574c3dc4d555",
        "0222129d9f041f76b1a2b457bf819dbea013cff17b3a52d21f34d3a2cd8b5a05"),
    ("q9", False): (7.2847050666666675, 300, 352, 0, 0,
        "9533b05cb5e859d6625d3abd953335c785c94d1ab023fc469413144774cb62ee",
        "f07f4f2578cc7598949959a132cd3274c29e707c36b962305e4bc9d207ac88fb"),
    ("q9", True): (13.413461257142824, 320, 396, 99, 10,
        "941f279de6176607d137df1f83831ca60fc4a543c4cfa4ab1a489921950d0fa1",
        "676d048be61aa421a0eaf0e3482b2b6a62727d43c8d1c8678218954151c375e3"),
}

#: (query, killed, n_workers, ft_mode) -> as GOLDEN
GOLDEN_WIDE = {
    ("q12", False, 16, "wal"): (2.0579399619047574, 617, 761, 0, 0,
        "4b5a57bc747ae83a0d18f05496c612556c08f0c9f3a8566d787e207137a19935",
        "2485906cc4d5d5c493f2127188cf8b2e9a049e98b33cd723e4517488f3860786"),
    ("q14", False, 16, "wal"): (2.0962071619047573, 637, 766, 0, 0,
        "df95af3d32692481715627da259353ce00f431d257949d5d62e6d849baf2fdd8",
        "9fa549d3fbc95ff7b588ff25b45b34fc29fb636054889587481c68ccb17482cf"),
    ("q3", True, 4, "spool_s3"): (10.828534780952355, 220, 269, 67, 0,
        "e8fd8b6161a85a8ac1978f2f108d1dcb5dadaa9faff8aadbb038478a766841d7",
        "306e4dbfc7a7274437cc833172ec8831b5c9115f4bbd09c7f144a48ce7b4dc11"),
    ("q3", True, 4, "checkpoint"): (13.122314133333314, 222, 282, 90, 10,
        "31645a00ce2f228acac87f94b8d2f65b1d5d1099b53db743cc3f5fb91f7a3989",
        "0222129d9f041f76b1a2b457bf819dbea013cff17b3a52d21f34d3a2cd8b5a05"),
    ("q1", False, 8, "wal"): (2.4208034285714235, 152, 192, 0, 0,
        "9c2a9f5723f06ab6b35ba31c662f1079ab12948aec9b8c65a1d3aad96986921a",
        "a664d7ad1ca87dc7ab159a2c3f37f253a8233fef5344db9e7a99065090fa139c"),
    ("q1", True, 8, "wal"): (5.724285142857142, 152, 199, 28, 0,
        "a00e2cce0df902c0a6377b6afe5bb357bc46725bf783dc19f6a8968ee64bc869",
        "31814274374584ba2ed94ea1e9bd146f8932f7aeb9ca89ceddceb5517090d155"),
    ("q1", False, 8, "checkpoint"): (2.592536761904757, 152, 192, 0, 0,
        "9c2a9f5723f06ab6b35ba31c662f1079ab12948aec9b8c65a1d3aad96986921a",
        "a664d7ad1ca87dc7ab159a2c3f37f253a8233fef5344db9e7a99065090fa139c"),
    ("q1", True, 8, "checkpoint"): (5.854845142857142, 152, 199, 28, 0,
        "a00e2cce0df902c0a6377b6afe5bb357bc46725bf783dc19f6a8968ee64bc869",
        "31814274374584ba2ed94ea1e9bd146f8932f7aeb9ca89ceddceb5517090d155"),
    ("q6", False, 8, "wal"): (1.935870476190476, 65, 98, 0, 0,
        "54b463a8f999aa3210881b53eb220bd0edc751f23d49c9753370a4cbc652baf8",
        "1246be93dc5932fbcc5abf45b0e5c478ed4b4ee71187b193029bab9ff4364599"),
    ("q6", True, 8, "wal"): (4.752087847619047, 65, 104, 0, 0,
        "5fa6fb818374a1cb020eb05a8b8d33613fcd0097092c60a89fb11fde62699d3f",
        "1246be93dc5932fbcc5abf45b0e5c478ed4b4ee71187b193029bab9ff4364599"),
    ("q6", False, 8, "checkpoint"): (2.098003809523808, 65, 98, 0, 0,
        "54b463a8f999aa3210881b53eb220bd0edc751f23d49c9753370a4cbc652baf8",
        "1246be93dc5932fbcc5abf45b0e5c478ed4b4ee71187b193029bab9ff4364599"),
    ("q6", True, 8, "checkpoint"): (4.874007847619048, 65, 104, 0, 0,
        "5fa6fb818374a1cb020eb05a8b8d33613fcd0097092c60a89fb11fde62699d3f",
        "1246be93dc5932fbcc5abf45b0e5c478ed4b4ee71187b193029bab9ff4364599"),
}


def frame_sha(df: pd.DataFrame) -> str:
    """SHA-256 of a frame's values and index, its column names and dtypes."""
    h = hashlib.sha256(pd.util.hash_pandas_object(df, index=True).to_numpy().tobytes())
    h.update(json.dumps([[str(c), str(t)] for c, t in df.dtypes.items()]).encode())
    return h.hexdigest()


def check(res, journal, golden):
    sim_time, *counts, sha, df_sha = golden
    st = res.stats
    assert res.sim_time == pytest.approx(sim_time, rel=1e-12)
    assert [st[k] for k in ("n_tasks", "gcs_txns", "n_replays", "n_rescans")] == counts
    assert hashlib.sha256(json.dumps(journal).encode()).hexdigest() == sha
    assert frame_sha(res.df) == df_sha


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

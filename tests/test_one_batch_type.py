"""The engine moves one batch type: column batches.

Source tables enter as column batches (``synth_data.split_batches``),
and the one frame a run builds is ``RunResult.df``. Fused maps (scan maps,
join projections, ``derived`` maps) and ``TopK``'s state work on column
arrays. Every task output, delivered slice, inbox entry, backup, spool
entry and client part is a :class:`~repro.engine.util.ColumnBatch` or
``None``, and every operator is fed column batches. The queries cover a
fused scan into a partial aggregation (q1), ``TopK`` (q3), q14's join
projection and q9's ``post_ps``/``post_final``, with and without a
failure, under upstream backup and under spooling, and so does every
other query. Every column of every batch checked is a numpy array.
"""
import sys

import numpy as np
import pandas as pd
import pytest

from repro.engine import operators
from repro.engine.executor import ExecConfig, Executor, Failure
from repro.engine.plan import OpStage
from repro.engine.util import ColumnBatch
from repro.queries.tpch import QUERIES


def _batch_or_none(x, where):
    assert x is None or isinstance(x, ColumnBatch), f"{where}: {type(x).__name__}"
    if x is not None:
        for name, col in zip(x.names, x.cols):
            assert type(col) is np.ndarray, f"{where}: {name!r} is a {type(col).__name__}"


class _Checked(Executor):
    """An executor that checks every batch it moves."""

    def _apply_done(self, now, task):
        for seq, out in task.outputs:
            _batch_or_none(out, f"{task.kind} output {task.cid}/{seq}")
        for dest, u, seq, sl in task.deliveries:
            _batch_or_none(sl, f"{task.kind} delivery {u}/{seq} -> {dest}")
        super()._apply_done(now, task)
        for rt in self.channels.values():
            for u, box in rt.inbox.items():
                for seq, sl in box.items():
                    _batch_or_none(sl, f"inbox of {rt.cid}: {u}/{seq}")

    def held(self):
        """Every batch the run still holds: backups, spool, client parts."""
        for w in self.workers:
            for name, b in w.backups.items():
                yield f"backup {name} on worker {w.wid}", b
        for name, b in self.durable.items():
            yield f"spooled {name}", b
        for key, b in self.client.items():
            yield f"client part {key}", b


@pytest.fixture()
def fed(monkeypatch):
    """Check every ``on_batch`` argument; count the calls per class."""
    calls = {}
    for cls in (operators.SymmetricHashJoin, operators.HashAgg, operators.TopK):
        def wrapped(self, upstream_idx, batch, _orig=cls.on_batch, _name=cls.__name__):
            assert isinstance(batch, ColumnBatch), f"{_name}.on_batch: {type(batch).__name__}"
            calls[_name] = calls.get(_name, 0) + 1
            return _orig(self, upstream_idx, batch)

        monkeypatch.setattr(cls, "on_batch", wrapped)
    return calls


@pytest.fixture()
def built(monkeypatch):
    """Where frames are built: (function, its caller) of every
    ``pd.DataFrame`` constructor call, and the function of every
    ``pd.concat`` call."""
    sites = {"DataFrame": [], "concat": []}
    init, concat = pd.DataFrame.__init__, pd.concat

    def counted_init(self, *args, **kwargs):
        f = sys._getframe(1)
        sites["DataFrame"].append((f.f_code.co_name, f.f_back.f_code.co_name))
        init(self, *args, **kwargs)

    def counted_concat(*args, **kwargs):
        sites["concat"].append(sys._getframe(1).f_code.co_name)
        return concat(*args, **kwargs)

    monkeypatch.setattr(pd.DataFrame, "__init__", counted_init)
    monkeypatch.setattr(pd, "concat", counted_concat)
    return sites


def _only_the_result_frame(built, where):
    """The run built one frame, ``RunResult.df`` (``to_frame`` called by
    ``Executor.run``), and called no ``pd.concat``."""
    assert built["DataFrame"] == [("to_frame", "run")], where
    assert built["concat"] == [], f"{where}: pd.concat was called"
    built["DataFrame"].clear()


def _run(db, tables, qname, ft_mode, failures=()):
    ex = _Checked(QUERIES[qname].plan(db), tables, ExecConfig(n_workers=4, ft_mode=ft_mode))
    res = ex.run(list(failures))
    for where, b in ex.held():
        _batch_or_none(b, where)
    return ex, res


@pytest.mark.parametrize("ft_mode", ["wal", "spool_s3"])
@pytest.mark.parametrize("qname", list(QUERIES))
def test_engine_moves_only_column_batches(db, tables, fed, built, qname, ft_mode):
    ex, res = _run(db, tables, qname, ft_mode)
    _only_the_result_frame(built, f"{qname} normal run")
    assert len(res.df) and ex.client
    held = list(ex.held())
    if ft_mode == "wal":
        assert any(where.startswith("backup") and b is not None for where, b in held)
    else:
        assert any(where.startswith("spooled") and b is not None for where, b in held)
    killed_ex, killed = _run(db, tables, qname, ft_mode, [Failure(1, 0.5 * res.sim_time)])
    _only_the_result_frame(built, f"{qname} killed run")
    assert killed.stats["n_recoveries"] == 1
    assert killed.stats["n_replays"] + killed.stats["n_rescans"] > 0
    assert list(killed.df.columns) == list(res.df.columns)
    want = {"q1": {"HashAgg"}, "q3": {"SymmetricHashJoin", "HashAgg", "TopK"},
            "q14": {"SymmetricHashJoin", "HashAgg"}, "q9": {"SymmetricHashJoin", "HashAgg"}}
    plan_ops = {type(st.make_op()).__name__ for st in QUERIES[qname].plan(db).stages
                if isinstance(st, OpStage)}
    assert set(fed) == want.get(qname, plan_ops)

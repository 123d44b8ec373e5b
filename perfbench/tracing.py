"""Outside-in tracing for the benchmark's traced run.

:func:`install_layers` wraps the public functions of each layer of the
engine from here, so nothing under ``src/`` changes; :meth:`Tracer.remove`
restores the originals. The untraced run installs nothing.

Every wrapped call pushes a frame on one stack. On exit the frame's
duration minus the time of its wrapped children is its *self* time, added
to the layer's total; because each call's duration is charged to its
parent as child time, the self times of all frames inside one
``Executor.run`` sum exactly to that call's duration. Calls that are
recorded as spans carry an id, start, end, parent span id and the id of
the query run they belong to; spans stay in memory until
:meth:`Tracer.write_spans`. The hottest leaf lookups (GCS reads, size
accounting, cost-model arithmetic) are counted and timed but not kept as
spans: there are millions of them per pass.
"""
from __future__ import annotations

import functools
import json
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Optional

#: The span of one query run's execution, whose duration the self times
#: of all frames inside it sum to.
EXECUTOR_RUN = "executor.run"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.run_id = 0
        self._stack: list[list] = []
        self._next_span = 0
        self._in_run = 0
        self._patches: list[tuple[Any, str, Any, bool]] = []
        #: Timeline -> "nic" | "disk", filled as workers are built.
        self.timelines: "weakref.WeakKeyDictionary[Any, str]" = (
            weakref.WeakKeyDictionary()
        )
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.reset()

    def reset(self) -> None:
        """Start a new accumulation window (one pass); spans are kept.
        The dicts are cleared in place: wrappers hold references to them."""
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        #: total self time of every frame inside an ``Executor.run`` call,
        #: and the total duration of those calls: equal by construction.
        self.in_run_self_s = 0.0
        self.run_s = 0.0

    def snapshot(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "in_run_self_s": self.in_run_self_s,
            "run_s": self.run_s,
        }

    # -- frames ---------------------------------------------------------------

    def _enter(self, name: str, span: bool) -> list:
        parent = self._stack[-1][3] if self._stack else 0
        sid = parent
        if span:
            self._next_span += 1
            sid = self._next_span
        if name == EXECUTOR_RUN:
            self._in_run += 1
        frame = [name, 0.0, 0.0, sid, parent, span]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        name, start, child, sid, parent, span = frame
        self._stack.pop()
        dur = end - start
        own = dur - child
        self.self_s[name] += own
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dur
        if self._in_run:
            self.in_run_self_s += own
        if name == EXECUTOR_RUN:
            self._in_run -= 1
            self.run_s += dur
        if span:
            self.spans.append((sid, name, start, end, parent, self.run_id))

    @contextmanager
    def span(self, name: str):
        """A span around a call the benchmark itself makes."""
        frame = self._enter(name, True)
        try:
            yield
        finally:
            self._exit(frame)

    # -- wrappers -------------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        span: bool = True,
        before: Optional[Callable[[tuple], None]] = None,
        after: Optional[Callable[[tuple, Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` (a module global or a class attribute)
        with a timed wrapper. ``before(args)`` and ``after(args, result)``
        record counts outside the timed frame."""
        own = attr in vars(owner)
        orig = getattr(owner, attr)
        enter, exit_ = self._enter, self._exit

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            frame = enter(name, span)
            try:
                out = orig(*args, **kwargs)
            finally:
                exit_(frame)
            if after is not None:
                after(args, out)
            return out

        self._patches.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, wrapper)

    def wrap_fn(self, fn: Callable, name: str) -> Callable:
        """A traced copy of a callable the program builds at run time."""
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(name, True)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)

        return wrapper

    def remove(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, orig, own = self._patches.pop()
            if own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)

    def write_spans(self, path: Path) -> None:
        keys = ("id", "name", "start", "end", "parent", "run")
        with open(path, "w") as fh:
            for s in sorted(self.spans):
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


def install_layers(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the benchmark reports.

    Names that ``executor.py`` imports from other modules (``partition``,
    ``concat_batches``, ``pdf_nbytes``, ``row_nbytes``, ``plan_recovery``)
    are wrapped in the executor's namespace, where it looks them up.
    """
    from repro.core import gcs, wal
    from repro.engine import cluster, executor, operators, simtime
    from repro.engine.plan import ScanStage
    from repro.engine.util import pdf_nbytes
    from repro.queries import tpch

    t = tracer
    c = t.counts

    def op_rows(prefix: str):
        def after(args, out):
            if len(args) == 3:  # on_batch(self, upstream_idx, pdf)
                c[prefix + ".rows_in"] += len(args[2]) if args[2] is not None else 0
            c[prefix + ".rows_out"] += len(out) if out is not None else 0
        return after

    for cls, layer in ((operators.SymmetricHashJoin, "operators.join"),
                       (operators.HashAgg, "operators.agg"),
                       (operators.TopK, "operators.topk")):
        for meth in ("on_batch", "flush"):
            t.wrap(cls, meth, layer, after=op_rows(layer))

    def partitioned(args, out):
        pdf = args[0]
        c["partition.rows"] += len(pdf) if pdf is not None else 0
        c["partition.slices"] += len(out)
        c["partition.empty_slices"] += sum(s is None for s in out)

    t.wrap(executor, "partition", "partition", after=partitioned)
    t.wrap(executor, "concat_batches", "util.concat")
    t.wrap(executor, "pdf_nbytes", "util.nbytes", span=False)
    t.wrap(executor, "row_nbytes", "util.nbytes", span=False)

    def planned(args, plan):
        for st in plan.stages:
            if isinstance(st, ScanStage) and st.map_fn is not None:
                st.map_fn = t.wrap_fn(st.map_fn, "queries.scan_map")

    t.wrap(tpch.Query, "plan", "queries.plan", after=planned)

    def ran(args, res):
        for key in ("n_tasks", "n_replays", "n_rescans"):
            c["executor." + key] += res.stats[key]

    t.wrap(executor.Executor, "run", EXECUTOR_RUN, after=ran)

    def recovery_planned(args, rplan):
        c["recovery.rewound"] += len(rplan.rewound)
        c["recovery.replays_planned"] += len(rplan.replays)
        c["recovery.rescans_planned"] += len(rplan.rescans)

    t.wrap(executor, "plan_recovery", "recovery.plan", after=recovery_planned)

    t.wrap(wal.LineageStore, "commit_task", "wal.commit")
    for meth in ("is_committed", "closed_total", "lineage_len", "lineage",
                 "location", "watermark"):
        t.wrap(wal.LineageStore, meth, "wal.lookup", span=False)

    def txn_ops(args, _):
        c["gcs.ops"] += len(args[1])  # every caller passes a list of ops

    t.wrap(gcs.Gcs, "transaction", "gcs.txn", after=txn_ops)
    t.wrap(gcs.Gcs, "get", "gcs.get", span=False)

    def charged(args, sim_s):
        c["simtime.cpu_s"] += sim_s

    t.wrap(simtime.CostModel, "cpu_time", "simtime.cost", span=False,
           after=charged)
    t.wrap(simtime.CostModel, "scan_time", "simtime.cost", span=False,
           after=charged)

    def reserving(args):
        tl, ready, duration = args
        kind = t.timelines.get(tl, "other")
        c[f"simtime.{kind}_busy_s"] += duration
        c[f"simtime.{kind}_wait_s"] += max(0.0, tl.busy_until - ready)

    t.wrap(simtime.Timeline, "reserve", "simtime.reserve", span=False,
           before=reserving)

    def worker_built(args, _):
        w = args[0]
        t.timelines[w.nic] = "nic"
        t.timelines[w.disk] = "disk"

    t.wrap(cluster.Worker, "__init__", "cluster.worker_init", span=False,
           after=worker_built)

    def backed_up(args, _):
        c["cluster.backup_bytes"] += pdf_nbytes(args[2])

    t.wrap(cluster.Worker, "backup", "cluster.backup", after=backed_up)

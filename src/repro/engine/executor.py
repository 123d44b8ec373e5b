"""Discrete-event executor for the pipelined engine substrate.

Runs a :class:`~repro.engine.plan.Plan` over real batch data on a
simulated cluster (:mod:`repro.engine.cluster`), with simulated time from
:mod:`repro.engine.simtime`. Kernels execute for real; the clock does
not. One :class:`Executor` instance = one query run (single-use).

Execution follows the paper:

* **Algorithm 1** (write-ahead lineage): a task gathers only inputs
  whose lineage is committed in the GCS, executes, pushes slices to
  consumer inboxes, backs the full output up to local NVMe (or spools it
  durably), and then commits {lineage record, output location, channel
  close} in a single GCS transaction. A worker failure between launch
  and completion cancels the task with no commit and no effects.
* **Algorithm 2** (recovery): on a failure event the coordinator detects
  it after ``detect_delay_s``, raises the GCS barrier flag (in-flight
  tasks on live workers drain; no new ones start), prunes dead backup
  locations, runs :func:`repro.core.recovery.plan_recovery`, applies the
  plan (rewound channels on new workers retrace their logged lineage
  exactly; replays/rescans are queued on their assigned workers), and
  resumes. Nested failures simply re-enter this path.

Execution modes (the experiment matrix; DESIGN.md §3):

* ``exec_mode``: ``pipelined`` | ``stagewise`` (a stage's channels may
  not start until every upstream stage has closed — SparkSQL-like).
* ``dep_mode``: ``dynamic`` (consume all available outputs from the
  richest upstream channel, once at least :data:`DYNAMIC_MIN` have
  accumulated) | ``static`` (consume exactly ``static_batch`` outputs,
  waiting for them if necessary).
* ``ft_mode``: ``none`` | ``wal`` | ``spool_s3`` | ``spool_hdfs`` |
  ``checkpoint`` (operator state to S3 every :data:`CKPT_EVERY` tasks).
  With ``none`` there are no backups at all, so a failure degenerates to
  re-executing the whole pipeline — the paper's "restart from scratch"
  baseline, measured rather than assumed.
* ``recovery_mode``: ``pipelined_parallel`` (Quokka: stateful channels
  retrace task-by-task, different stages on different workers) |
  ``data_parallel`` (Spark-sim: a rewound channel recomputes its entire
  logged history as one monolithic task once all inputs are present —
  Spark's task granularity — so lost channels spread across the cluster).

Each worker has :data:`SLOTS_PER_WORKER` task slots; scan stages get one
channel per slot in the cluster, stateful stages one per worker.
"""
from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import pandas as pd

from ..core.gcs import Gcs
from ..core.naming import (
    ChannelId,
    ConsumeLineage,
    FlushLineage,
    LineageRecord,
    ScanLineage,
    TaskName,
)
from ..core.recovery import Replay, Rescan, plan_recovery
from ..core.wal import DURABLE, LineageStore
from .cluster import Worker
from .operators import Operator, _View
from .partition import partition
from .plan import OpStage, Plan, ScanStage
from .simtime import CostModel
from .util import ColumnBatch, concat_batches, pdf_nbytes, row_nbytes

#: Task slots per worker (TaskManager threads of one r6id instance).
SLOTS_PER_WORKER = 2
#: Dynamic mode consumes everything available, but not before this many
#: upstream outputs have accumulated (unless the upstream closed) —
#: models TaskManager poll granularity / "maximize the number of input
#: batches consumed" (paper §IV-A).
DYNAMIC_MIN = 4
#: Checkpoint mode ships a channel's operator state to S3 after every
#: this many of its tasks.
CKPT_EVERY = 4

#: The accepted values of each ExecConfig mode field.
MODES = {
    "exec_mode": ("pipelined", "stagewise"),
    "dep_mode": ("dynamic", "static"),
    "ft_mode": ("none", "wal", "spool_s3", "spool_hdfs", "checkpoint"),
    "recovery_mode": ("pipelined_parallel", "data_parallel"),
}


@dataclass
class ExecConfig:
    n_workers: int = 4
    exec_mode: str = "pipelined"
    dep_mode: str = "dynamic"
    static_batch: int = 8  # read only in static dep_mode
    ft_mode: str = "wal"
    recovery_mode: str = "pipelined_parallel"
    input_batches: int = 16
    cost: CostModel = field(default_factory=CostModel)
    journal_path: Optional[str] = None

    def __post_init__(self) -> None:
        for name, allowed in MODES.items():
            if getattr(self, name) not in allowed:
                raise ValueError(
                    f"{name}={getattr(self, name)!r}; expected one of {allowed}"
                )
        if self.n_workers < 1:
            raise ValueError(f"n_workers={self.n_workers}; need at least 1")
        if self.dep_mode == "static" and self.static_batch < 1:
            raise ValueError(f"static_batch={self.static_batch}; need at least 1")


@dataclass
class Task:
    """One task of any kind, from launch to its completion event. Its
    effects are computed eagerly at launch and applied at completion; a
    failure of ``worker`` in between discards them.

    ``kind`` is ``scan`` | ``stream`` | ``retrace`` (channel tasks) or
    ``replay`` | ``rescan`` (Algorithm 2's recovery tasks). ``outputs``
    are (seq, output) pairs of channel ``cid``; ``records`` holds their
    lineage to commit, one each, and is empty when the lineage is
    already committed (retrace, rescan) or there are no outputs
    (replay). ``close`` is the channel's output total when this task
    closes it. ``deliveries`` are the (dest, producer, seq, slice)
    pushes made at completion.
    """

    kind: str
    cid: ChannelId
    outputs: list[tuple[int, Optional[ColumnBatch]]]
    records: list[LineageRecord] = field(default_factory=list)
    bytes_in: int = 0
    close: Optional[int] = None
    deliveries: list = field(default_factory=list)
    worker: int = -1


@dataclass
class Failure:
    worker: int
    at_time: float


@dataclass
class RunResult:
    df: pd.DataFrame
    sim_time: float
    stats: dict


class ChannelRt:
    """Runtime state of one channel (TaskManager-side view)."""

    def __init__(
        self,
        cid: ChannelId,
        spec,
        worker: int,
        upstream_cids: list[ChannelId],
        uidx: dict[ChannelId, int],
        op: Optional[Operator],
        scan_batches: list[int],
    ) -> None:
        self.cid = cid
        self.spec = spec
        self.worker = worker
        self.upstream_cids = upstream_cids
        self.uidx = uidx
        #: position of each upstream in ``upstream_cids`` (breaks ties)
        self.upos = {u: i for i, u in enumerate(upstream_cids)}
        self.op = op
        self.scan_batches = scan_batches
        self.next_seq = 0
        #: committed lineage to replay exactly, for seq < len(retrace_records)
        self.retrace_records: list[LineageRecord] = []
        self.monolithic = False
        self.watermark: dict[ChannelId, int] = {}
        #: pushed inputs: slices, or whole outputs over a fused edge
        self.inbox: dict[ChannelId, dict[int, Optional[ColumnBatch]]] = {}
        self.active = False
        self.started = False
        self.done = False
        self.exec_count = 0
        #: something a build reads changed since the last build (see
        #: :meth:`Executor._mark`)
        self.dirty = True
        self.reset_runs()

    def reset_runs(self) -> None:
        """Forget every upstream's run, so the next streaming build walks
        them all. Between resets a build walks only ``touched``: the
        upstreams whose inputs, watermark or close changed since the last
        build. ``ready`` maps each upstream whose run qualifies now to
        (-take, position), so the least entry is the richest run, the
        first on a tie; ``open`` holds the upstreams not yet closed and
        drained."""
        self.touched: set[ChannelId] = set(self.upstream_cids)
        self.ready: dict[ChannelId, tuple[int, int]] = {}
        self.open: set[ChannelId] = set(self.upstream_cids)


class Executor:
    def __init__(
        self,
        plan: Plan,
        tables: dict[str, list[ColumnBatch]],
        cfg: ExecConfig,
        store: Optional[LineageStore] = None,
    ) -> None:
        for table in sorted(plan.tables()):
            if table not in tables:
                raise ValueError(
                    f"{plan.name}: a scan reads table {table!r}, which is not "
                    f"among the tables given ({sorted(tables)})"
                )
            for i, batch in enumerate(tables[table]):
                if not isinstance(batch, ColumnBatch):
                    raise TypeError(
                        f"batch {i} of table {table!r} is a {type(batch).__name__}, "
                        "not a ColumnBatch (see synth_data.split_batches)"
                    )
        self.plan = plan
        self.tables = tables
        self.cfg = cfg
        self.cost = cfg.cost
        #: a run of this many inputs qualifies (fewer only once its
        #: upstream is closed and drained); static mode takes exactly this
        self.need = cfg.static_batch if cfg.dep_mode == "static" else DYNAMIC_MIN
        self.store = store or LineageStore(Gcs(cfg.journal_path))
        #: S3/HDFS-sim spooling target: survives any worker failure.
        self.durable: dict[TaskName, Optional[ColumnBatch]] = {}
        self.workers = [Worker(i, SLOTS_PER_WORKER) for i in range(cfg.n_workers)]
        self._ran = False

        # -- instantiate channels ------------------------------------------
        # Stage widths: scans (stateless input readers) use every task
        # slot in the cluster; stateful stages get one channel per worker
        # (one TaskManager per node, paper §IV-A); "aligned" consumers
        # (partial-agg pushdown) inherit their producer's width.
        self.widths: list[int] = []
        for sid, spec in enumerate(plan.stages):
            if spec.n_channels:
                w = spec.n_channels
            elif isinstance(spec, ScanStage):
                w = cfg.n_workers * SLOTS_PER_WORKER
            else:
                w = cfg.n_workers
            if isinstance(spec, OpStage):
                for i, pk in enumerate(spec.partition_keys):
                    if pk == "aligned":
                        w = self.widths[spec.upstreams[i]]
            self.widths.append(w)
        self.channels: dict[ChannelId, ChannelRt] = {}
        for sid, spec in enumerate(plan.stages):
            for ch in range(self.widths[sid]):
                cid = (sid, ch)
                # An "aligned" upstream is a fused pipe: this channel is
                # wired only to its same-index producer, not to every
                # channel of the upstream stage.
                ups: list[ChannelId] = []
                uidx: dict[ChannelId, int] = {}
                if isinstance(spec, OpStage):
                    for i, up in enumerate(spec.upstreams):
                        if spec.partition_keys[i] == "aligned":
                            ups.append((up, ch))
                            uidx[(up, ch)] = i
                        else:
                            for uch in range(self.widths[up]):
                                ups.append((up, uch))
                                uidx[(up, uch)] = i
                worker = ch % cfg.n_workers
                if isinstance(spec, ScanStage):
                    n_batches = len(tables[spec.table])
                    batches = list(range(ch, n_batches, self.widths[sid]))
                    rt = ChannelRt(cid, spec, worker, ups, uidx, None, batches)
                else:
                    rt = ChannelRt(cid, spec, worker, ups, uidx, spec.make_op(), [])
                self.channels[cid] = rt
                self.store.set_assignment(cid, worker)

        # Stages whose consumer edge is "aligned" are fused pipes (scan →
        # partial agg on the same worker): no shuffle crosses the edge, so
        # their outputs are neither backed up nor spooled — recovery
        # re-reads the replayable source instead (fused-operator model).
        self.fused_out: list[bool] = []
        for sid in range(len(plan.stages)):
            cons = plan.consumer_of(sid)
            self.fused_out.append(
                cons is not None
                and plan.stages[cons[0]].partition_keys[cons[1]] == "aligned"
            )

        self.host: dict[int, list[ChannelId]] = {w.wid: [] for w in self.workers}
        for cid, rt in sorted(self.channels.items()):
            self.host[rt.worker].append(cid)
        self._cursor: dict[int, int] = {w.wid: 0 for w in self.workers}
        #: marked channels hosted on each worker (every channel starts marked)
        self.marked: dict[int, int] = {w: len(c) for w, c in self.host.items()}
        #: upstream-stage channels not yet closed, per stage (stagewise gate)
        self.open_ups: list[int] = [
            sum(self.widths[up] for up in spec.upstreams)
            if isinstance(spec, OpStage) else 0
            for spec in plan.stages
        ]

        # -- event machinery -------------------------------------------------
        #: (time, seq, event): a task's completion, a failure, or the
        #: coordinator's "detect"/"recover" step.
        self._heap: list[tuple[float, int, Task | Failure | str]] = []
        self._counter = 0
        self.paused = False
        self.pending_recover = False
        #: recovery tasks waiting for a slot on each worker
        self.queued: dict[int, deque[Replay | Rescan]] = {
            w.wid: deque() for w in self.workers
        }
        self.client: dict[tuple[ChannelId, int], Optional[ColumnBatch]] = {}
        #: committed watermark snapshot taken at each recovery, used by
        #: retracing producers to suppress provably-redundant re-pushes.
        self._wm_snap: dict[ChannelId, dict[ChannelId, int]] = {}
        self.stats = {
            "n_tasks": 0,
            "n_replays": 0,
            "n_rescans": 0,
            "n_recoveries": 0,
            "rewound": [],
            "exec_count": {},
            "spooled_bytes": 0,
        }

    # ------------------------------------------------------------------ events

    def _push(self, t: float, ev: Task | Failure | str) -> None:
        self._counter += 1
        heapq.heappush(self._heap, (t, self._counter, ev))

    @property
    def n_active(self) -> int:
        """Busy slots of live workers; recovery waits for them to drain."""
        return sum(
            SLOTS_PER_WORKER - w.free_slots for w in self.workers if w.alive
        )

    # ------------------------------------------------------------------- run

    def run(self, failures: tuple[Failure, ...] | list[Failure] = ()) -> RunResult:
        if self._ran:
            raise RuntimeError("Executor instances are single-use")
        for f in failures:
            if not 0 <= f.worker < self.cfg.n_workers:
                raise ValueError(
                    f"failure of worker {f.worker}: workers are "
                    f"0..{self.cfg.n_workers - 1}"
                )
        self._ran = True
        for cid, rt in self.channels.items():
            if isinstance(rt.spec, ScanStage) and not rt.scan_batches:
                self.store.close_channel(cid, 0)
                self._apply_close(cid)
                rt.done = True
        for f in failures:
            self._push(f.at_time, f)
        self._schedule_pass(0.0)
        now = 0.0
        while self._heap:
            t, _, ev = heapq.heappop(self._heap)
            now = max(now, t)
            if isinstance(ev, Task):
                # Workers never revive and no task starts on a dead one,
                # so a task whose worker is dead was cancelled by its
                # failure: no commit and no effects.
                if self.workers[ev.worker].alive:
                    self._apply_done(now, ev)
            elif isinstance(ev, Failure):
                self._apply_fail(now, ev.worker)
            elif ev == "detect":
                self._apply_detect(now)
            else:
                self._apply_recover(now)

        not_done = [cid for cid, rt in self.channels.items() if not rt.done]
        if not_done:
            raise RuntimeError(
                f"{self.plan.name}: deadlock, channels not done: {not_done[:8]} "
                f"(of {len(not_done)}); paused={self.paused}"
            )
        merged = concat_batches([self.client[k] for k in sorted(self.client)])
        df = pd.DataFrame() if merged is None else merged.to_frame()
        self.stats["exec_count"] = {
            cid: rt.exec_count for cid, rt in self.channels.items()
        }
        self.stats["gcs_txns"] = self.store.gcs.txn_count
        return RunResult(df=df, sim_time=now, stats=dict(self.stats))

    # -------------------------------------------------------------- scheduling

    def _stage_ready(self, sid: int) -> bool:
        return self.cfg.exec_mode != "stagewise" or self.open_ups[sid] == 0

    def _mark(self, cid: ChannelId) -> None:
        """Let ``cid`` be built again: something its build reads changed
        (a delivery, its own completion, an upstream's close, recovery).
        A clean channel's build would return no task, so it is skipped."""
        rt = self.channels[cid]
        if not rt.dirty:
            rt.dirty = True
            self.marked[rt.worker] += 1

    def _apply_close(self, cid: ChannelId) -> None:
        """Apply the close of ``cid`` to its consumer stage: one fewer open
        upstream channel, and every consumer channel that reads ``cid``
        walks it again. Only those are marked, unless this close opens
        the stage's stagewise gate, which marks the whole stage."""
        cons = self.plan.consumer_of(cid[0])
        if cons is None:
            return
        self.open_ups[cons[0]] -= 1
        gate_opens = self.cfg.exec_mode == "stagewise" and not self.open_ups[cons[0]]
        for ch in range(self.widths[cons[0]]):
            crt = self.channels[(cons[0], ch)]
            if cid in crt.uidx:
                crt.touched.add(cid)
                self._mark(crt.cid)
            elif gate_opens:
                self._mark(crt.cid)

    def _schedule_pass(self, now: float) -> None:
        """Fill the free slots of every live worker: queued recovery
        tasks first, then marked channels round-robin. A worker with
        neither is skipped."""
        if self.paused:
            return
        for w in self.workers:
            if not w.alive:
                continue
            while w.free_slots > 0:
                if self.queued[w.wid]:
                    self._launch_queued(now, w, self.queued[w.wid].popleft())
                    continue
                if not self.marked[w.wid] or not self._launch_some_channel(now, w):
                    break

    def _launch_some_channel(self, now: float, w: Worker) -> bool:
        cids = self.host[w.wid]
        n = len(cids)
        if n == 0:
            return False
        start = self._cursor[w.wid] % n
        for off in range(n):
            cid = cids[(start + off) % n]
            rt = self.channels[cid]
            if not rt.dirty:
                continue
            rt.dirty = False
            self.marked[w.wid] -= 1
            if rt.active or rt.done:
                continue  # its completion, or recovery, marks it again
            task = self._build_task(rt)
            if task is not None:
                self._cursor[w.wid] = (start + off + 1) % n
                self._launch(now, w, rt, task)
                return True
        return False

    # -------------------------------------------------------- task construction

    def _build_task(self, rt: ChannelRt) -> Optional[Task]:
        """Gather inputs and execute the kernel eagerly (effects are held
        in the returned task and applied at the completion event;
        cancellation discards them together with the channel state)."""
        if not self._stage_ready(rt.cid[0]):
            return None
        if isinstance(rt.spec, ScanStage):
            return self._build_scan(rt)
        if rt.next_seq < len(rt.retrace_records):
            return self._build_retrace(rt)
        return self._build_streaming(rt)

    def _scan(self, spec: ScanStage, batch_idx: int):
        """Read one source batch through the fused map: (output, or None
        when empty; bytes read)."""
        raw = self.tables[spec.table][batch_idx]
        out = spec.map_fn(_View.of_batch(raw)) if spec.map_fn else raw
        return (out if len(out) else None), pdf_nbytes(raw)

    def _build_scan(self, rt: ChannelRt) -> Optional[Task]:
        seq, n = rt.next_seq, len(rt.scan_batches)
        if seq >= n:
            return None
        batch_idx = rt.scan_batches[seq]
        out, bytes_in = self._scan(rt.spec, batch_idx)
        return Task(
            "scan",
            rt.cid,
            [(seq, out)],
            [ScanLineage(batch_idx)],
            bytes_in,
            close=n if seq == n - 1 else None,
        )

    @staticmethod
    def _gather(store: LineageStore, rt: ChannelRt, u: ChannelId, start: int, k: int):
        """Consume outputs [start, start+k) of ``u`` into the operator.

        Algorithm 1: a task consumes only outputs whose lineage is
        committed; lineage commits in order, so the last output decides.
        The k batches are concatenated into one kernel call: since a task
        consumes from a single upstream channel, the operator state other
        batches probe against is unchanged within the task, so this is
        output-equivalent to per-batch calls (and is how a real engine
        would hand a morsel set to DuckDB/Polars).
        """
        if not store.is_committed(u, start + k - 1):
            raise RuntimeError(
                f"channel {rt.cid} would consume outputs {start}..{start + k - 1} "
                f"of {u}, whose lineage is not all committed"
            )
        box = rt.inbox.get(u, {})
        parts = [box.pop(s) for s in range(start, start + k)]
        merged = concat_batches(parts)
        bytes_in = pdf_nbytes(merged)
        out = None if merged is None else rt.op.on_batch(rt.uidx[u], merged)
        rt.watermark[u] = start + k
        rt.touched.add(u)
        return out, bytes_in

    def _build_retrace(self, rt: ChannelRt) -> Optional[Task]:
        """Re-execute the next logged record exactly — or, for a
        monolithic (Spark-sim) channel, the whole rest of its log as one
        task — once every input it names is present."""
        recs = rt.retrace_records
        end = len(recs) if rt.monolithic else rt.next_seq + 1
        for rec in recs[rt.next_seq:end]:
            if isinstance(rec, ConsumeLineage):
                box = rt.inbox.get(rec.upstream, {})
                if any((rec.start + j) not in box for j in range(rec.count)):
                    return None
        outputs, bytes_in = [], 0
        for seq in range(rt.next_seq, end):
            rec = recs[seq]
            if isinstance(rec, ConsumeLineage):
                out, b = self._gather(self.store, rt, rec.upstream, rec.start, rec.count)
                bytes_in += b
            elif isinstance(rec, FlushLineage):
                out = rt.op.flush()
            else:  # pragma: no cover - scan channels are never rewound
                raise AssertionError(rec)
            outputs.append((seq, out))
        return Task("retrace", rt.cid, outputs, bytes_in=bytes_in)

    def _build_streaming(self, rt: ChannelRt) -> Optional[Task]:
        """Take one upstream's run of inputs, or flush. Only the upstreams
        touched since the last build are walked again (see
        :meth:`ChannelRt.reset_runs`). An empty-slice prefix at a
        watermark is skipped without a task: a real engine does not push
        empty shuffle partitions, and consuming one leaves the operator
        state as it was, so it needs no lineage. A run is taken when it
        holds ``need`` inputs or all that its closed upstream has left, up
        to ``cap``; the richest run wins, the first in ``upstream_cids``
        on a tie. Once every upstream is closed and drained, it flushes."""
        need = self.need
        cap = need if self.cfg.dep_mode == "static" else None
        for u in rt.touched:
            box = rt.inbox.get(u, {})
            w = w0 = rt.watermark.get(u, 0)
            while w in box and box[w] is None:
                del box[w]
                w += 1
            if w != w0:
                rt.watermark[u] = w
            avail = 0
            while (w + avail) in box:
                avail += 1
            if avail < need and u in rt.open:
                # Only a close lets a short run qualify. A run that
                # qualifies anyway is revisited after it is taken, so
                # ``open`` is exact whenever ``ready`` is empty.
                closed = self.store.closed_total(u)
                if closed is not None and w + avail >= closed:
                    rt.open.discard(u)
            # a drained upstream's run is all it has left
            if avail >= need or (avail and u not in rt.open):
                take = avail if cap is None else min(avail, cap)
                rt.ready[u] = (-take, rt.upos[u])
            else:
                rt.ready.pop(u, None)
        rt.touched.clear()

        if rt.ready:
            u = min(rt.ready, key=rt.ready.__getitem__)
            start, take = rt.watermark.get(u, 0), -rt.ready[u][0]
            out, bytes_in = self._gather(self.store, rt, u, start, take)
            return Task(
                "stream",
                rt.cid,
                [(rt.next_seq, out)],
                [ConsumeLineage(u, start, take)],
                bytes_in,
            )
        if not rt.open:
            # Every upstream output consumed: emit the state variable.
            # The flush task closes the channel when it commits, and the
            # channel is active until then, so it is never built again.
            out = rt.op.flush()
            return Task(
                "stream",
                rt.cid,
                [(rt.next_seq, out)],
                [FlushLineage()],
                close=rt.next_seq + 1,
            )
        return None

    # ------------------------------------------------------------------ launch

    def _deliveries_for(self, cid: ChannelId, seq: int, out):
        """(dest, producer, seq, slice) tuples for one output, partitioned
        by the consumer stage's keys. A fused (aligned) producer delivers
        its whole output only to its twin channel."""
        cons = self.plan.consumer_of(cid[0])
        if cons is None:
            return []
        cstage, uidx = cons
        if self.fused_out[cid[0]]:
            return [((cstage, cid[1]), cid, seq, out)]
        keys = self.plan.stages[cstage].partition_keys[uidx]
        slices = partition(out, keys, self.widths[cstage])
        return [((cstage, ch), cid, seq, sl) for ch, sl in enumerate(slices)]

    def _launch(self, now: float, w: Worker, rt: ChannelRt, task: Task) -> None:
        cfg, cost = self.cfg, self.cost
        sid = rt.cid[0]
        rt.next_seq += len(task.outputs)
        rt.active = True
        w.free_slots -= 1

        retrace = task.kind == "retrace"
        bytes_out = 0
        remote_bytes = 0
        remote_slices = 0
        for seq, out in task.outputs:
            rows = len(out) if out is not None else 0
            rowb = row_nbytes(out) if rows else 0
            bytes_out += rowb * rows
            for dest, u, s, sl in self._deliveries_for(rt.cid, seq, out):
                drt = self.channels[dest]
                if retrace and not drt.retrace_records:
                    # A retracing producer consults the consumers'
                    # *committed* watermarks in the GCS and skips
                    # re-transmitting outputs they provably consumed.
                    if self._wm_snap.get(dest, {}).get(u, 0) > s:
                        continue
                task.deliveries.append((dest, u, s, sl))
                if drt.worker != w.wid and sl is not None:
                    remote_bytes += rowb * len(sl)
                    remote_slices += 1

        t = now + cost.task_overhead_s
        if not rt.started and cfg.exec_mode == "stagewise":
            t += cost.stage_sched_s
        rt.started = True
        if task.kind == "scan":
            t += cost.scan_time(task.bytes_in)
        else:
            t += cost.cpu_time(task.bytes_in, bytes_out)
            if cfg.exec_mode == "stagewise" and task.bytes_in:
                # Blocking engines materialise shuffle data: consumers
                # re-read spilled partitions from disk (Spark's shuffle
                # fetch); pipelined push engines hand batches RAM-to-RAM.
                t = w.disk.reserve(t, cost.disk_time(task.bytes_in))
        if remote_bytes or remote_slices:
            t = w.nic.reserve(
                t, cost.net_time(remote_bytes) + cost.push_lat_s * remote_slices
            )
        ft = cfg.ft_mode
        fused = self.fused_out[sid]
        if ft in ("wal", "checkpoint"):
            if bytes_out and not fused:
                t = w.disk.reserve(t, cost.disk_time(bytes_out))
            t += cost.gcs_txn_s
        elif ft in ("spool_s3", "spool_hdfs"):
            kind = "s3" if ft == "spool_s3" else "hdfs"
            dur = 0.0
            if not fused:
                dur = sum(
                    cost.durable_time(pdf_nbytes(out), kind)
                    for seq, out in task.outputs
                    if not (retrace and (sid, rt.cid[1], seq) in self.durable)
                )
            if dur:
                t = w.nic.reserve(t, dur)
            t += cost.gcs_txn_s
        if ft == "checkpoint" and rt.op is not None:
            last_seq = task.outputs[-1][0]
            if (last_seq + 1) % CKPT_EVERY == 0:
                t = w.nic.reserve(t, cost.durable_time(rt.op.state_nbytes(), "s3"))

        task.worker = w.wid
        self._push(t, task)

    def _launch_queued(self, now: float, w: Worker, item: Replay | Rescan) -> None:
        cost = self.cost
        w.free_slots -= 1
        t = now + cost.task_overhead_s
        if isinstance(item, Replay):
            source, dest = item.source, item.dest
            owner_loc = self.store.location(source)
            if owner_loc == DURABLE:
                full = self.durable[source]
            else:
                # The planner only schedules replays whose backup location
                # is a live worker; a missing key here is a protocol bug.
                full = w.backups[source]
            cid = (source[0], source[1])
            (delivery,) = [
                d for d in self._deliveries_for(cid, source[2], full) if d[0] == dest
            ]
            sl = delivery[3]
            nbytes = sl.nbytes if sl is not None else 0
            # Upstream backups are stored pre-partitioned (as Spark's map
            # outputs are), so a replay reads and ships only the slice
            # the rewound consumer needs.
            if owner_loc == DURABLE:
                t = w.nic.reserve(t, cost.s3_lat_s + cost.net_time(nbytes))
            else:
                t = w.disk.reserve(t, cost.disk_time(nbytes))
                dw = self.channels[dest].worker
                if dw != w.wid and sl is not None:
                    t = w.nic.reserve(t, cost.net_time(nbytes) + cost.push_lat_s)
            task = Task("replay", cid, [], deliveries=[delivery])
        else:
            name = item.name
            cid = (name[0], name[1])
            out, bytes_in = self._scan(self.plan.stages[name[0]], item.batch_idx)
            t += cost.scan_time(bytes_in)
            if (
                self.cfg.ft_mode in ("wal", "checkpoint")
                and out is not None
                and not self.fused_out[name[0]]
            ):
                t = w.disk.reserve(t, cost.disk_time(pdf_nbytes(out)))
            # Consumers dedupe, so a rescan re-pushes to all of them.
            deliveries = self._deliveries_for(cid, name[2], out)
            task = Task("rescan", cid, [(name[2], out)], deliveries=deliveries)
        task.worker = w.wid
        self._push(t, task)

    # ------------------------------------------------------------------- apply

    def _deliver(self, dest: ChannelId, u: ChannelId, seq: int, sl, kind: str) -> None:
        """Store output ``seq`` of ``u``, pushed by a ``kind`` task, in
        ``dest``'s inbox, and mark ``dest`` if its next build may take
        something. A scan or stream output can do that only by making the
        run at the watermark reach ``need``: it arrives in order, and its
        upstream's close marks through :meth:`_apply_close`. So an empty
        slice at the watermark is skipped here, as the build would skip
        it. A recovery task's output, or any output for a retracing
        channel, always marks."""
        drt = self.channels[dest]
        if not self.workers[drt.worker].alive:
            return
        if drt.watermark.get(u, 0) > seq:
            return  # already consumed (re-transmission after recovery)
        box = drt.inbox.setdefault(u, {})
        if seq in box:
            return
        box[seq] = sl
        drt.touched.add(u)
        if kind in ("scan", "stream") and not drt.retrace_records:
            w = drt.watermark.get(u, 0)
            while box.get(w, 0) is None:
                del box[w]
                w += 1
            drt.watermark[u] = w
            if any((w + i) not in box for i in range(self.need)):
                return
        self._mark(dest)

    def _persist(self, wid: int, name: TaskName, out) -> Optional[int | str]:
        """Back up (``wal``/``checkpoint``) or spool one output and return
        its location; None when ``ft_mode`` is ``none``."""
        if self.fused_out[name[0]]:
            return "fused"  # intra-channel pipe: nothing persisted
        ft = self.cfg.ft_mode
        if ft in ("wal", "checkpoint"):
            self.workers[wid].backup(name, out)
            return wid
        if ft in ("spool_s3", "spool_hdfs"):
            if name not in self.durable:
                self.durable[name] = out
                self.stats["spooled_bytes"] += pdf_nbytes(out)
            return DURABLE
        return None

    def _apply_done(self, now: float, task: Task) -> None:
        wid, cid = task.worker, task.cid
        # Backup / spool, then commit, then deliver: consumers only ever
        # see outputs whose lineage is committed (the core invariant).
        for i, (seq, out) in enumerate(task.outputs):
            name: TaskName = (cid[0], cid[1], seq)
            loc = self._persist(wid, name, out)
            if task.records:
                close = task.close if i == len(task.outputs) - 1 else None
                self.store.commit_task(
                    cid, seq, task.records[i], loc if loc is not None else "none", close
                )
            elif loc is not None and (task.kind == "retrace" or loc == wid):
                # A retrace re-records every location; a rescan only a
                # fresh local backup (a fused output's stays "fused").
                self.store.set_location(name, loc)
            if cid[0] == self.plan.final_stage:
                self.client.setdefault((cid, seq), out)
        for dest, u, seq, sl in task.deliveries:
            self._deliver(dest, u, seq, sl, task.kind)
        if task.kind in ("replay", "rescan"):
            self.stats[f"n_{task.kind}s"] += 1
        else:
            rt = self.channels[cid]
            rt.active = False
            rt.exec_count += 1
            self.stats["n_tasks"] += 1
            self._mark(cid)
            retrace = task.kind == "retrace"
            if retrace and rt.next_seq >= len(rt.retrace_records):
                rt.retrace_records = []
                rt.monolithic = False
            # A retrace never closes (its close is already committed) and
            # no other task runs on a closed channel.
            if task.close is not None or (
                retrace
                and not rt.retrace_records
                and self.store.closed_total(cid) is not None
            ):
                rt.done = True
            if task.close is not None:
                self._apply_close(cid)
        self.workers[wid].free_slots += 1
        if self.paused:
            if self.n_active == 0 and self.pending_recover:
                self.pending_recover = False
                self._push(now, "recover")
        else:
            self._schedule_pass(now)

    # ----------------------------------------------------------------- failure

    def _apply_fail(self, now: float, wid: int) -> None:
        w = self.workers[wid]
        if not w.alive:
            return
        if all(rt.done for rt in self.channels.values()):
            return  # query already complete; nothing to recover
        w.kill()
        self.queued[wid].clear()
        for cid in self.host[wid]:
            rt = self.channels[cid]
            rt.active = False
            rt.inbox.clear()
        self._push(now + self.cost.detect_delay_s, "detect")

    def _apply_detect(self, now: float) -> None:
        # Coordinator raises the GCS barrier: TaskManagers stop starting
        # tasks; in-flight tasks on live workers drain (their commits are
        # atomic, so letting them finish is safe).
        self.paused = True
        self.store.set_recovery_flag(True)
        if self.n_active == 0:
            self._push(now, "recover")
        else:
            self.pending_recover = True

    def _apply_recover(self, now: float) -> None:
        if self.n_active > 0:  # a nested failure re-queued us early
            self.pending_recover = True
            return
        self.stats["n_recoveries"] += 1
        live = [w.wid for w in self.workers if w.alive]
        dead = {w.wid for w in self.workers if not w.alive}
        self.store.prune_locations(dead)
        self._wm_snap = {
            cid: self.store.watermark(cid) for cid in self.channels
        }
        # Mid-retrace survivors need their outstanding inputs re-planned
        # too (a prior recovery's replay tasks may have died with this
        # worker); the planner treats them as destinations without
        # re-rewinding them.
        extra_dests = frozenset(
            cid
            for cid, rt in self.channels.items()
            if rt.next_seq < len(rt.retrace_records)
            and self.workers[rt.worker].alive
        )
        rplan = plan_recovery(
            self.store,
            upstream_channels={
                cid: rt.upstream_cids for cid, rt in self.channels.items()
            },
            input_stages=self.plan.input_stages(),
            dead_workers=dead,
            live_workers=live,
            extra_dests=extra_dests,
        )
        self.stats["rewound"].append(list(rplan.rewound))

        for cid in rplan.rewound:
            rt = self.channels[cid]
            self._rehome(cid, rplan.new_assignments[cid])
            rt.op = self.plan.stages[cid[0]].make_op()
            rt.next_seq = 0
            rt.retrace_records = self.store.lineage(cid)
            rt.monolithic = self.cfg.recovery_mode == "data_parallel"
            rt.watermark = {}
            rt.inbox = {}
            rt.active = False
            rt.done = False
        for cid in rplan.rewound_inputs:
            rt = self.channels[cid]
            self._rehome(cid, rplan.new_assignments[cid])
            # Committed scans are re-run data-parallel (rescans); the
            # channel itself resumes at its next un-scanned batch.
            rt.next_seq = self.store.lineage_len(cid)
            rt.active = False
            rt.done = (
                self.store.closed_total(cid) is not None
                and rt.next_seq >= len(rt.scan_batches)
            )
        for r in rplan.rescans:
            self.queued[r.worker].append(r)
        for r in rplan.replays:
            wid = self.channels[r.dest].worker if r.owner == DURABLE else r.owner
            self.queued[wid].append(r)
        for cid, rt in self.channels.items():
            rt.reset_runs()
            self._mark(cid)
        self.paused = False
        self.store.set_recovery_flag(False)
        self._schedule_pass(now)

    def _rehome(self, cid: ChannelId, new_worker: int) -> None:
        rt = self.channels[cid]
        if cid in self.host[rt.worker]:
            self.host[rt.worker].remove(cid)
        if rt.dirty:
            self.marked[rt.worker] -= 1
            self.marked[new_worker] += 1
        rt.worker = new_worker
        self.host[new_worker].append(cid)
        self.store.set_assignment(cid, new_worker)

"""Failure recovery planner (paper §III-B, §IV-C, Algorithm 2).

Pure function from GCS state + channel wiring + failed workers to a
:class:`RecoveryPlan`. Following the paper's Kubernetes-style
*reconciliation* design, the coordinator never talks to TaskManagers: it
only rewrites GCS state (assignments, task queues) plus a list of replay
/ re-scan tasks; TaskManagers then act on the new state. Keeping the
planner pure makes Algorithm 2 unit-testable on synthetic lineage.

Planned actions:

* **rewound** stateful channels restart at seq 0 on a *new* live worker
  and must retrace their committed lineage exactly. Channels from
  different stages are assigned round-robin to different workers —
  pipelined-parallel recovery (recovery parallelism ∝ number of stages).
* **rescans** re-run lost *input* tasks (replayable cloud storage), and
  are spread data-parallel over all live workers, like Spark ("if stage
  is input, add input task to any node").
* **replays** re-push a surviving backed-up output's slice from its
  owner worker (or the durable store, when spooling) to a rewound
  consumer ("if exists, add replay task to the owner worker").
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .naming import ChannelId, ScanLineage, TaskName
from .wal import DURABLE, LineageStore


@dataclass(frozen=True)
class Replay:
    """Re-push output ``source``'s slice for channel ``dest`` from ``owner``."""

    owner: int | str  # worker id, or wal.DURABLE
    source: TaskName
    dest: ChannelId


@dataclass(frozen=True)
class Rescan:
    """Re-run lost input task ``name`` (source batch ``batch_idx``) on
    ``worker``; its output is re-pushed to *all* consumers (they dedupe)."""

    name: TaskName
    batch_idx: int
    worker: int


@dataclass
class RecoveryPlan:
    rewound: list[ChannelId] = field(default_factory=list)  # stateful, retrace
    rewound_inputs: list[ChannelId] = field(default_factory=list)
    new_assignments: dict[ChannelId, int] = field(default_factory=dict)
    replays: list[Replay] = field(default_factory=list)
    rescans: list[Rescan] = field(default_factory=list)


def plan_recovery(
    store: LineageStore,
    *,
    upstream_channels: dict[ChannelId, list[ChannelId]],
    input_stages: set[int],
    dead_workers: set[int],
    live_workers: list[int],
    extra_dests: frozenset[ChannelId] | set[ChannelId] = frozenset(),
) -> RecoveryPlan:
    """Algorithm 2. ``store`` is read; the caller applies the plan.

    ``upstream_channels``: every channel of the plan, mapped to the
    upstream channels it is wired to (empty for input channels; a fused
    "aligned" consumer lists only its twin producer).

    ``extra_dests``: surviving channels that are mid-retrace from a
    *previous* recovery (nested failures) — they are not re-rewound, but
    their outstanding input needs are re-planned exactly like a rewound
    channel's (the replay tasks feeding them may have died too).
    """
    if not live_workers:
        raise RuntimeError("no live workers left; query cannot be recovered")

    live = set(live_workers)
    assignments = store.assignments()
    # A := channels with outstanding tasks on failed workers (paper: "the
    # set of all tasks assigned to the failed worker"). Channels that had
    # already closed have no tasks to lose; they are rewound only if the
    # needed-inputs cascade below discovers their outputs are both lost
    # and still required.
    rewound: set[ChannelId] = {
        cid
        for cid, w in assignments.items()
        if w in dead_workers and store.closed_total(cid) is None
    }

    replays: dict[tuple[TaskName, ChannelId], Replay] = {}
    rescans: dict[TaskName, Rescan] = {}
    rr = 0  # round-robin cursor for data-parallel rescan placement

    # Reverse topological order: stage ids are topo-ordered by construction,
    # so descending stage order visits consumers before their producers,
    # letting the rewind set grow downward (a single pass reaches the
    # fixpoint). Channels ascend within a stage, which fixes the
    # round-robin placement of rescans.
    for cid in sorted(upstream_channels, key=lambda c: (-c[0], c[1])):
        if (cid not in rewound and cid not in extra_dests) or (
            cid[0] in input_stages
        ):
            continue
        # Required inputs: every committed output of every upstream
        # channel this one is wired to (the rewound channel retraces its
        # whole history and keeps any surplus for its post-retrace
        # dynamic continuation).
        for u in upstream_channels[cid]:
            up_stage = u[0]
            if u in rewound and up_stage not in input_stages:
                continue  # u re-executes and re-pushes everything
            lineage = store.lineage(u)
            for seq in range(len(lineage)):
                name = (u[0], u[1], seq)
                loc = store.location(name)
                alive = loc == DURABLE or loc in live
                if loc is not None and alive:
                    replays[(name, cid)] = Replay(loc, name, cid)
                elif up_stage in input_stages:
                    rec = lineage[seq]
                    assert isinstance(rec, ScanLineage)
                    w = live_workers[rr % len(live_workers)]
                    rr += 1
                    rescans[name] = Rescan(name, rec.batch_idx, w)
                else:
                    rewound.add(u)  # recurse: reproduced later this pass

    # Dead input channels: committed scans whose output has no surviving
    # copy (local backup or durable spool) become data-parallel rescans;
    # only their *future* scans need a (re)assigned home.
    for cid in sorted(rewound):
        if cid[0] in input_stages:
            for seq, rec in enumerate(store.lineage(cid)):
                name = (cid[0], cid[1], seq)
                if name in rescans:
                    continue
                loc = store.location(name)
                if loc == DURABLE or loc in live:
                    continue  # replayable from a surviving copy
                assert isinstance(rec, ScanLineage)
                w = live_workers[rr % len(live_workers)]
                rr += 1
                rescans[name] = Rescan(name, rec.batch_idx, w)

    # A rescan feeds every consumer, so per-dest replays of it are redundant.
    replays = {
        k: v for k, v in replays.items() if v.source not in rescans
    }

    plan = RecoveryPlan()
    plan.rewound_inputs = sorted(c for c in rewound if c[0] in input_stages)
    plan.rewound = sorted(c for c in rewound if c[0] not in input_stages)
    # Pipelined-parallel placement: iterate stage-major so consecutive
    # stages land on different workers; live workers get at most
    # ceil(|rewound|/|live|) sequential retraces each.
    for i, cid in enumerate(plan.rewound + plan.rewound_inputs):
        plan.new_assignments[cid] = live_workers[i % len(live_workers)]
    plan.replays = sorted(
        replays.values(), key=lambda r: (r.source, r.dest)
    )
    plan.rescans = sorted(rescans.values(), key=lambda r: r.name)
    return plan

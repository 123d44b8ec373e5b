"""Write-ahead lineage bookkeeping (paper §III, Algorithm 1).

:class:`LineageStore` is the typed facade the engine uses over the raw
:class:`~repro.core.gcs.Gcs`. It enforces the two protocol rules:

1. **Write-ahead commit**: a task's lineage record, its output's backup
   location, the task-queue advance, and (when the channel finishes) the
   channel-closed marker are committed in a *single* GCS transaction, and
   only *after* the task has executed, pushed its output downstream, and
   backed it up — Algorithm 1's ordering. Until that transaction commits,
   downstream tasks will not consume the output.
2. **Consume-only-committed**: :meth:`is_committed` is the check every
   consumer performs before taking an input (the engine calls it when
   gathering available inputs).

Namespaces used in the GCS:

* ``lineage``  — channel → append-only list of encoded lineage records
  (index = task seq).
* ``closed``   — channel → total number of outputs it produced.
* ``loc``      — task/output name → worker id holding its upstream
  backup, or ``"durable"`` when spooled to the durable store.
* ``assign``   — channel → worker currently hosting it.
* ``flag``     — coordinator control flags (recovery barrier).
"""
from __future__ import annotations

from typing import Optional

from .gcs import Gcs
from .naming import (
    ChannelId,
    ConsumeLineage,
    LineageRecord,
    TaskName,
    decode_channel,
    encode_channel,
    encode_record,
    encode_task,
    decode_record,
)

DURABLE = "durable"  # location sentinel: output spooled to durable storage


class LineageStore:
    """Typed write-ahead-lineage operations over a :class:`Gcs`."""

    def __init__(self, gcs: Optional[Gcs] = None) -> None:
        self.gcs = gcs if gcs is not None else Gcs()

    # -- Algorithm 1: the single commit transaction --------------------------

    def commit_task(
        self,
        cid: ChannelId,
        seq: int,
        record: LineageRecord,
        location: int | str,
        close_total: Optional[int] = None,
    ) -> None:
        """Commit one executed task: lineage + backup location (+ close).

        Raises if ``seq`` is not the next sequence number for the channel
        — lineage is strictly append-only and in order, which is what
        makes the two-integer lineage encoding sufficient.
        """
        if seq != self.lineage_len(cid):
            raise ValueError(
                f"out-of-order lineage commit for {cid}: seq {seq}, "
                f"expected {self.lineage_len(cid)}"
            )
        ops = [
            ["append", "lineage", encode_channel(cid), encode_record(record)],
            ["set", "loc", encode_task((cid[0], cid[1], seq)), location],
        ]
        if close_total is not None:
            ops.append(["set", "closed", encode_channel(cid), int(close_total)])
        self.gcs.transaction(ops)

    def close_channel(self, cid: ChannelId, total: int) -> None:
        """Close a channel outside a task commit (one with no outputs)."""
        self.gcs.set("closed", encode_channel(cid), int(total))

    # -- reads ---------------------------------------------------------------

    def lineage(self, cid: ChannelId) -> list[LineageRecord]:
        raw = self.gcs.get("lineage", encode_channel(cid), [])
        return [decode_record(r) for r in raw]

    def lineage_len(self, cid: ChannelId) -> int:
        return len(self.gcs.get("lineage", encode_channel(cid), []))

    def is_committed(self, cid: ChannelId, seq: int) -> bool:
        """The consume-side check of Algorithm 1: lineage persisted?"""
        return seq < self.lineage_len(cid)

    def closed_total(self, cid: ChannelId) -> Optional[int]:
        return self.gcs.get("closed", encode_channel(cid))

    def watermark(self, cid: ChannelId) -> dict[ChannelId, int]:
        """Outputs consumed so far per upstream channel (paper's input
        vector ``B``) — derived purely from committed lineage, so it is
        exactly what recovery reconstructs after a failure."""
        wm: dict[ChannelId, int] = {}
        for rec in self.lineage(cid):
            if isinstance(rec, ConsumeLineage):
                wm[rec.upstream] = max(wm.get(rec.upstream, 0), rec.start + rec.count)
        return wm

    def all_lineage(self) -> dict[ChannelId, list[LineageRecord]]:
        return {
            decode_channel(k): [decode_record(r) for r in v]
            for k, v in self.gcs.table("lineage").items()
        }

    # -- output locations (upstream backup registry) -------------------------

    def location(self, name: TaskName) -> Optional[int | str]:
        return self.gcs.get("loc", encode_task(name))

    def set_location(self, name: TaskName, worker: int | str) -> None:
        self.gcs.set("loc", encode_task(name), worker)

    def prune_locations(self, dead_workers: set[int]) -> None:
        """Forget backups that lived on failed workers (their NVMe is gone)."""
        ops = [
            ["del", "loc", k]
            for k, v in self.gcs.table("loc").items()
            if v in dead_workers
        ]
        if ops:
            self.gcs.transaction(ops)

    # -- channel→worker assignments ------------------------------------------

    def set_assignment(self, cid: ChannelId, worker: int) -> None:
        self.gcs.set("assign", encode_channel(cid), worker)

    def assignments(self) -> dict[ChannelId, int]:
        return {decode_channel(k): v for k, v in self.gcs.table("assign").items()}

    # -- coordinator control flag ---------------------------------------------

    def set_recovery_flag(self, value: bool) -> None:
        self.gcs.set("flag", "recovery", bool(value))

    def recovery_flag(self) -> bool:
        return bool(self.gcs.get("flag", "recovery", False))

"""Cluster substrate: workers and their local NVMe.

A :class:`Worker` models one cloud instance: task slots (TaskManager
threads), a NIC and an NVMe disk (shared :class:`Timeline` s), a local
backup store for task outputs (upstream backup — lost when the worker
dies), and the inboxes of the channels it hosts live in the executor's
channel runtimes. :meth:`Worker.kill` implements the paper's fault model
(spot pre-emption / pod eviction): all RAM *and* instance-attached disk
contents vanish; only data in the durable store (the executor's
spooling target) or the GCS survives.
"""
from __future__ import annotations

from typing import Optional

from ..core.naming import TaskName
from .simtime import Timeline
from .util import ColumnBatch


class Worker:
    def __init__(self, wid: int, slots: int) -> None:
        self.wid = wid
        self.free_slots = slots
        self.alive = True
        self.nic = Timeline()
        self.disk = Timeline()
        #: upstream backup: full task outputs on instance-attached NVMe.
        self.backups: dict[TaskName, Optional[ColumnBatch]] = {}

    def backup(self, name: TaskName, out: Optional[ColumnBatch]) -> None:
        self.backups[name] = out

    def kill(self) -> None:
        """Spot pre-emption: lose RAM, local disk, and all task slots."""
        self.alive = False
        self.backups.clear()
        self.free_slots = 0


"""Logical plans for the pipelined engine.

A plan is a topologically-ordered list of stages (stage id = list
index). Scan stages read a named table's replayable batch list; operator
stages consume one or more upstream stages through a hash partitioning
of each upstream's output (the shuffle). Every stage has exactly one
consumer (the reproduced queries are single join trees — the paper picks
them for the same reason), and the last stage's outputs are the query
result, collected by the client with committed-lineage dedupe.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .operators import Operator, _View
from .util import ColumnBatch


@dataclass
class ScanStage:
    """Input readers over replayable storage (stateless; recoverable
    data-parallel on any node). ``map_fn`` is the fused filter/project: it
    reads a :class:`~repro.engine.operators._View` of the source batch's
    columns and returns the output batch."""

    table: str
    map_fn: Optional[Callable[[_View], ColumnBatch]] = None
    upstreams: list[int] = field(default_factory=list)
    n_channels: Optional[int] = None  # None -> cluster width


@dataclass
class OpStage:
    """A stateful stage: one fresh ``Operator`` per channel.

    ``partition_keys[i]`` are the columns of upstream ``upstreams[i]``'s
    output by which that upstream's outputs are hash-routed to this
    stage's channels (empty list = gather to channel 0). The sentinel
    string ``"aligned"`` routes producer channel c's output to consumer
    channel c with no shuffle — used for partial-aggregation pushdown,
    where the partial agg runs on the same worker as its scan.
    """

    make_op: Callable[[], Operator]
    upstreams: list[int]
    partition_keys: list[list[str] | str]
    n_channels: Optional[int] = None


Stage = ScanStage | OpStage


@dataclass
class Plan:
    """A validated query plan. ``name`` labels harness output."""

    name: str
    stages: list[Stage]

    def __post_init__(self) -> None:
        consumers: dict[int, tuple[int, int]] = {}
        for sid, st in enumerate(self.stages):
            for idx, up in enumerate(st.upstreams):
                if not 0 <= up < sid:
                    raise ValueError(
                        f"{self.name}: stage {sid} upstream {up} is not "
                        "topologically earlier"
                    )
                if up in consumers:
                    raise ValueError(
                        f"{self.name}: stage {up} has two consumers "
                        f"({consumers[up][0]} and {sid}); plans must be trees"
                    )
                consumers[up] = (sid, idx)
            if isinstance(st, OpStage) and len(st.partition_keys) != len(
                st.upstreams
            ):
                raise ValueError(
                    f"{self.name}: stage {sid} needs one key list per upstream"
                )
        last = len(self.stages) - 1
        for sid in range(last):
            if sid not in consumers:
                raise ValueError(f"{self.name}: stage {sid} output is unused")
        if last in consumers:
            raise ValueError(f"{self.name}: final stage must have no consumer")
        self._consumers = consumers

    @property
    def final_stage(self) -> int:
        return len(self.stages) - 1

    def consumer_of(self, stage: int) -> Optional[tuple[int, int]]:
        """(consumer stage id, upstream index within it) or None (final)."""
        return self._consumers.get(stage)

    def input_stages(self) -> set[int]:
        return {i for i, s in enumerate(self.stages) if isinstance(s, ScanStage)}

    def tables(self) -> set[str]:
        return {s.table for s in self.stages if isinstance(s, ScanStage)}

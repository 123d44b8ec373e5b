"""Offline check of Algorithm 1 over a GCS journal.

:func:`audit_journal` replays the journal's transactions in order and
reports every place where a consumer's committed lineage breaks the
write-ahead-lineage protocol. It reads nothing but the journal, so it
checks what a recovering coordinator would see.
"""
from __future__ import annotations

from repro.core.naming import ConsumeLineage, decode_channel, decode_record


def audit_journal(journal: list[list[list]]) -> list[str]:
    """Violations of Algorithm 1 in ``journal``; empty when it is clean.

    * Every ``ConsumeLineage`` range was committed upstream before the
      transaction that commits the consumer's record.
    * Each (consumer, upstream) range starts at or after the end of the
      previous one (watermarks may skip empty slices, so gaps are fine).
    * No range ends past the upstream's closed total.
    """
    violations: list[str] = []
    committed: dict = {}  # channel -> lineage records committed so far
    closed: dict = {}  # channel -> closed total
    ends: dict = {}  # (consumer, upstream) -> end of the latest range
    for n, txn in enumerate(journal):
        appends = [op for op in txn if op[0] == "append" and op[1] == "lineage"]
        for _, _, key, raw in appends:
            rec = decode_record(raw)
            if not isinstance(rec, ConsumeLineage):
                continue
            cid, u = decode_channel(key), rec.upstream
            end = rec.start + rec.count
            if committed.get(u, 0) < end:
                violations.append(
                    f"txn {n}: {cid} consumes {u}[{rec.start}:{end}] with only "
                    f"{committed.get(u, 0)} committed"
                )
            if rec.start < ends.get((cid, u), 0):
                violations.append(
                    f"txn {n}: {cid} consumes {u}[{rec.start}:{end}] before "
                    f"the end of its previous range, {ends[(cid, u)]}"
                )
            ends[(cid, u)] = end
        for op in txn:
            if op[0] == "append" and op[1] == "lineage":
                cid = decode_channel(op[2])
                committed[cid] = committed.get(cid, 0) + 1
            elif op[0] == "set" and op[1] == "closed":
                closed[decode_channel(op[2])] = op[3]
    for (cid, u), end in sorted(ends.items()):
        if u in closed and end > closed[u]:
            violations.append(
                f"{cid} consumes {u} up to {end}, past its closed total {closed[u]}"
            )
    return violations

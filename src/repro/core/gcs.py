"""Global Control Store: a transactional KV store with a write-ahead journal.

The paper implements the GCS as a Redis server on the head node (assumed
not to fail); anything written to it is considered persisted. We
reproduce the same API surface with an in-process store:

* namespaced key→value tables,
* **atomic multi-operation transactions** (the write-ahead lineage
  algorithm bundles "append lineage record, update task queue, record
  output location" into a single transaction),
* an **append-only journal**: every committed transaction is serialised
  (optionally to a file) *before* it is applied, and
  :meth:`Gcs.recover_from_journal` rebuilds an identical store from the
  journal alone — this is what makes the lineage *write-ahead*.

Values must be JSON-serialisable (the lineage codecs in
:mod:`repro.core.naming` guarantee this for lineage records).
"""
from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterable, Optional


class TransactionError(RuntimeError):
    """A transaction was rejected; no operation in it was applied."""


class Gcs:
    """In-process stand-in for the head node's Redis, with durability.

    Parameters
    ----------
    journal_path:
        If given, every committed transaction is appended to this file
        (JSONL) before being applied, and the store can be rebuilt from
        the file after a simulated head-process crash.
    """

    def __init__(self, journal_path: Optional[str] = None) -> None:
        self._tables: dict[str, dict[str, Any]] = {}
        self._journal: list[list[list]] = []
        self._journal_path = Path(journal_path) if journal_path else None
        self._fh = self._journal_path.open("a") if self._journal_path else None
        self.txn_count = 0

    # -- reads -------------------------------------------------------------

    def get(self, ns: str, key: str, default: Any = None) -> Any:
        return self._tables.get(ns, {}).get(key, default)

    def table(self, ns: str) -> dict[str, Any]:
        """A *copy* of a namespace (callers must not mutate store state)."""
        return dict(self._tables.get(ns, {}))

    # -- writes ------------------------------------------------------------

    def transaction(self, ops: Iterable[list]) -> None:
        """Atomically apply ``ops``, journaling them first.

        Each op is one of::

            ["set",    ns, key, value]
            ["append", ns, key, value]   # value appended to a list
            ["del",    ns, key]

        The transaction is validated and serialised up front; an invalid
        one raises :class:`TransactionError` and nothing is applied or
        journaled. Invalid means a malformed op (namespaces and keys are
        strings), a value that is not JSON-serialisable, or an append to a
        key that holds a non-list value once the earlier ops of the
        transaction apply.
        """
        ops = [list(op) for op in ops]
        # Each key's value as the earlier ops leave it; a deleted key is
        # absent, so an append may start a list there, as it does below.
        written: dict[tuple[str, str], Any] = {}
        for op in ops:
            if (
                not op
                or op[0] not in ("set", "append", "del")
                or len(op) != (3 if op[0] == "del" else 4)
                or not (isinstance(op[1], str) and isinstance(op[2], str))
            ):
                raise TransactionError(f"malformed op: {op!r}")
            key = (op[1], op[2])
            if op[0] == "set":
                written[key] = op[3]
            elif op[0] == "del":
                written[key] = []
            else:
                cur = written.get(key, self._tables.get(op[1], {}).get(op[2], []))
                if not isinstance(cur, list):
                    raise TransactionError(
                        f"append to non-list {op[1]}/{op[2]}={cur!r}: {op!r}"
                    )
                written[key] = cur
        try:
            line = json.dumps(ops)
        except (TypeError, ValueError) as e:
            raise TransactionError(f"value not JSON-serialisable: {e}") from e
        # Write-ahead: journal before apply.
        if self._fh is not None:
            self._fh.write(line + "\n")
            self._fh.flush()
        self._journal.append(ops)
        self.txn_count += 1
        for op in ops:
            tbl = self._tables.setdefault(op[1], {})
            if op[0] == "set":
                tbl[op[2]] = op[3]
            elif op[0] == "append":
                tbl.setdefault(op[2], []).append(op[3])
            else:
                tbl.pop(op[2], None)

    def set(self, ns: str, key: str, value: Any) -> None:
        self.transaction([["set", ns, key, value]])

    # -- durability --------------------------------------------------------

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    @property
    def journal(self) -> list[list[list]]:
        """The in-memory journal (a copy), for tests and introspection."""
        return [list(t) for t in self._journal]

    @classmethod
    def recover_from_journal(cls, journal_path: str) -> "Gcs":
        """Rebuild a store by replaying a journal file (head-node crash),
        journaling its later transactions to the same file. A transaction
        whose line the crash tore was never applied: it is cut from the
        file, so the next transaction starts its own line. Corruption, or
        a journaled transaction the store rejects, raises and leaves the
        file as it was (see :func:`read_journal`)."""
        records, end = read_journal(journal_path)
        g = cls()
        for ops in records:
            g.transaction(ops)
        os.truncate(journal_path, end)
        g._journal_path = Path(journal_path)
        g._fh = g._journal_path.open("a")
        return g

    @classmethod
    def replay(cls, journal: list[list[list]]) -> "Gcs":
        """Rebuild a store from an in-memory journal (for tests)."""
        g = cls()
        for txn in journal:
            g.transaction(txn)
        return g


def read_journal(path) -> tuple[list, int]:
    """The records of a JSONL journal, and the bytes of the file they
    fill: where the next record's line begins.

    The writer ends every record, a JSON array or object, with a newline,
    and no strict prefix of such a line parses. So a last line that does
    not parse, or lacks its newline, is a write a crash tore: its record
    was never committed, and it is dropped. Any earlier line that does
    not parse is corruption and raises :class:`TransactionError`.
    """
    with open(path, "rb") as fh:
        lines = fh.readlines()
    records, end = [], 0
    for n, line in enumerate(lines, 1):
        if line.strip():
            try:
                rec = json.loads(line)
            except ValueError as e:  # JSONDecodeError, or a torn UTF-8 sequence
                if any(ln.strip() for ln in lines[n:]):
                    raise TransactionError(f"{path}: line {n} is corrupt: {e}") from e
                break
            if not line.endswith(b"\n"):
                break
            records.append(rec)
        end += len(line)
    return records, end

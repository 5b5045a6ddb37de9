"""Persistent scenario-result store: SQLite-backed, content-addressed.

:class:`ResultStore` maps :func:`~repro.store.hashing.scenario_key` content
keys to pickled :class:`~repro.api.scenario.ScenarioResult` payloads plus a
JSON summary row the dashboard can query without unpickling.  Design rules:

* **schema-versioned** — the database carries its schema version in
  ``PRAGMA user_version``; opening a store written by a different schema
  rebuilds it empty instead of misreading old rows;
* **corruption-tolerant** — a row whose payload fails to unpickle (or a
  database file that fails to open) is treated as a cache *miss*, never a
  crash: the bad row is dropped, the bad file is rebuilt, and the sweep
  recomputes what it lost;
* **incremental** — every :meth:`put` commits at once to SQLite's
  write-ahead log (``synchronous=NORMAL``): an append to the ``-wal`` file,
  no fsync, and it outlives a killed process, so a sweep killed mid-grid
  resumes from what it completed; an OS crash may lose the last commits,
  which then read as misses and simulate again;
* **one write per replay** — :meth:`get_many` pays one transaction for a
  whole pass's hit counters, not one per hit.

The store keeps in-memory :attr:`stats` (hits / misses / puts / corrupt /
invalidated) for progress reporting and tests.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import pickle
import sqlite3
import time
from typing import Dict, List, Optional, Sequence

#: Bump whenever the table layout or payload format changes: stores written
#: by other schema versions are rebuilt empty on open.
SCHEMA_VERSION = 1

#: Default store filename (inside a sweep's artifact directory).
DEFAULT_FILENAME = "sweep.sqlite"


class ResultStore:
    """Content-addressed persistent cache of scenario results."""

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        self.stats: Dict[str, int] = dict.fromkeys(
            ("hits", "misses", "puts", "corrupt", "invalidated"), 0)
        self._conn = self._open()

    # -- lifecycle -----------------------------------------------------------
    def _open(self) -> sqlite3.Connection:
        os.makedirs(os.path.dirname(os.path.abspath(self.path)), exist_ok=True)
        try:
            return self._connect()
        except sqlite3.DatabaseError:
            # Not a database (truncated file, foreign format): a corrupt
            # store is an empty store, not a crash.
            self.stats["corrupt"] += 1
            os.replace(self.path, self.path + ".corrupt")
            return self._connect()

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.path)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        version = conn.execute("PRAGMA user_version").fetchone()[0]
        if version not in (0, SCHEMA_VERSION):
            # Another schema generation wrote this file; rebuild empty.
            conn.execute("DROP TABLE IF EXISTS results")
            version = 0
        conn.execute(
            "CREATE TABLE IF NOT EXISTS results ("
            " key TEXT PRIMARY KEY,"
            " scenario TEXT NOT NULL,"
            " workload TEXT NOT NULL,"
            " passed INTEGER NOT NULL,"
            " host_seconds REAL NOT NULL,"
            " created REAL NOT NULL,"
            " hits INTEGER NOT NULL DEFAULT 0,"
            " summary TEXT NOT NULL,"
            " payload BLOB NOT NULL)"
        )
        if version == 0:
            conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
        conn.commit()
        return conn

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- cache interface -----------------------------------------------------
    def get(self, key: str):
        """The cached :class:`ScenarioResult` for ``key``, or ``None``."""
        return self.get_many([key])[0]

    def get_many(self, keys: Sequence[str]) -> list:
        """The cached :class:`ScenarioResult` (or ``None``) for each key.

        Payloads decode as their rows arrive; an undecodable row counts as
        corrupt and reads as a miss.  Its delete and every hit's counter
        increment land in one write transaction (none when there is none).
        """
        results, hits, corrupt = [], [], []
        for key in keys:
            row = None if (key,) in corrupt else self._conn.execute(
                "SELECT payload FROM results WHERE key = ?", (key,)).fetchone()
            result = None if row is None else _decode(row[0])
            if result is not None:
                hits.append((key,))
            elif row is not None:
                corrupt.append((key,))
            results.append(result)
        self.stats["hits"] += len(hits)
        self.stats["misses"] += len(results) - len(hits)
        self.stats["corrupt"] += len(corrupt)
        if corrupt:
            self._conn.executemany("DELETE FROM results WHERE key = ?", corrupt)
        if hits:
            self._conn.executemany(
                "UPDATE results SET hits = hits + 1 WHERE key = ?", hits)
        self._conn.commit()
        return results

    def put(self, key: str, result, *, workload: str = "") -> None:
        """Persist one result under ``key`` (committed immediately).

        The live platform handle (serial ``keep_platforms`` runs) never
        enters the store; the stored payload always reads back with
        ``platform=None`` and ``cached=False``.
        """
        stored = dataclasses.replace(result, platform=None, cached=False)
        payload = pickle.dumps(stored, protocol=pickle.HIGHEST_PROTOCOL)
        summary = json.dumps({
            "scenario": stored.scenario,
            "workload": workload,
            "params": {k: plain_value(v) for k, v in stored.params.items()},
            "overrides": {k: plain_value(v)
                          for k, v in stored.overrides.items()},
            "passed": stored.passed,
            "failures": list(stored.failures),
            "error": stored.error,
            "host_seconds": stored.host_seconds,
            "simulated_cycles": (stored.report.simulated_cycles
                                 if stored.report is not None else None),
        }, default=str)
        self._conn.execute(
            "INSERT OR REPLACE INTO results "
            "(key, scenario, workload, passed, host_seconds, created, hits, "
            " summary, payload) VALUES (?, ?, ?, ?, ?, ?, 0, ?, ?)",
            (key, stored.scenario, workload, int(stored.passed),
             stored.host_seconds, time.time(), summary, payload),
        )
        self._conn.commit()
        self.stats["puts"] += 1

    def invalidate(self, key: Optional[str] = None) -> int:
        """Drop one cached result (or every result with ``key=None``);
        returns the number of rows removed."""
        where, args = ("", ()) if key is None else (" WHERE key = ?", (key,))
        removed = self._conn.execute("DELETE FROM results" + where, args).rowcount
        self._conn.commit()
        self.stats["invalidated"] += removed
        return removed

    # -- queries -------------------------------------------------------------
    def __len__(self) -> int:
        return self._conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]

    def __contains__(self, key: str) -> bool:
        return self._conn.execute(
            "SELECT 1 FROM results WHERE key = ?", (key,)).fetchone() is not None

    def rows(self) -> List[dict]:
        """Summary rows for tables and the dashboard (no payload decode).

        A row whose summary JSON is unreadable still appears (the store
        favours visibility over perfection) with an ``"unreadable"`` note.
        """
        rows: List[dict] = []
        for key, scenario, workload, passed, host_seconds, created, hits, \
                summary in self._conn.execute(
                    "SELECT key, scenario, workload, passed, host_seconds, "
                    "created, hits, summary FROM results "
                    "ORDER BY scenario, key"):
            try:
                details = json.loads(summary)
            except ValueError:
                details = {"note": "unreadable summary"}
            rows.append({
                **details, "key": key, "scenario": scenario,
                "workload": workload, "passed": bool(passed),
                "host_seconds": host_seconds, "created": created, "hits": hits,
            })
        return rows

    def describe(self) -> str:
        """One-line summary for logs."""
        stats = self.stats
        return (f"store {self.path}: {len(self)} rows "
                f"({stats['hits']} hits / {stats['misses']} misses / "
                f"{stats['puts']} puts this session)")


class _RestrictedUnpickler(pickle.Unpickler):
    """Unpickler that only resolves classes from this package's modules.

    The store only ever contains payloads this package wrote, but the file
    sits on disk where anything may have scribbled on it — refusing
    non-``repro`` globals turns a tampered payload into an ordinary corrupt
    row (a miss) instead of arbitrary object construction.  The allowlist
    is exact: our own package plus the container types stdlib pickling
    legitimately references by global; never ``eval``/``exec``/``getattr``
    or any other builtin with call-time side effects.
    """

    #: Exact stdlib modules a ScenarioResult payload may reference.
    _EXACT_MODULES = frozenset({"collections", "enum"})
    #: Side-effect-free builtins pickling emits as GLOBAL/STACK_GLOBAL.
    _SAFE_BUILTINS = frozenset({
        "set", "frozenset", "dict", "list", "tuple",
        "bytearray", "complex", "range", "slice",
    })

    def find_class(self, module: str, name: str):
        allowed = (
            module == "repro" or module.startswith("repro.")
            or module in self._EXACT_MODULES
            or (module == "builtins" and name in self._SAFE_BUILTINS)
        )
        if allowed:
            return super().find_class(module, name)
        raise pickle.UnpicklingError(
            f"payload references forbidden global {module}.{name}")


def _restricted_loads(payload: bytes):
    return _RestrictedUnpickler(io.BytesIO(payload)).load()


def _decode(payload: bytes):
    """The :class:`ScenarioResult` in ``payload``, or ``None`` if none."""
    try:
        result = _restricted_loads(payload)
    except Exception:
        return None
    return result if type(result).__name__ == "ScenarioResult" else None


def plain_value(value: object) -> object:
    """JSON-safe view of a parameter value (an enum becomes its value)."""
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(getattr(value, "value", value))

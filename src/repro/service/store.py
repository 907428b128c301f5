"""The shared result store: the L2 behind the in-process result cache.

The :class:`~repro.api.cache.ResultCache` L1 holds live outcomes and dies
with the process.  :class:`SqliteResultStore` is the layer behind it: a
WAL-mode sqlite file, safe for concurrent readers and writers across threads
*and* processes, holding **serialized outcomes** (``ExplainOutcome.to_dict()``
payloads) under the same result keys, so that

* N server replicas pointed at one store file deduplicate identical
  requests (the second replica answers from the store instead of
  re-searching), and
* a restarted replica keeps serving results computed before the restart.

Payloads round-trip through JSON, so anything the store returns has
survived serialization — a store hit on replica B behaves exactly like a
restart-recovery hit.

``open_store`` parses the ``serve --store`` spec::

    open_store(None)                  -> None (no shared store)
    open_store("sqlite:/tmp/res.db")  -> SqliteResultStore("/tmp/res.db")
    open_store("/tmp/res.db")         -> SqliteResultStore("/tmp/res.db")
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Union

from ..obs import get_registry

_REGISTRY = get_registry()
_STORE_HITS = _REGISTRY.counter(
    "repro_store_hits_total",
    "Shared result-store lookups that found a completed outcome",
    ("backend",),
)
_STORE_MISSES = _REGISTRY.counter(
    "repro_store_misses_total",
    "Shared result-store lookups that found nothing",
    ("backend",),
)
_STORE_PUTS = _REGISTRY.counter(
    "repro_store_puts_total",
    "Completed outcomes written to the shared result store",
    ("backend",),
)


@dataclass(frozen=True)
class StoreStats:
    """Counters exposed on ``/healthz`` and asserted by tests."""

    backend: str
    hits: int
    misses: int
    puts: int
    size: int

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


class SqliteResultStore:
    """A shared on-disk store: one WAL-mode sqlite file, safe for concurrent
    access from many threads and many server processes.

    Parameters
    ----------
    path:
        The database file.  Replicas that should deduplicate work must point
        at the same path (a shared volume in multi-box setups).
    ttl_seconds:
        Entries older than this are treated as absent and deleted on access.
        ``None`` (default) keeps results until overwritten.
    timeout:
        Seconds a writer waits on a locked database before giving up —
        sqlite's cross-process busy timeout.
    clock:
        Wall-clock source, injectable for TTL tests.
    """

    backend = "sqlite"

    def __init__(self, path: Union[str, "object"], *,
                 ttl_seconds: Optional[float] = None,
                 timeout: float = 10.0,
                 clock: Callable[[], float] = time.time):
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError(
                f"ttl_seconds must be positive or None, got {ttl_seconds}")
        self.path = str(path)
        self._ttl = ttl_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._puts = 0
        self._conn = sqlite3.connect(self.path, timeout=timeout,
                                     check_same_thread=False)
        with self._lock:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS results ("
                "  key TEXT PRIMARY KEY,"
                "  payload TEXT NOT NULL,"
                "  stored_at REAL NOT NULL"
                ")"
            )
            self._conn.commit()

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            row = self._conn.execute(
                "SELECT payload, stored_at FROM results WHERE key = ?",
                (key,),
            ).fetchone()
            if row is not None and self._ttl is not None \
                    and self._clock() - row[1] > self._ttl:
                self._conn.execute("DELETE FROM results WHERE key = ?", (key,))
                self._conn.commit()
                row = None
            if row is None:
                self._misses += 1
            else:
                self._hits += 1
        if row is None:
            _STORE_MISSES.inc(backend=self.backend)
            return None
        _STORE_HITS.inc(backend=self.backend)
        return json.loads(row[0])

    def put(self, key: str, payload: Mapping[str, Any]) -> None:
        text = json.dumps(payload)
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO results (key, payload, stored_at) "
                "VALUES (?, ?, ?)",
                (key, text, self._clock()),
            )
            self._conn.commit()
            self._puts += 1
        _STORE_PUTS.inc(backend=self.backend)

    def stats(self) -> StoreStats:
        with self._lock:
            size = self._conn.execute(
                "SELECT COUNT(*) FROM results").fetchone()[0]
            return StoreStats(backend=self.backend, hits=self._hits,
                              misses=self._misses, puts=self._puts, size=size)

    def close(self) -> None:
        """Release the connection; further calls fail."""
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "SqliteResultStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def open_store(spec: Optional[str]) -> Optional[SqliteResultStore]:
    """Build a store from a ``serve --store`` spec string.

    ``None``/empty/``"none"`` disable the shared store; ``"sqlite:PATH"``
    (also ``sqlite:///PATH``) or a bare filesystem path open the sqlite
    store.  ``"memory"`` is rejected: the result cache already keeps results
    in process, so an in-process store behind it would only hold them twice.
    """
    if spec is None:
        return None
    spec = spec.strip()
    if not spec or spec.lower() == "none":
        return None
    if spec.lower() == "memory":
        raise ValueError(
            "store spec 'memory' is not supported: the in-process result "
            "cache already holds results; use 'sqlite:PATH' for a shared store"
        )
    if spec.startswith("sqlite:"):
        path = spec[len("sqlite:"):]
        if path.startswith("///"):  # URI spelling: sqlite:///abs/path.db
            path = path[2:]
        if not path:
            raise ValueError(f"store spec {spec!r} names no database path")
        return SqliteResultStore(path)
    return SqliteResultStore(spec)

"""Idempotency-keyed result cache with TTL and LRU eviction.

An explanation is a pure function of the two snapshots and the search
configuration, so the service can hand out cached results for repeated
submissions of the same pair.  The key is a SHA-256 digest over both tables'
schemas and rows plus every *comparable* configuration field (observer
callbacks are excluded — two submissions that differ only in monitoring hooks
must hit the same entry).

The cache is a plain ordered dict under a lock: O(1) get/put, least recently
*used* order, optional time-to-live.  It deliberately stores whatever value
the caller hands it (the job layer stores published
:class:`~repro.api.ExplainOutcome` objects, so a replay keeps the answering
tier and confidence).
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Any, Callable, Optional

from ..core import AffidavitConfig
from ..dataio import Table


def _digest_cells(digest: "hashlib._Hash", cells) -> None:
    # Length-prefix every cell: joining with a separator would make rows like
    # ("a\x1fb", "c") and ("a", "b\x1fc") collide.
    for cell in cells:
        encoded = cell.encode("utf-8")
        digest.update(f"{len(encoded)}:".encode("ascii"))
        digest.update(encoded)
    digest.update(b"\x1e")


def _digest_table(digest: "hashlib._Hash", table: Table) -> None:
    _digest_cells(digest, table.schema)
    for row in table:
        _digest_cells(digest, row)


def _digest_config(digest: "hashlib._Hash", config: AffidavitConfig) -> None:
    for spec in fields(config):
        if not spec.compare:  # observer hooks do not change the result
            continue
        value = getattr(config, spec.name)
        digest.update(f"{spec.name}={value!r}\x1e".encode("utf-8"))


def idempotency_key(source: Table, target: Table, config: AffidavitConfig,
                    registry_names: Optional[tuple] = None) -> str:
    """Deterministic content key of a (source, target, config) submission.

    *registry_names* folds a non-default meta-function pool into the key
    (the pool changes which explanations are reachable).
    """
    digest = hashlib.sha256()
    digest.update(b"affidavit-v1\x00")
    _digest_table(digest, source)
    digest.update(b"\x00")
    _digest_table(digest, target)
    digest.update(b"\x00")
    _digest_config(digest, config)
    if registry_names is not None:
        digest.update(("\x1f".join(registry_names)).encode("utf-8"))
    return digest.hexdigest()


def request_idempotency_key(request, source: Table, target: Table, *,
                            config: Optional[AffidavitConfig] = None,
                            registry_names: Optional[tuple] = None) -> str:
    """Idempotency key of a request-driven submission.

    Derived from the request's canonical execution hash
    (:meth:`repro.api.ExplainRequest.canonical_key` with
    ``include_snapshots=False`` — key-order independent, execution hints
    excluded) plus content digests of the *materialised* snapshots.  Keying
    on parsed content rather than the transport strings means the same data
    hits the same entry whether it arrived inline or by path (and however
    the path was spelled), while a path-based request whose files changed on
    disk still misses.  *config* / *registry_names* fold in an explicitly
    supplied configuration or function pool that bypassed the request's own
    fields (the batch runner does this).
    """
    digest = hashlib.sha256()
    digest.update(b"affidavit-req-v1\x00")
    digest.update(request.canonical_key(include_snapshots=False).encode("ascii"))
    digest.update(b"\x00")
    _digest_table(digest, source)
    digest.update(b"\x00")
    _digest_table(digest, target)
    digest.update(b"\x00")
    if config is not None:
        _digest_config(digest, config)
    if registry_names is not None:
        digest.update(("\x1f".join(registry_names)).encode("utf-8"))
    return digest.hexdigest()


@dataclass(frozen=True)
class CacheStats:
    """Counters exposed on ``/healthz`` and in batch summaries."""

    hits: int
    misses: int
    evictions: int
    expirations: int
    size: int
    max_entries: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "size": self.size,
            "max_entries": self.max_entries,
            "hit_rate": round(self.hit_rate, 4),
        }


class _Entry:
    __slots__ = ("value", "stored_at")

    def __init__(self, value: Any, stored_at: float):
        self.value = value
        self.stored_at = stored_at


class ResultCache:
    """Thread-safe LRU cache with optional TTL.

    Parameters
    ----------
    max_entries:
        Upper bound on stored results; the least recently used entry is
        evicted when a put would exceed it.  Must be >= 1.
    ttl_seconds:
        Entries older than this are treated as absent (and dropped on
        access).  ``None`` disables expiry.
    clock:
        Monotonic time source, injectable for tests.
    """

    def __init__(self, max_entries: int = 128,
                 ttl_seconds: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError(f"ttl_seconds must be positive or None, got {ttl_seconds}")
        self._max_entries = max_entries
        self._ttl = ttl_seconds
        self._clock = clock
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._expirations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str) -> Optional[Any]:
        """The cached value, or ``None`` on miss/expiry; refreshes LRU order."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            if self._ttl is not None and self._clock() - entry.stored_at > self._ttl:
                del self._entries[key]
                self._expirations += 1
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry.value

    def put(self, key: str, value: Any) -> None:
        """Store *value*, evicting the least recently used entry if full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = _Entry(value, self._clock())
                return
            while len(self._entries) >= self._max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1
            self._entries[key] = _Entry(value, self._clock())

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                expirations=self._expirations,
                size=len(self._entries),
                max_entries=self._max_entries,
            )

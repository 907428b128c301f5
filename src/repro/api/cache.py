"""The one result key and the one layered result cache.

An explanation is a pure function of the two snapshots and the search
configuration, so one content key names it
(:func:`request_idempotency_key`) and one cache holds it
(:class:`ResultCache`: an in-process LRU in front of an optional shared
store such as :class:`repro.service.store.SqliteResultStore`).  The job
manager owns one cache and hands it to every job's session, so the strategy
chain's ``cache`` tier reads the entries the service publishes.
"""

from __future__ import annotations

import hashlib
import logging
import threading
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass, fields, replace
from typing import Any, Callable, Optional, Tuple

from ..core import AffidavitConfig
from ..dataio import Table
from .outcome import ExplainOutcome
from .request import ExplainRequest, resolve_config, resolve_registry

logger = logging.getLogger(__name__)


def _digest_config(digest: "hashlib._Hash", config: AffidavitConfig) -> None:
    for spec in fields(config):
        if not spec.compare:  # observer hooks do not change the result
            continue
        value = getattr(config, spec.name)
        digest.update(f"{spec.name}={value!r}\x1e".encode("utf-8"))


def request_idempotency_key(request: Optional[ExplainRequest],
                            source: Table, target: Table, *,
                            config: Optional[AffidavitConfig] = None,
                            registry_names: Optional[Tuple[str, ...]] = None) -> str:
    """The content key of one explanation run: SHA-256 over the request's
    canonical execution fields (``canonical_key(include_snapshots=False)``)
    and the *materialised* tables' fingerprints, so the same data keys the
    same whether it arrived inline or by path, however spelled and
    delimited, while a path whose file changed on disk misses.

    *config* / *registry_names* name a configuration or function pool that
    was supplied explicitly instead of being resolved from *request* (the
    batch runner and the job sessions do this).  Each folds into the key
    only where it differs from what the request itself resolves to, so the
    same effective run has one key however it was configured.  Without a
    request (table-level submissions) both always fold in.
    """
    digest = hashlib.sha256(b"affidavit-key-v2\x00")
    if request is not None:
        digest.update(request.canonical_key(include_snapshots=False).encode("ascii"))
        if config is not None and config == resolve_config(request):
            config = None
        if registry_names is not None and \
                tuple(registry_names) == tuple(resolve_registry(request).names):
            registry_names = None
    digest.update(b"\x00")
    digest.update(source.fingerprint())
    digest.update(target.fingerprint())
    if config is not None:
        _digest_config(digest, config)
    if registry_names is not None:
        digest.update(("\x1f".join(registry_names)).encode("utf-8"))
    return digest.hexdigest()


def _detached(value: Any) -> Any:
    """An outcome without what would pin a run's data in the cache: its
    request (inline CSV text), its instance (the parsed snapshots) and the
    observer callbacks of its configuration (closures over a job)."""
    if not isinstance(value, ExplainOutcome):
        return value
    result = value.result
    if result is not None and (result.config.should_stop is not None
                               or result.config.progress_callback is not None):
        result = replace(result, config=result.config.with_overrides(
            should_stop=None, progress_callback=None))
    return replace(value, request=None, instance=None, result=result)


@dataclass(frozen=True)
class CacheStats:
    """L1 counters exposed on ``/healthz`` and in batch summaries."""

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
        return {**asdict(self), "hit_rate": round(self.hit_rate, 4)}


class ResultCache:
    """Thread-safe LRU of outcomes with optional TTL (L1), optionally layered
    in front of a shared store (L2).  A lookup checks L1, then L2, and
    promotes an L2 hit into L1; a write goes to both.  An unreadable L2
    payload or a failing store is a miss, never an error.

    Parameters
    ----------
    max_entries:
        Upper bound on L1 entries; the least recently used entry is evicted
        when a put would exceed it.  Must be >= 1.
    ttl_seconds:
        L1 entries older than this are treated as absent (and dropped on
        access).  ``None`` disables expiry.
    clock:
        Monotonic time source, injectable for tests.
    store:
        The optional L2: anything with ``get(key) -> payload | None``,
        ``put(key, payload)`` and ``stats()`` that round-trips
        ``ExplainOutcome.to_dict()`` payloads.  The cache never closes it —
        its creator owns its lifetime, so one store can back several caches
        (replicas).
    """

    def __init__(self, max_entries: int = 128,
                 ttl_seconds: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic,
                 *, store: Any = None):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError(f"ttl_seconds must be positive or None, got {ttl_seconds}")
        self._max_entries = max_entries
        self._ttl = ttl_seconds
        self._clock = clock
        self.store = store
        #: key -> (value, stored_at), least recently used first.
        self._entries: "OrderedDict[str, Tuple[Any, float]]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._expirations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str) -> Optional[Any]:
        """The cached value, or ``None`` on a miss in both layers."""
        return self.lookup(key)[0]

    def lookup(self, key: str) -> Tuple[Optional[Any], bool]:
        """``(value, store_hit)``: the value from L1, else from L2 (promoted
        into L1, ``store_hit`` true), else ``(None, False)``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and self._ttl is not None \
                    and self._clock() - entry[1] > self._ttl:
                del self._entries[key]
                self._expirations += 1
                entry = None
            if entry is None:
                self._misses += 1
            else:
                self._entries.move_to_end(key)
                self._hits += 1
                return entry[0], False
        if self.store is None:
            return None, False
        try:
            payload = self.store.get(key)
        except Exception:  # noqa: BLE001 - a broken store degrades to a miss
            logger.exception("result store get failed for key %s", key[:12])
            return None, False
        if payload is None:
            return None, False
        try:
            outcome = ExplainOutcome.from_dict(payload)
        except Exception:  # noqa: BLE001 - a corrupt entry is a miss
            logger.warning("result store payload for key %s is unreadable", key[:12])
            return None, False
        self._put_local(key, outcome)
        return outcome, True

    def put(self, key: str, value: Any) -> None:
        """Store *value* in L1 (evicting the least recently used entry if
        full) and in L2.  Outcomes are stored detached from their request,
        instance and observer callbacks."""
        value = _detached(value)
        self._put_local(key, value)
        if self.store is None:
            return
        try:
            self.store.put(key, value.to_dict())
        except Exception:  # noqa: BLE001 - the answer itself is fine
            logger.exception("result store put failed for key %s", key[:12])

    def _put_local(self, key: str, value: Any) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            else:
                while len(self._entries) >= self._max_entries:
                    self._entries.popitem(last=False)
                    self._evictions += 1
            self._entries[key] = (value, self._clock())

    def clear(self) -> None:
        """Drop every L1 entry (the shared store is left alone)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> CacheStats:
        """The L1 counters (the store reports its own)."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                expirations=self._expirations,
                size=len(self._entries),
                max_entries=self._max_entries,
            )

"""repro.service — a concurrent explanation-job subsystem.

The CLI runs one blocking search per invocation; production data-profiling
instead wraps the expensive Affidavit analysis behind a long-running service.
This package provides that serving layer with stdlib means only:

* :mod:`.cache` — the result key and the layered result cache (TTL + LRU
  in front of an optional shared store, both from :mod:`repro.api.cache`)
  so repeated submissions of the same snapshot pair return instantly,
* :mod:`.jobs` — a :class:`~repro.service.jobs.JobManager` with a priority
  worker queue, per-job event buffers, admission control and cooperative
  cancellation,
* :mod:`.store` — the shared sqlite L2 (:class:`SqliteResultStore`) that
  lets N replicas deduplicate work and restarted replicas keep their results,
* :mod:`.schemas` — typed request/response payloads with JSON round-trips,
* :mod:`.server` — the HTTP API (``/healthz``, ``/v1/explain``,
  ``/v1/jobs/...`` including the ``/events`` stream) on
  :class:`http.server.ThreadingHTTPServer`, answering every failure with a
  versioned ``affidavit.error/v1`` envelope,
* :mod:`.batch` — a bulk front-end that fans a directory of snapshot pairs
  through the same job manager.
"""

from .cache import CacheStats, ResultCache, request_idempotency_key
from .jobs import (
    AdmissionError,
    Job,
    JobEventBuffer,
    JobManager,
    JobNotFound,
    JobState,
)
from .schemas import (
    ExplainRequest,
    JobView,
    ResultView,
    ValidationError,
    config_from_request,
)
from .server import (
    CLIENT_ID_HEADER,
    ERROR_SCHEMA_VERSION,
    AffidavitHTTPServer,
    ClientQuotas,
    create_server,
    error_envelope,
    serve_forever,
)
from .store import SqliteResultStore, StoreStats, open_store
from .batch import BatchOutcome, discover_pairs, run_batch

__all__ = [
    "CacheStats",
    "ResultCache",
    "request_idempotency_key",
    "AdmissionError",
    "Job",
    "JobEventBuffer",
    "JobManager",
    "JobNotFound",
    "JobState",
    "ExplainRequest",
    "JobView",
    "ResultView",
    "ValidationError",
    "config_from_request",
    "AffidavitHTTPServer",
    "ClientQuotas",
    "CLIENT_ID_HEADER",
    "ERROR_SCHEMA_VERSION",
    "error_envelope",
    "create_server",
    "serve_forever",
    "SqliteResultStore",
    "StoreStats",
    "open_store",
    "BatchOutcome",
    "discover_pairs",
    "run_batch",
]

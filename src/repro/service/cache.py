"""The service's result key and cache.

Both live in :mod:`repro.api.cache`, shared by the library, the service and
the batch runner; this module re-exports them under their service names.
"""

from ..api.cache import CacheStats, ResultCache, request_idempotency_key

__all__ = ["CacheStats", "ResultCache", "request_idempotency_key"]

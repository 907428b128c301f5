"""Per-layer ledger: the benchmark's own timed calls into each layer.

These calls run in the benchmark process after the traced HTTP pass, outside
its timed window, on the workload's own request bodies.  Server-side counts
come from ``/healthz`` and ``/metrics`` snapshots around the window.
"""

from __future__ import annotations

import json
import statistics
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List

from repro.api import ExplainRequest, ExplainSession, resolve_config, resolve_registry
from repro.api.budget import TIERS
from repro.core import ProblemInstance
from repro.obs import Tracer
from repro.service.cache import request_idempotency_key
from repro.service.store import SqliteResultStore

from service import Record, metric_total

#: Search phases whose self time the ledger reports.
PHASES = ("induction", "ranking", "refine_bounds", "blocking_refine",
          "greedy_map", "finalize")

#: Repeats of the cheap (sub-second) layer calls; the median is reported.
REPEATS = 3


def _timed(call: Callable[[], object], repeats: int = REPEATS):
    """Median seconds of *repeats* calls, and the last call's value."""
    seconds = []
    value = None
    for _ in range(repeats):
        started = time.perf_counter()
        value = call()
        seconds.append(time.perf_counter() - started)
    return statistics.median(seconds), value


def _self_times(span, totals: Dict[str, float]) -> None:
    covered = sum(child.duration for child in span.children)
    totals[span.name] = totals.get(span.name, 0.0) + max(0.0, span.duration - covered)
    for child in span.children:
        _self_times(child, totals)


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_calls(bodies: List[bytes], work_dir: Path) -> Dict[str, float]:
    """Time each layer's public function on the inline request *bodies*;
    medians across them, plus the tracing overhead of the search."""
    samples: Dict[str, List[float]] = {}
    untraced_total = traced_total = 0.0
    untraced_first = True

    def add(name: str, value: float) -> None:
        samples.setdefault(name, []).append(value)

    with tempfile.TemporaryDirectory(dir=work_dir) as scratch:
        store = SqliteResultStore(Path(scratch) / "ledger.sqlite")
        try:
            for body in bodies:
                seconds, request = _timed(
                    lambda: ExplainRequest.from_dict(json.loads(body)))
                add("api.request.decode_s", seconds)
                seconds, (source, target) = _timed(
                    lambda: request.load_tables())
                add("dataio.parse_s", seconds)
                csv_bytes = len(request.source_csv.encode()) + \
                    len(request.target_csv.encode())
                add("dataio.parse_mb_per_s", csv_bytes / 1e6 / seconds)
                registry = resolve_registry(request)

                def instance() -> ProblemInstance:
                    # The search freezes and memoizes into its tables, so
                    # every timed search gets its own copies.
                    return ProblemInstance(source=source.copy(), target=target.copy(),
                                           registry=registry, name=request.name)

                seconds, _ = _timed(instance)
                add("core.instance.build_s", seconds)
                seconds, key = _timed(
                    lambda: request_idempotency_key(request, source, target))
                add("service.cache.key_s", seconds)

                # The full search untraced and traced on fresh instances, in
                # turns of which goes first, so a steady drift in host speed
                # cancels from the overhead ratio.
                config = resolve_config(request)
                untraced = ExplainSession(config=config)
                traced = untraced.with_tracer(Tracer())
                timings = {}
                order = (untraced, traced) if untraced_first else (traced, untraced)
                untraced_first = not untraced_first
                for session in order:
                    built = instance()
                    timings[session] = _timed(
                        lambda: session.explain_instance(built), repeats=1)
                search_s, outcome = timings[untraced]
                traced_s, traced_outcome = timings[traced]
                untraced_total += search_s
                traced_total += traced_s
                add("core.search_s", search_s)
                add("core.expansions", outcome.expansions)
                add("core.generated_states", outcome.generated_states)
                add("core.column_cache.hit_ratio",
                    outcome.cache.hit_rate if outcome.cache else 0.0)
                blocking = outcome.blocking_cache or {}
                lookups = blocking.get("hits", 0) + blocking.get("misses", 0)
                add("core.blocking_cache.hit_ratio",
                    blocking.get("hits", 0) / lookups if lookups else 0.0)
                phases: Dict[str, float] = {}
                _self_times(traced_outcome.trace, phases)
                for phase in PHASES:
                    add(f"core.phase.{phase}_s", phases.get(phase, 0.0))

                seconds, encoded = _timed(
                    lambda: json.dumps(outcome.to_dict()).encode())
                add("api.outcome.encode_s", seconds)
                add("api.outcome.bytes", len(encoded))
                payload = outcome.to_dict()
                seconds, _ = _timed(lambda: store.put(key, payload))
                add("service.store.put_s", seconds)

                # The service's routed call.  A request without a budget or a
                # strategy bypasses the chain and takes exactly the untraced
                # search path timed above.
                if request.budget is None and request.strategy is None:
                    add("api.strategies.chain_s", search_s)
                else:
                    built = instance()
                    seconds, _ = _timed(
                        lambda: untraced.explain_instance(built, request), repeats=1)
                    add("api.strategies.chain_s", seconds)
        finally:
            store.close()
    metrics = {name: _median(values) for name, values in samples.items()}
    metrics["trace.overhead.search_ratio"] = traced_total / untraced_total
    return metrics


def http_layers(records: List[Record], before: dict, after: dict) -> Dict[str, float]:
    """Layer metrics of the traced HTTP pass and the server-side deltas."""
    done = [r for r in records if r.status == "done"]
    searched = [r.job for r in done if r.job and not r.cache_hit
                and r.job.get("started_at") is not None]
    metrics = {
        "service.http.submit_s": _median([r.phases["submit_s"] for r in done]),
        "service.http.result_s": _median([r.phases["result_s"] for r in done]),
        "service.http.result_bytes": _median([len(r.body) for r in done]),
        "service.jobs.queue_wait_s": _median(
            [job["started_at"] - job["submitted_at"] for job in searched]),
        "service.jobs.run_s": _median(
            [job["finished_at"] - job["started_at"] for job in searched]),
    }
    metrics.update(server_deltas(before, after))
    return metrics


def server_deltas(before: dict, after: dict) -> Dict[str, float]:
    """Counter deltas between two :meth:`Server.snapshot` results."""
    def counter(name: str) -> float:
        return metric_total(after["metrics"], name) - metric_total(before["metrics"], name)

    def cache(field: str) -> float:
        return after["healthz"]["cache"][field] - before["healthz"]["cache"][field]

    hits, misses = cache("hits"), cache("misses")
    return {
        "service.jobs.rejected": counter("repro_admission_rejected_total"),
        "service.cache.hits": hits,
        "service.cache.misses": misses,
        "service.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "service.store.puts": counter("repro_store_puts_total"),
    }


def tier_deltas(before: dict, after: dict) -> Dict[str, float]:
    """``repro_jobs_answered_by_tier_total`` deltas by tier."""
    deltas: Dict[str, float] = {}
    for tier in TIERS:
        prefix = f'repro_jobs_answered_by_tier_total{{tier="{tier}"'
        total = sum(v for k, v in after["metrics"].items() if k.startswith(prefix))
        total -= sum(v for k, v in before["metrics"].items() if k.startswith(prefix))
        if total:
            deltas[tier] = total
    return deltas

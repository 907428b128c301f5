"""End-to-end benchmark of the explanation service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_explain --seed 1 --seconds 50 --trace 0

A closed-loop load generator drives the real HTTP service
(``python -m repro.cli serve --workers 2 --store sqlite:<tmp>``) with snapshot
pairs generated by ``repro.datagen`` from ``--seed``, checks every answer
against the generator's ground truth, and prints, as the last line of
standard output, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it is the full run record: host,
input fingerprint, failure classes, server counters and every request.
A copy goes to ``perfbench/out/``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half the
window with per-call timings and the server's job views recorded, then times
each layer in-process on one request body per dataset of the workload's cycle
(the per-layer ledger, with the tracing overhead of the search), so a traced
run takes about as long as an untraced one.

Workloads: ``cold_explain`` (distinct paper-protocol pairs) and ``budgeted``
(``affidavit.request/v2`` with a latency budget), one client each.  One more
pair is answered before the window, and every fourth request in it is a
replay of that pair, which times the cache-hit path.  The replay median is a
per-layer metric (``service.cache.replay_p50_s``), not an end-to-end one: a
replay takes tens of milliseconds and follows the host's speed too closely to
hold a regression bound across runs.  Exit code 1 means an
answer failed a correctness check; 2 means the benchmark could not run at
all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("cold_explain", "budgeted")
#: Server launches per untraced run for ``setup_s``; the last one serves.
SETUP_LAUNCHES = 5
#: An answer to a budgeted request is on time within its budget plus this
#: allowance for HTTP transport and result encoding.
TRANSPORT_ALLOWANCE_S = 0.5
#: An answer to an unbudgeted request is on time within this limit.
UNBUDGETED_LIMIT_S = 15.0

UNITS = {"setup_s": "s", "latency_p50_s": "s", "latency_tail_s": "s",
         "explains_per_s": "1/s", "answered_ratio": "ratio",
         "accuracy_mean": "ratio", "delta_costs_mean": "ratio",
         "compression_mean": "ratio", "ontime_ratio": "ratio",
         "server_peak_rss_mb": "MB"}


def calibration_s() -> float:
    """Median seconds of a fixed pure-Python loop, for host comparison."""
    times = []
    for _ in range(3):
        started = time.perf_counter()
        sum(i * i for i in range(1_000_000))
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def tail(values):
    """The highest percentile with at least ten samples beyond it, and
    that percentile (the maximum when there are ten samples or fewer)."""
    ordered = sorted(values)
    rank = len(ordered) - 10 if len(ordered) > 10 else len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def run_window(workload, seconds, traced, launches, work_dir, src):
    """Start the server, answer the probe pair, run one window, stop."""
    from service import Server, closed_loop, send
    from workloads import Item

    setups = []
    server = None
    try:
        for n in range(launches):
            server = Server(src, work_dir)
            setups.append(server.setup_s)
            if n < launches - 1:
                server.stop()
        before = server.snapshot()
        probe = workload.probe
        probe_cold = send(server.port, Item(probe.index, probe, "cold", probe.body()),
                          False)
        sent, elapsed = closed_loop(
            server.port, workload.schedule(), workload.clients, seconds, traced)
        after = server.snapshot()
        peak = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    records = [r for r in sent if r.item.kind == "cold"]
    replays = [r for r in sent if r.item.kind == "replay"]
    return {"records": records, "probes": [probe_cold] + replays, "elapsed": elapsed,
            "pool_exhausted": len(records) == len(workload.pairs),
            "before": before, "after": after,
            "setups": setups, "peak_rss_mb": peak, "argv": server.argv}


def end_to_end(run, scores):
    """The end-to-end metrics of one window, and how they were sampled."""
    records = run["records"]
    done = [r for r in records if r.status == "done"]
    hits = [r.latency_s for r in run["probes"][1:] if r.status == "done"]
    if not done or not hits:
        raise RuntimeError("no request and no replay was answered")
    latencies = [r.latency_s for r in done]
    tail_value, tail_pct = tail(latencies)

    def on_time(record):
        budget = record.item.pair.budget_ms
        limit = (UNBUDGETED_LIMIT_S if budget is None
                 else budget / 1000.0 + TRANSPORT_ALLOWANCE_S)
        return record.status == "done" and record.latency_s <= limit

    quality = [scores[r.item.index] for r in done]
    metrics = {
        "setup_s": statistics.median(run["setups"]),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
        "explains_per_s": len(done) / run["elapsed"],
        "answered_ratio": len(done) / len(records),
        "accuracy_mean": statistics.fmean(q.accuracy for q in quality),
        "delta_costs_mean": statistics.fmean(q.delta_costs for q in quality),
        "compression_mean": statistics.fmean(q.compression for q in quality),
        "ontime_ratio": sum(map(on_time, records)) / len(records),
        "server_peak_rss_mb": run["peak_rss_mb"],
    }
    sampling = {"answered": len(done), "tail_percentile": tail_pct,
                "replay_samples": len(hits), "replay_p50_s": statistics.median(hits),
                "elapsed_s": run["elapsed"],
                "pool_exhausted": run["pool_exhausted"]}
    return metrics, sampling


def account(run):
    """Failure classes and the server-vs-client cache-hit cross-check."""
    from service import metric_total

    sent = run["records"] + run["probes"]
    classes = {state: sum(r.status == state for r in sent)
               for state in ("done", "failed", "refused", "timeout")}
    classes["check_failed"] = sum(r.check_failed for r in sent)
    classes["stream_closed_early"] = sum(r.stream_closed_early for r in sent)
    classes["cache_hits_client"] = sum(r.cache_hit for r in sent)
    classes["cache_hits_server"] = (
        metric_total(run["after"]["metrics"], "repro_jobs_cache_hits_total")
        - metric_total(run["before"]["metrics"], "repro_jobs_cache_hits_total"))
    classes["errors"] = sorted({r.error for r in sent if r.error})[:5]
    return classes


def request_row(record, scores, started):
    """One request as ``[index, dataset, kind, budget_ms, status, sent_s,
    latency_s, cache_hit, answering tier]``; ``sent_s`` counts from the
    window's first send."""
    item = record.item
    scored = scores.get(item.index)
    return [item.index, item.pair.dataset, item.kind, item.pair.budget_ms,
            record.status, round(record.sent_at - started, 3),
            round(record.latency_s, 4) if record.status == "done" else None,
            record.cache_hit, scored.tier if scored else None]


def per_layer_unit(name: str) -> str:
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if "ratio" in name or "share" in name:
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its server (the ``finally`` blocks run).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"benchmark: no package source at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    try:
        return _run(args, src)
    except Exception:  # noqa: BLE001 - report and fail without a result line
        traceback.print_exc()
        return 2


def _run(args, src: Path) -> int:
    import checks
    import ledger
    import workloads

    predictions = json.loads((HERE / "spec.json").read_text())["predictions"]
    started = time.perf_counter()
    workload = workloads.build(args.workload, args.seed, args.seconds)
    generation_s = time.perf_counter() - started

    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        if args.trace:
            run = run_window(workload, args.seconds / 2, True, 1, work_dir, src)
        else:
            run = run_window(workload, args.seconds, False, SETUP_LAUNCHES,
                             work_dir, src)
        scores = checks.check(run["probes"] + run["records"])
        e2e, sampling = end_to_end(run, scores)
        accounting = account(run)
        if args.trace:
            bodies = [pair.body() for pair in workload.pairs[:workload.cycle]]
            metrics = ledger.layer_calls(bodies, work_dir)
            metrics.update(ledger.http_layers(run["records"], run["before"],
                                              run["after"]))
            tiers = [scores[r.item.index].tier
                     for r in run["records"] if r.status == "done"]
            for tier in ledger.TIERS:
                metrics[f"api.strategies.tier_share.{tier}"] = tiers.count(tier) / len(tiers)
            metrics["service.cache.replay_p50_s"] = sampling["replay_p50_s"]
            reported = {name: {"value": value, "unit": per_layer_unit(name)}
                        for name, value in sorted(metrics.items())}
        else:
            reported = {name: {"value": value, "unit": UNITS[name]}
                        for name, value in e2e.items()}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    sent = run["records"] + run["probes"]
    correct = (accounting["failed"] == 0
               and accounting["cache_hits_client"] == accounting["cache_hits_server"])
    digest = hashlib.sha256()
    for record in sent:
        digest.update(hashlib.sha256(record.item.body).digest())
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "clients": workload.clients,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "implementation": platform.python_implementation(),
                 "calibration_s": calibration_s(),
                 "server_command": " ".join(run["argv"][1:])},
        "inputs_sha256": workload.inputs_sha256(),
        "sent_sha256": digest.hexdigest(),
        "generation_s": generation_s,
        "setups_s": run["setups"],
        "accounting": accounting,
        "failed_ratio": 1.0 - e2e["answered_ratio"],
        "sampling": sampling, "end_to_end": e2e,
        "server_counters": ledger.server_deltas(run["before"], run["after"]),
        "server_tiers": ledger.tier_deltas(run["before"], run["after"]),
        "requests": [request_row(r, scores, run["records"][0].sent_at) for r in sent],
    }
    if args.trace:
        detail["predictions"] = predictions
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(detail, indent=1))
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": len(sent),
                      "failed": sum(r.status != "done" for r in sent),
                      "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

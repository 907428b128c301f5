"""The service under test and the closed-loop HTTP clients that drive it.

The server is the real ``python -m repro.cli serve`` process.  Each client
thread sends one request, follows the job's NDJSON event stream until the
terminal frame (no polling), fetches the result, and only then sends again.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.api import TERMINAL_FRAME_KINDS

from workloads import Item, Schedule

#: Seconds a client waits for one request before counting it as timed out.
REQUEST_TIMEOUT_S = 60.0


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _call(port: int, method: str, path: str, body: Optional[bytes] = None,
          timeout: float = REQUEST_TIMEOUT_S) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Server:
    """One ``serve`` process with a fresh sqlite store under *work_dir*."""

    def __init__(self, src_dir: Path, work_dir: Path):
        self.port = _free_port()
        store = work_dir / f"store-{self.port}.sqlite"
        self.argv = [
            sys.executable, "-m", "repro.cli", "serve",
            "--workers", "2", "--store", f"sqlite:{store}",
            "--port", str(self.port), "--log-level", "warning",
        ]
        env = dict(os.environ, PYTHONPATH=str(src_dir))
        self._log = open(work_dir / f"server-{self.port}.log", "wb")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            self.argv, env=env, stdout=self._log, stderr=subprocess.STDOUT)
        try:
            self.setup_s = self._wait_healthy(started)
        except BaseException:
            self.stop()
            raise

    def _wait_healthy(self, started: float) -> float:
        deadline = started + 60.0
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with code {self.process.returncode}")
            try:
                status, _ = _call(self.port, "GET", "/healthz", timeout=1.0)
            except OSError:
                status = 0
            if status == 200:
                return time.perf_counter() - started
            time.sleep(0.005)
        raise RuntimeError("server did not become healthy within 60 s")

    def get(self, path: str) -> bytes:
        status, body = _call(self.port, "GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return body

    def snapshot(self) -> Dict[str, object]:
        """``/healthz`` plus the ``/metrics`` counters, flattened."""
        return {"healthz": json.loads(self.get("/healthz")),
                "metrics": parse_prometheus(self.get("/metrics").decode())}

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGINT)
                try:
                    self.process.wait(timeout=20)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait()
        finally:
            self._log.close()


def parse_prometheus(text: str) -> Dict[str, float]:
    """``{"name{labels}": value}`` for every sample line."""
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.rpartition(" ")
            samples[key] = float(value)
    return samples


def metric_total(samples: Dict[str, float], name: str) -> float:
    """Sum of a counter over all its label sets."""
    return sum(value for key, value in samples.items()
               if key == name or key.startswith(name + "{"))


@dataclass
class Record:
    """What happened to one request."""

    item: Item
    sent_at: float
    status: str = "failed"  # done | failed | refused | timeout
    done_at: float = 0.0
    cache_hit: bool = False
    job_id: str = ""
    body: bytes = b""
    error: str = ""
    #: Set when the answer arrived but failed a correctness check.
    check_failed: bool = False
    #: Set when the event stream closed before its terminal frame.
    stream_closed_early: bool = False
    #: Per-call timings and the server's job view, recorded when traced.
    phases: Dict[str, float] = field(default_factory=dict)
    job: Optional[dict] = None

    @property
    def latency_s(self) -> float:
        return self.done_at - self.sent_at


def _follow_events(port: int, job_id: str, deadline: float) -> str:
    """Block on the job's event stream; return the terminal frame kind, or
    ``""`` when the stream ends without one."""
    timeout = max(0.1, deadline - time.perf_counter())
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", f"/v1/jobs/{job_id}/events")
        response = conn.getresponse()
        if response.status != 200:
            raise RuntimeError(f"event stream answered {response.status}")
        while True:
            line = response.readline()
            if not line:
                return ""
            kind = json.loads(line).get("kind")
            if kind in TERMINAL_FRAME_KINDS:
                return kind
            if time.perf_counter() > deadline:
                raise socket.timeout("no terminal frame before the deadline")
    finally:
        conn.close()


def send(port: int, item: Item, traced: bool) -> Record:
    """Send one request and wait for its result body."""
    record = Record(item, time.perf_counter())
    deadline = record.sent_at + REQUEST_TIMEOUT_S
    try:
        status, raw = _call(port, "POST", "/v1/explain", item.body)
        submitted = time.perf_counter()
        if status == 429:
            record.status = "refused"
            return record
        if status not in (200, 202):
            record.error = f"POST answered {status}: {raw[:200]!r}"
            return record
        view = json.loads(raw)
        record.job_id = view["id"]
        record.cache_hit = bool(view["cache_hit"])
        if view["state"] != "done":
            kind = _follow_events(port, record.job_id, deadline)
            if not kind:
                # The stream ended without its terminal frame; the job view
                # says whether the job is over.
                record.stream_closed_early = True
                state = json.loads(_call(port, "GET", f"/v1/jobs/{record.job_id}")[1])["state"]
                kind = "failed" if state in ("failed", "queued", "running") else "completed"
            if kind != "completed":
                record.error = f"job ended with a {kind!r} frame"
                return record
        waited = time.perf_counter()
        status, record.body = _call(
            port, "GET", f"/v1/jobs/{record.job_id}/result",
            timeout=max(0.1, deadline - time.perf_counter()))
        record.done_at = time.perf_counter()
        if status != 200:
            record.error = f"result answered {status}: {record.body[:200]!r}"
            return record
        record.status = "done"
        if traced:
            record.phases = {"submit_s": submitted - record.sent_at,
                             "result_s": record.done_at - waited}
            record.job = json.loads(_call(port, "GET", f"/v1/jobs/{record.job_id}")[1])
    except socket.timeout:
        record.status = "timeout"
    except (OSError, ValueError, KeyError, RuntimeError,
            http.client.HTTPException) as error:
        record.error = f"{type(error).__name__}: {error}"
    return record


def closed_loop(port: int, schedule: Schedule, clients: int, seconds: float,
                traced: bool) -> Tuple[List[Record], float]:
    """Run *clients* closed-loop clients for *seconds*; requests in flight
    when the window closes run to completion.  Returns the window's records
    (cold requests and replays, by index) and the elapsed wall time from the
    first send to the last answer."""
    records: List[Record] = []
    lock = threading.Lock()
    started = time.perf_counter()
    deadline = started + seconds

    def client() -> None:
        while True:
            item = schedule.take(deadline)
            if item is None:
                return
            record = send(port, item, traced)
            with lock:
                records.append(record)

    threads = [threading.Thread(target=client, name=f"client-{n}")
               for n in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    finished = max([r.done_at for r in records if r.status == "done"],
                   default=time.perf_counter())
    records.sort(key=lambda r: r.item.index)
    return records, finished - started

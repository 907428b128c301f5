"""Benchmark inputs: every request body is a pure function of the seed.

Each workload is a list of :class:`Pair` objects (a generated problem
instance with its ground-truth reference explanation, rendered as CSV) and a
:class:`Schedule` that hands the closed-loop clients their next request.
The server only ever sees the generated CSV and JSON.
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.datagen import GeneratedInstance, generate_problem_instance
from repro.datagen.datasets import load_dataset
from repro.dataio import to_csv_text

#: The paper's evaluation protocol difficulty (Section 5.1).
ETA = 0.3
TAU = 0.3

#: (dataset, records) cycles.  The cycle is fixed, so every seed sends the
#: same mix of sizes and widths; the seed changes the records, the noise and
#: the sampled transformations.  The cold mix keeps single searches between
#: about 0.4 and 0.9 s, so a window holds enough answers for a tail and one
#: slow pair does not move the median.
COLD_CYCLE = (
    ("ncvoter-1k", 700),    # 16 attributes
    ("nursery", 2000),      # 10
    ("chess", 1000),        # 8
    ("adult", 500),         # 15
    ("balance", 600),       # 6
    ("breast-cancer", 699),  # 11
)
#: The pair whose replays time the cache-hit path.  It is answered once
#: before the window; during it, every ``REPLAY_EVERY``-th request a client
#: sends is a replay of it.  The replays are spread over the window because
#: the host's speed shifts for seconds at a time, and they ride in the single
#: client's own loop, so no search runs beside them.
PROBE_PAIR = ("nursery", 2000)
REPLAY_EVERY = 4
#: One 250 ms budget, one pair the full search answers well within 1000 ms,
#: and four it cannot finish in 1000 ms: the median and the tail both fall
#: among the deadline-bound answers, whichever way a partial cycle ends.
BUDGET_CYCLE = (
    ("chess", 800, 250.0),
    ("nursery", 600, 1000.0),
    ("flight-500k", 1000, 1000.0),
    ("letter", 900, 1000.0),
    ("flight-500k", 700, 1000.0),
    ("letter", 700, 1000.0),
)


@dataclass
class Pair:
    """One generated snapshot pair and the fields its requests carry."""

    index: int
    dataset: str
    generated: GeneratedInstance
    source_csv: str
    target_csv: str
    budget_ms: Optional[float] = None

    def fields(self) -> Dict[str, object]:
        """The request body as a dict in canonical key order."""
        body: Dict[str, object] = {}
        if self.budget_ms is not None:
            body["schema_version"] = "affidavit.request/v2"
            body["budget"] = {"deadline_ms": self.budget_ms}
        body["source_csv"] = self.source_csv
        body["target_csv"] = self.target_csv
        body["config"] = "hid"
        body["name"] = f"{self.dataset}-{self.index}"
        return body

    def body(self) -> bytes:
        return json.dumps(self.fields()).encode()

    def shuffled_body(self, rng: random.Random) -> bytes:
        """The same request with its JSON keys in another order."""
        fields = list(self.fields().items())
        rng.shuffle(fields)
        return json.dumps(dict(fields)).encode()


def _pair(index: int, dataset: str, records: int, seed: int,
          budget_ms: Optional[float] = None) -> Pair:
    pair_seed = int.from_bytes(
        hashlib.sha256(f"{seed}:{index}".encode()).digest()[:4], "big")
    table = load_dataset(dataset, records, seed=pair_seed)
    generated = generate_problem_instance(
        table, eta=ETA, tau=TAU, seed=pair_seed, name=dataset)
    instance = generated.instance
    return Pair(index, dataset, generated,
                to_csv_text(instance.source), to_csv_text(instance.target),
                budget_ms)


@dataclass
class Item:
    """One request a client sends."""

    index: int
    pair: Pair
    kind: str  # "cold" or "replay"
    body: bytes


class Schedule:
    """Hands out each pair once, in order, until the window closes; every
    ``REPLAY_EVERY``-th request is instead a replay of *probe* with its JSON
    keys in a new order."""

    def __init__(self, pairs: List[Pair], probe: Pair):
        self.pairs = pairs
        self.probe = probe
        self._next = 0
        self._taken = 0
        self._rng = random.Random(f"{probe.index}:replay")
        self._lock = threading.Lock()

    def take(self, deadline: float) -> Optional[Item]:
        with self._lock:
            if time.perf_counter() >= deadline:
                return None
            self._taken += 1
            if self._taken % REPLAY_EVERY == 0:
                # Replays are numbered after the probe's own cold index.
                return Item(self.probe.index + self._taken, self.probe, "replay",
                            self.probe.shuffled_body(self._rng))
            index = self._next
            if index >= len(self.pairs):
                return None
            self._next += 1
        pair = self.pairs[index]
        return Item(index, pair, "cold", pair.body())


@dataclass
class Workload:
    clients: int
    pairs: List[Pair]
    #: Length of the fixed dataset cycle the pairs follow.
    cycle: int
    #: Answered once before the window, then replayed during it.
    probe: Pair

    def schedule(self) -> Schedule:
        return Schedule(self.pairs, self.probe)

    def inputs_sha256(self) -> str:
        """sha256 over every request body the window can send, in order,
        then the probe pair's (its replays only reorder its JSON keys)."""
        digest = hashlib.sha256()
        for pair in self.pairs + [self.probe]:
            digest.update(pair.body())
        return digest.hexdigest()


def build(name: str, seed: int, seconds: float) -> Workload:
    """Generate the inputs of workload *name*: more distinct pairs than a
    window of *seconds* can use at twice the measured request rate.  Both
    workloads have one client, so every latency is one request's alone."""
    count = int(seconds * 2) + 8
    probe = _pair(count, *PROBE_PAIR, seed)
    if name == "cold_explain":
        pairs = [_pair(i, *COLD_CYCLE[i % len(COLD_CYCLE)], seed)
                 for i in range(count)]
        return Workload(1, pairs, len(COLD_CYCLE), probe)
    if name == "budgeted":
        pairs = []
        for i in range(count):
            dataset, records, budget = BUDGET_CYCLE[i % len(BUDGET_CYCLE)]
            pairs.append(_pair(i, dataset, records, seed, budget))
        return Workload(1, pairs, len(BUDGET_CYCLE), probe)
    raise ValueError(f"unknown workload {name!r}")

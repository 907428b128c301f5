"""The coverage-guided fuzzing loop: seed → mutate → execute → keep/minimize.

One :class:`FuzzRunner` run is a seeded, time-boxed loop.  Each iteration
picks a corpus input (a snapshot pair or a request payload), mutates it,
executes it against the scheduled oracles under line coverage, and:

* keeps the mutant in the in-memory corpus when it reached *new* code — the
  coverage-guided part, following the enterprise DBMS fuzzing practice of
  arXiv:2103.00804;
* on an oracle failure, delta-debugs snapshot inputs down to a minimal
  repro, records a :class:`Finding`, and (when a corpus root is configured)
  saves a replayable entry under ``findings/``.

Everything is deterministic for a given ``(seed, time budget is generous
enough)`` pair except wall-clock cutoff points; ``max_execs`` gives exact
reproducibility when needed.  Metrics are exported through ``repro.obs``:
``repro_fuzz_execs_total``, ``repro_fuzz_coverage_edges_total`` and
``repro_fuzz_findings_total``.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..dataio import Table
from ..dataio.schema import Schema
from ..obs import get_registry
from .corpus import (
    FINDINGS_DIR,
    KIND_PAYLOAD,
    KIND_SNAPSHOT,
    CorpusEntry,
    SnapshotPair,
    load_corpus,
    save_entry,
)
from .coverage import LineCollector, NullCollector
from .minimizer import MinimizationResult, minimize_pair
from .mutators import mutate_pair, mutate_payload
from .oracles import (
    OracleFailure,
    PAYLOAD_ORACLES,
    SNAPSHOT_ORACLES,
    ServiceOracle,
)

_metrics = get_registry()
_FUZZ_EXECS = _metrics.counter(
    "repro_fuzz_execs_total",
    "Fuzzing inputs executed, by input kind",
    ("kind",),
)
_FUZZ_COVERAGE_EDGES = _metrics.counter(
    "repro_fuzz_coverage_edges_total",
    "New (file, line) coverage edges discovered while fuzzing",
)
_FUZZ_FINDINGS = _metrics.counter(
    "repro_fuzz_findings_total",
    "Oracle failures found while fuzzing, by oracle",
    ("oracle",),
)

#: Oracle schedule for snapshot inputs: names repeated by weight.  Engine
#: agreement is the core metamorphic oracle and runs most often; the budget
#: oracle is wall-clock-heavy and runs least.
_SNAPSHOT_SCHEDULE: Tuple[str, ...] = (
    "engines_agree", "engines_agree", "engines_agree",
    "bounds_sound", "bounds_sound",
    "codec_roundtrip", "codec_roundtrip",
    "buffer_roundtrip", "buffer_roundtrip",
    "serialization_roundtrip",
    "key_metamorphic",
    "budget_respected",
)


@dataclass(frozen=True)
class FuzzConfig:
    """Knobs of one fuzzing run (all optional; defaults give the CI shard)."""

    time_budget_seconds: float = 30.0
    seed: int = 0
    #: Exact exec cap; ``None`` means "until the time budget runs out".
    max_execs: Optional[int] = None
    #: Where seeds are loaded from and findings saved to (``None`` keeps the
    #: run fully in-memory on the built-in seeds).
    corpus_root: Optional[Path] = None
    #: Keep mutants that reach new lines (the guided part).  Off trades
    #: corpus growth for raw exec throughput.
    coverage_guided: bool = True
    #: Also POST payload inputs at a live in-process HTTP service.
    check_service: bool = False
    #: Delta-debug failing snapshot pairs before recording them.
    minimize: bool = True
    max_minimize_tests: int = 300
    #: Stop early after this many distinct findings (a broken build fails
    #: fast instead of spending the whole budget minimizing variants).
    max_findings: int = 5
    #: Fraction of execs spent on payload inputs rather than snapshot pairs.
    payload_ratio: float = 0.25


@dataclass(frozen=True)
class Finding:
    """One oracle failure, minimized and replayable."""

    oracle: str
    message: str
    entry: CorpusEntry
    minimization: Optional[MinimizationResult] = None
    saved_path: Optional[Path] = None

    def describe(self) -> str:
        text = f"{self.oracle}: {self.message}"
        if self.minimization is not None:
            text += f" ({self.minimization.describe()})"
        if self.saved_path is not None:
            text += f" -> {self.saved_path}"
        return text


@dataclass
class FuzzReport:
    """What one run did: throughput, coverage, corpus growth, findings."""

    seed: int
    execs: int = 0
    snapshot_execs: int = 0
    payload_execs: int = 0
    coverage_lines: int = 0
    corpus_size: int = 0
    kept_inputs: int = 0
    elapsed_seconds: float = 0.0
    findings: List[Finding] = field(default_factory=list)
    coverage_backend: str = "off"

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        lines = [
            f"fuzz: {self.execs} execs "
            f"({self.snapshot_execs} snapshot / {self.payload_execs} payload) "
            f"in {self.elapsed_seconds:.1f}s, seed {self.seed}",
            f"coverage: {self.coverage_lines} lines "
            f"({self.coverage_backend}), corpus {self.corpus_size} "
            f"(+{self.kept_inputs} kept)",
            f"findings: {len(self.findings)}",
        ]
        for finding in self.findings:
            lines.append(f"  - {finding.describe()}")
        return "\n".join(lines)


# ---------------------------------------------------------------------- #
# built-in seeds
# ---------------------------------------------------------------------- #
def _table(attributes: Sequence[str], rows: Sequence[Sequence[str]]) -> Table:
    return Table(Schema(tuple(attributes)), rows)


def builtin_seed_entries() -> List[CorpusEntry]:
    """The always-available seed corpus: small pairs spanning the running
    example's shape, numeric/text/missing mixes, and a valid wire payload."""
    running = SnapshotPair(
        source=_table(
            ("Name", "Val", "Mod"),
            [("Smith", "1000", "air"), ("Miller", "2000", "air"),
             ("Johnson", "1000", "sea"), ("Brown", "3000", "sea")],
        ),
        target=_table(
            ("Name", "Val", "Mod"),
            [("SMITH", "1", "air"), ("MILLER", "2", "air"),
             ("JOHNSON", "1", "sea"), ("DAVIS", "4", "air")],
        ),
    )
    mixed = SnapshotPair(
        source=_table(
            ("Id", "Note"),
            [("1", "alpha"), ("2", ""), ("3", "NULL"), ("4", "Straße")],
        ),
        target=_table(
            ("Id", "Note"),
            [("1", "ALPHA"), ("2", "?"), ("5", "béta")],
        ),
    )
    lopsided = SnapshotPair(
        source=_table(("K",), [("same",), ("same",), ("same",)]),
        target=_table(("K",), [("same",)]),
    )
    request_payload = json.dumps({
        "schema_version": "affidavit.request/v1",
        "source_csv": "A,B\n1,x\n2,y\n",
        "target_csv": "A,B\n1,X\n3,z\n",
        "config": "hid",
        "overrides": {"seed": 0, "max_expansions": 50},
        "engine": "columnar",
    })
    return [
        CorpusEntry.from_pair(running, name="builtin-running"),
        CorpusEntry.from_pair(mixed, name="builtin-mixed"),
        CorpusEntry.from_pair(lopsided, name="builtin-lopsided"),
        CorpusEntry.from_payload(request_payload, name="builtin-request"),
    ]


# ---------------------------------------------------------------------- #
# the loop
# ---------------------------------------------------------------------- #
class FuzzRunner:
    """One configured fuzzing loop; :meth:`run` executes it to completion."""

    def __init__(self, config: Optional[FuzzConfig] = None, *,
                 log: Optional[Callable[[str], None]] = None):
        self.config = config if config is not None else FuzzConfig()
        self._log = log if log is not None else (lambda message: None)
        self._service: Optional[ServiceOracle] = None

    # -------------------------------------------------------------- #
    # corpus handling
    # -------------------------------------------------------------- #
    def _load_seeds(self) -> List[CorpusEntry]:
        entries = builtin_seed_entries()
        root = self.config.corpus_root
        if root is not None and Path(root).exists():
            for entry in load_corpus(Path(root)):
                entries.append(entry)
        return entries

    # -------------------------------------------------------------- #
    # execution of one input
    # -------------------------------------------------------------- #
    def _snapshot_oracle_for(self, rng: random.Random,
                             entry: CorpusEntry) -> str:
        if entry.oracles:
            return rng.choice(list(entry.oracles))
        return rng.choice(_SNAPSHOT_SCHEDULE)

    def _run_snapshot_oracle(self, oracle: str, pair: SnapshotPair,
                             seed: int) -> Optional[OracleFailure]:
        check = SNAPSHOT_ORACLES[oracle]
        try:
            check(pair, seed=seed)
        except OracleFailure as failure:
            return failure
        return None

    def _run_payload_oracles(self, payload_text: str) -> Optional[OracleFailure]:
        for oracle in PAYLOAD_ORACLES.values():
            try:
                oracle(payload_text)
            except OracleFailure as failure:
                return failure
        if self.config.check_service:
            if self._service is None:
                self._service = ServiceOracle()
            try:
                self._service.check(payload_text)
            except OracleFailure as failure:
                return failure
        return None

    # -------------------------------------------------------------- #
    # findings
    # -------------------------------------------------------------- #
    def _record_snapshot_finding(self, failure: OracleFailure,
                                 pair: SnapshotPair, seed: int,
                                 provenance: Tuple[str, ...],
                                 report: FuzzReport) -> None:
        minimization: Optional[MinimizationResult] = None
        if self.config.minimize:
            oracle = failure.oracle.split(":", 1)[0]
            check = SNAPSHOT_ORACLES.get(oracle)
            if check is not None:
                def still_fails(candidate: SnapshotPair) -> bool:
                    try:
                        check(candidate, seed=seed)
                    except OracleFailure:
                        return True
                    except Exception:  # noqa: BLE001 - malformed candidates
                        return False
                    return False

                minimization = minimize_pair(
                    pair, still_fails, max_tests=self.config.max_minimize_tests
                )
                pair = minimization.pair
        entry = CorpusEntry.from_pair(
            pair, seed=seed, oracles=(failure.oracle,),
            note=failure.message, provenance=provenance,
        )
        self._record_finding(failure, entry, minimization, report)

    def _record_payload_finding(self, failure: OracleFailure,
                                payload_text: str, seed: int,
                                provenance: Tuple[str, ...],
                                report: FuzzReport) -> None:
        entry = CorpusEntry.from_payload(
            payload_text, seed=seed, oracles=(failure.oracle,),
            note=failure.message, provenance=provenance,
        )
        self._record_finding(failure, entry, None, report)

    def _record_finding(self, failure: OracleFailure, entry: CorpusEntry,
                        minimization: Optional[MinimizationResult],
                        report: FuzzReport) -> None:
        if any(existing.entry == entry for existing in report.findings):
            return
        saved_path: Optional[Path] = None
        root = self.config.corpus_root
        if root is not None:
            saved_path = save_entry(entry, Path(root) / FINDINGS_DIR)
        finding = Finding(
            oracle=failure.oracle, message=failure.message, entry=entry,
            minimization=minimization, saved_path=saved_path,
        )
        report.findings.append(finding)
        _FUZZ_FINDINGS.inc(oracle=failure.oracle.split(":", 1)[0])
        self._log(f"FINDING {finding.describe()}")

    # -------------------------------------------------------------- #
    # the run
    # -------------------------------------------------------------- #
    def run(self) -> FuzzReport:
        config = self.config
        rng = random.Random(config.seed)
        report = FuzzReport(seed=config.seed)
        population = self._load_seeds()
        report.corpus_size = len(population)
        snapshots = [e for e in population if e.kind == KIND_SNAPSHOT]
        payloads = [e for e in population if e.kind == KIND_PAYLOAD]
        seen_lines: Set[Tuple[str, int]] = set()
        collector_factory = (
            LineCollector if config.coverage_guided else NullCollector
        )
        probe = collector_factory()
        report.coverage_backend = probe.backend
        started = time.perf_counter()
        deadline = started + config.time_budget_seconds
        try:
            while True:
                if config.max_execs is not None and report.execs >= config.max_execs:
                    break
                if config.max_execs is None and time.perf_counter() >= deadline:
                    break
                if len(report.findings) >= config.max_findings:
                    self._log(f"stopping early: {config.max_findings} findings")
                    break
                run_payload = payloads and (
                    not snapshots or rng.random() < config.payload_ratio
                )
                if run_payload:
                    entry = rng.choice(payloads)
                    mutated_text, chain = mutate_payload(entry.payload_text, rng)
                    report.execs += 1
                    report.payload_execs += 1
                    _FUZZ_EXECS.inc(kind=KIND_PAYLOAD)
                    failure = self._run_payload_oracles(mutated_text)
                    if failure is not None:
                        self._record_payload_finding(
                            failure, mutated_text, config.seed,
                            (entry.name,) + chain, report,
                        )
                    continue
                entry = rng.choice(snapshots)
                try:
                    base_pair = entry.pair()
                    mutated, chain = mutate_pair(base_pair, rng)
                except Exception:  # noqa: BLE001 - unbuildable seeds are skipped
                    continue
                oracle = self._snapshot_oracle_for(rng, entry)
                report.execs += 1
                report.snapshot_execs += 1
                _FUZZ_EXECS.inc(kind=KIND_SNAPSHOT)
                collector = collector_factory()
                with collector:
                    failure = self._run_snapshot_oracle(
                        oracle, mutated, config.seed
                    )
                new_lines = collector.lines - seen_lines
                if new_lines:
                    seen_lines |= new_lines
                    _FUZZ_COVERAGE_EDGES.inc(len(new_lines))
                if failure is not None:
                    self._record_snapshot_finding(
                        failure, mutated, config.seed,
                        (entry.name,) + chain, report,
                    )
                elif new_lines and config.coverage_guided:
                    kept = CorpusEntry.from_pair(
                        mutated, seed=config.seed,
                        provenance=(entry.name,) + chain,
                    ).named(f"kept-{report.execs}")
                    snapshots.append(kept)
                    report.kept_inputs += 1
        finally:
            if self._service is not None:
                self._service.close()
                self._service = None
        report.elapsed_seconds = time.perf_counter() - started
        report.coverage_lines = len(seen_lines)
        report.corpus_size = len(snapshots) + len(payloads)
        return report


# ---------------------------------------------------------------------- #
# corpus replay (what the pytest suite runs)
# ---------------------------------------------------------------------- #
def replay_entry(entry: CorpusEntry, *,
                 service: Optional[ServiceOracle] = None) -> List[OracleFailure]:
    """Re-execute one corpus entry against its oracles (all applicable ones
    when the entry does not name any).  Returns the failures, empty = pass."""
    failures: List[OracleFailure] = []
    if entry.kind == KIND_SNAPSHOT:
        pair = entry.pair()
        names = [name.split(":", 1)[0] for name in entry.oracles]
        oracles = [SNAPSHOT_ORACLES[n] for n in names if n in SNAPSHOT_ORACLES]
        if not oracles:
            oracles = list(SNAPSHOT_ORACLES.values())
        for check in oracles:
            try:
                check(pair, seed=entry.seed)
            except OracleFailure as failure:
                failures.append(failure)
    else:
        for check in PAYLOAD_ORACLES.values():
            try:
                check(entry.payload_text)
            except OracleFailure as failure:
                failures.append(failure)
        if service is not None:
            try:
                service.check(entry.payload_text)
            except OracleFailure as failure:
                failures.append(failure)
    return failures


def replay_corpus(root: Path, *,
                  include_service: bool = False) -> Dict[str, List[OracleFailure]]:
    """Replay every committed entry under *root*; maps entry name to its
    failures (only failing entries appear in the result)."""
    results: Dict[str, List[OracleFailure]] = {}
    service = ServiceOracle() if include_service else None
    try:
        for entry in load_corpus(Path(root)):
            failures = replay_entry(entry, service=service)
            if failures:
                results[entry.name] = failures
    finally:
        if service is not None:
            service.close()
    return results


__all__ = [
    "Finding",
    "FuzzConfig",
    "FuzzReport",
    "FuzzRunner",
    "builtin_seed_entries",
    "replay_corpus",
    "replay_entry",
]

"""Induction of candidate attribute functions from noisy input–output examples.

Section 4.4.2 of the paper: for an attribute, sample up to ``k`` distinct
target records from blocks that contain both source and target records and try
to produce each sampled target value from *any* source value in the same
block.  Every meta-function instantiation consistent with at least one such
example becomes a candidate; candidates that were generated fewer times than
a binomial significance test requires are filtered out.

This module provides the per-example induction and the aggregation /
filtering; the sampling of blocks lives in :mod:`repro.core.extension` because
it depends on the search state.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .base import AttributeFunction
from .registry import FunctionRegistry


class InductionMemo:
    """Memo of per-example induction results as dense function ids.

    ``meta.induce(source_value, target_value)`` is deterministic and the same
    value pairs recur across blocks, examples and — most importantly — search
    states, so the candidates of a pair can be reused wherever the same
    registry is in play.  One memo must therefore only ever be used with a
    single registry; the state expander owns one per search.

    Every distinct induced function gets a dense ``int`` id on first sight
    (:meth:`function` maps it back), and a value pair is cached as the tuple
    of its candidates' ids in registry order.  Counting candidates then
    hashes small ints instead of calling ``AttributeFunction.__hash__``.

    The pair cache is cleared wholesale once it exceeds *max_entries* —
    simpler than LRU bookkeeping and good enough for a structure that exists
    for the lifetime of one search.  Ids are never recycled, so ids handed
    out before a clear stay valid; the id table holds each distinct function
    once.
    """

    __slots__ = ("_pairs", "_ids", "_functions", "_max_entries", "hits", "misses")

    def __init__(self, max_entries: int = 262_144):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._pairs: Dict[Tuple[str, str], Tuple[int, ...]] = {}
        self._ids: Dict[AttributeFunction, int] = {}
        self._functions: List[AttributeFunction] = []
        self._max_entries = max_entries
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._pairs)

    def function(self, function_id: int) -> AttributeFunction:
        """The function behind *function_id*."""
        return self._functions[function_id]

    def example_ids(self, registry: FunctionRegistry,
                    source_values: Sequence[str],
                    target_value: str) -> Tuple[int, ...]:
        """Ids of the candidates one example generates, each once, in
        first-generation order — the order :meth:`CandidatePool.add_example`
        records them in, with *source_values* tried in the given order."""
        keys = list(zip(source_values, repeat(target_value)))
        found = list(map(self._pairs.get, keys))
        missing = found.count(None)
        self.hits += len(found) - missing
        if missing:
            for position, ids in enumerate(found):
                if ids is None:
                    found[position] = self._induce(registry, keys[position])
        return tuple(dict.fromkeys(chain.from_iterable(found)))

    def _induce(self, registry: FunctionRegistry,
                key: Tuple[str, str]) -> Tuple[int, ...]:
        """Induce one value pair, assign ids to new functions, cache it."""
        self.misses += 1
        ids = self._ids
        functions = self._functions
        induced = []
        for meta in registry:
            for function in meta.induce(*key):
                function_id = ids.get(function)
                if function_id is None:
                    ids[function] = function_id = len(functions)
                    functions.append(function)
                induced.append(function_id)
        if len(self._pairs) >= self._max_entries:
            self._pairs.clear()
        self._pairs[key] = cached = tuple(induced)
        return cached


@dataclass
class CandidateStats:
    """Bookkeeping for one candidate function during induction."""

    function: AttributeFunction
    generation_count: int = 0
    examples: List[Tuple[str, str]] = field(default_factory=list)

    def record(self, source_value: str, target_value: str) -> None:
        self.generation_count += 1
        if len(self.examples) < 5:
            self.examples.append((source_value, target_value))


class CandidatePool:
    """Accumulates candidate functions over many induction examples."""

    def __init__(self) -> None:
        self._stats: Dict[AttributeFunction, CandidateStats] = {}
        self._examples_seen = 0

    @property
    def examples_seen(self) -> int:
        """Number of (target value, block) induction examples processed."""
        return self._examples_seen

    @property
    def candidates(self) -> List[AttributeFunction]:
        return list(self._stats)

    def stats_for(self, function: AttributeFunction) -> Optional[CandidateStats]:
        return self._stats.get(function)

    def generation_counts(self) -> Counter:
        """Histogram ``function -> number of examples that generated it``."""
        return Counter({f: s.generation_count for f, s in self._stats.items()})

    def add_example(self, registry: FunctionRegistry, source_values: Sequence[str],
                    target_value: str) -> None:
        """Induce candidates for one sampled target value.

        Every source value of the target's block is tried as the input half of
        the example, but each candidate is counted at most once per example so
        that large blocks do not dominate the significance statistics.
        """
        self._examples_seen += 1
        generated_here = set()
        for source_value in source_values:
            for meta in registry:
                for function in meta.induce(source_value, target_value):
                    if function in generated_here:
                        continue
                    generated_here.add(function)
                    stats = self._stats.get(function)
                    if stats is None:
                        stats = CandidateStats(function)
                        self._stats[function] = stats
                    stats.record(source_value, target_value)

    def filtered(self, min_generation_count: int) -> List[AttributeFunction]:
        """Candidates generated at least *min_generation_count* times."""
        return [
            stats.function
            for stats in self._stats.values()
            if stats.generation_count >= min_generation_count
        ]

    def __len__(self) -> int:
        return len(self._stats)


def induce_candidates(registry: FunctionRegistry,
                      examples: Iterable[Tuple[Sequence[str], str]],
                      *, min_generation_count: int = 1) -> List[AttributeFunction]:
    """Convenience wrapper: induce and filter candidates from explicit examples.

    Parameters
    ----------
    registry:
        The meta functions to instantiate.
    examples:
        Iterable of ``(source values of the block, sampled target value)``.
    min_generation_count:
        Minimum number of examples a candidate must be generated from to
        survive filtering (Section 4.4.2's significance threshold).
    """
    pool = CandidatePool()
    for source_values, target_value in examples:
        pool.add_example(registry, source_values, target_value)
    return pool.filtered(min_generation_count)

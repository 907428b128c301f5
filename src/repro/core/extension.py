"""Extending search states: candidate induction, ranking and the map fallback.

This module implements the ``Extensions`` procedure of Algorithm 1 together
with its two sub-routines (Sections 4.3 and 4.4):

1. **Attribute selection** — undecided attributes are ordered by their
   *indeterminacy* (the maximum number of distinct source values over all
   mixed blocks); the ``β`` most determined ones are tried first.
2. **Candidate induction** — up to ``k`` target records are sampled from mixed
   blocks; every meta-function instantiation consistent with producing the
   sampled target value from *some* source value of the same block becomes a
   candidate; candidates generated fewer times than the binomial significance
   threshold are discarded.
3. **Candidate ranking** — candidates are scored by their value-histogram
   overlap on the blocks of ``k'`` sampled source records (Cochran's formula)
   minus their description length; the best ``β`` survive.
4. **Greedy-map benchmark** — every surviving candidate must lead to a cheaper
   state than extending the attribute with a greedy value mapping built from a
   block-respecting random alignment; attributes where nothing beats the map
   are earmarked for a value mapping (``MAP_MARKER``).
5. **Finalisation** — when every undecided attribute is earmarked, the state
   is finalised by resolving the markers one after another with greedy maps,
   re-sampling the alignment after each resolution.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..functions import AttributeFunction
from ..functions.induction import CandidatePool, InductionMemo
from ..obs import Tracer, ensure_tracer
from ..linking.alignment import AlignmentPairs, induce_greedy_mapping, sample_random_alignment
from ..linking.histogram import (
    PackedBlockHistograms,
    block_overlap,
    indexed_histogram,
    restricted_overlap,
)
from .blocking import (
    Block,
    BlockingResult,
    build_blocking,
    refine_blocking,
    refine_blocking_bounds,
)
from .config import AffidavitConfig
from .evaluator import StateEvaluator
from .instance import ProblemInstance
from .sampling import (
    cochran_sample_size,
    example_sample_size,
    generation_threshold,
    sample_concatenated,
)
from .search_state import MAP_MARKER, SearchState


@dataclass(frozen=True)
class Extension:
    """One candidate successor state produced by the expander."""

    state: SearchState
    cost: float
    #: The blocking of the successor (``None`` for finalised end states whose
    #: blocking was not materialised).
    blocking: Optional[BlockingResult]
    #: The attribute that was assigned in this step (``None`` for finalised
    #: states where several markers were resolved at once).
    attribute: Optional[str]


class StateExpander:
    """Produces the successor states of a search state (Algorithm 1)."""

    def __init__(self, instance: ProblemInstance, config: AffidavitConfig,
                 evaluator: StateEvaluator, rng: Optional[random.Random] = None,
                 *, tracer: Optional[Tracer] = None):
        self._instance = instance
        self._config = config
        self._evaluator = evaluator
        self._rng = rng if rng is not None else random.Random(config.seed)
        # Per-phase span sink; the no-op default keeps the hot path free.
        self._tracer = ensure_tracer(tracer)
        self._example_budget = example_sample_size(
            config.theta, config.confidence,
            min_successes=config.min_generation_successes,
        )
        self._ranking_budget = cochran_sample_size(config.theta)
        # Cross-state memo of per-example candidate induction; only the
        # columnar engine uses it (the row-wise fallback stays pre-memoization
        # so benchmarks and equivalence tests compare against the true
        # baseline).  Induction is deterministic per (source, target) value
        # pair, so memoization cannot change the induced candidates.
        self._induction_memo: Optional[InductionMemo] = (
            InductionMemo() if evaluator.columnar else None
        )

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    @property
    def example_budget(self) -> int:
        """Number of target records sampled per attribute for induction (k)."""
        return self._example_budget

    @property
    def ranking_budget(self) -> int:
        """Number of source records sampled per attribute for ranking (k')."""
        return self._ranking_budget

    def expand(self, state: SearchState,
               blocking: Optional[BlockingResult] = None) -> List[Extension]:
        """All successor states of *state* (the ``Extensions`` procedure)."""
        if blocking is None:
            blocking = self._evaluator.blocking(state)
        undecided = state.undecided_attributes
        if not undecided:
            if state.map_marked_attributes:
                return [self._finalize(state)]
            return []

        ordered = self._order_by_indeterminacy(undecided, blocking)
        alignment = sample_random_alignment(blocking, self._rng)

        extensions: List[Extension] = []
        map_candidates: List[str] = []
        cursor = 0
        batch = ordered[: self._config.beta]
        cursor = len(batch)
        should_stop = self._config.should_stop
        while not extensions and batch:
            for attribute in batch:
                if should_stop is not None and should_stop():
                    # Per-attribute induction is the expensive inner phase:
                    # polling here caps the cooperative overshoot at one
                    # attribute instead of one full expansion.  Hand back the
                    # successors found so far; the search loop observes the
                    # stop before its next poll and finalises best-so-far.
                    return extensions
                found = self._extensions_for_attribute(state, blocking, alignment, attribute)
                if found:
                    extensions.extend(found)
                else:
                    map_candidates.append(attribute)
            if extensions or cursor >= len(ordered):
                batch = []
            else:
                batch = [ordered[cursor]]
                cursor += 1

        if extensions:
            return extensions

        # Every undecided attribute is best served by a value mapping: mark
        # them all and finalise the state into an end state.
        marked = state
        for attribute in undecided:
            marked = marked.extend(attribute, MAP_MARKER)
        return [self._finalize(marked)]

    # ------------------------------------------------------------------ #
    # attribute ordering
    # ------------------------------------------------------------------ #
    def _order_by_indeterminacy(self, attributes: Sequence[str],
                                blocking: BlockingResult) -> List[str]:
        """Most determined attribute first (Section 4.3)."""
        scored = [
            (blocking.max_distinct_source_values(self._instance.source, attribute),
             self._instance.schema.index_of(attribute),
             attribute)
            for attribute in attributes
        ]
        scored.sort()
        return [attribute for _, _, attribute in scored]

    # ------------------------------------------------------------------ #
    # per-attribute extension
    # ------------------------------------------------------------------ #
    def _extensions_for_attribute(self, state: SearchState, blocking: BlockingResult,
                                  alignment: AlignmentPairs,
                                  attribute: str) -> List[Extension]:
        """Extensions of *state* on *attribute* that beat the greedy map.

        The greedy map and every ranked candidate are refined against the
        current blocking (through the column cache) and their successor costs
        are scored in one batch; only candidates beating the greedy benchmark
        materialise successor states.
        """
        candidates = self._induce_ranked_candidates(blocking, attribute)
        if not candidates:
            # Nothing to compare against the greedy benchmark; skip building
            # it (no RNG is involved, so the search trajectory is unchanged).
            return []
        with self._tracer.span("greedy_map"):
            greedy_map = induce_greedy_mapping(
                alignment, self._instance.source, self._instance.target, attribute
            )
        functions: List[AttributeFunction] = [greedy_map] + candidates

        # Bounds only: almost every candidate loses to the greedy benchmark,
        # so no refined blocking is materialised here and the few winners
        # are rebuilt below.
        cache = self._evaluator.column_cache
        with self._tracer.span("refine_bounds") as span:
            span.add("functions", len(functions))
            bounds = [
                refine_blocking_bounds(
                    self._instance, blocking, attribute, function, cache
                )
                for function in functions
            ]
        base_length = state.function_description_length
        costs = self._evaluator.batch_costs_from_bounds(
            [base_length + function.description_length for function in functions],
            bounds,
        )

        greedy_cost = costs[0]
        extensions: List[Extension] = []
        for position in range(1, len(functions)):
            cost = costs[position]
            if cost < greedy_cost:
                function = functions[position]
                with self._tracer.span("blocking_refine"):
                    refined = refine_blocking(
                        self._instance, blocking, attribute, function, cache
                    )
                successor = state.extend(attribute, function)
                self._evaluator.remember_blocking(successor, refined)
                extensions.append(
                    Extension(state=successor, cost=cost, blocking=refined, attribute=attribute)
                )
        return extensions

    # ------------------------------------------------------------------ #
    # candidate induction and ranking (Section 4.4)
    # ------------------------------------------------------------------ #
    def _induce_ranked_candidates(self, blocking: BlockingResult,
                                  attribute: str) -> List[AttributeFunction]:
        """The top-β candidate functions for *attribute* under *blocking*."""
        mixed_blocks = blocking.mixed_blocks()
        if not mixed_blocks:
            return []
        with self._tracer.span("induction") as span:
            candidates = self._induce_candidates(mixed_blocks, attribute)
            span.add("candidates", len(candidates))
        if not candidates:
            return []
        should_stop = self._config.should_stop
        if should_stop is not None and should_stop():
            # Ranking transforms whole columns per candidate; once the
            # deadline has passed, skip it and report no viable candidates
            # so the expansion winds down immediately.
            return []
        with self._tracer.span("ranking") as span:
            span.add("candidates", len(candidates))
            ranked = self._rank_candidates(candidates, mixed_blocks, attribute)
        return ranked[: self._config.beta]

    def _induce_candidates(self, mixed_blocks: Sequence[Block],
                           attribute: str) -> List[AttributeFunction]:
        """Sample target records and induce significant candidate functions.

        Sampling draws ``(block, offset)`` pairs directly from the blocks'
        target-record counts (no flattened population list), and per-example
        induction is memoized across states by value pair.
        """
        sizes = [len(block.target_ids) for block in mixed_blocks]
        total = sum(sizes)
        budget = min(self._example_budget, total)
        if budget == 0:
            return []
        sampled = sample_concatenated(self._rng, sizes, budget)

        counts, examples_seen = self._generation_counts(mixed_blocks, attribute, sampled)
        threshold = generation_threshold(
            self._example_budget, examples_seen,
            min_successes=self._config.min_generation_successes,
        )
        return [
            function for function, count in counts if count >= threshold
        ]

    def _generation_counts(
            self, mixed_blocks: Sequence[Block], attribute: str,
            sampled: Sequence[Tuple[int, int]],
    ) -> Tuple[List[Tuple[AttributeFunction, int]], int]:
        """Per-candidate generation counts over the sampled examples.

        The returned pairs come in first-generation order — the order
        :meth:`CandidatePool.filtered` would produce — which downstream
        ranking relies on for stable tie-breaking.

        The columnar engines count function *ids* from the induction memo:
        each sampled example becomes the tuple of ids it generates (memoised
        per block and target value within the call, since sampled examples
        repeat) and one ``Counter.update`` counts it, so the per-candidate
        work runs in C.  The row-wise engine keeps the
        :class:`CandidatePool` reference path.
        """
        source_column = self._instance.source.column_view(attribute)
        target_column = self._instance.target.column_view(attribute)
        registry = self._instance.registry
        memo = self._induction_memo
        pool = CandidatePool() if memo is None else None
        counts: Counter = Counter()
        example_ids: Dict[Tuple[int, str], Tuple[int, ...]] = {}
        block_values: Dict[int, List[str]] = {}
        examples_seen = 0
        should_stop = self._config.should_stop
        for position, (block_index, offset) in enumerate(sampled):
            # Per-example induction is the single most expensive inner loop,
            # so a deadline firing mid-attribute truncates the sample instead
            # of finishing it.  The significance threshold scales with
            # ``examples_seen``, so a truncated sample still yields honest
            # (if fewer) candidates; without a stop hook the loop and the
            # trajectory are unchanged.
            if should_stop is not None and position % 32 == 31 and should_stop():
                break
            block = mixed_blocks[block_index]
            target_value = target_column[block.target_ids[offset]]
            examples_seen += 1
            key = (block_index, target_value)
            ids = example_ids.get(key)
            if ids is None:
                values = block_values.get(block_index)
                if values is None:
                    values = sorted({source_column[source_id] for source_id in block.source_ids})
                    block_values[block_index] = values
                if memo is None:
                    pool.add_example(registry, values, target_value)
                    continue
                example_ids[key] = ids = memo.example_ids(registry, values, target_value)
            counts.update(ids)
        if memo is None:
            return list(pool.generation_counts().items()), examples_seen
        function = memo.function
        return [(function(i), count) for i, count in counts.items()], examples_seen

    def _rank_candidates(self, candidates: Sequence[AttributeFunction],
                         mixed_blocks: Sequence[Block],
                         attribute: str) -> List[AttributeFunction]:
        """Rank candidates by sampled histogram overlap minus description length.

        The columnar engine transforms the whole source column once per
        candidate (served by the column cache, so usually once per *search*)
        and counts per-block histograms by row id; the target histograms are
        shared across all candidates.  The row-wise fallback applies every
        candidate cell by cell per block, as the pre-columnar engine did.
        Both paths produce identical overlap scores and ranking.
        """
        sizes = [len(block.source_ids) for block in mixed_blocks]
        total = sum(sizes)
        budget = min(self._ranking_budget, total)
        sampled = sample_concatenated(self._rng, sizes, budget)

        sampled_block_indices: List[int] = []
        seen = set()
        for block_index, _ in sampled:
            if block_index not in seen:
                seen.add(block_index)
                sampled_block_indices.append(block_index)

        if self._evaluator.columnar:
            scored = self._score_candidates_columnar(
                candidates, mixed_blocks, sampled_block_indices, attribute
            )
        else:
            scored = self._score_candidates_rowwise(
                candidates, mixed_blocks, sampled_block_indices, attribute
            )
        scored.sort(key=lambda item: (-item[0], -item[1]))
        return [candidate for _, _, candidate in scored]

    def _score_candidates_columnar(
            self, candidates: Sequence[AttributeFunction],
            mixed_blocks: Sequence[Block], block_indices: Sequence[int],
            attribute: str) -> List[Tuple[float, int, AttributeFunction]]:
        """Overlap scores via the column cache's value maps.

        Per sampled block, the source values are collapsed into a value
        histogram once; every candidate is then scored per *distinct* value
        through its memoized value map, so a value transformed for any
        earlier candidate-block pair — in this state or a sibling — is never
        pushed through ``apply`` again.  The per-block target histograms are
        likewise computed once and shared by all candidates.

        With dictionary encoding active, the histograms are built over the
        attribute's *code arrays* and indexed once into
        :class:`~repro.linking.histogram.PackedBlockHistograms`, which scores
        each candidate over all blocks at once by pushing only the blocks'
        distinct source codes through its code-to-code map.  The string-keyed
        engine keeps the per-block
        :meth:`ColumnCache.transformed_histograms` path as the reference.
        The counts, and therefore the scores and the ranking, are identical
        either way.
        """
        cache = self._evaluator.column_cache
        blocks = [mixed_blocks[i] for i in block_indices]
        if cache.codes_active:
            source_column: Sequence = cache.source_value_codes(attribute)
            target_column: Sequence = cache.encoded_column(
                attribute, self._instance.target.column_view(attribute)
            )
        else:
            source_column = self._instance.source.column_view(attribute)
            target_column = self._instance.target.column_view(attribute)
        target_histograms = [
            indexed_histogram(target_column, block.target_ids) for block in blocks
        ]
        source_histograms = [
            indexed_histogram(source_column, block.source_ids) for block in blocks
        ]
        if cache.codes_active:
            packed = PackedBlockHistograms(source_histograms, target_histograms)
            code_map = cache.code_map

            def overlap(candidate: AttributeFunction) -> int:
                return packed.overlap(code_map(attribute, candidate))
        else:
            target_keys = [histogram.keys() for histogram in target_histograms]
            distinct_values = list(dict.fromkeys(
                value for histogram in source_histograms for value in histogram
            ))

            def overlap(candidate: AttributeFunction) -> int:
                return restricted_overlap(
                    cache.transformed_histograms(
                        attribute, candidate, source_histograms, distinct_values,
                        restrict_to=target_keys,
                    ),
                    target_histograms,
                )
        return [
            (overlap(candidate) - candidate.description_length, -order, candidate)
            for order, candidate in enumerate(candidates)
        ]

    def _score_candidates_rowwise(
            self, candidates: Sequence[AttributeFunction],
            mixed_blocks: Sequence[Block], block_indices: Sequence[int],
            attribute: str) -> List[Tuple[float, int, AttributeFunction]]:
        """Overlap scores via per-cell application (pre-columnar baseline)."""
        source_column = self._instance.source.column_view(attribute)
        target_column = self._instance.target.column_view(attribute)
        evaluated_blocks = [
            (
                [source_column[source_id] for source_id in mixed_blocks[i].source_ids],
                [target_column[target_id] for target_id in mixed_blocks[i].target_ids],
            )
            for i in block_indices
        ]
        scored: List[Tuple[float, int, AttributeFunction]] = []
        for order, candidate in enumerate(candidates):
            overlap = sum(
                block_overlap(candidate, source_values, target_values)
                for source_values, target_values in evaluated_blocks
            )
            scored.append((overlap - candidate.description_length, -order, candidate))
        return scored

    # ------------------------------------------------------------------ #
    # finalisation of map-marked attributes
    # ------------------------------------------------------------------ #
    def _finalize(self, state: SearchState) -> Extension:
        """Resolve every ``MAP_MARKER`` with a greedy map, one at a time."""
        with self._tracer.span("finalize"):
            return self._finalize_impl(state)

    def finalize_rushed(self, state: SearchState) -> SearchState:
        """Resolve every ``MAP_MARKER`` against a single blocking build.

        The cancelled-search path wants *an* end state now, not the
        marginally better one :meth:`_finalize` gets from re-blocking after
        each resolved marker (k+1 blocking builds for k markers, the
        dominant post-deadline cost).  The caller recomputes the final cost
        from the explanation either way, so only the state is returned.
        """
        with self._tracer.span("finalize_rushed"):
            blocking = build_blocking(
                self._instance, state, self._evaluator.column_cache
            )
            alignment = sample_random_alignment(blocking, self._rng)
            current = state
            for attribute in state.map_marked_attributes:
                mapping = induce_greedy_mapping(
                    alignment, self._instance.source, self._instance.target,
                    attribute,
                )
                current = current.replace(attribute, mapping)
            return current

    def _finalize_impl(self, state: SearchState) -> Extension:
        cache = self._evaluator.column_cache
        current = state
        while True:
            marked = current.map_marked_attributes
            if not marked:
                break
            blocking = build_blocking(self._instance, current, cache)
            alignment = sample_random_alignment(blocking, self._rng)
            attribute = marked[0]
            mapping = induce_greedy_mapping(
                alignment, self._instance.source, self._instance.target, attribute
            )
            current = current.replace(attribute, mapping)
        final_blocking = build_blocking(self._instance, current, cache)
        self._evaluator.remember_blocking(current, final_blocking)
        cost = self._evaluator.cost(current, final_blocking)
        return Extension(state=current, cost=cost, blocking=final_blocking, attribute=None)

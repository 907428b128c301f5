"""Blocking of source and target records under a search state (Defs. 4.3/4.4).

The blocking index of a record is its projection to the attributes whose
functions are already decided; source cells are transformed with those
functions first.  Records sharing an index form a *block* — only records in
the same block can end up aligned in any end state reachable from the current
state, which is what makes the lower bounds :math:`c_t` and :math:`c_s`
(Section 4.5) sound.

Under the encoded columnar engine, blocking keys are **integer fingerprints**
rather than tuples of strings: the column cache dictionary-encodes every
attribute's value domain once (:class:`~repro.core.colcache.AttributeCodec`),
so a fresh build zips per-attribute *code buffers* — packed ``array('i')``
storage served by the cache — into tuples of small ints,
and refining a blocking by one more attribute keys each child block by the
``(parent block, new code)`` integer pair — one list index per record instead
of re-deriving and re-hashing string keys.  The grouping is identical to the
string keys (codecs are per-attribute bijections), so all engines produce the
same blocks in the same first-seen order; the string path remains for the
row-wise fallback and as the benchmark baseline.

Source cells on which an assigned function is not applicable receive a
sentinel component (the reserved
:data:`~repro.core.colcache.NOT_APPLICABLE_CODE` under the encoded engine)
that never matches a target value, so such records are guaranteed to stay
unaligned under this state.

The refinement-heavy consumer — the greedy-map benchmark of the extension
step — uses the *bounds-only* path
(:meth:`BlockingResult.refined_bounds`), which computes the ``(c_t, c_s)``
lower bounds of a refined blocking without materialising any child block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..dataio import Table
from ..functions import AttributeFunction
# NOT_APPLICABLE is re-exported (aliased) for the existing importers of this
# module; the sentinel itself now lives with the column cache.
from .colcache import NOT_APPLICABLE as NOT_APPLICABLE
from .colcache import ColumnCache, apply_with_sentinel
from .instance import ProblemInstance
from .search_state import SearchState

#: A blocking index: a tuple of per-attribute integer codes under the encoded
#: engine (``Tuple[int, ...]`` from a fresh build, ``(parent block, code)``
#: pairs after refinement), a tuple of transformed cell values under the
#: string fallback.  Keys are only ever used for grouping — never compared
#: across blockings — so the two representations are interchangeable.
BlockKey = Tuple[int, ...]


@dataclass
class Block:
    """Source and target row ids sharing one blocking index."""

    source_ids: List[int] = field(default_factory=list)
    target_ids: List[int] = field(default_factory=list)

    @property
    def is_mixed(self) -> bool:
        """True when the block holds both source and target records."""
        return bool(self.source_ids) and bool(self.target_ids)

    @property
    def surplus_targets(self) -> int:
        """Target records that can impossibly be aligned within this block."""
        return max(0, len(self.target_ids) - len(self.source_ids))

    @property
    def surplus_sources(self) -> int:
        """Source records that can impossibly be aligned within this block."""
        return max(0, len(self.source_ids) - len(self.target_ids))

    def __repr__(self) -> str:
        return f"Block({len(self.source_ids)} source, {len(self.target_ids)} target)"


class BlockingResult:
    """The set of blocks :math:`\\Phi_H` of one search state.

    Blocks are effectively frozen once built, so the derived views the search
    polls repeatedly — the mixed-block list and the ``(c_t, c_s)`` bounds —
    are memoized after their first computation.
    """

    __slots__ = ("_blocks", "_mixed", "_bounds")

    def __init__(self, blocks: Dict[BlockKey, Block]):
        self._blocks = blocks
        self._mixed: Optional[List[Block]] = None
        self._bounds: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    @property
    def blocks(self) -> Dict[BlockKey, Block]:
        return self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[Block]:
        return iter(self._blocks.values())

    def mixed_blocks(self) -> List[Block]:
        """Blocks containing both source and target records (memoized;
        treat the returned list as read-only)."""
        if self._mixed is None:
            self._mixed = [block for block in self._blocks.values() if block.is_mixed]
        return self._mixed

    # ------------------------------------------------------------------ #
    # lower bounds of Section 4.5
    # ------------------------------------------------------------------ #
    def unaligned_target_bound(self) -> int:
        """``c_t(H)`` — target records that cannot be aligned under this state."""
        return self.unaligned_bounds()[0]

    def unaligned_source_bound(self) -> int:
        """``c_s(H)`` — source records that cannot be aligned under this state."""
        return self.unaligned_bounds()[1]

    def unaligned_bounds(self) -> Tuple[int, int]:
        """Both lower bounds ``(c_t(H), c_s(H))`` in a single pass (memoized)."""
        if self._bounds is None:
            target_bound = 0
            source_bound = 0
            for block in self._blocks.values():
                n_targets = len(block.target_ids)
                n_sources = len(block.source_ids)
                if n_targets > n_sources:
                    target_bound += n_targets - n_sources
                elif n_sources > n_targets:
                    source_bound += n_sources - n_targets
            self._bounds = (target_bound, source_bound)
        return self._bounds

    # ------------------------------------------------------------------ #
    # statistics used by the extension step
    # ------------------------------------------------------------------ #
    def max_distinct_source_values(self, table: Table, attribute: str) -> int:
        """Indeterminacy estimate of *attribute* (Section 4.3).

        The maximum number of distinct source values of the attribute over all
        mixed blocks: an upper bound on how many source values could be the
        origin of a target value of that attribute.
        """
        column = table.column_view(attribute)
        maximum = 0
        for block in self.mixed_blocks():
            # A block's distinct count is bounded by its size; blocks that
            # cannot beat the current maximum are skipped without building
            # the value set (exact, since only the maximum is reported).
            if len(block.source_ids) <= maximum:
                continue
            distinct = len({column[source_id] for source_id in block.source_ids})
            if distinct > maximum:
                maximum = distinct
        return maximum

    def refine(self, source_components: Sequence,
               target_components: Sequence) -> "BlockingResult":
        """Split every block by one additional key component per record.

        *source_components* / *target_components* give the new component for
        each source / target row id (indexed by row id) — integer code arrays
        under the encoded engine, transformed cell values under the string
        fallback.  Each child block is keyed by the ``(parent block index,
        new component)`` pair: the parent identity stands in for the shared
        key prefix, so refining never re-derives or re-hashes the components
        of already-decided attributes.  Refining is how the search cheaply
        evaluates candidate extensions of an already-blocked state instead of
        re-blocking from scratch.
        """
        refined: Dict[BlockKey, Block] = {}
        for parent_index, block in enumerate(self._blocks.values()):
            for source_id in block.source_ids:
                new_key = (parent_index, source_components[source_id])
                bucket = refined.get(new_key)
                if bucket is None:
                    bucket = Block()
                    refined[new_key] = bucket
                bucket.source_ids.append(source_id)
            for target_id in block.target_ids:
                new_key = (parent_index, target_components[target_id])
                bucket = refined.get(new_key)
                if bucket is None:
                    bucket = Block()
                    refined[new_key] = bucket
                bucket.target_ids.append(target_id)
        return BlockingResult(refined)

    def refined_bounds(self, source_components: Sequence,
                       target_components: Sequence) -> Tuple[int, int]:
        """``(c_t, c_s)`` of :meth:`refine`'s result, without building it.

        The greedy-map benchmark scores every candidate extension by the
        bounds of its refined blocking and discards almost all of them;
        this path answers that query with one signed counter per distinct
        component per block — no child :class:`Block` objects, no id lists.
        Blocks that are pure source (or pure target) stay pure under any
        refinement, so their surplus is added without grouping at all.
        """
        target_bound = 0
        source_bound = 0
        for block in self._blocks.values():
            source_ids, target_ids = block.source_ids, block.target_ids
            if not target_ids:
                source_bound += len(source_ids)
                continue
            if not source_ids:
                target_bound += len(target_ids)
                continue
            surplus: Dict[object, int] = {}
            surplus_get = surplus.get
            for source_id in source_ids:
                component = source_components[source_id]
                surplus[component] = surplus_get(component, 0) + 1
            for target_id in target_ids:
                component = target_components[target_id]
                surplus[component] = surplus_get(component, 0) - 1
            for count in surplus.values():
                if count > 0:
                    source_bound += count
                elif count < 0:
                    target_bound -= count
        return target_bound, source_bound

    def __repr__(self) -> str:
        mixed = len(self.mixed_blocks())
        return f"BlockingResult({len(self._blocks)} blocks, {mixed} mixed)"


def transformed_column(table: Table, attribute: str,
                       function: AttributeFunction) -> List[str]:
    """Apply *function* to one column; inapplicable cells become the sentinel.

    Goes through the function's ``apply_column`` hook, so families with a
    bulk form (identity, value mappings) get it even on the uncached path.
    """
    return apply_with_sentinel(function, table.column_view(attribute))


def blocking_components(instance: ProblemInstance, attribute: str,
                        function: AttributeFunction,
                        cache: Optional[ColumnCache],
                        ) -> Tuple[Sequence, Sequence]:
    """The per-record key components one attribute contributes to blocking.

    Returns ``(source components, target components)``: integer code arrays
    served by the cache's codec under the encoded engine, the transformed
    source column and the raw target column otherwise.  Both refinement paths
    (:func:`refine_blocking` and the bounds-only
    :meth:`BlockingResult.refined_bounds`) consume exactly this pair.
    """
    target_column = instance.target.column_view(attribute)
    if cache is not None and cache.codes_active:
        return (
            cache.transformed_codes(attribute, function),
            cache.encoded_column(attribute, target_column),
        )
    if cache is not None:
        return cache.transformed(attribute, function), target_column
    return transformed_column(instance.source, attribute, function), target_column


def build_blocking(instance: ProblemInstance, state: SearchState,
                   cache: Optional[ColumnCache] = None) -> BlockingResult:
    """Compute :math:`\\Phi_H` from scratch for *state*.

    When *cache* is given, source columns are transformed through the
    column cache, so a function applied once to a column is reused by every
    search state that shares that assignment; with dictionary encoding
    active, the keys are zipped from packed ``array('i')`` code buffers
    instead of string columns, so the lockstep walk below reads raw C ints
    without touching any per-row Python string.
    """
    decided = state.decided_functions
    if not decided:
        block = Block(
            source_ids=list(range(instance.n_source_records)),
            target_ids=list(range(instance.n_target_records)),
        )
        return BlockingResult({(): block})

    attributes = [a for a in instance.schema if a in decided]
    source_columns: List[Sequence] = []
    target_columns: List[Sequence] = []
    for attribute in attributes:
        source_components, target_components = blocking_components(
            instance, attribute, decided[attribute], cache
        )
        source_columns.append(source_components)
        target_columns.append(target_components)

    blocks: Dict[BlockKey, Block] = {}
    # Columnar key building: zip walks all decided columns in lockstep, which
    # is markedly faster than indexing each column per row.
    for source_id, key in enumerate(zip(*source_columns)):
        bucket = blocks.get(key)
        if bucket is None:
            bucket = Block()
            blocks[key] = bucket
        bucket.source_ids.append(source_id)
    for target_id, key in enumerate(zip(*target_columns)):
        bucket = blocks.get(key)
        if bucket is None:
            bucket = Block()
            blocks[key] = bucket
        bucket.target_ids.append(target_id)
    return BlockingResult(blocks)


def refine_blocking(instance: ProblemInstance, blocking: BlockingResult,
                    attribute: str, function: AttributeFunction,
                    cache: Optional[ColumnCache] = None) -> BlockingResult:
    """Refine an existing blocking by additionally deciding one attribute."""
    source_components, target_components = blocking_components(
        instance, attribute, function, cache
    )
    return blocking.refine(source_components, target_components)


def refine_blocking_bounds(instance: ProblemInstance, blocking: BlockingResult,
                           attribute: str, function: AttributeFunction,
                           cache: Optional[ColumnCache] = None) -> Tuple[int, int]:
    """``(c_t, c_s)`` of :func:`refine_blocking`'s result, bounds only.

    The fast path of the greedy-map benchmark: no child blocks are
    materialised (see :meth:`BlockingResult.refined_bounds`).
    """
    source_components, target_components = blocking_components(
        instance, attribute, function, cache
    )
    return blocking.refined_bounds(source_components, target_components)

"""Value-histogram utilities for ranking candidate functions (Section 4.4.3).

To rank a candidate function on a block, Affidavit applies it to every source
value of the block, builds the histogram of the results and measures how much
of the block's target-value histogram it covers.  Summed over the sampled
blocks, this *overlap* estimates how many records the function would align.

The helpers are agnostic to what a "value" is: the encoded columnar engine
passes dictionary-encoded *code arrays* (histograms keyed by dense ints, the
cheapest thing to hash and compare), the string engines pass cell values.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, repeat
from operator import add
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..functions import AttributeFunction


def indexed_histogram(column: Sequence[Hashable], ids: Sequence[int],
                      skip: Optional[Hashable] = None) -> Counter:
    """Histogram of ``column[i] for i in ids``, optionally dropping *skip*.

    The columnar counterpart of :func:`transformed_histogram`: instead of
    applying a function per cell, the caller passes a whole pre-transformed
    column — a string column or a code array, both usually served by the
    column cache — plus the row ids of one block; *skip* removes the
    not-applicable sentinel (or its reserved code) in O(1) after counting.
    """
    histogram = Counter([column[i] for i in ids])
    if skip is not None:
        histogram.pop(skip, None)
    return histogram


def restricted_overlap(histograms: Sequence[Mapping[Hashable, int]],
                       target_histograms: Sequence[Counter]) -> int:
    """Summed min-frequency overlap of per-block histogram pairs.

    The fused scoring loop of candidate ranking: *histograms* holds one
    (already transformed, possibly target-restricted) histogram per sampled
    block, *target_histograms* the matching block target histograms.  When
    the transformed histograms were restricted to the target's keys, every
    entry contributes; the identity path's unrestricted histograms rely on
    the Counters returning 0 for unseen keys, so no key intersection is
    needed either way.  Works identically on value-keyed and code-keyed
    histograms.
    """
    overlap = 0
    for histogram, target_histogram in zip(histograms, target_histograms):
        for value, count in histogram.items():
            target_count = target_histogram[value]
            overlap += count if count < target_count else target_count
    return overlap


class PackedBlockHistograms:
    """The sampled blocks' code histograms, indexed for fused scoring.

    Candidate ranking scores every candidate over the same sampled blocks,
    and those blocks hold few *distinct* source codes (on the paper-protocol
    workloads about 7 per call, against about 150 (code, block) entries).
    The per-block source histograms are therefore regrouped once per call by
    source code, and the target histograms flattened into one dict keyed by
    ``code * n_blocks + block``.

    Scoring a candidate translates only the distinct source codes through
    its code map and groups them by transformed code; codes that no target
    holds — :data:`~repro.core.colcache.NOT_APPLICABLE_CODE` included — drop
    out.  Each remaining ``(transformed code, source codes)`` group adds
    ``sum over blocks of min(merged source count, target count)``, which is
    memoised for the call: sibling candidates that agree on a value (most
    act as the identity on values they do not touch) share their groups.

    The stride is the number of blocks, so ``code * n_blocks + block`` is
    collision-free for any code.  It is never the codec's size: building a
    candidate's code map assigns new codes, which such a stride would alias
    into the next block.  (Only codes some target holds reach the lookup,
    and those were all assigned before the blocks were packed.)
    """

    __slots__ = ("_stride", "_codes", "_entries", "_targets", "_target_codes",
                 "_group_scores")

    def __init__(self, source_histograms: Sequence[Mapping[int, int]],
                 target_histograms: Sequence[Mapping[int, int]]):
        stride = len(source_histograms)
        #: source code -> (blocks it occurs in, its count in each)
        entries: Dict[int, Tuple[List[int], List[int]]] = {}
        for block, histogram in enumerate(source_histograms):
            for code, count in histogram.items():
                found = entries.get(code)
                if found is None:
                    entries[code] = found = ([], [])
                found[0].append(block)
                found[1].append(count)
        self._stride = stride
        self._entries = entries
        self._codes = list(entries)
        self._targets: Dict[int, int] = {
            code * stride + block: count
            for block, histogram in enumerate(target_histograms)
            for code, count in histogram.items()
        }
        self._target_codes = {
            code for histogram in target_histograms for code in histogram
        }
        self._group_scores: Dict[Tuple[int, Tuple[int, ...]], int] = {}

    def overlap(self, code_map: Sequence[int]) -> int:
        """Summed min-frequency overlap of the candidate whose raw-code to
        transformed-code map is *code_map* — what :func:`restricted_overlap`
        returns for its transformed, target-restricted histograms."""
        target_codes = self._target_codes
        groups: Dict[int, Tuple[int, ...]] = {}
        for code, transformed in zip(self._codes,
                                     map(code_map.__getitem__, self._codes)):
            if transformed in target_codes:
                groups[transformed] = groups.get(transformed, ()) + (code,)
        scores = self._group_scores
        overlap = 0
        for group in groups.items():
            score = scores.get(group)
            if score is None:
                scores[group] = score = self._group_overlap(*group)
            overlap += score
        return overlap

    def _group_overlap(self, transformed: int, codes: Tuple[int, ...]) -> int:
        """Overlap of the source codes *codes*, all mapped to *transformed*:
        their counts are merged per block before the minimum is taken."""
        entries = self._entries
        if len(codes) == 1:
            blocks, counts = entries[codes[0]]
        else:
            blocks = list(chain.from_iterable(entries[code][0] for code in codes))
            counts = list(chain.from_iterable(entries[code][1] for code in codes))
            if len(set(blocks)) < len(blocks):
                # Some block holds several of the codes: merge their counts.
                merged = dict.fromkeys(blocks, 0)
                for block, count in zip(blocks, counts):
                    merged[block] += count
                blocks, counts = merged.keys(), merged.values()
        keys = map(add, blocks, repeat(transformed * self._stride))
        return sum(map(min, counts, map(self._targets.get, keys, repeat(0))))


def value_histogram(values: Iterable[str]) -> Counter:
    """Frequency histogram of an iterable of cell values."""
    return Counter(values)


def histogram_overlap(left: Mapping[str, int], right: Mapping[str, int]) -> int:
    """Sum over shared values of the minimum of the two frequencies.

    This is the block-level overlap of Section 4.4.3: on the running example's
    block κᵢ, the division candidate ``x ↦ x/1000`` overlaps the target
    histogram in 2 values whereas the constant ``x ↦ '9.8'`` only overlaps 1.
    """
    if len(left) == 1:
        # Very common in the search (single-valued blocks, constant-like
        # candidates); skip the set machinery.
        ((value, count),) = left.items()
        other = right.get(value, 0)
        return count if count < other else other
    # The C-level key intersection restricts the Python loop to the shared
    # values, which for most candidate functions are few or none.
    common = left.keys() & right.keys()
    if not common:
        return 0
    return sum(min(left[value], right[value]) for value in common)


def transformed_histogram(function: AttributeFunction,
                          source_values: Sequence[str]) -> Counter:
    """Histogram of a candidate function applied to a block's source values.

    Every resulting value has a frequency equal to the sum of the frequencies
    of the source values it was created from; inapplicable cells are skipped.
    """
    histogram: Counter = Counter()
    for value in source_values:
        transformed = function.apply(value)
        if transformed is not None:
            histogram[transformed] += 1
    return histogram


def block_overlap(function: AttributeFunction, source_values: Sequence[str],
                  target_values: Sequence[str]) -> int:
    """Overlap of a candidate function's output with a block's target values."""
    return histogram_overlap(
        transformed_histogram(function, source_values),
        value_histogram(target_values),
    )

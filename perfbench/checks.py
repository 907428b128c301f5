"""Correctness checks of every answer against the generator's ground truth.

Each answered result body is rebuilt with ``ExplainOutcome.from_dict``, its
cost is recomputed with ``explanation_cost`` and must equal the reported
cost, and it is scored with the paper's cell accuracy and Δcosts against the
reference explanation.  Every replay must be answered from the cache with the
same explanation as its pair's cold answer.  A request whose answer fails a
check is counted failed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.api import ExplainOutcome
from repro.core.cost import explanation_cost, trivial_explanation_cost
from repro.evaluation import cell_accuracy
from repro.export import explanation_to_dict

from service import Record


@dataclass
class Scored:
    """Quality of one checked answer."""

    accuracy: float
    delta_costs: float
    compression: float
    tier: str


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def check(records: List[Record]) -> Dict[int, Scored]:
    """Check every ``done`` record in place (a failing one becomes
    ``failed`` with the reason in ``error``); return the scores by index."""
    scores: Dict[int, Scored] = {}
    cold: Dict[int, str] = {}
    by_explanation: Dict[tuple, Scored] = {}
    for record in records:
        if record.status != "done":
            continue
        pair = record.item.pair
        try:
            payload = json.loads(record.body)
            outcome = ExplainOutcome.from_dict(payload)
        except (ValueError, KeyError, TypeError) as error:
            _fail(record, f"unreadable outcome: {type(error).__name__}: {error}")
            continue
        explained = json.dumps(explanation_to_dict(outcome.explanation),
                               sort_keys=True)
        instance = pair.generated.instance
        reason = _cost_mismatch(outcome, instance)
        if reason is None and pair.budget_ms is None and outcome.cancelled:
            reason = "an unbudgeted search came back cancelled"
        if reason is None and record.item.kind == "replay":
            if not record.cache_hit:
                reason = "replay missed the cache"
            elif explained != cold.get(pair.index):
                reason = "replay explanation differs from the cold answer"
        if reason is not None:
            _fail(record, reason)
            continue
        cold.setdefault(pair.index, explained)
        memo_key = (pair.index, explained)
        scored = by_explanation.get(memo_key)
        if scored is None:
            reference_cost = explanation_cost(instance, pair.generated.reference)
            scored = Scored(
                accuracy=cell_accuracy(pair.generated, outcome.explanation),
                delta_costs=outcome.cost / reference_cost,
                compression=outcome.cost / outcome.trivial_cost,
                tier=outcome.provenance.tier,
            )
            by_explanation[memo_key] = scored
        scores[record.item.index] = replace(scored, tier=outcome.provenance.tier)
    return scores


def _cost_mismatch(outcome: ExplainOutcome, instance) -> Optional[str]:
    cost = explanation_cost(instance, outcome.explanation)
    if not _close(cost, outcome.cost):
        return f"reported cost {outcome.cost} but recomputed {cost}"
    trivial = trivial_explanation_cost(instance)
    if not _close(trivial, outcome.trivial_cost):
        return f"reported trivial cost {outcome.trivial_cost} but recomputed {trivial}"
    return None


def _fail(record: Record, reason: str) -> None:
    record.status = "failed"
    record.check_failed = True
    record.error = f"check failed: {reason}"

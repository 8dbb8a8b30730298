"""In-network streaming analytics (INSA) capability model.

Paper Appendix C and Table 1 classify every PySpark DStream method by
whether programmable switches can execute it:

* ``Y``   — supported outright (window/reduce machinery maps onto
  periodical forwarding and register counters);
* ``Y*``  — supported *when the input function only uses switch
  operands* (integer add/sub/min/max/bit ops; no modulo, division,
  float, or string manipulation);
* ``N``   — unsupported (data cannot be moved between Snatch
  "partitions": each edge node's data is pinned by client location);
* ``N/A`` — DStream-engine bookkeeping with no data-plane meaning.

:class:`InsaPlanner` applies this classification to a concrete query
plan: it offloads the longest switch-executable prefix (bounded by the
pipeline stage budget) and leaves the rest for the analytics server —
quantifying the section 6 trade-off.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.switch.pipeline import MAX_STAGES
from repro.switch.primitives import SUPPORTED_OPS

__all__ = [
    "Support",
    "MethodInfo",
    "DSTREAM_SUPPORT",
    "classify",
    "table1_rows",
    "PlanOp",
    "InsaPlan",
    "InsaPlanner",
]


class Support(enum.Enum):
    YES = "Y"
    YES_LIMITED = "Y*"
    NO = "N"
    NOT_APPLICABLE = "N/A"


@dataclass(frozen=True)
class MethodInfo:
    method: str
    support: Support
    categories: Tuple[str, ...]


def _info(method: str, support: Support, *categories: str) -> MethodInfo:
    return MethodInfo(method, support, categories)


# Table 1, verbatim from the paper.
DSTREAM_SUPPORT: Dict[str, MethodInfo] = {
    info.method: info
    for info in [
        _info("cache", Support.NOT_APPLICABLE, "DStream-specific"),
        _info("checkpoint", Support.NOT_APPLICABLE, "DStream-specific"),
        _info("cogroup", Support.YES_LIMITED, "partition", "table-join"),
        _info("combineByKey", Support.YES_LIMITED, "foreach"),
        _info("context", Support.NOT_APPLICABLE, "DStream-specific"),
        _info("count", Support.YES, "reduce"),
        _info("countByValue", Support.YES, "reduce"),
        _info("countByValueAndWindow", Support.YES, "window", "reduce"),
        _info("countByWindow", Support.YES, "window", "reduce"),
        _info("filter", Support.YES_LIMITED, "foreach"),
        _info("flatMap", Support.YES_LIMITED, "partition", "foreach"),
        _info("flatMapValues", Support.YES_LIMITED, "foreach"),
        _info("foreachRDD", Support.YES_LIMITED, "foreach"),
        _info("fullOuterJoin", Support.YES_LIMITED, "partition", "table-join"),
        _info("glom", Support.NOT_APPLICABLE, "DStream-specific"),
        _info("groupByKey", Support.YES, "partition", "reduce"),
        _info(
            "groupByKeyAndWindow", Support.YES, "partition", "window", "reduce"
        ),
        _info("join", Support.YES_LIMITED, "partition", "table-join"),
        _info("leftOuterJoin", Support.YES_LIMITED, "partition", "table-join"),
        _info("map", Support.YES_LIMITED, "partition", "foreach"),
        _info("mapPartitions", Support.YES_LIMITED, "partition", "foreach"),
        _info(
            "mapPartitionsWithIndex", Support.YES_LIMITED, "partition", "foreach"
        ),
        _info("mapValues", Support.YES_LIMITED, "foreach"),
        _info("partitionBy", Support.NO, "partition"),
        _info("persist", Support.NOT_APPLICABLE, "DStream-specific"),
        _info("pprint", Support.NOT_APPLICABLE, "DStream-specific"),
        _info("reduce", Support.YES_LIMITED, "reduce"),
        _info("reduceByKey", Support.YES_LIMITED, "partition", "reduce"),
        _info(
            "reduceByKeyAndWindow",
            Support.YES_LIMITED,
            "partition",
            "window",
            "reduce",
        ),
        _info("reduceByWindow", Support.YES_LIMITED, "window", "reduce"),
        _info("repartition", Support.NO, "partition"),
        _info("rightOuterJoin", Support.YES_LIMITED, "partition", "table-join"),
        _info("saveAsTextFiles", Support.NOT_APPLICABLE, "DStream-specific"),
        _info("slice", Support.YES, "window"),
        _info("transform", Support.YES_LIMITED, "foreach"),
        _info("transformWith", Support.YES_LIMITED, "foreach"),
        _info("union", Support.YES_LIMITED, "table-join"),
        _info("updateStateByKey", Support.YES_LIMITED, "foreach"),
        _info("window", Support.YES, "window"),
    ]
}


def classify(method: str) -> MethodInfo:
    if method not in DSTREAM_SUPPORT:
        raise KeyError("unknown DStream method %r" % method)
    return DSTREAM_SUPPORT[method]


def table1_rows() -> List[Tuple[str, str, str]]:
    """(method, support, categories) rows in Table 1 order."""
    return [
        (info.method, info.support.value, ", ".join(info.categories))
        for info in sorted(DSTREAM_SUPPORT.values(), key=lambda i: i.method.lower())
    ]


# -- query planning -------------------------------------------------------


@dataclass(frozen=True)
class PlanOp:
    """One step of a streaming query.

    ``operands`` lists the ALU ops the step's input function needs
    (empty for pure structural methods like ``count``); a ``Y*`` method
    offloads only when every operand is switch-supported.
    """

    method: str
    operands: Tuple[str, ...] = ()
    stages_needed: int = 1


@dataclass
class InsaPlan:
    """The split between in-network and server-side execution."""

    offloaded: List[PlanOp] = field(default_factory=list)
    server_side: List[PlanOp] = field(default_factory=list)
    stages_used: int = 0
    reasons: List[str] = field(default_factory=list)

    @property
    def fully_offloaded(self) -> bool:
        return not self.server_side

    @property
    def offload_fraction(self) -> float:
        total = len(self.offloaded) + len(self.server_side)
        return len(self.offloaded) / total if total else 0.0


class InsaPlanner:
    """Splits a query plan at the first op the data plane cannot run.

    Offloading stops (and everything downstream runs at the analytics
    server) at the first op that is unsupported, uses an unsupported
    operand, or would exceed the remaining stage budget — in-network
    execution cannot resume after a server-side hop.
    """

    def __init__(self, stage_budget: int = MAX_STAGES):
        if stage_budget <= 0:
            raise ValueError("stage budget must be positive")
        self.stage_budget = stage_budget

    def _offloadable(self, op: PlanOp) -> Tuple[bool, str]:
        info = classify(op.method)
        if info.support is Support.NOT_APPLICABLE:
            return True, "%s: engine bookkeeping, no data-plane cost" % op.method
        if info.support is Support.NO:
            return False, "%s: partitions are pinned in Snatch" % op.method
        if info.support is Support.YES_LIMITED:
            bad = [o for o in op.operands if o not in SUPPORTED_OPS]
            if bad:
                return False, "%s: unsupported operands %s" % (op.method, bad)
        return True, "%s: offloaded" % op.method

    def plan(self, ops: Sequence[PlanOp]) -> InsaPlan:
        plan = InsaPlan()
        blocked = False
        for op in ops:
            if not blocked:
                ok, reason = self._offloadable(op)
                info = classify(op.method)
                cost = (
                    0
                    if info.support is Support.NOT_APPLICABLE
                    else op.stages_needed
                )
                if ok and plan.stages_used + cost <= self.stage_budget:
                    plan.offloaded.append(op)
                    plan.stages_used += cost
                    plan.reasons.append(reason)
                    continue
                if ok:
                    reason = "%s: stage budget exhausted (%d/%d)" % (
                        op.method,
                        plan.stages_used + cost,
                        self.stage_budget,
                    )
                blocked = True
                plan.reasons.append(reason)
            plan.server_side.append(op)
        return plan

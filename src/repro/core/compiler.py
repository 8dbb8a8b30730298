"""Query compilation: analytics tasks -> switch programs + remainder.

Paper section 6 ("Generality of Analytics"): the prototype pre-installs
fixed aggregation programs and updates parameters over RPC; "in an
ideal implementation, the controller should generate efficient and
on-demand codes and push them to the edge devices".  This module is
that ideal implementation, scoped to the operator set the data plane
supports:

* a small query IR (:class:`Query` of :class:`QueryOp`s) over a cookie
  schema;
* :class:`QueryCompiler` splits the query at the in-network boundary
  using the Table-1 capability model (:mod:`repro.core.insa`), turns
  the offloadable prefix into the switch-side statistics program
  (:class:`~repro.core.stats.StatSpec` list + event filter), budgets
  pipeline stages, and leaves the remainder as a description the
  analytics server executes.

Supported IR ops:

``where(feature, op, value)``      -> switch filter (Y* `filter`)
``count_by(feature[, group_by])``  -> COUNT_BY_CLASS (Y `countByValue`)
``sum/min/max/avg(feature[, group_by])`` -> numeric aggregates (Y* `reduce`)
``distinct_users()``               -> Bloom-filter dedup (Appendix B.4)
``quantile(feature, q)``           -> server-side only (no switch op)
``top_k(feature, k)``              -> server-side only
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.insa import InsaPlanner, PlanOp
from repro.core.schema import CookieSchema, FeatureType
from repro.core.stats import StatKind, StatSpec
from repro.switch.pipeline import MAX_STAGES

__all__ = [
    "QueryOpKind",
    "QueryOp",
    "Query",
    "CompiledQuery",
    "QueryCompiler",
    "CompileError",
]


class CompileError(ValueError):
    """The query is invalid against the schema."""


class QueryOpKind(enum.Enum):
    WHERE = "where"
    COUNT_BY = "count_by"
    SUM = "sum"
    MIN = "min"
    MAX = "max"
    AVG = "avg"
    DISTINCT_USERS = "distinct_users"
    QUANTILE = "quantile"
    TOP_K = "top_k"


# IR op kind -> the DStream method it corresponds to (for Table 1).
_DSTREAM_EQUIVALENT = {
    QueryOpKind.WHERE: "filter",
    QueryOpKind.COUNT_BY: "countByValue",
    QueryOpKind.SUM: "reduce",
    QueryOpKind.MIN: "reduce",
    QueryOpKind.MAX: "reduce",
    QueryOpKind.AVG: "reduce",
    QueryOpKind.DISTINCT_USERS: "countByValue",
}

_STAT_FOR = {
    QueryOpKind.COUNT_BY: StatKind.COUNT_BY_CLASS,
    QueryOpKind.SUM: StatKind.SUM,
    QueryOpKind.MIN: StatKind.MIN,
    QueryOpKind.MAX: StatKind.MAX,
    QueryOpKind.AVG: StatKind.AVG,
}

# ALU operands each op's input function needs.
_OPERANDS_FOR = {
    QueryOpKind.WHERE: ("eq",),
    QueryOpKind.COUNT_BY: ("add",),
    QueryOpKind.SUM: ("add",),
    QueryOpKind.MIN: ("min",),
    QueryOpKind.MAX: ("max",),
    QueryOpKind.AVG: ("add",),
    QueryOpKind.DISTINCT_USERS: ("add",),
    # Server-only ops need operands no switch offers.
    QueryOpKind.QUANTILE: ("div",),
    QueryOpKind.TOP_K: ("div",),
}

_COMPARISON_OPS = ("eq", "ne", "lt", "le", "gt", "ge")


@dataclass(frozen=True)
class QueryOp:
    kind: QueryOpKind
    feature: Optional[str] = None
    group_by: Optional[str] = None
    comparison: Optional[str] = None  # for WHERE
    value: Any = None                 # for WHERE / QUANTILE q / TOP_K k


@dataclass
class Query:
    """A fluent builder over a schema."""

    schema: CookieSchema
    ops: List[QueryOp] = field(default_factory=list)

    def where(self, feature: str, comparison: str, value: Any) -> "Query":
        self.ops.append(
            QueryOp(QueryOpKind.WHERE, feature=feature,
                    comparison=comparison, value=value)
        )
        return self

    def count_by(self, feature: str,
                 group_by: Optional[str] = None) -> "Query":
        self.ops.append(
            QueryOp(QueryOpKind.COUNT_BY, feature=feature, group_by=group_by)
        )
        return self

    def _numeric(self, kind: QueryOpKind, feature: str,
                 group_by: Optional[str]) -> "Query":
        self.ops.append(QueryOp(kind, feature=feature, group_by=group_by))
        return self

    def sum(self, feature: str, group_by: Optional[str] = None) -> "Query":
        return self._numeric(QueryOpKind.SUM, feature, group_by)

    def min(self, feature: str, group_by: Optional[str] = None) -> "Query":
        return self._numeric(QueryOpKind.MIN, feature, group_by)

    def max(self, feature: str, group_by: Optional[str] = None) -> "Query":
        return self._numeric(QueryOpKind.MAX, feature, group_by)

    def avg(self, feature: str, group_by: Optional[str] = None) -> "Query":
        return self._numeric(QueryOpKind.AVG, feature, group_by)

    def distinct_users(self) -> "Query":
        self.ops.append(QueryOp(QueryOpKind.DISTINCT_USERS))
        return self

    def quantile(self, feature: str, q: float) -> "Query":
        self.ops.append(
            QueryOp(QueryOpKind.QUANTILE, feature=feature, value=q)
        )
        return self

    def top_k(self, feature: str, k: int) -> "Query":
        self.ops.append(QueryOp(QueryOpKind.TOP_K, feature=feature, value=k))
        return self


@dataclass
class CompiledQuery:
    """The compiler's output: everything the controller pushes."""

    specs: List[StatSpec]                 # switch statistics program
    event_filters: List[QueryOp]          # WHERE clauses, switch-side
    dedup: bool                           # Bloom-filter dedup enabled
    server_ops: List[QueryOp]             # remainder for the analytics tier
    stages_used: int
    notes: List[str] = field(default_factory=list)

    @property
    def fully_in_network(self) -> bool:
        return not self.server_ops

    def edge_filter(self):
        """A request-filter callable implementing the WHERE clauses
        (installable as the edge server's event filter)."""
        clauses = list(self.event_filters)

        def accept(request: Dict[str, Any]) -> bool:
            for clause in clauses:
                actual = request.get(clause.feature)
                if actual is None:
                    return False
                if clause.comparison == "eq" and actual != clause.value:
                    return False
                if clause.comparison == "ne" and actual == clause.value:
                    return False
                if clause.comparison == "lt" and not actual < clause.value:
                    return False
                if clause.comparison == "le" and not actual <= clause.value:
                    return False
                if clause.comparison == "gt" and not actual > clause.value:
                    return False
                if clause.comparison == "ge" and not actual >= clause.value:
                    return False
            return True

        return accept


class QueryCompiler:
    """Validates, splits, and lowers a query."""

    def __init__(self, stage_budget: int = MAX_STAGES):
        self.stage_budget = stage_budget

    # -- validation ---------------------------------------------------------

    def _validate(self, query: Query) -> None:
        schema = query.schema
        for op in query.ops:
            if op.feature is not None:
                feature = schema.feature(op.feature)  # KeyError on unknown
                if op.kind is QueryOpKind.COUNT_BY:
                    if feature.ftype != FeatureType.CLASS:
                        raise CompileError(
                            "count_by needs a class feature, %s is %s"
                            % (op.feature, feature.ftype)
                        )
                if op.kind in (QueryOpKind.SUM, QueryOpKind.MIN,
                               QueryOpKind.MAX, QueryOpKind.AVG,
                               QueryOpKind.QUANTILE):
                    if feature.ftype != FeatureType.NUMBER:
                        raise CompileError(
                            "%s needs a number feature, %s is %s"
                            % (op.kind.value, op.feature, feature.ftype)
                        )
            if op.group_by is not None:
                group = schema.feature(op.group_by)
                if group.ftype != FeatureType.CLASS:
                    raise CompileError(
                        "group_by needs a class feature, %s is %s"
                        % (op.group_by, group.ftype)
                    )
            if op.kind is QueryOpKind.WHERE:
                if op.comparison not in _COMPARISON_OPS:
                    raise CompileError(
                        "unknown comparison %r" % op.comparison
                    )
                schema.feature(op.feature).encode_value(op.value)

    # -- compilation -----------------------------------------------------------

    def compile(self, query: Query) -> CompiledQuery:
        self._validate(query)
        plan_ops = [
            PlanOp(
                _DSTREAM_EQUIVALENT.get(op.kind, "map"),
                operands=_OPERANDS_FOR[op.kind],
            )
            for op in query.ops
        ]
        plan = InsaPlanner(self.stage_budget).plan(plan_ops)
        boundary = len(plan.offloaded)
        offloaded = query.ops[:boundary]
        remainder = query.ops[boundary:]

        specs: List[StatSpec] = []
        filters: List[QueryOp] = []
        dedup = False
        notes: List[str] = list(plan.reasons)
        for index, op in enumerate(offloaded):
            if op.kind is QueryOpKind.WHERE:
                filters.append(op)
            elif op.kind is QueryOpKind.DISTINCT_USERS:
                dedup = True
                notes.append("distinct_users -> Bloom-filter dedup")
            else:
                specs.append(
                    StatSpec(
                        name="q%d_%s_%s" % (index, op.kind.value, op.feature),
                        kind=_STAT_FOR[op.kind],
                        feature=op.feature,
                        group_by=op.group_by,
                    )
                )
        for op in remainder:
            notes.append("%s -> analytics server" % op.kind.value)
        return CompiledQuery(
            specs=specs,
            event_filters=filters,
            dedup=dedup,
            server_ops=remainder,
            stages_used=plan.stages_used,
            notes=notes,
        )

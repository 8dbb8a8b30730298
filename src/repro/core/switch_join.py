"""In-switch table joins (Appendix C, "table-join methods").

The appendix sketches how an AggSwitch can execute SQL-style joins on
two cookie streams: reserve a register table whose rows are indexed by
the join key's wire value and whose columns are the union of both
streams' features, then fill cells as periodical aggregation packets
arrive; when all packets are in, the table *is* the join result.

This module implements that design on the register substrate for all
four outer-join variants.  As the appendix warns, it is register-
hungry — rows x columns cells — which the SRAM budget makes tangible;
the intended use is joining two *separate applications* by agreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.schema import CookieSchema
from repro.switch.registers import RegisterFile

__all__ = ["JoinKind", "SwitchJoinTable", "JoinedRow"]

_ABSENT = 0  # register cell value for "no data"; stored values are +1.


class JoinKind:
    INNER = "inner"
    LEFT = "left"
    RIGHT = "right"
    FULL = "full"


@dataclass(frozen=True)
class JoinedRow:
    """One output row of the join."""

    key: Any
    left: Optional[Dict[str, Any]]
    right: Optional[Dict[str, Any]]


class SwitchJoinTable:
    """Register-backed full/left/right/inner outer join of two streams.

    Both schemas must share the join-key feature (same name, type and
    range), because the key's wire value indexes the rows.
    """

    def __init__(
        self,
        key_feature: str,
        left_schema: CookieSchema,
        right_schema: CookieSchema,
        registers: Optional[RegisterFile] = None,
        name: str = "join",
    ):
        key_left = left_schema.feature(key_feature)
        key_right = right_schema.feature(key_feature)
        if key_left != key_right:
            raise ValueError(
                "join key %r must be declared identically in both schemas"
                % key_feature
            )
        self.key_feature = key_left
        self.left_schema = left_schema
        self.right_schema = right_schema
        self._registers = registers or RegisterFile()
        rows = self.key_feature.cardinality
        self._columns: Dict[Tuple[str, str], Any] = {}
        for side, schema in (("l", left_schema), ("r", right_schema)):
            for feature in schema.features:
                if feature.name == key_feature:
                    continue
                self._columns[(side, feature.name)] = self._registers.allocate(
                    "%s.%s.%s" % (name, side, feature.name),
                    rows,
                    width=48,
                )
        self._present = {
            "l": self._registers.allocate("%s.l.present" % name, rows, 1),
            "r": self._registers.allocate("%s.r.present" % name, rows, 1),
        }

    # -- fill phase --------------------------------------------------------

    def _insert(self, side: str, schema: CookieSchema,
                values: Dict[str, Any]) -> None:
        if self.key_feature.name not in values:
            raise ValueError(
                "record lacks the join key %r" % self.key_feature.name
            )
        row = self.key_feature.encode_value(values[self.key_feature.name])
        self._present[side].write(row, 1)
        for feature in schema.features:
            if feature.name == self.key_feature.name:
                continue
            if feature.name in values:
                wire = feature.encode_value(values[feature.name])
                self._columns[(side, feature.name)].write(row, wire + 1)

    def insert_left(self, values: Dict[str, Any]) -> None:
        self._insert("l", self.left_schema, values)

    def insert_right(self, values: Dict[str, Any]) -> None:
        self._insert("r", self.right_schema, values)

    # -- read-out ------------------------------------------------------------

    def _side_values(self, side: str, schema: CookieSchema,
                     row: int) -> Optional[Dict[str, Any]]:
        if not self._present[side].read(row):
            return None
        out: Dict[str, Any] = {}
        for feature in schema.features:
            if feature.name == self.key_feature.name:
                continue
            cell = self._columns[(side, feature.name)].read(row)
            if cell != _ABSENT:
                out[feature.name] = feature.decode_value(cell - 1)
        return out

    def result(self, kind: str = JoinKind.FULL) -> List[JoinedRow]:
        if kind not in (JoinKind.INNER, JoinKind.LEFT, JoinKind.RIGHT,
                        JoinKind.FULL):
            raise ValueError("unknown join kind %r" % kind)
        rows: List[JoinedRow] = []
        for row in range(self.key_feature.cardinality):
            left = self._side_values("l", self.left_schema, row)
            right = self._side_values("r", self.right_schema, row)
            if left is None and right is None:
                continue
            if kind == JoinKind.INNER and (left is None or right is None):
                continue
            if kind == JoinKind.LEFT and left is None:
                continue
            if kind == JoinKind.RIGHT and right is None:
                continue
            rows.append(
                JoinedRow(
                    key=self.key_feature.decode_value(row),
                    left=left,
                    right=right,
                )
            )
        return rows

    def reset(self) -> None:
        for array in self._columns.values():
            array.reset()
        for array in self._present.values():
            array.reset()

    @property
    def sram_bits(self) -> int:
        """The appendix's warning made measurable: join tables are
        expensive in register SRAM."""
        return (
            sum(a.bits for a in self._columns.values())
            + sum(a.bits for a in self._present.values())
        )

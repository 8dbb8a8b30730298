"""Match-action tables, the core abstraction of a P4 pipeline.

A table matches packet header fields (exact / ternary / LPM / range)
against control-plane-installed entries and selects an action with
bound parameters.  Snatch's controller installs one entry per registered
application keyed on the application-ID byte (paper section 4.1,
"Switch Logic"), so LarkSwitch can recognize Snatch QUIC packets and
decode them with per-application parameters.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "MatchKind",
    "MatchKey",
    "TableEntry",
    "MatchActionTable",
    "TableFullError",
]


class TableFullError(RuntimeError):
    """Raised when inserting beyond the table's entry capacity."""


class MatchKind(enum.Enum):
    EXACT = "exact"
    TERNARY = "ternary"
    LPM = "lpm"
    RANGE = "range"


@dataclass(frozen=True)
class MatchKey:
    """One field the table matches on."""

    field_name: str
    kind: MatchKind
    width: int = 32


@dataclass
class TableEntry:
    """A control-plane-installed entry.

    ``match_values`` holds one spec per key, in key order:

    * EXACT: the value itself
    * TERNARY: ``(value, mask)``
    * LPM: ``(value, prefix_len)``
    * RANGE: ``(low, high)`` inclusive
    """

    match_values: Tuple[Any, ...]
    action: str
    action_params: Dict[str, Any] = field(default_factory=dict)
    priority: int = 0

    def matches(self, keys: Sequence[MatchKey], values: Sequence[int]) -> bool:
        for key, spec, value in zip(keys, self.match_values, values):
            if key.kind is MatchKind.EXACT:
                if value != spec:
                    return False
            elif key.kind is MatchKind.TERNARY:
                want, mask = spec
                if (value & mask) != (want & mask):
                    return False
            elif key.kind is MatchKind.LPM:
                want, prefix_len = spec
                shift = key.width - prefix_len
                if (value >> shift) != (want >> shift):
                    return False
            elif key.kind is MatchKind.RANGE:
                low, high = spec
                if not low <= value <= high:
                    return False
        return True


class MatchActionTable:
    """A P4 match-action table with bounded capacity.

    Lookup returns the matching entry of highest priority (TCAM
    semantics); on miss, the default action applies.
    """

    def __init__(
        self,
        name: str,
        keys: Sequence[MatchKey],
        max_entries: int = 1024,
        default_action: str = "NoAction",
        default_params: Optional[Dict[str, Any]] = None,
    ):
        if not keys:
            raise ValueError("a match-action table needs at least one key")
        self.name = name
        self.keys = tuple(keys)
        self.max_entries = max_entries
        self.default_action = default_action
        self.default_params = dict(default_params or {})
        self._entries: List[TableEntry] = []
        self.lookups = 0
        self.hits = 0
        # Bumped on every control-plane mutation so the switches'
        # columnar paths can cheaply detect a changed entry set.
        self.version = 0

    def __len__(self) -> int:
        return len(self._entries)

    def insert(self, entry: TableEntry) -> None:
        if len(entry.match_values) != len(self.keys):
            raise ValueError(
                "entry has %d match values but table %s has %d keys"
                % (len(entry.match_values), self.name, len(self.keys))
            )
        if len(self._entries) >= self.max_entries:
            raise TableFullError(
                "table %s is full (%d entries)" % (self.name, self.max_entries)
            )
        self._entries.append(entry)
        # Keep highest priority first for TCAM-order lookup.
        self._entries.sort(key=lambda e: -e.priority)
        self.version += 1

    def remove(self, match_values: Tuple[Any, ...]) -> bool:
        """Remove the entry with exactly these match values; True if
        one was removed (controller revoking an application version)."""
        for i, entry in enumerate(self._entries):
            if entry.match_values == match_values:
                del self._entries[i]
                self.version += 1
                return True
        return False

    def lookup(
        self, values: Sequence[int]
    ) -> Tuple[str, Dict[str, Any], bool]:
        """Match ``values`` (one per key); return (action, params, hit)."""
        if len(values) != len(self.keys):
            raise ValueError(
                "lookup with %d values on table %s with %d keys"
                % (len(values), self.name, len(self.keys))
            )
        self.lookups += 1
        for entry in self._entries:
            if entry.matches(self.keys, values):
                self.hits += 1
                return entry.action, entry.action_params, True
        return self.default_action, dict(self.default_params), False

    def entries(self) -> List[TableEntry]:
        return list(self._entries)

"""Real-time crowd analytics workload (paper section 2.3, example 2).

Businesses aggregate information about users in a particular region —
demographics and interests — in real time.  The semantic cookies here
are *constant* per user (section 3.1): the user's region and interest
profile do not change per request, which is exactly the case where
transport-layer cookies shine, since the cookie can be forwarded before
the request semantics are even known.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.schema import CookieSchema, Feature
from repro.core.stats import StatKind, StatSpec
from repro.workloads.columns import EventColumns, EventStream

__all__ = [
    "REGIONS",
    "INTERESTS",
    "CrowdMember",
    "CrowdEventStream",
    "CrowdWorkload",
]

REGIONS = tuple("region-%d" % i for i in range(12))
INTERESTS = ("sports", "music", "food", "travel", "tech", "fashion")
DENSITY_BUCKETS = ("low", "medium", "high")


@dataclass(frozen=True)
class CrowdMember:
    member_index: int
    region: str
    interest: str
    dwell_minutes: int  # time spent in the region so far

    def semantic_values(self) -> Dict[str, object]:
        return {
            "region": self.region,
            "interest": self.interest,
            "dwell": self.dwell_minutes,
        }


class CrowdWorkload:
    """A population of users moving through monitored regions."""

    def __init__(self, num_members: int = 2000, seed: int = 7):
        if num_members <= 0:
            raise ValueError("num_members must be positive")
        self._rng = random.Random(seed)
        self.members = tuple(
            CrowdMember(
                member_index=i,
                region=self._rng.choice(REGIONS),
                interest=self._rng.choice(INTERESTS),
                dwell_minutes=self._rng.randint(0, 240),
            )
            for i in range(num_members)
        )
        # Per-member wire row (constant cookie), for cookie_rows.
        self._member_wires = tuple(
            (
                REGIONS.index(member.region),
                INTERESTS.index(member.interest),
                member.dwell_minutes,
            )
            for member in self.members
        )

    def schema(self) -> CookieSchema:
        return CookieSchema(
            "crowd",
            (
                Feature.categorical("region", REGIONS),
                Feature.categorical("interest", INTERESTS),
                Feature.number("dwell", 0, 240),
            ),
        )

    def specs(self) -> List[StatSpec]:
        return [
            StatSpec("interest_by_region", StatKind.COUNT_BY_CLASS,
                     "interest", group_by="region"),
            StatSpec("dwell_avg", StatKind.AVG, "dwell", group_by="region"),
            StatSpec("dwell_max", StatKind.MAX, "dwell", group_by="region"),
        ]

    def stream(
        self, rate_per_second: float, duration_ms: float
    ) -> "CrowdEventStream":
        """Incremental check-in stream (RNG-identical to
        :meth:`arrivals`); its batched API feeds the ingest fast path —
        crowd cookies are constant per member, the best case for the
        client-side encode cache."""
        return CrowdEventStream(self, rate_per_second, duration_ms)

    def arrivals(
        self, rate_per_second: float, duration_ms: float
    ) -> List[Tuple[float, CrowdMember]]:
        """Timed check-in events from crowd members."""
        return self.stream(rate_per_second, duration_ms).drain()

    def cookie_keys(self, columns: EventColumns) -> List[int]:
        """Encode-cache identity codes: the member index alone (a
        member's cookie is constant), already dense in
        ``[0, members)``."""
        return list(columns.columns["member"])

    def cookie_rows(
        self, columns: EventColumns, indexes: Sequence[int]
    ) -> List[Tuple[int, ...]]:
        """Wire rows of the listed check-ins (encode-cache misses)."""
        member = columns.columns["member"]
        wires = self._member_wires
        return [wires[member[i]] for i in indexes]

    def cookie_values_at(
        self, columns: EventColumns, index: int
    ) -> Dict[str, object]:
        return self.members[columns.columns["member"][index]].semantic_values()

    def reference_interest_counts(
        self, arrivals: List[Tuple[float, CrowdMember]]
    ) -> Dict[Tuple[str, str], int]:
        out: Dict[Tuple[str, str], int] = {}
        for _t, member in arrivals:
            key = (member.region, member.interest)
            out[key] = out.get(key, 0) + 1
        return out


class CrowdEventStream(EventStream):
    """Incremental crowd check-in stream; one member-index column."""

    column_names = ("member",)

    def __init__(
        self,
        workload: CrowdWorkload,
        rate_per_second: float,
        duration_ms: float,
    ):
        super().__init__(workload._rng, rate_per_second, duration_ms)
        self.workload = workload
        self._num_members = len(workload.members)
        self._member_bits = self._num_members.bit_length()

    def _draw_row(self) -> Tuple[int]:
        # rng.randrange(n), minus its frames (see EventStream).
        getrandbits = self._rng.getrandbits
        member = getrandbits(self._member_bits)
        while member >= self._num_members:
            member = getrandbits(self._member_bits)
        return (member,)

    def _wrap(
        self, time_ms: float, row: Tuple[int]
    ) -> Tuple[float, CrowdMember]:
        return (time_ms, self.workload.members[row[0]])

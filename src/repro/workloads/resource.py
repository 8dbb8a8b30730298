"""Resource-demand workload (paper section 2.3, example 3).

Cloud platforms scale services up and down with demand, but container
deployment takes time, so *earlier* aggregate-demand signals translate
directly into better user experience.  Users carry their typical
resource demand in a semantic cookie; the network aggregates the sum,
and an autoscaler converts the aggregate into a replica target.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.schema import CookieSchema, Feature
from repro.core.stats import StatKind, StatSpec
from repro.workloads.columns import EventColumns, EventStream

__all__ = [
    "Tenant",
    "ResourceDemandWorkload",
    "ResourceEventStream",
    "Autoscaler",
]

SERVICE_TIERS = ("free", "standard", "premium")
MAX_DEMAND_UNITS = 500


@dataclass(frozen=True)
class Tenant:
    tenant_index: int
    tier: str
    demand_units: int  # typical per-session resource demand

    def semantic_values(self) -> Dict[str, object]:
        return {"tier": self.tier, "demand": self.demand_units}


class ResourceDemandWorkload:
    """Sessions arriving from tenants with heterogeneous demand."""

    def __init__(self, num_tenants: int = 500, seed: int = 11):
        if num_tenants <= 0:
            raise ValueError("num_tenants must be positive")
        self._rng = random.Random(seed)
        self.tenants = tuple(
            Tenant(
                tenant_index=i,
                tier=self._rng.choices(
                    SERVICE_TIERS, weights=(0.6, 0.3, 0.1)
                )[0],
                demand_units=self._rng.randint(1, MAX_DEMAND_UNITS),
            )
            for i in range(num_tenants)
        )
        # Per-tenant wire row (constant cookie), for cookie_rows.
        self._tenant_wires = tuple(
            (SERVICE_TIERS.index(tenant.tier), tenant.demand_units)
            for tenant in self.tenants
        )

    def schema(self) -> CookieSchema:
        return CookieSchema(
            "resource-demand",
            (
                Feature.categorical("tier", SERVICE_TIERS),
                Feature.number("demand", 0, MAX_DEMAND_UNITS),
            ),
        )

    def specs(self) -> List[StatSpec]:
        return [
            StatSpec("demand_sum", StatKind.SUM, "demand", group_by="tier"),
            StatSpec("demand_max", StatKind.MAX, "demand", group_by="tier"),
            StatSpec("sessions", StatKind.COUNT_BY_CLASS, "tier"),
        ]

    def stream(
        self, rate_per_second: float, duration_ms: float
    ) -> "ResourceEventStream":
        """Incremental session stream (RNG-identical to
        :meth:`sessions`); tenant cookies are constant, so the encode
        cache keys on the tenant index alone."""
        return ResourceEventStream(self, rate_per_second, duration_ms)

    def sessions(
        self, rate_per_second: float, duration_ms: float
    ) -> List[Tuple[float, Tenant]]:
        return self.stream(rate_per_second, duration_ms).drain()

    def cookie_keys(self, columns: EventColumns) -> List[int]:
        return list(columns.columns["tenant"])

    def cookie_rows(
        self, columns: EventColumns, indexes: Sequence[int]
    ) -> List[Tuple[int, ...]]:
        """Wire rows of the listed sessions (encode-cache misses)."""
        tenant = columns.columns["tenant"]
        wires = self._tenant_wires
        return [wires[tenant[i]] for i in indexes]

    def cookie_values_at(
        self, columns: EventColumns, index: int
    ) -> Dict[str, object]:
        return self.tenants[columns.columns["tenant"][index]].semantic_values()

    def reference_demand_sum(
        self, sessions: List[Tuple[float, Tenant]]
    ) -> Dict[str, int]:
        out = {tier: 0 for tier in SERVICE_TIERS}
        for _t, tenant in sessions:
            out[tenant.tier] += tenant.demand_units
        return out


class ResourceEventStream(EventStream):
    """Incremental session stream; one tenant-index column."""

    column_names = ("tenant",)

    def __init__(
        self,
        workload: ResourceDemandWorkload,
        rate_per_second: float,
        duration_ms: float,
    ):
        super().__init__(workload._rng, rate_per_second, duration_ms)
        self.workload = workload
        self._num_tenants = len(workload.tenants)
        self._tenant_bits = self._num_tenants.bit_length()

    def _draw_row(self) -> Tuple[int]:
        # rng.randrange(n), minus its frames (see EventStream).
        getrandbits = self._rng.getrandbits
        tenant = getrandbits(self._tenant_bits)
        while tenant >= self._num_tenants:
            tenant = getrandbits(self._tenant_bits)
        return (tenant,)

    def _wrap(self, time_ms: float, row: Tuple[int]) -> Tuple[float, Tenant]:
        return (time_ms, self.workload.tenants[row[0]])


class Autoscaler:
    """Converts aggregated demand into a replica count, with hysteresis
    so noisy aggregates do not thrash deployments."""

    def __init__(
        self,
        units_per_replica: int = 2000,
        min_replicas: int = 1,
        max_replicas: int = 64,
        hysteresis: float = 0.15,
    ):
        if units_per_replica <= 0:
            raise ValueError("units_per_replica must be positive")
        if not 0 <= hysteresis < 1:
            raise ValueError("hysteresis must be in [0, 1)")
        if min_replicas < 1 or max_replicas < min_replicas:
            raise ValueError("invalid replica bounds")
        self.units_per_replica = units_per_replica
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas
        self.hysteresis = hysteresis
        self.current_replicas = min_replicas
        self.scaling_events: List[Tuple[float, int]] = []

    def target_for(self, demand_units: float) -> int:
        raw = math.ceil(demand_units / self.units_per_replica)
        return max(self.min_replicas, min(self.max_replicas, raw))

    def observe(self, time_ms: float, demand_units: float) -> int:
        """Feed one aggregated demand sample; returns the (possibly
        updated) replica count."""
        target = self.target_for(demand_units)
        low = self.current_replicas * (1 - self.hysteresis)
        high = self.current_replicas * (1 + self.hysteresis)
        if not low <= target <= high or abs(target - self.current_replicas) >= 2:
            if target != self.current_replicas:
                self.current_replicas = target
                self.scaling_events.append((time_ms, target))
        return self.current_replicas

"""The Snatch-enabled edge server (CDN / off-net).

The edge server terminates the user's TLS connection, so it sees the
application-layer cookies (paper section 3.3).  A Snatch edge server
additionally:

1. decrypts the application's semantic cookie from the ``Cookie:``
   header (custom page rules a la Cloudflare/CloudFront);
2. filters by event type (Figure 1(b) right, L1);
3. pre-aggregates locally — counts per feature value per group
   (L2-L3) — using the same statistics layout as the switches so the
   AggSwitch can merge edge and LarkSwitch streams uniformly;
4. forwards the semantic data to the analytics server per packet or
   per period, as the controller configured.

Pre-aggregation reuses :class:`~repro.core.stats.SwitchStatistics`
with a private, generously budgeted register file — an edge server is
a general-purpose CPU, but keeping the snapshot format identical makes
the aggregation path uniform.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.core.aggregation import (
    AggregationCodec,
    AggregationPacket,
    ForwardingMode,
)
from repro.core.app_cookie import ApplicationCookieCodec
from repro.core.larkswitch import period_payload
from repro.core.schema import CookieSchema
from repro.core.stats import StatSpec, SwitchStatistics
from repro.switch.registers import RegisterFile

__all__ = ["SnatchEdgeServer", "EdgeResult"]

EventFilter = Callable[[Dict[str, Any]], bool]


@dataclass
class _EdgeApp:
    app_id: int
    schema: CookieSchema
    specs: List[StatSpec]
    cookie_codec: ApplicationCookieCodec
    agg_codec: AggregationCodec
    stats: SwitchStatistics
    event_filter: Optional[EventFilter]
    mode: str
    period_ms: float
    version: int = 0


@dataclass
class EdgeResult:
    """Outcome of handling one HTTPS request at the edge."""

    served_static: bool
    semantic_matched: bool
    filtered_out: bool
    aggregation_payload: Optional[bytes]
    decoded_values: Optional[Dict[str, Any]] = None


class SnatchEdgeServer:
    """An edge server with Snatch page rules installed."""

    def __init__(self, name: str = "edge", rng: Optional[random.Random] = None):
        self.name = name
        self.alive = True
        self.crashes = 0
        self._rng = rng or random.Random()
        self._apps: Dict[int, _EdgeApp] = {}
        self.requests_handled = 0
        # Edge pre-aggregation state lives in ordinary memory; a large
        # budget keeps the shared statistics code from rejecting it.
        self._registers = RegisterFile(sram_budget_bits=1 << 32)

    # -- controller RPC surface ---------------------------------------------

    def register_application(
        self,
        app_id: int,
        schema: CookieSchema,
        key: bytes,
        specs: List[StatSpec],
        mode: str = ForwardingMode.PER_PACKET,
        period_ms: float = 0.0,
        event_filter: Optional[EventFilter] = None,
        version: int = 0,
    ) -> None:
        if app_id in self._apps:
            raise ValueError("app-ID %d already registered" % app_id)
        if mode == ForwardingMode.PERIODICAL and period_ms <= 0:
            raise ValueError("periodical forwarding needs a positive period")
        self._apps[app_id] = _EdgeApp(
            app_id=app_id,
            schema=schema,
            specs=list(specs),
            cookie_codec=ApplicationCookieCodec(app_id, schema, key, self._rng),
            agg_codec=AggregationCodec(app_id, key, self._rng),
            stats=SwitchStatistics(
                schema,
                specs,
                self._registers,
                prefix="%s.app%02x.v%d" % (self.name, app_id, version),
            ),
            event_filter=event_filter,
            mode=mode,
            period_ms=period_ms,
            version=version,
        )

    def revoke_application(self, app_id: int) -> bool:
        app = self._apps.pop(app_id, None)
        if app is None:
            return False
        prefix = "%s.app%02x.v%d" % (self.name, app_id, app.version)
        for array_name in list(self._registers.names()):
            if array_name.startswith(prefix):
                self._registers.free(array_name)
        return True

    def registered_app_ids(self) -> List[int]:
        return sorted(self._apps)

    # -- lifecycle (crash / recovery, paper section 6) -------------------------

    def crash(self) -> None:
        """Process death: pre-aggregation state and page rules vanish."""
        for app_id in list(self._apps):
            self.revoke_application(app_id)
        self.alive = False
        self.crashes += 1

    def restart(self) -> None:
        self.alive = True

    # -- request path ------------------------------------------------------------

    def handle_request(
        self,
        request: Dict[str, Any],
        cookie_header: str = "",
    ) -> EdgeResult:
        """Serve one HTTPS request: static content plus Snatch's
        semantic-cookie page rule."""
        if not self.alive:
            return EdgeResult(
                served_static=False,
                semantic_matched=False,
                filtered_out=False,
                aggregation_payload=None,
            )
        self.requests_handled += 1
        for app in self._apps.values():
            decoded = (
                app.cookie_codec.try_decode_header(cookie_header)
                if cookie_header
                else None
            )
            if decoded is None:
                continue
            if app.event_filter is not None and not app.event_filter(request):
                return EdgeResult(
                    served_static=True,
                    semantic_matched=True,
                    filtered_out=True,
                    aggregation_payload=None,
                    decoded_values=decoded.values,
                )
            app.stats.update(decoded.values)
            payload = None
            if app.mode == ForwardingMode.PER_PACKET:
                payload = self._per_packet_payload(app, decoded.values)
            return EdgeResult(
                served_static=True,
                semantic_matched=True,
                filtered_out=False,
                aggregation_payload=payload,
                decoded_values=decoded.values,
            )
        return EdgeResult(
            served_static=True,
            semantic_matched=False,
            filtered_out=False,
            aggregation_payload=None,
        )

    def _per_packet_payload(
        self, app: _EdgeApp, values: Dict[str, Any]
    ) -> bytes:
        items = []
        for index, feature in enumerate(app.schema.features):
            if feature.name in values:
                items.append(
                    (index, feature.encode_value(values[feature.name]))
                )
        return app.agg_codec.encode(
            AggregationPacket(
                app_id=app.app_id,
                mode=ForwardingMode.PER_PACKET,
                items=items,
                source=self.name,
            )
        )

    # -- periodical forwarding ------------------------------------------------------

    def end_period(self, app_id: int) -> List[bytes]:
        """Close the period: the snapshot's payloads (see
        :func:`repro.core.larkswitch.period_payload`; none for an idle
        period), then reset the registers."""
        app = self._apps.get(app_id)
        if app is None:
            raise KeyError("no application %d registered" % app_id)
        if app.mode != ForwardingMode.PERIODICAL:
            raise ValueError("application %d is per-packet" % app_id)
        if app.stats.updates == 0:
            app.stats.reset()
            return []
        payloads = period_payload(app.stats, app.agg_codec, self.name)
        app.stats.reset()
        return payloads

    def stats_report(self, app_id: int) -> Dict[str, Any]:
        return self._apps[app_id].stats.report()

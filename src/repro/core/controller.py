"""The Snatch controller (paper sections 3.5, 4.3).

A trusted party runs the controller; application developers submit
analytics tasks, and the controller distributes per-application
parameters — application-ID byte, AES-128 key, cookie schema,
statistics program, forwarding scheme — to every participating device
over RPC, strictly in the order **AggSwitch -> LarkSwitches -> edge
servers** so no device ever reports data the tier above cannot parse.

The developer-facing API surface (section 3.5):

1. add / remove applications;
2. add / remove cookies (features) — transport layer preferred,
   spill to the application layer when the 160-bit budget is short;
3. change feature types and valid ranges;
4. change the forwarding scheme (per-packet vs periodical).

Consistency (section 4.3): every update creates a **new version with a
new application-ID**; the old version's rules are revoked only after a
grace period, so in-flight cookies in either format stay decodable.

Control-plane transport: by default the controller provisions devices
synchronously (direct method calls — convenient for unit tests).  When
constructed with an :class:`~repro.core.rpc.RpcBus`, every push rides
the bus instead, and the AggSwitch -> LarkSwitch -> edge-server order
is enforced with acknowledgment barriers: the next tier's RPCs are not
even *sent* until every call to the previous tier has acked (or been
declared dead), so the ordering invariant survives RPC loss and
retries.  Devices that restart after a crash re-enroll through
:meth:`SnatchController.reenroll_device`, which re-pushes every
application they lost (section 6 recovery).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.aggregation import ForwardingMode, check_per_packet_schema
from repro.core.schema import CookieSchema, Feature
from repro.core.stats import StatSpec
from repro.crypto.keys import AES128_KEY_LEN

__all__ = ["SnatchController", "ApplicationHandle", "RpcLog"]


@dataclass
class ApplicationHandle:
    """What the developer gets back: everything needed to mint cookies
    at the web server and decode results at the analytics server."""

    name: str
    app_id: int
    version: int
    key: bytes
    schema: CookieSchema
    transport_schema: CookieSchema
    overflow_schema: Optional[CookieSchema]
    specs: List[StatSpec]
    mode: str
    period_ms: float


@dataclass
class RpcLog:
    """Record of one controller -> device RPC (for consistency tests)."""

    order: int
    device: str
    action: str
    app_id: int


class SnatchController:
    """Coordinates AggSwitches, LarkSwitches and edge servers."""

    def __init__(self, seed: Optional[int] = None, bus: Optional[Any] = None):
        self._rng = random.Random(seed)
        self.bus = bus
        self._agg_switches: List[Any] = []
        self._lark_switches: List[Any] = []
        self._edge_servers: List[Any] = []
        self._clients: List[Any] = []
        self._apps: Dict[str, ApplicationHandle] = {}
        self._event_filters: Dict[str, Any] = {}
        self._used_app_ids: set = set()
        self._retired: List[Tuple[str, int]] = []  # (name, old app_id)
        self.rpc_log: List[RpcLog] = []
        self.push_failures: List[Any] = []  # terminal RpcCall failures
        self._inflight: set = set()  # (device_name, app_id) pushes en route
        self._rpc_counter = 0

    # -- device enrollment ------------------------------------------------------

    def _enroll(self, device: Any, delay_ms: Optional[float]) -> None:
        if self.bus is not None:
            self.bus.register_device(device.name, device, delay_ms)

    def attach_agg_switch(self, switch: Any,
                          delay_ms: Optional[float] = None) -> None:
        self._agg_switches.append(switch)
        self._enroll(switch, delay_ms)

    def attach_lark_switch(self, switch: Any,
                           delay_ms: Optional[float] = None) -> None:
        self._lark_switches.append(switch)
        self._enroll(switch, delay_ms)

    def attach_edge_server(self, server: Any,
                           delay_ms: Optional[float] = None) -> None:
        self._edge_servers.append(server)
        self._enroll(server, delay_ms)

    def attach_client(self, client: Any) -> None:
        """Register a cookie-minting client (e.g. a web server's
        :class:`~repro.core.cookie_cache.CookieEncodeCache`) for
        application push/revoke notifications, so client-side encode
        caches never serve a cookie minted under a superseded version
        or key (section 4.3 consistency extends to the minting edge)."""
        self._clients.append(client)

    # -- internals ------------------------------------------------------------------

    def _log(self, device: str, action: str, app_id: int) -> None:
        self.rpc_log.append(
            RpcLog(self._rpc_counter, device, action, app_id)
        )
        self._rpc_counter += 1

    def _new_app_id(self) -> int:
        """A random unused byte (section 4.3: 'generates a random byte
        as the application ID')."""
        available = [b for b in range(256) if b not in self._used_app_ids]
        if not available:
            raise RuntimeError("application-ID space exhausted")
        app_id = self._rng.choice(available)
        self._used_app_ids.add(app_id)
        return app_id

    @staticmethod
    def _check_carriable(transport_schema: CookieSchema, mode: str) -> None:
        """Refuse, before an application-ID is drawn or any tier is
        touched, a per-packet application whose cookies the LarkSwitch
        could not forward (it would refuse the registration after the
        AggSwitch had accepted it)."""
        if mode == ForwardingMode.PER_PACKET:
            check_per_packet_schema(
                [feature.cardinality for feature in transport_schema.features]
            )

    def _new_key(self) -> bytes:
        return bytes(
            self._rng.getrandbits(8) for _ in range(AES128_KEY_LEN)
        )

    def _register_args(
        self, tier: str, handle: ApplicationHandle, event_filter=None
    ) -> Tuple[Tuple, Dict[str, Any]]:
        """(args, kwargs) for ``register_application`` on one tier."""
        args = (handle.app_id, handle.transport_schema, handle.key,
                handle.specs)
        if tier == "agg":
            return args, {}
        kwargs: Dict[str, Any] = {
            "mode": handle.mode,
            "period_ms": handle.period_ms,
            "version": handle.version,
        }
        if tier == "edge":
            kwargs["event_filter"] = event_filter
        return args, kwargs

    def _tiers(self) -> List[Tuple[str, List[Any]]]:
        """Installation order: the tier above must be ready first."""
        return [
            ("agg", self._agg_switches),
            ("lark", self._lark_switches),
            ("edge", self._edge_servers),
        ]

    def _install(
        self, handle: ApplicationHandle, event_filter=None
    ) -> None:
        """Push parameters in the consistency-preserving order."""
        if self.bus is not None:
            self._install_via_bus(handle, event_filter)
        else:
            for tier, devices in self._tiers():
                for device in devices:
                    args, kwargs = self._register_args(
                        tier, handle, event_filter
                    )
                    device.register_application(*args, **kwargs)
                    self._log(device.name, "register", handle.app_id)
        # Clients are co-located with the controller-facing edge (no
        # RPC): tell minting caches about the new version immediately so
        # no cookie encoded under the old key is served past this point.
        for client in self._clients:
            client.on_application_push(handle)

    def _install_via_bus(
        self, handle: ApplicationHandle, event_filter=None
    ) -> None:
        """Reliably-ordered push: tier N+1's RPCs are sent only after
        every tier-N call acked (or was declared dead after retries).
        A lost or delayed ack therefore delays the lower tiers instead
        of reordering them — the paper's invariant holds under loss."""
        tiers = self._tiers()

        def push_tier(index: int) -> None:
            while index < len(tiers) and not tiers[index][1]:
                index += 1
            if index >= len(tiers):
                return
            tier, devices = tiers[index]
            remaining = {"count": len(devices)}

            def done(record) -> None:
                if record.error is None:
                    self._log(record.device, "register", handle.app_id)
                else:
                    self.push_failures.append(record)
                remaining["count"] -= 1
                if remaining["count"] == 0:
                    push_tier(index + 1)

            for device in devices:
                args, kwargs = self._register_args(tier, handle, event_filter)
                kwargs["_on_complete"] = done
                self.bus.call(
                    device.name, "register_application", *args, **kwargs
                )

        push_tier(0)

    # -- developer API 1: add/remove applications -------------------------------------

    def add_application(
        self,
        name: str,
        features: List[Feature],
        specs: List[StatSpec],
        mode: str = ForwardingMode.PER_PACKET,
        period_ms: float = 0.0,
        event_filter=None,
    ) -> ApplicationHandle:
        if name in self._apps:
            raise ValueError("application %r already exists" % name)
        schema = CookieSchema(name, tuple(features))
        transport_schema, overflow = schema.split_for_transport()
        self._check_carriable(transport_schema, mode)
        handle = ApplicationHandle(
            name=name,
            app_id=self._new_app_id(),
            version=0,
            key=self._new_key(),
            schema=schema,
            transport_schema=transport_schema,
            overflow_schema=overflow,
            specs=list(specs),
            mode=mode,
            period_ms=period_ms,
        )
        self._install(handle, event_filter)
        self._apps[name] = handle
        self._event_filters[name] = event_filter
        return handle

    def remove_application(self, name: str) -> None:
        handle = self._apps.pop(name, None)
        if handle is None:
            raise KeyError("no application %r" % name)
        self._event_filters.pop(name, None)
        self._revoke(handle.app_id)

    def _revoke(self, app_id: int) -> None:
        # Revocation order mirrors installation.
        for _tier, devices in self._tiers():
            for device in devices:
                if self.bus is not None:
                    self.bus.call(device.name, "revoke_application", app_id)
                else:
                    device.revoke_application(app_id)
                self._log(device.name, "revoke", app_id)
        for client in self._clients:
            client.on_application_revoke(app_id)

    # -- developer APIs 2-4: versioned updates ------------------------------------------

    def update_application(
        self,
        name: str,
        features: Optional[List[Feature]] = None,
        specs: Optional[List[StatSpec]] = None,
        mode: Optional[str] = None,
        period_ms: Optional[float] = None,
        event_filter=None,
    ) -> ApplicationHandle:
        """Create a new version with a fresh application-ID and key; the
        old version keeps running until :meth:`retire_old_versions`."""
        old = self._apps.get(name)
        if old is None:
            raise KeyError("no application %r" % name)
        schema = (
            CookieSchema(name, tuple(features))
            if features is not None
            else old.schema
        )
        transport_schema, overflow = schema.split_for_transport()
        new_mode = mode if mode is not None else old.mode
        new_period = period_ms if period_ms is not None else old.period_ms
        if new_mode == ForwardingMode.PERIODICAL and new_period <= 0:
            raise ValueError("periodical forwarding needs a positive period")
        self._check_carriable(transport_schema, new_mode)
        handle = ApplicationHandle(
            name=name,
            app_id=self._new_app_id(),
            version=old.version + 1,
            key=self._new_key(),
            schema=schema,
            transport_schema=transport_schema,
            overflow_schema=overflow,
            specs=list(specs) if specs is not None else list(old.specs),
            mode=new_mode,
            period_ms=new_period,
        )
        self._install(handle, event_filter)
        self._apps[name] = handle
        self._event_filters[name] = event_filter
        self._retired.append((name, old.app_id))
        return handle

    def add_cookie(self, name: str, feature: Feature) -> ApplicationHandle:
        """Developer API 2 (add): append a sub-cookie."""
        old = self._apps[name]
        return self.update_application(
            name, features=list(old.schema.features) + [feature]
        )

    def remove_cookie(self, name: str, feature_name: str) -> ApplicationHandle:
        """Developer API 2 (remove)."""
        old = self._apps[name]
        remaining = [
            f for f in old.schema.features if f.name != feature_name
        ]
        if len(remaining) == len(old.schema.features):
            raise KeyError("no feature %r in application %r" % (feature_name, name))
        return self.update_application(name, features=remaining)

    def change_feature(
        self, name: str, feature: Feature
    ) -> ApplicationHandle:
        """Developer API 3: replace a feature's type / valid range."""
        old = self._apps[name]
        features = [
            feature if f.name == feature.name else f
            for f in old.schema.features
        ]
        if feature.name not in [f.name for f in old.schema.features]:
            raise KeyError("no feature %r in application %r" % (feature.name, name))
        return self.update_application(name, features=features)

    def change_forwarding(
        self, name: str, mode: str, period_ms: float = 0.0
    ) -> ApplicationHandle:
        """Developer API 4: switch between per-packet and periodical."""
        return self.update_application(name, mode=mode, period_ms=period_ms)

    def retire_old_versions(self) -> int:
        """After the grace period, revoke superseded versions' rules."""
        count = 0
        for _name, app_id in self._retired:
            self._revoke(app_id)
            count += 1
        self._retired.clear()
        return count

    # -- introspection ----------------------------------------------------------------------

    def application(self, name: str) -> ApplicationHandle:
        return self._apps[name]

    def applications(self) -> List[str]:
        return sorted(self._apps)

    def pending_retirements(self) -> int:
        return len(self._retired)

    def _push_to_device(self, tier: str, device: Any,
                        handle: ApplicationHandle, action: str) -> None:
        """Re-push one application to one device, over the bus when
        present (retried until acked) or directly otherwise."""
        args, kwargs = self._register_args(
            tier, handle, self._event_filters.get(handle.name)
        )
        if self.bus is not None:
            key = (device.name, handle.app_id)
            if key in self._inflight:
                return  # an identical push is already being retried
            self._inflight.add(key)

            def done(record) -> None:
                self._inflight.discard(key)
                if record.error is None:
                    self._log(record.device, action, handle.app_id)
                else:
                    self.push_failures.append(record)

            kwargs["_on_complete"] = done
            self.bus.call(
                device.name, "register_application", *args, **kwargs
            )
        else:
            device.register_application(*args, **kwargs)
            self._log(device.name, action, handle.app_id)

    def resync(self, name: str) -> int:
        """Fault repair (section 6): re-push the current version's
        parameters to every device that lost them (e.g. after a failed
        key update).  Returns the number of devices re-provisioned
        (push scheduled, when riding an RpcBus)."""
        handle = self._apps[name]
        resynced = 0
        for tier, devices in self._tiers():
            for device in devices:
                if not getattr(device, "alive", True):
                    continue  # a crashed device re-enrolls on restart
                if handle.app_id in device.registered_app_ids():
                    continue
                self._push_to_device(tier, device, handle, "resync")
                resynced += 1
        return resynced

    def reenroll_device(self, device: Any) -> int:
        """Crash recovery: a restarted device lost all register state
        and parameters; re-push every current application it is missing.
        Returns the number of applications (re-)pushed."""
        tier = None
        for tier_name, devices in self._tiers():
            if any(d is device for d in devices):
                tier = tier_name
                break
        if tier is None:
            raise KeyError("device %r is not attached" % device.name)
        pushed = 0
        registered = set(device.registered_app_ids())
        for handle in self._apps.values():
            if handle.app_id in registered:
                continue
            self._push_to_device(tier, device, handle, "reenroll")
            pushed += 1
        return pushed

    def is_consistent(self, name: str) -> bool:
        """Every device knows the application's current version."""
        handle = self._apps[name]
        devices = self._agg_switches + self._lark_switches + self._edge_servers
        return all(
            handle.app_id in device.registered_app_ids() for device in devices
        )

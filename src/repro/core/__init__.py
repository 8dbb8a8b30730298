"""Snatch core: semantic cookies, the two switch tiers, the edge
service, the controller, INSA planning and privacy mechanisms."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "aggregation": (
        "AggregationCodec", "AggregationPacket", "ForwardingMode",
        "SNATCH_SID",
    ),
    "aggswitch": ("AggResult", "AggSwitch"),
    "alt_carriers": (
        "CarrierProfile", "Ipv6Carrier", "QUIC_CARRIER_PROFILE",
        "TcpTimestampCarrier", "carrier_comparison",
    ),
    "app_cookie": (
        "ApplicationCookieCodec", "cookie_name_for_app",
        "format_cookie_header", "parse_cookie_header",
    ),
    "compiler": (
        "CompileError", "CompiledQuery", "Query", "QueryCompiler", "QueryOp",
        "QueryOpKind",
    ),
    "controller": ("ApplicationHandle", "SnatchController"),
    "cookie_cache": ("CookieEncodeCache",),
    "edge_service": ("EdgeResult", "SnatchEdgeServer"),
    "fault": ("Discrepancy", "FaultRepairLoop", "ResultVerifier"),
    "insa": (
        "DSTREAM_SUPPORT", "InsaPlan", "InsaPlanner", "MethodInfo", "PlanOp",
        "Support", "classify", "table1_rows",
    ),
    "larkswitch": (
        "LarkResult", "LarkSwitch", "RegisteredApp", "flatten_snapshot",
        "unflatten_snapshot",
    ),
    "privacy": (
        "CorrelatedCookies", "IdentifiabilityError", "RandomizedResponse",
        "SchemaAuditFinding", "ValueTransform", "audit_schema",
    ),
    "regional": ("RegionalDeployment", "RegionalHandle"),
    "rpc": ("DeadDeviceError", "RpcBus", "RpcCall", "RpcError"),
    "schema": (
        "CookieSchema", "Feature", "FeatureType", "FeatureValueError",
        "TRANSPORT_COOKIE_BITS",
    ),
    "stats": (
        "Lane", "REGISTER_LANES", "REGISTER_WIDTH", "StatKind", "StatSpec",
        "SwitchStatistics", "array_lanes", "merge_snapshots",
    ),
    "switch_join": ("JoinKind", "JoinedRow", "SwitchJoinTable"),
    "transport_cookie": ("DecodedTransportCookie", "TransportCookieCodec"),
})

"""Programmable-switch substrate: a P4/Tofino-style pipeline model.

LarkSwitch and AggSwitch (paper section 4.1) are built on this model in
:mod:`repro.core`.  The substrate enforces the hardware constraints the
paper leans on: limited stages, integer-only ALU, match-action tables,
scarce register SRAM, clones, and control-plane digests.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "bloom": ("BloomFilter",),
    "columns": (
        "HAVE_NUMPY", "PacketColumns", "force_numpy", "group_rows",
        "numpy_enabled",
    ),
    "hashing": ("HashUnit", "crc32", "crc32_many"),
    "parser": (
        "ETHERNET", "HeaderField", "HeaderType", "IPV4", "ParseError",
        "ParseState", "Parser", "QUIC_SHORT", "UDP", "build_snatch_packet",
        "snatch_parser",
    ),
    "pipeline": (
        "AES_PASS_LATENCY_MS", "Digest", "LINE_RATE_LATENCY_MS", "MAX_STAGES",
        "MAX_TABLES_PER_STAGE", "PHV", "PipelineCompileError",
        "PipelineResult", "Stage", "SwitchPipeline",
    ),
    "primitives": ("SUPPORTED_OPS", "SwitchALU", "UnsupportedOperationError"),
    "registers": ("RegisterArray", "RegisterFile", "SramExhaustedError"),
    "sketch": ("CountMinSketch",),
    "tables": (
        "MatchActionTable", "MatchKey", "MatchKind", "TableEntry",
        "TableFullError",
    ),
})

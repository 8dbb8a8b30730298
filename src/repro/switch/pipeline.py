"""A stage-limited P4 pipeline model.

A Tofino-class switch processes every packet through a fixed number of
match-action stages (12 per pipe on Tofino 1).  Each stage can apply a
bounded number of tables, and actions are restricted to ALU primitives
plus register read-modify-writes.  Programs that need more stages than
the hardware offers simply do not compile — this is the resource
ceiling behind the paper's "support more applications with a smaller
speedup each, or fewer with a larger speedup each" trade-off
(section 6).

The model:

* a **PHV** (packet header vector) is a mutable mapping of named
  integer fields parsed from the packet plus per-packet metadata;
* a **Stage** holds up to ``MAX_TABLES_PER_STAGE`` match-action tables;
* **actions** are registered callables constrained to operate through
  the :class:`~repro.switch.primitives.SwitchALU` and register arrays;
* processing yields a :class:`PipelineResult` with forwarded packets,
  cloned packets (Snatch clones the original toward the web server and
  rewrites the clone toward the analytics server), control-plane
  digests, and a per-packet latency estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.registry import MetricsRegistry, get_registry
from repro.switch.primitives import SwitchALU, UnsupportedOperationError
from repro.switch.registers import RegisterFile
from repro.switch.tables import MatchActionTable

__all__ = [
    "PHV",
    "Digest",
    "Stage",
    "PipelineResult",
    "SwitchPipeline",
    "PipelineCompileError",
    "MAX_STAGES",
    "MAX_TABLES_PER_STAGE",
    "LINE_RATE_LATENCY_MS",
    "AES_PASS_LATENCY_MS",
    "BATCH_SIZE_EDGES",
]

MAX_STAGES = 12
MAX_TABLES_PER_STAGE = 4

# Per-packet forwarding latency of a Tofino is sub-microsecond; the
# paper models AES en/decryption of a 160-bit cookie as ~0.1 ms [45].
LINE_RATE_LATENCY_MS = 0.001
AES_PASS_LATENCY_MS = 0.1

# Powers of 1-2-5 covering a single packet up to recirculation-buffer
# sized bursts; integer edges, same style as the latency buckets.
BATCH_SIZE_EDGES: Tuple[int, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500,
    1000, 2000, 5000, 10000, 100000, 1000000,
)


class PipelineCompileError(RuntimeError):
    """Raised when a program exceeds the hardware resource model."""


class PHV:
    """Packet header vector: named integer/bytes fields plus metadata."""

    __slots__ = ("fields", "metadata", "drop", "egress_port")

    def __init__(self, fields: Optional[Dict[str, Any]] = None):
        self.fields: Dict[str, Any] = dict(fields or {})
        self.metadata: Dict[str, Any] = {}
        self.drop = False
        self.egress_port: Optional[int] = None

    def __getitem__(self, name: str) -> Any:
        if name not in self.fields:
            raise KeyError("PHV has no field %r" % name)
        return self.fields[name]

    def __setitem__(self, name: str, value: Any) -> None:
        self.fields[name] = value

    def __contains__(self, name: str) -> bool:
        return name in self.fields

    def get(self, name: str, default: Any = None) -> Any:
        return self.fields.get(name, default)

    def copy(self) -> "PHV":
        clone = PHV(dict(self.fields))
        clone.metadata = dict(self.metadata)
        return clone


@dataclass(slots=True)
class Digest:
    """A message punted to the switch control plane (P4 PSA digest)."""

    name: str
    data: Dict[str, Any]


@dataclass
class Stage:
    """One physical pipeline stage holding a few tables."""

    index: int
    tables: List[MatchActionTable] = field(default_factory=list)

    def add_table(self, table: MatchActionTable) -> None:
        if len(self.tables) >= MAX_TABLES_PER_STAGE:
            raise PipelineCompileError(
                "stage %d already holds %d tables"
                % (self.index, MAX_TABLES_PER_STAGE)
            )
        self.tables.append(table)


@dataclass(slots=True)
class PipelineResult:
    """Outcome of processing one packet."""

    phv: PHV
    forwarded: bool
    clones: List[PHV] = field(default_factory=list)
    digests: List[Digest] = field(default_factory=list)
    latency_ms: float = LINE_RATE_LATENCY_MS


ActionFn = Callable[["SwitchPipeline", PHV, Dict[str, Any]], None]


class SwitchPipeline:
    """A compiled switch program: stages, tables, registers, actions.

    Usage::

        pipe = SwitchPipeline("lark0")
        table = pipe.add_table(stage=0, table=MatchActionTable(...))
        pipe.register_action("count", count_fn)
        result = pipe.process({"udp_dport": 443, ...})
    """

    def __init__(self, name: str, sram_budget_bits: int = 10 * 1024 * 1024,
                 registry: Optional[MetricsRegistry] = None):
        self.name = name
        self.stages: List[Stage] = []
        self.registers = RegisterFile(sram_budget_bits)
        self.alu = SwitchALU(width=64)
        self._actions: Dict[str, ActionFn] = {"NoAction": lambda p, v, a: None}
        self._clone_requests: List[PHV] = []
        self._digest_queue: List[Digest] = []
        self._extra_latency_ms = 0.0
        self.packets_processed = 0
        self.packets_dropped = 0
        # Program shape version: bumped whenever stages, tables or
        # actions change, so the switches' columnar paths can tell the
        # pipeline no longer has the shape they assume.
        self._program_version = 0
        # Instruments are resolved once at construction so the
        # per-packet path only does integer increments.
        self.metrics = registry if registry is not None else get_registry()
        base = "pipeline.%s" % name
        self._m_packets = self.metrics.counter(base + ".packets")
        self._m_drops = self.metrics.counter(base + ".drops")
        self._m_latency_us = self.metrics.histogram(base + ".latency_us")
        self._m_batches = self.metrics.counter(base + ".batches")
        self._m_batch_size = self.metrics.histogram(
            base + ".batch.size", BATCH_SIZE_EDGES
        )
        self._m_batch_latency_us = self.metrics.histogram(
            base + ".batch.latency_us"
        )
        self._stage_meters: List[Any] = []  # (hits, misses) per stage

    # -- program construction -------------------------------------------

    def add_stage(self) -> Stage:
        if len(self.stages) >= MAX_STAGES:
            raise PipelineCompileError(
                "pipeline %s exceeds %d stages" % (self.name, MAX_STAGES)
            )
        stage = Stage(index=len(self.stages))
        self.stages.append(stage)
        prefix = "pipeline.%s.stage%02d" % (self.name, stage.index)
        self._stage_meters.append((
            self.metrics.counter(prefix + ".hits"),
            self.metrics.counter(prefix + ".misses"),
        ))
        self._program_version += 1
        return stage

    def add_table(
        self, stage: int, table: MatchActionTable
    ) -> MatchActionTable:
        while len(self.stages) <= stage:
            self.add_stage()
        self.stages[stage].add_table(table)
        self._program_version += 1
        return table

    def register_action(self, name: str, fn: ActionFn) -> None:
        if name in self._actions:
            raise ValueError("action %r already registered" % name)
        self._actions[name] = fn
        self._program_version += 1

    # -- runtime services available to actions ---------------------------

    def clone_packet(self, phv: PHV) -> PHV:
        """Request an egress clone of the current packet (Snatch clones
        the original toward its normal route and rewrites the clone
        toward the analytics server)."""
        clone = phv.copy()
        self._clone_requests.append(clone)
        return clone

    def emit_digest(self, name: str, data: Dict[str, Any]) -> None:
        self._digest_queue.append(Digest(name, dict(data)))

    def charge_latency(self, ms: float) -> None:
        """Account extra per-packet latency (e.g. an AES pass)."""
        if ms < 0:
            raise ValueError("latency must be non-negative")
        self._extra_latency_ms += ms

    # -- packet processing ------------------------------------------------

    def process(self, fields: Dict[str, Any]) -> PipelineResult:
        """Run one packet through all stages in order."""
        phv = PHV(fields)
        self._clone_requests = []
        self._digest_queue = []
        self._extra_latency_ms = 0.0
        self.packets_processed += 1
        self._m_packets.inc()

        for stage_index, stage in enumerate(self.stages):
            if phv.drop:
                break
            hit_meter, miss_meter = self._stage_meters[stage_index]
            for table in stage.tables:
                if phv.drop:
                    break
                values = [phv.get(key.field_name, 0) for key in table.keys]
                action, params, hit = table.lookup(values)
                (hit_meter if hit else miss_meter).inc()
                fn = self._actions.get(action)
                if fn is None:
                    raise UnsupportedOperationError(
                        "table %s selected unregistered action %r"
                        % (table.name, action)
                    )
                fn(self, phv, params)

        if phv.drop:
            self.packets_dropped += 1
            self._m_drops.inc()
        latency_ms = LINE_RATE_LATENCY_MS + self._extra_latency_ms
        self._m_latency_us.observe(latency_ms * 1000.0)
        return PipelineResult(
            phv=phv,
            forwarded=not phv.drop,
            clones=list(self._clone_requests),
            digests=list(self._digest_queue),
            latency_ms=latency_ms,
        )

    # -- introspection ----------------------------------------------------

    def resource_report(self) -> Dict[str, Any]:
        return {
            "stages_used": len(self.stages),
            "stages_max": MAX_STAGES,
            "tables": sum(len(s.tables) for s in self.stages),
            "sram_used_bits": self.registers.used_bits,
            "sram_budget_bits": self.registers.sram_budget_bits,
            "packets_processed": self.packets_processed,
            "packets_dropped": self.packets_dropped,
        }

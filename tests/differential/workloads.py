"""Seeded workload generators for the scalar-vs-columnar differential suite.

Three shapes, all deterministic given a seed:

* ``uniform``     — every user equally likely; the common case.
* ``zipfian``     — heavy-tailed user popularity (Pareto ranks), so the
  columnar decode memo sees a few hot cookies and a long cold tail.
* ``adversarial`` — engineered to stress the fast path's caches and
  fallbacks: distinct connection IDs that collide in the decode memo
  (same preserved cookie bytes, different random filler), cookies
  encrypted under the wrong key (decode-failure path), non-Snatch junk
  CIDs (app-table miss), and truncated CIDs.

Every generator returns plain :class:`ConnectionID` lists so the same
stream can be replayed through the scalar path and through
``process_quic_columnar`` at any chunking; :func:`columnar_batches`
and :func:`scalar_columns` line the two up chunk by chunk.

A fourth stream, :func:`wide_payloads`, is aggregation payloads under
its own schema whose SUM and AVG cells wrap the 48-bit registers.
"""

import itertools
import random
from typing import Any, Callable, List, Sequence, Union

from repro.core.aggregation import (
    AggregationCodec,
    AggregationPacket,
    ForwardingMode,
)
from repro.core.aggswitch import AggSwitch
from repro.core.larkswitch import LarkSwitch
from repro.core.schema import CookieSchema, Feature
from repro.core.stats import StatKind, StatSpec
from repro.core.transport_cookie import TransportCookieCodec
from repro.obs.registry import MetricsRegistry
from repro.quic.connection_id import ConnectionID
from repro.switch.hashing import crc32
from repro.workloads.adcampaign import AdCampaignWorkload

APP_ID = 0x3D
SHAPES = ("uniform", "zipfian", "adversarial")


def columnar_batches(
    process: Callable[[Sequence[Any]], Any],
    items: Sequence[Any],
    sizes: Union[int, Sequence[int]],
) -> List[Any]:
    """``items`` through a columnar entry point in chunks of ``sizes``
    (one size, or sizes taken in turn): the batch results, in order."""
    cycle = itertools.cycle([sizes] if isinstance(sizes, int) else sizes)
    batches, at = [], 0
    while at < len(items):
        size = next(cycle)
        batches.append(process(items[at:at + size]))
        at += size
    return batches


def scalar_columns(of, results: List[Any], batches: List[Any]) -> List[Any]:
    """Per-packet scalar ``results`` as batch columns (``of`` is the
    batch type's adapter), chunked as ``batches`` are."""
    out, at = [], 0
    for batch in batches:
        out.append(of(results[at:at + len(batch)]))
        at += len(batch)
    assert at == len(results)
    return out


def table_meters(switch):
    """The (hits, misses) meters of a switch's one match-action table:
    how many packets of the batches so far hit it."""
    hits, misses = switch.pipeline._stage_meters[0]
    return hits.value, misses.value


def register_state(switch):
    """Full raw register-file contents of a switch pipeline — the
    strictest state comparison the differential suite makes."""
    registers = switch.pipeline.registers
    return {name: registers.get(name).snapshot() for name in registers.names()}


class DifferentialWorkload:
    """One seeded user population plus matched switch constructors.

    Paired switches are built with identical seeds but *private*
    metrics registries: same-named instruments in the global registry
    would otherwise be shared between the scalar and columnar instances.
    """

    def __init__(self, seed: int, num_users: int = 300):
        self.seed = seed
        self.workload = AdCampaignWorkload(num_users=num_users, seed=seed)
        key_rng = random.Random(seed * 1000 + 17)
        self.key = bytes(key_rng.getrandbits(8) for _ in range(16))
        self.wrong_key = bytes(key_rng.getrandbits(8) for _ in range(16))
        self.schema = self.workload.schema()
        self.specs = self.workload.specs()

    # -- switches -----------------------------------------------------------

    def new_lark(self, mode: str = ForwardingMode.PERIODICAL) -> LarkSwitch:
        lark = LarkSwitch(
            "diff-lark",
            rng=random.Random(self.seed + 1),
            registry=MetricsRegistry(),
        )
        lark.register_application(
            APP_ID, self.schema, self.key, self.specs, mode=mode,
            period_ms=1000.0 if mode == ForwardingMode.PERIODICAL else 0.0,
        )
        return lark

    def new_agg(self) -> AggSwitch:
        agg = AggSwitch(
            "diff-agg",
            rng=random.Random(self.seed + 2),
            registry=MetricsRegistry(),
        )
        agg.register_application(APP_ID, self.schema, self.key, self.specs)
        return agg

    def _codec(self, key: bytes = None) -> TransportCookieCodec:
        return TransportCookieCodec(
            APP_ID, self.schema, key or self.key,
            random.Random(self.seed + 3),
        )

    # -- CID streams --------------------------------------------------------

    def _per_user_cids(self) -> List[ConnectionID]:
        codec = self._codec()
        rng = random.Random(self.seed + 4)
        return [
            codec.encode(
                user.semantic_values(
                    rng.choice(self.workload.campaigns),
                    rng.choice(("view", "click")),
                )
            )
            for user in self.workload.users
        ]

    def cids(self, shape: str, n: int) -> List[ConnectionID]:
        if shape == "uniform":
            return self._uniform(n)
        if shape == "zipfian":
            return self._zipfian(n)
        if shape == "adversarial":
            return self._adversarial(n)
        raise ValueError("unknown workload shape %r" % shape)

    def _uniform(self, n: int) -> List[ConnectionID]:
        per_user = self._per_user_cids()
        rng = random.Random(self.seed + 5)
        return [per_user[rng.randrange(len(per_user))] for _ in range(n)]

    def _zipfian(self, n: int) -> List[ConnectionID]:
        per_user = self._per_user_cids()
        rng = random.Random(self.seed + 6)
        out = []
        for _ in range(n):
            rank = min(int(rng.paretovariate(1.2)) - 1, len(per_user) - 1)
            out.append(per_user[rank])
        return out

    def _adversarial(self, n: int) -> List[ConnectionID]:
        rng = random.Random(self.seed + 7)
        codec = self._codec()
        wrong_codec = self._codec(self.wrong_key)
        hot_users = self.workload.users[:4]
        out: List[ConnectionID] = []
        for _ in range(n):
            kind = rng.randrange(8)
            user = rng.choice(hot_users)
            values = user.semantic_values(
                rng.choice(self.workload.campaigns),
                rng.choice(("view", "click")),
            )
            if kind < 4:
                # Fresh encode each time: the ECB cookie block repeats
                # but the filler bytes differ, so distinct CIDs share
                # one decode-memo key.
                out.append(codec.encode(values))
            elif kind < 6:
                # Right app-ID byte, wrong AES key: decode falls into
                # the failure/abort path (memoized as None).
                out.append(wrong_codec.encode(values))
            elif kind == 6:
                # Non-Snatch traffic: random first byte, app table miss.
                raw = bytes([0x80 | rng.getrandbits(7)]) + bytes(
                    rng.getrandbits(8) for _ in range(19)
                )
                out.append(ConnectionID(raw))
            else:
                # Truncated CID, shorter than one AES block.
                raw = bytes(codec.encode(values))[: rng.randrange(1, 8)]
                out.append(ConnectionID(raw))
        return out

    # -- aggregation payloads -----------------------------------------------

    def payloads(self, shape: str, n: int) -> List[bytes]:
        """Aggregation payloads produced by a per-packet-mode lark over
        the same shaped CID stream (the natural feed for AggSwitch)."""
        lark = self.new_lark(mode=ForwardingMode.PER_PACKET)
        results = [
            lark.process_quic_packet(cid) for cid in self.cids(shape, n)
        ]
        return [
            r.aggregation_payload for r in results
            if r.aggregation_payload is not None
        ]

    def skewed_payloads(self, n: int, shards: int) -> List[bytes]:
        """Payloads filtered so most land on one shard — the
        hash-collision adversary for the shard partition."""
        pool = self.payloads("uniform", n)
        hot = [p for p in pool if crc32(p) % shards == 0]
        rng = random.Random(self.seed + 8)
        out = list(pool)
        while len(out) < n and hot:
            out.append(hot[rng.randrange(len(hot))])
        return out[:n]


# -- the wrapping stream ------------------------------------------------------

WIDE_MAX = (1 << 48) - 1  # one full statistics register


def wide_schema() -> CookieSchema:
    # "big" spans the whole 48-bit register, so two rows wrap a SUM.
    return CookieSchema(
        "wide",
        (
            Feature.categorical("gender", ["f", "m", "x"]),
            Feature.number("big", 0, WIDE_MAX),
        ),
    )


def wide_specs() -> List[StatSpec]:
    return [
        StatSpec("by_gender", StatKind.COUNT_BY_CLASS, "gender"),
        StatSpec("big_sum", StatKind.SUM, "big"),
        StatSpec("big_min", StatKind.MIN, "big"),
        StatSpec("big_max", StatKind.MAX, "big"),
        StatSpec("big_avg", StatKind.AVG, "big", group_by="gender"),
    ]


def wide_payloads(app_id: int, key: bytes, n: int, seed: int) -> List[bytes]:
    """Per-packet aggregation payloads under :func:`wide_schema` whose
    "big" values wrap big_sum (and the grouped big_avg sums) several
    times within ``n`` rows."""
    rng = random.Random(seed)
    codec = AggregationCodec(app_id, key, rng)
    payloads = []
    for _ in range(n):
        items = [(0, rng.randrange(3))]
        if rng.random() < 0.8:
            items.append((1, WIDE_MAX - rng.randrange(1 << 40)))
        payloads.append(codec.encode(AggregationPacket(
            app_id=app_id, mode=ForwardingMode.PER_PACKET, items=items
        )))
    return payloads

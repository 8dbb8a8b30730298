"""Property suite for the shard split.

Pins the one placement rule the shard runtime has:

* row ``i`` of a stream lands on shard ``crc32(key_i) % shards`` — the
  key is the whole payload for agg streams and the preserved cookie
  region ``raw[1:18]`` for lark streams — and each shard's part keeps
  arrival order, with the numpy gate open or closed;
* the vectorized ``partition_columns`` gather is byte-identical to the
  scalar ``partition_packets`` loop.
"""

import hashlib
import os
import random
import subprocess
import sys

import pytest

from repro.switch.columns import (
    HAVE_NUMPY, PacketColumns, force_numpy, get_numpy,
)
from repro.switch.hashing import crc32
from repro.testbed.executor import (
    ShardSpec,
    partition_columns,
    partition_packets,
)

from tests.differential.workloads import APP_ID, DifferentialWorkload

SEEDS = (3, 17, 4)
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))


def _specs(wl):
    agg = ShardSpec(
        kind="agg", app_id=APP_ID, schema=wl.schema, key=wl.key,
        specs=tuple(wl.specs), seed=7,
    )
    lark = ShardSpec(
        kind="lark", app_id=APP_ID, schema=wl.schema, key=wl.key,
        specs=tuple(wl.specs), seed=7, dedup=False,
    )
    return {"agg": agg, "lark": lark}


def _packets(wl, kind, shape, n):
    if kind == "agg":
        return wl.payloads(shape, n)
    return [bytes(c) for c in wl.cids(shape, n)]


class TestTheOneRule:
    @pytest.mark.parametrize("numpy_on", [True, False],
                             ids=["numpy", "python"])
    @pytest.mark.parametrize("kind", ("agg", "lark"))
    @pytest.mark.parametrize("shards", (1, 2, 3, 7))
    def test_every_row_lands_on_crc32_mod_shards(
        self, shards, kind, numpy_on
    ):
        if numpy_on and not HAVE_NUMPY:
            pytest.skip("numpy not installed")
        wl = DifferentialWorkload(seed=SEEDS[0])
        spec = _specs(wl)[kind]
        packets = _packets(wl, kind, "zipfian", 300)

        def key(raw):
            return raw[1:18] if kind == "lark" else raw

        force_numpy(numpy_on)
        try:
            parts = partition_columns(spec, shards, packets)
        finally:
            force_numpy(None)
        assert len(parts) == shards
        for shard, part in enumerate(parts):
            assert all(crc32(key(raw)) % shards == shard for raw in part.raw)
            assert part.raw == [
                raw for raw in packets if crc32(key(raw)) % shards == shard
            ]


def _split_digest(shards):
    """sha256 over every shard's part of seed-3 lark and agg streams."""
    wl = DifferentialWorkload(seed=SEEDS[0])
    digest = hashlib.sha256()
    for kind, spec in sorted(_specs(wl).items()):
        packets = _packets(wl, kind, "zipfian", 300)
        for part in partition_packets(spec, shards, packets):
            digest.update(b"|%d|" % len(part))
            digest.update(b"".join(part))
    return digest.hexdigest()


class TestSplitDeterminism:
    def test_split_deterministic_across_processes(self):
        """A fresh interpreter under another string-hash seed splits the
        same stream identically: the executor and its crash replay agree
        on placement without communicating."""
        script = (
            "import sys\n"
            "sys.path.insert(0, 'src')\n"
            "from tests.properties.test_partition_map import _split_digest\n"
            "print(_split_digest(3))\n"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, cwd=ROOT, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == _split_digest(3)


class TestVectorizedPartition:
    """``partition_columns`` == ``partition_packets``, gate open or
    closed, for both partition-key kinds."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kind", ("agg", "lark"))
    def test_matches_scalar_loop(self, seed, kind):
        wl = DifferentialWorkload(seed=seed)
        spec = _specs(wl)[kind]
        packets = _packets(wl, kind, "zipfian", 300)
        scalar = partition_packets(spec, 3, packets)
        parts = partition_columns(spec, 3, packets)
        assert [part.raw for part in parts] == scalar
        assert sum(len(part) for part in parts) == len(packets)

    def test_matches_with_numpy_gate_closed(self):
        wl = DifferentialWorkload(seed=SEEDS[0])
        spec = _specs(wl)["agg"]
        packets = wl.payloads("uniform", 200)
        open_parts = partition_columns(spec, 4, packets)
        force_numpy(False)
        try:
            closed_parts = partition_columns(spec, 4, packets)
        finally:
            force_numpy(None)
        assert [p.raw for p in closed_parts] == [
            p.raw for p in open_parts
        ]

    @pytest.mark.parametrize("numpy_on", [True, False],
                             ids=["numpy", "python"])
    @pytest.mark.parametrize("longest", (5, 17, 18, 19))
    @pytest.mark.parametrize("shards", (1, 2, 3, 7))
    def test_short_and_ragged_lark_rows(self, shards, longest, numpy_on):
        """Rows of 0..``longest`` bytes, many shorter than the cookie
        region ``[1, 18)`` (the key is then what the row has of it);
        batches narrower and wider than the region."""
        wl = DifferentialWorkload(seed=SEEDS[2])
        spec = _specs(wl)["lark"]
        rng = random.Random(shards * 100 + longest)
        packets = [
            rng.randbytes(rng.randrange(longest + 1)) for _ in range(120)
        ]
        packets[0] = bytes(longest)
        scalar = partition_packets(spec, shards, packets)
        force_numpy(numpy_on)
        try:
            parts = partition_columns(spec, shards, packets)
            assert [part.raw for part in parts] == scalar
            np = get_numpy()
            if np is not None:
                # Bytes past a row's length must not move it.
                flat = b"".join(p.ljust(longest, b"\xee") for p in packets)
                matrix = np.frombuffer(flat, dtype=np.uint8).reshape(
                    len(packets), longest
                )
                batch = PacketColumns.from_matrix(
                    matrix, [len(p) for p in packets]
                )
                parts = partition_columns(spec, shards, batch)
                assert [part.raw for part in parts] == scalar
        finally:
            force_numpy(None)

    def test_columns_input_accepted(self):
        if get_numpy() is None:
            pytest.skip("numpy unavailable")
        wl = DifferentialWorkload(seed=SEEDS[1])
        spec = _specs(wl)["lark"]
        packets = [bytes(c) for c in wl.cids("uniform", 150)]
        from_list = partition_columns(spec, 2, packets)
        from_cols = partition_columns(spec, 2, PacketColumns(packets))
        assert [p.raw for p in from_cols] == [p.raw for p in from_list]

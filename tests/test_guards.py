"""Deleted-name guards: one table, one tier-1 test.

Each row is a ``grep -E`` pattern that must not match (or, with
``max_hits``, may match at most that many lines) in the files under
its scope.  A row names the change that deleted the names, or confined
them, by its commit subject, so ``git log --grep`` finds the reasoning.
Every row also carries a sample line its pattern must match, so a
pattern broken by an edit fails here instead of guarding nothing.

The scan walks every file under a scope, as ``grep -r`` does, except
``__pycache__`` directories.  ``exclude`` holds ``fnmatch`` patterns
over repo-relative paths; ``word`` is ``grep -w``.
"""

import fnmatch
import os
import re
from dataclasses import dataclass
from typing import Tuple

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass(frozen=True)
class Guard:
    name: str
    pattern: str
    scope: Tuple[str, ...]
    sample: str
    since: str
    exclude: Tuple[str, ...] = ()
    word: bool = False
    max_hits: int = 0

    def regex(self):
        if self.word:
            return re.compile(r"(?<!\w)(?:%s)(?!\w)" % self.pattern)
        return re.compile(self.pattern)


HOP_MODEL = (
    "One hop model: the chaos harness on plain links, and one seeded "
    "fault process per lark -> agg hop"
)

SLOT_TABLE = (
    "Encode cache on integer identities: one slot table and one block "
    "slab, no per-cookie objects"
)

REACH_FOUR = (
    "Reach round four: delete what no caller runs outside the frozen "
    "tiers, including the second client-CID policy"
)

GUARDS = (
    Guard(
        # Two switch tiers (scalar, columnar); one numpy AES round
        # kernel; one grouped statistics fold; no merged-view mirror.
        "third-switch-tier",
        "process_quic_batch|compile_batch|CompiledPipeline|_predecode|"
        "encode_batch|_mix_columns_many|_update_plan|_plan_cache|"
        "update_weighted|update_grouped|_mirrored_add|mirror=",
        ("src",),
        "results = lark.process_quic_batch(rows)",
        "Two switch tiers, not three: retire the compiled-batch path; "
        "Per-packet forwarding at batch speed; Fold wire rows, not value "
        "dicts; The AggSwitch folds wire rows",
    ),
    Guard(
        # _rounds is crypto/aes.py's private round loop: everything
        # else reaches it through the public *_many entry points.
        "aes-round-loop",
        "_rounds",
        ("src",),
        "state = _rounds(state, schedule)",
        "Encode cache: cold misses at batch speed, reject before mutate",
        exclude=("src/repro/crypto/aes.py",),
        word=True,
    ),
    Guard(
        # np.unique: behind the dict scan as a grouping kernel at every
        # size, and under numpy 2.x its first call imports numpy.ma.
        # packet_of: the per-group object of the per-packet emission the
        # row sealer replaced.
        "retired-kernel-shapes",
        r"np\.unique|packet_of",
        ("src",),
        "keys, inverse = np.unique(column, return_inverse=True)",
        "No per-packet object on the periodical path; Per-packet "
        "forwarding as columns",
    ),
    Guard(
        "byte-wise-aes-rounds",
        "_sub_bytes|_shift_rows|_mix_columns|_add_round_key",
        ("src/repro/crypto/aes.py",),
        "state = _sub_bytes(state)",
        "No per-packet object on the periodical path",
    ),
    Guard(
        # One slot format, a worker that starts from a freshly built
        # replica, a backend fixed when a fleet is built, no in-flight
        # prefetch.
        "ring-worker-second-paths",
        "_push_spill|spill_bytes|degrade_backend|backend_for_epoch|"
        "max_inflight|partition_stream",
        ("src",),
        "self._push_spill(rows)",
        "One way through the ring-worker tier",
    ),
    Guard(
        # load_snapshot stays the register and sketch restore elsewhere.
        "load-snapshot-out-of-ring-tier",
        "load_snapshot",
        ("src/repro/testbed", "src/repro/chaos"),
        "ring.load_snapshot(state)",
        "One way through the ring-worker tier",
    ),
    Guard(
        # K aggregation pipes are ShardExecutor(ShardSpec(kind="agg"),
        # shards=K) and nothing else.
        "second-multi-pipe-model",
        "agg_shards|_fold_by_shard|_merge_banks|merged_cache|_shard_for|"
        "shard_column",
        ("src",),
        "testbed = NetworkTestbed(agg_shards=4)",
        "One multi-pipe model: the AggSwitch keeps one register bank",
    ),
    Guard(
        "aggswitch-one-bank",
        "shards",
        ("src/repro/core/aggswitch.py",),
        "def __init__(self, name, rng, shards=1):",
        "One multi-pipe model: the AggSwitch keeps one register bank",
    ),
    Guard(
        # core/stats.py declares the register algebra once; a second
        # literal is a restatement that can drift from it.  These two
        # rows are grep -F counts; both literals match themselves as
        # regular expressions.
        "one-register-width",
        "1 << 48",
        ("src",),
        "MASK = (1 << 48) - 1",
        "One register algebra",
        max_hits=1,
    ),
    Guard(
        "one-min-sentinel",
        "_MIN_SENTINEL =",
        ("src",),
        "_MIN_SENTINEL = (1 << 48) - 1",
        "One register algebra",
        max_hits=1,
    ),
    Guard(
        # generate_batch is the ad stream's one draw loop.
        "one-ad-draw-routine",
        "_draw_row",
        ("src/repro/workloads/adcampaign.py",),
        "row = self._draw_row()",
        "Take the interpreter out of the ad pipeline's client-side stages",
    ),
    Guard(
        # Snatch cookies carry no user identifier; the decode memo has
        # one fixed bound.
        "per-user-engagement-stack",
        "user_quantiles|UserEngagementTracker|SampledQuantileSketch|"
        "ScaleWorkload|decode_memo_capacity|drain_user_stats|"
        "absorb_user_stats",
        ("src",),
        "tracker = UserEngagementTracker(users)",
        "Delete the per-user engagement stack",
    ),
    Guard(
        # Table 1 is classified (core/insa.py names every DStream
        # method as a row), not executed.
        "streaming-engine-operators",
        "MessageBroker|broker_stream|updateStateByKey|saveAsTextFiles|"
        "StatefulDStream|BinaryTransformedDStream|keep_batches",
        ("src",),
        "counts = pairs.updateStateByKey(update)",
        "Cut repro.streaming to the operators its pipelines run",
        exclude=("*/insa.py",),
    ),
    Guard(
        # A columnar switch call returns plain columns.
        "lazily-rendered-views",
        "BatchView|_RunTrail|report_at|collect_results|agg_results",
        ("src",),
        "view = BatchView(columns)",
        "Columnar switch calls return columns; delete the lazily "
        "rendered views",
    ),
    Guard(
        # ShardExecutor.run holds the epoch, checkpoint, retry and
        # salvage loop.
        "one-shard-runtime",
        r"ShardSupervisor|SupervisedRunResult|set_placement|"
        r"last_bucket_counts|_run_workers|supervisor\.",
        ("src",),
        "result = supervisor.run(stream)",
        "One shard runtime: fold ShardSupervisor into ShardExecutor",
    ),
    Guard(
        # The persistent pipeline's worker hosts the whole switch half.
        "pipeline-agg-only-fleet",
        "fleet_shard_packets|placement_history|fleet_shards|_drain_fleet",
        ("src",),
        "counts = result.fleet_shard_packets",
        "Run the persistent pipeline's switch half in its ring worker",
    ),
    Guard(
        "placement-out-of-pipeline",
        "placement",
        ("src/repro/testbed/pipeline.py",),
        "def __init__(self, placement=None):",
        "Run the persistent pipeline's switch half in its ring worker",
    ),
    Guard(
        # The shard split is one fixed rule, crc32(key) % shards.
        "elastic-placement",
        "PlacementController|rebalanced|resized|map_versions|final_shards|"
        "target_imbalance|DEFAULT_BUCKETS",
        ("src",),
        "controller = PlacementController(shards=4)",
        "Delete elastic placement; split shards by crc32 % shards",
    ),
    Guard(
        # The packet simulator's switch nodes run the per-packet
        # programs on a streamed ingest; shards fold columnar.
        "test-only-data-plane-modes",
        "streaming_ingest|_run_materialized|ingest_batch|batch_window_ms|"
        "batch_max|check_backend",
        ("src",),
        "testbed = NetworkTestbed(config, batch_window_ms=5.0)",
        "One data-plane path per harness: delete the execution modes "
        "that only tests select",
    ),
    Guard(
        # One testbed DES (experiment.py) carries the lossy agg link;
        # repro.net keeps only what the chaos harness builds.
        "one-testbed-simulator",
        "NetworkTestbed|NetworkRunResult|ProcessingNode|SwitchNode|"
        "network_testbed",
        ("src", "benchmarks", "examples"),
        "testbed = NetworkTestbed(config)",
        "One testbed simulator: delete NetworkTestbed and its node classes",
    ),
    Guard(
        # crc32_many has one numpy form, the position-table gather; the
        # masked walk over still-active rows is gone.
        "crc32-one-form",
        r"crc\[active\]|_crc32_table_np",
        ("src/repro/switch",),
        "crc[active] = (lane >> 8) ^ table[(lane ^ data[active, j]) & 0xFF]",
        "Partition the sharded stream at gather speed: one position-table "
        "CRC-32 kernel",
    ),
    Guard(
        # repro.net keeps what the chaos harness drives; these helpers
        # had only test callers.
        "net-test-only-helpers",
        "set_link_delay|path_delay_ms|throughput_kbps|reset_counters",
        ("src", "benchmarks", "examples"),
        "net.set_link_delay('edge', 'web', 100.0)",
        "Partition the sharded stream at gather speed: one position-table "
        "CRC-32 kernel",
        word=True,
    ),
    Guard(
        # A batch result holds the payloads and the counts its callers
        # read; the batch latency is the closed form over the hits.
        "batch-results-hold-counts",
        r"emitters|merged_at|reduce\(add, map\(mul",
        ("src/repro/core",),
        "return AggBatchResult(matched, merged_at, latency_ms)",
        "Columnar switch calls return payloads and counts, no per-packet "
        "columns",
    ),
    Guard(
        # The controller reaches its devices only through its RpcBus;
        # bus.log is the one record of what it sent.
        "one-control-plane",
        r"RpcLog|rpc_log|_install_via_bus|bus is (not )?None",
        ("src/repro/core/controller.py",),
        "        if self.bus is not None:",
        "One control plane: the controller speaks only over its RpcBus",
    ),
    Guard(
        # The chaos harness schedules its two hops on Link + Simulator;
        # the routed network, its nodes and packets, and the three hop
        # fault mechanisms are gone.  (Network followed by a space or a
        # hyphen is prose: "the Network Edge", "Network-free".)
        "one-hop-model",
        r"Network(?![ -])|NoRouteError|SinkNode|NetPacket|ReorderInjector|"
        "LinkFaults|LinkFaultSpec|FaultModel|transit_times_ms|bandwidth_mbps",
        ("src",),
        "self.network = Network(self.sim)",
        HOP_MODEL,
        word=True,
    ),
    Guard(
        # net/hop.py is the one module that draws hop faults.
        "hop-fault-draws",
        r"\.random\(\) < (self\.|spec\.)?(drop|duplicate|reorder|corrupt|"
        r"loss)\w*|_corrupt_rng",
        ("src",),
        "if self.loss_rate and self._rng.random() < self.loss_rate:",
        HOP_MODEL,
        exclude=("src/repro/net/hop.py",),
    ),
    Guard(
        # switch/parser.py is the one QUIC header parser; the codec
        # helpers, app-layer servers and mechanisms had only test
        # callers.
        "reach-round-three",
        "parse_packet|encode_varint|SnatchWebServer|AnalyticsServer|"
        "NoisyDelta|PrivacyAccountant|heavy_hitters|from_samples",
        ("src",),
        "header = parse_packet(data)",
        "Reach round three: delete the protocol stand-ins and helpers "
        "that only tests run",
        word=True,
    ),
    Guard(
        # Accessors, sizing formulas and helpers that only tests ran;
        # the client CID policy is CookieEncodeCache (one cookie:
        # TransportCookieCodec.assemble).
        "reach-round-four",
        "call_all|item_count|is_aggregation_packet|fold_hash|hash_int|"
        "optimal_num_hashes|bloom_parameters|for_expected_items|"
        "false_positive_rate|SnatchConnectionIdPolicy|replace_range|"
        "first_byte|with_analytics_time|as_dict|result_available_ms|"
        "batch_index_for|expected_wait_ms|run_batches|all_delay_curves|"
        "delay_matrix|residential_sites|iter_batches|crash_count|"
        "inverse_sum|close_connection",
        ("src", "examples", "benchmarks", "tools", ".github"),
        "policy = SnatchConnectionIdPolicy(rng=rng)",
        REACH_FOUR,
        word=True,
    ),
    Guard(
        # The same round's methods whose names other classes still use
        # (Simulator.pending, SparkLatencyModel.result_time_ms).
        "reach-round-four-methods",
        r"def (pending|hex|result_time_ms|batches)\b",
        (
            "src/repro/core/rpc.py", "src/repro/quic/connection_id.py",
            "src/repro/streaming/context.py", "src/repro/workloads",
        ),
        "    def result_time_ms(self, arrival_ms: float) -> float:",
        REACH_FOUR,
    ),
    Guard(
        # The encode cache's LRU is its slot table: stamps and a touch
        # log over flat buffers, no ordered dict beside it.
        "one-slot-table",
        r"OrderedDict|move_to_end",
        ("src/repro/core/cookie_cache.py",),
        "        deque(map(blocks.move_to_end, compress(keys, out)), maxlen=0)",
        SLOT_TABLE,
    ),
)


def _files(scope):
    path = os.path.join(ROOT, scope)
    if os.path.isfile(path):
        yield path
        return
    for directory, subdirs, names in os.walk(path):
        subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
        for name in sorted(names):
            yield os.path.join(directory, name)


def _hits(guard):
    regex = guard.regex()
    for scope in guard.scope:
        for path in _files(scope):
            relative = os.path.relpath(path, ROOT).replace(os.sep, "/")
            if any(fnmatch.fnmatch(relative, p) for p in guard.exclude):
                continue
            with open(path, "rb") as handle:
                text = handle.read().decode("utf-8", errors="replace")
            for number, line in enumerate(text.splitlines(), 1):
                if regex.search(line):
                    yield "%s:%d: %s" % (relative, number, line.strip())


def test_guard_names_are_unique():
    assert len({guard.name for guard in GUARDS}) == len(GUARDS)


@pytest.mark.parametrize("guard", GUARDS, ids=lambda guard: guard.name)
def test_guard(guard):
    for scope in guard.scope:
        assert os.path.exists(os.path.join(ROOT, scope)), scope
    assert guard.regex().search(guard.sample), "pattern misses its sample"
    hits = list(_hits(guard))
    assert len(hits) <= guard.max_hits, (
        "deleted in %r:\n%s" % (guard.since, "\n".join(hits))
    )

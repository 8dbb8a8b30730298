"""Property tests: snapshot merge is associative, commutative, and
shard-split-invariant.

The replica runtime's fold
(:func:`repro.testbed.executor.fold_snapshots`) relies on
:func:`repro.core.stats.merge_snapshots` being a proper commutative
monoid fold over register snapshots: counts and sums add modulo the
48-bit register width, minima take min, maxima take max, and a freshly
allocated statistics program is the identity element.  These tests
drive random record streams through every statistic kind and check
the algebra over random shard splits, on values that wrap the
registers and on values that never come near.
"""

import random

import pytest

from repro.core.schema import CookieSchema, Feature
from repro.core.stats import (
    StatKind,
    StatSpec,
    SwitchStatistics,
    merge_snapshots,
)
from repro.switch.registers import RegisterFile

BIG = (1 << 48) - 1  # one full statistics register

SCHEMA = CookieSchema(
    "merge-prop",
    (
        Feature.categorical("cls", ("a", "b", "c", "d")),
        Feature.categorical("grp", ("g0", "g1", "g2")),
        Feature.number("val", 0, 1000),
        Feature.number("big", 0, BIG),
    ),
)

SPECS = [
    StatSpec("cls_by_grp", StatKind.COUNT_BY_CLASS, "cls", group_by="grp"),
    StatSpec("val_sum", StatKind.SUM, "val"),
    StatSpec("val_min", StatKind.MIN, "val"),
    StatSpec("val_max", StatKind.MAX, "val"),
    StatSpec("val_avg", StatKind.AVG, "val", group_by="grp"),
    StatSpec("big_sum", StatKind.SUM, "big"),
    StatSpec("big_avg", StatKind.AVG, "big", group_by="grp"),
]


def make_stats():
    return SwitchStatistics(SCHEMA, SPECS, RegisterFile(), prefix="prop")


def random_record(rng, wrapping=False):
    """One record; ``wrapping`` draws "big" within 2**40 of a full
    register, so a few records carry big_sum past 2**48."""
    return {
        "cls": rng.choice(SCHEMA.feature("cls").classes),
        "grp": rng.choice(SCHEMA.feature("grp").classes),
        "val": rng.randrange(0, 1001),
        "big": BIG - rng.randrange(1 << 40) if wrapping
        else rng.randrange(0, 1001),
    }


def snapshot_of(records):
    stats = make_stats()
    for record in records:
        stats.update(record)
    return stats.snapshot()


@pytest.mark.parametrize("seed", range(6))
def test_merge_commutative(seed):
    rng = random.Random(seed)
    a = snapshot_of([random_record(rng) for _ in range(50)])
    b = snapshot_of([random_record(rng) for _ in range(50)])
    assert merge_snapshots(SPECS, a, b) == merge_snapshots(SPECS, b, a)


@pytest.mark.parametrize("seed", range(6))
def test_merge_associative(seed):
    rng = random.Random(100 + seed)
    a = snapshot_of([random_record(rng) for _ in range(30)])
    b = snapshot_of([random_record(rng) for _ in range(30)])
    c = snapshot_of([random_record(rng) for _ in range(30)])
    assert merge_snapshots(SPECS, merge_snapshots(SPECS, a, b), c) == \
        merge_snapshots(SPECS, a, merge_snapshots(SPECS, b, c))


@pytest.mark.parametrize("seed", range(6))
def test_empty_stats_is_identity(seed):
    rng = random.Random(200 + seed)
    a = snapshot_of([random_record(rng) for _ in range(40)])
    empty = make_stats().snapshot()
    assert merge_snapshots(SPECS, a, empty) == a
    assert merge_snapshots(SPECS, empty, a) == a


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("shards", (2, 3, 5, 8))
@pytest.mark.parametrize("wrapping", (False, True), ids=("narrow", "wrapping"))
def test_random_shard_split_merges_to_whole(seed, shards, wrapping):
    """Partition one stream across N shards at random; the fold of the
    shard snapshots equals the unsharded snapshot, in any fold order —
    also when the sums wrap their registers."""
    rng = random.Random(300 + seed)
    records = [random_record(rng, wrapping) for _ in range(120)]
    whole = snapshot_of(records)
    if wrapping:
        assert sum(r["big"] for r in records) >= 100 << 48

    banks = [make_stats() for _ in range(shards)]
    for record in records:
        banks[rng.randrange(shards)].update(record)
    snapshots = [bank.snapshot() for bank in banks]

    order = list(range(shards))
    rng.shuffle(order)
    merged = snapshots[order[0]]
    for index in order[1:]:
        merged = merge_snapshots(SPECS, merged, snapshots[index])
    assert merged == whole

    # Rendering a merged snapshot equals rendering the whole.
    renderer = make_stats()
    assert renderer.report_from_snapshot(merged) == \
        renderer.report_from_snapshot(whole)

"""Laws of the register algebra, generated from its one declaration.

:data:`repro.core.stats.REGISTER_LANES` gives every statistic kind its
register lanes and every lane its identity, combine, numpy ufunc and
whether it scales with multiplicity.  The tests below are generated
from that table, so a new kind or lane is law-tested the moment it is
declared:

* per lane — the combine is a commutative monoid on the cells of a
  ``REGISTER_WIDTH``-bit register (closed, identity, commutative,
  associative; wrap included), the register ops and the numpy ufunc
  named on the lane compute it, and multiplicity scales it exactly
  when the lane says so;
* per kind — any k-way split (k <= 7) of a stream, each shard folded
  by ``fold_rows`` with the numpy gate open or closed, folded back
  through :func:`repro.testbed.executor.fold_snapshots` in any order,
  equals one bank fed the whole stream by ``update``.
"""

from contextlib import contextmanager
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.schema import CookieSchema, Feature
from repro.core.stats import (
    REGISTER_LANES,
    REGISTER_WIDTH,
    StatSpec,
    SwitchStatistics,
)
from repro.switch import columns
from repro.switch.registers import RegisterArray, RegisterFile
from repro.testbed.executor import ShardSpec, fold_snapshots

TOP = (1 << REGISTER_WIDTH) - 1  # the all-ones cell

# One case per distinct algebra (a lane's name and what a row adds to
# it do not change its laws), named after the first kind declaring it.
LANES = [
    pytest.param(lane, id=name)
    for lane, name in {
        lane._replace(suffix="", tally=False): kind.value + lane.suffix
        for kind, lanes in reversed(REGISTER_LANES.items())
        for lane in reversed(lanes)
    }.items()
]
KINDS = [pytest.param(kind, id=kind.value) for kind in REGISTER_LANES]

# Register cells, with the edges drawn often: 0, 1 and the all-ones
# cell (MIN's sentinel; two of them wrap a sum).
cells = st.one_of(
    st.sampled_from([0, 1, TOP - 1, TOP]),
    st.integers(0, TOP),
)


# The numpy kernels on (where installed) or forced off.
GATES = [pytest.param(None, id="open"), pytest.param(False, id="closed")]


@contextmanager
def numpy_gate(state):
    columns.force_numpy(state)
    try:
        yield
    finally:
        columns.force_numpy(None)


# -- lane laws -------------------------------------------------------------


@pytest.mark.parametrize("lane", LANES)
@settings(max_examples=50)
@given(a=cells, b=cells)
def test_combine_stays_in_the_register(lane, a, b):
    assert 0 <= lane.identity <= TOP
    assert 0 <= lane.combine(a, b) <= TOP


@pytest.mark.parametrize("lane", LANES)
@settings(max_examples=50)
@given(a=cells)
def test_identity(lane, a):
    assert lane.combine(a, lane.identity) == a
    assert lane.combine(lane.identity, a) == a


@pytest.mark.parametrize("lane", LANES)
@settings(max_examples=50)
@given(a=cells, b=cells)
def test_commutative(lane, a, b):
    assert lane.combine(a, b) == lane.combine(b, a)


@pytest.mark.parametrize("lane", LANES)
@settings(max_examples=50)
@given(a=cells, b=cells, c=cells)
@example(a=TOP, b=TOP, c=1)
def test_associative(lane, a, b, c):
    assert lane.combine(lane.combine(a, b), c) == \
        lane.combine(a, lane.combine(b, c))


@pytest.mark.parametrize("lane", LANES)
@settings(max_examples=50)
@given(a=cells, b=cells)
def test_register_ops_compute_the_combine(lane, a, b):
    """``rmw`` on one cell and ``bulk`` over a vector, on a register
    of the table's width, both land on ``combine``."""
    for apply in (
        lambda array: getattr(array, lane.rmw)(0, b),
        lambda array: getattr(array, lane.bulk)([b]),
    ):
        array = RegisterArray("lane", 1, REGISTER_WIDTH)
        array.write(0, a)
        apply(array)
        assert array.read(0) == lane.combine(a, b)


@pytest.mark.skipif(not columns.HAVE_NUMPY, reason="numpy not installed")
@pytest.mark.parametrize("lane", LANES)
@settings(max_examples=50)
@given(a=cells, b=cells)
def test_ufunc_computes_the_combine(lane, a, b):
    import numpy as np

    ufunc = getattr(np, lane.ufunc)
    assert int(ufunc(np.int64(a), np.int64(b))) & TOP == lane.combine(a, b)


@pytest.mark.parametrize("lane", LANES)
@settings(max_examples=50)
@given(value=cells, times=st.integers(1, 9))
def test_multiplicity(lane, value, times):
    """``times`` equal contributions fold to one scaled contribution
    on a scaling lane and to one contribution on an idempotent lane —
    what ``fold_rows`` does with a row's count."""
    folded = reduce(lane.combine, [value] * times, lane.identity)
    expected = value * times & TOP if lane.scales else value
    assert folded == expected


# -- split law, per kind ------------------------------------------------------

SCHEMA = CookieSchema(
    "algebra",
    (
        Feature.categorical("cls", ("a", "b", "c")),
        Feature.categorical("grp", ("g0", "g1")),
        Feature.number("val", 0, TOP),
    ),
)
NAMES = SCHEMA.feature_names()
GROUPS = (None, "grp")

# A record is one wire row (-1: the feature is absent), its
# multiplicity and the shard (mod k) it goes to.
wire_rows = st.tuples(
    st.integers(-1, 2), st.integers(-1, 1), st.one_of(st.just(-1), cells)
)
records = st.lists(
    st.tuples(wire_rows, st.integers(1, 3), st.integers(0, 6)), max_size=40
)


def _specs(kind, group_by):
    feature = "cls" if kind.value == "count_by_class" else "val"
    return [StatSpec("stat", kind, feature, group_by=group_by)]


def _bank(specs):
    return SwitchStatistics(SCHEMA, specs, RegisterFile(), prefix="law")


def _values(row):
    """The decoded values ``update`` takes for one wire row."""
    return {
        name: SCHEMA.feature(name).decode_value(wire)
        for name, wire in zip(NAMES, row)
        if wire >= 0
    }


def _fold_split(specs, parts, order):
    """Each part folded by ``fold_rows`` into its own bank, the banks'
    snapshots folded in ``order`` (an idle shard reports ``None``)."""
    snapshots = []
    for part in parts:
        bank = _bank(specs)
        bank.fold_rows([row for row, _ in part], [t for _, t in part])
        snapshots.append(bank.snapshot() if part else None)
    shard_spec = ShardSpec("agg", 1, SCHEMA, bytes(16), tuple(specs))
    folded = fold_snapshots(shard_spec, (snapshots[i] for i in order))
    return folded or _bank(specs).snapshot()


def _whole(specs, stream):
    """One bank fed every record, one ``update`` per occurrence."""
    bank = _bank(specs)
    for row, times in stream:
        for _ in range(times):
            bank.update(_values(row))
    return bank.snapshot()


@pytest.mark.parametrize("group_by", GROUPS, ids=("ungrouped", "grouped"))
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("gate", GATES)
@settings(max_examples=25, deadline=None)
@given(
    stream=records,
    k=st.integers(1, 7),
    order=st.permutations(range(7)),
)
@example(  # SUM wraps; MIN meets its sentinel; MAX stays at 0
    stream=[((0, 0, TOP), 2, 0), ((1, 0, TOP), 1, 1), ((2, 1, 0), 1, 2)],
    k=3,
    order=list(range(7))[::-1],
)
def test_split_folds_to_the_whole(gate, kind, group_by, stream, k, order):
    specs = _specs(kind, group_by)
    parts = [[] for _ in range(k)]
    for row, times, shard in stream:
        parts[shard % k].append((row, times))
    with numpy_gate(gate):
        folded = _fold_split(specs, parts, [i for i in order if i < k])
    assert folded == _whole(specs, [(row, t) for row, t, _ in stream])


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("gate", GATES)
def test_wide_stream_takes_the_numpy_form(gate, kind):
    """The split law's shards are mostly below ``VECTOR_MIN_ROWS``;
    this stream is not, so with the gate open the numpy fold meets the
    register edges too: wrapping sums, the MIN sentinel, MAX of 0."""
    specs = _specs(kind, "grp")
    stream = [
        ((i % 3, i % 2, (TOP, 0, TOP - 1, 1)[i % 4]), 1 + i % 3)
        for i in range(4 * columns.VECTOR_MIN_ROWS)
    ]
    with numpy_gate(gate):
        folded = _fold_split(specs, [stream[::2], stream[1::2]], [1, 0])
    assert folded == _whole(specs, stream)

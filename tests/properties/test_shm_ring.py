"""Property suite for the shared-memory columnar ring.

:mod:`repro.testbed.shm_ring` is the transport under every persistent
shard worker, so its invariants are load-bearing for the whole
persistent tier:

* **FIFO byte-exactness** — rows come out in push order, byte for
  byte, through any interleaving of pushes and pops, across slot
  wraparound and the row splits that keep every piece inside one
  slot's row lane and byte budget; rows are drawn on both sides of
  64 bytes, up to the whole budget;
* **one slot format** — the two aggregation shapes the persistent
  pipeline pushes (1024 rows of 68 bytes, one row of 932 bytes) arrive
  byte-exact, the later pieces of a split batch marked ``continued``;
* **oversize rows** — a row wider than a whole slot is refused before
  any slot is claimed, and the ring is left exactly as it was; a row of
  exactly the budget fits, and ``try_push`` refuses (untouched) what
  ``push`` would split;
* **full/empty boundary** — ``try_push`` refuses exactly when all
  ``capacity`` slots are unreleased, ``try_pop`` refuses exactly when
  the ring is drained, and slots are reusable immediately after
  ``release`` — for many consecutive laps around the seqlock; an empty
  batch is one slot of zero rows;
* **lifecycle** — attached peers share the owner's slots and never
  unlink, foreign segments and degenerate geometries are refused;
* **reset** — returns any half-consumed ring to its pristine state.

The stream cases run with the numpy gate open and closed.  All cases
are randomized with shrinkable hypothesis strategies.  The whole
module skips where POSIX shared memory is unavailable (some sandboxes
mount no /dev/shm).
"""

import contextlib
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.switch.columns import PacketColumns, force_numpy, get_numpy
from repro.testbed.shm_ring import (
    KIND_CONTROL,
    KIND_DATA,
    ColumnRing,
    shared_memory_available,
)

pytestmark = pytest.mark.skipif(
    not shared_memory_available(),
    reason="POSIX shared memory unavailable",
)

# Small geometry so wraparound and both kinds of split trigger within a
# handful of batches.
CAPACITY = 4
ROW_CAPACITY = 8
SLOT_BYTES = 64 * ROW_CAPACITY

# "python" closes the numpy gate; "numpy" runs where the default gate is
# open (not under REPRO_NO_NUMPY=1, not without numpy).
GATES = ("numpy", "python")


@contextlib.contextmanager
def _gate(name):
    if name == "numpy" and get_numpy() is None:
        pytest.skip("numpy gate closed")
    force_numpy(name == "numpy")
    try:
        yield
    finally:
        force_numpy(None)


def _ring(**overrides) -> ColumnRing:
    geometry = dict(capacity=CAPACITY, row_capacity=ROW_CAPACITY)
    geometry.update(overrides)
    return ColumnRing.create(**geometry)


def _seqs(ring):
    return [ring._read_seq(i) for i in range(ring.capacity)]


def _drain_one(ring, out) -> bool:
    view = ring.try_pop()
    if view is None:
        return False
    out.extend(view.rows())
    ring.release()
    return True


def _stream_through(ring, batches):
    """Push every batch through ``ring`` against a real consumer
    thread (the ring is SPSC: blocking ``push`` needs an independent
    consumer to make progress on a full ring).  Returns the popped
    rows in arrival order."""
    popped = []
    produced = threading.Event()
    failures = []

    def consume():
        try:
            while True:
                if not _drain_one(ring, popped):
                    if produced.is_set() and ring.try_pop() is None:
                        return
                    time.sleep(0.0002)
        except Exception as exc:  # pragma: no cover - surfacing only
            failures.append(exc)

    consumer = threading.Thread(target=consume)
    consumer.start()
    try:
        for batch in batches:
            ring.push(batch, timeout=30.0)
    finally:
        produced.set()
        consumer.join(timeout=60.0)
    assert not failures, failures
    assert not consumer.is_alive(), "consumer failed to drain"
    return popped


# Narrow rows (<= 64 bytes, the row lane's average) and wide ones (up
# to the whole slot budget), mixed inside one stream; more rows than a
# slot's lane forces the row split, a wide matrix the byte split.
_row = st.one_of(
    st.binary(min_size=0, max_size=64),
    st.binary(min_size=65, max_size=SLOT_BYTES),
)
_rows = st.lists(_row, min_size=0, max_size=3 * ROW_CAPACITY)
_batches = st.lists(_rows, min_size=1, max_size=8)


def _as_pushed(batch, columns):
    """A batch as a row list, or as :class:`PacketColumns` — which is
    vectorized when the gate is open and it has enough rows."""
    return PacketColumns(batch) if columns else batch


class TestFifoByteExactness:
    @pytest.mark.parametrize("gate", GATES)
    @settings(max_examples=30, deadline=None)
    @given(batches=_batches, columns=st.booleans())
    def test_concurrent_stream_preserves_rows(self, gate, batches, columns):
        """Rows survive any producer/consumer interleaving byte for
        byte and in order, through slot wraparound and the row and
        byte splits."""
        with _gate(gate), _ring() as ring:
            popped = _stream_through(
                ring, [_as_pushed(b, columns) for b in batches]
            )
        expected = [bytes(r) for batch in batches for r in batch]
        assert popped == expected

    @pytest.mark.parametrize("gate", GATES)
    @settings(max_examples=15, deadline=None)
    @given(batches=_batches)
    def test_drain_then_reuse_is_stateless(self, gate, batches):
        """A drained ring behaves like a fresh one: the same stream
        pushed twice round-trips identically both times."""
        with _gate(gate), _ring() as ring:
            expected = [bytes(r) for batch in batches for r in batch]
            for _lap in range(2):
                assert _stream_through(ring, batches) == expected

    @pytest.mark.parametrize("gate", GATES)
    def test_split_pieces_are_marked_continued(self, gate):
        """Twenty 100-byte rows take four slots of five: one batch,
        the first piece plain, the rest ``continued``, kind kept."""
        rows = [bytes([i]) * 100 for i in range(20)]
        with _gate(gate), _ring(capacity=8) as ring:
            ring.push(rows, kind=KIND_CONTROL)
            ring.push([b"next"])
            pieces = []
            while True:
                view = ring.try_pop()
                if view is None:
                    break
                pieces.append((view.kind, view.continued, view.rows()))
                ring.release()
        assert [(k, c, len(r)) for k, c, r in pieces] == [
            (KIND_CONTROL, False, 5), (KIND_CONTROL, True, 5),
            (KIND_CONTROL, True, 5), (KIND_CONTROL, True, 5),
            (KIND_DATA, False, 1),
        ]
        assert [r for _k, _c, rows in pieces[:4] for r in rows] == rows

    @pytest.mark.parametrize("gate", GATES)
    def test_measured_agg_shapes(self, gate):
        """The persistent pipeline's ring (row capacity 1024, a 64 KiB
        budget) carries its two aggregation shapes: a per-packet batch
        of 1024 x 68 bytes in two slots, a periodical 932-byte snapshot
        payload in one.  Batches of 16 rows or more arrive as
        vectorized columns when the gate is open."""
        batch = [bytes([i % 251]) * 68 for i in range(1024)]
        snapshot = [bytes(range(233)) * 4]
        with _gate(gate), _ring(row_capacity=1024) as ring:
            ring.push(PacketColumns(batch))
            ring.push(PacketColumns(snapshot))
            arrived = []
            while True:
                view = ring.try_pop()
                if view is None:
                    break
                # The columns alias the slot: read them before release.
                columns = view.columns()
                arrived.append(
                    (view.continued, columns.vectorized, columns.raw)
                )
                del columns
                ring.release()
        assert [(c, len(rows)) for c, _v, rows in arrived] == [
            (False, 963), (True, 61), (False, 1),
        ]
        assert arrived[0][1] == arrived[1][1] == (gate == "numpy")
        assert arrived[0][2] + arrived[1][2] == batch
        assert arrived[2][2] == snapshot


class TestOversizeRow:
    @pytest.mark.parametrize("gate", GATES)
    @settings(max_examples=15, deadline=None)
    @given(
        # Narrow rows, at most a lane's worth: one slot per batch.
        queued=st.lists(
            st.lists(st.binary(max_size=64), max_size=ROW_CAPACITY),
            max_size=CAPACITY - 1,
        ),
        excess=st.integers(min_value=1, max_value=64),
        columns=st.booleans(),
    )
    def test_row_wider_than_a_slot_is_refused_untouched(
        self, gate, queued, excess, columns
    ):
        """The refusal comes before any slot is claimed: occupancy and
        every sequence word are as they were, and the next push works."""
        oversize = [b"ok", b"x" * (SLOT_BYTES + excess), b"ok"]
        with _gate(gate), _ring() as ring:
            for batch in queued:
                ring.push(_as_pushed(batch, columns))
            occupied, seqs = len(ring), _seqs(ring)
            with pytest.raises(ValueError, match="exceeds"):
                ring.push(_as_pushed(oversize, columns), timeout=0.01)
            assert (len(ring), _seqs(ring)) == (occupied, seqs)
            ring.push([b"after"], timeout=1.0)
            popped = []
            while _drain_one(ring, popped):
                pass
        assert popped == [bytes(r) for b in queued for r in b] + [b"after"]

    @pytest.mark.parametrize("gate", GATES)
    def test_try_push_refuses_what_push_splits(self, gate):
        """``try_push`` fills one slot or none: a batch with more rows
        than the lane, or a matrix over the byte budget, is refused with
        the ring untouched, and ``push`` carries the same batch split."""
        too_many = [b"r%d" % i for i in range(ROW_CAPACITY + 1)]
        too_wide = [b"w" * 100] * 6  # 600 bytes, 512 budget
        with _gate(gate), _ring(capacity=8) as ring:
            for batch in (too_many, too_wide):
                with pytest.raises(ValueError, match="exceeds one slot"):
                    ring.try_push(PacketColumns(batch))
                assert (len(ring), _seqs(ring)) == (0, list(range(8)))
            ring.push(PacketColumns(too_many))
            ring.push(PacketColumns(too_wide))
            assert len(ring) == 4
            popped = []
            while _drain_one(ring, popped):
                pass
        assert popped == too_many + too_wide

    @pytest.mark.parametrize("gate", GATES)
    def test_row_of_exactly_one_slot_fits(self, gate):
        """The refusal starts one byte past the budget: a row of exactly
        ``slot_bytes`` takes a slot of its own, and two such rows take
        two, the second ``continued``."""
        full = [bytes([i]) * SLOT_BYTES for i in (1, 2)]
        with _gate(gate), _ring() as ring:
            assert ring.slot_bytes == SLOT_BYTES
            ring.push(full[:1])
            ring.push(full)
            pieces = []
            while True:
                view = ring.try_pop()
                if view is None:
                    break
                pieces.append((view.continued, view.rows()))
                ring.release()
        assert pieces == [
            (False, full[:1]), (False, full[:1]), (True, full[1:]),
        ]


class TestFullEmptyBoundary:
    @settings(max_examples=20, deadline=None)
    @given(laps=st.integers(min_value=1, max_value=6))
    def test_slot_accounting_across_wraparound(self, laps):
        """Exactly ``capacity`` one-row batches fit; the next push is
        refused until a release; repeat for several laps so the
        sequence words wrap the ring multiple times."""
        with _ring() as ring:
            for lap in range(laps):
                for i in range(CAPACITY):
                    row = b"%d:%d" % (lap, i)
                    assert ring.try_push([row])
                assert not ring.try_push([b"overflow"])
                for i in range(CAPACITY):
                    view = ring.pop(timeout=1.0)
                    assert view is not None
                    assert view.rows() == [b"%d:%d" % (lap, i)]
                    ring.release()
                assert ring.try_pop() is None

    def test_empty_ring_pops_nothing(self):
        with _ring() as ring:
            assert ring.try_pop() is None
            assert ring.pop(timeout=0.01) is None

    @pytest.mark.parametrize("gate", GATES)
    def test_empty_batch_takes_one_slot(self, gate):
        """An empty batch is still one hand-off: one slot of zero rows,
        not continued, read back as no rows and as empty columns."""
        with _gate(gate), _ring() as ring:
            ring.push([])
            ring.push(PacketColumns([]))
            assert len(ring) == 2
            for _ in range(2):
                view = ring.pop(timeout=1.0)
                assert (view.kind, view.n_rows, view.continued) == (
                    KIND_DATA, 0, False,
                )
                assert view.rows() == []
                assert len(view.columns()) == 0
                ring.release()
            assert ring.try_pop() is None


class TestControlSlots:
    @settings(max_examples=20, deadline=None)
    @given(
        payloads=st.lists(st.binary(min_size=1, max_size=64),
                          min_size=1, max_size=6)
    )
    def test_kind_rides_the_slot(self, payloads):
        with _ring() as ring:
            for i, payload in enumerate(payloads):
                kind = KIND_CONTROL if i % 2 else KIND_DATA
                ring.push([payload], kind=kind)
                view = ring.pop(timeout=1.0)
                assert view.kind == kind
                assert view.body() == payload
                ring.release()


class TestLifecycle:
    def test_attached_peers_share_slots_and_only_the_owner_unlinks(self):
        """A consumer attaches from the descriptor and sees the owner's
        slots; closing it leaves the segment to the owner, and a later
        peer picks up at the shared consumer position."""
        with _ring() as owner:
            descriptor = owner.descriptor
            first = ColumnRing.attach(descriptor)
            try:
                owner.push([b"one", b"two"])
                view = first.pop(timeout=1.0)
                assert view.rows() == [b"one", b"two"]
                first.release()
                assert len(owner) == 0
            finally:
                first.close()
            owner.push([b"three"])
            second = ColumnRing.attach(descriptor)
            try:
                view = second.pop(timeout=1.0)
                assert view.rows() == [b"three"]
                second.release()
            finally:
                second.close()
        with pytest.raises(FileNotFoundError):
            ColumnRing.attach(descriptor)

    def test_attach_refuses_a_foreign_segment(self):
        from multiprocessing import shared_memory

        foreign = shared_memory.SharedMemory(create=True, size=4096)
        try:
            with pytest.raises(ValueError, match="not a ColumnRing"):
                ColumnRing.attach({
                    "name": foreign.name, "capacity": CAPACITY,
                    "row_capacity": ROW_CAPACITY,
                })
        finally:
            foreign.close()
            foreign.unlink()

    def test_create_refuses_degenerate_geometry(self):
        with pytest.raises(ValueError, match="capacity"):
            ColumnRing.create(capacity=1)
        with pytest.raises(ValueError, match="row_capacity"):
            ColumnRing.create(row_capacity=0)


class TestReset:
    @pytest.mark.parametrize("gate", GATES)
    def test_reset_restores_pristine_state(self, gate):
        with _gate(gate), _ring() as ring:
            pristine = _seqs(ring)
            ring.push([b"abc", b"def"])
            ring.push([b"x" * SLOT_BYTES])
            ring.push([b"y" * 100] * ROW_CAPACITY)  # two slots
            view = ring.pop(timeout=1.0)
            assert view is not None
            ring.release()
            assert len(ring) == 3
            ring.reset()
            assert len(ring) == 0 and not ring.full
            assert _seqs(ring) == pristine == list(range(CAPACITY))
            assert ring.try_pop() is None
            # and the ring still works
            ring.push([b"after-reset"])
            view = ring.pop(timeout=1.0)
            assert view.rows() == [b"after-reset"]
            ring.release()

"""Properties of the per-hop fault process (:class:`repro.net.hop.Hop`).

* Chunking: one arrival sequence fed in any chunking gives the same
  released sequence, the same counts and the same RNG state.
* Conservation: ``arrived - dropped + duplicated == delivered + held``
  after every arrival, and ``held == 0`` after a flush.
* A drop-only hop draws exactly what a per-packet
  ``rng.random() < loss_rate`` loss process draws, and keeps the same
  packets.
* A reorder-only hop releases what the held-back-k-arrivals rule
  releases: a ``(arrival + randint(1, MAX_HOLD), arrival)`` heap.
"""

import heapq
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.hop import MAX_HOLD, Hop

PROBABILITY = st.sampled_from((0.0, 0.1, 0.5, 1.0)) | st.floats(0.0, 1.0)
PAYLOADS = st.lists(st.binary(min_size=1, max_size=12), max_size=80)
FAULTS = st.fixed_dictionaries({
    "drop": PROBABILITY,
    "corrupt": PROBABILITY,
    "reorder": PROBABILITY,
    "duplicate": PROBABILITY,
})


def _conserved(hop):
    c = hop.counts()
    return (
        c["arrived"] - c["dropped"] + c["duplicated"]
        == c["delivered"] + c["held"]
    )


@given(FAULTS, PAYLOADS, st.lists(st.integers(1, 9), min_size=1),
       st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_any_chunking_same_release_counts_and_rng(faults, items, cuts, seed):
    one = Hop(random.Random(seed), **faults)
    whole = [out for item in items for out in one.push(item)]
    chunked = Hop(random.Random(seed), **faults)
    released, i, k = [], 0, 0
    while i < len(items):
        size = cuts[k % len(cuts)]
        released.extend(chunked.push_many(items[i:i + size]))
        i, k = i + size, k + 1
    assert released == whole
    assert chunked.counts() == one.counts()
    assert chunked._rng.getstate() == one._rng.getstate()
    assert chunked.flush() == one.flush()


@given(FAULTS, PAYLOADS, st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_counts_are_conserved(faults, items, seed):
    hop = Hop(random.Random(seed), **faults)
    for item in items:
        hop.push(item)
        assert _conserved(hop)
    hop.flush()
    assert hop.held == 0 and _conserved(hop)


@given(PROBABILITY.filter(lambda p: p < 1.0), PAYLOADS, st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_drop_only_is_the_per_packet_loss_draw(loss_rate, items, seed):
    reference = random.Random(seed)
    kept = [
        item for item in items
        if not (loss_rate and reference.random() < loss_rate)
    ]
    hop = Hop(random.Random(seed), drop=loss_rate)
    assert [out for item in items for out in hop.push(item)] == kept
    assert hop.dropped == len(items) - len(kept)
    assert hop._rng.getstate() == reference.getstate()


@given(PROBABILITY.filter(bool), PAYLOADS, st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_reorder_only_holds_back_k_arrivals(probability, items, seed):
    reference = random.Random(seed)
    heap, expected = [], []
    for i, item in enumerate(items):
        delay = 0
        if reference.random() < probability:
            delay = reference.randint(1, MAX_HOLD)
        heapq.heappush(heap, (i + delay, i, item))
        while heap and heap[0][0] <= i:
            expected.append(heapq.heappop(heap)[2])
    expected += [heapq.heappop(heap)[2] for _ in range(len(heap))]
    hop = Hop(random.Random(seed), reorder=probability)
    released = hop.push_many(list(items)) + hop.flush()
    assert released == expected
    assert sorted(released) == sorted(items)

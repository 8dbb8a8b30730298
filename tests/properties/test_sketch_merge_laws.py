"""Merge laws of the sketches that ride beside the register banks.

``CountMinSketch.merge`` promises what the register lanes of
``tests/properties/test_register_algebra.py`` promise: an empty sketch
is the identity, merging is commutative and associative, and merging
the sketches of any k-way split (k <= 7) of a stream, in any order,
gives the sketch fed the whole stream.  Sketches are compared by
state: the snapshot, plus the count-min total.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.switch.sketch import CountMinSketch


class _Sketch:
    """How to build, feed and compare one sketch type."""

    def __init__(self, make, feed, state):
        self.make, self.feed, self.state = make, feed, state

    def of(self, stream):
        sketch = self.make()
        for key, count in stream:
            self.feed(sketch, key, count)
        return sketch


SKETCHES = [
    pytest.param(_Sketch(
        lambda: CountMinSketch(width=16, depth=3),
        CountMinSketch.add,
        lambda s: (s.snapshot(), s.total),
    ), id="count-min"),
]

updates = st.tuples(
    st.integers(0, 15).map(lambda k: b"user%02d" % k), st.integers(0, 4)
)
streams = st.lists(updates, max_size=30)
LAWS = settings(max_examples=40, deadline=None)


def _merged(sketch, *parts):
    """The first part's sketch with the others merged in, in order."""
    head, *rest = parts
    for part in rest:
        head.merge(part)
    return sketch.state(head)


@pytest.mark.parametrize("sketch", SKETCHES)
@LAWS
@given(stream=streams)
def test_empty_is_identity(sketch, stream):
    whole = sketch.state(sketch.of(stream))
    assert _merged(sketch, sketch.of(stream), sketch.make()) == whole
    assert _merged(sketch, sketch.make(), sketch.of(stream)) == whole


@pytest.mark.parametrize("sketch", SKETCHES)
@LAWS
@given(a=streams, b=streams)
def test_commutative(sketch, a, b):
    assert _merged(sketch, sketch.of(a), sketch.of(b)) == \
        _merged(sketch, sketch.of(b), sketch.of(a))


@pytest.mark.parametrize("sketch", SKETCHES)
@LAWS
@given(a=streams, b=streams, c=streams)
def test_associative(sketch, a, b, c):
    left = sketch.of(a)
    left.merge(sketch.of(b))
    right = sketch.of(b)
    right.merge(sketch.of(c))
    assert _merged(sketch, left, sketch.of(c)) == \
        _merged(sketch, sketch.of(a), right)


@pytest.mark.parametrize("sketch", SKETCHES)
@LAWS
@given(
    stream=st.lists(st.tuples(updates, st.integers(0, 6)), max_size=40),
    k=st.integers(1, 7),
    order=st.permutations(range(7)),
)
def test_split_merges_to_the_whole(sketch, stream, k, order):
    parts = [[] for _ in range(k)]
    for update, shard in stream:
        parts[shard % k].append(update)
    folded = _merged(sketch, *(
        sketch.of(parts[i]) for i in order if i < k
    ))
    assert folded == sketch.state(sketch.of([u for u, _ in stream]))

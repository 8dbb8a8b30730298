"""Property-based tests of the streaming engine's core invariants."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming.context import StreamingContext

events = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=499.999),  # arrival time
        st.integers(min_value=0, max_value=4),       # key
    ),
    max_size=60,
)


class TestBatchPartitioning:
    @given(events)
    @settings(max_examples=30)
    def test_every_record_lands_in_exactly_one_batch(self, records):
        ssc = StreamingContext(100)
        inp = ssc.input_stream()
        seen = []
        inp.foreachRDD(lambda rdd, i: seen.extend(rdd.collect()))
        for t, key in records:
            inp.push(key, t)
        for _ in range(5):
            ssc.run_batch()
        assert Counter(seen) == Counter(key for _t, key in records)

    @given(events)
    @settings(max_examples=30)
    def test_batch_membership_by_arrival_time(self, records):
        ssc = StreamingContext(100)
        inp = ssc.input_stream()
        per_batch = []
        inp.foreachRDD(lambda rdd, i: per_batch.append(rdd.collect()))
        for t, key in records:
            inp.push((t, key), t)
        for _ in range(5):
            ssc.run_batch()
        for index, batch in enumerate(per_batch):
            for t, _key in batch:
                assert index * 100 <= t < (index + 1) * 100


class TestWindowInvariants:
    @given(events)
    @settings(max_examples=30)
    def test_window_count_equals_sum_of_member_batches(self, records):
        ssc = StreamingContext(100)
        inp = ssc.input_stream()
        batch_counts = []
        window_counts = []
        inp.foreachRDD(lambda rdd, i: batch_counts.append(rdd.count()))
        inp.window(300).foreachRDD(
            lambda rdd, i: window_counts.append(rdd.count())
        )
        for t, key in records:
            inp.push(key, t)
        for _ in range(5):
            ssc.run_batch()
        for index in range(5):
            member = batch_counts[max(0, index - 2):index + 1]
            assert window_counts[index] == sum(member)

    @given(events)
    @settings(max_examples=30)
    def test_full_horizon_window_sees_everything(self, records):
        ssc = StreamingContext(100)
        inp = ssc.input_stream()
        counts = []
        inp.window(500).foreachRDD(lambda rdd, i: counts.append(rdd.count()))
        for t, key in records:
            inp.push(key, t)
        for _ in range(5):
            ssc.run_batch()
        assert counts[-1] == len(records)


class TestStatefulInvariants:
    @given(events)
    @settings(max_examples=30)
    def test_running_state_equals_batch_prefix_sums(self, records):
        """Per-batch reduceByKey counts folded by an output operation
        (the analytics server's accumulation) equal the whole stream's
        counts."""
        ssc = StreamingContext(100)
        inp = ssc.input_stream()
        state = Counter()
        (
            inp.map(lambda key: (key, 1))
            .reduceByKey(lambda a, b: a + b)
            .foreachRDD(lambda rdd, i: state.update(dict(rdd.collect())))
        )
        for t, key in records:
            inp.push(key, t)
        for _ in range(5):
            ssc.run_batch()
        assert state == Counter(key for _t, key in records)

    @given(events)
    @settings(max_examples=20)
    def test_reduce_by_key_and_window_matches_naive(self, records):
        ssc = StreamingContext(100)
        inp = ssc.input_stream()
        windowed = []
        (
            inp.map(lambda key: (key, 1))
            .reduceByKeyAndWindow(lambda a, b: a + b, 200)
            .foreachRDD(lambda rdd, i: windowed.append(dict(rdd.collect())))
        )
        for t, key in records:
            inp.push(key, t)
        for _ in range(5):
            ssc.run_batch()
        for index in range(5):
            lo, hi = (index - 1) * 100, (index + 1) * 100
            expected = Counter(
                key for t, key in records if lo <= t < hi and t >= 0
            )
            assert windowed[index] == dict(expected)


class TestWindowGrid:
    """Every (width, slide) pair: the windowed count equals the naive
    count over the trailing width, computed from batches the context
    has not yet evicted."""

    @pytest.mark.parametrize("width,slide", [
        (1, 1), (2, 1), (2, 2), (3, 1), (3, 3), (4, 2), (5, 1), (5, 5),
    ])
    @given(records=events)
    @settings(max_examples=15)
    def test_windowed_counts_match_naive(self, width, slide, records):
        ssc = StreamingContext(100)
        inp = ssc.input_stream()
        windowed = []
        (
            inp.map(lambda key: (key, 1))
            .reduceByKeyAndWindow(
                lambda a, b: a + b, width * 100, slide * 100
            )
            .foreachRDD(lambda rdd, i: windowed.append(dict(rdd.collect())))
        )
        for t, key in records:
            inp.push(key, t)
        for _ in range(5):
            ssc.run_batch()
        for index in range(5):
            expected = {}
            if (index + 1) % slide == 0:
                lo, hi = (index + 1 - width) * 100, (index + 1) * 100
                expected = dict(Counter(
                    key for t, key in records if lo <= t < hi
                ))
            assert windowed[index] == expected


"""RDD operator semantics, checked against plain-Python references."""

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming.rdd import RDD

kv_lists = st.lists(
    st.tuples(st.integers(0, 5), st.integers(-10, 10)), max_size=40
)


class TestConstruction:
    def test_of_round_robins(self):
        rdd = RDD.of(range(5), num_partitions=2)
        assert rdd.num_partitions == 2
        assert sorted(rdd.collect()) == [0, 1, 2, 3, 4]

    def test_empty(self):
        assert RDD.empty(3).count() == 0
        assert RDD.empty().collect() == []

    def test_invalid_partitions(self):
        with pytest.raises(ValueError):
            RDD.of([1], num_partitions=0)


class TestElementWise:
    def test_map_filter(self):
        rdd = RDD.of(range(6), 2)
        assert sorted(rdd.map(lambda x: x * 2).collect()) == [0, 2, 4, 6, 8, 10]
        assert sorted(rdd.filter(lambda x: x % 2 == 0).collect()) == [0, 2, 4]

    def test_map_preserves_partitioning(self):
        rdd = RDD([[1], [2, 3]])
        assert rdd.map(lambda x: x)._partitions == [[1], [2, 3]]


class TestAggregation:
    @given(kv_lists)
    @settings(max_examples=40)
    def test_reduce_by_key_matches_reference(self, pairs):
        rdd = RDD.of(pairs, 3)
        expected = defaultdict(int)
        for k, v in pairs:
            expected[k] += v
        assert dict(rdd.reduce_by_key(lambda a, b: a + b).collect()) == dict(
            expected
        )


    @pytest.mark.parametrize("partitions", [1, 2, 3, 5])
    def test_pairs_keep_the_partition_count(self, partitions):
        """Keyed results hash-partition over the input's partitions, so
        every record of one key lands in one partition."""
        rdd = RDD.of([(k % 7, 1) for k in range(50)], partitions)
        reduced = rdd.reduce_by_key(lambda a, b: a + b)
        assert reduced.num_partitions == partitions
        assert sorted(reduced.collect()) == [
            (k, 8 if k < 1 else 7) for k in range(7)
        ]
        for index, part in enumerate(reduced._partitions):
            assert all(hash(k) % partitions == index for k, _v in part)


class TestJoins:
    LEFT = [("k", 1), ("k", 2), ("l", 3)]
    RIGHT = [("k", 9), ("m", 8)]

    def test_inner_join(self):
        got = RDD.of(self.LEFT).join(RDD.of(self.RIGHT)).collect()
        assert sorted(got) == [("k", (1, 9)), ("k", (2, 9))]

    @given(kv_lists, kv_lists)
    @settings(max_examples=40)
    def test_inner_join_matches_reference(self, left, right):
        expected = [
            (lk, (lv, rv)) for lk, lv in left for rk, rv in right if lk == rk
        ]
        got = RDD.of(left, 2).join(RDD.of(right, 3)).collect()
        assert sorted(got) == sorted(expected)

    def test_union(self):
        union = RDD.of([1]).union(RDD.of([2]))
        assert sorted(union.collect()) == [1, 2]
        assert union.num_partitions == 2


class TestActions:
    def test_repr(self):
        assert "2 partitions" in repr(RDD.of(range(4), 2))

"""The DStream operators the engine keeps (each a Table 1 row)."""

import pytest

from repro.streaming.context import StreamingContext


def _ctx(interval=100.0):
    ssc = StreamingContext(batch_interval_ms=interval)
    return ssc, ssc.input_stream()


def _collecting(stream):
    out = []
    stream.foreachRDD(lambda rdd, i: out.append(sorted(
        rdd.collect(), key=repr
    )))
    return out


class TestForeachCategory:
    def test_map_filter_flatmap(self):
        ssc, inp = _ctx()
        out = _collecting(
            inp.map(lambda x: x + 1).filter(lambda x: x % 2 == 0)
        )
        inp.push_all([1, 2, 3, 4], 10)
        ssc.run_batch()
        assert out == [[2, 4]]

    def test_transform(self):
        ssc, inp = _ctx()
        out = _collecting(inp.transform(lambda rdd: rdd.map(lambda x: -x)))
        inp.push(5, 0)
        ssc.run_batch()
        assert out == [[-5]]

    def test_transform_propagates_type_error(self):
        """A TypeError raised inside fn is the caller's bug, not a cue
        to retry fn with another signature."""
        ssc, inp = _ctx()
        calls = []

        def broken(rdd):
            calls.append(rdd)
            raise TypeError("bug inside fn")

        inp.transform(broken).foreachRDD(lambda rdd, i: None)
        inp.push(1, 0)
        with pytest.raises(TypeError, match="bug inside fn"):
            ssc.run_batch()
        assert len(calls) == 1


class TestReduceCategory:
    def test_reduce_by_key(self):
        ssc, inp = _ctx()
        out = _collecting(inp.reduceByKey(lambda a, b: a + b))
        inp.push_all([("a", 1), ("a", 2), ("b", 1)], 0)
        ssc.run_batch()
        assert out == [[("a", 3), ("b", 1)]]


class TestWindowCategory:
    def test_window_unions_trailing_batches(self):
        ssc, inp = _ctx()
        out = _collecting(inp.window(300))
        for t in (10, 110, 210, 310):
            inp.push(t, t)
        for _ in range(4):
            ssc.run_batch()
        assert out == [[10], [10, 110], [10, 110, 210], [110, 210, 310]]

    def test_window_slide(self):
        ssc, inp = _ctx()
        out = _collecting(inp.window(200, 200))
        for t in (10, 110, 210, 310):
            inp.push(t, t)
        for _ in range(4):
            ssc.run_batch()
        # Emits only on even batch ends (200 ms slide).
        assert out == [[], [10, 110], [], [210, 310]]

    def test_reduce_by_key_and_window(self):
        ssc, inp = _ctx()
        out = _collecting(
            inp.reduceByKeyAndWindow(
                lambda a, b: a + b, windowDuration_ms=200
            )
        )
        inp.push(("k", 1), 10)
        inp.push(("k", 5), 110)
        for _ in range(2):
            ssc.run_batch()
        assert out == [[("k", 1)], [("k", 6)]]

    def test_window_requires_multiple_of_interval(self):
        ssc, inp = _ctx()
        with pytest.raises(ValueError, match="multiple"):
            inp.window(250)

    @pytest.mark.parametrize("width", [0, -100])
    def test_window_must_be_positive(self, width):
        ssc, inp = _ctx()
        with pytest.raises(ValueError, match="positive"):
            inp.window(width)
        with pytest.raises(ValueError, match="positive"):
            inp.reduceByKeyAndWindow(lambda a, b: a + b, width)

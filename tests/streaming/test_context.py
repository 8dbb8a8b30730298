"""StreamingContext: batch timing, batch bookkeeping, the bounded
batch cache."""

import pytest

from repro.streaming.context import StreamingContext


class TestTiming:
    def test_batch_time(self):
        ssc = StreamingContext(150)
        assert ssc.batch_time_ms(0) == 150
        assert ssc.batch_time_ms(3) == 600

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            StreamingContext(0)

    def test_interval_end_opens_the_next_batch(self):
        """A record at exactly ``k * interval`` belongs to batch k: the
        batch that ends then has already closed."""
        ssc = StreamingContext(100)
        inp = ssc.input_stream()
        assert [inp.push(t, t) for t in (0, 99.9, 100)] == [0, 0, 1]
        assert [ssc.run_batch().num_records for _ in range(2)] == [2, 1]


class TestExecution:
    def test_batch_info(self):
        ssc = StreamingContext(100, processing_time_ms=20)
        inp = ssc.input_stream()
        inp.push_all([1, 2, 3], 50)
        info = ssc.run_batch()
        assert info.index == 0
        assert info.num_records == 3
        assert (info.end_ms, info.processing_ms) == (100, 20)
        assert "3 records" in repr(info)

    def test_callable_processing_time(self):
        ssc = StreamingContext(100, processing_time_ms=lambda n: 5.0 * n)
        inp = ssc.input_stream()
        inp.push_all([1, 2], 0)
        info = ssc.run_batch()
        assert info.processing_ms == 10.0

    def test_run_until(self):
        ssc = StreamingContext(100)
        ssc.input_stream()
        infos = ssc.run_until(350)
        assert [i.index for i in infos] == [0, 1, 2]
        assert ssc.batches_run == 3

    def test_run_until_includes_a_batch_ending_at_the_limit(self):
        ssc = StreamingContext(100)
        ssc.input_stream()
        assert ssc.run_until(99.9) == []
        assert [i.index for i in ssc.run_until(100)] == [0]

    def test_run_until_resumes_where_it_stopped(self):
        ssc = StreamingContext(100)
        ssc.input_stream()
        ssc.run_until(200)
        infos = ssc.run_until(450)
        assert [(i.index, i.start_ms, i.end_ms) for i in infos] == [
            (2, 200, 300), (3, 300, 400),
        ]
        assert [i.index for i in ssc.batch_history] == [0, 1, 2, 3]

    def test_history_accumulates(self):
        ssc = StreamingContext(100)
        ssc.input_stream()
        for _ in range(2):
            ssc.run_batch()
        assert len(ssc.batch_history) == 2

    def test_multiple_outputs_all_fire(self):
        ssc = StreamingContext(100)
        inp = ssc.input_stream()
        a, b = [], []
        inp.foreachRDD(lambda rdd, i: a.append(rdd.count()))
        inp.map(lambda x: x).foreachRDD(lambda rdd, i: b.append(rdd.count()))
        inp.push(1, 0)
        ssc.run_batch()
        assert a == [1] and b == [1]


class TestBoundedCache:
    def test_every_stream_holds_at_most_the_widest_window(self):
        """The context evicts each batch once the widest registered
        window no longer reads it, so the cache does not grow with the
        number of batches run."""
        ssc = StreamingContext(100)
        inp = ssc.input_stream()
        pairs = inp.map(lambda x: (x % 3, 1))
        counts = []
        pairs.reduceByKeyAndWindow(
            lambda a, b: a + b, windowDuration_ms=300
        ).foreachRDD(lambda rdd, i: counts.append(dict(rdd.collect())))
        narrow = pairs.window(200)
        for t in range(0, 5000, 50):
            inp.push(t // 50, t)
        for _ in range(50):
            ssc.run_batch()
        assert ssc._widest_window == 3
        for stream in ssc._streams:
            assert len(stream._cache) <= 3, stream
        assert set(narrow._cache) == {47, 48, 49}
        # The last window still saw its three batches: six records.
        assert sum(counts[-1].values()) == 6

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 6, 10])
    def test_cache_bound_for_each_window_width(self, width):
        ssc = StreamingContext(100)
        inp = ssc.input_stream()
        windowed = inp.map(lambda x: x).window(width * 100)
        sizes = []
        windowed.foreachRDD(lambda rdd, i: sizes.append(rdd.count()))
        for t in range(0, 3000, 100):
            inp.push(t, t)
        for _ in range(30):
            ssc.run_batch()
        assert max(len(s._cache) for s in ssc._streams) == width
        # Full windows throughout: one record per batch.
        assert sizes[width - 1:] == [width] * (30 - width + 1)

    def test_no_window_keeps_only_the_current_batch(self):
        ssc = StreamingContext(100)
        inp = ssc.input_stream()
        stream = inp.map(lambda x: x)
        for t in range(0, 600, 100):
            inp.push(t, t)
        for _ in range(6):
            ssc.run_batch()
        assert set(stream._cache) == {5}

"""Period segmentation of the streaming pipeline, by bisection.

``StreamingPipeline._segments`` cuts each batch at the period
boundaries its event times cross.  It finds each cut with one
bisection over the (non-decreasing) times; this suite holds it to the
per-event scan it replaced, across batches that carry the boundary
state between them: ties exactly on a boundary, gaps of several
periods (one empty flushing segment per boundary crossed) and empty
batches.
"""

from types import SimpleNamespace

from hypothesis import given
from hypothesis import strategies as st

from repro.core.aggregation import ForwardingMode
from repro.testbed.pipeline import StreamingPipeline

# Dyadic periods: a grid of quarter periods and the accumulated
# boundaries are exact floats, so ties on a boundary are real ties.
PERIODS = (0.5, 1.0, 250.0)


def _scan(state, times):
    """The per-event scan: every event checks the next boundary."""
    n = len(times)
    lo = 0
    for i in range(n):
        while times[i] >= state.next_boundary:
            yield lo, i, True
            lo = i
            state.next_boundary += state.period_ms
    yield lo, n, False


@st.composite
def batched_times(draw):
    """(period, batches): non-decreasing times on a quarter-period grid,
    steps of zero (ties) up to several periods, now and then off the
    grid, split into batches, some of them empty."""
    period = draw(st.sampled_from(PERIODS))
    steps = draw(st.lists(
        st.one_of(
            st.integers(0, 3),
            st.integers(4, 24),
            st.just(0),
        ),
        max_size=80,
    ))
    jitter = draw(st.lists(st.booleans(), min_size=len(steps),
                           max_size=len(steps)))
    times, quarter = [], 0
    for step, off_grid in zip(steps, jitter):
        quarter += step
        time = quarter * period / 4
        if off_grid and step:
            time += period / 8
        times.append(max(time, times[-1]) if times else time)
    cuts = sorted(draw(st.lists(st.integers(0, len(times)), max_size=6)))
    bounds = [0] + cuts + [len(times)]
    return period, [times[a:b] for a, b in zip(bounds, bounds[1:])]


def _pipeline_state(mode, period):
    # _segments reads only these three attributes of the pipeline.
    return SimpleNamespace(mode=mode, period_ms=period, _next_boundary=period)


@given(batched_times())
def test_bisection_equals_the_per_event_scan(case):
    period, batches = case
    state = _pipeline_state(ForwardingMode.PERIODICAL, period)
    scan = SimpleNamespace(period_ms=period, next_boundary=period)
    periods = 0
    for times in batches:
        got = list(StreamingPipeline._segments(state, times))
        assert got == list(_scan(scan, times))
        assert state._next_boundary == scan.next_boundary
        # Segments tile the batch in order.
        assert [lo for lo, _, _ in got[1:]] == [hi for _, hi, _ in got[:-1]]
        assert got[0][0] == 0 and got[-1][1] == len(times)
        periods += sum(flush for _, _, flush in got)
    # One flush per boundary the stream's times crossed.
    everything = [t for times in batches for t in times]
    crossed = int(everything[-1] // period) if everything else 0
    assert periods == crossed


@given(batched_times())
def test_per_packet_mode_yields_one_segment(case):
    period, batches = case
    state = _pipeline_state(ForwardingMode.PER_PACKET, period)
    for times in batches:
        assert list(StreamingPipeline._segments(state, times)) == [
            (0, len(times), False)
        ]
    assert state._next_boundary == period

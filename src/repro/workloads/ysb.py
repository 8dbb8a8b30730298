"""The Yahoo Streaming Benchmark (YSB) on the micro-batch engine.

The paper's testbed workload *extends* YSB [46]: the classic benchmark
filters ad events, joins the ad ID to its campaign through a static
table, and counts views per campaign per window.  Snatch goes further
and counts demographics (see :mod:`repro.workloads.adcampaign`); this
module implements the original benchmark faithfully on our DStream
engine, both as a baseline comparator and as a non-trivial exercise of
the join/window operators.

Pipeline (as in the benchmark's description):

1. deserialize events,
2. ``filter`` to event_type == "view",
3. project (ad_id, event_time),
4. ``join`` ad_id -> campaign_id against the static campaign table,
5. windowed count per campaign.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.streaming.context import StreamingContext
from repro.streaming.rdd import RDD
from repro.workloads.columns import EventStream

__all__ = ["YsbEvent", "YsbEventStream", "YsbWorkload", "YsbPipeline"]

EVENT_TYPES = ("view", "click", "purchase")
_EVENT_TYPE_BITS = len(EVENT_TYPES).bit_length()


@dataclass(frozen=True)
class YsbEvent:
    """One benchmark event (the original has a few more string
    fields, irrelevant to the computation)."""

    user_id: str
    page_id: str
    ad_id: str
    event_type: str
    event_time_ms: float


class YsbWorkload:
    """Generates the ad->campaign mapping and the event stream."""

    def __init__(
        self,
        num_campaigns: int = 10,
        ads_per_campaign: int = 10,
        seed: int = 99,
    ):
        if num_campaigns <= 0 or ads_per_campaign <= 0:
            raise ValueError("campaigns and ads must be positive")
        self._rng = random.Random(seed)
        self.campaigns = ["campaign-%d" % i for i in range(num_campaigns)]
        self.ad_to_campaign: Dict[str, str] = {}
        for campaign_index, campaign in enumerate(self.campaigns):
            for ad_index in range(ads_per_campaign):
                ad_id = "ad-%d-%d" % (campaign_index, ad_index)
                self.ad_to_campaign[ad_id] = campaign
        self._ads = list(self.ad_to_campaign)

    def stream(
        self, rate_per_second: float, duration_ms: float
    ) -> "YsbEventStream":
        """Incremental benchmark stream, RNG-identical to
        :meth:`generate_events`; the batched API emits index columns
        (user, page, ad, event-type) without per-event objects."""
        return YsbEventStream(self, rate_per_second, duration_ms)

    def generate_events(
        self, rate_per_second: float, duration_ms: float
    ) -> List[YsbEvent]:
        return self.stream(rate_per_second, duration_ms).drain()

    def reference_window_counts(
        self, events: List[YsbEvent], window_ms: float
    ) -> Dict[Tuple[int, str], int]:
        """(window_index, campaign) -> view count, ground truth."""
        out: Dict[Tuple[int, str], int] = {}
        for event in events:
            if event.event_type != "view":
                continue
            window = int(event.event_time_ms // window_ms)
            campaign = self.ad_to_campaign[event.ad_id]
            out[(window, campaign)] = out.get((window, campaign), 0) + 1
        return out


class YsbEventStream(EventStream):
    """Incremental YSB event stream.

    Draw order per event matches the legacy loop: user id, page id, ad
    choice, event-type choice (the two ``choice`` calls consume the
    same RNG bits as ``randrange`` over the sequence length).
    """

    column_names = ("user", "page", "ad", "etype")

    def __init__(
        self,
        workload: YsbWorkload,
        rate_per_second: float,
        duration_ms: float,
    ):
        super().__init__(workload._rng, rate_per_second, duration_ms)
        self.workload = workload
        self._num_ads = len(workload._ads)
        self._ad_bits = self._num_ads.bit_length()

    def _draw_row(self) -> Tuple[int, int, int, int]:
        # rng.randrange(n), minus its frames (see EventStream):
        # 10 000 users (14 bits), 1 000 pages (10), the ads, the
        # event types.
        getrandbits = self._rng.getrandbits
        user = getrandbits(14)
        while user >= 10_000:
            user = getrandbits(14)
        page = getrandbits(10)
        while page >= 1_000:
            page = getrandbits(10)
        ad = getrandbits(self._ad_bits)
        while ad >= self._num_ads:
            ad = getrandbits(self._ad_bits)
        etype = getrandbits(_EVENT_TYPE_BITS)
        while etype >= len(EVENT_TYPES):
            etype = getrandbits(_EVENT_TYPE_BITS)
        return (user, page, ad, etype)

    def _wrap(self, time_ms: float, row: Tuple[int, int, int, int]) -> YsbEvent:
        user, page, ad, etype = row
        return YsbEvent(
            user_id="user-%d" % user,
            page_id="page-%d" % page,
            ad_id=self.workload._ads[ad],
            event_type=EVENT_TYPES[etype],
            event_time_ms=time_ms,
        )


class YsbPipeline:
    """The benchmark query wired onto a StreamingContext."""

    def __init__(
        self,
        workload: YsbWorkload,
        window_ms: float = 1000.0,
        batch_interval_ms: Optional[float] = None,
    ):
        self.workload = workload
        self.window_ms = window_ms
        interval = batch_interval_ms or window_ms
        if window_ms % interval:
            raise ValueError("window must be a multiple of the interval")
        self.ssc = StreamingContext(batch_interval_ms=interval)
        self._input = self.ssc.input_stream(num_partitions=2)
        self.window_counts: Dict[Tuple[int, str], int] = {}
        self._campaign_table = RDD.of(
            list(workload.ad_to_campaign.items()), num_partitions=2
        )
        self._build()

    def _build(self) -> None:
        window_batches = int(self.window_ms // self.ssc.batch_interval_ms)

        views = (
            self._input
            .filter(lambda e: e.event_type == "view")        # step 2
            .map(lambda e: (e.ad_id, e.event_time_ms))        # step 3
        )
        joined = views.transform(                              # step 4
            lambda rdd: rdd.join(self._campaign_table)
        )
        # (ad_id, (event_time, campaign)) -> campaign
        per_campaign = joined.map(lambda kv: (kv[1][1], 1))
        counts = per_campaign.reduceByKeyAndWindow(            # step 5
            lambda a, b: a + b,
            windowDuration_ms=self.window_ms,
            slideDuration_ms=self.window_ms,
        )

        def sink(rdd, batch_index: int) -> None:
            window = (batch_index + 1) // window_batches - 1
            for campaign, count in rdd.collect():
                self.window_counts[(window, campaign)] = count

        counts.foreachRDD(sink)

    def feed(self, events: List[YsbEvent]) -> None:
        for event in events:
            self._input.push(event, event.event_time_ms)

    def run(self, duration_ms: float) -> None:
        self.ssc.run_until(duration_ms)

    def results(self) -> Dict[Tuple[int, str], int]:
        return dict(self.window_counts)

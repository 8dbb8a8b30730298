"""Ad-campaign analytics workload (paper sections 2.3, 5.2).

The paper's testbed workload extends the Yahoo Streaming Benchmark
[46]: rather than only joining user IDs to campaign IDs, it counts the
**user demographic composition** (randomly generated gender, age, and
geolocation per user) for every ad campaign, over an instant window.

This module generates the user population, the click/view event
stream, the Snatch schema + statistics program for it, and a pure
Python reference aggregation for correctness checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.schema import CookieSchema, Feature
from repro.core.stats import StatKind, StatSpec
from repro.workloads.columns import EventColumns, EventStream

__all__ = [
    "GENDERS",
    "AGE_BRACKETS",
    "GEOS",
    "EVENT_TYPES",
    "UserProfile",
    "AdEvent",
    "AdEventStream",
    "AdCampaignWorkload",
    "iter_batches",
]


def iter_batches(items: List, batch_size: int) -> Iterator[List]:
    """Yield successive ``batch_size``-sized slices of ``items`` (the
    last one may be shorter).  Feeds the switch columnar fast path."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    for start in range(0, len(items), batch_size):
        yield items[start:start + batch_size]

GENDERS = ("female", "male", "other")
AGE_BRACKETS = ("18-24", "25-34", "35-44", "45-54", "55+")
GEOS = ("NA", "EU", "AS", "SA", "AF", "OC")
EVENT_TYPES = ("view", "click")


@dataclass(frozen=True)
class UserProfile:
    """Demographics randomly assigned to one user."""

    user_index: int
    gender: str
    age: str
    geo: str

    def semantic_values(self, campaign: str, event: str) -> Dict[str, object]:
        """The semantic-cookie contents for one ad interaction."""
        return {
            "event": event,
            "campaign": campaign,
            "gender": self.gender,
            "age": self.age,
            "geo": self.geo,
        }


@dataclass(frozen=True)
class AdEvent:
    """One user interaction with an ad."""

    time_ms: float
    user: UserProfile
    campaign: str
    event_type: str


class AdCampaignWorkload:
    """Generates users, campaigns and a timed event stream."""

    def __init__(
        self,
        num_users: int = 1000,
        num_campaigns: int = 8,
        seed: int = 42,
        click_fraction: float = 0.25,
    ):
        if num_users <= 0 or num_campaigns <= 0:
            raise ValueError("users and campaigns must be positive")
        if not 0.0 <= click_fraction <= 1.0:
            raise ValueError("click_fraction must be in [0, 1]")
        self._rng = random.Random(seed)
        self.campaigns = tuple("camp-%d" % i for i in range(num_campaigns))
        self.click_fraction = click_fraction
        self.users = tuple(
            UserProfile(
                user_index=i,
                gender=self._rng.choice(GENDERS),
                age=self._rng.choice(AGE_BRACKETS),
                geo=self._rng.choice(GEOS),
            )
            for i in range(num_users)
        )
        # Per-user wire integers of the demographic features (schema
        # order), for cookie_rows.
        self._user_wires = tuple(
            (
                GENDERS.index(user.gender),
                AGE_BRACKETS.index(user.age),
                GEOS.index(user.geo),
            )
            for user in self.users
        )

    # -- Snatch configuration ------------------------------------------------

    def schema(self) -> CookieSchema:
        return CookieSchema(
            "ad-campaign",
            (
                Feature.categorical("event", EVENT_TYPES),
                Feature.categorical("campaign", self.campaigns),
                Feature.categorical("gender", GENDERS),
                Feature.categorical("age", AGE_BRACKETS),
                Feature.categorical("geo", GEOS),
            ),
        )

    def specs(self) -> List[StatSpec]:
        """Per-campaign demographic composition counts."""
        return [
            StatSpec("gender_by_campaign", StatKind.COUNT_BY_CLASS,
                     "gender", group_by="campaign"),
            StatSpec("age_by_campaign", StatKind.COUNT_BY_CLASS,
                     "age", group_by="campaign"),
            StatSpec("geo_by_campaign", StatKind.COUNT_BY_CLASS,
                     "geo", group_by="campaign"),
        ]

    @staticmethod
    def event_filter(request: Dict[str, object]) -> bool:
        """Figure 1(b) L1: only ad-view/click events count."""
        return request.get("event") in EVENT_TYPES

    # -- event stream -----------------------------------------------------------

    def stream(
        self,
        requests_per_second: float,
        duration_ms: float,
    ) -> "AdEventStream":
        """An incremental event stream sharing this workload's RNG.

        Consumes the RNG exactly like :meth:`generate_events`; the
        batched :meth:`~repro.workloads.columns.EventStream.generate_batch`
        API feeds the end-to-end ingest fast path.
        """
        return AdEventStream(self, requests_per_second, duration_ms)

    def generate_events(
        self,
        requests_per_second: float,
        duration_ms: float,
    ) -> List[AdEvent]:
        """A deterministic Poisson-like stream of ad interactions."""
        return self.stream(requests_per_second, duration_ms).drain()

    # -- batched cookie assembly hooks -------------------------------------------

    def cookie_keys(self, columns: EventColumns) -> List[Tuple[int, int, int]]:
        """Cache keys for one column batch: the encoded cookie of an ad
        interaction is fully determined by (user, campaign, click), so
        a cheap int triple keys the client-side encode cache without
        materializing a values dict per event."""
        cols = columns.columns
        return list(zip(cols["user"], cols["campaign"], cols["click"]))

    def cookie_rows(
        self, columns: EventColumns, indexes: Sequence[int]
    ) -> List[Tuple[int, ...]]:
        """Wire rows (one wire integer per schema feature) of the
        listed events of a batch — the columnar tier's cookie contents
        for encode-cache misses, straight from the integer columns."""
        cols = columns.columns
        user, campaign, click = cols["user"], cols["campaign"], cols["click"]
        wires = self._user_wires
        return [(click[i], campaign[i]) + wires[user[i]] for i in indexes]

    def cookie_values_at(
        self, columns: EventColumns, index: int
    ) -> Dict[str, object]:
        """Semantic-cookie values for event ``index`` of a batch: the
        scalar tier's input, and what :meth:`cookie_rows` validates
        to."""
        cols = columns.columns
        user = self.users[cols["user"][index]]
        return user.semantic_values(
            self.campaigns[cols["campaign"][index]],
            "click" if cols["click"][index] else "view",
        )

    # -- reference analytics ---------------------------------------------------------

    def new_reference(self) -> Dict[str, Dict[Tuple[str, str], int]]:
        """An empty ground-truth accumulator matching :meth:`specs`."""
        return {
            "gender_by_campaign": {},
            "age_by_campaign": {},
            "geo_by_campaign": {},
        }

    @staticmethod
    def accumulate_event(
        event: AdEvent, out: Dict[str, Dict[Tuple[str, str], int]]
    ) -> None:
        """Fold one event into a :meth:`new_reference` accumulator."""
        for stat, attr in (
            ("gender_by_campaign", event.user.gender),
            ("age_by_campaign", event.user.age),
            ("geo_by_campaign", event.user.geo),
        ):
            key = (event.campaign, attr)
            out[stat][key] = out[stat].get(key, 0) + 1

    def accumulate_reference(
        self,
        columns: EventColumns,
        out: Dict[str, Dict[Tuple[str, str], int]],
    ) -> None:
        """Fold one column batch into a :meth:`new_reference`
        accumulator — the streaming pipeline's incremental ground
        truth, identical to :meth:`reference_counts` over the same
        events."""
        users = self.users
        campaigns = self.campaigns
        gender = out["gender_by_campaign"]
        age = out["age_by_campaign"]
        geo = out["geo_by_campaign"]
        cols = columns.columns
        for user_index, campaign_index in zip(cols["user"], cols["campaign"]):
            user = users[user_index]
            campaign = campaigns[campaign_index]
            key = (campaign, user.gender)
            gender[key] = gender.get(key, 0) + 1
            key = (campaign, user.age)
            age[key] = age.get(key, 0) + 1
            key = (campaign, user.geo)
            geo[key] = geo.get(key, 0) + 1

    def reference_counts(
        self, events: List[AdEvent]
    ) -> Dict[str, Dict[Tuple[str, str], int]]:
        """Ground-truth aggregation matching :meth:`specs` layout."""
        out = self.new_reference()
        for event in events:
            self.accumulate_event(event, out)
        return out


class AdEventStream(EventStream):
    """Incremental ad-interaction stream (see :class:`EventStream`).

    Row draw order matches the legacy ``generate_events`` loop bit for
    bit: user choice, campaign choice, click test — ``randrange(n)``
    consumes the same RNG bits as ``choice`` over an ``n``-sequence.
    """

    column_names = ("user", "campaign", "click")

    def __init__(
        self,
        workload: AdCampaignWorkload,
        requests_per_second: float,
        duration_ms: float,
    ):
        super().__init__(workload._rng, requests_per_second, duration_ms)
        self.workload = workload
        self._num_users = len(workload.users)
        self._num_campaigns = len(workload.campaigns)
        self._click_fraction = workload.click_fraction
        self._user_bits = self._num_users.bit_length()
        self._campaign_bits = self._num_campaigns.bit_length()

    def _draw_row(self) -> Tuple[int, int, int]:
        # rng.randrange(n), minus its frames (see EventStream).
        rng = self._rng
        getrandbits = rng.getrandbits
        user = getrandbits(self._user_bits)
        while user >= self._num_users:
            user = getrandbits(self._user_bits)
        campaign = getrandbits(self._campaign_bits)
        while campaign >= self._num_campaigns:
            campaign = getrandbits(self._campaign_bits)
        return (
            user,
            campaign,
            1 if rng.random() < self._click_fraction else 0,
        )

    def _wrap(self, time_ms: float, row: Tuple[int, int, int]) -> AdEvent:
        workload = self.workload
        user_index, campaign_index, click = row
        return AdEvent(
            time_ms=time_ms,
            user=workload.users[user_index],
            campaign=workload.campaigns[campaign_index],
            event_type="click" if click else "view",
        )

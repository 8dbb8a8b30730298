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
from dataclasses import dataclass
from math import log as _log
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.schema import CookieSchema, Feature
from repro.core.stats import StatKind, StatSpec
from repro.switch.columns import get_numpy
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
]

# Batches with fewer events fold the reference in its Python form even
# with the numpy gate open: the numpy form costs ~12 us a call before
# its first row, and its fold over the non-zero cells only stops
# growing with the batch once most of the 112 cells are hit.  Measured
# on the default 8 campaigns, us/event, best of 60 alternating runs on
# the recorded 2-vCPU host:
#
#     events   200 users py / numpy   2000 users py / numpy
#         16       0.64 / 1.12            0.76 / 1.41
#         32       0.69 / 0.85            0.74 / 0.96
#         48       0.68 / 0.66            0.70 / 0.71
#         64       0.69 / 0.54            0.70 / 0.58
#        128       0.70 / 0.36            0.43 / 0.23
#       1024       0.68 / 0.14            0.42 / 0.09
REFERENCE_MIN_ROWS = 48

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
        # The numpy reference fold's tables, built on its first call;
        # likewise cookie_rows' per-user wire matrix.
        self._reference_plan: Optional[Tuple] = None
        self._wire_table = None

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

    def cookie_keys(self, columns: EventColumns):
        """Encode-cache identity codes for one column batch: the
        encoded cookie of an ad interaction is fully determined by
        (user, campaign, click), numbered ``(user * campaigns +
        campaign) * 2 + click`` — dense, one per identity, and decoded
        by two ``divmod`` calls.  No tuple is built.  A batch the
        cache's numpy form runs (the gate open, ``SLOT_KERNEL_MIN_ROWS``
        events or more) gets one int64 column; any other a list of
        ints, which is cheaper to build for a few events."""
        from repro.core.cookie_cache import SLOT_KERNEL_MIN_ROWS

        cols = columns.columns
        triples = (cols["user"], cols["campaign"], cols["click"])
        width = len(self.campaigns)
        np = get_numpy()
        if np is None or len(triples[0]) < SLOT_KERNEL_MIN_ROWS:
            return [(u * width + c) * 2 + k for u, c, k in zip(*triples)]
        # (user * campaigns + campaign) * 2 + click as one product.
        return np.array((2 * width, 2, 1)) @ np.array(triples, dtype=np.int64)

    def cookie_rows(self, columns: EventColumns, indexes: Sequence[int]):
        """Wire rows (one wire integer per schema feature) of the
        listed events of a batch — the columnar tier's cookie contents
        for encode-cache misses, straight from the integer columns.

        A list of tuples, or — from ``ROW_KERNEL_MIN_ROWS`` events up
        with the numpy gate open, where the pack takes its numpy form
        anyway — the same rows as one ``(m, 5)`` int64 matrix gathered
        from the columns and a per-user wire table built once."""
        from repro.core.transport_cookie import ROW_KERNEL_MIN_ROWS

        cols = columns.columns
        user, campaign, click = cols["user"], cols["campaign"], cols["click"]
        m = len(indexes)
        if m >= ROW_KERNEL_MIN_ROWS:
            np = get_numpy()
            if np is not None:
                if self._wire_table is None:
                    self._wire_table = np.array(
                        self._user_wires, dtype=np.int64
                    )
                take = itemgetter(*indexes)
                rows = np.empty((m, 5), dtype=np.int64)
                rows[:, 0] = np.fromiter(take(click), np.int64, m)
                rows[:, 1] = np.fromiter(take(campaign), np.int64, m)
                rows[:, 2:] = self._wire_table[
                    np.fromiter(take(user), np.intp, m)
                ]
                return rows
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
        events (cell for cell; only the dicts' insertion order depends
        on which form ran)."""
        cols = columns.columns
        users, campaigns = cols["user"], cols["campaign"]
        if len(users) >= REFERENCE_MIN_ROWS:
            np = get_numpy()
            if np is not None:
                self._reference_numpy(np, users, campaigns, out)
                return
        self._reference_python(users, campaigns, out)

    def _reference_python(
        self,
        users: Sequence[int],
        campaigns: Sequence[int],
        out: Dict[str, Dict[Tuple[str, str], int]],
    ) -> None:
        """The reference fold's Python form: one dict update per event
        and statistic."""
        profiles = self.users
        names = self.campaigns
        gender = out["gender_by_campaign"]
        age = out["age_by_campaign"]
        geo = out["geo_by_campaign"]
        for user_index, campaign_index in zip(users, campaigns):
            user = profiles[user_index]
            campaign = names[campaign_index]
            key = (campaign, user.gender)
            gender[key] = gender.get(key, 0) + 1
            key = (campaign, user.age)
            age[key] = age.get(key, 0) + 1
            key = (campaign, user.geo)
            geo[key] = geo.get(key, 0) + 1

    def _reference_numpy(
        self,
        np,
        users: Sequence[int],
        campaigns: Sequence[int],
        out: Dict[str, Dict[Tuple[str, str], int]],
    ) -> None:
        """The reference fold's numpy form: one ``bincount`` over the
        batch's report cells, then one dict update per non-zero cell
        (at most ``num_campaigns * 14`` of them, whatever the batch).

        Cell ``offset + campaign * width + attribute`` of statistic
        ``(offset, width)``; the per-user halves of the cell numbers
        are built once per workload."""
        if self._reference_plan is None:
            widths = (len(GENDERS), len(AGE_BRACKETS), len(GEOS))
            offsets, cells = [], []
            for name, values in (
                ("gender_by_campaign", GENDERS),
                ("age_by_campaign", AGE_BRACKETS),
                ("geo_by_campaign", GEOS),
            ):
                offsets.append(len(cells))
                cells.extend(
                    (name, (campaign, value))
                    for campaign in self.campaigns
                    for value in values
                )
            self._reference_plan = (
                np.array(self._user_wires, dtype=np.intp)
                + np.array(offsets, dtype=np.intp),
                np.array(widths, dtype=np.intp),
                cells,
            )
        user_cells, widths, cells = self._reference_plan
        index = user_cells[np.array(users, dtype=np.intp)]
        index += np.multiply.outer(np.array(campaigns, dtype=np.intp), widths)
        counts = np.bincount(index.ravel(), minlength=len(cells))
        hit = np.flatnonzero(counts)
        for cell, count in zip(hit.tolist(), counts[hit].tolist()):
            name, key = cells[cell]
            target = out[name]
            target[key] = target.get(key, 0) + count

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

    Draw order matches the legacy ``generate_events`` loop bit for
    bit: user choice, campaign choice, click test, gap —
    ``randrange(n)`` consumes the same RNG bits as ``choice`` over an
    ``n``-sequence.  :meth:`generate_batch` is the stream's one draw
    routine; ``generate()`` is a batch of one.
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

    def generate_batch(self, n: int) -> EventColumns:
        """Up to ``n`` further events as one :class:`EventColumns`: the
        whole batch in one loop, appending straight to the columns.

        Per event: ``randrange(num_users)`` and
        ``randrange(num_campaigns)`` as ``getrandbits`` with redraw (see
        :class:`EventStream`), the click test, then the gap
        ``expovariate(1.0) * gap`` as ``-log(1.0 - random()) * gap``.
        """
        if n < 0:
            raise ValueError("batch size must be non-negative")
        times: List[float] = []
        users: List[int] = []
        campaigns: List[int] = []
        clicks: List[int] = []
        t = self._t
        duration = self._duration_ms
        if t < duration and n > 0:
            rng = self._rng
            getrandbits = rng.getrandbits
            random = rng.random
            gap = self._gap
            num_users, user_bits = self._num_users, self._user_bits
            num_campaigns = self._num_campaigns
            campaign_bits = self._campaign_bits
            click_fraction = self._click_fraction
            add_time = times.append
            add_user = users.append
            add_campaign = campaigns.append
            add_click = clicks.append
            for _ in range(n):
                add_time(t)
                user = getrandbits(user_bits)
                while user >= num_users:
                    user = getrandbits(user_bits)
                add_user(user)
                campaign = getrandbits(campaign_bits)
                while campaign >= num_campaigns:
                    campaign = getrandbits(campaign_bits)
                add_campaign(campaign)
                add_click(1 if random() < click_fraction else 0)
                t = t - _log(1.0 - random()) * gap
                if t >= duration:
                    break
            self._t = t
            self.generated += len(times)
        return EventColumns(
            times, {"user": users, "campaign": campaigns, "click": clicks}
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

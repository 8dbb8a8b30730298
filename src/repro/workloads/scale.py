"""Million-user scale workload: procedural users, zipfian traffic.

The ad-campaign workload materializes a :class:`UserProfile` tuple per
user — fine at the paper testbed's thousands of users, but the point
of the scale harness is to push the pipeline to 10^6 users, and the
*workload generator* must not be the thing that consumes the memory
being measured.  This workload therefore keeps **no per-user state**:

* demographics are a pure hash of the user index (stable across
  processes and runs), computed on demand;
* user draws mix a zipf-like (Pareto) warm head with a uniform long
  tail: a pure power law never actually *touches* a million users in
  a million requests (the head absorbs nearly everything), while real
  request logs are dominated by one-visit users.  The
  ``tail_fraction`` knob sets how much traffic the long tail carries,
  so distinct-user growth — the thing that breaks exact per-user
  state — is linear in traffic until the population saturates;
* the cookie schema carries an explicit high-cardinality ``user``
  feature (20 bits at 1M users, well inside the 128-bit transport
  budget) so the switches can attribute requests to users — the
  demographic features alone only span a few hundred distinct
  cookies.

The statistics program is the same per-campaign demographic
composition as the ad workload; the per-user dimension is what the
engagement tracker (exact or sampled-quantile sketch) consumes.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict, List, Sequence, Tuple

from repro.core.schema import CookieSchema, Feature
from repro.core.stats import StatKind, StatSpec
from repro.workloads.adcampaign import (
    AGE_BRACKETS,
    EVENT_TYPES,
    GENDERS,
    GEOS,
)
from repro.workloads.columns import EventColumns, EventStream

__all__ = ["ScaleWorkload", "ScaleEventStream"]


class ScaleWorkload:
    """Ad-campaign analytics at population scale, O(1) generator state."""

    def __init__(
        self,
        num_users: int = 1_000_000,
        num_campaigns: int = 8,
        seed: int = 42,
        click_fraction: float = 0.25,
        zipf_alpha: float = 1.1,
        tail_fraction: float = 0.5,
        demo_seed: int = 7,
    ):
        if num_users <= 0 or num_campaigns <= 0:
            raise ValueError("users and campaigns must be positive")
        if not 0.0 <= click_fraction <= 1.0:
            raise ValueError("click_fraction must be in [0, 1]")
        if zipf_alpha <= 0:
            raise ValueError("zipf_alpha must be positive")
        if not 0.0 <= tail_fraction <= 1.0:
            raise ValueError("tail_fraction must be in [0, 1]")
        self._rng = random.Random(seed)
        self.num_users = num_users
        self.campaigns = tuple("camp-%d" % i for i in range(num_campaigns))
        self.click_fraction = click_fraction
        self.zipf_alpha = zipf_alpha
        self.tail_fraction = tail_fraction
        self.demo_seed = demo_seed

    # -- procedural user attributes -----------------------------------------

    def demographic_wires(self, user_index: int) -> Tuple[int, int, int]:
        """(gender, age, geo) class indexes for a user — a pure hash
        of the index, so no per-user table exists anywhere."""
        h = zlib.crc32(b"%d:%d" % (self.demo_seed, user_index))
        return (
            h % len(GENDERS),
            (h >> 8) % len(AGE_BRACKETS),
            (h >> 16) % len(GEOS),
        )

    def demographics(self, user_index: int) -> Tuple[str, str, str]:
        """(gender, age, geo) for a user."""
        gender, age, geo = self.demographic_wires(user_index)
        return GENDERS[gender], AGE_BRACKETS[age], GEOS[geo]

    def semantic_values(
        self, user_index: int, campaign_index: int, click: int
    ) -> Dict[str, object]:
        gender, age, geo = self.demographics(user_index)
        return {
            "event": "click" if click else "view",
            "campaign": self.campaigns[campaign_index],
            "gender": gender,
            "age": age,
            "geo": geo,
            "user": user_index,
        }

    # -- Snatch configuration ------------------------------------------------

    def schema(self) -> CookieSchema:
        """The ad-campaign schema plus an explicit user-identity
        feature (the cookie region must identify the user for the
        engagement tracker to key on it)."""
        return CookieSchema(
            "ad-scale",
            (
                Feature.categorical("event", EVENT_TYPES),
                Feature.categorical("campaign", self.campaigns),
                Feature.categorical("gender", GENDERS),
                Feature.categorical("age", AGE_BRACKETS),
                Feature.categorical("geo", GEOS),
                Feature.number("user", 0, self.num_users - 1),
            ),
        )

    def specs(self) -> List[StatSpec]:
        """Per-campaign demographic composition counts (identical
        program to the ad workload; the per-user dimension goes
        through the engagement tracker, not register specs)."""
        return [
            StatSpec("gender_by_campaign", StatKind.COUNT_BY_CLASS,
                     "gender", group_by="campaign"),
            StatSpec("age_by_campaign", StatKind.COUNT_BY_CLASS,
                     "age", group_by="campaign"),
            StatSpec("geo_by_campaign", StatKind.COUNT_BY_CLASS,
                     "geo", group_by="campaign"),
        ]

    # -- event stream --------------------------------------------------------

    def stream(
        self,
        requests_per_second: float,
        duration_ms: float,
    ) -> "ScaleEventStream":
        return ScaleEventStream(self, requests_per_second, duration_ms)

    # -- batched cookie assembly hooks ---------------------------------------

    def cookie_keys(self, columns: EventColumns) -> List[Tuple[int, int, int]]:
        """(user, campaign, click) fully determines the cookie."""
        cols = columns.columns
        return list(zip(cols["user"], cols["campaign"], cols["click"]))

    def cookie_rows(
        self, columns: EventColumns, indexes: Sequence[int]
    ) -> List[Tuple[int, ...]]:
        """Wire rows of the listed events, from the integer columns
        and the demographic hash (no per-user table here either)."""
        cols = columns.columns
        user, campaign, click = cols["user"], cols["campaign"], cols["click"]
        wires = self.demographic_wires
        return [
            (click[i], campaign[i]) + wires(user[i]) + (user[i],)
            for i in indexes
        ]

    def cookie_values_at(
        self, columns: EventColumns, index: int
    ) -> Dict[str, object]:
        cols = columns.columns
        return self.semantic_values(
            cols["user"][index],
            cols["campaign"][index],
            cols["click"][index],
        )

    # -- reference analytics -------------------------------------------------

    def new_reference(self) -> Dict[str, Dict[Tuple[str, str], int]]:
        return {
            "gender_by_campaign": {},
            "age_by_campaign": {},
            "geo_by_campaign": {},
        }

    def accumulate_reference(
        self,
        columns: EventColumns,
        out: Dict[str, Dict[Tuple[str, str], int]],
    ) -> None:
        campaigns = self.campaigns
        gender_out = out["gender_by_campaign"]
        age_out = out["age_by_campaign"]
        geo_out = out["geo_by_campaign"]
        cols = columns.columns
        for user_index, campaign_index in zip(cols["user"], cols["campaign"]):
            gender, age, geo = self.demographics(user_index)
            campaign = campaigns[campaign_index]
            key = (campaign, gender)
            gender_out[key] = gender_out.get(key, 0) + 1
            key = (campaign, age)
            age_out[key] = age_out.get(key, 0) + 1
            key = (campaign, geo)
            geo_out[key] = geo_out.get(key, 0) + 1

    def accumulate_user_counts(
        self, columns: EventColumns, out: Dict[int, int]
    ) -> None:
        """Exact per-user request totals (ground truth for the
        engagement tracker's quantiles)."""
        for user_index in columns.columns["user"]:
            out[user_index] = out.get(user_index, 0) + 1


class ScaleEventStream(EventStream):
    """Head-plus-tail user draws over a procedural population.

    Draw order per row: mixture branch (``random``), then either a
    uniform ``randrange`` over the whole population (long tail) or one
    ``paretovariate`` (zipf head), then campaign (``randrange``) and
    click (``random``).  Deterministic for a given seed; scalar and
    batched generation share the row draw so they are draw-for-draw
    identical.
    """

    column_names = ("user", "campaign", "click")

    def __init__(
        self,
        workload: ScaleWorkload,
        requests_per_second: float,
        duration_ms: float,
    ):
        super().__init__(workload._rng, requests_per_second, duration_ms)
        self.workload = workload
        self._num_users = workload.num_users
        self._num_campaigns = len(workload.campaigns)
        self._click_fraction = workload.click_fraction
        self._alpha = workload.zipf_alpha
        self._tail_fraction = workload.tail_fraction
        self._user_bits = self._num_users.bit_length()
        self._campaign_bits = self._num_campaigns.bit_length()

    def _draw_row(self) -> Tuple[int, int, int]:
        # rng.randrange(n), minus its frames (see EventStream).
        rng = self._rng
        getrandbits = rng.getrandbits
        if rng.random() < self._tail_fraction:
            user = getrandbits(self._user_bits)
            while user >= self._num_users:
                user = getrandbits(self._user_bits)
        else:
            user = min(
                int(rng.paretovariate(self._alpha)) - 1,
                self._num_users - 1,
            )
        campaign = getrandbits(self._campaign_bits)
        while campaign >= self._num_campaigns:
            campaign = getrandbits(self._campaign_bits)
        return (
            user,
            campaign,
            1 if rng.random() < self._click_fraction else 0,
        )

    def _wrap(self, time_ms: float, row: Tuple[int, int, int]) -> Dict:
        user, campaign, click = row
        return {
            "time_ms": time_ms,
            "values": self.workload.semantic_values(user, campaign, click),
        }

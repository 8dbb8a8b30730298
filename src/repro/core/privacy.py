"""Privacy mechanisms (paper section 3.6).

Three layers of defence correspond to the three attackers of the
threat model:

* **Third-party attackers** are handled by AES-128 / TLS in the cookie
  codecs (see :mod:`repro.core.transport_cookie` / ``app_cookie``).
* **Honest-but-curious edge nodes** are confused by value transforms
  (:class:`ValueTransform` — reversible affine obfuscation), correlated
  decoy cookies (:class:`CorrelatedCookies`), and — for full
  protection — local differential privacy (:class:`RandomizedResponse`
  for class features), with the unbiased population-level estimator
  that keeps the aggregated analytics accurate.
* **Malicious application developers** are policed by
  :func:`audit_schema`, which flags features whose cardinality makes
  individual identification possible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.schema import CookieSchema, Feature, FeatureType

__all__ = [
    "RandomizedResponse",
    "ValueTransform",
    "CorrelatedCookies",
    "SchemaAuditFinding",
    "audit_schema",
    "IdentifiabilityError",
]


class IdentifiabilityError(ValueError):
    """A schema (or cookie) would individually identify users."""


# -- local differential privacy -------------------------------------------


class RandomizedResponse:
    """k-ary randomized response over a class feature.

    The true category is reported with probability ``p``; otherwise one
    of the other ``k-1`` categories is reported uniformly.  The privacy
    level is epsilon = ln(p (k-1) / (1-p)).
    """

    def __init__(
        self,
        feature: Feature,
        p_truth: float = 0.75,
        rng: Optional[random.Random] = None,
    ):
        if feature.ftype != FeatureType.CLASS:
            raise ValueError("randomized response needs a class feature")
        if not 0.0 < p_truth < 1.0:
            raise ValueError("p_truth must be in (0, 1)")
        k = feature.cardinality
        if p_truth <= 1.0 / k:
            raise ValueError("p_truth must exceed uniform chance 1/k")
        self.feature = feature
        self.p_truth = p_truth
        self._rng = rng or random.Random()

    @property
    def epsilon(self) -> float:
        k = self.feature.cardinality
        return math.log(
            self.p_truth * (k - 1) / (1.0 - self.p_truth)
        )

    def perturb(self, value: str) -> str:
        """Report a (possibly lied-about) category for one user."""
        if value not in self.feature.classes:
            raise ValueError("%r is not a class of %s" % (value, self.feature.name))
        if self._rng.random() < self.p_truth:
            return value
        others = [c for c in self.feature.classes if c != value]
        return self._rng.choice(others)

    def estimate_counts(
        self, observed: Dict[str, int]
    ) -> Dict[str, float]:
        """Unbiased true-count estimates from perturbed counts.

        With n reports, E[observed_c] = p * true_c + q * (n - true_c)
        where q = (1-p)/(k-1); invert per category.
        """
        k = self.feature.cardinality
        q = (1.0 - self.p_truth) / (k - 1)
        n = sum(observed.get(c, 0) for c in self.feature.classes)
        out: Dict[str, float] = {}
        for category in self.feature.classes:
            obs = observed.get(category, 0)
            out[category] = (obs - q * n) / (self.p_truth - q)
        return out


# -- obfuscation against honest-but-curious edges -----------------------------


class ValueTransform:
    """Reversible affine obfuscation of number values.

    The developer applies ``y = a*x + b (mod m)`` before planting the
    cookie and inverts after receiving aggregated results; edge nodes
    see semantically meaningless values.  ``a`` must be coprime with
    ``m`` for invertibility.
    """

    def __init__(self, a: int, b: int, modulus: int):
        if modulus <= 1:
            raise ValueError("modulus must exceed 1")
        if math.gcd(a % modulus, modulus) != 1:
            raise ValueError("a must be coprime with the modulus")
        self.a = a % modulus
        self.b = b % modulus
        self.modulus = modulus
        self._a_inv = pow(self.a, -1, modulus)

    def forward(self, x: int) -> int:
        return (self.a * x + self.b) % self.modulus

    def inverse(self, y: int) -> int:
        return (self._a_inv * (y - self.b)) % self.modulus


class CorrelatedCookies:
    """Two cookies for one purpose, alternately updated (section 3.6).

    Each update writes only one of the pair; the true value is the sum,
    so an edge observing either cookie alone sees half a signal.
    """

    def __init__(self, rng: Optional[random.Random] = None):
        self._rng = rng or random.Random()

    def split(self, value: int) -> Tuple[int, int]:
        """Initial split into two shares."""
        share = self._rng.randint(0, value) if value >= 0 else 0
        return share, value - share

    def update(
        self, shares: Tuple[int, int], delta: int
    ) -> Tuple[int, int]:
        """Apply delta to one randomly chosen share."""
        a, b = shares
        if self._rng.random() < 0.5:
            return a + delta, b
        return a, b + delta

    @staticmethod
    def combine(shares: Tuple[int, int]) -> int:
        return shares[0] + shares[1]


# -- malicious-developer auditing -----------------------------------------------


@dataclass(frozen=True)
class SchemaAuditFinding:
    feature: str
    severity: str  # "reject" or "warn"
    reason: str


def audit_schema(
    schema: CookieSchema,
    expected_population: int,
    min_anonymity_set: int = 100,
    strict: bool = True,
) -> List[SchemaAuditFinding]:
    """Check that no feature (or the feature combination) can serve as
    an individual identifier.

    * A single feature whose cardinality rivals the population (e.g. a
      32-bit "user ID") is rejected outright.
    * The joint cardinality of all features bounds the expected
      anonymity set ``population / joint``; below ``min_anonymity_set``
      the schema is rejected (strict) or warned about.
    """
    if expected_population <= 0:
        raise ValueError("population must be positive")
    findings: List[SchemaAuditFinding] = []
    joint = 1
    for feature in schema.features:
        joint *= feature.cardinality
        if feature.cardinality >= expected_population:
            findings.append(
                SchemaAuditFinding(
                    feature.name,
                    "reject",
                    "cardinality %d >= population %d: an individual identifier"
                    % (feature.cardinality, expected_population),
                )
            )
        elif feature.cardinality > expected_population // min_anonymity_set:
            findings.append(
                SchemaAuditFinding(
                    feature.name,
                    "warn",
                    "cardinality %d leaves anonymity sets under %d"
                    % (feature.cardinality, min_anonymity_set),
                )
            )
    anonymity_set = expected_population / joint
    if anonymity_set < min_anonymity_set:
        findings.append(
            SchemaAuditFinding(
                "*",
                "reject" if anonymity_set < 2 else "warn",
                "joint cardinality %d gives expected anonymity set %.1f"
                % (joint, anonymity_set),
            )
        )
    if strict and any(f.severity == "reject" for f in findings):
        raise IdentifiabilityError(
            "; ".join(f.reason for f in findings if f.severity == "reject")
        )
    return findings

"""Privacy mechanisms: DP accuracy, obfuscation, schema auditing."""

import math
import random

import pytest

from repro.core.privacy import (
    CorrelatedCookies,
    IdentifiabilityError,
    RandomizedResponse,
    ValueTransform,
    audit_schema,
)
from repro.core.schema import CookieSchema, Feature


def _gender():
    return Feature.categorical("gender", ["f", "m", "x"])


class TestRandomizedResponse:
    def test_epsilon_formula(self):
        rr = RandomizedResponse(_gender(), p_truth=0.75)
        # k=3: eps = ln(0.75 * 2 / 0.25) = ln 6.
        assert rr.epsilon == pytest.approx(math.log(6.0))

    def test_perturb_stays_in_domain(self):
        rr = RandomizedResponse(_gender(), rng=random.Random(1))
        for _ in range(100):
            assert rr.perturb("f") in ("f", "m", "x")

    def test_perturb_rejects_foreign_value(self):
        rr = RandomizedResponse(_gender())
        with pytest.raises(ValueError):
            rr.perturb("unknown")

    def test_truth_rate_near_p(self):
        rr = RandomizedResponse(_gender(), p_truth=0.75,
                                rng=random.Random(2))
        n = 4000
        truthful = sum(rr.perturb("m") == "m" for _ in range(n))
        # Observed "m" rate = p + (1-p)*0 from others... direct truth rate:
        assert truthful / n == pytest.approx(0.75, abs=0.03)

    def test_estimator_unbiased(self):
        rr = RandomizedResponse(_gender(), p_truth=0.7, rng=random.Random(3))
        truth = {"f": 700, "m": 250, "x": 50}
        observed = {"f": 0, "m": 0, "x": 0}
        for category, count in truth.items():
            for _ in range(count):
                observed[rr.perturb(category)] += 1
        estimates = rr.estimate_counts(observed)
        for category, count in truth.items():
            assert estimates[category] == pytest.approx(count, abs=80)

    def test_estimates_sum_to_population(self):
        rr = RandomizedResponse(_gender(), rng=random.Random(4))
        observed = {"f": 10, "m": 20, "x": 30}
        assert sum(rr.estimate_counts(observed).values()) == pytest.approx(60)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="class feature"):
            RandomizedResponse(Feature.number("n", 0, 5))
        with pytest.raises(ValueError):
            RandomizedResponse(_gender(), p_truth=1.0)
        with pytest.raises(ValueError, match="uniform"):
            RandomizedResponse(_gender(), p_truth=0.2)


class TestValueTransform:
    def test_roundtrip(self):
        transform = ValueTransform(a=7, b=13, modulus=101)
        for x in range(101):
            assert transform.inverse(transform.forward(x)) == x

    def test_obfuscation_changes_values(self):
        transform = ValueTransform(a=7, b=13, modulus=101)
        changed = sum(transform.forward(x) != x for x in range(101))
        assert changed > 90

    def test_forward_permutes_the_residues(self):
        """Coprime ``a`` makes the map a bijection on ``[0, m)``: no two
        values share a wire value."""
        transform = ValueTransform(a=10, b=3, modulus=77)
        assert sorted(transform.forward(x) for x in range(77)) == list(
            range(77)
        )

    def test_negative_coefficients_reduced_mod_m(self):
        transform = ValueTransform(a=-3, b=-5, modulus=11)
        assert (transform.a, transform.b) == (8, 6)
        for x in range(11):
            assert transform.inverse(transform.forward(x)) == x

    def test_requires_coprime_multiplier(self):
        with pytest.raises(ValueError, match="coprime"):
            ValueTransform(a=4, b=0, modulus=8)

    def test_invalid_modulus(self):
        with pytest.raises(ValueError):
            ValueTransform(1, 0, 1)


class TestCorrelatedCookies:
    def test_split_preserves_value(self):
        pair = CorrelatedCookies(random.Random(9))
        shares = pair.split(100)
        assert pair.combine(shares) == 100

    def test_updates_preserve_sum(self):
        pair = CorrelatedCookies(random.Random(10))
        shares = pair.split(10)
        total = 10
        for delta in (5, -3, 7, 1):
            shares = pair.update(shares, delta)
            total += delta
        assert pair.combine(shares) == total

    def test_individual_shares_hide_value(self):
        """Over many updates, each share alone differs from the sum."""
        pair = CorrelatedCookies(random.Random(11))
        shares = pair.split(50)
        for _ in range(20):
            shares = pair.update(shares, 1)
        assert shares[0] != pair.combine(shares)
        assert shares[1] != pair.combine(shares)


class TestSchemaAudit:
    def test_identifier_rejected(self):
        schema = CookieSchema(
            "bad", (Feature.number("user_id", 0, 2**32 - 1),)
        )
        with pytest.raises(IdentifiabilityError, match="identifier"):
            audit_schema(schema, expected_population=1_000_000)

    def test_joint_cardinality_rejected(self):
        features = tuple(
            Feature.number("f%d" % i, 0, 1000) for i in range(3)
        )
        schema = CookieSchema("joint", features)
        # 1001^3 combinations vs 1e6 users -> anonymity set << 1.
        with pytest.raises(IdentifiabilityError):
            audit_schema(schema, expected_population=1_000_000)

    def test_benign_schema_approved(self):
        schema = CookieSchema(
            "ok",
            (
                Feature.categorical("gender", ["f", "m", "x"]),
                Feature.categorical("age", ["18-24", "25-34", "35+"]),
            ),
        )
        findings = audit_schema(schema, expected_population=1_000_000)
        assert findings == []

    def test_warn_without_strict(self):
        schema = CookieSchema(
            "warned", (Feature.number("n", 0, 100_000),)
        )
        findings = audit_schema(
            schema, expected_population=1_000_000, strict=False
        )
        assert any(f.severity == "warn" for f in findings)

    def test_non_strict_never_raises(self):
        schema = CookieSchema(
            "bad", (Feature.number("user_id", 0, 2**32 - 1),)
        )
        findings = audit_schema(
            schema, expected_population=1_000, strict=False
        )
        assert any(f.severity == "reject" for f in findings)

    def test_population_must_be_positive(self):
        schema = CookieSchema("x", (_gender(),))
        with pytest.raises(ValueError):
            audit_schema(schema, expected_population=0)

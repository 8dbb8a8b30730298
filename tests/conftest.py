"""Shared pytest configuration for the repro test suite."""

import os

import pytest

try:  # the chaos / crash-recovery CI jobs install pytest only
    from hypothesis import settings
except ImportError:
    pass
else:
    # Tier-1 runs the property suites derandomized: a push must not
    # fail on a fresh random draw (that is how the 2**70 wire in
    # tests/properties/test_cookie_rows.py surfaced — on an unrelated
    # change).  The differential CI job sets HYPOTHESIS_PROFILE=random,
    # so new counter-examples still surface there; either way a failure
    # prints the blob that replays it.
    settings.register_profile("tier1", derandomize=True, print_blob=True)
    settings.register_profile("random", print_blob=True)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


def pytest_addoption(parser):
    parser.addoption(
        "--regen-goldens",
        action="store_true",
        default=False,
        help="rewrite golden conformance files from the current run "
        "instead of comparing against them",
    )


@pytest.fixture
def regen_goldens(request):
    """True when the run should rewrite golden files in place."""
    return request.config.getoption("--regen-goldens")

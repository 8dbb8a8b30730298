"""Property tests for the approximate switch structures.

Count-min sketches must never underestimate and must respect their
analytic error bound; Bloom filters must never produce false negatives
and must keep false positives near the analytic rate.  Streams are
seeded stdlib ``random``, so every assertion is deterministic.
"""

import math
import random

import pytest

from repro.switch.bloom import BloomFilter
from repro.switch.sketch import CountMinSketch


def _zipf_stream(rng, keys, total):
    """A heavy-tailed stream over ``keys`` summing to ``total``."""
    counts = {}
    for _ in range(total):
        rank = min(int(rng.paretovariate(1.1)) - 1, len(keys) - 1)
        key = keys[rank]
        counts[key] = counts.get(key, 0) + 1
    return counts


@pytest.mark.parametrize("seed", range(5))
def test_sketch_never_underestimates(seed):
    rng = random.Random(seed)
    keys = [("key-%d" % i).encode() for i in range(300)]
    counts = _zipf_stream(rng, keys, 5000)
    sketch = CountMinSketch(width=256, depth=4)
    for key, count in counts.items():
        sketch.add(key, count)
    for key, count in counts.items():
        assert sketch.estimate(key) >= count
    # Absent keys may collide into a positive estimate but never a
    # negative one.
    for i in range(100):
        assert sketch.estimate(("absent-%d" % i).encode()) >= 0


@pytest.mark.parametrize("seed", range(5))
def test_sketch_error_bound_mostly_holds(seed):
    """Estimates exceed truth by more than eps*N for at most ~delta of
    keys (the standard count-min guarantee is per-key probabilistic)."""
    epsilon, delta = 0.02, 0.01
    # The standard count-min dimensions for (epsilon, delta).
    width = math.ceil(math.e / epsilon)
    depth = math.ceil(math.log(1.0 / delta))
    rng = random.Random(100 + seed)
    keys = [("key-%d" % i).encode() for i in range(400)]
    counts = _zipf_stream(rng, keys, 8000)
    sketch = CountMinSketch(width=width, depth=depth)
    for key, count in counts.items():
        sketch.add(key, count)
    bound = sketch.error_bound()
    assert bound == pytest.approx(math.e / width * sketch.total)
    violations = sum(
        1 for key, count in counts.items()
        if sketch.estimate(key) - count > bound
    )
    # Allow 5x the analytic failure probability as seed slack.
    assert violations <= max(1, int(5 * delta * len(counts)))


@pytest.mark.parametrize("seed", range(5))
def test_bloom_no_false_negatives(seed):
    rng = random.Random(300 + seed)
    bloom = BloomFilter(size_bits=4793, num_hashes=7)
    inserted = [
        bytes(rng.getrandbits(8) for _ in range(12)) for _ in range(500)
    ]
    for key in inserted:
        bloom.add(key)
    for key in inserted:
        assert bloom.contains(key)
        assert bloom.add(key)  # re-insert reports "already present"


@pytest.mark.parametrize("seed", range(5))
def test_bloom_false_positive_rate_near_analytic(seed):
    rng = random.Random(400 + seed)
    # m = -n ln p / (ln 2)^2 and k = (m/n) ln 2 for n = 500, p = 1%.
    expected_items, target = 500, 0.01
    size_bits, num_hashes = 4793, 7
    bloom = BloomFilter(size_bits=size_bits, num_hashes=num_hashes)
    for _ in range(expected_items):
        bloom.add(bytes(rng.getrandbits(8) for _ in range(12)))
    probes = 4000
    false_positives = sum(
        1 for _ in range(probes)
        if bloom.contains(bytes(rng.getrandbits(8) for _ in range(16)))
    )
    analytic = (
        1.0 - math.exp(-num_hashes * expected_items / size_bits)
    ) ** num_hashes
    assert analytic <= 3 * target
    # Measured FPR within 3x analytic plus absolute slack for small
    # samples; still sharp enough to catch a broken hash or index bug.
    assert false_positives / probes <= 3 * analytic + 0.01

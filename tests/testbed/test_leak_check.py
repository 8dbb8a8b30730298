"""The shared-memory leak check counts only its own process tree's rings.

A ring segment is named after its creator's pid, so a segment another
process creates while a check runs (a second test run on the same host,
say) is not this test's leak, and a ring the test itself leaves behind
still is.
"""

import os
import subprocess
import sys

import pytest

from repro.testbed.shm_ring import (
    ColumnRing,
    segment_prefix,
    shared_memory_available,
)
from tests.fresh import fresh_env
from tests.shm import no_leaked_rings, ring_segments

pytestmark = pytest.mark.skipif(
    not shared_memory_available() or not os.path.isdir("/dev/shm"),
    reason="needs POSIX shared memory under /dev/shm",
)

# Creates a ring, prints its name and holds it until stdin closes.
_FOREIGN = (
    "import sys\n"
    "from repro.testbed.shm_ring import ColumnRing\n"
    "ring = ColumnRing.create(capacity=2, row_capacity=1)\n"
    "print(ring.descriptor['name'], flush=True)\n"
    "sys.stdin.read()\n"
    "ring.close()\n"
)


def test_a_ring_is_named_after_its_creator():
    ring = ColumnRing.create(capacity=2, row_capacity=1)
    try:
        name = ring.descriptor["name"]
        assert name.startswith(segment_prefix(os.getpid()))
        assert name in ring_segments(os.getpid())
    finally:
        ring.close()
    assert name not in ring_segments(os.getpid())


def test_a_ring_another_process_creates_meanwhile_is_no_leak():
    with no_leaked_rings():
        foreign = subprocess.Popen(
            [sys.executable, "-c", _FOREIGN],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=fresh_env(),
            text=True,
        )
        name = foreign.stdout.readline().strip()
    try:
        # The segment was live when the check ended, and is another's.
        assert name in ring_segments(foreign.pid)
        assert name in os.listdir("/dev/shm")
    finally:
        foreign.communicate("", timeout=60)
    assert foreign.returncode == 0
    assert not ring_segments(foreign.pid)


def test_an_own_ring_left_behind_is_a_leak():
    with pytest.raises(AssertionError, match="leaked shared-memory"):
        with no_leaked_rings():
            ring = ColumnRing.create(capacity=2, row_capacity=1)
    name = ring.descriptor["name"]
    ring.close()
    assert name not in ring_segments(os.getpid())

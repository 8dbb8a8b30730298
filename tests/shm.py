"""Which shared-memory ring segments a process tree left in /dev/shm.

A ring segment's name carries its creator's pid
(:func:`repro.testbed.shm_ring.segment_prefix`), so a leak check looks
only at the rings of the processes it started, never at a segment
another process on the host creates meanwhile.
"""

import contextlib
import os

from repro.testbed.shm_ring import segment_prefix

SHM_DIR = "/dev/shm"


def ring_segments(*pids):
    """Names of the live ring segments that ``pids`` created (empty
    where the platform hides them: the leak assertions then degrade to
    no-ops rather than false alarms)."""
    prefixes = tuple(segment_prefix(pid) for pid in pids)
    try:
        names = os.listdir(SHM_DIR)
    except OSError:  # pragma: no cover - non-Linux shm namespaces
        return set()
    return {name for name in names if name.startswith(prefixes)}


@contextlib.contextmanager
def no_leaked_rings():
    """Fails when the block leaves a ring this process created behind."""
    before = ring_segments(os.getpid())
    yield
    leaked = ring_segments(os.getpid()) - before
    assert not leaked, "leaked shared-memory segments: %s" % sorted(leaked)

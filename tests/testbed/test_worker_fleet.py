"""WorkerFleet lifecycle: what happens to the fleet when its owner dies.

Every tier reaches ring-fed workers through one
:class:`~repro.testbed.worker.WorkerFleet`, so worker lifecycle has one
owner and one place to test.  The orderly paths (close, respawn, kill
of a *worker*) are covered by ``tests/chaos/test_persistent_chaos.py``;
this file covers the disorderly one: the *parent* is ``SIGKILL``ed
mid-epoch and never runs a line of teardown.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.testbed.shm_ring import shared_memory_available

pytestmark = pytest.mark.skipif(
    not shared_memory_available() or not os.path.isdir("/proc"),
    reason="needs POSIX shared memory and /proc",
)

_SHM_DIR = "/dev/shm"

# Builds a 2-worker fleet, reports the worker pids, then keeps pushing
# epoch data forever — the kill always lands mid-epoch.
_OWNER = textwrap.dedent(
    """
    import sys

    from repro.testbed.executor import ShardSpec
    from repro.testbed.worker import WorkerFleet
    from tests.differential.workloads import APP_ID, DifferentialWorkload

    if __name__ == "__main__":
        wl = DifferentialWorkload(seed=11)
        spec = ShardSpec(
            kind="agg", app_id=APP_ID, schema=wl.schema, key=wl.key,
            specs=tuple(wl.specs), seed=7,
        )
        payloads = wl.payloads("uniform", 256)
        fleet = WorkerFleet(spec, backend="columnar", row_capacity=64)
        pids = [fleet.worker(shard)._proc.pid for shard in (0, 1)]
        print(" ".join(str(pid) for pid in pids), flush=True)
        while True:
            for shard in (0, 1):
                fleet.worker(shard).set_epoch(0)
                fleet.push(shard, payloads, 64)
    """
)


def _gone(pid):
    """Exited (reaped, or a zombie awaiting whoever adopted it)."""
    try:
        with open("/proc/%d/stat" % pid) as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


def test_sigkilled_owner_takes_its_fleet_down(tmp_path):
    script = tmp_path / "fleet_owner.py"
    script.write_text(_OWNER)
    repo = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)
    )))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(repo, "src"), repo, env.get("PYTHONPATH", "")]
    )
    before = set(os.listdir(_SHM_DIR))
    pids = []
    owner = subprocess.Popen(
        [sys.executable, str(script)],
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        pids = [int(pid) for pid in owner.stdout.readline().split()]
        assert len(pids) == 2, "fleet owner never came up"
        assert set(os.listdir(_SHM_DIR)) - before, "no ring was created"
        time.sleep(0.2)  # let epochs flow: the rings are busy, not idle
        owner.send_signal(signal.SIGKILL)
        owner.wait()
        killed = time.monotonic()
        while not all(_gone(pid) for pid in pids):
            assert time.monotonic() - killed < 3.0, (
                "orphaned workers still alive 3 s after the owner died"
            )
            time.sleep(0.05)
        # The rings were the dead owner's to unlink; its resource
        # tracker does it once the last worker has let go.
        deadline = time.monotonic() + 3.0
        while set(os.listdir(_SHM_DIR)) - before:
            assert time.monotonic() < deadline, (
                "leaked shared-memory segments: %s"
                % sorted(set(os.listdir(_SHM_DIR)) - before)
            )
            time.sleep(0.05)
    finally:
        if owner.poll() is None:
            owner.kill()
            owner.wait()
        for pid in pids:
            if not _gone(pid):
                os.kill(pid, signal.SIGKILL)

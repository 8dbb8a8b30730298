"""WorkerFleet lifecycle: what happens to the fleet when its owner dies.

Every tier reaches ring-fed workers through one
:class:`~repro.testbed.worker.WorkerFleet`, so worker lifecycle has one
owner and one place to test.  The orderly paths (close, respawn, kill
of a *worker*) are covered by ``tests/chaos/test_persistent_chaos.py``;
this file covers the disorderly one: the *parent* is ``SIGKILL``ed
mid-epoch and never runs a line of teardown.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.testbed.shm_ring import shared_memory_available
from tests.fresh import fresh_env

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
    before = set(os.listdir(_SHM_DIR))
    pids = []
    owner = subprocess.Popen(
        [sys.executable, str(script)],
        stdout=subprocess.PIPE,
        env=fresh_env(),
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


# -- bring-up and close: a set of workers, side by side ---------------------


def _agg_spec():
    from repro.testbed.executor import ShardSpec
    from tests.differential.workloads import APP_ID, DifferentialWorkload

    wl = DifferentialWorkload(seed=11)
    return ShardSpec(
        kind="agg", app_id=APP_ID, schema=wl.schema, key=wl.key,
        specs=tuple(wl.specs), seed=7,
    )


def _log_calls(monkeypatch, log, *names):
    """Record ``(name, shard)`` at every call of the named
    ``ShardWorker`` methods, then run the real method."""
    from repro.testbed.worker import ShardWorker

    def logged(name):
        real = getattr(ShardWorker, name)

        def method(self, *args, **kwargs):
            shard = args[1] if name == "__init__" else self.shard_index
            log.append((name, shard))
            return real(self, *args, **kwargs)

        return method

    for name in names:
        monkeypatch.setattr(ShardWorker, name, logged(name))


def _assert_all_gone(procs):
    for proc in procs:
        proc.join(timeout=10.0)
        assert not proc.is_alive()


def test_bring_up_starts_every_process_before_the_first_handshake(
    monkeypatch,
):
    from repro.testbed.worker import WorkerFleet

    log = []
    _log_calls(monkeypatch, log, "__init__", "await_ready")
    before = set(os.listdir(_SHM_DIR))
    fleet = WorkerFleet(_agg_spec(), backend="columnar", row_capacity=64)
    try:
        fleet.bring_up(range(3))
        assert log == [
            ("__init__", 0), ("__init__", 1), ("__init__", 2),
            ("await_ready", 0), ("await_ready", 1), ("await_ready", 2),
        ]
        assert sorted(fleet.workers) == [0, 1, 2]
        procs = [worker._proc for worker in fleet.workers.values()]
        assert all(worker.alive for worker in fleet.workers.values())
        assert len({proc.pid for proc in procs}) == 3
        # Ready means the handshake is consumed: the first reply each
        # worker sends after it is the barrier's.
        snapshot, deltas = fleet.drain()
        assert sorted(deltas) == [0, 1, 2]
        assert not any(any(cells) for cells in snapshot.values())
        # Live shards are left alone; one more brings up only itself.
        del log[:]
        fleet.bring_up((1, 3))
        assert log == [("__init__", 3), ("await_ready", 3)]
        procs.append(fleet.workers[3]._proc)
    finally:
        fleet.close()
    _assert_all_gone(procs)
    assert not set(os.listdir(_SHM_DIR)) - before


def test_one_failed_start_releases_the_whole_set(monkeypatch):
    """Shard 1 is handed a recipe its replica cannot be built from, so
    it dies before its readiness message; 0 and 2 are healthy."""
    from dataclasses import replace

    from repro.testbed.worker import ShardWorker, WorkerDied, WorkerFleet

    started = []
    real_init = ShardWorker.__init__

    def init(self, spec, shard_index, **kwargs):
        if shard_index == 1:
            spec = replace(spec, key=b"not an AES key")
        real_init(self, spec, shard_index, **kwargs)
        started.append(self)

    monkeypatch.setattr(ShardWorker, "__init__", init)
    before = set(os.listdir(_SHM_DIR))
    fleet = WorkerFleet(_agg_spec(), backend="columnar", row_capacity=64)
    try:
        with pytest.raises(WorkerDied) as failure:
            fleet.bring_up(range(3))
        message = str(failure.value)
        assert "shard 1" in message and "start-up" in message
        assert "exit code 1" in message
        assert len(started) == 3, "the set was not started side by side"
        assert fleet.workers == {}
        _assert_all_gone([worker._proc for worker in started])
        assert not set(os.listdir(_SHM_DIR)) - before
        # The fleet is as it was before the call: still usable.
        monkeypatch.setattr(ShardWorker, "__init__", real_init)
        assert fleet.worker(0).alive
        proc = fleet.workers[0]._proc
    finally:
        fleet.close()
    _assert_all_gone([proc])
    assert not set(os.listdir(_SHM_DIR)) - before


# A __main__ that spawn children cannot re-import: every spawned worker
# dies in multiprocessing's own bootstrap, before a line of repro runs
# in it.  A forked worker never imports __main__.  ``spawn`` as the
# argument keeps a live second thread for the whole run, which is what
# makes the workers spawn.
_UNIMPORTABLE_MAIN = textwrap.dedent(
    """
    import json
    import multiprocessing
    import sys
    import threading

    if __name__ == "__mp_main__":
        raise ImportError("this __main__ cannot be imported twice")

    from repro.testbed.executor import ShardExecutor, ShardSpec
    from repro.testbed.worker import WorkerDied, WorkerFleet
    from tests.differential.workloads import APP_ID, DifferentialWorkload

    if __name__ == "__main__":
        stop = threading.Event()
        if sys.argv[1] == "spawn":
            threading.Thread(target=stop.wait).start()
        wl = DifferentialWorkload(seed=11)
        spec = ShardSpec(
            kind="lark", app_id=APP_ID, schema=wl.schema, key=wl.key,
            specs=tuple(wl.specs), seed=7,
        )
        fleet = WorkerFleet(spec, backend="columnar", row_capacity=64)
        try:
            fleet.bring_up(range(2))
            error = None
        except WorkerDied as exc:
            error = str(exc)
        packets = [bytes(c) for c in wl.cids("uniform", 200)]
        with ShardExecutor(spec, shards=2, persistent=True) as executor:
            result = executor.run(packets)
        print(json.dumps({
            "error": error,
            "workers": len(fleet.workers),
            "children": len(multiprocessing.active_children()),
            "fallback_cause": result.fallback_cause,
            "packets": result.total_packets,
        }))
        fleet.close()
        stop.set()
    """
)


def _run_unimportable_main(tmp_path, how):
    script = tmp_path / "unimportable_main.py"
    script.write_text(_UNIMPORTABLE_MAIN)
    done = subprocess.run(
        [sys.executable, str(script), how],
        env=fresh_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_unimportable_main_is_named_and_falls_back(tmp_path):
    before = set(os.listdir(_SHM_DIR))
    out = _run_unimportable_main(tmp_path, "spawn")
    assert "start-up" in out["error"] and "exit code 1" in out["error"]
    assert out["workers"] == 0 and out["children"] == 0
    # The executor's existing fallback path took the same exception.
    assert out["fallback_cause"].startswith("WorkerDied: shard 0")
    assert "start-up" in out["fallback_cause"]
    assert out["packets"] == 200
    assert not set(os.listdir(_SHM_DIR)) - before


def test_unimportable_main_is_no_obstacle_to_fork(tmp_path):
    before = set(os.listdir(_SHM_DIR))
    out = _run_unimportable_main(tmp_path, "fork")
    assert out["error"] is None
    assert out["workers"] == 2 and out["children"] == 2
    assert out["fallback_cause"] is None
    assert out["packets"] == 200
    assert not set(os.listdir(_SHM_DIR)) - before


def test_close_tells_every_worker_before_collecting_any(monkeypatch):
    from repro.testbed.worker import WorkerFleet

    fleet = WorkerFleet(_agg_spec(), backend="columnar", row_capacity=64)
    before = set(os.listdir(_SHM_DIR))
    try:
        fleet.bring_up(range(3))
        procs = [worker._proc for worker in fleet.workers.values()]
        log = []
        _log_calls(monkeypatch, log, "request_shutdown", "close")
    finally:
        fleet.close()
    # close() asks again for itself (a no-op once asked): what matters
    # is that all three were told before the first was waited for.
    assert log[:4] == [
        ("request_shutdown", 0), ("request_shutdown", 1),
        ("request_shutdown", 2), ("close", 0),
    ]
    assert [entry for entry in log if entry[0] == "close"] == [
        ("close", 0), ("close", 1), ("close", 2),
    ]
    _assert_all_gone(procs)
    assert all(proc.exitcode == 0 for proc in procs), "not a clean exit"
    assert not set(os.listdir(_SHM_DIR)) - before
    assert fleet.workers == {}
    fleet.close()  # idempotent

"""Persistent shard workers: long-lived switch replicas fed by rings.

The in-process transport (:func:`repro.testbed.executor.
_run_shard_epoch`) folds a shard on the caller's own core.  A
:class:`ShardWorker` instead keeps ONE replica process alive and
streams batches to it through a
:class:`~repro.testbed.shm_ring.ColumnRing`; steady-state ingest costs
one shared-memory write per batch, no pickling and no process churn,
and shards fold in parallel.  :class:`WorkerFleet` owns the set of
workers a runtime uses — every tier above (executor, supervisor,
streaming pipeline) reaches its workers through one.

The worker runs a small **command loop** around the same
:class:`~repro.testbed.executor.Replica` the in-process transport
drives.  Data and control both travel through the ring (control slots
carry a pickled command tuple), so a command is totally ordered with
respect to the batches around it — a ``rekey`` pushed after batch N is
guaranteed to apply before batch N+1, exactly like the in-process
pipeline.  Replies (barrier snapshots, counters) return over a
dedicated ``Pipe``:

====================  =====================================================
command               effect
====================  =====================================================
``("epoch", ...)``    arm the fault injector for (epoch, attempt)
``("rekey", key)``    re-register the app under a new key (epoch bump)
``("barrier", ...)``  reply with counters + register snapshot; optionally
                      reset the replica for a fresh run
``("shutdown",)``     acknowledge and exit cleanly
====================  =====================================================

Every command body is a pickle of under 64 bytes.  What does not fit
that — the shard's checkpoint — is not a command: it rides in the
worker's start arguments and is restored before the readiness message,
at first start and at every respawn.  A worker's backend is fixed when
it is started.

Start-up: :func:`_start_context` picks one start method for every
worker.  On Linux, in a process running exactly one Python thread, a
worker is a ``fork`` of the warm parent — numpy and ``repro`` are
already imported, so start-up is a page-table copy plus the replica
build.  Anywhere else it is a ``spawn``ed fresh interpreter that
re-imports ``__main__`` and the shard runtime.  Both run the same
:func:`_worker_main` over the same ring and pipe protocol, and the
readiness message names the method the child actually started by.

Faults: a :class:`~repro.chaos.shard_faults.ShardFaultPlan` rides into
the worker at start-up.  Where the in-process transport surfaces an
injected :class:`ShardCrash` as a raised exception, a persistent worker
turns it into a **real ``SIGKILL`` of itself** — the supervisor must
detect the silent death through liveness probes and replay from the
last checkpoint, which is precisely the failure mode the chaos suite
certifies.

Lifecycle: the parent owns the ring segment and the worker only ever
attaches; killing the worker with ``kill -9`` therefore cannot unlink
the ring, and :meth:`ShardWorker.respawn` reuses the same segment after
a :meth:`~repro.testbed.shm_ring.ColumnRing.reset`.  ``close()`` is
idempotent and unlinks exactly once, in the parent.  A forked worker
also holds copies of the parent's owner rings; it never runs their
``close()``, and their finalizers unlink only in the process that
created the segment.  A worker whose parent died (even by ``kill -9``)
notices within a second and exits, so an orphan never pins the
mapping.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import time
from dataclasses import replace
from typing import (
    Any, Collection, Dict, Iterable, List, Mapping, Optional, Tuple,
)

from repro.chaos.shard_faults import ShardCrash, ShardFaultPlan
from repro.testbed.executor import (
    Replica,
    ShardSpec,
    _chunked,
    check_backend,
    fold_snapshots,
)
from repro.testbed.shm_ring import (
    KIND_CONTROL,
    ColumnRing,
    RingClosed,
    RingTimeout,
    shared_memory_available,
)

__all__ = ["ShardWorker", "WorkerDied", "WorkerFleet"]

# The process that imported this module: a forked worker inherits the
# parent's copy, a spawned one imports its own.
_IMPORTED_BY = os.getpid()


class WorkerDied(RuntimeError):
    """The persistent worker is gone (crash or kill) — the caller must
    respawn and replay from its last checkpoint."""


def _start_context():
    """The ``multiprocessing`` context every ring worker starts from.

    ``fork`` on Linux while this process runs exactly one Python thread:
    the child is a copy of the warm parent and imports nothing.
    ``spawn`` otherwise — a fork copies every lock another thread may
    be holding at that instant, and a child that needs one waits
    forever."""
    import multiprocessing as mp
    import threading

    if sys.platform.startswith("linux") and threading.active_count() == 1:
        return mp.get_context("fork")
    return mp.get_context("spawn")


def _worker_main(
    descriptor: Dict[str, Any],
    spec: ShardSpec,
    shard_index: int,
    backend: str,
    conn,
    plan: Optional[ShardFaultPlan],
    checkpoint: Optional[Dict[str, Any]],
) -> None:
    """Child entry point: attach the ring, build (and restore) the
    replica, loop."""
    ring = ColumnRing.attach(descriptor)
    replica = Replica(spec, shard_index, plan)
    if checkpoint is not None:
        replica.restore(checkpoint)
    parent = os.getppid()
    # Readiness handshake: the parent blocks until the replica is
    # built and restored, so start-up (a fork, or a spawned
    # interpreter's imports) cannot bleed into (and distort) the
    # caller's steady-state ingest window.
    conn.send({
        "ready": True,
        "start_method": "spawn" if _IMPORTED_BY == os.getpid() else "fork",
    })
    try:
        while True:
            try:
                view = ring.pop(timeout=1.0)
            except RingClosed:
                break
            # A worker must not outlive its parent (an orphan would pin
            # the shm mapping forever).  pop() returns at least once a
            # second, so this runs on a bounded tick whether the ring is
            # idle or still full of a dead parent's batches.
            if os.getppid() != parent:
                break
            if view is None:
                continue
            if view.kind == KIND_CONTROL:
                command = pickle.loads(view.body())
                ring.release()
                op = command[0]
                if op == "epoch":
                    replica.arm(*command[1:])
                elif op == "rekey":
                    replica.switch.rekey_application(spec.app_id, command[1])
                elif op == "barrier":
                    conn.send({
                        "counters": replica.counters(),
                        "snapshot": replica.snapshot(),
                    })
                    if command[1]:
                        replica.reset()
                elif op == "shutdown":
                    conn.send({"counters": replica.counters()})
                    break
                continue
            # DATA slot.
            try:
                replica.feed(
                    view.columns() if backend == "columnar" else view.rows(),
                    backend,
                    continued=view.continued,
                )
            except ShardCrash:
                # The in-process transport raises this to its caller; a
                # persistent worker dies for real — the supervisor must
                # notice the corpse, not catch an exception.
                conn.close()
                os.kill(os.getpid(), signal.SIGKILL)
            ring.release()
    finally:
        try:
            ring.close()
        except Exception:
            pass
        try:
            conn.close()
        except Exception:
            pass


class ShardWorker:
    """Parent-side handle on one persistent shard worker process.

    Constructing the handle creates the ring and *starts* the process;
    :meth:`await_ready` completes the start-up.  The two are separate
    so that :meth:`WorkerFleet.bring_up` can start a whole set of
    workers before it waits for any of them.  ``checkpoint`` is
    restored into the replica before it reports ready.
    """

    def __init__(
        self,
        spec: ShardSpec,
        shard_index: int,
        backend: str = "columnar",
        ring_capacity: int = 8,
        row_capacity: int = 4096,
        fault_plan: Optional[ShardFaultPlan] = None,
        reply_timeout_s: float = 60.0,
        checkpoint: Optional[Dict[str, Any]] = None,
    ):
        self.backend = check_backend(backend)
        if not shared_memory_available():
            raise RuntimeError(
                "persistent workers need POSIX shared memory"
            )
        self.spec = spec
        self.shard_index = shard_index
        self.fault_plan = fault_plan
        self.reply_timeout_s = reply_timeout_s
        self.ring = ColumnRing.create(
            capacity=ring_capacity, row_capacity=row_capacity
        )
        self.restarts = 0
        # "fork" or "spawn", as the running worker's readiness message
        # reported it.
        self.start_method: Optional[str] = None
        self._proc = None
        self._conn = None
        try:
            self._start(checkpoint)
        except BaseException:
            # A handle that never came up must not leave its segment
            # (or a half-started child) behind.
            self.close()
            raise

    # -- process lifecycle -------------------------------------------------

    def _start(self, checkpoint: Optional[Dict[str, Any]]) -> None:
        """Start the worker process and return without waiting for it:
        the start-ups of several workers overlap when their owner starts
        them all before the first :meth:`await_ready`."""
        self._shutdown_requested = False
        ctx = _start_context()
        self._conn, child_conn = ctx.Pipe()
        self._proc = ctx.Process(
            target=_worker_main,
            args=(
                self.ring.descriptor,
                self.spec,
                self.shard_index,
                self.backend,
                child_conn,
                self.fault_plan,
                checkpoint,
            ),
            daemon=True,
        )
        self._proc.start()
        child_conn.close()

    def await_ready(self) -> None:
        """Consume the readiness message, once per process start and
        before the first command that expects a reply — replies stay in
        lockstep with commands, and start-up cost stays out of the
        caller's ingest timings."""
        ready = self._recv_reply(
            timeout_s=max(60.0, self.reply_timeout_s),
            awaiting="start-up readiness",
        )
        if not ready.get("ready"):
            raise WorkerDied(
                "shard %d worker sent %r instead of readiness"
                % (self.shard_index, ready)
            )
        self.start_method = ready["start_method"]

    @property
    def alive(self) -> bool:
        return self._proc is not None and self._proc.is_alive()

    def wait_dead(self, timeout: float = 1.0) -> bool:
        """True once the worker process is confirmed dead.  A worker
        that SIGKILLs itself closes its pipe a moment before the signal
        lands, so callers distinguishing crash from wedge must allow
        the corpse this grace window."""
        if self._proc is None:
            return True
        self._proc.join(timeout)
        return not self._proc.is_alive()

    def respawn(
        self, checkpoint: Optional[Dict[str, Any]] = None
    ) -> None:
        """Replace a dead worker on the SAME ring segment: discard
        whatever the corpse left unconsumed, start a fresh replica
        restored to ``checkpoint`` (when given) for replay."""
        if self._proc is not None:
            if self._proc.is_alive():
                self._proc.kill()
            self._proc.join(timeout=10.0)
        if self._conn is not None:
            self._conn.close()
        self.ring.reset()
        self.restarts += 1
        self._start(checkpoint)
        self.await_ready()

    def kill(self) -> None:
        """SIGKILL the worker (chaos tests)."""
        if self._proc is not None and self._proc.is_alive():
            self._proc.kill()
            self._proc.join(timeout=10.0)

    def request_shutdown(self) -> None:
        """Push ``shutdown`` without waiting for the worker to act on
        it; :meth:`close` collects.  An owner of several workers tells
        them all first, so they wind down side by side."""
        if self.alive and not self._shutdown_requested:
            try:
                self._push_control(("shutdown",), timeout=5.0)
                self._shutdown_requested = True
            except (WorkerDied, RingTimeout):
                pass  # dying or wedged: close() joins or kills it

    def close(self) -> None:
        """Shut down (gracefully when possible) and release the ring."""
        if self.alive:
            self.request_shutdown()
            if self._shutdown_requested:
                try:
                    self._recv_reply(timeout_s=5.0)
                except WorkerDied:
                    pass
            self._proc.join(timeout=5.0)
            if self._proc.is_alive():
                self._proc.kill()
                self._proc.join(timeout=5.0)
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        self.ring.close()

    def __enter__(self) -> "ShardWorker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- plumbing ----------------------------------------------------------

    def _push_control(self, command: Tuple, timeout: float) -> None:
        try:
            self.ring.push(
                [pickle.dumps(command)],
                kind=KIND_CONTROL,
                timeout=timeout,
                alive_check=self._liveness,
            )
        except RingClosed:
            raise WorkerDied(
                "shard %d worker died before %r"
                % (self.shard_index, command[0])
            )

    def _liveness(self) -> bool:
        return self._proc is not None and self._proc.is_alive()

    def _recv_reply(
        self, timeout_s: Optional[float] = None, awaiting: str = "reply"
    ):
        timeout_s = (
            self.reply_timeout_s if timeout_s is None else timeout_s
        )
        deadline = time.monotonic() + timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WorkerDied(
                    "shard %d worker timed out awaiting %s"
                    % (self.shard_index, awaiting)
                )
            if self._conn.poll(min(0.2, max(0.0, remaining))):
                try:
                    return self._conn.recv()
                except (EOFError, OSError):
                    raise self._died(awaiting) from None
            if not self._liveness():
                # One final poll: the reply may have landed just before
                # the death.
                if self._conn.poll(0):
                    try:
                        return self._conn.recv()
                    except (EOFError, OSError):
                        pass
                raise self._died(awaiting)

    def _died(self, awaiting: str) -> WorkerDied:
        """Names the phase the worker died in and its exit code (a
        negative code is the signal that killed it; ``None`` means the
        pipe closed before the corpse could be collected)."""
        self._proc.join(timeout=1.0)
        return WorkerDied(
            "shard %d worker died awaiting %s (exit code %s)"
            % (self.shard_index, awaiting, self._proc.exitcode)
        )

    # -- commands ----------------------------------------------------------

    def push_batch(self, rows, timeout: float = 30.0) -> None:
        """Feed one batch (a ``PacketColumns`` or a list of payloads)."""
        try:
            self.ring.push(
                rows, timeout=timeout, alive_check=self._liveness
            )
        except RingClosed:
            raise WorkerDied(
                "shard %d worker died mid-ingest" % self.shard_index
            )

    def set_epoch(
        self, epoch: int, attempt: int = 0, chunk_offset: int = 0
    ) -> None:
        """Arm fault injection for the coming epoch attempt."""
        self._push_control(
            ("epoch", epoch, attempt, chunk_offset), timeout=30.0
        )

    def rekey(self, new_key: bytes) -> None:
        """Ring-ordered rekey: applies after every batch already pushed."""
        self._push_control(("rekey", bytes(new_key)), timeout=30.0)

    def drain(self, reset: bool = False) -> Dict[str, Any]:
        """Barrier: wait until every pushed batch is folded, then fetch
        ``{"counters", "snapshot"}`` — the snapshot is the raw register
        state, i.e. also the checkpoint a (re)start restores.
        ``reset=True`` additionally rebuilds the replica afterwards so
        the next run starts from zero (run-to-run isolation)."""
        self._push_control(("barrier", reset), timeout=30.0)
        return self._recv_reply()


_ZERO = {"packets": 0, "folded": 0, "unmerged": 0}


class WorkerFleet:
    """The one owner of ring-fed worker lifecycle for a runtime.

    ``ShardExecutor(persistent=True)``, ``ShardSupervisor(
    persistent=True)`` and ``StreamingPipeline(backend="persistent")``
    each hold one fleet and nothing else about workers: a set of shards
    is brought up together (processes started side by side by
    :func:`_start_context`'s method, then the readiness handshakes; a
    shard re-entering the fleet starts from the caller's checkpoint),
    parts stream in ``chunk_size`` ring pushes on the backend the fleet
    was built with, a drain barrier returns
    register snapshots with counter **deltas** since the previous drain
    (worker counters are cumulative; the fleet keeps the bases), a
    shrinking map retires workers with their state kept, and a dead
    worker is respawned on its own ring.
    """

    def __init__(
        self,
        spec: ShardSpec,
        backend: str = "columnar",
        row_capacity: int = 4096,
        fault_plan: Optional[ShardFaultPlan] = None,
        reply_timeout_s: float = 60.0,
    ):
        self.spec = spec
        self.backend = backend
        self.row_capacity = row_capacity
        self.fault_plan = fault_plan
        self.reply_timeout_s = reply_timeout_s
        self.workers: Dict[int, ShardWorker] = {}
        self._bases: Dict[int, Dict[str, int]] = {}
        # State of workers retired by resize(), reported by the next
        # fleet-wide drain() so no fold and no count is ever lost.
        self._retired_snapshot: Optional[Dict[str, List[int]]] = None
        self._retired_deltas: Dict[int, Dict[str, int]] = {}

    def bring_up(
        self,
        shards: Iterable[int],
        checkpoints: Optional[Mapping[int, Dict[str, Any]]] = None,
    ) -> None:
        """Make every shard in ``shards`` a live, ready worker.

        The missing processes are all started first and their readiness
        handshakes consumed afterwards, so the workers come up side by
        side rather than one after another — and still before the
        caller's first (timed) push.  A new worker starts from its
        entry of ``checkpoints`` (a shard re-entering the fleet picks
        its cumulative fold up where the caller's store left it);
        shards already live are left alone.  If any worker fails to
        come up the whole new set is released and ``WorkerDied``
        raised: the fleet is as it was before the call.
        """
        checkpoints = checkpoints or {}
        fresh: Dict[int, ShardWorker] = {}
        try:
            for shard in shards:
                if shard not in self.workers and shard not in fresh:
                    fresh[shard] = ShardWorker(
                        self.spec,
                        shard,
                        backend=self.backend,
                        row_capacity=self.row_capacity,
                        fault_plan=self.fault_plan,
                        reply_timeout_s=self.reply_timeout_s,
                        checkpoint=checkpoints.get(shard),
                    )
            for worker in fresh.values():
                worker.await_ready()
        except BaseException:
            _close_all(fresh.values())
            raise
        for shard, worker in fresh.items():
            self.workers[shard] = worker
            self._bases[shard] = _ZERO

    def worker(
        self, shard: int, checkpoint: Optional[Dict[str, Any]] = None
    ) -> ShardWorker:
        """The live worker for ``shard`` — :meth:`bring_up` of that one
        shard on first use; an existing worker ignores ``checkpoint``."""
        if shard not in self.workers:
            self.bring_up((shard,), {shard: checkpoint})
        return self.workers[shard]

    def push(
        self, shard: int, part: Any, chunk_size: Optional[int] = None
    ) -> None:
        """Stream one shard part to its ring, one push per chunk (the
        fault plan's kill coordinates count these pushes, however many
        slots the ring splits one into)."""
        worker = self.worker(shard)
        for chunk in _chunked(
            part, chunk_size or self.row_capacity, self.backend
        ):
            worker.push_batch(chunk)

    def rekey(self, new_key: bytes) -> None:
        """Ring-ordered rekey of every live worker — and of the recipe,
        so a shard spawned lazily afterwards is built from the live
        key."""
        self.spec = replace(self.spec, key=bytes(new_key))
        for worker in self.workers.values():
            worker.rekey(new_key)

    def drain_shard(
        self, shard: int, reset: bool = False
    ) -> Tuple[Dict[str, List[int]], Dict[str, int]]:
        """Barrier one worker.  Returns its register snapshot — the
        checkpoint unit — and its counter deltas since its last drain."""
        reply = self.workers[shard].drain(reset=reset)
        counters, base = reply["counters"], self._bases[shard]
        self._bases[shard] = _ZERO if reset else counters
        return reply["snapshot"], {k: counters[k] - base[k] for k in _ZERO}

    def drain(
        self, reset: bool = False
    ) -> Tuple[Optional[Dict[str, List[int]]], Dict[int, Dict[str, int]]]:
        """Fleet-wide barrier.  Returns the merged snapshot (retired ⊕
        live; ``None`` for a fleet that never spawned) and per-shard
        counter deltas since the last drain, retired shards included."""
        snapshots = [self._retired_snapshot]
        deltas, self._retired_deltas = self._retired_deltas, {}
        for shard in sorted(self.workers):
            snapshot, delta = self.drain_shard(shard, reset)
            snapshots.append(snapshot)
            _add(deltas, shard, delta)
        if reset:
            self._retired_snapshot = None
        return fold_snapshots(self.spec, snapshots), deltas

    def resize(self, shards: int) -> None:
        """Retire every worker whose shard id fell off a shrunken map:
        drain it (snapshot and counter deltas move to the retired
        accumulator) and release its ring."""
        for shard in sorted(s for s in self.workers if s >= shards):
            try:
                snapshot, delta = self.drain_shard(shard)
                self._retired_snapshot = fold_snapshots(
                    self.spec, (self._retired_snapshot, snapshot)
                )
                _add(self._retired_deltas, shard, delta)
            finally:
                self.workers.pop(shard).close()
                del self._bases[shard]

    def respawn(
        self, shard: int, checkpoint: Optional[Dict[str, Any]] = None
    ) -> None:
        """Replace a dead or wedged worker on the SAME ring segment,
        started from ``checkpoint`` for the replay."""
        self.workers[shard].respawn(checkpoint)
        self._bases[shard] = _ZERO

    def close(self) -> None:
        """Shut every worker down and release the rings (idempotent;
        the fleet can be used again and respawns lazily)."""
        workers = list(self.workers.values())
        self.workers.clear()
        self._bases.clear()
        self._retired_snapshot = None
        self._retired_deltas = {}
        _close_all(workers)


def _close_all(workers: Collection[ShardWorker]) -> None:
    """Tell every worker to shut down, then collect them: the workers
    wind down side by side and one wedged worker's join timeout is not
    paid once per healthy worker behind it."""
    for worker in workers:
        worker.request_shutdown()
    for worker in workers:
        try:
            worker.close()
        except Exception:  # pragma: no cover - teardown best effort
            pass


def _add(
    deltas: Dict[int, Dict[str, int]], shard: int, delta: Dict[str, int]
) -> None:
    seen = deltas.get(shard, _ZERO)
    deltas[shard] = {k: seen[k] + delta[k] for k in _ZERO}

"""Supervised shard runtime: per-epoch dispatch, crash recovery,
checkpointed aggregation state.

:class:`~repro.testbed.executor.ShardExecutor` treats a run as
all-or-nothing — one crashed or hung worker throws away *every*
shard's work and the whole stream is reprocessed in-process.  A
:class:`ShardSupervisor` instead drives **one epoch loop**::

    for each window of the stream        (one window unless elastic)
        partition it under the live map
        for each shard's part of the window
            for each epoch of checkpoint_batches x chunk_size packets
                run it on a replica, under retry, from the last checkpoint
        elastic: feed the window's bucket loads to the controller

* an epoch job restores the shard's last **checkpoint** (the raw
  register snapshot the switch exposes via ``checkpoint()``), streams
  one epoch, and hands the new snapshot back — the supervisor owns the
  checkpoint store, so a worker death can never take saved state down
  with it;
* the job runs over one of the executor's two transports — in-process,
  or a long-lived ring-fed worker (``persistent=True``) that carries
  its replica state across epochs (bit-identical, because
  ``restore(C_e); replay(e+1)`` and ``continue`` compute the same
  cells) and for which an injected crash is a real ``SIGKILL``;
* a failed or timed-out job is retried with bounded exponential
  backoff, replaying **only that epoch** from the last checkpoint
  while other shards keep their completed work.

Why the recovered state is bit-identical to a fault-free run: register
folds (add / min / max) are pure functions of per-shard packet order,
and ``checkpoint()``/``restore()`` round-trip the registers exactly.
Why placement cannot change it: folds are also associative and
commutative and every read-out merges *all* shard checkpoints, so
which shard folded a packet — under whichever map — is unobservable.
The differential suite and the chaos bench assert both byte for byte.

Fault injection is scripted with
:class:`~repro.chaos.shard_faults.ShardFaultPlan` — deterministic
kills (``kill_shard(n, at_batch=k)``) and seeded crash probabilities,
picklable so they ride into workers unchanged under either start
method.  A run's backend is fixed when the supervisor is built.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, List, NamedTuple, Optional, Sequence,
)

from repro.chaos.shard_faults import ShardFaultPlan
from repro.obs.registry import MetricsRegistry, get_registry
from repro.testbed.executor import (
    ShardSpec,
    _run_shard_epoch,
    _slice_part,
    check_backend,
    fold_snapshots,
    partition_columns,
    render_report,
)
from repro.testbed.placement import PartitionMap, PlacementController
from repro.testbed.worker import WorkerDied, WorkerFleet

__all__ = ["ShardSupervisor", "SupervisedRunResult"]

_LOG = logging.getLogger(__name__)


class _Job(NamedTuple):
    """One epoch of one shard, as cut by the loop."""

    part: Any  # this epoch's packets
    map_version: int  # the partition map that cut the window


class _ShardState:
    """Supervisor-side bookkeeping for one shard's epoch chain.

    ``epochs`` (completed so far) is the epoch index the fault plan
    sees; ``chunks_done`` is the shard's cumulative chunk offset,
    because kills are scripted in whole-stream chunk coordinates
    however the stream was windowed.
    """

    __slots__ = (
        "shard", "checkpoint", "processed", "folded", "epochs", "attempt",
        "chunks_done",
    )

    def __init__(self, shard: int):
        self.shard = shard
        self.checkpoint: Optional[Dict[str, List[int]]] = None
        self.processed = 0
        self.folded = 0
        self.epochs = 0
        self.attempt = 0
        self.chunks_done = 0


@dataclass
class SupervisedRunResult:
    """Merged outcome of a supervised sharded run."""

    snapshot: Dict[str, List[int]]
    report: Dict[str, Any]
    shard_packets: List[int]
    shard_folded: List[int]
    shards: int
    # recovery bookkeeping
    epochs: List[int]  # completed epochs per shard
    crashes: int  # worker deaths observed (injected or real)
    timeouts: int  # jobs abandoned on timeout
    retries: int  # epoch jobs re-dispatched after a failure
    recovered_packets: int  # packets replayed from checkpoints
    checkpoints: int  # snapshots taken at epoch flushes
    salvaged: List[int]  # shards that had an epoch finished by salvage
    fallback_cause: Optional[str] = None
    used_workers: bool = False  # persistent ring-fed workers ran the epochs
    worker_respawns: int = 0  # dead persistent workers replaced mid-run
    # elastic placement bookkeeping (placement runs only)
    map_versions: List[int] = field(default_factory=list)  # map per window
    placement_history: List[Dict[str, Any]] = field(default_factory=list)
    final_shards: int = 0  # fleet size after the last window (0 = static)

    @property
    def total_packets(self) -> int:
        return sum(self.shard_packets)


class ShardSupervisor:
    """Fan a packet stream across switch-replica shards under
    supervision: independent per-epoch jobs, bounded-backoff retries,
    checkpointed recovery, scripted fault injection.

    ``checkpoint_batches`` — chunks per epoch; an epoch flush is the
    checkpoint boundary, so a crash replays at most
    ``checkpoint_batches x chunk_size`` packets.  ``fault_plan`` — a
    :class:`ShardFaultPlan` scripting deterministic crashes.  ``sleep``
    — injectable so tests can retry without real backoff delays.
    ``persistent`` — run the epochs on
    long-lived ring-fed :class:`~repro.testbed.worker.ShardWorker`
    processes instead of in-process: same checkpoint cadence and retry
    machinery, but an injected crash becomes a real ``SIGKILL`` of the
    worker and recovery is a respawn (restoring the checkpoint before
    the worker reports ready) and a replay on the same shared-memory
    ring (falls back to in-process, recording
    ``fallback_cause``, when workers cannot be started).  ``placement``
    — a :class:`PlacementController` makes the run *elastic*: the
    stream is cut into windows of ``epoch_size x shards`` packets, each
    partitioned ONCE under the map live when it is cut (so retries and
    crash replays always run that map, never a later one), and the
    window barrier feeds the per-bucket counts to the controller, which
    may rebalance or resize the fleet for the *next* window.  State
    lives in the supervisor's checkpoint store, so placement changes
    migrate nothing.  Without a controller the whole stream is one
    window under the static ``PartitionMap(shards)``.

    **Salvage rule** (one rule, every mode): an epoch job that fails
    ``max_retries + 1`` times is finished in-process with fault
    injection off, from the shard's last checkpoint.  Salvage is scoped
    to that job — the shard's next epoch goes back to the normal
    transport with faults armed — and a shard is listed once in
    ``salvaged`` however many of its jobs needed it.
    """

    def __init__(
        self,
        spec: ShardSpec,
        shards: int = 2,
        backend: str = "columnar",
        chunk_size: int = 4096,
        checkpoint_batches: int = 4,
        job_timeout_s: float = 60.0,
        max_retries: int = 2,
        backoff_base_s: float = 0.01,
        backoff_max_s: float = 1.0,
        fault_plan: Optional[ShardFaultPlan] = None,
        registry: Optional[MetricsRegistry] = None,
        sleep: Callable[[float], None] = time.sleep,
        persistent: bool = False,
        placement: Optional[PlacementController] = None,
    ):
        if placement is not None:
            shards = placement.map.shards
        if shards < 1:
            raise ValueError("shards must be >= 1")
        check_backend(backend)
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if checkpoint_batches < 1:
            raise ValueError("checkpoint_batches must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if spec.kind == "lark" and spec.dedup:
            # The dedup bloom filter lives outside the stats snapshot,
            # so restore+replay would double-count resent cookies.
            raise ValueError(
                "supervised lark shards require dedup=False "
                "(dedup state is not checkpointed)"
            )
        self.spec = spec
        self.shards = shards
        self.backend = backend
        self.chunk_size = chunk_size
        self.checkpoint_batches = checkpoint_batches
        self.epoch_size = checkpoint_batches * chunk_size
        self.job_timeout_s = job_timeout_s
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.fault_plan = fault_plan
        self.persistent = bool(persistent)
        self.placement = placement
        self.registry = registry if registry is not None else get_registry()
        self.last_error: Optional[str] = None
        self._sleep = sleep
        # run-scoped, reset per run()
        self._fleet: Optional[WorkerFleet] = None
        self._fallback_cause: Optional[str] = None
        self._crashes = 0
        self._timeouts = 0
        self._retries = 0
        self._recovered = 0
        self._checkpoints = 0
        self._salvaged: List[int] = []
        self._respawns = 0

    # -- the epoch loop ----------------------------------------------------

    def run(self, packets: Sequence[bytes]) -> SupervisedRunResult:
        """Process ``packets`` across all shards under supervision and
        fold the final checkpoints into one snapshot + report."""
        self.last_error = self._fallback_cause = None
        self._crashes = self._timeouts = self._retries = 0
        self._recovered = self._checkpoints = self._respawns = 0
        self._salvaged = []
        controller = self.placement
        states: Dict[int, _ShardState] = {}
        map_versions: List[int] = []
        if self.persistent:
            self._fleet = WorkerFleet(
                self.spec,
                backend=self.backend,
                row_capacity=max(self.chunk_size, 64),
                fault_plan=self.fault_plan,
                reply_timeout_s=self.job_timeout_s,
            )
        try:
            pos = 0
            while pos < len(packets):
                if controller is not None:
                    pmap = controller.map
                    size = self.epoch_size * pmap.shards
                else:
                    pmap = PartitionMap(self.shards)
                    size = len(packets)
                parts, counts = partition_columns(
                    self.spec, pmap, _slice_part(packets, pos, pos + size)
                )
                busy = [
                    states.setdefault(shard, _ShardState(shard))
                    for shard, part in enumerate(parts)
                    if len(part)
                ]
                self._bring_up(busy)
                for state in busy:
                    part = parts[state.shard]
                    for lo in range(0, len(part), self.epoch_size):
                        self._run_epoch(
                            state,
                            _slice_part(part, lo, lo + self.epoch_size),
                            pmap.version,
                        )
                if controller is not None:
                    map_versions.append(pmap.version)
                    controller.observe(counts)
                    new_map = controller.end_epoch()
                    if self._fleet is not None:
                        self._fleet.resize(new_map.shards)
                pos += size
        finally:
            if self._fleet is not None:
                self._fleet.close()
                self._fleet = None
        live = controller.map.shards if controller is not None else self.shards
        width = max([live] + [shard + 1 for shard in states])
        blank = _ShardState(-1)
        chain = [states.get(shard, blank) for shard in range(width)]
        snapshot = fold_snapshots(self.spec, (s.checkpoint for s in chain))
        return SupervisedRunResult(
            snapshot=snapshot or {},
            report=render_report(self.spec, self.shards, snapshot),
            shard_packets=[s.processed for s in chain],
            shard_folded=[s.folded for s in chain],
            shards=width,
            epochs=[s.epochs for s in chain],
            crashes=self._crashes,
            timeouts=self._timeouts,
            retries=self._retries,
            recovered_packets=self._recovered,
            checkpoints=self._checkpoints,
            salvaged=list(self._salvaged),
            fallback_cause=self._fallback_cause,
            used_workers=self.persistent and self._fallback_cause is None,
            worker_respawns=self._respawns,
            map_versions=map_versions,
            placement_history=(
                list(controller.history) if controller is not None else []
            ),
            final_shards=live if controller is not None else 0,
        )

    def _run_epoch(
        self, state: _ShardState, part: Any, map_version: int
    ) -> None:
        """One epoch job under the retry machinery: dispatch over the
        live transport until it succeeds or exhausts into salvage."""
        job = _Job(part, map_version)
        state.attempt = 0
        while True:
            worker = (
                self._fleet.workers[state.shard]
                if self._fleet is not None
                else None
            )
            try:
                if worker is not None:
                    self._persistent_epoch(state, worker, job)
                else:
                    self._inline_epoch(state, job, self.fault_plan)
                return
            except Exception as exc:
                kind = (
                    "timeout"
                    if isinstance(exc, WorkerDied)
                    and not worker.wait_dead(1.0)
                    else "crash"
                )
                self._on_failure(
                    state, job, kind, "%s: %s" % (type(exc).__name__, exc)
                )
            salvage = state.attempt > self.max_retries
            if salvage:
                self._salvage(state, job)
            if worker is not None:
                # Same ring, fresh replica, restored to the newest
                # checkpoint (post-salvage when there was one).
                self._fleet.respawn(state.shard, state.checkpoint)
                self._respawns += 1
                self.registry.counter("supervisor.worker_respawns").inc()
            if salvage:
                return

    def _bring_up(self, states: List[_ShardState]) -> None:
        """Before a window's first epoch: every shard the window routes
        traffic to gets its ring-fed worker, the missing ones started
        side by side and each started from its shard's last
        checkpoint.  A fleet that cannot start is dropped for the rest
        of the run and the epochs go in-process (the checkpoint store
        makes the switch-over seamless)."""
        if self._fleet is None:
            return
        try:
            self._fleet.bring_up(
                [state.shard for state in states],
                {state.shard: state.checkpoint for state in states},
            )
        except Exception as exc:
            self.last_error = self._fallback_cause = "%s: %s" % (
                type(exc).__name__, exc,
            )
            self.registry.counter("supervisor.worker_fallbacks").inc()
            self._fleet.close()
            self._fleet = None

    def _persistent_epoch(self, state: _ShardState, worker, job: _Job) -> None:
        """One epoch over a persistent worker: arm, stream, drain."""
        worker.set_epoch(state.epochs, state.attempt, state.chunks_done)
        self._fleet.push(state.shard, job.part, self.chunk_size)
        self._on_success(state, job, *self._fleet.drain_shard(state.shard))

    def _inline_epoch(
        self, state: _ShardState, job: _Job, plan: Optional[ShardFaultPlan]
    ) -> None:
        """One epoch in-process: fresh replica, restore, stream."""
        self._on_success(state, job, *_run_shard_epoch(
            self.spec, state.shard, job.part, self.backend, self.chunk_size,
            state.checkpoint, plan, state.epochs, state.attempt,
            state.chunks_done,
        ))

    # -- bookkeeping -------------------------------------------------------

    def _on_success(
        self,
        state: _ShardState,
        job: _Job,
        snapshot: Dict[str, List[int]],
        counters: Dict[str, int],
    ) -> None:
        state.checkpoint = snapshot
        state.processed += counters["packets"]
        state.folded += counters["folded"]
        state.epochs += 1
        state.chunks_done += (
            len(job.part) + self.chunk_size - 1
        ) // self.chunk_size
        state.attempt = 0
        self._checkpoints += 1
        self.registry.counter("supervisor.checkpoints").inc()
        self.registry.counter("supervisor.epochs").inc()

    def _on_failure(
        self, state: _ShardState, job: _Job, kind: str, cause: str
    ) -> None:
        """Book a failed epoch job; back off when it will be retried."""
        self.last_error = cause
        if kind == "timeout":
            self._timeouts += 1
            self.registry.counter("supervisor.timeouts").inc()
        else:
            self._crashes += 1
            self.registry.counter("supervisor.crashes").inc()
        # The failed attempt's partial work is lost; the replay costs at
        # most one epoch from the last checkpoint.
        self._recovered += len(job.part)
        self.registry.counter("supervisor.recovered_packets").inc(
            len(job.part)
        )
        _LOG.warning(
            "shard epoch job failed",
            extra={
                "component": "shard_supervisor",
                "shard": state.shard,
                "epoch": state.epochs,
                "map_version": job.map_version,
                "attempt": state.attempt,
                "failure": kind,
                "cause": cause,
            },
        )
        state.attempt += 1
        if state.attempt > self.max_retries:
            return
        self._retries += 1
        self.registry.counter("supervisor.retries").inc()
        backoff = min(
            self.backoff_max_s,
            self.backoff_base_s * (2 ** (state.attempt - 1)),
        )
        if backoff > 0:
            self._sleep(backoff)

    def _salvage(self, state: _ShardState, job: _Job) -> None:
        """Finish a retry-exhausted epoch job in-process, fault
        injection off, from the shard's last checkpoint."""
        if state.shard not in self._salvaged:
            self._salvaged.append(state.shard)
            self.registry.counter("supervisor.salvages").inc()
        _LOG.warning(
            "shard epoch retries exhausted, salvaging in-process",
            extra={
                "component": "shard_supervisor",
                "shard": state.shard,
                "epoch": state.epochs,
            },
        )
        self._inline_epoch(state, job, None)

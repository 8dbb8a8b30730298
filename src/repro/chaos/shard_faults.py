"""Deterministic fault injection for the shard runtime.

The chaos DSL in :mod:`repro.chaos.scenario` scripts faults onto a
*simulated* deployment (device crashes, link loss).  The multiprocess
shard runtime (:class:`repro.testbed.executor.ShardExecutor`) runs
on host CPUs, outside the simulator, so its faults are scripted here
instead: a :class:`ShardFaultPlan` is a picklable recipe that rides
into the worker with the job arguments and raises a
:class:`ShardCrash` at a precise, reproducible point in the stream.

Two injection mechanisms, both deterministic:

* ``kill_shard(shard, at_batch=k, times=t)`` — the worker processing
  ``shard`` dies when it reaches its ``k``-th chunk (counted across
  the whole shard stream, not per epoch), on its first ``t`` attempts.
  After ``t`` crashes the retry passes, which is exactly the shape the
  recovery path needs: checkpoint -> crash -> restore -> replay tail.
* ``crash_probability`` — before each chunk the worker draws from a
  ``random.Random`` seeded by ``(seed, shard, epoch, attempt)`` and
  dies with the given probability.  Same seed, same crashes; retries
  draw from a fresh attempt-keyed stream so a doomed epoch is not
  doomed forever.

A plan scripts crashes only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

__all__ = ["ShardCrash", "ShardFaultPlan", "ShardKill"]


class ShardCrash(RuntimeError):
    """An injected worker crash (picklable across the pool boundary)."""


@dataclass(frozen=True)
class ShardKill:
    """One scripted worker death."""

    shard: int
    at_batch: int  # chunk index within the shard's whole stream
    times: int = 1  # consecutive attempts that die before one passes


class ShardFaultPlan:
    """Picklable, seeded crash recipe for a shard run:
    scripted kills plus a per-chunk crash probability."""

    def __init__(self, seed: int = 0, crash_probability: float = 0.0):
        if not 0.0 <= crash_probability <= 1.0:
            raise ValueError("crash_probability must be in [0, 1]")
        self.seed = seed
        self.crash_probability = crash_probability
        self.kills: List[ShardKill] = []

    # -- builders ---------------------------------------------------------------

    def kill_shard(
        self, shard: int, at_batch: int = 0, times: int = 1
    ) -> "ShardFaultPlan":
        """Kill ``shard``'s worker at its ``at_batch``-th chunk on the
        first ``times`` attempts."""
        if shard < 0:
            raise ValueError("shard must be >= 0")
        if at_batch < 0:
            raise ValueError("at_batch must be >= 0")
        if times < 1:
            raise ValueError("times must be >= 1")
        self.kills.append(ShardKill(shard, at_batch, times))
        return self

    # -- worker-side hook -------------------------------------------------------

    def injector(
        self, shard: int, epoch: int, attempt: int, batch_offset: int
    ) -> "ShardFaultInjector":
        """The per-job crash hook; ``batch_offset`` is the shard-stream
        chunk index where this epoch starts (kills are scripted in
        whole-stream coordinates)."""
        return ShardFaultInjector(self, shard, epoch, attempt, batch_offset)


class ShardFaultInjector:
    """Worker-side view of a plan for one (shard, epoch, attempt)."""

    def __init__(
        self,
        plan: ShardFaultPlan,
        shard: int,
        epoch: int,
        attempt: int,
        batch_offset: int,
    ):
        self._kills: List[Tuple[int, int]] = [
            (kill.at_batch, kill.times)
            for kill in plan.kills
            if kill.shard == shard
        ]
        self._attempt = attempt
        self._offset = batch_offset
        self._probability = plan.crash_probability
        self._rng: Optional[random.Random] = None
        if self._probability > 0.0:
            self._rng = random.Random(
                (plan.seed, shard, epoch, attempt).__repr__()
            )

    def before_batch(self, local_batch: int) -> None:
        """Raise :class:`ShardCrash` when this chunk is scripted (or
        drawn) to die; called by the worker before each chunk."""
        global_batch = self._offset + local_batch
        for at_batch, times in self._kills:
            if global_batch == at_batch and self._attempt < times:
                raise ShardCrash(
                    "scripted kill at batch %d (attempt %d)"
                    % (global_batch, self._attempt)
                )
        if self._rng is not None and self._rng.random() < self._probability:
            raise ShardCrash(
                "seeded crash at batch %d (attempt %d)"
                % (global_batch, self._attempt)
            )

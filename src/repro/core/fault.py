"""Fault detection and repair (paper section 6, "Fault Tolerance").

All of Snatch's failure modes — controller/device inconsistency,
missed AES-key updates, dropped aggregation packets — surface the same
way: the in-network aggregate drifts from the truth.  The paper's
remedy: re-run the same analytics on the data that reaches the web
servers (it arrives later but is complete), diff the results, and have
the application developer report discrepancies to the controller,
which re-pushes parameters over RPC.

:class:`ResultVerifier` performs the diff with a configurable relative
tolerance (per-packet UDP loss legitimately drops a data point or
two); :class:`FaultRepairLoop` drives detection -> controller resync.
The loop can also *reconcile* — overwrite the drifted aggregate with
the web-server-side re-computation — and *self-schedule* on a
simulator so the detect -> repair cycle runs periodically with no
manual ``check()`` calls (the ``repro.chaos`` harness drives it that
way).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.obs.registry import MetricsRegistry, get_registry

__all__ = ["Discrepancy", "ResultVerifier", "FaultRepairLoop"]


@dataclass(frozen=True)
class Discrepancy:
    """One aggregate cell that disagrees with ground truth."""

    statistic: str
    key: Any
    in_network: float
    ground_truth: float

    @property
    def relative_error(self) -> float:
        denom = max(abs(self.ground_truth), 1.0)
        return abs(self.in_network - self.ground_truth) / denom


class ResultVerifier:
    """Diffs the in-network aggregate against web-server-side truth."""

    def __init__(self, relative_tolerance: float = 0.01):
        if relative_tolerance < 0:
            raise ValueError("tolerance must be non-negative")
        self.relative_tolerance = relative_tolerance

    def diff(
        self,
        in_network: Dict[str, Dict[Any, Any]],
        ground_truth: Dict[str, Dict[Any, Any]],
    ) -> List[Discrepancy]:
        """Cells outside tolerance.

        The diff is symmetric over statistics *and* cell keys: a
        statistic or cell present on either side joins the comparison,
        with the missing side read as zero.  (Report cells with falsy
        values used to be excluded from the key union, and
        report-only statistics were skipped entirely — so a spurious
        in-network statistic, or a cell the switch reports as 0/None
        against a small non-zero truth, could slip through.)
        """
        out: List[Discrepancy] = []
        statistics = set(ground_truth) | set(in_network)
        for statistic in sorted(statistics):
            truth_cells = ground_truth.get(statistic, {})
            report_cells = in_network.get(statistic, {})
            keys = set(truth_cells) | set(report_cells)
            for key in keys:
                truth = float(truth_cells.get(key, 0) or 0)
                got_raw = report_cells.get(key, 0)
                got = float(got_raw if got_raw is not None else 0)
                denom = max(abs(truth), 1.0)
                if abs(got - truth) / denom > self.relative_tolerance:
                    out.append(
                        Discrepancy(
                            statistic=statistic,
                            key=key,
                            in_network=got,
                            ground_truth=truth,
                        )
                    )
        out.sort(key=lambda d: (-d.relative_error, d.statistic, repr(d.key)))
        return out

    def consistent(
        self,
        in_network: Dict[str, Dict[Any, Any]],
        ground_truth: Dict[str, Dict[Any, Any]],
    ) -> bool:
        return not self.diff(in_network, ground_truth)


@dataclass
class RepairRecord:
    application: str
    discrepancies: int
    devices_resynced: int
    at_ms: float = 0.0
    reconciled: bool = False


# reconciler(application_name, ground_truth) -> None
Reconciler = Callable[[str, Dict[str, Dict[Any, Any]]], None]


class FaultRepairLoop:
    """Detection -> report -> controller resync, as section 6 sketches.

    The developer calls :meth:`check` with the (delayed) ground truth;
    on any discrepancy the loop asks the controller to re-push the
    application's parameters to every device that lost them, and — when
    a ``reconciler`` is supplied — replaces the drifted aggregate with
    the re-computation on the complete web-server data.

    :meth:`schedule` closes the loop end-to-end: verification runs
    periodically on a simulator, so faults are detected and repaired
    with zero manual ``check()`` calls.
    """

    def __init__(self, controller, verifier: Optional[ResultVerifier] = None,
                 reconciler: Optional[Reconciler] = None,
                 registry: Optional[MetricsRegistry] = None,
                 tracer=None):
        self.controller = controller
        self.verifier = verifier or ResultVerifier()
        self.reconciler = reconciler
        self.history: List[RepairRecord] = []
        self.checks_run = 0
        self.tracer = tracer
        self.metrics = registry if registry is not None else get_registry()
        self._m_checks = self.metrics.counter("repair.checks")
        self._m_drift = self.metrics.counter("repair.drift_detected")
        self._m_discrepancies = self.metrics.counter("repair.discrepancies")
        self._m_resyncs = self.metrics.counter("repair.devices_resynced")
        self._m_reconciles = self.metrics.counter("repair.reconciles")
        # The open drift window: from the check that first saw the
        # aggregate diverge to the first clean check after repair.
        self._drift_span = None

    def check(
        self,
        application: str,
        in_network: Dict[str, Dict[Any, Any]],
        ground_truth: Dict[str, Dict[Any, Any]],
        at_ms: float = 0.0,
    ) -> List[Discrepancy]:
        """Diff and, if needed, trigger a resync (and reconcile).
        Returns the discrepancies that prompted the repair (empty when
        healthy)."""
        self.checks_run += 1
        self._m_checks.inc()
        discrepancies = self.verifier.diff(in_network, ground_truth)
        if discrepancies:
            self._m_drift.inc()
            self._m_discrepancies.inc(len(discrepancies))
            if self.tracer is not None and self._drift_span is None:
                self._drift_span = self.tracer.start(
                    "chaos.drift", application=application
                )
            resynced = self.controller.resync(application)
            self._m_resyncs.inc(resynced)
            reconciled = False
            if self.reconciler is not None:
                if self.tracer is not None:
                    with self.tracer.span(
                        "chaos.repair",
                        application=application,
                        discrepancies=len(discrepancies),
                        devices_resynced=resynced,
                    ):
                        self.reconciler(application, ground_truth)
                else:
                    self.reconciler(application, ground_truth)
                reconciled = True
                self._m_reconciles.inc()
            self.history.append(
                RepairRecord(
                    application=application,
                    discrepancies=len(discrepancies),
                    devices_resynced=resynced,
                    at_ms=at_ms,
                    reconciled=reconciled,
                )
            )
        elif self._drift_span is not None:
            # First clean check after a drift window: the repair held.
            self.tracer.finish(self._drift_span, checks=self.checks_run)
            self._drift_span = None
        return discrepancies

    def schedule(
        self,
        application: str,
        in_network_fn: Callable[[], Dict[str, Dict[Any, Any]]],
        ground_truth_fn: Callable[[], Dict[str, Dict[Any, Any]]],
        period_ms: float,
        start_ms: Optional[float] = None,
        until_ms: Optional[float] = None,
    ) -> None:
        """Self-scheduling verification: every ``period_ms`` the loop
        pulls the current in-network report and the (complete, delayed)
        ground truth and runs :meth:`check` — no manual driving.  It
        ticks on the controller's bus simulator, the one its resyncs
        ride, so a repair lands while the loop runs."""
        if period_ms <= 0:
            raise ValueError("verification period must be positive")
        sim = self.controller.bus.sim

        def tick() -> None:
            self.check(
                application, in_network_fn(), ground_truth_fn(),
                at_ms=sim.now,
            )

        sim.schedule_periodic(
            period_ms, tick, start_ms=start_ms, until_ms=until_ms
        )

"""Shared helpers for the reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper and
prints the rows/series the paper reports (run with ``-s`` to see them;
they are also attached as ``extra_info`` on the benchmark record).
Expensive discrete-event runs use ``benchmark.pedantic`` with a single
round so wall-clock stays reasonable.

The benches are collected with the test suite.  Without pytest-benchmark
installed, a pass-through ``benchmark`` fixture stands in for the
plugin's: it runs the function once, untimed, and keeps ``extra_info``.
"""

from typing import Any, Dict, Iterable, List, Sequence

import pytest

from repro.obs import MetricsRegistry, render_table


class _PassThrough:
    """The part of pytest-benchmark's fixture the benches use."""

    def __init__(self):
        self.extra_info: Dict[str, Any] = {}

    def __call__(self, function, *args, **kwargs):
        return function(*args, **kwargs)

    def pedantic(
        self, target, args=(), kwargs=None, setup=None, rounds=1,
        warmup_rounds=0, iterations=1,
    ):
        if setup is not None:
            made = setup()
            if made is not None:
                args, kwargs = made
        return target(*args, **(kwargs or {}))


try:
    import pytest_benchmark  # noqa: F401
except ImportError:
    @pytest.fixture
    def benchmark():
        return _PassThrough()


def emit_table(
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
) -> List[List[str]]:
    """Print a paper-style table; returns the stringified rows."""
    rendered = [[str(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rendered)) if rendered
        else len(headers[i])
        for i in range(len(headers))
    ]
    print("\n== %s ==" % title)
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    print("  ".join("-" * w for w in widths))
    for row in rendered:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return rendered


def attach(benchmark, **info: Any) -> None:
    """Record reproduction numbers on the benchmark for the JSON output."""
    for key, value in info.items():
        benchmark.extra_info[key] = value


def emit_metrics(
    benchmark, registry: MetricsRegistry, title: str = "metrics"
) -> List[Dict[str, Any]]:
    """Print a registry's metrics table next to the timing output and
    attach the full snapshot to the benchmark record, so every
    benchmark JSON carries the observability series of the run it
    timed."""
    print("\n== %s ==" % title)
    print(render_table(registry))
    snapshot = registry.snapshot()
    benchmark.extra_info["metrics"] = snapshot
    return snapshot

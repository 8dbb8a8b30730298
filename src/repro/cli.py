"""Command-line interface for the Snatch reproduction.

Subcommands mirror the evaluation:

* ``speedup``   — the analytic model (Eqs. 1-6) at a chosen operating
  point (``--d-wa``, ``--t-a``, ``--interval``);
* ``breakdown`` — the Figure-1 time-cost breakdown;
* ``testbed``   — one end-to-end DES run (scheme, INSA, rate, ...);
* ``measure``   — the synthetic measurement campaign summary;
* ``table1``    — DStream methods vs INSA support (classified, not
  executed);
* ``carriers``  — the Appendix-B.2 transport-carrier comparison;
* ``metrics``   — run a chaos workload and dump the observability
  layer's metrics (text table and/or JSON-lines).

Usage: ``python -m repro.cli testbed --scheme trans-1rtt --insa``

Each handler imports what it runs: building the parser (``--help``)
loads nothing of ``repro``, and the model-only subcommands load neither
numpy nor the testbed.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

__all__ = ["main", "build_parser"]


def _print_rows(headers: Sequence[str], rows, out) -> None:
    rendered = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rendered))
        if rendered else len(headers[i])
        for i in range(len(headers))
    ]
    out.write("  ".join(h.ljust(w) for h, w in zip(headers, widths)) + "\n")
    out.write("  ".join("-" * w for w in widths) + "\n")
    for row in rendered:
        out.write("  ".join(c.ljust(w) for c, w in zip(row, widths)) + "\n")


def _cmd_speedup(args, out) -> int:
    from repro.model.params import interpolated_scenario, median_scenario
    from repro.model.periodical import periodical_speedup
    from repro.model.speedup import Protocol, speedup_table

    if args.d_wa is not None:
        params = interpolated_scenario(args.d_wa, t_analytics=args.t_a)
    else:
        params = median_scenario(t_analytics=args.t_a)
    rows = speedup_table(params)
    if args.interval is not None:
        for row in rows:
            protocol = next(
                p for p in Protocol if p.value == row["protocol"]
            )
            row["speedup"] = round(
                periodical_speedup(
                    params, protocol, args.interval, insa=row["insa"]
                ),
                2,
            )
        out.write("periodical forwarding, interval %.0f ms\n" % args.interval)
    _print_rows(
        ["protocol", "INSA", "baseline ms", "snatch ms", "speedup"],
        [
            [r["protocol"], "yes" if r["insa"] else "no",
             r["baseline_ms"], r["snatch_ms"], "%.2fx" % r["speedup"]]
            for r in rows
        ],
        out,
    )
    return 0


def _cmd_breakdown(args, out) -> int:
    from repro.model.breakdown import (
        app_insa_breakdown,
        baseline_breakdown,
        trans_insa_breakdown,
    )

    for breakdown in (
        baseline_breakdown(),
        app_insa_breakdown(),
        trans_insa_breakdown(),
    ):
        out.write("\n[%s] total %.1f ms\n" % (breakdown.name, breakdown.total_ms))
        _print_rows(["step", "ms"], breakdown.rows(), out)
    return 0


# The values of ``repro.testbed.config.Scheme``, spelled out because
# importing the testbed to list them would put numpy behind ``--help``
# (tests/core/test_cli.py holds the two together).
_SCHEMES = ("app-https", "no-snatch", "trans-0rtt", "trans-1rtt")


def _cmd_testbed(args, out) -> int:
    from repro.testbed.config import Scheme, TestbedConfig
    from repro.testbed.experiment import TestbedExperiment

    config = TestbedConfig(
        scheme=Scheme(args.scheme),
        insa=args.insa,
        delay_percentile=args.percentile,
        requests_per_second=args.rps,
        duration_ms=args.duration_ms,
    )
    result = TestbedExperiment(config).run()
    out.write("scheme=%s insa=%s percentile=%.0f rate=%.0f req/s\n" % (
        args.scheme, args.insa, args.percentile, args.rps))
    out.write("requests completed: %d/%d\n" % (
        result.completed, len(result.records)))
    out.write("latency ms: median %.1f  mean %.1f  p95 %.1f\n" % (
        result.median_latency_ms,
        result.mean_latency_ms,
        result.percentile_latency_ms(95),
    ))
    if config.scheme is not Scheme.BASELINE:
        out.write("aggregation: %d packets, %.1f kbps, counts %s\n" % (
            result.aggregation_packets,
            result.bandwidth_kbps,
            "exact" if result.counts_match_reference() else "approximate",
        ))
    return 0


def _cmd_measure(args, out) -> int:
    from repro.measurement.study import MeasurementStudy

    result = MeasurementStudy(seed=args.seed).run(max_sites=args.sites)
    out.write("measured %d sites (%d discarded as non-residential)\n" % (
        len(result.measurements), result.discarded_sites))
    _print_rows(
        ["metric", "median ms"],
        [[k, "%.1f" % v] for k, v in sorted(result.summary().items())],
        out,
    )
    return 0


def _cmd_metrics(args, out) -> int:
    from repro.chaos.harness import ChaosHarness
    from repro.chaos.scenario import standard_outage
    from repro.obs.export import dump_jsonl

    harness = ChaosHarness(seed=args.seed, duration_ms=args.duration_ms)
    if args.scenario == "standard-outage":
        harness.apply(standard_outage())
    result = harness.run()
    out.write(
        "workload: chaos scenario=%s seed=%d duration=%.0f ms\n"
        % (args.scenario, args.seed, args.duration_ms)
    )
    out.write(
        "events=%d fallback=%d reports=%d lost=%d held=%d repairs=%d "
        "consistent=%s\n\n"
        % (
            result.events_total,
            result.fallback_events,
            result.reports_sent,
            result.reports_lost,
            result.reports_held,
            len(result.repairs),
            "yes" if result.consistent else "no",
        )
    )
    out.write(harness.metrics_table() + "\n")
    if args.spans:
        out.write("\n" + harness.spans_table() + "\n")
    if args.json:
        written = dump_jsonl(args.json, harness.registry, harness.tracer)
        out.write("\nwrote %d records to %s\n" % (written, args.json))
    return 0


def _cmd_table1(args, out) -> int:
    from repro.core.insa import table1_rows

    _print_rows(["method", "INSA", "categories"], table1_rows(), out)
    return 0


def _cmd_carriers(args, out) -> int:
    from repro.core.alt_carriers import carrier_comparison

    _print_rows(
        ["carrier", "bits", "survives reconnect", "client change",
         "suitable", "reason"],
        [
            [p.name, p.cookie_bits, "yes" if p.survives_reconnect else "no",
             p.client_modification, "yes" if p.suitable_for_snatch else "no",
             p.reason]
            for p in carrier_comparison()
        ],
        out,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Snatch (EuroSys 2024) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("speedup", help="analytic speedup model")
    p.add_argument("--d-wa", type=float, default=None,
                   help="web->analytics delay in ms (default: medians)")
    p.add_argument("--t-a", type=float, default=500.0,
                   help="analytics time cost in ms")
    p.add_argument("--interval", type=float, default=None,
                   help="periodical forwarding interval in ms")
    p.set_defaults(func=_cmd_speedup)

    p = sub.add_parser("breakdown", help="Figure-1 time-cost breakdown")
    p.set_defaults(func=_cmd_breakdown)

    p = sub.add_parser("testbed", help="one end-to-end experiment")
    p.add_argument("--scheme", choices=_SCHEMES,
                   default="trans-1rtt")
    p.add_argument("--insa", action="store_true")
    p.add_argument("--percentile", type=float, default=50.0)
    p.add_argument("--rps", type=float, default=10.0)
    p.add_argument("--duration-ms", type=float, default=4000.0)
    p.set_defaults(func=_cmd_testbed)

    p = sub.add_parser("measure", help="synthetic measurement campaign")
    p.add_argument("--sites", type=int, default=400)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser(
        "metrics",
        help="run a workload and dump the observability metrics",
    )
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--duration-ms", type=float, default=1000.0)
    p.add_argument("--scenario", choices=["standard-outage", "none"],
                   default="standard-outage")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also write a JSON-lines dump to PATH")
    p.add_argument("--spans", action="store_true",
                   help="also print the sim-time span table")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser(
        "table1",
        help="DStream methods vs INSA support (classified, not executed)",
    )
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("carriers", help="transport-carrier comparison")
    p.set_defaults(func=_cmd_carriers)

    return parser


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    return args.func(args, out)


if __name__ == "__main__":
    sys.exit(main())

"""Fault tolerance, end to end: inject -> degrade -> detect -> repair.

One scripted chaos scenario runs against a self-healing Snatch
deployment on the discrete-event simulator (paper section 6 plus the
section 3.3 incremental-deployment fallback):

* **inject** — ``standard_outage()``: 5 % loss on the lark -> agg hop
  that carries the periodical UDP reports (its seeded fault process,
  ``repro.net.hop.Hop``, draws once per report), a LarkSwitch crash at
  t=450 ms (all register state lost), and one deliberately dropped
  controller RPC during recovery;
* **degrade** — while the switch is down, traffic falls back to
  application-layer cookie processing at the edge server, and the
  un-flushed partial period dies with the switch;
* **detect** — a self-scheduled verification loop periodically diffs
  the in-network aggregate against the complete web-server-side ground
  truth (zero manual ``check()`` calls);
* **repair** — the controller resyncs lost parameters over the
  retrying RPC bus (the dropped push is retried until acked), the
  restarted switch re-enrolls, and the drifted aggregate is reconciled
  from the web-server data.

The whole run derives from one seed: same seed, same fingerprint.

Run:  python examples/fault_tolerance.py
"""

from repro.chaos import ChaosHarness, standard_outage

# Seed chosen so the 5 % report loss actually claims a report in this
# short run (the crash and RPC drop fire at any seed).
SEED = 9


def run(seed: int):
    harness = ChaosHarness(seed=seed)
    harness.apply(standard_outage())
    return harness, harness.run()


def main() -> None:
    print("== inject: standard outage (crash + report loss + lost RPC) ==")
    harness, result = run(SEED)

    print("traffic: %d events, %d served by the app-layer fallback "
          "while the LarkSwitch was down"
          % (result.events_total, result.fallback_events))
    print("reports: %d sent over UDP, %d lost, %d duplicated"
          % (result.reports_sent, result.reports_lost,
             result.reports_duplicated))
    for (src, dst), link in harness.links.items():
        c = link.hop.counts()
        print("  hop %s -> %s: %d arrived - %d dropped + %d duplicated"
              " = %d delivered + %d held"
              % (src, dst, c["arrived"], c["dropped"], c["duplicated"],
                 c["delivered"], c["held"]))

    print("\n== degrade / recover: device lifecycle ==")
    for at_ms, device, kind, detail in result.lifecycle:
        extra = " (%d application(s) re-pushed)" % detail \
            if kind == "reenroll" else ""
        print("  t=%6.1f ms  %-5s %s%s" % (at_ms, device, kind, extra))
    print("control plane: %d retried attempt(s), %d terminal failure(s)"
          % (result.rpc_retries, result.rpc_failures))

    print("\n== detect + repair: self-scheduled verification ==")
    print("%d checks ran; %d found drift:" %
          (result.checks_run, len(result.repairs)))
    for at_ms, discrepancies, resynced, reconciled in result.repairs:
        print("  t=%6.1f ms  %d discrepant cell(s), %d device(s) "
              "resynced, reconciled=%s"
              % (at_ms, discrepancies, resynced, reconciled))

    print("\n== outcome ==")
    print("final in-network counts:", result.final_report["by_region"])
    print("web-server ground truth:", result.ground_truth["by_region"])
    print("consistent:", result.consistent)

    _harness, again = run(SEED)
    print("\ndeterministic: rerun fingerprint matches =",
          again.fingerprint() == result.fingerprint())


if __name__ == "__main__":
    main()

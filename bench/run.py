"""The repo's benchmark: one command, every metric by name and unit.

    python3 bench/run.py --workload ad-cold --seed 42 --seconds 20 --trace 0
    python3 bench/run.py --seed 42            # all workloads -> a ledger
    python3 bench/run.py --manifest           # render BENCHMARK.json

One invocation measures one workload.  It works out the ground truth
from the seed (``truth.prepare``), then starts ``rep.py`` repetitions
one after another, each a fresh process running a fixed event count,
until the ``--seconds`` budget is used, and reports the **median** over
repetitions.  ``--trace 0`` reports the end-to-end metrics from
untraced repetitions only; ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics (and the tracing overhead
between the two).  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

Load model: closed loop, one driver process, pull-based.  Worker
processes belong to the system under test, at most ``min(2, nproc)``.

No process outlives an invocation: ``run.py`` makes itself the reaper
of its orphaned descendants (a repetition's ``multiprocessing``
resource tracker ends only after the repetition has) and waits for
every one of them after each repetition and on every path out.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
sys.path.insert(0, SRC)

from metrics import END_TO_END, EXACT_COUNTS, PER_LAYER  # noqa: E402
from truth import prepare  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

RUN_SECONDS = 20
REP_TIMEOUT_S = 45.0
# How long an orphaned descendant gets to end by itself before it is
# killed.
ORPHAN_GRACE_S = 10.0
PR_SET_CHILD_SUBREAPER = 36
SHM_DIR = "/dev/shm"
# The reference kernel's time (rep.host_speed_sample) on the reference
# host, i.e. the recorded host on a quiet stretch.  The end-to-end
# timings are reported as this host would have read them: the shared VM
# the benchmark runs on speeds up and slows down by 20 % over minutes,
# which no median over one invocation removes (README, "Noise").
HOST_REFERENCE_S = 0.0650
# Reports that must be byte-identical: same stream, different batch
# shape / process tier.
SAME_REPORT = ("ad-cold", "ad-cold-b32", "ad-cold-persistent")


def manifest() -> Dict[str, Any]:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.why} for w in WORKLOADS.values()
        ],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }


def adopt_orphans() -> None:
    """Make this process the parent of every descendant whose own
    parent exits (Linux ``PR_SET_CHILD_SUBREAPER``), so that
    ``reap_orphans`` can wait for them instead of leaving them to
    init."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _children() -> List[int]:
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def reap_orphans(grace_s: float = ORPHAN_GRACE_S) -> None:
    """Wait until this process has no child left, killing what has not
    ended by itself after ``grace_s``.  Only called between
    subprocesses, so it steals no exit status from ``subprocess``."""
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.002)


def _shm_segments() -> set:
    """Python's own shared-memory segments (``psm_`` names)."""
    try:
        return {n for n in os.listdir(SHM_DIR) if n.startswith("psm_")}
    except OSError:
        return set()


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return env


def _output_of(command: List[str]) -> str:
    try:
        return subprocess.run(
            command,
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=60,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""
    finally:
        reap_orphans()


@functools.lru_cache(maxsize=None)
def host_envelope() -> Dict[str, Any]:
    """Probed by ``host.py`` in a process of its own; empty when that
    process could not even import numpy."""
    probed = _output_of([sys.executable, os.path.join(BENCH_DIR, "host.py")])
    envelope = json.loads(probed) if probed else {}
    envelope["git_rev"] = _output_of(["git", "rev-parse", "HEAD"]) or "unknown"
    return envelope


def refuse_unless_runnable() -> Optional[str]:
    """The benchmark measures the vectorized kernels and the ring
    workers; on a host without them it would silently time the batch
    fallback, so it refuses instead."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        return "the program under test is not at %s" % SRC
    host = host_envelope()
    if not host.get("numpy_enabled"):
        return "numpy kernels are gated off (numpy missing or REPRO_NO_NUMPY)"
    if not host.get("shared_memory_available"):
        return "POSIX shared memory is unavailable; ring workers cannot run"
    path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(path):
        with open(path) as handle:
            if json.load(handle) != manifest():
                return (
                    "BENCHMARK.json disagrees with bench/workloads.py / "
                    "bench/metrics.py; regenerate it with --manifest"
                )
    return None


def run_rep(
    spec: Workload,
    seed: int,
    traced: bool,
    truth: Dict[str, Any],
    packets_path: Optional[str],
) -> Dict[str, Any]:
    """One repetition in a fresh process (its own session, so a
    timeout can take its ring workers down with it)."""
    command = [
        sys.executable,
        os.path.join(BENCH_DIR, "rep.py"),
        "--workload", spec.name,
        "--seed", str(seed),
        "--trace", "1" if traced else "0",
        "--expect-events", str(truth["events"]),
        "--expect-digest", truth["digest"],
    ]
    if packets_path is not None:
        command += ["--packets", packets_path]
    shm_before = _shm_segments()
    command += ["--spawned-at", repr(time.time())]
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
        start_new_session=True,
    )
    timed_out = False
    try:
        stdout, stderr = process.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        timed_out = True
    finally:
        # Still running, crashed or interrupted: its session goes with
        # it.  Then wait for whatever it orphaned (its resource
        # tracker), so nothing runs beside the next repetition.
        if process.returncode != 0:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if process.returncode is None:
            stdout, stderr = process.communicate()
        reap_orphans()
        if process.returncode != 0:
            # Its resource tracker died with it: unlink in its place.
            for name in _shm_segments() - shm_before:
                try:
                    os.unlink(os.path.join(SHM_DIR, name))
                except OSError:
                    pass
    if timed_out:
        return {"problems": ["repetition timed out"], "crashed": True}
    if process.returncode != 0:
        return {
            "problems": [
                "repetition exited %d: %s"
                % (process.returncode, stderr.strip()[-500:])
            ],
            "crashed": True,
        }
    rep = json.loads(stdout.strip().splitlines()[-1])
    rep["traced"] = traced
    return rep


def _summary(values: List[float], unit: str) -> Dict[str, Any]:
    return {
        "value": statistics.median(values),
        "unit": unit,
        "min": min(values),
        "max": max(values),
        "values": values,
    }


def measure(
    spec: Workload, seed: int, seconds: float, trace: int
) -> Dict[str, Any]:
    """One benchmark invocation: prep, repetitions, medians."""
    packets_path = None
    if spec.kind == "executor":
        packets_path = os.path.join(
            OUT_DIR, "packets-%s-%d-%d.npy" % (spec.name, seed, os.getpid())
        )
    try:
        truth = prepare(spec, seed, packets_path)
        reps: List[Dict[str, Any]] = []
        spent = longest = 0.0
        min_reps = 4 if trace else 3
        while len(reps) < min_reps or spent + longest <= seconds:
            started = time.perf_counter()
            reps.append(
                run_rep(
                    spec, seed, bool(trace and len(reps) % 2), truth,
                    packets_path,
                )
            )
            took = time.perf_counter() - started
            spent += took
            longest = max(longest, took)
    finally:
        if packets_path is not None and os.path.exists(packets_path):
            os.remove(packets_path)

    problems = [p for rep in reps for p in rep["problems"]]
    done = [rep for rep in reps if not rep.get("crashed")]
    attempted = truth["events"] * len(reps)
    failed = truth["events"] * (len(reps) - len(done)) + sum(
        rep["failed"] for rep in done
    )
    untraced = [rep for rep in done if not rep["traced"]]
    traced = [rep for rep in done if rep["traced"]]
    out: Dict[str, Any] = {
        "workload": spec.name,
        "events_per_rep": truth["events"],
        "digest": truth["digest"],
        "prep_s": truth["prep_s"],
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {},
    }
    if not untraced or (trace and not traced):
        problems.append("no repetition completed")
        return out

    def rate(rep: Dict[str, Any]) -> float:
        return rep["counts"]["events"] / rep["wall_s"]

    if not trace:
        # How much slower than the reference host this one was: around
        # the timed region (mean of the samples before and after it),
        # and at the end of set-up (the sample before).
        slow_run = [
            statistics.mean(rep["host_s"]) / HOST_REFERENCE_S
            for rep in untraced
        ]
        slow_setup = [
            rep["host_s"][0] / HOST_REFERENCE_S for rep in untraced
        ]
        raw = {
            "events_per_s": [rate(rep) for rep in untraced],
            "cpu_s_per_mevent": [
                rep["cpu_s"] * 1e6 / rep["counts"]["events"]
                for rep in untraced
            ],
            "setup_s": [rep["setup_s"] for rep in untraced],
        }
        per_rep = {
            "events_per_s": [
                v * slow for v, slow in zip(raw["events_per_s"], slow_run)
            ],
            "cpu_s_per_mevent": [
                v / slow for v, slow in zip(raw["cpu_s_per_mevent"], slow_run)
            ],
            "peak_rss_mb": [rep["peak_rss_mb"] for rep in untraced],
            "setup_s": [
                v / slow for v, slow in zip(raw["setup_s"], slow_setup)
            ],
        }
        for name, unit, _better, _bound in END_TO_END:
            out["metrics"][name] = _summary(per_rep[name], unit)
        out["as_clocked"] = {
            name: statistics.median(values) for name, values in raw.items()
        }
        out["as_clocked"]["host_slowdown"] = statistics.median(slow_run)
        return out

    layers = [rep["layers"] for rep in traced]
    mismatched = [
        name
        for name in EXACT_COUNTS
        if len({layer[name] for layer in layers}) > 1
    ]
    if mismatched:
        problems.append(
            "traced repetitions disagree on %s" % ", ".join(mismatched)
        )
        out["failed"] = attempted
    # Repetitions alternate untraced / traced, so each traced one is
    # judged against its neighbour in time and host drift cancels.
    overheads = [
        (1.0 - rate(with_trace) / rate(without)) * 100.0
        for without, with_trace in zip(untraced, traced)
    ]
    for name, unit, _better in PER_LAYER:
        out["metrics"][name] = _summary(
            overheads
            if name == "trace.overhead_pct"
            else [layer[name] for layer in layers],
            unit,
        )
    write_trace(spec, seed, reps)
    return out


def write_trace(
    spec: Workload, seed: int, reps: List[Dict[str, Any]]
) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(
        os.path.join(OUT_DIR, "trace-%s.json" % spec.name), "w"
    ) as handle:
        json.dump(
            {
                "host": host_envelope(),
                "workload": spec.name,
                "seed": seed,
                "span_fields": ["name", "start_ns", "end_ns", "parent"],
                "reps": [
                    {
                        "rep": index,
                        "layers": rep["layers"],
                        "span_mark": rep["span_mark"],
                        "spans": rep["spans"],
                    }
                    for index, rep in enumerate(reps)
                    if rep.get("traced")
                ],
            },
            handle,
        )


def show(result: Dict[str, Any]) -> None:
    for name, metric in result["metrics"].items():
        print(
            "%-20s %-36s %16.6f %-6s min %.6f max %.6f (%d reps)"
            % (
                result["workload"], name, metric["value"], metric["unit"],
                metric["min"], metric["max"], len(metric["values"]),
            )
        )
    for name, value in result.get("as_clocked", {}).items():
        print(
            "%-20s %-36s %16.6f (as clocked)"
            % (result["workload"], name, value)
        )
    print(
        "%-20s %-36s %16.6f %-6s (%d failed of %d attempted)"
        % (
            result["workload"], "failed_share",
            result["failed"] / result["attempted"], "ratio",
            result["failed"], result["attempted"],
        )
    )
    for problem in result["problems"]:
        print("%-20s PROBLEM %s" % (result["workload"], problem))


def run_ledger(seed: int, seconds: float, out_path: str) -> int:
    """Every workload, untraced then traced, into one ledger file that
    ``compare.py`` reads."""
    started = time.perf_counter()
    ledger: Dict[str, Any] = {
        "host": host_envelope(),
        "seed": seed,
        "seconds": seconds,
        "workloads": {},
    }
    ok = True
    for spec in WORKLOADS.values():
        plain = measure(spec, seed, seconds, 0)
        traced = measure(spec, seed, seconds, 1)
        for result in (plain, traced):
            show(result)
            ok = ok and not result["failed"] and bool(result["metrics"])
        ledger["workloads"][spec.name] = {
            "why": spec.why,
            "events_per_rep": plain["events_per_rep"],
            "digest": plain["digest"],
            "prep_s": plain["prep_s"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "problems": plain["problems"] + traced["problems"],
            "end_to_end": plain["metrics"],
            "as_clocked": plain.get("as_clocked", {}),
            "per_layer": traced["metrics"],
        }
    digests = {ledger["workloads"][name]["digest"] for name in SAME_REPORT}
    if len(digests) != 1:
        print("PROBLEM reports of %s differ" % (SAME_REPORT,))
        ok = False
    ledger["wall_s"] = time.perf_counter() - started
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "w") as handle:
        json.dump(ledger, handle, indent=1, sort_keys=True)
    print("# host %s" % json.dumps(ledger["host"], sort_keys=True))
    print("# wrote %s in %.1f s" % (out_path, ledger["wall_s"]))
    return 0 if ok else 1


def _terminated(signum: int, _frame: Any) -> None:
    # Leave through the ``finally`` blocks, which stop every process.
    raise SystemExit(128 + signum)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="ledger path (all-workloads mode)")
    parser.add_argument(
        "--manifest", action="store_true", help="print BENCHMARK.json"
    )
    args = parser.parse_args(argv)
    if args.manifest:
        print(json.dumps(manifest(), indent=2))
        return 0
    signal.signal(signal.SIGTERM, _terminated)
    adopt_orphans()
    try:
        return measure_and_print(args)
    finally:
        reap_orphans()


def measure_and_print(args: argparse.Namespace) -> int:
    refusal = refuse_unless_runnable()
    if refusal is not None:
        print("bench/run.py refuses to run: %s" % refusal, file=sys.stderr)
        return 2
    if args.workload is None:
        return run_ledger(
            args.seed,
            args.seconds,
            args.out
            or os.path.join(OUT_DIR, "ledger-seed%d.json" % args.seed),
        )
    result = measure(
        WORKLOADS[args.workload], args.seed, args.seconds, args.trace
    )
    show(result)
    print("# host %s" % json.dumps(host_envelope(), sort_keys=True))
    if not result["metrics"]:
        return 1
    print(
        json.dumps(
            {
                "correct": not result["failed"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()
                },
            }
        )
    )
    return 0 if not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

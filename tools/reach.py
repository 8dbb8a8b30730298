"""Reachability audit: the lines of ``src/repro`` that no caller runs.

    python3 tools/reach.py

Runs every caller the reproduction serves — the examples, the paper
benches, the CLI subcommands, the public-API test and every ledger
workload, traced — with a line recorder in each Python process they
start, then prints one table: per module of ``src/repro``, its lines,
its executable lines and the executable lines none of those processes
ever ran; under the table, each module's missed line ranges.

A module's executable lines are the line numbers of its code objects'
``co_lines()``: the lines a line tracer can report.  The recorder is a
``sys.settrace`` hook installed by a temporary ``sitecustomize`` on
``PYTHONPATH``, so processes started by a caller (bench repetitions,
spawned ring workers) record too; a forked ring worker inherits the
hook and appends to its parent's file.  Each line is appended the
first time it runs, so a worker that is killed instead of exiting
still counts, and a code object stops being traced once every one of
its lines has run.  The paper benches run with
``--benchmark-disable``: pytest-benchmark's instrumentation pause
clears the tracer inside timed calls.

Everything runs in a temporary copy of the checkout and the copy is
deleted afterwards: nothing is written inside the repository.  Stdlib
only; the ledger leg makes a run take several minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from types import CodeType
from typing import Dict, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "bench", "benchmarks", "examples", "tests",
          "BENCHMARK.json", "pyproject.toml")
LEDGER_SECONDS = "1"
CLI_INVOCATIONS = (
    ["--help"],
    ["speedup"],
    ["speedup", "--d-wa", "40", "--interval", "100"],
    ["breakdown"],
    ["testbed"],
    ["testbed", "--insa"],
    ["testbed", "--scheme", "no-snatch"],
    ["testbed", "--scheme", "app-https", "--insa"],
    ["testbed", "--scheme", "trans-0rtt", "--insa"],
    ["measure", "--sites", "60"],
    ["metrics"],
    ["metrics", "--scenario", "none", "--spans", "--json", "metrics.jsonl"],
    ["table1"],
    ["carriers"],
)

SITECUSTOMIZE = '''\
import os
import sys
import threading

_PREFIX = os.environ["REACH_SRC"]
_OUT = open(
    os.path.join(os.environ["REACH_OUT"], "%d.txt" % os.getpid()),
    "a",
    buffering=1,
)
# Per code object, its lines not yet recorded (empty outside _PREFIX).
_PENDING = {}


def _line(frame, event, arg):
    if event == "line":
        code = frame.f_code
        pending = _PENDING[code]
        if frame.f_lineno in pending:
            pending.discard(frame.f_lineno)
            _OUT.write("%s\\t%d\\n" % (code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    code = frame.f_code
    if code not in _PENDING:
        pending = _PENDING[code] = set()
        if code.co_filename.startswith(_PREFIX):
            pending.update(line for _, _, line in code.co_lines() if line)
            # A function's or class body's first line runs in the code
            # that defines it; its own frame reports no event for it.
            if code.co_name != "<module>":
                pending.discard(code.co_firstlineno)
    return _line if _PENDING[code] else None


sys.settrace(_call)
threading.settrace(_call)
'''


def entry_points(work: str) -> List[Tuple[str, List[str]]]:
    """(label, argv) of every caller, run with ``work`` as the cwd."""
    python = sys.executable
    commands = [
        ("examples/" + name, [python, os.path.join("examples", name)])
        for name in sorted(os.listdir(os.path.join(work, "examples")))
        if name.endswith(".py")
    ]
    commands.append((
        "paper benches",
        [python, "-m", "pytest", "benchmarks", "-q", "--benchmark-disable",
         "-p", "no:cacheprovider"],
    ))
    commands += [
        ("cli " + " ".join(args), [python, "-m", "repro.cli", *args])
        for args in CLI_INVOCATIONS
    ]
    commands.append((
        "public API",
        [python, "-m", "pytest", "tests/test_public_api.py", "-q",
         "-p", "no:cacheprovider"],
    ))
    with open(os.path.join(work, "BENCHMARK.json")) as handle:
        workloads = [w["name"] for w in json.load(handle)["workloads"]]
    commands += [
        ("ledger " + name,
         [python, "bench/run.py", "--workload", name, "--seed", "42",
          "--seconds", LEDGER_SECONDS, "--trace", "1"])
        for name in workloads
    ]
    return commands


def recorder_env(work: str) -> Tuple[Dict[str, str], str]:
    """Install the recorder under ``work``: the environment that runs a
    process under it (``work/src`` first on the path) and the directory
    its records land in."""
    site = os.path.join(work, "_reach_site")
    out = os.path.join(work, "_reach_out")
    os.makedirs(site)
    os.makedirs(out)
    with open(os.path.join(site, "sitecustomize.py"), "w") as handle:
        handle.write(SITECUSTOMIZE)
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join([site, os.path.join(work, "src"), work]),
        PYTHONDONTWRITEBYTECODE="1",
        REACH_SRC=os.path.join(work, "src") + os.sep,
        REACH_OUT=out,
    )
    return env, out


def read_records(out: str, src: str) -> Dict[str, Set[int]]:
    """The lines run, per module path relative to ``src``."""
    prefix = os.path.join(src, "")
    ran: Dict[str, Set[int]] = {}
    for name in os.listdir(out):
        with open(os.path.join(out, name)) as handle:
            for line in handle:
                path, number = line.rstrip("\n").split("\t")
                ran.setdefault(path[len(prefix):], set()).add(int(number))
    return ran


def record(work: str) -> Dict[str, Set[int]]:
    """Run every entry point under the recorder; the lines run."""
    env, out = recorder_env(work)
    for label, argv in entry_points(work):
        done = subprocess.run(
            argv, cwd=work, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        status = "ok" if done.returncode == 0 else "exit %d" % done.returncode
        print("ran %-48s %s" % (label, status), file=sys.stderr)
        if done.returncode != 0:
            print(done.stdout.strip()[-600:], file=sys.stderr)
    return read_records(out, os.path.join(work, "src"))


def executable_lines(path: str) -> Set[int]:
    """The lines of a module's code objects (``co_lines``): what a line
    tracer reports as the module runs."""
    with open(path) as handle:
        pending = [compile(handle.read(), path, "exec")]
    lines: Set[int] = set()
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        pending.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def missed_ranges(
    executable: Set[int], ran: Set[int]
) -> List[Tuple[int, int]]:
    """The missed executable lines as ``(first, last)`` runs; a run
    ends at an executable line that ran."""
    runs: List[Tuple[int, int]] = []
    extend = False
    for line in sorted(executable):
        if line in ran:
            extend = False
        elif extend:
            runs[-1] = (runs[-1][0], line)
        else:
            runs.append((line, line))
            extend = True
    return runs


def report(ran: Dict[str, Set[int]], src: str) -> None:
    rows: Dict[str, Tuple[int, int, int]] = {}
    ranges: Dict[str, List[Tuple[int, int]]] = {}
    for directory, _dirs, files in os.walk(os.path.join(src, "repro")):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                relative = os.path.relpath(path, src)
                with open(path) as handle:
                    total = handle.read().count("\n")
                executable = executable_lines(path)
                lines_ran = ran.get(relative, set())
                rows[relative] = (
                    total, len(executable), len(executable - lines_ran)
                )
                ranges[relative] = missed_ranges(executable, lines_ran)
    order = sorted(rows, key=lambda relative: (-rows[relative][2], relative))
    print("%-40s %7s %10s %7s" % ("module", "lines", "executable", "missed"))
    for relative in order:
        print("%-40s %7d %10d %7d" % ((relative,) + rows[relative]))
    print("%-40s %7d %10d %7d" % (
        ("total",) + tuple(map(sum, zip(*rows.values())))
    ))
    for relative in order:
        if ranges[relative]:
            print("\n%s:\n  %s" % (relative, ", ".join(
                str(first) if first == last else "%d-%d" % (first, last)
                for first, last in ranges[relative]
            )))


def main() -> int:
    work = tempfile.mkdtemp(prefix="reach-")
    try:
        for name in COPIED:
            source = os.path.join(ROOT, name)
            target = os.path.join(work, name)
            if os.path.isdir(source):
                shutil.copytree(source, target, ignore=shutil.ignore_patterns(
                    "__pycache__", "*.pyc", "out", ".hypothesis"))
            else:
                shutil.copy2(source, target)
        report(record(work), os.path.join(work, "src"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

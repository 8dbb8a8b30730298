"""Reachability audit: the lines of ``src/repro`` that no caller runs.

    python3 tools/reach.py

Runs every caller the reproduction serves — the examples, the paper
benches, the CLI subcommands, the public-API test and every ledger
workload, traced — with a function-level recorder in each Python
process they start, then prints one table: per module of ``src/repro``,
its lines and the lines that sit in functions none of those processes
ever entered.

The recorder is a ``sys.setprofile`` hook installed by a temporary
``sitecustomize`` on ``PYTHONPATH``, so processes started by a caller
(bench repetitions, spawned ring workers) record too; a forked ring
worker inherits the hook and appends to its parent's file.  Each newly
entered code object is appended as it goes, so a worker that is killed
instead of exiting still counts.  The paper benches run with
``--benchmark-disable``: pytest-benchmark's instrumentation pause
clears the profiler inside timed calls.

Everything runs in a temporary copy of the checkout and the copy is
deleted afterwards: nothing is written inside the repository.  Stdlib
only; the ledger leg makes a run take several minutes.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
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
_SEEN = set()


def _record(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code not in _SEEN:
            _SEEN.add(code)
            if code.co_filename.startswith(_PREFIX):
                _OUT.write("%s\\t%d\\n" % (code.co_filename, code.co_firstlineno))


sys.setprofile(_record)
threading.setprofile(_record)
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


def record(work: str) -> Set[Tuple[str, int]]:
    """Run every entry point under the recorder; the (module path
    relative to ``src``, first line) of every code object entered."""
    site = os.path.join(work, "_reach_site")
    out = os.path.join(work, "_reach_out")
    os.makedirs(site)
    os.makedirs(out)
    with open(os.path.join(site, "sitecustomize.py"), "w") as handle:
        handle.write(SITECUSTOMIZE)
    src = os.path.join(work, "src") + os.sep
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join([site, os.path.join(work, "src"), work]),
        PYTHONDONTWRITEBYTECODE="1",
        REACH_SRC=src,
        REACH_OUT=out,
    )
    for label, argv in entry_points(work):
        done = subprocess.run(
            argv, cwd=work, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        status = "ok" if done.returncode == 0 else "exit %d" % done.returncode
        print("ran %-48s %s" % (label, status), file=sys.stderr)
        if done.returncode != 0:
            print(done.stdout.strip()[-600:], file=sys.stderr)
    entered = set()
    for name in os.listdir(out):
        with open(os.path.join(out, name)) as handle:
            for line in handle:
                path, first = line.rstrip("\n").split("\t")
                entered.add((path[len(src):], int(first)))
    return entered


def unreached_lines(path: str, relative: str,
                    entered: Set[Tuple[str, int]]) -> Tuple[int, int]:
    """(lines, lines inside functions never entered) of one module."""
    with open(path) as handle:
        text = handle.read()
    lines: Set[int] = set()
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        # A decorated function's code starts at its first decorator.
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        if (relative, first) in entered or (relative, node.lineno) in entered:
            continue
        lines.update(range(first, node.end_lineno + 1))
    return text.count("\n"), len(lines)


def report(entered: Set[Tuple[str, int]], src: str) -> None:
    rows: Dict[str, Tuple[int, int]] = {}
    for directory, _dirs, files in os.walk(os.path.join(src, "repro")):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                relative = os.path.relpath(path, src)
                rows[relative] = unreached_lines(path, relative, entered)
    print("%-40s %7s %9s" % ("module", "lines", "unreached"))
    for relative, (total, unreached) in sorted(
        rows.items(), key=lambda item: (-item[1][1], item[0])
    ):
        print("%-40s %7d %9d" % (relative, total, unreached))
    print("%-40s %7d %9d" % (
        "total",
        sum(total for total, _ in rows.values()),
        sum(unreached for _, unreached in rows.values()),
    ))


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

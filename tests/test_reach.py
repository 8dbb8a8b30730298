"""The line counting of ``tools/reach.py`` on a toy module: the
recorder it installs runs one small process, none of the callers."""

import importlib.util
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TOY = '''\
"""Toy module for the line recorder."""


def branch(flag):
    if flag:
        return "yes"
    return "no"


def never():
    value = 1
    return value


def gen(n):
    for i in range(n):
        yield i


class Box:
    def __init__(self):
        self.items = [i * 2 for i in gen(3)]


def in_thread():
    return 3


if __name__ == "__main__":
    pass
'''

RUN = (
    "import threading, toy\n"
    "toy.branch(True)\n"
    "toy.Box()\n"
    "worker = threading.Thread(target=toy.in_thread)\n"
    "worker.start()\n"
    "worker.join()\n"
)


def _reach():
    spec = importlib.util.spec_from_file_location(
        "reach", os.path.join(ROOT, "tools", "reach.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_missed_lines_of_a_toy_module(tmp_path):
    reach = _reach()
    src = tmp_path / "src"
    src.mkdir()
    (src / "toy.py").write_text(TOY)
    env, out = reach.recorder_env(str(tmp_path))
    done = subprocess.run(
        [sys.executable, "-c", RUN], cwd=str(tmp_path), env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    assert done.returncode == 0, done.stdout
    executable = reach.executable_lines(str(src / "toy.py"))
    assert executable == {
        1, 4, 5, 6, 7, 10, 11, 12, 15, 16, 17, 20, 21, 22, 25, 26, 29, 30,
    }
    ran = reach.read_records(out, str(src))
    assert set(ran) == {"toy.py"}
    # The branch not taken, the function never called and the main
    # guard's body; the thread's function and the comprehension ran.
    assert executable - ran["toy.py"] == {7, 11, 12, 30}
    assert reach.missed_ranges(executable, ran["toy.py"]) == [
        (7, 7), (11, 12), (30, 30),
    ]


def test_missed_ranges_span_lines_that_are_not_executable():
    reach = _reach()
    assert reach.missed_ranges({1, 2, 3, 5, 6, 8}, {3}) == [(1, 2), (5, 8)]
    assert reach.missed_ranges({4, 9}, {4, 9}) == []
    assert reach.missed_ranges(set(), set()) == []

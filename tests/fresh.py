"""Run a probe in a fresh interpreter.

Import state (what ``sys.modules`` holds, what a ring worker loads) can
only be observed in a process that has not imported anything yet; the
pytest process has long since imported everything.
"""

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fresh_env():
    """The environment with ``src/`` and the repo root (for ``tests.*``
    fixtures) ahead of whatever ``PYTHONPATH`` already holds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO, "src"), REPO]
        + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return env


def fresh_interpreter(code, *argv):
    """Run ``code`` (``python -c``) in a new interpreter and return the
    JSON value on its last stdout line.  Spawned ring workers do not
    re-import a ``-c`` main, so probes may start worker fleets."""
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=fresh_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])

"""Every example runs to completion.

The examples are entry points in their own right — the README sends
readers to them — so each one runs in a fresh interpreter and must
exit 0.
"""

import os
import subprocess
import sys

import pytest

from tests.fresh import REPO, fresh_env

EXAMPLES = sorted(
    name
    for name in os.listdir(os.path.join(REPO, "examples"))
    if name.endswith(".py")
)


def test_examples_are_found():
    assert len(EXAMPLES) >= 10


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_exits_cleanly(name, tmp_path):
    done = subprocess.run(
        [sys.executable, os.path.join(REPO, "examples", name)],
        cwd=tmp_path,
        env=fresh_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]

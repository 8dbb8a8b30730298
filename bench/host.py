"""The host envelope, probed in a process of its own.

Probing shared memory creates a segment, and that starts this
interpreter's ``multiprocessing`` resource tracker, a child process that
lives until its parent has exited.  ``run.py`` must leave no process
behind, so it never probes in-process: it runs this script, waits for
it, and reaps the tracker it orphans.  Prints one JSON object.
"""

from __future__ import annotations

import json
import os
import platform
import sys


def envelope() -> dict:
    import numpy

    from repro.switch.columns import numpy_enabled
    from repro.testbed.shm_ring import shared_memory_available

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "shared_memory_available": shared_memory_available(),
        "numpy_enabled": numpy_enabled(),
    }


if __name__ == "__main__":
    print(json.dumps(envelope()))
    sys.exit(0)

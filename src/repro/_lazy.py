"""Lazy package exports: a package ``__init__`` declares, never imports.

Every ``repro`` package lists its public names once, as a table from
defining submodule to the names it contributes, and hands the table to
:func:`lazy_exports`.  A name is imported from its defining module on
first attribute access (PEP 562 module ``__getattr__``) and then bound
in the package like an ordinary import, so ``from repro.core import
LarkSwitch``, ``from repro.core import *``, ``dir(repro.core)`` and
``repro.core.larkswitch`` all behave as they would after eager imports
— but a process that only needs ``repro.testbed.worker`` no longer
pays for the simulator, the chaos harness and the measurement study on
the way in.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Dict, Iterable, List, Tuple


def lazy_exports(
    package: str, table: Dict[str, Iterable[str]]
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``table`` maps a submodule path relative to ``package``
    (``"larkswitch"``, ``"core.larkswitch"``) to the public names that
    module defines.  An attribute that is not in the table resolves as
    a submodule of that name if there is one.
    """
    origin = {
        name: "%s.%s" % (package, submodule)
        for submodule, names in table.items()
        for name in names
    }
    namespace = sys.modules[package]

    def __getattr__(name: str) -> Any:
        source = origin.get(name)
        if source is not None:
            value = getattr(import_module(source), name)
        else:
            missing = AttributeError(
                "module %r has no attribute %r" % (package, name)
            )
            if name.startswith("_"):
                raise missing
            submodule = "%s.%s" % (package, name)
            try:
                value = import_module(submodule)
            except ModuleNotFoundError as exc:
                if exc.name != submodule:
                    raise
                raise missing from None
        setattr(namespace, name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(namespace)) | set(origin))

    # The import system binds a submodule on its parent package when it
    # first loads, which would shadow an export of the same name
    # (``repro.model.speedup`` is both) for whoever asks second.  Bind
    # such a name now, over the submodule, as the eager import did.
    for name, source in origin.items():
        if source == "%s.%s" % (package, name):
            __getattr__(name)
    return sorted(origin), __getattr__, __dir__

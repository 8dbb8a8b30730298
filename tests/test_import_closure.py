"""Cold start pays only for what runs.

Package ``__init__`` files declare their exports and import nothing
(``repro._lazy``), so what a process loads is what it uses.  These
tests count modules and compare object identities — never wall-clock
time — and probe import state in fresh interpreters, because this
process has long since imported everything.
"""

import importlib
import inspect
import pickle
import pkgutil
import sys

import pytest

import repro
from tests.fresh import fresh_interpreter

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)
MODULES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
)


_LOADED = (
    "import json, sys\n"
    "import %s\n"
    "print(json.dumps(sorted(m for m in sys.modules"
    " if m == 'repro' or m.startswith('repro.'))))\n"
)


class TestImportClosure:
    def test_a_ring_worker_loads_only_the_shard_runtime(self):
        loaded = fresh_interpreter(_LOADED % "repro.testbed.worker")
        assert "repro.testbed.worker" in loaded
        assert len(loaded) <= 40, loaded
        for prefix in (
            "repro.net",
            "repro.streaming",
            "repro.measurement",
            "repro.model",
            "repro.chaos.harness",
            "repro.testbed.experiment",
        ):
            heavy = [
                m for m in loaded if m == prefix or m.startswith(prefix + ".")
            ]
            assert not heavy, heavy

    def test_import_repro_alone_loads_no_submodule(self):
        assert fresh_interpreter(_LOADED % "repro") == ["repro", "repro._lazy"]

    def test_every_module_imports_first(self):
        """Each module is imported into a ``sys.modules`` holding no
        other ``repro`` module: an import cycle that only resolved
        because some package ``__init__`` happened to import its
        submodules in a lucky order fails here."""
        code = (
            "import importlib, json, sys\n"
            "failed = {}\n"
            "for name in sys.argv[1:]:\n"
            "    for loaded in [m for m in sys.modules"
            " if m == 'repro' or m.startswith('repro.')]:\n"
            "        del sys.modules[loaded]\n"
            "    try:\n"
            "        importlib.import_module(name)\n"
            "    except Exception as exc:\n"
            "        failed[name] = repr(exc)\n"
            "print(json.dumps(failed))\n"
        )
        assert len(MODULES) >= 84
        assert fresh_interpreter(code, *MODULES) == {}


@pytest.mark.parametrize("package_name", PACKAGES)
class TestLazyExports:
    def test_names_are_the_defining_modules_objects(self, package_name):
        package = importlib.import_module(package_name)
        listed = dir(package)
        assert package.__all__
        for name in package.__all__:
            value = getattr(package, name)
            assert name in listed
            if name == "__version__":
                continue
            # Some module below the package binds this very object
            # under this name; a class or function says which.
            holders = [
                module_name
                for module_name, module in list(sys.modules.items())
                if module_name.startswith(package_name + ".")
                and not hasattr(module, "__path__")
                and vars(module).get(name) is value
            ]
            assert holders, (package_name, name)
            if isinstance(value, type) or inspect.isfunction(value):
                assert value.__module__ in holders, (package_name, name)

    def test_unknown_name_raises_attribute_error(self, package_name):
        package = importlib.import_module(package_name)
        with pytest.raises(AttributeError):
            package.no_such_export
        with pytest.raises(AttributeError):
            package._no_such_private
        assert not hasattr(package, "no_such_export")
        with pytest.raises(ImportError):
            exec("from %s import no_such_export" % package_name, {})

    def test_star_import_binds_exactly_all(self, package_name):
        package = importlib.import_module(package_name)
        namespace = {}
        exec("from %s import *" % package_name, namespace)
        namespace.pop("__builtins__")
        assert sorted(namespace) == sorted(package.__all__)
        for name, value in namespace.items():
            assert getattr(package, name) is value


class TestSurfaceKeepsWorking:
    def test_submodule_is_an_attribute_without_importing_it(self):
        loaded = fresh_interpreter(
            "import json\n"
            "import repro\n"
            "module = repro.core.larkswitch\n"
            "import repro.core.larkswitch as same\n"
            "from repro import LarkSwitch\n"
            "print(json.dumps([module is same,"
            " module.LarkSwitch is LarkSwitch,"
            " repro.core.LarkSwitch is LarkSwitch]))\n"
        )
        assert loaded == [True, True, True]

    def test_export_named_like_its_module_wins_in_either_order(self):
        """``repro.model.speedup`` is a function *and* the submodule
        defining it; the function must win whether or not the submodule
        was imported first."""
        for first in (
            "import repro.model.speedup",
            "from repro.model import Protocol",
            "import repro.model",
        ):
            kinds = fresh_interpreter(
                "import json\n"
                "%s\n"
                "import repro, repro.model\n"
                "from repro.model import speedup\n"
                "print(json.dumps([callable(speedup),"
                " callable(repro.model.speedup),"
                " repro.speedup is speedup]))\n" % first
            )
            assert kinds == [True, True, True], first

    def test_shard_spec_pickles_by_defining_module(self):
        from repro.testbed.executor import ShardSpec
        from repro.workloads import AdCampaignWorkload

        workload = AdCampaignWorkload(num_users=10, seed=3)
        spec = ShardSpec(
            kind="lark",
            app_id=7,
            schema=workload.schema(),
            key=bytes(16),
            specs=tuple(workload.specs()),
        )
        blob = pickle.dumps(spec)
        assert b"repro.testbed.executor" in blob
        assert pickle.loads(blob) == spec
        for exported in (repro.LarkSwitch, repro.StatSpec, repro.Scheme):
            assert pickle.loads(pickle.dumps(exported)) is exported

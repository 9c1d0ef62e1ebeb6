"""The package surface and the modules each entry point loads.

``import tdlcinv`` resolves its names lazily (PEP 562) and each CLI handler
imports its own modules, so these tests pin what gets loaded.  The
footprint tests run in fresh interpreters, because this test process has
already imported every module.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tdlcinv

SRC = Path(__file__).resolve().parent.parent / "src"


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60, check=False
    )


LOADED = "import sys; print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'tdlcinv')))"


def test_importing_the_cli_loads_no_library_module():
    result = _python("-c", "import tdlcinv.cli; " + LOADED)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["tdlcinv", "tdlcinv.cli", "tdlcinv.errors"]


def test_chevalley_loads_only_what_it_uses():
    code = "from tdlcinv.cli import main; main(['chevalley', '--type', 'A2', '--q', '2']); " + LOADED
    result = _python("-c", code)
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.splitlines()[-1].split())
    assert {"tdlcinv.coxeter", "tdlcinv.euler"} <= loaded
    unused = ("davis", "simplicial", "ratlin", "groups", "serre_graphs", "graphs_of_groups")
    assert not loaded & {f"tdlcinv.{name}" for name in unused}


def test_running_the_cli_module_writes_nothing_to_stderr():
    # runpy warns on stderr when importing the package already imported
    # tdlcinv.cli; -W error turns any such warning into a failure
    result = _python("-W", "error", "-m", "tdlcinv.cli", "chevalley", "--type", "A2", "--q", "2")
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "chi = -1/7*mu[Iw]\n"


@pytest.mark.parametrize("name", tdlcinv.__all__)
def test_every_exported_name_is_its_defining_module_object(name):
    module = importlib.import_module(f"tdlcinv.{tdlcinv._MODULE_OF[name]}")
    value = getattr(tdlcinv, name)
    assert value is getattr(module, name)
    if value.__module__.startswith("tdlcinv"):  # Rational is fractions.Fraction
        assert value.__module__ == module.__name__
    assert name not in vars(tdlcinv), "the package must not cache a second binding"


def test_package_dir_and_star_import():
    assert "__all__" in dir(tdlcinv)
    assert set(tdlcinv.__all__) <= set(dir(tdlcinv))
    namespace = {}
    exec("from tdlcinv import *", namespace)
    assert all(namespace[name] is getattr(tdlcinv, name) for name in tdlcinv.__all__)


def test_unknown_package_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tdlcinv.no_such_name  # noqa: B018

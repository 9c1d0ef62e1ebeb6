"""The package surface and the modules each entry point loads.

``import tdlcinv`` resolves its names lazily (PEP 562) and each CLI handler
imports its own modules, so these tests pin what gets loaded.  The
footprint tests run in fresh interpreters, because this test process has
already imported every module.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tdlcinv

SRC = Path(__file__).resolve().parent.parent / "src"
SAMPLES = SRC.parent / "samples"


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60, check=False
    )


LOADED = "import sys; print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'tdlcinv')))"


def test_importing_the_cli_loads_no_library_module():
    result = _python("-c", "import tdlcinv.cli; " + LOADED + "; print('fractions' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["tdlcinv", "tdlcinv.cli", "tdlcinv.errors", "False"]


# argparse runs only for help and usage errors
ARGPARSE = {"argparse", "gettext", "locale"}


def test_importing_the_cli_loads_no_argparse():
    result = _python("-c", "import sys, tdlcinv.cli; print(*sorted(sys.modules))")
    assert result.returncode == 0, result.stderr
    assert not ARGPARSE & set(result.stdout.split())


def test_rational_is_fraction():
    import fractions

    assert tdlcinv.Rational is fractions.Fraction


def test_no_library_module_imports_future():
    # read from the source, since site may import __future__ on its own
    for path in sorted((SRC / "tdlcinv").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        futures = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "__future__"]
        assert not futures, f"{path.name} imports __future__"


@pytest.mark.parametrize(
    "argv",
    [
        ["coxeter", "A3.json", "--poincare", "--exponents"],
        ["coxeter", "--preset", "affine A2", "--bott", "4"],
    ],
)
def test_coxeter_series_load_no_fractions(argv, tmp_path):
    # only the evaluators (--altsum, chevalley) need Fraction
    cartan = tmp_path / "A3.json"
    cartan.write_text('{"cartan": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]}', encoding="utf-8")
    argv = [str(cartan) if arg == "A3.json" else arg for arg in argv]
    code = f"import sys; from tdlcinv.cli import main; code = main({argv!r}); print(code, *sorted(sys.modules))"
    result = _python("-c", code)
    assert result.returncode == 0, result.stderr
    exit_code, *loaded = result.stdout.splitlines()[-1].split()
    assert exit_code == "0"
    assert not {"fractions", "decimal"} & set(loaded)


def test_chevalley_loads_only_what_it_uses():
    code = "from tdlcinv.cli import main; main(['chevalley', '--type', 'A2', '--q', '2']); " + LOADED
    result = _python("-c", code)
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.splitlines()[-1].split())
    assert {"tdlcinv.coxeter", "tdlcinv.euler"} <= loaded
    unused = ("davis", "simplicial", "ratlin", "groups", "serre_graphs", "graphs_of_groups")
    assert not loaded & {f"tdlcinv.{name}" for name in unused}


# one run of every subcommand on a sample, and the modules it must not load
SUBCOMMAND_RUNS = {
    "homology": ["homology", "triangle.json"],
    "cohomology-c": ["cohomology-c", "triangle.json"],
    "relative": ["relative", "interval_pair.json"],
    "graph": ["graph", "triangle_graph.json"],
    "rough-cayley": ["rough-cayley", "s3_cayley.json"],
    "gog": ["gog", "c4_hnn.json", "--unimodular", "--chi", "--ball", "2", "--cohomology", "c4_hnn_rep.json"],
    "coxeter": ["coxeter", "--preset", "affine A2", "--bott", "4", "--altsum", "2"],
    "davis": ["davis", "affine_a2_coxeter.json"],
    "chevalley": ["chevalley", "--type", "A2", "--q", "2", "--via-parahorics"],
}
NEVER_LOADED = {"dataclasses", "inspect"} | ARGPARSE  # not typing: site may load it
NO_FRACTIONS = {"fractions", "decimal"}  # these runs rank only int matrices
NOT_LOADED_BY = {
    "homology": NO_FRACTIONS,
    "cohomology-c": NO_FRACTIONS,
    "relative": NO_FRACTIONS,
    "graph": {"tdlcinv.simplicial"} | NO_FRACTIONS,
    "rough-cayley": {"tdlcinv.simplicial"} | NO_FRACTIONS,
    "gog": {"tdlcinv.coxeter", "tdlcinv.euler", "tdlcinv.simplicial"},
    "davis": {
        f"tdlcinv.{name}"
        for name in ("coxeter", "euler", "groups", "serre_graphs", "graphs_of_groups", "haar", "polynomial")
    }
    | NO_FRACTIONS,
}
# every library module each run loads, besides tdlcinv, tdlcinv.cli and
# tdlcinv.errors, so that a new import on a job's path fails a test
LOADS = {
    "homology": ("ratlin", "records", "simplicial"),
    "cohomology-c": ("ratlin", "records", "simplicial"),
    "relative": ("ratlin", "records", "simplicial"),
    "graph": ("ratlin", "serre_graphs"),
    "rough-cayley": ("groups", "ratlin", "serre_graphs"),
    "gog": ("graphs_of_groups", "groups", "haar", "ratlin", "records", "serre_graphs"),
    "coxeter": ("coxeter", "diagrams", "polynomial", "records"),
    "davis": ("davis", "diagrams", "ratlin", "records", "simplicial"),
    "chevalley": ("coxeter", "diagrams", "euler", "haar", "polynomial", "records"),
}


@pytest.mark.parametrize("command", SUBCOMMAND_RUNS)
def test_subcommand_import_footprint(command):
    argv = [str(SAMPLES / arg) if arg.endswith(".json") else arg for arg in SUBCOMMAND_RUNS[command]]
    code = f"import sys; from tdlcinv.cli import main; code = main({argv!r}); print(code, *sorted(sys.modules))"
    result = _python("-c", code)
    assert result.returncode == 0, result.stderr
    exit_code, *loaded = result.stdout.splitlines()[-1].split()
    assert exit_code == "0"
    assert not set(loaded) & (NEVER_LOADED | NOT_LOADED_BY.get(command, set()))
    library = [name for name in loaded if name.split(".")[0] == "tdlcinv"]
    assert library == sorted({"tdlcinv", "tdlcinv.cli", "tdlcinv.errors"} | {f"tdlcinv.{name}" for name in LOADS[command]})


def test_running_the_cli_module_writes_nothing_to_stderr():
    # runpy warns on stderr when importing the package already imported
    # tdlcinv.cli; -W error turns any such warning into a failure
    result = _python("-W", "error", "-m", "tdlcinv.cli", "chevalley", "--type", "A2", "--q", "2")
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "chi = -1/7*mu[Iw]\n"


# frozen here, so that a name dropped from the export table fails a test
EXPORTED = (
    "AffineCartanPair", "CartanMatrix", "CoxeterSystem", "DualityVerdict", "FiniteGroup",
    "FiniteGroupOracle", "GraphOfFiniteGroups", "HaarValue", "Hom", "IntPolynomial",
    "IntegerLineOracle", "OrientedSimplex", "PiRepresentation", "PiWord", "Rational",
    "RationalMatrix", "ResolutionDescription", "SerreGraph", "SignedSet", "SimplicialComplex",
    "ValidationError", "affine_preset", "alternating_sum_identity", "aut_tree_chi",
    "ball_sphere_growth", "bott_check", "build_chamber", "build_gog", "chevalley_chi",
    "chi_from_resolution", "chi_via_parahoric_sum", "connectivity_equals_generation",
    "duality_verdict", "enumerate_by_length", "exponents", "finite_preset", "group_from_spec",
    "homology_dims", "hs_rank_permutation", "kac_moody_verdict", "line_window", "load_complex",
    "load_gog", "load_graph", "poincare_poly", "regular_tree_window", "relative_cohomology",
    "rough_cayley_ball",
)


def test_all_is_the_sorted_export_table():
    assert len(EXPORTED) == 48
    assert tdlcinv.__all__ == sorted(tdlcinv._MODULE_OF)
    assert set(tdlcinv.__all__) == set(EXPORTED) | {"load_pair", "load_representation"}
    assert tdlcinv._MODULE_OF["load_pair"] == "simplicial"
    assert tdlcinv._MODULE_OF["load_representation"] == "graphs_of_groups"


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

"""Run one tdlcinv CLI command with its layers traced from outside.

Usage: python bench/traced_cli.py TRACE.json SUBCOMMAND [ARGS...]

The script times ``import tdlcinv.cli``, wraps the public functions listed
in TARGETS, calls ``tdlcinv.cli.main`` with the remaining arguments and
writes per-function call counts, self times and size counters to
TRACE.json.  Standard output is the CLI's own, byte for byte; the exit code
is the CLI's.

A wrapped function is rebound in every tdlcinv module that holds it, so
calls through names imported elsewhere (``davis`` imports
``relative_cohomology``, ``euler`` imports ``poincare_poly``) are counted
too.  Methods are wrapped once on their class.  Self time is the span of a
call minus the spans of the wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _count_rank(counts, args, kwargs, result):
    matrix = args[0]
    counts["ratlin.rank.nnz"] += matrix.nnz
    counts["ratlin.rank.cols"] += matrix.cols
    counts["ratlin.rank.result"] += result


def _count_poset(counts, args, kwargs, result):
    counts["davis.poset.subsets"] += len(result)


def _count_chamber(counts, args, kwargs, result):
    counts["davis.chamber.simplices"] += len(result.complex.all_simplices())


def _count_length_list(counts, args, kwargs, result):
    counts["coxeter.states"] += sum(result)


def _count_length_poly(counts, args, kwargs, result):
    counts["coxeter.states"] += sum(result.coeffs)


def _count_checked_table(counts, args, kwargs, result):
    trusted = kwargs.get("_trusted", args[3] if len(args) > 3 else False)
    if not trusted:
        counts["groups.table.order"] += args[0].order


def _count_ball(counts, args, kwargs, result):
    counts["graphs_of_groups.ball.vertices"] += len(result.vertices)


# (metric name, module, attribute path, counter)
TARGETS = [
    ("cli.main", "tdlcinv.cli", "main", None),
    ("ratlin.rank", "tdlcinv.ratlin", "RationalMatrix.rank", _count_rank),
    ("ratlin.kernel_basis", "tdlcinv.ratlin", "RationalMatrix.kernel_basis", None),
    ("ratlin.solve", "tdlcinv.ratlin", "RationalMatrix.solve", None),
    ("ratlin.matmul", "tdlcinv.ratlin", "RationalMatrix.__matmul__", None),
    ("ratlin.matrix_init", "tdlcinv.ratlin", "RationalMatrix.__init__", None),
    ("simplicial.complex_init", "tdlcinv.simplicial", "SimplicialComplex.__init__", None),
    ("simplicial.validate", "tdlcinv.simplicial", "SimplicialComplex.validate", None),
    ("simplicial.boundary_matrix", "tdlcinv.simplicial", "SimplicialComplex.boundary_matrix", None),
    ("simplicial.compact_cochain_matrix", "tdlcinv.simplicial", "SimplicialComplex.compact_cochain_matrix", None),
    ("simplicial.relative_cohomology", "tdlcinv.simplicial", "relative_cohomology", None),
    ("simplicial.union_complexes", "tdlcinv.simplicial", "union_complexes", None),
    ("davis.spherical_poset", "tdlcinv.davis", "SphericalPoset.from_system", _count_poset),
    ("davis.build_chamber", "tdlcinv.davis", "build_chamber", _count_chamber),
    ("davis.relative_table", "tdlcinv.davis", "relative_table", None),
    ("coxeter.is_spherical", "tdlcinv.coxeter", "CoxeterSystem.is_spherical", None),
    ("coxeter.poincare_poly", "tdlcinv.coxeter", "poincare_poly", _count_length_poly),
    ("coxeter.enumerate_by_length", "tdlcinv.coxeter", "enumerate_by_length", _count_length_list),
    ("coxeter.exponents", "tdlcinv.coxeter", "exponents", None),
    ("coxeter.alternating_sum_identity", "tdlcinv.coxeter", "alternating_sum_identity", None),
    ("euler.chevalley_chi", "tdlcinv.euler", "chevalley_chi", None),
    ("euler.chi_via_parahoric_sum", "tdlcinv.euler", "chi_via_parahoric_sum", None),
    ("groups.finite_group_init", "tdlcinv.groups", "FiniteGroup.__init__", _count_checked_table),
    ("groups.hom_from_images", "tdlcinv.groups", "Hom.from_generator_images", None),
    ("serre_graphs.graph_init", "tdlcinv.serre_graphs", "SerreGraph.__init__", None),
    ("serre_graphs.edge_boundary", "tdlcinv.serre_graphs", "SerreGraph.edge_boundary", None),
    ("serre_graphs.graph_invariants", "tdlcinv.serre_graphs", "SerreGraph.graph_invariants", None),
    ("serre_graphs.oracle_init", "tdlcinv.serre_graphs", "FiniteGroupOracle.__init__", None),
    ("serre_graphs.rough_cayley_ball", "tdlcinv.serre_graphs", "rough_cayley_ball", None),
    ("graphs_of_groups.load_gog", "tdlcinv.graphs_of_groups", "load_gog", None),
    ("graphs_of_groups.validate", "tdlcinv.graphs_of_groups", "GraphOfFiniteGroups.validate", None),
    ("graphs_of_groups.bass_serre_ball", "tdlcinv.graphs_of_groups", "GraphOfFiniteGroups.bass_serre_ball", _count_ball),
    ("graphs_of_groups.tree_action_cohomology", "tdlcinv.graphs_of_groups", "GraphOfFiniteGroups.tree_action_cohomology", None),
    ("graphs_of_groups.rep_validate", "tdlcinv.graphs_of_groups", "PiRepresentation.validate", None),
]

COUNTERS = [
    "ratlin.rank.nnz",
    "ratlin.rank.cols",
    "ratlin.rank.result",
    "davis.poset.subsets",
    "davis.chamber.simplices",
    "coxeter.states",
    "groups.table.order",
    "graphs_of_groups.ball.vertices",
]


class Tracer:
    """Call counts, self times and counters of the wrapped functions."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.sites = defaultdict(list)  # metric name -> where it was rebound
        self._child_time = [0.0]  # one accumulator per open span, plus the root
        self._saved = []  # (holder, attribute, original) for uninstall

    def wrap(self, name, fn, counter):
        child_time = self._child_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_time.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                inner = child_time.pop()
                self.self_s[name] += span - inner
                self.calls[name] += 1
                child_time[-1] += span
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def _rebind(self, name, holder, attribute, replacement, label):
        self._saved.append((holder, attribute, vars(holder)[attribute]))
        setattr(holder, attribute, replacement)
        self.sites[name].append(label)

    def install(self):
        for name, module_name, path, counter in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attribute = path.split(".")
                cls = getattr(module, class_name)
                raw = vars(cls)[attribute]
                if isinstance(raw, classmethod):
                    replacement = classmethod(self.wrap(name, raw.__func__, counter))
                else:
                    replacement = self.wrap(name, raw, counter)
                self._rebind(name, cls, attribute, replacement, f"{module_name}.{path}")
                continue
            original = getattr(module, path)
            replacement = self.wrap(name, original, counter)
            for holder_name, holder in sorted(sys.modules.items()):
                if holder_name != "tdlcinv" and not holder_name.startswith("tdlcinv."):
                    continue
                for attribute, value in list(vars(holder).items()):
                    if value is original:
                        self._rebind(name, holder, attribute, replacement, f"{holder_name}.{attribute}")

    def uninstall(self):
        for holder, attribute, original in reversed(self._saved):
            setattr(holder, attribute, original)
        self._saved.clear()

    def report(self, import_s):
        return {
            "import_s": import_s,
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }


def main(argv):
    trace_path, cli_argv = argv[0], argv[1:]
    start = perf_counter()
    import tdlcinv.cli

    import_s = perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        code = tdlcinv.cli.main(cli_argv)
    finally:
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.report(import_s), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Checks of the benchmark itself: python -m pytest bench

They run the real workloads (about two minutes in all) and are not part of
the library's test suite.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from traced_cli import COUNTERS, TARGETS, Tracer  # noqa: E402

ALL = tuple(workloads.WORKLOADS)

# the workloads on which each wrapped function, or counter, must be called
NAMED_WORKLOADS = {
    "cli.main": ALL,
    "ratlin.rank": ("davis-chambers", "exact-rank"),
    "ratlin.kernel_basis": ("group-tables",),
    "ratlin.solve": ("group-tables",),
    "ratlin.matmul": ("group-tables",),
    "ratlin.matrix_init": ("davis-chambers", "exact-rank", "group-tables"),
    "simplicial.complex_init": ("davis-chambers", "exact-rank"),
    "simplicial.validate": ("davis-chambers", "exact-rank"),
    "simplicial.boundary_matrix": ("exact-rank",),
    "simplicial.compact_cochain_matrix": ("exact-rank",),
    "simplicial.relative_cohomology": ("davis-chambers", "exact-rank"),
    "simplicial.union_complexes": ("davis-chambers",),
    "davis.spherical_poset": ("davis-chambers",),
    "davis.build_chamber": ("davis-chambers",),
    "davis.relative_table": ("davis-chambers",),
    "coxeter.is_spherical": ("davis-chambers", "weyl-growth"),
    "coxeter.poincare_poly": ("weyl-growth",),
    "coxeter.enumerate_by_length": ("weyl-growth",),
    "coxeter.exponents": ("weyl-growth",),
    "coxeter.alternating_sum_identity": ("weyl-growth",),
    "euler.chevalley_chi": ("weyl-growth",),
    "euler.chi_via_parahoric_sum": ("weyl-growth",),
    "groups.finite_group_init": ("group-tables", "exact-rank"),
    "groups.hom_from_images": ("group-tables", "exact-rank"),
    "serre_graphs.graph_init": ("group-tables", "exact-rank"),
    "serre_graphs.edge_boundary": ("group-tables", "exact-rank"),
    "serre_graphs.graph_invariants": ("group-tables", "exact-rank"),
    "serre_graphs.oracle_init": ("group-tables",),
    "serre_graphs.rough_cayley_ball": ("group-tables",),
    "graphs_of_groups.load_gog": ("group-tables", "exact-rank"),
    "graphs_of_groups.validate": ("group-tables", "exact-rank"),
    "graphs_of_groups.bass_serre_ball": ("exact-rank",),
    "graphs_of_groups.tree_action_cohomology": ("group-tables",),
    "graphs_of_groups.rep_validate": ("group-tables",),
    "ratlin.rank.nnz": ("davis-chambers", "exact-rank"),
    "ratlin.rank.cols": ("davis-chambers", "exact-rank"),
    "ratlin.rank.result": ("davis-chambers", "exact-rank"),
    "davis.poset.subsets": ("davis-chambers",),
    "davis.chamber.simplices": ("davis-chambers",),
    "coxeter.states": ("weyl-growth",),
    "groups.table.order": ("group-tables",),
    "graphs_of_groups.ball.vertices": ("exact-rank",),
}


def test_every_target_and_counter_is_named():
    assert set(NAMED_WORKLOADS) == {name for name, *_ in TARGETS} | set(COUNTERS)


def test_wrappers_replace_every_binding_and_uninstall():
    import importlib

    import tdlcinv.cli  # noqa: F401

    originals = {}
    for name, module_name, path, _ in TARGETS:
        if "." not in path:
            originals[name] = getattr(importlib.import_module(module_name), path)
    tracer = Tracer()
    tracer.install()
    try:
        for name, original in originals.items():
            for module_name, module in sys.modules.items():
                if module_name == "tdlcinv" or module_name.startswith("tdlcinv."):
                    assert all(value is not original for value in vars(module).values()), (
                        f"{module_name} still holds the unwrapped {name}"
                    )
        assert "tdlcinv.davis.relative_cohomology" in tracer.sites["simplicial.relative_cohomology"]
        assert "tdlcinv.davis.union_complexes" in tracer.sites["simplicial.union_complexes"]
        assert "tdlcinv.euler.poincare_poly" in tracer.sites["coxeter.poincare_poly"]
        assert "tdlcinv.euler.exponents" in tracer.sites["coxeter.exponents"]
    finally:
        tracer.uninstall()
    for name, original in originals.items():
        module_name, path = next((m, p) for n, m, p, _ in TARGETS if n == name)
        assert getattr(importlib.import_module(module_name), path) is original


def bench(workload, trace, seed=3):
    result = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(result.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ALL)
def test_traced_run_covers_its_layers_with_identical_stdout(workload):
    # run.py counts a job as failed when its traced stdout differs by a byte
    result = bench(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    for name, named in NAMED_WORKLOADS.items():
        key = name if name in COUNTERS else f"{name}.calls"
        if workload in named:
            assert metrics[key]["value"] >= 1, f"{key} not recorded on {workload}"
    if workload == "weyl-growth":
        assert metrics["ratlin.rank.calls"]["value"] == 0


def test_wrong_reference_counts_as_failed(tmp_path):
    jobs = [job for job in workloads.build("weyl-growth", 1, str(tmp_path)) if job.argv[0] == "chevalley"]
    with run.Launcher(run.child_env(ROOT), ROOT) as launcher:
        def failed():
            outcomes = run.one_pass(launcher, jobs, lambda job, k: run.cli_command(job), str(tmp_path), "t")
            return sum(not o.ok for o in outcomes) / len(outcomes)

        assert failed() == 0
        jobs[0].expected["coefficient"] = "-1"
        assert failed() == 1 / len(jobs)


def test_round_runs_every_job_and_repeats_the_largest(tmp_path):
    jobs = workloads.build("exact-rank", 1, str(tmp_path))
    repeats = workloads.LARGEST_REPEATS["exact-rank"]
    order = run.round_order(jobs, repeats)
    largest = next(k for k, job in enumerate(jobs) if job.largest)
    assert sorted(set(order)) == list(range(len(jobs)))
    assert [order.count(k) for k in range(len(jobs))] == [repeats if k == largest else 1 for k in range(len(jobs))]

import json
import random
from pathlib import Path

import pytest

from tdlcinv.cli import main

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def _loop_gog(group, embed_to, embed_from):
    edge = {"id": "e", "from": "a", "to": "a", "group": "C2", "embed_to": embed_to, "embed_from": embed_from}
    return {"vertices": ["a"], "vertex_groups": {"a": group}, "edges": [edge]}


C2_INTO_C2 = {"gens": [1], "images": [1]}


def _c4_rep(**changes):
    """The representation of ``samples/c4_hnn_rep.json`` with some fields replaced."""
    rep = {"dim": 1, "vertex_actions": {"v": [[[1]], [[-1]], [[1]], [[-1]]]}, "stable_letters": {"e": [[1]]}}
    rep.update(changes)
    return rep


def _c4_entry(value):
    return _c4_rep(vertex_actions={"v": [[[1]], [[value]], [[1]], [[-1]]]})


NON_ASSOCIATIVE_520 = [[(a + b) % 520 for b in range(520)] for a in range(520)]
NON_ASSOCIATIVE_520[2][3] = 6


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_davis_notdu_json(capsys):
    code, out, _ = run(capsys, "davis", SAMPLES / "notdu.json", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["cd"] == 2
    assert data["duality"] is False


def test_davis_strict_flag(capsys):
    code, out, _ = run(capsys, "davis", SAMPLES / "notdu.json", "--exclude-empty-T", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert all(row["T"] for row in data["table"])


def test_chevalley_value(capsys):
    code, out, _ = run(capsys, "chevalley", "--type", "A1", "--q", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["coefficient"] == "-1/3"


def test_chevalley_parahoric_agreement(capsys):
    code, out, _ = run(
        capsys, "chevalley", "--type", "A2", "--q", "2", "--via-parahorics", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["coefficient"] == data["parahoric_coefficient"] == "-1/7"
    assert data["paths_agree"] is True


def test_gog_chi(capsys):
    code, out, _ = run(capsys, "gog", SAMPLES / "psl2z.json", "--chi", "--format", "json")
    assert code == 0
    assert json.loads(out)["chi"]["coefficient"] == "-1/6"


def test_gog_z_loop_chi_zero(capsys):
    code, out, _ = run(capsys, "gog", SAMPLES / "z_loop.json", "--chi", "--format", "json")
    assert code == 0
    assert json.loads(out)["chi"]["coefficient"] == "0"


def test_gog_default_reports_indices(capsys):
    code, out, _ = run(capsys, "gog", SAMPLES / "psl2z.json")
    assert code == 0
    assert "indices" in out or "index" in out


def test_gog_ball_and_cohomology(capsys):
    code, out, _ = run(
        capsys,
        "gog",
        SAMPLES / "c4_hnn.json",
        "--ball",
        "2",
        "--cohomology",
        SAMPLES / "c4_hnn_rep.json",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["ball"]["tree"] is True
    assert data["cohomology"] == {"h0": 0, "h1": 1}


def test_homology_and_cohomology_c(capsys):
    code, out, _ = run(capsys, "homology", SAMPLES / "triangle.json", "--format", "json")
    assert code == 0
    assert json.loads(out)["dims"] == [1, 1]
    code, out, _ = run(capsys, "cohomology-c", SAMPLES / "triangle.json", "--format", "json")
    assert code == 0
    assert json.loads(out)["dims"] == [1, 1]


def test_relative(capsys):
    code, out, _ = run(capsys, "relative", SAMPLES / "interval_pair.json", "--format", "json")
    assert code == 0
    assert json.loads(out)["dims"] == [0, 1]


def test_graph_invariants_and_dot(capsys):
    code, out, _ = run(capsys, "graph", SAMPLES / "triangle_graph.json", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert (data["h1"], data["components"], data["tree"]) == (1, 1, False)
    code, out, _ = run(capsys, "graph", SAMPLES / "triangle_graph.json", "--dot")
    assert code == 0
    assert out.startswith("graph {")


def test_rough_cayley(capsys):
    code, out, _ = run(
        capsys, "rough-cayley", SAMPLES / "s3_cayley.json", "--radius", "2", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["vertices"] == 3
    assert data["components"] == 1


def test_coxeter_preset_all_flags(capsys):
    code, out, _ = run(
        capsys,
        "coxeter",
        "--preset",
        "affine A1",
        "--poincare",
        "--exponents",
        "--bott",
        "8",
        "--altsum",
        "2",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["poincare"] == [1, 1]
    assert data["exponents"] == [1]
    assert data["bott"] is True
    assert data["altsum"] is True


def test_missing_file_is_exit_two(capsys):
    code, _, err = run(capsys, "homology", "no_such_file.json")
    assert code == 2
    assert "does not exist" in err


def test_invalid_input_is_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": ["a"], "maximal_simplices": [["a", "b"]]}')
    code, _, err = run(capsys, "homology", bad)
    assert code == 2
    assert "unknown vertex" in err


@pytest.mark.parametrize(
    "command, payload",
    [
        ("rough-cayley", {"group": "C4", "generators": [9]}),
        ("gog", {"vertices": ["a"], "vertex_groups": {"a": "C0"}, "edges": []}),
        ("gog", {"vertices": ["a"], "vertex_groups": {"a": "C2"}, "edges": [{"id": "e", "from": "a", "to": "b"}]}),
        ("rough-cayley", {"group": "S3", "subgroup_gens": [-1], "generators": []}),
        ("homology", {"vertices": 5}),
        ("homology", {"vertices": ["a"], "maximal_simplices": ["a"]}),
        ("coxeter", {"cartan": [[2, -1], [-1, 2.7]]}),
        ("coxeter", {"cartan": 5}),
        ("coxeter", {"cartan": [[2, -2], [-2, 2]]}),
        ("homology", {"vertices": [1], "maximal_simplices": [[1, 1]]}),
        ("relative", {"complex": {"vertices": ["a"], "maximal_simplices": []}, "subcomplex": 5}),
        (
            "relative",
            {
                "complex": {"vertices": ["a", "b"], "maximal_simplices": [["a", "b"]]},
                "subcomplex": {"maximal_simplices": [["a", "a"]]},
            },
        ),
        ("rough-cayley", {"group": {"table": [[0, 1], [1, 0.0]]}}),
        ("rough-cayley", {"group": {"table": [[0, 1], [1, "0"]]}}),
        ("rough-cayley", {"group": {"table": [5]}}),
        ("rough-cayley", {"group": {"table": [[0, 1.5], [1, 0]]}}),
        ("rough-cayley", {"group": {"table": [[0, True], [1, 0]]}, "generators": [1]}),
        ("rough-cayley", {"group": {"table": NON_ASSOCIATIVE_520}, "generators": [1]}),
        ("gog", _loop_gog("C3", {"gens": [1], "images": [7]}, {"gens": [1], "images": [0]})),
        ("gog", _loop_gog("C4", {"gens": [5], "images": [2]}, {"gens": [1], "images": [2]})),
        ("gog", _loop_gog("C2", {"gens": [1], "images": [True]}, {"gens": [1], "images": [1]})),
        ("gog", _loop_gog("C4", {"gens": [1], "images": [2.0]}, {"gens": [1], "images": [2]})),
        ("graph", {"vertices": 5, "edges": []}),
        ("graph", {"vertices": ["x"], "edges": 5}),
        ("graph", {"vertices": [["x"]], "edges": []}),
        (
            "graph",
            {
                "vertices": ["x", "y"],
                "edges": [
                    {"id": 1, "o": "x", "t": "y", "bar": "A"},
                    {"id": "A", "o": "y", "t": "x", "bar": 1},
                ],
            },
        ),
        ("gog", {"vertices": 5, "vertex_groups": {}, "edges": []}),
        ("gog", {"vertices": ["a"], "vertex_groups": {"a": "C2"}, "edges": 5}),
        ("gog", {"vertices": ["a"], "vertex_groups": 5, "edges": []}),
        ("gog", _loop_gog("C2", 5, C2_INTO_C2)),
        ("gog", _loop_gog("C2", C2_INTO_C2, [])),
        ("gog", _loop_gog("C2", {"gens": 1, "images": [1]}, C2_INTO_C2)),
        ("gog", _loop_gog("C2", C2_INTO_C2, {"gens": [1], "images": 1})),
        ("gog --cohomology", 5),
        ("gog --cohomology", _c4_rep(dim="x")),
        ("gog --cohomology", _c4_rep(dim=-1)),
        ("gog --cohomology", _c4_rep(dim=True)),
        ("gog --cohomology", _c4_rep(dim=10**12, vertex_actions={"v": []})),
        ("gog --cohomology", _c4_rep(vertex_actions=5)),
        ("gog --cohomology", _c4_rep(stable_letters=5)),
        ("gog --cohomology", _c4_rep(vertex_actions={"v": 5})),
        ("gog --cohomology", _c4_rep(vertex_actions={"v": [5, [[-1]], [[1]], [[-1]]]})),
        ("gog --cohomology", _c4_rep(vertex_actions={"v": [[5], [[-1]], [[1]], [[-1]]]})),
        ("gog --cohomology", _c4_rep(dim=2, vertex_actions={
            "v": [[[1, 0], [0, 1]], [[-1, 0], [0]], [[1, 0], [0, 1]], [[-1, 0], [0, -1]]]
        })),
        ("gog --cohomology", _c4_entry("x")),
        ("gog --cohomology", _c4_entry(None)),
        ("gog --cohomology", _c4_entry(True)),
        ("gog --cohomology", _c4_entry([])),
        ("gog --cohomology", _c4_entry({})),
    ],
    ids=[
        "generator-out-of-range",
        "cyclic-order-zero",
        "undeclared-edge-end",
        "subgroup-generator-out-of-range",
        "vertices-not-a-list",
        "simplex-not-a-list",
        "float-cartan",
        "cartan-not-rows",
        "infinite-type-poincare",
        "repeated-vertex",
        "subcomplex-not-an-object",
        "subcomplex-repeated-vertex",
        "table-float-entry",
        "table-string-entry",
        "table-row-not-a-list",
        "table-fractional-entry",
        "table-bool-entry",
        "table-non-associative-order-520",
        "embedding-image-out-of-range",
        "embedding-generator-out-of-range",
        "embedding-bool-image",
        "embedding-float-image",
        "graph-vertices-not-a-list",
        "graph-edges-not-a-list",
        "graph-vertex-not-an-id",
        "graph-mixed-edge-id-types",
        "gog-vertices-not-a-list",
        "gog-edges-not-a-list",
        "gog-vertex-groups-not-an-object",
        "gog-embed-to-not-an-object",
        "gog-embed-from-not-an-object",
        "gog-gens-not-a-list",
        "gog-images-not-a-list",
        "rep-not-an-object",
        "rep-dim-string",
        "rep-dim-negative",
        "rep-dim-bool",
        "rep-dim-huge-without-matrices",
        "rep-vertex-actions-not-an-object",
        "rep-stable-letters-not-an-object",
        "rep-matrix-list-not-a-list",
        "rep-matrix-not-a-list",
        "rep-row-not-a-list",
        "rep-ragged-rows",
        "rep-entry-string",
        "rep-entry-null",
        "rep-entry-bool",
        "rep-entry-list",
        "rep-entry-object",
    ],
)
def test_malformed_input_is_exit_two(tmp_path, capsys, command, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, *_argv(command, path))
    assert (code, out) == (2, "")
    assert err.startswith("invalid input: ")


def _argv(command, path):
    """Command line for ``command`` with ``path`` as its JSON input."""
    if command == "coxeter":
        return command, path, "--poincare"
    if command == "gog --cohomology":  # path holds the representation
        return "gog", SAMPLES / "c4_hnn.json", "--cohomology", path
    return command, path


@pytest.mark.parametrize(
    "argv",
    [
        ("davis", SAMPLES / "notdu.json"),
        ("homology", SAMPLES / "triangle.json"),
        ("cohomology-c", SAMPLES / "triangle.json"),
        ("relative", SAMPLES / "interval_pair.json"),
        ("graph", SAMPLES / "triangle_graph.json"),
        ("rough-cayley", SAMPLES / "s3_cayley.json"),
        ("gog", SAMPLES / "psl2z.json", "--chi", "--unimodular"),
        ("coxeter", "--preset", "A2", "--poincare", "--exponents"),
        ("chevalley", "--type", "A1", "--q", "3", "--via-parahorics"),
    ],
    ids=lambda argv: str(argv[0]),
)
def test_json_output_is_deterministic_and_round_trips(capsys, argv):
    _, first, _ = run(capsys, *argv, "--format", "json")
    _, second, _ = run(capsys, *argv, "--format", "json")
    assert first == second
    # round trip: parse then re-render reproduces the bytes
    assert json.dumps(json.loads(first), indent=2, sort_keys=True) + "\n" == first


def _leaf_paths(value, path=()):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaf_paths(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _leaf_paths(item, path + (index,))
    else:
        yield path


def _replaced(value, path, leaf):
    if not path:
        return leaf
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], leaf)
    return copy


FUZZ_LEAVES = (5.5, "x", True, None, [], {}, -1)
S3_TABLE = [[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 4, 5, 1, 3, 0],
            [3, 5, 4, 0, 2, 1], [4, 2, 1, 5, 0, 3], [5, 3, 0, 4, 1, 2]]


@pytest.mark.parametrize(
    "command, payload",
    [
        ("graph", json.loads((SAMPLES / "triangle_graph.json").read_text())),
        ("rough-cayley", {"group": {"table": S3_TABLE}, "subgroup_gens": [1], "generators": [2, 3]}),
        ("gog", json.loads((SAMPLES / "c4_hnn.json").read_text())),
        ("gog --cohomology", json.loads((SAMPLES / "c4_hnn_rep.json").read_text())),
    ],
    ids=["graph", "rough-cayley", "gog", "gog-cohomology"],
)
def test_fuzzed_leaf_is_exit_zero_or_two(tmp_path, capsys, command, payload):
    """Replacing any one JSON leaf by a value of another type or range gives
    a result or an invalid-input diagnostic, never an internal error."""
    rng = random.Random(17)
    paths = list(_leaf_paths(payload))
    path_file = tmp_path / "input.json"
    path_file.write_text(json.dumps(payload))
    assert run(capsys, *_argv(command, path_file))[0] == 0
    for _ in range(150):
        mutated = _replaced(payload, rng.choice(paths), rng.choice(FUZZ_LEAVES))
        path_file.write_text(json.dumps(mutated))
        code, _, err = run(capsys, *_argv(command, path_file))
        assert code in (0, 2), (mutated, err)

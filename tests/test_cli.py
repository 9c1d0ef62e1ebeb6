import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tdlcinv.cli import main
from tdlcinv.coxeter import BOTT_DEGREE_CAP, PRESET_RANKS
from tdlcinv.diagrams import GENERATOR_CAP, CoxeterSystem

from fuzzers import clique_skeleton

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


def _affine_a(n):
    """The pair of finite A_n and affine A_n, whose node 0 extends it."""
    affine = [[2 if i == j else -1 if (i - j) % (n + 1) in (1, n) else 0 for j in range(n + 1)] for i in range(n + 1)]
    return {"finite": {"cartan": [row[1:] for row in affine[1:]]}, "affine": {"cartan": affine}}


# the C2 loop edge "e" and a second, trivial edge record with the same id
REPEATED_LOOP = _loop_gog("C2", C2_INTO_C2, C2_INTO_C2)
REPEATED_LOOP["edges"].append({"id": "e", "from": "a", "to": "a"})
# ids 1 and "1" both read as the id "1"
INT_AND_STRING_ID = {
    "vertices": ["a", "b"],
    "vertex_groups": {"a": "1", "b": "1"},
    "edges": [{"id": 1, "from": "a", "to": "b"}, {"id": "1", "from": "a", "to": "b"}],
}
# the edge 0 -- 1 with both directed-edge records listed twice
REPEATED_GRAPH_EDGES = {
    "vertices": [0, 1],
    "edges": [{"id": 0, "o": 0, "t": 1, "bar": 1}, {"id": 1, "o": 1, "t": 0, "bar": 0}] * 2,
}

ABOVE_GENERATOR_CAP = GENERATOR_CAP + 1
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


def test_davis_reads_a_cartan_matrix_as_its_weyl_group(capsys, tmp_path):
    # the affine A2 Cartan matrix, whose Weyl group is the sample's Coxeter matrix
    cartan = tmp_path / "affine_a2_cartan.json"
    cartan.write_text('{"cartan": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]}', encoding="utf-8")
    assert run(capsys, "davis", cartan) == run(capsys, "davis", SAMPLES / "affine_a2_coxeter.json")


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


@pytest.mark.parametrize("name", [f"{family}{n}" for family, ranks in PRESET_RANKS.items() for n in ranks])
def test_every_finite_type_agrees_with_its_parahoric_sum(capsys, name):
    code, out, _ = run(capsys, "chevalley", "--type", name, "--q", "2", "--via-parahorics", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["type"] == name and data["paths_agree"] is True


@pytest.mark.parametrize(
    "name", ["X9", "A0", "A9", "B1", "D3", "E5", "E9", "F5", "G3", "A02", "a2", "affine X9", "A" + "1" * 5000],
    ids=lambda name: name if len(name) < 10 else "rank-of-5000-digits",
)
@pytest.mark.parametrize("command", ["coxeter", "chevalley"])
def test_preset_names_are_refused_before_a_matrix_is_built(capsys, monkeypatch, command, name):
    def no_matrix(*args):
        raise AssertionError("a Cartan matrix was built")

    monkeypatch.setattr("tdlcinv.coxeter.CartanMatrix", no_matrix)
    if command == "coxeter":
        argv = ("coxeter", "--preset", name, "--poincare")
    else:
        argv = ("chevalley", "--type", name, "--q", "2", "--via-parahorics")
    kind = "affine" if command == "coxeter" and name.startswith("affine ") else "finite type"
    assert run(capsys, *argv) == (2, "", f"invalid input: unknown {kind} preset {name!r}\n")


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


@pytest.mark.parametrize(
    "flags",
    [("--unimodular", "--chi"), ("--ball", "2"), ("--cohomology", SAMPLES / "c4_hnn_rep.json"), ()],
    ids=["unimodular-chi", "ball", "cohomology", "no-flag"],
)
def test_gog_checks_the_graph_of_groups_once(capsys, monkeypatch, flags):
    from tdlcinv.graphs_of_groups import GraphOfFiniteGroups

    check = GraphOfFiniteGroups.validate
    calls = []

    def counted(self):
        calls.append(self)
        return check(self)

    monkeypatch.setattr(GraphOfFiniteGroups, "validate", counted)
    code, _, _ = run(capsys, "gog", SAMPLES / "c4_hnn.json", *flags)
    assert (code, len(calls)) == (0, 1)


def test_gog_unimodular_chi_evaluates_the_cycle_products_once(capsys, monkeypatch):
    from tdlcinv import graphs_of_groups

    products = graphs_of_groups.cycle_index_ratio_products
    calls = []

    def counted(*args):
        calls.append(args)
        return products(*args)

    monkeypatch.setattr(graphs_of_groups, "cycle_index_ratio_products", counted)
    code, out, _ = run(capsys, "gog", SAMPLES / "c4_hnn.json", "--unimodular", "--chi")
    assert (code, len(calls)) == (0, 1)
    assert out.splitlines()[0] == "unimodular yes"


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


def test_clique_routes_print_equal_dims(capsys, tmp_path):
    # a seeded 60-vertex clique 3-skeleton, relabelled and listed with every
    # clique, as the exact-rank inputs are; the empty subcomplex makes the
    # relative cohomology of the pair the homology of the complex
    rng = random.Random(60)
    labels = [f"v{i}" for i in range(60)]
    rng.shuffle(labels)
    complex_ = {"vertices": labels, "maximal_simplices": [[labels[v] for v in s] for s in clique_skeleton(rng, 60)]}
    single = tmp_path / "clique_60.json"
    single.write_text(json.dumps(complex_))
    pair = tmp_path / "clique_60_pair.json"
    pair.write_text(json.dumps({"complex": complex_, "subcomplex": {"vertices": [], "maximal_simplices": []}}))
    printed = []
    for command, path in (("homology", single), ("cohomology-c", single), ("relative", pair)):
        code, out, _ = run(capsys, command, path, "--format", "json")
        assert code == 0
        printed.append(json.loads(out)["dims"])
    assert printed[0] == printed[1] == printed[2]
    assert len(printed[0]) == 4 and printed[0][1] > 0


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


@pytest.mark.parametrize(
    "inputs, reason",
    [((), "needs an input file or --preset"), (("FILE", "--preset", "A2"), "not both")],
    ids=["neither", "both"],
)
def test_coxeter_needs_exactly_one_of_file_and_preset(tmp_path, capsys, inputs, reason):
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"cartan": [[2, -1], [-1, 2]]}))
    argv = ["coxeter", *(str(path) if a == "FILE" else a for a in inputs), "--poincare"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    captured = capsys.readouterr()
    assert (exit_info.value.code, captured.out) == (2, "")
    assert reason in captured.err


@pytest.mark.parametrize(
    "degree, reason",
    [(str(BOTT_DEGREE_CAP + 1), "BOTT_DEGREE_CAP"), ("-1", "non-negative")],
)
def test_coxeter_bott_out_of_range_is_exit_two_before_enumerating(capsys, monkeypatch, degree, reason):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("the enumeration ran")

    monkeypatch.setattr("tdlcinv.coxeter.enumerate_by_length", no_enumeration)
    code, out, err = run(capsys, "coxeter", "--preset", "affine A2", "--bott", degree)
    assert (code, out) == (2, "")
    assert err.startswith("invalid input: ") and reason in err


PAIRS_WITH_A2 = {
    "finite-A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "hyperbolic-triangle": [[2, -1, -2], [-1, 2, -1], [-2, -1, 2]],
}


@pytest.mark.parametrize(
    "affine, flag, expected",
    [
        ("finite-A3", "--bott", (0, {"bott": False})),
        ("finite-A3", "--altsum", (0, {"altsum": False})),
        ("hyperbolic-triangle", "--bott", (0, {"bott": False})),
        ("hyperbolic-triangle", "--altsum", (2, "proper subset (0, 2) is not finite type")),
    ],
)
def test_coxeter_pair_whose_affine_part_is_not_affine(tmp_path, capsys, affine, flag, expected):
    """Finite part A2 against an affine part of finite or hyperbolic type:
    the identities fail, and the parahoric sum refuses an infinite proper
    subset."""
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"finite": {"cartan": [[2, -1], [-1, 2]]}, "affine": {"cartan": PAIRS_WITH_A2[affine]}}))
    value = {"--bott": "6", "--altsum": "2"}[flag]
    code, out, err = run(capsys, "coxeter", path, flag, value, "--format", "json")
    if expected[0] == 0:
        assert (code, json.loads(out)) == expected
    else:
        assert (code, out) == (2, "") and expected[1] in err


@pytest.mark.parametrize(
    "payload, argv, message",
    [
        ({"affine": {"cartan": [[2, -2], [-2, 2]]}}, ("coxeter", "FILE", "--poincare"),
         "an 'affine' matrix needs its 'finite' part"),
        ([[2, -1], [-1, 2]], ("davis", "FILE"), "expected an 'm' (Coxeter) or 'cartan' matrix"),
        (None, ("davis", SAMPLES / "psl2z.json"), "expected an 'm' (Coxeter) or 'cartan' matrix"),
        ({"m": [[1, 3], [3, 1]]}, ("coxeter", "FILE", "--poincare"), "Cartan JSON needs a 'cartan' matrix"),
        (None, ("coxeter", "--preset", "B2", "--bott", "3"), "--bott needs an affine preset or an 'affine' matrix"),
        (None, ("coxeter", "--preset", "B2", "--altsum", "2"),
         "--altsum needs an affine preset or an 'affine' matrix"),
        (None, ("coxeter", "--preset", "X9", "--poincare"), "unknown finite type preset 'X9'"),
        (None, ("chevalley", "--type", "E9", "--q", "2", "--via-parahorics"), "unknown finite type preset 'E9'"),
        ('{"size": 2, "m": [[1, 1e400], [1e400, 1]]}', ("davis", "FILE"),
         'label m[0][1] = inf is not an integer; an infinite label is "inf" or null'),
        ('{"size": 2, "m": [[1, -1e400], [-1e400, 1]]}', ("davis", "FILE"),
         'label m[0][1] = -inf is not an integer; an infinite label is "inf" or null'),
        (_c4_rep(stable_letters={"e": [[0]]}), ("gog", SAMPLES / "c4_hnn.json", "--cohomology", "FILE"),
         "the stable-letter matrix of ('e', '+') is not invertible"),
        ('{"dim": 1, "vertex_actions": {"v": [[[1]], [[-1]], [[1]], [[-1]]]}, "stable_letters": {"e": [[1e-400]]}}',
         ("gog", SAMPLES / "c4_hnn.json", "--cohomology", "FILE"),
         "the stable-letter matrix of ('e', '+') is not invertible"),
        (REPEATED_LOOP, ("gog", "FILE", "--chi"), "edge id 'e' appears twice"),
        (INT_AND_STRING_ID, ("gog", "FILE"), "edge id '1' appears twice"),
        (REPEATED_GRAPH_EDGES, ("graph", "FILE"), "edge id 0 appears twice"),
    ],
    ids=[
        "affine-without-finite",
        "davis-bare-cartan-list",
        "davis-graph-of-groups",
        "coxeter-m-matrix",
        "preset-B2-bott",
        "preset-B2-altsum",
        "preset-X9",
        "chevalley-E9-via-parahorics",
        "davis-label-1e400",
        "davis-label-minus-1e400",
        "gog-stable-letter-zero",
        "gog-stable-letter-1e-400",
        "gog-repeated-edge-id",
        "gog-int-and-string-edge-id",
        "graph-repeated-edge-id",
    ],
)
def test_decoder_refusals_keep_their_messages(tmp_path, capsys, payload, argv, message):
    path = tmp_path / "input.json"
    if payload is not None:  # a string is the file's text, as json.dumps cannot write 1e400
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    code, out, err = run(capsys, *(path if a == "FILE" else a for a in argv))
    assert (code, out, err) == (2, "", f"invalid input: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("rough-cayley", SAMPLES / "s3_cayley.json", "--radius", "-3"),
        ("gog", SAMPLES / "c4_hnn.json", "--ball", "-2"),
    ],
    ids=lambda argv: str(argv[0]),
)
def test_negative_ball_radius_is_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "radius" in err and "negative" in err


def test_gog_ball_past_the_vertex_cap_is_exit_two_at_once(capsys):
    # the radius-40 ball of the C4 HNN tree has about 2.4e19 vertices
    start = time.perf_counter()
    code, out, err = run(capsys, "gog", SAMPLES / "c4_hnn.json", "--ball", "40")
    assert (code, out) == (2, "")
    assert "BALL_VERTEX_CAP" in err
    assert time.perf_counter() - start < 1


def test_rough_cayley_radius_past_the_whole_graph(capsys):
    argv = ("rough-cayley", SAMPLES / "s3_cayley.json", "--format", "json")
    code, out, _ = run(capsys, *argv, "--radius", "100000000")
    assert code == 0
    assert out == run(capsys, *argv, "--radius", "2")[1]


def _cli_subprocess(*argv, timeout=30):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else ""))
    return subprocess.run(
        [sys.executable, "-m", "tdlcinv.cli", *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=timeout, check=False,
    )


@pytest.mark.parametrize(
    "gog, expected",
    [
        ({"vertices": ["v"], "vertex_groups": {"v": "C2"}, "edges": []}, {"vertices": 1, "geometric_edges": 0}),
        (
            {
                "vertices": ["u", "w"],
                "vertex_groups": {"u": "C2", "w": "C2"},
                "edges": [
                    {"id": "e", "from": "u", "to": "w", "group": "C2", "embed_to": C2_INTO_C2, "embed_from": C2_INTO_C2}
                ],
            },
            {"vertices": 2, "geometric_edges": 1},
        ),
    ],
    ids=["one-vertex", "onto-edge"],
)
def test_gog_ball_radius_past_a_finite_tree_stops(tmp_path, gog, expected):
    # the Bass-Serre tree is a point, or one edge, so a radius of 10**12 is
    # the whole tree; a subprocess lets a timeout end a build that keeps going
    path = tmp_path / "gog.json"
    path.write_text(json.dumps(gog))
    result = _cli_subprocess("gog", path, "--ball", 10**12, "--format", "json")
    assert (result.returncode, result.stderr) == (0, "")
    assert json.loads(result.stdout)["ball"] == dict(expected, tree=True)


def test_gog_ball_just_under_the_vertex_cap_is_built():
    # the radius-R ball of the z_loop line has 2R + 1 vertices; the ball is
    # built in one pass, so 19,999 vertices take well under the timeout
    result = _cli_subprocess("gog", SAMPLES / "z_loop.json", "--ball", 9999, "--format", "json", timeout=10)
    assert (result.returncode, result.stderr) == (0, "")
    assert json.loads(result.stdout)["ball"] == {"vertices": 19999, "geometric_edges": 19998, "tree": True}


@pytest.mark.parametrize("radius", [10000, 10**12])
def test_gog_ball_past_the_vertex_cap_stops_building(radius):
    # the build stops once a 20,001st vertex would be added, whatever the radius
    start = time.perf_counter()
    result = _cli_subprocess("gog", SAMPLES / "z_loop.json", "--ball", radius, timeout=10)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"invalid input: the radius-{radius} ball has more than BALL_VERTEX_CAP = 20000 vertices\n"
    assert time.perf_counter() - start < 2


def test_large_dihedral_preset_is_refused_before_its_table(tmp_path):
    # D100000 has order 200,000; its table would take hours to close
    path = tmp_path / "gog.json"
    path.write_text(json.dumps({"vertices": ["v"], "vertex_groups": {"v": "D100000"}, "edges": []}))
    result = _cli_subprocess("gog", path, timeout=10)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "invalid input: group preset 'D100000' has order 200000, above GROUP_ORDER_CAP = 256\n"


@pytest.mark.parametrize("command", ["homology", "cohomology-c"])
def test_a_simplex_on_30_vertices_is_refused_before_its_closure(tmp_path, command):
    # its closure would have 2**30 - 1 faces; the cap reads that off the size
    path = tmp_path / "simplex.json"
    path.write_text(json.dumps({"vertices": list(range(30)), "maximal_simplices": [list(range(30))]}))
    start = time.perf_counter()
    result = _cli_subprocess(command, path, timeout=10)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "invalid input: the complex's simplices have more than CLOSURE_FACE_CAP = 100000 faces\n"
    assert time.perf_counter() - start < 2


def test_missing_file_is_exit_two(capsys):
    code, _, err = run(capsys, "homology", "no_such_file.json")
    assert code == 2
    assert "does not exist" in err


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (
            ["davis"],
            '{"size": 2, "m": [[1, 3], [3, 1]], "m": [[1, "inf"], ["inf", 1]]}',
            "repeats the key 'm' in one object",
        ),
        (
            ["gog", "--chi"],
            '{"vertices": ["u"], "vertex_groups": {"u": "C2", "u": "C3"}, "edges": []}',
            "repeats the key 'u' in one object",
        ),
        (["davis"], '{"size": 2, "m": [[1, Infinity], [Infinity, 1]]}', "uses Infinity, which is not a JSON number"),
        (["davis"], '{"size": 2, "m": [[1, -Infinity], [-Infinity, 1]]}', "uses -Infinity, which is not"),
        (["davis"], '{"size": 2, "m": [[1, NaN], [NaN, 1]]}', "uses NaN, which is not a JSON number"),
    ],
    ids=["davis-repeated-m", "gog-repeated-vertex-group", "davis-infinity", "davis-minus-infinity", "davis-nan"],
)
def test_repeated_keys_and_non_finite_constants_are_exit_two(tmp_path, capsys, argv, text, message):
    # json alone keeps the last of two equal keys and reads NaN and
    # Infinity as floats: these inputs used to exit 0 with the invariants
    # of another datum, or name the wrong invariant, "must be symmetric"
    path = tmp_path / "input.json"
    path.write_text(text)
    code, out, err = run(capsys, *argv, path)
    assert (code, out) == (2, "")
    assert message in err and repr(str(path)) in err


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda path: path.write_bytes(b"\xff\xfe{}"), "is not UTF-8 text"),
        (lambda path: path.mkdir(), "cannot be read"),
        (lambda path: path.write_text("[" * 100_000), "nests its JSON too deeply"),
        (lambda path: path.write_text("[" + "1" * 5000 + "]"), "Exceeds the limit (4300 digits)"),
    ],
    ids=["not-utf8", "directory", "deep-nesting", "5000-digit-integer"],
)
@pytest.mark.parametrize(
    "argv",
    [["homology"], ["davis"], ["gog", str(SAMPLES / "c4_hnn.json"), "--cohomology"]],
    ids=["homology", "davis", "gog-cohomology"],
)
def test_unreadable_file_is_exit_two(tmp_path, capsys, make, message, argv):
    path = tmp_path / "input.json"
    make(path)
    code, _, err = run(capsys, *argv, path)
    assert code == 2
    assert message in err and repr(str(path)) in err


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
        (
            "gog",
            {
                "vertices": [True, 1.5],
                "vertex_groups": {"True": "C2", "1.5": "C3"},
                "edges": [{"id": "e", "from": True, "to": 1.5, "group": "1"}],
            },
        ),
        ("gog", {"vertices": ["True"], "vertex_groups": {"True": "C2"}, "edges": [{"id": "e", "from": "True", "to": True}]}),
        ("davis", {"size": 2, "m": 5}),
        ("davis", {"size": 2, "m": [5, [2, 1]]}),
        ("davis", {"size": True, "m": [[1]]}),
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
        ("gog --cohomology", _c4_entry("1e100000000")),
        ("gog --cohomology", _c4_entry("1/0")),
        ("gog --cohomology", _c4_rep(vertex_actions={"v": [[[1]], [[-1]], [[1]], [[1]]]})),
        ("coxeter --bott", _affine_a(ABOVE_GENERATOR_CAP - 1)),
        ("coxeter --altsum", _affine_a(ABOVE_GENERATOR_CAP - 1)),
        ("davis", {"size": ABOVE_GENERATOR_CAP, "m": [
            [1 if i == j else "inf" for j in range(ABOVE_GENERATOR_CAP)] for i in range(ABOVE_GENERATOR_CAP)
        ]}),
        ("davis", {"m": [[1 if i == j else "inf" if {i, j} == {0, 1} else 2 for j in range(12)] for i in range(12)]}),
        ("davis", {"m": [[1, 3, 3], [], [3, 3, 1]]}),
        ("davis", {"m": [[1, 3, 3], [3, 1, 3], []]}),
        ("coxeter --exponents", {"cartan": [[2, -1, 0], [], [0, -1, 2]]}),
        ("rough-cayley", 5),
        ("rough-cayley", 5.5),
        ("rough-cayley", True),
        ("rough-cayley", None),
        ("rough-cayley", "group"),
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
        "gog-bool-and-float-vertex-ids",
        "gog-bool-edge-end",
        "davis-m-not-a-list",
        "davis-row-not-a-list",
        "davis-bool-size",
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
        "rep-entry-exponent-above-cap",
        "rep-entry-zero-denominator",
        "rep-vertex-table-not-multiplicative",
        "coxeter-bott-above-generator-cap",
        "coxeter-altsum-above-generator-cap",
        "davis-above-generator-cap",
        "davis-dinf-times-c2-10-above-chamber-simplex-cap",
        "davis-empty-middle-row",
        "davis-empty-last-row",
        "cartan-empty-middle-row",
        "rough-cayley-int",
        "rough-cayley-float",
        "rough-cayley-bool",
        "rough-cayley-null",
        "rough-cayley-string",
    ],
)
def test_malformed_input_is_exit_two(tmp_path, capsys, monkeypatch, request, command, payload):
    classify = CoxeterSystem.degrees

    def whole_set_only(self, subset):
        subset = tuple(subset)
        if len(subset) != self.n:
            raise AssertionError(f"the subset scan classified {subset}")
        return classify(self, subset)

    # every refusal comes before a subset scan classifies anything, but the
    # chamber's size, which is counted from the scan
    counted_from_the_scan = request.node.callspec.id.endswith("chamber-simplex-cap")
    if not counted_from_the_scan:
        monkeypatch.setattr(CoxeterSystem, "degrees", whole_set_only)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    start = time.perf_counter()
    code, out, err = run(capsys, *_argv(command, path))
    assert (code, out) == (2, "")
    assert err.startswith("invalid input: ")
    if counted_from_the_scan:
        # 12,572,070,331 chains, refused before any is listed
        assert "CHAMBER_SIMPLEX_CAP" in err
        assert time.perf_counter() - start < 1
    if request.node.callspec.id.endswith("generator-cap"):
        assert "GENERATOR_CAP" in err
    if request.node.callspec.id.endswith("exponent-above-cap"):
        assert "RATIONAL_EXPONENT_CAP" in err


def _argv(command, path):
    """Command line for ``command`` with ``path`` as its JSON input."""
    if command == "coxeter":
        return command, path, "--poincare"
    if command == "coxeter --exponents":
        return "coxeter", path, "--poincare", "--exponents"
    if command == "coxeter --bott":
        return "coxeter", path, "--bott", "1"
    if command == "coxeter --altsum":
        return "coxeter", path, "--altsum", "2"
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


def _nodes(value, path=()):
    """``(path, node)`` for every node of a JSON document, the root ``()`` first."""
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _nodes(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _nodes(item, path + (index,))


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
        ("davis", json.loads((SAMPLES / "affine_a2_coxeter.json").read_text())),
        ("coxeter --exponents", {"cartan": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]]}),
        ("coxeter --bott", _affine_a(2)),
        ("coxeter --altsum", _affine_a(2)),
        ("homology", json.loads((SAMPLES / "triangle.json").read_text())),
        ("cohomology-c", json.loads((SAMPLES / "triangle.json").read_text())),
        ("relative", json.loads((SAMPLES / "interval_pair.json").read_text())),
    ],
    ids=["graph", "rough-cayley", "gog", "gog-cohomology", "davis", "coxeter", "coxeter-bott", "coxeter-altsum",
         "homology", "cohomology-c", "relative"],
)
def test_fuzzed_leaf_is_exit_zero_or_two(tmp_path, capsys, command, payload):
    """Replacing any one JSON node by a value of another type or range gives
    a result or an invalid-input diagnostic, never an internal error: 150
    random draws on the leaves, and every interior node (the root included)
    replaced by every fuzz value."""
    rng = random.Random(17)
    nodes = list(_nodes(payload))
    leaves = [path for path, node in nodes if not isinstance(node, (dict, list))]
    interior = [path for path, node in nodes if isinstance(node, (dict, list))]
    mutations = [(rng.choice(leaves), rng.choice(FUZZ_LEAVES)) for _ in range(150)]
    mutations += [(path, value) for path in interior for value in FUZZ_LEAVES]
    path_file = tmp_path / "input.json"
    path_file.write_text(json.dumps(payload))
    assert run(capsys, *_argv(command, path_file))[0] == 0
    for path, value in mutations:
        mutated = _replaced(payload, path, value)
        path_file.write_text(json.dumps(mutated))
        code, _, err = run(capsys, *_argv(command, path_file))
        assert code in (0, 2), (mutated, err)

"""Command-line front end.

One subcommand per pipeline; every input is a JSON file except the
chevalley subcommand, which takes a type name and a residue size.  Output
is a human table by default or canonical JSON with ``--format json``
(sorted keys, two-space indent, trailing newline), byte-identical across
runs for identical inputs.

Exit codes: 0 success, 2 invalid input (the diagnostic names the violated
invariant), 1 internal failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import coxeter as cox
from . import davis
from . import euler
from . import graphs_of_groups as gog_mod
from . import serre_graphs
from . import simplicial
from .errors import ValidationError
from .groups import group_from_spec


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise ValidationError(f"input file {path!r} does not exist")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"input file {path!r} is not valid JSON: {exc}")


def _emit(args, payload, lines):
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        for line in lines:
            sys.stdout.write(line + "\n")


def _coxeter_from_file(path):
    data = _read_json(path)
    if "m" in data:
        return cox.load_coxeter(data)
    if "cartan" in data:
        return cox.load_cartan(data).to_coxeter()
    raise ValidationError("expected an 'm' (Coxeter) or 'cartan' matrix")


# -- subcommand handlers --------------------------------------------------------


def cmd_homology(args):
    complex_, _ = simplicial.load_complex(_read_json(args.input))
    complex_.validate()
    dims = complex_.homology()
    payload = {"dims": dims}
    _emit(args, payload, [f"H_{q} dimension {d}" for q, d in enumerate(dims)])
    return 0


def cmd_cohomology_c(args):
    complex_, _ = simplicial.load_complex(_read_json(args.input))
    complex_.validate()
    dims = complex_.cohomology_compact()
    _emit(args, {"dims": dims}, [f"Hc^{q} dimension {d}" for q, d in enumerate(dims)])
    return 0


def cmd_relative(args):
    data = _read_json(args.input)
    if not isinstance(data, dict) or "complex" not in data or "subcomplex" not in data:
        raise ValidationError("relative input needs 'complex' and 'subcomplex'")
    big, id_map = simplicial.load_complex(data["complex"])
    sub_raw = data["subcomplex"]
    if not isinstance(sub_raw, dict):
        raise ValidationError("'subcomplex' must be an object")
    raw_vertices = sub_raw.get("vertices", [])
    if not isinstance(raw_vertices, list):
        raise ValidationError("subcomplex 'vertices' must be a list of ids")
    mapped = simplicial.map_simplices(sub_raw.get("maximal_simplices", []), id_map, "subcomplex")
    mapped += simplicial.map_simplices([[v] for v in raw_vertices], id_map, "subcomplex")
    sub = (
        simplicial.SimplicialComplex.from_maximal(mapped)
        if mapped
        else simplicial.SimplicialComplex.empty()
    )
    dims = simplicial.relative_cohomology(big, sub)
    _emit(args, {"dims": dims}, [f"H^{q}(pair) dimension {d}" for q, d in enumerate(dims)])
    return 0


def cmd_graph(args):
    graph = serre_graphs.load_graph(_read_json(args.input))
    h1, components, is_tree = graph.graph_invariants()
    payload = {"h1": h1, "components": components, "tree": is_tree}
    lines = [
        f"first Betti number {h1}",
        f"components {components}",
        f"tree {'yes' if is_tree else 'no'}",
    ]
    if args.dot:
        lines = [graph.to_dot()]
        payload["dot"] = graph.to_dot()
    _emit(args, payload, lines)
    return 0


def _element_ids(data, key, group):
    ids = data.get(key, [])
    if not isinstance(ids, list) or not all(map(group.is_element, ids)):
        raise ValidationError(f"{key!r} must list element ids 0..{group.order - 1}")
    return ids


def cmd_rough_cayley(args):
    data = _read_json(args.input)
    if "group" not in data:
        raise ValidationError("rough-cayley input needs a 'group'")
    group = group_from_spec(data["group"])
    oracle = serre_graphs.FiniteGroupOracle(group, _element_ids(data, "subgroup_gens", group))
    generators = _element_ids(data, "generators", group)
    closed = sorted(set(generators) | {oracle.inverse(s) for s in generators})
    ball = serre_graphs.rough_cayley_ball(oracle, closed, args.radius)
    h1, components, is_tree = ball.graph_invariants()
    payload = {
        "vertices": len(ball.vertices),
        "geometric_edges": ball.geometric_edge_count(),
        "h1": h1,
        "components": components,
        "tree": is_tree,
    }
    lines = [
        f"ball radius {args.radius}: {len(ball.vertices)} cosets, "
        f"{ball.geometric_edge_count()} geometric edges",
        f"first Betti number {h1}, components {components}",
    ]
    if args.dot:
        payload["dot"] = ball.to_dot()
        lines = [ball.to_dot()]
    _emit(args, payload, lines)
    return 0


def cmd_gog(args):
    gog = gog_mod.load_gog(_read_json(args.input))
    payload = {}
    lines = []
    ran_anything = False
    if args.unimodular:
        verdict = gog.unimodularity_check()
        payload["unimodular"] = verdict
        lines.append(f"unimodular {'yes' if verdict else 'no'}")
        ran_anything = True
    if args.chi:
        value = gog.euler_characteristic()
        payload["chi"] = {"coefficient": str(value.coeff), "base": value.base}
        lines.append(f"Euler characteristic {value}")
        ran_anything = True
    if args.ball is not None:
        ball = gog.bass_serre_ball(args.ball)
        payload["ball"] = {
            "vertices": len(ball.vertices),
            "geometric_edges": ball.geometric_edge_count(),
            "tree": ball.graph_invariants()[2],
        }
        lines.append(
            f"tree ball radius {args.ball}: {len(ball.vertices)} vertices, "
            f"{ball.geometric_edge_count()} edges"
        )
        ran_anything = True
    if args.cohomology is not None:
        rep = _load_representation(_read_json(args.cohomology), gog)
        h0, h1 = gog.tree_action_cohomology(rep)
        payload["cohomology"] = {"h0": h0, "h1": h1}
        lines.append(f"tree-action cohomology h0 {h0}, h1 {h1}")
        ran_anything = True
    if not ran_anything:
        indices = gog.validate()
        payload["indices"] = {str(k): v for k, v in sorted(indices.items(), key=str)}
        lines.append("valid graph of groups; edge image indices:")
        lines.extend(f"  {k}: {v}" for k, v in sorted(indices.items(), key=str))
    _emit(args, payload, lines)
    return 0


def _rational(value):
    """A matrix entry: an ``int`` (not a ``bool``) as it is, or a string or
    float read by ``Fraction(str(value))``."""
    if type(value) is int:
        return value
    if isinstance(value, (str, float)):
        try:
            return Fraction(str(value))
        except ValueError:
            pass
    raise ValidationError(f"matrix entry {value!r} is not a rational number")


def _parse_rational_matrix(rows, dim, owner):
    if not (isinstance(rows, list) and len(rows) == dim):
        raise ValidationError(f"{owner} must be a list of {dim} rows")
    if not all(isinstance(row, list) and len(row) == dim for row in rows):
        raise ValidationError(f"each row of {owner} must be a list of {dim} entries")
    return [[_rational(v) for v in row] for row in rows]


def _load_representation(data, gog):
    if not isinstance(data, dict) or "dim" not in data or "vertex_actions" not in data:
        raise ValidationError("representation JSON needs 'dim' and 'vertex_actions'")
    dim = data["dim"]
    if type(dim) is not int or dim < 0:
        raise ValidationError("representation 'dim' must be a non-negative integer")
    actions = data["vertex_actions"]
    raw_stable = data.get("stable_letters", {})
    if not isinstance(actions, dict) or not isinstance(raw_stable, dict):
        raise ValidationError("'vertex_actions' and 'stable_letters' must be objects")
    vertex_matrices = {}
    for v in gog.graph.vertices:
        if v not in actions:
            raise ValidationError(f"no action given for vertex {v!r}")
        if not isinstance(actions[v], list):
            raise ValidationError(f"the action of vertex {v!r} must be a list of matrices")
        vertex_matrices[v] = [
            _parse_rational_matrix(m, dim, f"a matrix of vertex {v!r}") for m in actions[v]
        ]
    stable = {}
    for e in gog.stable_letters():
        edge_id = e[0]
        if edge_id not in raw_stable:
            raise ValidationError(f"no stable-letter matrix for edge {edge_id!r}")
        stable[e] = _parse_rational_matrix(raw_stable[edge_id], dim, f"the stable letter of {edge_id!r}")
    return gog_mod.PiRepresentation(dim, vertex_matrices, stable)


def cmd_coxeter(args):
    if args.preset:
        if args.preset in cox.AFFINE_CARTAN:
            pair = cox.affine_preset(args.preset)
            finite, affine = pair.finite, pair.affine
        else:
            finite, affine, pair = cox.finite_preset(args.preset), None, None
    else:
        data = _read_json(args.input)
        if "finite" in data or "affine" in data:
            if "finite" not in data:
                raise ValidationError("an 'affine' matrix needs its 'finite' part")
            finite = cox.load_cartan(data["finite"])
            affine = cox.load_cartan(data["affine"]) if "affine" in data else None
            pair = cox.AffineCartanPair(finite, affine) if affine is not None else None
        else:
            finite, affine, pair = cox.load_cartan(data), None, None
    payload = {}
    lines = []
    poly = None
    if args.poincare or args.exponents:
        if not finite.to_coxeter().is_spherical(range(finite.n)):
            raise ValidationError("the Cartan matrix is of infinite type; --poincare and --exponents need finite type")
        poly = cox.poincare_poly(finite)
        payload["poincare"] = list(poly.coeffs)
        lines.append("length counts " + " ".join(str(c) for c in poly.coeffs))
    if args.exponents:
        exps = cox.exponents(poly)
        payload["exponents"] = exps
        lines.append("exponents " + " ".join(str(m) for m in exps))
    if args.bott is not None:
        if affine is None:
            raise ValidationError("--bott needs an affine preset or an 'affine' matrix")
        verdict = cox.bott_check(finite, affine, args.bott)
        payload["bott"] = verdict
        lines.append(f"series identity to degree {args.bott}: {'holds' if verdict else 'FAILS'}")
    if args.altsum is not None:
        if pair is None:
            raise ValidationError("--altsum needs an affine preset or an 'affine' matrix")
        verdict = cox.alternating_sum_identity(pair, args.altsum)
        payload["altsum"] = verdict
        lines.append(f"alternating sum identity at q={args.altsum}: {'holds' if verdict else 'FAILS'}")
    if not payload:
        raise ValidationError("choose at least one of --poincare/--exponents/--bott/--altsum")
    _emit(args, payload, lines)
    return 0


def cmd_davis(args):
    system = _coxeter_from_file(args.input)
    verdict = davis.duality_verdict(system, include_empty=not args.exclude_empty_t)
    payload = verdict.to_json()
    lines = [
        f"cohomological dimension {verdict.cd}",
        f"duality {'yes' if verdict.is_duality else 'no'}",
        "nonzero relative cohomology entries:",
    ]
    for subset, degree, dim in verdict.entries():
        label = "{" + ",".join(str(s) for s in subset) + "}"
        lines.append(f"  T={label} degree {degree} dimension {dim}")
    _emit(args, payload, lines)
    return 0


def cmd_chevalley(args):
    finite = cox.finite_preset(args.type)
    value = euler.chevalley_chi(finite, args.q)
    payload = {
        "type": args.type,
        "q": args.q,
        "coefficient": str(value.coeff),
        "base": value.base,
    }
    lines = [f"chi = {value}"]
    if args.via_parahorics:
        affine_name = f"affine {args.type}"
        if affine_name not in cox.AFFINE_CARTAN and args.type in ("B2",):
            affine_name = "affine C2"
        if affine_name not in cox.AFFINE_CARTAN:
            raise ValidationError(f"no affine preset paired with type {args.type!r}")
        other = euler.chi_via_parahoric_sum(cox.affine_preset(affine_name), args.q)
        payload["parahoric_coefficient"] = str(other.coeff)
        payload["paths_agree"] = other == value
        lines.append(f"parahoric sum {other} ({'agrees' if other == value else 'DISAGREES'})")
    _emit(args, payload, lines)
    return 0


# -- parser ------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tdlcinv",
        description="Exact finite-scale invariants of totally disconnected "
        "locally compact groups",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "json"), default="table")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homology", parents=[common], help="rational homology of a complex")
    p.add_argument("input")
    p.set_defaults(handler=cmd_homology)

    p = sub.add_parser("cohomology-c", parents=[common], help="compactly supported cohomology")
    p.add_argument("input")
    p.set_defaults(handler=cmd_cohomology_c)

    p = sub.add_parser("relative", parents=[common], help="cohomology of a complex pair")
    p.add_argument("input")
    p.set_defaults(handler=cmd_relative)

    p = sub.add_parser("graph", parents=[common], help="edge-boundary invariants of a graph")
    p.add_argument("input")
    p.add_argument("--dot", action="store_true", help="emit DOT instead of numbers")
    p.set_defaults(handler=cmd_graph)

    p = sub.add_parser("rough-cayley", parents=[common], help="coset-graph ball of a finite group")
    p.add_argument("input")
    p.add_argument("--radius", type=int, default=2)
    p.add_argument("--dot", action="store_true")
    p.set_defaults(handler=cmd_rough_cayley)

    p = sub.add_parser("gog", parents=[common], help="graph-of-groups invariants")
    p.add_argument("input")
    p.add_argument("--chi", action="store_true", help="Euler characteristic")
    p.add_argument("--unimodular", action="store_true")
    p.add_argument("--ball", type=int, metavar="R", help="tree ball radius")
    p.add_argument("--cohomology", metavar="REP.json", help="tree-action cohomology")
    p.set_defaults(handler=cmd_gog)

    p = sub.add_parser("coxeter", parents=[common], help="length counts, exponents, identities")
    p.add_argument("input", nargs="?")
    p.add_argument("--preset", help='e.g. "A2" or "affine A2"')
    p.add_argument("--poincare", action="store_true")
    p.add_argument("--exponents", action="store_true")
    p.add_argument("--bott", type=int, metavar="N")
    p.add_argument("--altsum", type=int, metavar="Q")
    p.set_defaults(handler=cmd_coxeter)

    p = sub.add_parser("davis", parents=[common], help="chamber duality verdict of a Coxeter system")
    p.add_argument("input")
    p.add_argument(
        "--exclude-empty-T",
        dest="exclude_empty_t",
        action="store_true",
        help="scan nonempty spherical subsets only",
    )
    p.set_defaults(handler=cmd_davis)

    p = sub.add_parser("chevalley", parents=[common], help="closed-form Euler characteristic")
    p.add_argument("--type", required=True, help="finite type name, e.g. A2")
    p.add_argument("--q", required=True, type=int)
    p.add_argument("--via-parahorics", dest="via_parahorics", action="store_true")
    p.set_defaults(handler=cmd_chevalley)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "coxeter" and not args.preset and not args.input:
        parser.error("coxeter needs an input file or --preset")
    try:
        return args.handler(args)
    except ValidationError as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return 2
    except Exception as exc:  # internal failure
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

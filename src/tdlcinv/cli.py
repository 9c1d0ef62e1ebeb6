"""Command-line front end.

One subcommand per pipeline; every input is a JSON file except the
chevalley subcommand, which takes a type name and a residue size.  Output
is a human table by default or canonical JSON with ``--format json``
(sorted keys, two-space indent, trailing newline), byte-identical across
runs for identical inputs.

The CLI parses arguments, dispatches and writes output.  Each input is
decoded and checked once, by a library ``load_*`` function
(``graphs_of_groups.load_gog``, ``groups.load_rough_cayley``, ...) or
``coxeter.preset``, and not checked again here; ``_read_json`` refuses
a repeated key and the non-JSON constants ``NaN`` and ``±Infinity``.
Each handler returns its JSON payload and its table lines, and ``main``
alone writes them.  Each handler imports the library modules it uses
when it runs, so a subcommand loads only those, and the CLI itself loads
no ``fractions``.

``COMMANDS`` declares each subcommand once.  ``_read_argv`` reads an argv
of the plain form every job uses straight from that table; argparse, in
``build_parser``, is imported only for any other argv, so it alone prints
the help and every usage error.

Exit codes: 0 success, 2 invalid input (the diagnostic names the violated
invariant), 1 internal failure.
"""

import json
import sys
import types

from .errors import ValidationError


def _unique_keys(pairs):
    """One JSON object as a dict, where ``json`` keeps a repeated key's last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValidationError(f"repeats the key {key!r} in one object")
            seen.add(key)
    return obj


def _no_constant(token):
    raise ValidationError(f"uses {token}, which is not a JSON number")


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, object_pairs_hook=_unique_keys, parse_constant=_no_constant)
    except ValidationError as exc:
        raise ValidationError(f"input file {path!r} {exc}")
    except FileNotFoundError:
        raise ValidationError(f"input file {path!r} does not exist")
    except OSError as exc:  # a directory, no read permission, ...
        raise ValidationError(f"input file {path!r} cannot be read: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"input file {path!r} is not UTF-8 text: {exc.reason} at byte {exc.start}")
    except ValueError as exc:  # bad JSON, or an integer over the interpreter's digit limit
        raise ValidationError(f"input file {path!r} is not valid JSON: {exc}")
    except RecursionError:
        raise ValidationError(f"input file {path!r} nests its JSON too deeply to read")


# -- subcommand handlers --------------------------------------------------------


def cmd_homology(args):
    from . import simplicial

    complex_, _ = simplicial.load_complex(_read_json(args.input))
    dims = complex_.homology()
    return {"dims": dims}, [f"H_{q} dimension {d}" for q, d in enumerate(dims)]


def cmd_cohomology_c(args):
    from . import simplicial

    complex_, _ = simplicial.load_complex(_read_json(args.input))
    dims = complex_.cohomology_compact()
    return {"dims": dims}, [f"Hc^{q} dimension {d}" for q, d in enumerate(dims)]


def cmd_relative(args):
    from . import simplicial

    big, sub = simplicial.load_pair(_read_json(args.input))
    dims = simplicial.relative_cohomology(big, sub)
    return {"dims": dims}, [f"H^{q}(pair) dimension {d}" for q, d in enumerate(dims)]


def cmd_graph(args):
    from . import serre_graphs

    graph = serre_graphs.load_graph(_read_json(args.input))
    h1, components, is_tree = graph.graph_invariants()
    payload = {"h1": h1, "components": components, "tree": is_tree}
    lines = [
        f"first Betti number {h1}",
        f"components {components}",
        f"tree {'yes' if is_tree else 'no'}",
    ]
    if args.dot:
        payload["dot"] = graph.to_dot()
        lines = [payload["dot"]]
    return payload, lines


def cmd_rough_cayley(args):
    from . import serre_graphs
    from .groups import load_rough_cayley

    group, subgroup_gens, generators = load_rough_cayley(_read_json(args.input))
    oracle = serre_graphs.FiniteGroupOracle(group, subgroup_gens)
    ball = serre_graphs.rough_cayley_ball(oracle, generators, args.radius)
    h1, components, is_tree = ball.graph_invariants()
    payload = {
        "vertices": len(ball.vertices),
        "geometric_edges": ball.geometric_edge_count(),
        "h1": h1,
        "components": components,
        "tree": is_tree,
    }
    lines = [
        f"ball radius {args.radius}: {payload['vertices']} cosets, {payload['geometric_edges']} geometric edges",
        f"first Betti number {h1}, components {components}",
    ]
    if args.dot:
        payload["dot"] = ball.to_dot()
        lines = [payload["dot"]]
    return payload, lines


def cmd_gog(args):
    from . import graphs_of_groups as gog_mod

    gog = gog_mod.load_gog(_read_json(args.input))
    payload = {}
    lines = []
    # euler_characteristic raises NotUnimodular unless the check passes,
    # so a computed chi answers --unimodular too
    value = gog.euler_characteristic() if args.chi else None
    if args.unimodular:
        verdict = value is not None or gog.unimodularity_check()
        payload["unimodular"] = verdict
        lines.append(f"unimodular {'yes' if verdict else 'no'}")
    if args.chi:
        payload["chi"] = {"coefficient": str(value.coeff), "base": value.base}
        lines.append(f"Euler characteristic {value}")
    if args.ball is not None:
        ball = gog.bass_serre_ball(args.ball)
        vertices, edges = len(ball.vertices), ball.geometric_edge_count()
        payload["ball"] = {"vertices": vertices, "geometric_edges": edges, "tree": ball.graph_invariants()[2]}
        lines.append(f"tree ball radius {args.ball}: {vertices} vertices, {edges} edges")
    if args.cohomology is not None:
        rep = gog_mod.load_representation(_read_json(args.cohomology), gog)
        h0, h1 = gog.tree_action_cohomology(rep)
        payload["cohomology"] = {"h0": h0, "h1": h1}
        lines.append(f"tree-action cohomology h0 {h0}, h1 {h1}")
    if not payload:
        payload["indices"] = {str(k): v for k, v in sorted(gog.indices.items(), key=str)}
        lines.append("valid graph of groups; edge image indices:")
        lines.extend(f"  {k}: {v}" for k, v in payload["indices"].items())
    return payload, lines


def cmd_coxeter(args):
    from . import coxeter as cox

    finite, pair = cox.preset(args.preset) if args.preset else cox.load_weyl_input(_read_json(args.input))
    payload = {}
    lines = []
    if args.poincare or args.exponents:
        poly = cox.poincare_poly(finite)
        payload["poincare"] = list(poly.coeffs)
        lines.append("length counts " + " ".join(str(c) for c in poly.coeffs))
    if args.exponents:
        exps = cox.exponents(finite)
        payload["exponents"] = exps
        lines.append("exponents " + " ".join(str(m) for m in exps))
    if args.bott is not None:
        if pair is None:
            raise ValidationError("--bott needs an affine preset or an 'affine' matrix")
        verdict = cox.bott_check(finite, pair.affine, args.bott)
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
    return payload, lines


def cmd_davis(args):
    from . import davis, diagrams

    system = diagrams.load_system(_read_json(args.input))
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
    return payload, lines


def cmd_chevalley(args):
    from . import coxeter as cox
    from . import euler

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
        other = euler.chi_via_parahoric_sum(cox.affine_pair_of(finite, args.type), args.q)
        payload["parahoric_coefficient"] = str(other.coeff)
        payload["paths_agree"] = other == value
        lines.append(f"parahoric sum {other} ({'agrees' if other == value else 'DISAGREES'})")
    return payload, lines


# -- argv ------------------------------------------------------------------------------


def _option(flag, kind="flag", default=None, metavar=None, required=False, help=None, dest=None):
    """One option row: ``kind`` is "flag" (``store_true``), ``int``, ``str``
    or a tuple of the allowed values; ``dest`` defaults to the flag's name."""
    if kind == "flag":
        default = False
    return flag, kind, dest or flag[2:].replace("-", "_"), default, metavar, required, help


FORMAT = _option("--format", ("table", "json"), "table")

# Each subcommand once: its handler, help, positional ("input", "input?" when
# it may be left out, or None) and options after ``--format``.  build_parser
# and _read_argv both read this table.
COMMANDS = {
    "homology": (cmd_homology, "rational homology of a complex", "input", ()),
    "cohomology-c": (cmd_cohomology_c, "compactly supported cohomology", "input", ()),
    "relative": (cmd_relative, "cohomology of a complex pair", "input", ()),
    "graph": (
        cmd_graph, "edge-boundary invariants of a graph", "input",
        (_option("--dot", help="emit DOT instead of numbers"),),
    ),
    "rough-cayley": (
        cmd_rough_cayley, "coset-graph ball of a finite group", "input",
        (_option("--radius", int, 2), _option("--dot")),
    ),
    "gog": (
        cmd_gog, "graph-of-groups invariants", "input",
        (
            _option("--chi", help="Euler characteristic"),
            _option("--unimodular"),
            _option("--ball", int, metavar="R", help="tree ball radius"),
            _option("--cohomology", str, metavar="REP.json", help="tree-action cohomology"),
        ),
    ),
    "coxeter": (
        cmd_coxeter, "length counts, exponents, identities", "input?",
        (
            _option("--preset", str, help='e.g. "A2" or "affine A2"'),
            _option("--poincare"),
            _option("--exponents"),
            _option("--bott", int, metavar="N"),
            _option("--altsum", int, metavar="Q"),
        ),
    ),
    "davis": (
        cmd_davis, "chamber duality verdict of a Coxeter system", "input",
        (_option("--exclude-empty-T", dest="exclude_empty_t", help="scan nonempty spherical subsets only"),),
    ),
    "chevalley": (
        cmd_chevalley, "closed-form Euler characteristic", None,
        (
            _option("--type", str, required=True, help="finite type name, e.g. A2"),
            _option("--q", int, required=True),
            _option("--via-parahorics"),
        ),
    ),
}


def build_parser():
    """The argparse parser of ``COMMANDS``: it prints the help and every
    usage error."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="tdlcinv",
        description="Exact finite-scale invariants of totally disconnected "
        "locally compact groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, summary, positional, options) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag, kind, dest, default, metavar, required, help_text in (FORMAT, *options):
            if kind == "flag":
                p.add_argument(flag, dest=dest, action="store_true", help=help_text)
            elif isinstance(kind, tuple):
                p.add_argument(flag, dest=dest, choices=kind, default=default)
            else:
                p.add_argument(
                    flag, dest=dest, type=kind, default=default, metavar=metavar, required=required, help=help_text
                )
        if positional:
            p.add_argument("input", nargs="?" if positional == "input?" else None)
        p.set_defaults(handler=handler)
    return parser


def _read_argv(argv):
    """The namespace ``build_parser().parse_args(argv)`` would give, when
    ``argv`` takes the plain form: a subcommand, then exact option names
    as separate tokens, each value after its option, not starting with
    ``-`` and converted, every required value given and at most one
    positional (for coxeter, exactly one of it and ``--preset``).  None for
    any other argv, which ``main`` hands to argparse.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    handler, _, positional, options = COMMANDS[argv[0]]
    rows = {row[0]: row for row in (FORMAT, *options)}
    values = {dest: default for _, _, dest, default, *_ in rows.values()}
    inputs = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            inputs.append(token)
            continue
        if token not in rows:
            return None
        _, kind, dest, *_ = rows[token]
        if kind == "flag":
            values[dest] = True
            continue
        value = next(tokens, "-")  # a missing value reads as an option
        if value.startswith("-"):
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif isinstance(kind, tuple) and value not in kind:
            return None
        values[dest] = value
    if any(required and values[dest] is None for _, _, dest, _, _, required, _ in rows.values()):
        return None
    if len(inputs) > (positional is not None) or positional == "input" and not inputs:
        return None
    if positional:
        values["input"] = inputs[0] if inputs else None
    if argv[0] == "coxeter" and bool(values["input"]) == bool(values["preset"]):
        return None
    return types.SimpleNamespace(command=argv[0], handler=handler, **values)


def main(argv=None):
    args = _read_argv(sys.argv[1:] if argv is None else argv)
    if args is None:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.command == "coxeter" and not args.preset and not args.input:
            parser.error("coxeter needs an input file or --preset")
        if args.command == "coxeter" and args.preset and args.input:
            parser.error("coxeter takes an input file or --preset, not both")
    try:
        payload, lines = args.handler(args)
        if args.format == "json":
            sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        else:
            for line in lines:
                sys.stdout.write(line + "\n")
    except ValidationError as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return 2
    except Exception as exc:  # internal failure
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

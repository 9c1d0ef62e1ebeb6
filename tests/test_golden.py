"""Byte-for-byte CLI output on the samples and presets.

Each case runs one ``tdlcinv`` command in ``table`` and in ``json`` format
and compares its stdout and exit code with the files under
``tests/golden/``: ``<case>.<format>.out`` holds the stdout bytes and
``exit_codes.json`` the exit code of each ``<case>.<format>``.

To regenerate the files after an intended change of output, run
``PYTHONPATH=src python tests/test_golden.py``.

The same inputs drive a repeated-key probe: each case's JSON files, with
one key of one object given twice, must be refused with exit 2.
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from tdlcinv.cli import main

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "samples"
GOLDEN = Path(__file__).resolve().parent / "golden"
FORMATS = ("table", "json")

# argv with sample paths relative to the repository root
CASES = {
    "davis-notdu": ("davis", "samples/notdu.json"),
    "davis-notdu-exclude-empty": ("davis", "samples/notdu.json", "--exclude-empty-T"),
    "davis-affine-a2": ("davis", "samples/affine_a2_coxeter.json"),
    "homology-triangle": ("homology", "samples/triangle.json"),
    "cohomology-c-triangle": ("cohomology-c", "samples/triangle.json"),
    "relative-interval-pair": ("relative", "samples/interval_pair.json"),
    "graph-triangle": ("graph", "samples/triangle_graph.json"),
    "graph-triangle-dot": ("graph", "samples/triangle_graph.json", "--dot"),
    "rough-cayley-s3": ("rough-cayley", "samples/s3_cayley.json"),
    "rough-cayley-s3-radius-2": ("rough-cayley", "samples/s3_cayley.json", "--radius", "2"),
    "gog-psl2z": ("gog", "samples/psl2z.json"),
    "gog-psl2z-chi": ("gog", "samples/psl2z.json", "--chi"),
    "gog-psl2z-chi-unimodular": ("gog", "samples/psl2z.json", "--chi", "--unimodular"),
    "gog-z-loop-chi": ("gog", "samples/z_loop.json", "--chi"),
    "gog-c4-hnn-ball-cohomology": (
        "gog", "samples/c4_hnn.json", "--ball", "2", "--cohomology", "samples/c4_hnn_rep.json",
    ),
    "homology-missing-file": ("homology", "samples/no_such_file.json"),
    **{
        f"coxeter-{name}": ("coxeter", "--preset", name, "--poincare", "--exponents")
        for name in ("A1", "A2", "A3", "A4", "B2", "C2", "B3", "G2", "D4", "F4")
    },
    **{
        f"coxeter-affine-{name}": (
            "coxeter", "--preset", f"affine {name}", "--poincare", "--exponents",
            "--bott", "8", "--altsum", "2",
        )
        for name in ("A1", "A2", "A3", "C2", "G2")
    },
    **{
        f"chevalley-{name}-q2": ("chevalley", "--type", name, "--q", "2", "--via-parahorics")
        for name in ("A1", "A2", "A3", "B2", "C2", "G2")
    },
    **{
        f"chevalley-{name}-q3": ("chevalley", "--type", name, "--q", "3")
        for name in ("A4", "B3", "D4", "F4")
    },
}


def _run(argv):
    """Exit code, stdout bytes and stderr text of ``main(argv)``, in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue().encode("utf-8"), err.getvalue()


def run_case(case, fmt):
    """Exit code and stdout bytes of one case, run in-process."""
    argv = [str(ROOT / a) if a.startswith("samples/") else a for a in CASES[case]]
    return _run(argv + ["--format", fmt])[:2]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, fmt):
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    code, out = run_case(case, fmt)
    assert code == codes[f"{case}.{fmt}"]
    assert out == (GOLDEN / f"{case}.{fmt}.out").read_bytes()


# the golden cases that read a JSON file, with the argv positions of the files
INPUTS = {
    case: [k for k, a in enumerate(argv) if a.startswith("samples/") and (ROOT / a).is_file()]
    for case, argv in CASES.items()
}
INPUT_CASES = sorted(case for case, positions in INPUTS.items() if positions)
REPEAT = "\0repeat"  # stands in for the repeated key until the text is written


def test_every_sample_is_the_input_of_a_golden_case():
    used = {CASES[case][k] for case in INPUT_CASES for k in INPUTS[case]}
    assert {f"samples/{path.name}" for path in SAMPLES.glob("*.json")} <= used


def _objects(value, path=()):
    """The path of every JSON object in ``value``, outermost first."""
    if isinstance(value, dict):
        yield path
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _objects(item, path + (key,))


def _at(document, path):
    for step in path:
        document = document[step]
    return document


def _with_repeated_key(document, path, key, other):
    """JSON text of ``document`` whose object at ``path`` gives ``key`` a
    second time, last, with the value ``other``."""
    copy = json.loads(json.dumps(document))
    _at(copy, path)[REPEAT] = other
    return json.dumps(copy).replace(json.dumps(REPEAT), json.dumps(key))


@pytest.mark.parametrize("case", INPUT_CASES)
def test_a_repeated_key_is_exit_two_in_every_object(case, tmp_path):
    """One input file of the case at a time, rewritten: as it is, it still
    gives the golden bytes; with one key of one JSON object repeated (a
    seeded key per object, with another value), it is refused with exit 2
    and the key named."""
    rng = random.Random(case)
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    argv = [ROOT / a if a.startswith("samples/") else a for a in CASES[case]]
    for k in INPUTS[case]:
        document = json.loads(argv[k].read_text(encoding="utf-8"))
        path = tmp_path / argv[k].name
        changed = argv[:k] + [path] + argv[k + 1 :]
        path.write_text(json.dumps(document))
        for fmt in FORMATS:
            code, out, _ = _run(changed + ["--format", fmt])
            assert (code, out) == (codes[f"{case}.{fmt}"], (GOLDEN / f"{case}.{fmt}.out").read_bytes())
        objects = [p for p in _objects(document) if _at(document, p)]
        assert objects
        for where in objects:
            target = _at(document, where)
            key = rng.choice(sorted(target))
            other = rng.choice([v for v in (0, 2, "x", [], {}, None, True) if json.dumps(v) != json.dumps(target[key])])
            path.write_text(_with_repeated_key(document, where, key, other))
            code, out, err = _run(changed)
            assert (code, out) == (2, b""), (where, key)
            assert f"repeats the key {key!r} in one object" in err and repr(str(path)) in err


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for case in sorted(CASES):
        for fmt in FORMATS:
            codes[f"{case}.{fmt}"], out = run_case(case, fmt)
            (GOLDEN / f"{case}.{fmt}.out").write_bytes(out)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
    sys.exit(0)

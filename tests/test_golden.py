"""Byte-for-byte CLI output on the samples and presets.

Each case runs one ``tdlcinv`` command in ``table`` and in ``json`` format
and compares its stdout and exit code with the files under
``tests/golden/``: ``<case>.<format>.out`` holds the stdout bytes and
``exit_codes.json`` the exit code of each ``<case>.<format>``.

To regenerate the files after an intended change of output, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
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


def run_case(case, fmt):
    """Exit code and stdout bytes of one case, run in-process."""
    argv = [str(ROOT / a) if a.startswith("samples/") else a for a in CASES[case]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--format", fmt])
    return code, out.getvalue().encode("utf-8")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, fmt):
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    code, out = run_case(case, fmt)
    assert code == codes[f"{case}.{fmt}"]
    assert out == (GOLDEN / f"{case}.{fmt}.out").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for case in sorted(CASES):
        for fmt in FORMATS:
            codes[f"{case}.{fmt}"], out = run_case(case, fmt)
            (GOLDEN / f"{case}.{fmt}.out").write_bytes(out)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
    sys.exit(0)

"""The command line's argv handling against ``oracles.reference_parser``,
the parser written out by hand.

``main`` must print the reference's help and usage errors byte for byte,
with its exit codes, and ``cli._read_argv`` must return the reference's
namespace or None.  The outputs are compared with the reference's, not
with stored files, so the tests hold on every Python whose argparse the
package supports.
"""

import collections
import contextlib
import io
import random

import pytest

from tdlcinv import cli
from tdlcinv.cli import main

from oracles import reference_parser

# written out, not read from the CLI, so that these pins hold for any parser
SUBCOMMANDS = (
    "homology", "cohomology-c", "relative", "graph", "rough-cayley", "gog", "coxeter", "davis", "chevalley",
)


def reference_args(argv, parser=None):
    """The reference parser's namespace for ``argv``, after the coxeter
    check of ``main``; ``SystemExit`` for help and usage errors."""
    parser = parser or reference_parser()
    args = parser.parse_args(argv)
    if args.command == "coxeter" and not args.preset and not args.input:
        parser.error("coxeter needs an input file or --preset")
    if args.command == "coxeter" and args.preset and args.input:
        parser.error("coxeter takes an input file or --preset, not both")
    return args


def outcome(run, argv):
    """``(exit code, stdout, stderr)`` of ``run(argv)``, which must exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.raises(SystemExit) as info:
        run(list(argv))
    return info.value.code, out.getvalue(), err.getvalue()


PARSER_CASES = [
    ["--help"],
    *([command, "--help"] for command in SUBCOMMANDS),
    [],
    ["no-such-command"],
    *([command] for command in SUBCOMMANDS),  # each one's missing-argument error
    ["homology", "in.json", "--no-such-option"],
    ["chevalley", "--type", "A2", "--q", "x"],
    ["homology", "in.json", "--format", "xml"],
    ["coxeter", "--poincare"],
    ["coxeter", "in.json", "--preset", "A2", "--poincare"],
]


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_help_and_usage_errors_are_the_reference_parsers(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    expected = outcome(reference_args, argv)
    assert expected[0] in (0, 2)
    assert outcome(main, argv) == expected


# -- the argv reader against the reference ----------------------------------------

# values of each kind of option: those of the plain form, then any
FORMATS = cli.FORMAT[1]
PLAIN = {int: ("0", "2", "7", "12", " 3", "+4", "1_0", "٣"), str: ("A2", "affine A2", "x=y", "a b"), FORMATS: FORMATS}
VALUES = {
    int: (*PLAIN[int], "x", "", "3.5", "-1", "- 2", "1e3"),
    str: (*PLAIN[str], "", "-x", "--dot", "-", "--"),
    FORMATS: (*FORMATS, "xml", "", "JSON", "-json"),
}
POSITIONALS = ("", "x=y", "-", "-1", "--", "-x", "-h", " -x", "homology")
STRAYS = ("-h", "--help", "--", "-", "--no-such-option", "-x", "--format=json", "--d")


def _plain_argv(rng, command):
    """An argv of the plain form: exact option names, converted values, the
    required values and the positional present, in a shuffled order."""
    _, _, positional, options = cli.COMMANDS[command]
    groups = []
    for flag, kind, _, _, _, required, _ in (cli.FORMAT, *options):
        if flag == "--preset" or not required and rng.random() < 0.5:
            continue
        if kind == "flag":
            groups.append([flag])
        else:
            groups.append([flag, rng.choice(PLAIN[kind])])
    if command == "coxeter":
        groups.append(["--preset", "A2"] if rng.random() < 0.5 else ["in.json"])
    elif positional:
        groups.append(["in.json"])
    rng.shuffle(groups)
    return [command, *(token for group in groups for token in group)]


def _option_tokens(rng, flag, kind):
    """One option as drawn: its exact name or a prefix of it, its value
    next or after ``=``, or the value left out."""
    name = flag if rng.random() < 0.85 else flag[: rng.randrange(3, len(flag) + 1)]
    if kind == "flag":
        return [name] if rng.random() < 0.9 else [name + "=" + rng.choice(("1", "", "x"))]
    value = rng.choice(PLAIN[kind] if rng.random() < 0.6 else VALUES[kind])
    if rng.random() < 0.1:
        return [name + "=" + value]
    return [name] if rng.random() < 0.05 else [name, value]


def _drawn_argv(rng):
    """An argv drawn from ``COMMANDS``, valid or not."""
    command = rng.choice(list(cli.COMMANDS))
    _, _, _, options = cli.COMMANDS[command]
    rows = (cli.FORMAT, *options)
    groups = [_option_tokens(rng, flag, kind) for flag, kind, *_ in rng.sample(rows, rng.randrange(len(rows) + 1))]
    if rng.random() < 0.15:  # a repeated option
        flag, kind, *_ = rng.choice(rows)
        groups.append(_option_tokens(rng, flag, kind))
    for _ in range(rng.choice((0, 1, 1, 1, 2))):
        groups.append(["in.json" if rng.random() < 0.6 else rng.choice(POSITIONALS)])
    if rng.random() < 0.15:
        groups.append([rng.choice(STRAYS)])
    rng.shuffle(groups)
    argv = [token for group in groups for token in group]
    roll = rng.random()
    if roll < 0.05:
        return argv  # no subcommand
    if roll < 0.1:
        return [rng.choice(("-h", "--help", "--format", "no-such-command", command[:3], "")), command, *argv]
    return [command, *argv]


def _compare(argv, parser):
    """``(the reference accepts argv, the reader answers it)``; fails the
    test unless the reader's answer is None or the reference's namespace."""
    read = cli._read_argv(argv)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            expected = vars(reference_args(argv, parser))
        except SystemExit:
            expected = None
    if read is not None:
        assert vars(read) == expected, argv
    return expected is not None, read is not None


def test_reader_returns_the_reference_namespace_or_none():
    rng = random.Random(2101)
    parser = reference_parser()
    outcomes = collections.Counter(_compare(_drawn_argv(rng), parser) for _ in range(2400))
    # drawn on every side: rejected, read, and valid but left to argparse
    assert min(outcomes[False, False], outcomes[True, True], outcomes[True, False]) > 200, outcomes


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_reader_answers_every_plain_argv(command):
    rng = random.Random(f"plain {command}")
    parser = reference_parser()
    for _ in range(60):
        argv = _plain_argv(rng, command)
        assert _compare(argv, parser) == (True, True), argv

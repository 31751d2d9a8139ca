"""Argv fuzzing: every command line either returns or exits with a code of
the 0-4 contract, and no other exception escapes `main`."""

import contextlib
import io
import os
import sys

import pytest
from hypothesis import given, settings, strategies as st

from philab.cli import (
    COMMANDS,
    EXIT_BAD_SPEC,
    EXIT_PARSE,
    EXIT_RESOURCE,
    EXIT_VIOLATION,
    build_parser,
    main,
)
from philab.errors import InvariantError, PhilabError, ResourceLimitError, StructureParseError

from conftest import S1_TEXT

GENS = ["shattered:1", "shattered:2", "linear:3", "random", "random:intervals:0:6:3",
        "random:intervals:0:6", "shattered:", "eqrel:", "pentagon:5"]
SOURCE = {"-i": ["s1.phi", "missing.phi", ".", "non_utf8.phi"], "--gen": GENS,
          "--format": ["json", "text", "xml"]}
TYPE = {"--of": ["0", "1", "3", "-1"], "--over": ["B", "ALL", "0,1", "0,0", "1", "5", ""],
        "--lits": ["0=1", "0=1,1=0", "b0=1", "bby0=1", "0=2", "0=1,0=0"]}
K_SAT = {"--k-sat": ["all", "1", "2", "0"]}
COMMAND_FLAGS = {
    "id": {**SOURCE, "--cap": ["full", "0", "2", "-1"]},
    "types": {**SOURCE, "--over": TYPE["--over"]},
    "isolate": {**SOURCE, **TYPE, **K_SAT},
    "config": {**SOURCE, **TYPE, **K_SAT, "--strategy": ["greedy", "exhaustive", "bogus"]},
    "define": {**SOURCE, **TYPE},
    "embed": {**SOURCE, **K_SAT, "--element": ["0", "3", "99", "-1"]},
    "gen": {"--gen": GENS, "-o": ["out.phi", "missing/out.phi", "."]},
    "verify": {**SOURCE, "--suite": ["bound", "shatter", "defining", "budget", "nope"],
               "--seeds": ["0", "0..1", "5..1", ",", "a..b"]},
}
FLAGS = sorted({flag for flags in COMMAND_FLAGS.values() for flag in flags} | {"--help"})
JUNK = ["", "-", "--", "x", "..", "=", "abc", "--nope", "1e3"]


@st.composite
def argvs(draw):
    """A command (or junk) followed by mostly well-formed options of that
    command, with junk values and stray tokens mixed in."""
    if draw(st.integers(0, 7)):
        command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    else:
        command = draw(st.sampled_from(JUNK))
    flags = COMMAND_FLAGS.get(command, {})
    argv = [command]
    if flags and draw(st.integers(0, 5)):
        argv += ["--gen", draw(st.sampled_from(GENS))]
    for _ in range(draw(st.integers(0, 4))):
        if flags and draw(st.integers(0, 5)):
            flag = draw(st.sampled_from(sorted(flags)))
            argv += [flag, draw(st.sampled_from(flags[flag] + JUNK[:3]))]
        else:
            argv.append(draw(st.sampled_from(FLAGS + JUNK)))
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    # relative paths in the drawn argv (inputs and -o targets) land here
    path = tmp_path_factory.mktemp("argv")
    (path / "s1.phi").write_text(S1_TEXT)
    (path / "non_utf8.phi").write_bytes(b"\xff\xfe\x00")
    old = os.getcwd()
    os.chdir(path)
    yield path
    os.chdir(old)


@given(argv=argvs())
@settings(max_examples=500, deadline=None)
def test_argv_stays_inside_the_exit_contract(workdir, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2, 3, 4), argv


def main_with_fresh_parser(argv):
    """`main` as it was before its parser was shared: one parser per call."""
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except StructureParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except PhilabError as exc:
        print(f"bad spec: {exc}", file=sys.stderr)
        return EXIT_BAD_SPEC


def outcome(entry, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = entry(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# a usage error (exit 4), help (exit 0), and the two commands whose --over
# defaults differ (B for isolate, ALL for types), each run with that default
FIXED = [
    ["isolate", "--gen", "shattered:2", "--of", "1", "--format", "json"],
    ["types", "--gen", "shattered:2", "--format", "json"],
    ["isolate", "--nope"],
    ["types", "--over"],
    ["--help"],
    ["isolate", "--help"],
]


@given(argv_list=st.lists(st.one_of(argvs(), st.sampled_from(FIXED)), min_size=2, max_size=6))
@settings(max_examples=60, deadline=None)
def test_shared_parser_answers_like_a_fresh_one(workdir, argv_list):
    for argv in argv_list:
        assert outcome(main, argv) == outcome(main_with_fresh_parser, argv), argv

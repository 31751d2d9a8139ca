"""Argv fuzzing: every command line either returns or exits with a code of
the 0-4 contract, and no other exception escapes `main`."""

import os

import pytest
from hypothesis import given, settings, strategies as st

from philab.cli import main

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

"""Fuzzing the command line with mutated series texts and graph files.

Every input must end in exit 0, 2 (bad or oversized input) or 3 (a
failed self-check) within a time budget: never a traceback, never exit 1
(which means "not equivalent") and never exit 4 (an internal error).

Tier-1 runs a fixed, seeded share of a few seconds.  The scheduled CI job
runs ``pytest --hypothesis-profile fuzz tests/test_fuzz.py``; that
profile, registered in conftest.py, sets twenty times the examples, drawn
afresh on each run.
"""

import io
import re
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from planevals import (default_spec, expand, graph_to_json, poincare_series,
                       random_instance, series_to_text)
from planevals.cli import main

from conftest import FUZZ_EXAMPLES

ALLOWED_EXITS = {0, 2, 3}
BUDGET_S = 5.0

if settings.get_current_profile_name() == "fuzz":
    fuzz_settings = settings()
else:
    fuzz_settings = settings(max_examples=FUZZ_EXAMPLES, derandomize=True)


GRAPHS = [random_instance(seed, 10, 1 + seed % 3,
                          ("divisorial", "curve")[seed % 2])
          for seed in range(6)]
SERIES = [poincare_series(g, default_spec(g)) for g in GRAPHS]
SERIES_TEXTS = ([series_to_text(p) for p in SERIES]
                + [series_to_text(expand(p, 10)) for p in SERIES])
GRAPH_TEXTS = [graph_to_json(g) for g in GRAPHS]

_NUMBER = re.compile(r"-?\d+")


def _edit_number(line: str, pick: int, edit) -> str:
    spans = [m.span() for m in _NUMBER.finditer(line)]
    if not spans:
        return line
    a, b = spans[pick % len(spans)]
    return line[:a] + str(edit(int(line[a:b]))) + line[b:]


def _mutate(text: str, mutations) -> str:
    lines = text.splitlines()
    for kind, at, pick, k in mutations:
        i = at % len(lines)
        if kind == "bump":
            lines[i] = _edit_number(lines[i], pick, lambda v: v + 10 ** k)
        elif kind == "flip":
            lines[i] = _edit_number(lines[i], pick, lambda v: -v)
        elif kind == "zero":
            lines[i] = _edit_number(lines[i], pick, lambda v: 0)
        elif kind == "drop" and len(lines) > 1:
            del lines[i]
        elif kind == "dup":
            lines.insert(i, lines[i])
        elif kind == "vars" and lines[0].startswith("vars "):
            lines[0] = re.sub(r"^vars -?\d+", f"vars {k}", lines[0])
    return "\n".join(lines) + "\n"


mutations = st.lists(st.tuples(
    st.sampled_from(("bump", "flip", "zero", "drop", "dup", "vars")),
    st.integers(0, 200), st.integers(0, 20), st.integers(0, 40)),
    min_size=1, max_size=3)


def run_cli(argv, stdin_text):
    """Exit code and seconds of ``planevals argv`` reading ``-`` from
    stdin_text, with its output discarded."""
    sink = io.StringIO()
    old = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            start = time.perf_counter()
            code = main(argv)
            return code, time.perf_counter() - start, sink.getvalue()
    finally:
        sys.stdin = old


def check(argv, text):
    code, seconds, output = run_cli(argv, text)
    assert code in ALLOWED_EXITS, (argv, text, output)
    assert seconds < BUDGET_S, (argv, text, seconds)


@fuzz_settings
@given(st.integers(0, len(SERIES_TEXTS) - 1), mutations,
       st.sampled_from(("div", "curve")), st.sampled_from((None, 4, 10)))
def test_mutated_series_texts(which, edits, mode, bound):
    argv = ["reconstruct", "-", "--mode", mode]
    if bound is not None:
        argv += ["--bound", str(bound)]
    check(argv, _mutate(SERIES_TEXTS[which], edits))


@fuzz_settings
@given(st.integers(0, len(GRAPH_TEXTS) - 1), mutations)
def test_mutated_graph_files(which, edits):
    text = _mutate(GRAPH_TEXTS[which], edits)
    for argv in (["series", "-"], ["series", "-", "--expand", "--bound", "6"],
                 ["oracle-check", "-", "--bound", "6"]):
        check(argv, text)

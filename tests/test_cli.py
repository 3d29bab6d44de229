"""Command-line surface: flags, files, exit codes, report formats."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import planevals
from planevals import cli, equivalent, graph_from_json, series_from_text
from planevals.cli import main
from planevals.dualgraph import MAX_VERTICES
from planevals.series import _TOKEN_LINES, MAX_CELLS

from conftest import (CUSP_DIV, CUSP_MARKS3, CUSP_PAIR, TACNODE, clear_memos,
                      series_of, spy_on)
from planevals import (FactoredSeries, default_spec, expand, factorize,
                       graph_to_json, random_instance, series_to_text)
from planevals.oracle import OracleError, definitional_poincare
from planevals.reconstruct import BranchData, graph_from_branch


def write(tmp_path, name, text):
    f = tmp_path / name
    f.write_text(text)
    return str(f)


def test_gen_is_deterministic(tmp_path, capsys):
    assert main(["gen", "--mode", "div", "--seed", "7",
                 "--max-vertices", "12", "--r", "2"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--mode", "div", "--seed", "7",
                 "--max-vertices", "12", "--r", "2"]) == 0
    assert capsys.readouterr().out == first
    g = graph_from_json(first)
    assert len(g.marked_divisors) == 2


def test_gen_writes_file(tmp_path):
    out = str(tmp_path / "g.json")
    assert main(["gen", "--mode", "curve", "--seed", "3", "--r", "1",
                 "--out", out]) == 0
    g = graph_from_json(open(out).read())
    assert len(g.arrows) == 1


def test_series_factored_and_expanded(tmp_path, capsys):
    path = write(tmp_path, "g.json", graph_to_json(CUSP_DIV))
    assert main(["series", path]) == 0
    out = capsys.readouterr().out
    assert series_from_text(out) == series_of(CUSP_DIV)

    assert main(["series", path, "--expand", "--bound", "7"]) == 0
    out = capsys.readouterr().out
    s = series_from_text(out)
    assert [s[(k,)] for k in range(8)] == [1, 0, 1, 1, 1, 1, 2, 1]


def test_series_expand_requires_bound(tmp_path, capsys):
    # the flags are checked before the graph is read, so a missing file or
    # an invalid graph reports the usage error too
    for path in (write(tmp_path, "g.json", graph_to_json(CUSP_DIV)),
                 str(tmp_path / "missing.json"),
                 write(tmp_path, "bad.json", "{not json")):
        assert main(["series", path, "--expand"]) == 2
        assert capsys.readouterr() == ("",
                                       "error: --expand requires --bound\n")
        # and a bound without --expand would be ignored, so it is refused
        # too
        assert main(["series", path, "--bound", "5"]) == 2
        assert capsys.readouterr() == ("",
                                       "error: --bound requires --expand\n")


def test_reconstruct_roundtrip_via_files(tmp_path, capsys):
    gpath = write(tmp_path, "g.json", graph_to_json(CUSP_PAIR))
    spath = str(tmp_path / "p.txt")
    assert main(["series", gpath, "--out", spath]) == 0
    hpath = str(tmp_path / "h.json")
    assert main(["reconstruct", spath, "--mode", "div",
                 "--out", hpath]) == 0
    assert equivalent(graph_from_json(open(hpath).read()), CUSP_PAIR)
    assert main(["equiv", gpath, hpath]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "equivalent"


def test_reconstruct_accepts_expanded_input(tmp_path, capsys):
    p = series_of(TACNODE)
    from planevals import expand
    text = series_to_text(expand(p, 12))
    spath = write(tmp_path, "p.txt", text)
    assert main(["reconstruct", spath, "--mode", "curve"]) == 0
    g = graph_from_json(capsys.readouterr().out)
    assert equivalent(g, TACNODE)


def test_reconstruct_rejects_undecodable(tmp_path, capsys):
    spath = write(tmp_path, "p.txt",
                  "vars 1 mode factored bound 0\n-1 2\n-1 4\n")
    assert main(["reconstruct", spath, "--mode", "div"]) == 2
    assert "error:" in capsys.readouterr().err


def test_tampered_pair_series_is_undecodable(tmp_path, capsys):
    # both one-variable projections are valid and one candidate contact
    # fits the two chains, but its graph does not reproduce the series:
    # the one check refuses it as a failed self-check (exit 3)
    spath = write(tmp_path, "p.txt", "vars 2 mode factored bound 0\n"
                  "-1 1 3\n-1 3 1\n-1 3 2\n1 3 3\n")
    assert main(["reconstruct", spath, "--mode", "div"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("verification failure: assembled graph "
                           "reproduces ")


def test_many_tampered_poles_are_refused_promptly(tmp_path, capsys):
    # 2000 quadruples (a,b+d)^-1 (a',b'+d)^-1 (a,b'+d)^+1 (a',b+d)^+1 on the
    # poles (2, 3) and (3, 4) of a valid pair series keep both one-variable
    # projections valid; the maximal exponents of the 8004 factors are
    # found without comparing every pair of them
    p = series_of(random_instance(0, 12, 2, "divisorial"))
    facs = p.factors()
    assert facs[(2, 3)] == facs[(3, 4)] == -1
    for d in range(1000, 2000001, 1000):
        facs.update({(2, 3 + d): -1, (3, 4 + d): -1,
                     (2, 4 + d): 1, (3, 3 + d): 1})
    assert len(facs) == 8004
    path = write(tmp_path, "p.txt", series_to_text(FactoredSeries(2, facs)))
    start = time.perf_counter()
    assert main(["reconstruct", path, "--mode", "div"]) == 3
    assert time.perf_counter() - start < 1.0
    # the failed check names factor counts and the first difference, not
    # every factor
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("verification failure: assembled graph ")
    assert len(line) < 1000


def test_equiv_distinguishes(tmp_path, capsys):
    a = write(tmp_path, "a.json", graph_to_json(CUSP_DIV))
    b = write(tmp_path, "b.json",
              graph_to_json(CUSP_PAIR))
    assert main(["equiv", a, b]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "not equivalent"


def test_roundtrip_report_format(capsys):
    assert main(["roundtrip", "--mode", "curve", "--trials", "4",
                 "--seed", "11", "--max-vertices", "12"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    for k, line in enumerate(lines[:4]):
        fields = dict(kv.split("=") for kv in line.split())
        assert fields["trial"] == str(k)
        assert fields["seed"] == str(11 + k)
        assert fields["status"] == "ok"
    assert lines[4] == "total=4 failures=0"


# sha256 of the standard output of `planevals roundtrip --mode M --trials
# 400 --seed 1`, taken before the decodes and the forward series were
# cached; about four in ten of these trials repeat a series
ROUNDTRIP_DIGESTS = {
    "div": "412859d10cc627a86b01e47110628ed3edef09fa764e66bfa89b92b86c978d26",
    "curve":
        "8b3cca41885874b091fcefa4dd8b8f7f1074cc53753cdaba833f99370fbfa4be",
}


@pytest.mark.parametrize("mode", sorted(ROUNDTRIP_DIGESTS))
def test_cached_round_trips_print_what_uncached_ones_did(capsys, mode):
    # once from empty caches, and once more with every series cached
    clear_memos()
    for _ in range(2):
        assert main(["roundtrip", "--mode", mode, "--trials", "400",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            ROUNDTRIP_DIGESTS[mode])


def test_roundtrip_refuses_a_negative_trial_count(capsys):
    assert main(["roundtrip", "--mode", "div", "--trials", "-2",
                 "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: --trials must not be negative"]


@pytest.mark.parametrize("r", ["0", "-1"])
def test_roundtrip_refuses_a_valuation_count_below_one(capsys, r):
    # refused before any trial runs, whatever the trial count
    for trials in ("3", "0"):
        assert main(["roundtrip", "--mode", "div", "--trials", trials,
                     "--seed", "1", "--r", r]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: --r must be at least 1"]


def test_oracle_check_reports_match(tmp_path, capsys):
    path = write(tmp_path, "g.json", graph_to_json(TACNODE))
    assert main(["oracle-check", path, "--bound", "10"]) == 0
    out = capsys.readouterr().out
    assert "match" in out and "0..8" in out


def test_oracle_check_infeasible_bound(tmp_path, capsys):
    path = write(tmp_path, "g.json", graph_to_json(TACNODE))
    assert main(["oracle-check", path, "--bound", "500"]) == 2


def test_bad_bounds_are_refused_before_the_input_is_read(tmp_path, capsys):
    # a missing file, an invalid one and a valid one report the bound error
    # alike: the bound is checked before the input is read
    g = write(tmp_path, "g.json", graph_to_json(TACNODE))
    p = write(tmp_path, "p.txt", series_to_text(series_of(TACNODE)))
    bad = write(tmp_path, "bad.txt", "{not a series")
    missing = str(tmp_path / "missing.txt")
    with pytest.raises(OracleError) as exc:
        definitional_poincare(TACNODE, default_spec(TACNODE), 0)
    oracle_error = f"error: {exc.value}\n"
    bound_error = (f"error: --bound must be at least 0 and below {MAX_CELLS}"
                   ", the most cells of a grid\n")
    for path in (missing, bad, g):
        for bound in ("0", "-1"):
            assert main(["oracle-check", path, "--bound", bound]) == 2
            assert capsys.readouterr() == ("", oracle_error)
    for path in (missing, bad, p):
        for bound in (-1, MAX_CELLS, 10 ** 30):
            assert main(["reconstruct", path, "--mode", "div",
                         "--bound", str(bound)]) == 2
            assert capsys.readouterr() == ("", bound_error)


def test_fig2_family(capsys):
    outs = []
    for p in ("1", "2", "3"):
        assert main(["fig2", "--p", p]) == 0
        outs.append(capsys.readouterr().out)
    # same series text every time, three different graphs
    tails = [o[o.index("vars"):] for o in outs]
    assert tails[0] == tails[1] == tails[2]
    assert series_from_text(tails[0]) == FactoredSeries(2, {(1, 2): -1})
    graphs = [graph_from_json(o[:o.index("vars")]) for o in outs]
    assert not equivalent(graphs[0], graphs[1])
    assert not equivalent(graphs[1], graphs[2])
    assert main(["fig2", "--p", "0"]) == 2


def test_fig2_refuses_p_past_the_vertex_limit(capsys):
    # the graph has p + 2 vertices
    top = MAX_VERTICES - 2
    assert main(["fig2", "--p", str(top)]) == 0
    assert capsys.readouterr().err == ""
    for p in (top + 1, 10 ** 8):
        start = time.perf_counter()
        assert main(["fig2", "--p", str(p)]) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: p must be at most {top}"]


def test_missing_file_is_input_error(capsys):
    assert main(["series", "/nonexistent/g.json"]) == 2
    assert main(["equiv", "/nonexistent/a", "/nonexistent/b"]) == 2


def test_malformed_graph_json(tmp_path):
    path = write(tmp_path, "g.json", "{\"vertices\": []}")
    assert main(["series", path]) == 2


@pytest.mark.parametrize("key,value", [
    ("marked_divisors", 5), ("marked_divisors", None),
    ("marked_divisors", [None]), ("marked_divisors", [{"a": 1}]),
    ("marked_divisors", [1e400]),
    ("arrows", 5), ("arrows", None),
    ("self_intersection", [1]), ("self_intersection", {}),
    ("self_intersection", 1e400),
])
def test_hostile_graph_json_is_an_input_error(tmp_path, capsys, key, value):
    data = json.loads(graph_to_json(CUSP_DIV))
    if key == "self_intersection":
        data["vertices"][0][key] = value
    else:
        data[key] = value
    path = write(tmp_path, "g.json", json.dumps(data))
    assert main(["series", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ")


def test_deeply_nested_graph_json_is_an_input_error(tmp_path, capsys):
    path = write(tmp_path, "g.json", "[" * 100000 + "]" * 100000)
    assert main(["series", path]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: bad graph JSON: ")


# a value that int() would coerce, at each integer field of a graph file,
# and parents that are not a list; each was read silently before
@pytest.mark.parametrize("path,value", [
    (("vertices", 0, "id"), 1.0),
    (("vertices", 0, "id"), True),
    (("vertices", 1, "parents"), "1"),
    (("vertices", 2, "parents"), "12"),
    (("vertices", 2, "parents"), {"1": 0, "2": 0}),
    (("vertices", 1, "parents", 0), 1.7),
    (("vertices", 1, "parents", 0), True),
    (("vertices", 2, "self_intersection"), -1.0),
    (("vertices", 2, "self_intersection"), "-1"),
    (("marked_divisors", 0), 3.0),
    (("marked_divisors", 0), "3"),
    (("marked_divisors", 0), True),
    (("arrows",), [{"vertex": 3.0, "branch": 1}]),
    (("arrows",), [{"vertex": 3, "branch": True}]),
])
def test_non_integer_graph_json_values_are_input_errors(tmp_path, capsys,
                                                        path, value):
    data = json.loads(graph_to_json(CUSP_DIV))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    path = write(tmp_path, "g.json", json.dumps(data))
    start = time.perf_counter()
    assert main(["series", path]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: bad ")


def test_tampered_self_intersection_rejected(tmp_path):
    data = json.loads(graph_to_json(CUSP_DIV))
    data["vertices"][0]["self_intersection"] = -5
    path = write(tmp_path, "g.json", json.dumps(data))
    assert main(["series", path]) == 2


def test_stdin_and_stdout_paths(tmp_path, capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(graph_to_json(CUSP_DIV)))
    assert main(["series", "-"]) == 0
    assert series_from_text(capsys.readouterr().out) == series_of(CUSP_DIV)


def test_reconstruct_verifies_expansion_bound(tmp_path, capsys):
    gpath = write(tmp_path, "g.json", graph_to_json(TACNODE))
    spath = str(tmp_path / "p.txt")
    assert main(["series", gpath, "--out", spath]) == 0
    assert main(["reconstruct", spath, "--mode", "curve",
                 "--bound", "9"]) == 0


def test_oversized_grids_are_input_errors(tmp_path, capsys):
    # refused from the header alone, before a grid is allocated
    path = write(tmp_path, "p.txt", "vars 30 mode expanded bound 5\n")
    assert main(["reconstruct", path, "--mode", "div"]) == 2
    assert "cells" in capsys.readouterr().err
    g = write(tmp_path, "g.json", graph_to_json(CUSP_DIV))
    assert main(["series", g, "--expand", "--bound", str(MAX_CELLS)]) == 2
    assert "cells" in capsys.readouterr().err
    p = write(tmp_path, "f.txt", series_to_text(series_of(CUSP_DIV)))
    assert main(["reconstruct", p, "--mode", "div",
                 "--bound", str(MAX_CELLS)]) == 2
    assert "cells" in capsys.readouterr().err


def test_unexpected_exception_is_internal_error(tmp_path, capsys,
                                                monkeypatch):
    def broken(args):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "_cmd_equiv", broken)
    path = write(tmp_path, "g.json", graph_to_json(CUSP_DIV))
    assert main(["equiv", path, path]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: boom second line\n"


def test_roundtrip_counts_any_exception_as_failure(capsys, monkeypatch):
    def broken(series):
        raise RecursionError("too deep")

    monkeypatch.setattr(cli, "reconstruct_curve", broken)
    assert main(["roundtrip", "--mode", "curve", "--trials", "2",
                 "--seed", "11", "--max-vertices", "12"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert [dict(kv.split("=") for kv in ln.split())["status"]
            for ln in lines[:2]] == ["FAIL", "FAIL"]
    assert lines[2] == "total=2 failures=2"


def test_equiv_on_a_deep_chain(tmp_path, capsys):
    # gens (2, 1199) resolve to a 601-vertex chain, deeper than the
    # interpreter's recursion limit allows a recursive canonical code
    b = BranchData.from_generators((2, 1199), 0)
    g = graph_from_branch(b, "curve")
    assert g.n == 601
    path = write(tmp_path, "deep.json", graph_to_json(g))
    assert main(["equiv", path, path]) == 0
    assert capsys.readouterr().out.startswith("equivalent\n")


def test_huge_coefficient_factorizes_promptly(tmp_path, capsys):
    # peeling 10000 * t costs a bounded number of passes, not 10000
    text = "vars 1 mode expanded bound 2\n1 0\n10000 1\n"
    start = time.perf_counter()
    f = factorize(series_from_text(text))
    assert time.perf_counter() - start < 1.0
    assert series_to_text(expand(f, 2)) == text
    path = write(tmp_path, "p.txt", text)
    assert main(["reconstruct", path, "--mode", "curve"]) == 2


def test_gen_refuses_oversized_requests_promptly(capsys):
    # refused before the vertex count is drawn, not after building it
    start = time.perf_counter()
    assert main(["gen", "--mode", "curve", "--seed", "1",
                 "--max-vertices", str(10 ** 9), "--r", "2"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "max_vertices" in capsys.readouterr().err
    assert main(["roundtrip", "--mode", "div", "--trials", "1", "--seed",
                 "1", "--max-vertices", str(MAX_VERTICES + 1)]) == 2


def test_gen_at_the_vertex_limit(capsys):
    for mode in ("div", "curve"):
        assert main(["gen", "--mode", mode, "--seed", "3", "--max-vertices",
                     str(MAX_VERTICES), "--r", "2"]) == 0
        g = graph_from_json(capsys.readouterr().out)
        assert 1 <= g.n <= MAX_VERTICES


def test_oversized_curve_series_is_refused_promptly(tmp_path, capsys):
    # gens (2, 2000001) would resolve to a chain of 10^6 + 2 vertices
    text = "vars 1 mode factored bound 0\n-1 2\n-1 2000001\n1 4000002\n"
    path = write(tmp_path, "p.txt", text)
    start = time.perf_counter()
    assert main(["reconstruct", path, "--mode", "curve"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "limit" in capsys.readouterr().err


def test_huge_semigroup_value_is_decoded_promptly(tmp_path, capsys):
    # the peeled branch sees the values 1 and 3 * 10^7; its semigroup is
    # found from their gcd chain, without a table as long as the largest
    text = "vars 2 mode factored bound 0\n-1 30000000 1\n"
    path = write(tmp_path, "p.txt", text)
    start = time.perf_counter()
    assert main(["reconstruct", path, "--mode", "curve"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "error:" in capsys.readouterr().err


def test_oracle_check_beyond_two_valuations(tmp_path, capsys):
    for mode, r, bound in (("div", "3", "14"), ("curve", "3", "14"),
                           ("div", "4", "10"), ("curve", "4", "10")):
        assert main(["gen", "--mode", mode, "--seed", "5", "--max-vertices",
                     "12", "--r", r]) == 0
        text = capsys.readouterr().out
        assert len(default_spec(graph_from_json(text))) == int(r)
        path = write(tmp_path, "g.json", text)
        assert main(["oracle-check", path, "--bound", bound]) == 0
        assert capsys.readouterr().out.startswith("match region ")


def test_shared_depth_above_the_vertex_limit_is_refused(tmp_path, capsys):
    # two smooth branches with contact N share N points
    for contact in (20000, 3 * 10 ** 6):
        text = ("vars 2 mode factored bound 0\n-1 1 1\n"
                f"1 {contact} {contact}\n")
        path = write(tmp_path, "p.txt", text)
        start = time.perf_counter()
        assert main(["reconstruct", path, "--mode", "curve"]) == 2
        assert time.perf_counter() - start < 1.0
        assert "limit" in capsys.readouterr().err


def test_roundtrip_names_the_failure_reason(capsys, monkeypatch):
    def broken(series):
        raise RecursionError("too deep")

    monkeypatch.setattr(cli, "reconstruct_curve", broken)
    assert main(["roundtrip", "--mode", "curve", "--trials", "2",
                 "--seed", "11", "--max-vertices", "12"]) == 3
    lines = capsys.readouterr().out.splitlines()
    for line in lines[:2]:
        assert line.endswith(" status=FAIL reason=RecursionError")
    assert lines[2] == "total=2 failures=2"

    monkeypatch.setattr(cli, "equivalent", lambda a, b: False)
    monkeypatch.setattr(cli, "reconstruct_curve", lambda series: None)
    assert main(["roundtrip", "--mode", "curve", "--trials", "1",
                 "--seed", "11", "--max-vertices", "12"]) == 3
    assert capsys.readouterr().out.splitlines()[0].endswith(
        " status=FAIL reason=NotEquivalent")


# -- a failed self-check exits 3 ------------------------------------------------


@pytest.mark.parametrize("text,assemblies", [
    # one branch decomposition, whose graph reproduces (1, 1, 1) instead
    ("vars 3 mode factored bound 0\n1 1 1 2\n", 1),
    # both maximal exponents peel, in either order to the same
    # decomposition, which is assembled once
    ("vars 4 mode factored bound 0\n1 1 1 1 2\n1 1 2 2 1\n", 1),
])
def test_tampered_curve_series_fail_the_self_check(tmp_path, capsys,
                                                   monkeypatch, text,
                                                   assemblies):
    calls = spy_on(monkeypatch, "assemble")
    path = write(tmp_path, "p.txt", text)
    assert main(["reconstruct", path, "--mode", "curve"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("verification failure: the branch decomposition "
                           "does not assemble back to the series: ")
    assert len(calls) == assemblies


def test_tampered_sixteen_branch_series_is_assembled_once(tmp_path, capsys,
                                                          monkeypatch):
    # the series of 16 branches with its first term line's coordinate 5
    # raised by one: its one decomposition, reached by tens of thousands of
    # peel orders, is assembled once
    graph = str(tmp_path / "g.json")
    assert main(["gen", "--mode", "curve", "--seed", "43", "--max-vertices",
                 "40", "--r", "16", "--out", graph]) == 0
    assert main(["series", graph]) == 0
    header, first, *rest = capsys.readouterr().out.splitlines()
    assert first == "2 1 1 1 2 1 1 2 2 1 2 1 1 1 3 2 1"
    tokens = first.split()
    tokens[5] = str(int(tokens[5]) + 1)
    path = write(tmp_path, "p.txt",
                 "\n".join([header, " ".join(tokens), *rest]) + "\n")
    calls = spy_on(monkeypatch, "assemble")
    assert main(["reconstruct", path, "--mode", "curve"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("verification failure: the branch decomposition ")
    assert len(calls) == 1


def test_oracle_check_reports_a_mismatch(tmp_path, capsys, monkeypatch):
    # a formula off by one factor disagrees with the definition
    real = cli.poincare_series
    monkeypatch.setattr(cli, "poincare_series",
                        lambda g, spec: real(g, spec).with_factor((1, 1), -1))
    path = write(tmp_path, "g.json", graph_to_json(TACNODE))
    assert main(["oracle-check", path, "--bound", "10"]) == 3
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "mismatch at (1, 1): formula 2 definition 1"
    assert all(ln.startswith("mismatch at ") for ln in lines[:-1])
    assert lines[-1] == "MISMATCH region 0..8x0..8 count=8"
    assert captured.err == ""


def test_fig2_reports_a_wrong_series(capsys, monkeypatch):
    monkeypatch.setattr(cli, "poincare_series",
                        lambda g, spec: FactoredSeries(2, {(1, 1): -1}))
    assert main(["fig2", "--p", "2"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "verification failure: series is not (1 - t u^2)^-1"]


# -- numpy is loaded by the first grid, not by the package --------------------


# one command in a fresh interpreter; the last line of stderr holds its exit
# status and whether numpy was loaded
NUMPY_PROBE = """
import sys
import planevals
import planevals.cli
status = planevals.cli.main(sys.argv[1:])
print(status, "numpy" in sys.modules, file=sys.stderr)
"""


def numpy_after(tmp_path, argv):
    """(exit status, whether numpy was loaded) of ``main(argv)`` run in a
    fresh interpreter, in ``tmp_path``, on this checkout's package."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(planevals.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE, *argv],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=60)
    status, loaded = proc.stderr.splitlines()[-1].split()
    return int(status), loaded == "True"


@pytest.fixture
def cli_files(tmp_path):
    write(tmp_path, "div.json", graph_to_json(CUSP_DIV))
    write(tmp_path, "pair.json", graph_to_json(CUSP_PAIR))
    write(tmp_path, "tacnode.json", graph_to_json(TACNODE))
    write(tmp_path, "pair.txt", series_to_text(series_of(CUSP_PAIR)))
    # expansions on either side of _TOKEN_LINES term lines, each
    # factorized on its support
    for name, bound in (("short", 12), ("long", 24)):
        text = series_to_text(expand(series_of(CUSP_MARKS3), bound))
        assert (text.count("\n") - 1 >= _TOKEN_LINES) == (name == "long")
        write(tmp_path, f"marks3-{name}.txt", text)
    return tmp_path


@pytest.mark.parametrize("argv", [
    pytest.param(["gen", "--mode", "div", "--seed", "7",
                  "--max-vertices", "12", "--r", "2"], id="gen"),
    pytest.param(["equiv", "pair.json", "pair.json"], id="equiv"),
    pytest.param(["roundtrip", "--mode", "div", "--trials", "5",
                  "--seed", "1"], id="roundtrip-div"),
    pytest.param(["roundtrip", "--mode", "curve", "--trials", "5",
                  "--seed", "1"], id="roundtrip-curve"),
    pytest.param(["fig2", "--p", "3"], id="fig2"),
    pytest.param(["series", "pair.json"], id="series-factored"),
    pytest.param(["reconstruct", "pair.txt", "--mode", "div"],
                 id="reconstruct-factored"),
    # 19 term lines, read line by line
    pytest.param(["reconstruct", "marks3-short.txt", "--mode", "div"],
                 id="reconstruct-expanded-short"),
    # (1 - t^2)^-1 (1 - t^3)^-1 on [0, 7] is a few dict updates
    pytest.param(["series", "div.json", "--expand", "--bound", "7"],
                 id="series-expand-small"),
])
def test_grid_free_commands_never_load_numpy(cli_files, argv):
    assert numpy_after(cli_files, argv) == (0, False)


@pytest.mark.parametrize("argv", [
    pytest.param(["oracle-check", "tacnode.json", "--bound", "10"],
                 id="oracle-check"),
    # on [0, 40] the second factor would make 273 updates, past the limit
    pytest.param(["series", "div.json", "--expand", "--bound", "40"],
                 id="series-expand-past-hand-off"),
    # 61 term lines, read by the numpy tokenizer
    pytest.param(["reconstruct", "marks3-long.txt", "--mode", "div"],
                 id="reconstruct-expanded-long"),
])
def test_grid_commands_load_numpy(cli_files, argv):
    assert numpy_after(cli_files, argv) == (0, True)

"""Command line surface.

Subcommands: gen, series, reconstruct, equiv, roundtrip, oracle-check,
fig2.  Exit codes: 0 success, 1 semantic negative (e.g. graphs not
equivalent), 2 bad input or infeasible parameters, 3 a self-verification
or round-trip check failed, 4 an internal error (a defect in planevals,
reported on one line).  All output is deterministic for fixed flags.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from typing import Optional

from .dualgraph import (MAX_VERTICES, DualGraph, GraphError, canonical_code,
                        equivalent, graph_from_json, graph_to_json,
                        random_instance)
from .oracle import OracleError, definitional_poincare
from .poincare import default_spec, poincare_series
from .reconstruct import (DecodeError, VerificationError, reconstruct_curve,
                          reconstruct_divisorial)
from .series import (FactoredSeries, SeriesError, TruncatedSeries, expand,
                     factorize, series_from_text, series_to_text)

OK, DIFFERENT, BAD_INPUT, VERIFY_FAILED, INTERNAL_ERROR = 0, 1, 2, 3, 4

_MODES = {"div": "divisorial", "curve": "curve"}
_DEFAULT_R = {"divisorial": 3, "curve": 4}


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, out: Optional[str]) -> None:
    if out and out != "-":
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    graph = random_instance(args.seed, args.max_vertices, args.r,
                            _MODES[args.mode])
    _emit(graph_to_json(graph), args.out)
    return OK


def _cmd_series(args) -> int:
    # a usage error is reported before the graph is read, so that it
    # neither waits for standard input nor hides behind a bad file
    if args.expand != (args.bound is not None):
        print("error: --expand requires --bound" if args.expand
              else "error: --bound requires --expand", file=sys.stderr)
        return BAD_INPUT
    graph = graph_from_json(_read(args.graph))
    p = poincare_series(graph, default_spec(graph))
    _emit(series_to_text(expand(p, args.bound) if args.expand else p),
          args.out)
    return OK


def _cmd_reconstruct(args) -> int:
    s = series_from_text(_read(args.series))
    if isinstance(s, TruncatedSeries):
        f = factorize(s)
    else:
        f = s
    if args.bound is not None:
        if factorize(expand(f, args.bound)) != f:
            print("verification failure: factored form is not stable "
                  f"under expansion at bound {args.bound}", file=sys.stderr)
            return VERIFY_FAILED
    mode = _MODES[args.mode]
    graph = (reconstruct_divisorial(f) if mode == "divisorial"
             else reconstruct_curve(f))
    _emit(graph_to_json(graph), args.out)
    return OK


def _cmd_equiv(args) -> int:
    g1 = graph_from_json(_read(args.a))
    g2 = graph_from_json(_read(args.b))
    c1, c2 = canonical_code(g1), canonical_code(g2)
    if c1 == c2:
        print("equivalent")
        print(f"code {c1}")
        return OK
    print("not equivalent")
    print(f"a {c1}")
    print(f"b {c2}")
    return DIFFERENT


def _cmd_roundtrip(args) -> int:
    if args.trials < 0:
        print("error: --trials must not be negative", file=sys.stderr)
        return BAD_INPUT
    if args.r is not None and args.r < 1:
        print("error: --r must be at least 1", file=sys.stderr)
        return BAD_INPUT
    mode = _MODES[args.mode]
    failures = 0
    for k in range(args.trials):
        seed = args.seed + k
        r = args.r or (k % _DEFAULT_R[mode]) + 1
        graph = random_instance(seed, args.max_vertices, r, mode)
        status = "ok"
        try:
            p = poincare_series(graph, default_spec(graph))
            back = (reconstruct_divisorial(p) if mode == "divisorial"
                    else reconstruct_curve(p))
            if not equivalent(back, graph):
                status = "FAIL reason=NotEquivalent"
        except Exception as exc:  # a failed trial, whatever the cause
            status = f"FAIL reason={type(exc).__name__}"
        if status != "ok":
            failures += 1
        print(f"trial={k} seed={seed} vertices={graph.n} r={r} "
              f"status={status}")
    print(f"total={args.trials} failures={failures}")
    return VERIFY_FAILED if failures else OK


def _cmd_oracle_check(args) -> int:
    graph = graph_from_json(_read(args.graph))
    spec = default_spec(graph)
    r = len(spec)
    # the oracle refuses an infeasible bound before the formula expands
    direct = definitional_poincare(graph, spec, args.bound)
    formula = expand(poincare_series(graph, spec), args.bound)
    mismatches = 0
    top = max(args.bound - r, 0)
    for w in itertools.product(range(top + 1), repeat=r):
        if formula[w] != direct[w]:
            if mismatches < 10:
                print(f"mismatch at {w}: formula {formula[w]} "
                      f"definition {direct[w]}")
            mismatches += 1
    region = "x".join([f"0..{top}"] * r)
    if mismatches:
        print(f"MISMATCH region {region} count={mismatches}")
        return VERIFY_FAILED
    print(f"match region {region}")
    return OK


def _fig2_graph(p: int) -> DualGraph:
    parents = [()] + [(i,) for i in range(1, p + 1)] + [(p, p + 1)]
    return DualGraph(tuple(parents), (p + 2,), ((p + 1, 1),))


def _cmd_fig2(args) -> int:
    if args.p < 1:
        print("error: p must be at least 1", file=sys.stderr)
        return BAD_INPUT
    # the graph has p + 2 vertices
    if args.p > MAX_VERTICES - 2:
        print(f"error: p must be at most {MAX_VERTICES - 2}", file=sys.stderr)
        return BAD_INPUT
    graph = _fig2_graph(args.p)
    series = poincare_series(graph, default_spec(graph))
    sys.stdout.write(graph_to_json(graph))
    sys.stdout.write(series_to_text(series))
    if series != FactoredSeries(2, {(1, 2): -1}):
        print("verification failure: series is not (1 - t u^2)^-1",
              file=sys.stderr)
        return VERIFY_FAILED
    return OK


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="planevals",
        description="Poincare series of plane valuation filtrations and "
                    "reconstruction of minimal resolutions.")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a random minimal resolution")
    g.add_argument("--mode", choices=("div", "curve"), required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--max-vertices", type=int, default=30)
    g.add_argument("--r", type=int, default=1)
    g.add_argument("--out")
    g.set_defaults(func=_cmd_gen)

    s = sub.add_parser("series", help="Poincare series of a graph")
    s.add_argument("graph", help="graph JSON file, or - for stdin")
    s.add_argument("--expand", action="store_true")
    s.add_argument("--bound", type=int)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_series)

    r = sub.add_parser("reconstruct",
                       help="recover the minimal resolution from a series")
    r.add_argument("series", help="series text file, or - for stdin")
    r.add_argument("--mode", choices=("div", "curve"), required=True)
    r.add_argument("--bound", type=int,
                   help="also verify the factored form at this bound")
    r.add_argument("--out")
    r.set_defaults(func=_cmd_reconstruct)

    e = sub.add_parser("equiv", help="compare two graphs combinatorially")
    e.add_argument("a")
    e.add_argument("b")
    e.set_defaults(func=_cmd_equiv)

    t = sub.add_parser("roundtrip", help="series -> graph round-trip "
                                         "campaign on random instances")
    t.add_argument("--mode", choices=("div", "curve"), required=True)
    t.add_argument("--trials", type=int, required=True)
    t.add_argument("--seed", type=int, required=True)
    t.add_argument("--max-vertices", type=int, default=30)
    t.add_argument("--r", type=int)
    t.set_defaults(func=_cmd_roundtrip)

    o = sub.add_parser("oracle-check",
                       help="compare the formula against the definitional "
                            "computation")
    o.add_argument("graph")
    o.add_argument("--bound", type=int, required=True)
    o.set_defaults(func=_cmd_oracle_check)

    f = sub.add_parser("fig2", help="the family where mixed series "
                                    "coincide on distinct graphs")
    f.add_argument("--p", type=int, required=True)
    f.set_defaults(func=_cmd_fig2)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return VERIFY_FAILED
    except (SeriesError, GraphError, DecodeError, OracleError,
            OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT
    except Exception as exc:  # never a traceback, and never exit 1
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}",
              file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())

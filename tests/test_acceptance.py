"""Acceptance campaign: the headline guarantees, with time budgets.

Each test states its claim, runs it exactly (no tolerances anywhere),
and asserts a wall-clock ceiling so regressions in the algorithms show
up as failures rather than slow CI.
"""

import random
import time

from planevals import (BranchData, FactoredSeries, default_spec,
                       definitional_poincare, downward_closure, equivalent,
                       expand, factorize, multiplicity_matrix,
                       noether_contact, poincare_series, project,
                       random_instance, semigroup_series)
from planevals.cli import main
from planevals.dualgraph import euler_smooth

from conftest import (CUSP_CURVE, CUSP_DIV, CUSP_PAIR, NODE, SMOOTH, TACNODE,
                      bareiss_det, series_of, small_corpus)


def test_01_same_series_different_graphs(capsys):
    start = time.perf_counter()
    outs = []
    for p in (1, 2, 3):
        assert main(["fig2", "--p", str(p)]) == 0
        outs.append(capsys.readouterr().out)
    series = [o[o.index("vars"):] for o in outs]
    assert series[0] == series[1] == series[2]
    from planevals import graph_from_json, series_from_text
    assert series_from_text(series[0]) == FactoredSeries(2, {(1, 2): -1})
    graphs = [graph_from_json(o[:o.index("vars")]) for o in outs]
    for i in range(3):
        for j in range(i + 1, 3):
            assert not equivalent(graphs[i], graphs[j])
    assert time.perf_counter() - start < 1.0


def test_02_divisorial_roundtrip_campaign(capsys):
    start = time.perf_counter()
    assert main(["roundtrip", "--mode", "div", "--trials", "500",
                 "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "total=500 failures=0"
    assert out.count("status=ok") == 500
    assert time.perf_counter() - start < 120.0


def test_03_curve_roundtrip_campaign(capsys):
    start = time.perf_counter()
    assert main(["roundtrip", "--mode", "curve", "--trials", "500",
                 "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "total=500 failures=0"
    assert out.count("status=ok") == 500
    assert time.perf_counter() - start < 180.0


def test_04_definitional_oracle_agreement():
    start = time.perf_counter()
    bound = 20
    for g in (SMOOTH, CUSP_CURVE, CUSP_DIV, NODE, TACNODE, CUSP_PAIR):
        spec = default_spec(g)
        r = len(spec)
        formula = expand(poincare_series(g, spec), bound)
        oracle = definitional_poincare(g, spec, bound)
        top = bound - r
        if r == 1:
            for a in range(top + 1):
                assert formula[(a,)] == oracle[(a,)]
        else:
            for a in range(top + 1):
                for b in range(top + 1):
                    assert formula[(a, b)] == oracle[(a, b)]
    assert time.perf_counter() - start < 300.0


def test_05_matrix_crosscheck_on_small_corpus():
    for g in small_corpus():
        assert g.n <= 8
        m = multiplicity_matrix(g)
        assert all(e >= 1 for row in m for e in row)
        assert bareiss_det([list(row) for row in m]) == 1
        for a in g.vertex_ids():
            for b in g.vertex_ids():
                assert noether_contact(g, a, b) == m[a - 1][b - 1]


def test_06_projection_formula_campaign():
    for k in range(200):
        r = 2 + k % 2
        g = random_instance(k, 20, r, "divisorial")
        p = series_of(g)
        marks = g.marked_divisors
        subsets = [(i,) for i in range(1, r + 1)]
        if r == 3:
            subsets += [(1, 2), (1, 3), (2, 3)]
        for keep in subsets:
            sub = downward_closure(g, [marks[i - 1] for i in keep])
            assert project(p, keep) == series_of(sub)


def tree_path(g, a, b):
    """Unique path from a to b in the intersection tree."""
    parent = {a: None}
    frontier = [a]
    while frontier:
        nxt = []
        for v in frontier:
            for w in g.neighbors(v):
                if w not in parent:
                    parent[w] = v
                    nxt.append(w)
        frontier = nxt
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    return path[::-1]


def test_07_no_cancellation_and_ratio_monotonicity():
    for k in range(200):
        g = random_instance(50_000 + k, 20, 2, "divisorial")
        chi = euler_smooth(g, "divisorial")
        m = multiplicity_matrix(g)
        a1, a2 = g.marked_divisors
        factors = {}
        for v in g.vertex_ids():
            if chi[v - 1] != 0:
                factors[(m[v - 1][a1 - 1], m[v - 1][a2 - 1])] = -chi[v - 1]
        # pairwise distinct exponents: nothing merged, nothing cancelled
        assert len(factors) == sum(1 for c in chi if c)
        assert series_of(g).factors() == factors
        # ratio of exponent coordinates along tree geodesics: constant up
        # to the fork of the two mark paths, then strictly larger toward
        # mark 1 and strictly smaller toward mark 2
        p1, p2 = tree_path(g, 1, a1), tree_path(g, 1, a2)
        ncommon = 0
        while (ncommon < min(len(p1), len(p2))
               and p1[ncommon] == p2[ncommon]):
            ncommon += 1
        s = p1[ncommon - 1]
        q1, q2 = m[s - 1][a1 - 1], m[s - 1][a2 - 1]
        for v in p1[:ncommon]:
            v1, v2 = m[v - 1][a1 - 1], m[v - 1][a2 - 1]
            assert v1 * q2 == v2 * q1
        for v in p1[ncommon:]:
            v1, v2 = m[v - 1][a1 - 1], m[v - 1][a2 - 1]
            assert v1 * q2 > v2 * q1
        for v in p2[ncommon:]:
            v1, v2 = m[v - 1][a1 - 1], m[v - 1][a2 - 1]
            assert v1 * q2 < v2 * q1


def test_08_semigroup_identity():
    for gens in ((2, 3), (4, 6, 13), (6, 9, 22)):
        bd = BranchData.from_generators(gens)
        lhs = expand(bd.univariate_series("curve"), 60)
        assert lhs == semigroup_series(gens, 60)


def test_09_series_algebra_roundtrips():
    rng = random.Random(20_260_815)
    for _ in range(300):
        r = rng.randint(1, 3)
        items = []
        for _ in range(rng.randint(1, 5)):
            m = tuple(rng.randint(0, 12) for _ in range(r))
            if not any(m):
                m = m[:-1] + (rng.randint(1, 12),)
            k = rng.choice([-3, -2, -1, 1, 2, 3])
            items.append((m, k))
        f = FactoredSeries(r, items)
        e = expand(f, 40)
        assert factorize(e) == f
        assert expand(factorize(e), 40) == e

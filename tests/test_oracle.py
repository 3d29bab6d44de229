"""First-principles checks: parametrizations, jet dimensions, semigroups.

The oracle never touches the product formula; it replays blowup charts
and row-reduces jets, so agreement with the closed form is evidence,
not circularity.
"""

import hashlib
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from planevals import oracle
from planevals import (Branch, Divisorial, DualGraph, OracleError,
                       TruncatedSeries, branch_parametrization,
                       curvette_parametrization, default_spec,
                       definitional_poincare, divide_torus, expand, ideal_dim,
                       multiplicity_matrix, multiplicity_sequence,
                       noether_contact, poincare_series, random_instance,
                       semigroup_series, series_to_text, valuation)
from planevals.series import glex_key

from conftest import (CUSP_CURVE, CUSP_DIV, NODE, SMOOTH, TACNODE,
                      TRANSVERSAL_CUSPS, ladder_graph, series_of,
                      small_corpus)


# -- parametrizations ------------------------------------------------------


def test_smooth_branch_is_coordinate_axis():
    p = branch_parametrization(SMOOTH, 1)
    assert dict(p.x) == {(1, 0): 1}
    assert dict(p.y) == {}


def test_cusp_branch_is_standard():
    p = branch_parametrization(CUSP_CURVE, 1)
    assert dict(p.x) == {(2, 0): 1}
    assert dict(p.y) == {(3, 0): 1}


def test_node_branches_are_two_lines():
    p1 = branch_parametrization(NODE, 1)
    p2 = branch_parametrization(NODE, 2)
    assert dict(p1.x) == {(1, 0): 1} and dict(p1.y) == {}
    assert dict(p2.x) == {(1, 0): 1} and dict(p2.y) == {(1, 0): 1}


def test_tacnode_branches_touch_to_order_two():
    p1 = branch_parametrization(TACNODE, 1)
    p2 = branch_parametrization(TACNODE, 2)
    assert dict(p1.y) == {}
    assert dict(p2.y) == {(2, 0): 1}


def test_branch_parametrization_rejections():
    with pytest.raises(OracleError):
        branch_parametrization(SMOOTH, 2)
    with pytest.raises(OracleError):
        curvette_parametrization(SMOOTH, 5)


def test_curvette_vanishing_orders_on_cusp():
    v3 = curvette_parametrization(CUSP_DIV, 3)
    x = {(1, 0): 1}
    y = {(0, 1): 1}
    assert valuation(v3, x) == 2
    assert valuation(v3, y) == 3
    assert valuation(v3, {(0, 2): 1, (3, 0): -1}) == 6


def test_valuation_of_exact_equation_is_unbounded():
    p = branch_parametrization(CUSP_CURVE, 1)
    assert valuation(p, {(0, 2): 1, (3, 0): -1}) is math.inf
    assert valuation(p, {}) is math.inf


def test_valuation_decides_cancellation_identically():
    # (y - x)(y + x) pulled back along (t, t) vanishes identically in
    # the first factor, so the order comes from genuine cancellation
    p = branch_parametrization(NODE, 2)
    f = {(2, 0): -1, (0, 2): 1}
    assert valuation(p, f) is math.inf
    g = {(2, 0): -1, (0, 2): 1, (3, 0): 5}
    assert valuation(p, g) == 3


def test_valuation_reads_past_products_that_cancel():
    # x = t + t^2 and y = t - t^2: x*y has a zero t^3 term, and
    # (x - y)^2 = 4 t^4 once the t^2 and t^3 terms of the powers cancel
    p = oracle.Parametrization._make({(1, 0): 1, (2, 0): 1},
                                     {(1, 0): 1, (2, 0): -1}, 10)
    assert valuation(p, {(1, 1): 1}) == 2
    assert valuation(p, {(2, 0): 1, (1, 1): -2, (0, 2): 1}) == 4
    assert valuation(p, {(1, 1): 1, (2, 0): -1}) == 3


def test_chart_polynomials_have_positive_coefficients():
    # _pmul and _subst keep no zero coefficient, which holds because no
    # sum over a chart can cancel
    graphs = small_corpus() + [
        random_instance(seed, 12, 1 + seed % 3, mode)
        for seed in range(40) for mode in ("divisorial", "curve")]
    polys = []
    for g in graphs:
        charts, _, _ = oracle._charts(g, 16)
        polys += [p for v in g.vertex_ids() for xy in charts[v].values()
                  for p in xy]
        polys += [p for xy in oracle._spec_pullback_sources(
            g, default_spec(g), 16) for p in xy]
    assert len(polys) == 1782
    assert all(c > 0 for p in polys for c in p.values())


def test_curvette_orders_match_matrix_entries():
    # in this embedding {x=0} is a generic curvette of E_1 and {y=0} one
    # of E_2 (the cusp tangent), so their orders read off matrix columns
    m = multiplicity_matrix(CUSP_DIV)
    for sigma in (1, 2, 3):
        c = curvette_parametrization(CUSP_DIV, sigma)
        assert valuation(c, {(1, 0): 1}) == m[sigma - 1][0]
        assert valuation(c, {(0, 1): 1}) == m[sigma - 1][1]


# -- multiplicity sequences and contacts -------------------------------------


def test_multiplicity_sequence_cusp():
    assert multiplicity_sequence(CUSP_DIV, 3) == {1: 2, 2: 1, 3: 1}
    assert multiplicity_sequence(CUSP_DIV, 2) == {1: 1, 2: 1}
    assert multiplicity_sequence(CUSP_DIV, 1) == {1: 1}


def test_noether_contact_reproduces_matrix():
    for g in [CUSP_DIV, TACNODE, TRANSVERSAL_CUSPS]:
        m = multiplicity_matrix(g)
        for a in g.vertex_ids():
            for b in g.vertex_ids():
                assert noether_contact(g, a, b) == m[a - 1][b - 1]


def test_corpus_contacts_match_everywhere():
    for g in small_corpus():
        m = multiplicity_matrix(g)
        for a in g.vertex_ids():
            for b in g.vertex_ids():
                assert noether_contact(g, a, b) == m[a - 1][b - 1]


# -- jet dimensions -----------------------------------------------------------


def test_ideal_dim_smooth_is_one_per_level():
    spec = default_spec(SMOOTH)
    assert [ideal_dim(SMOOTH, spec, (v,)) for v in range(6)] == [1] * 6


def test_ideal_dim_cusp_counts_semigroup_membership():
    spec = default_spec(CUSP_CURVE)
    got = [ideal_dim(CUSP_CURVE, spec, (v,)) for v in range(9)]
    assert got == [1, 0, 1, 1, 1, 1, 1, 1, 1]


def test_ideal_dim_divisorial_counts_monomial_slices():
    spec = default_spec(CUSP_DIV)
    got = [ideal_dim(CUSP_DIV, spec, (v,)) for v in range(13)]
    # partial counts of the partition generating function 1/((1-t^2)(1-t^3))
    assert got == [1, 0, 1, 1, 1, 1, 2, 1, 2, 2, 2, 2, 3]


def test_ideal_dim_node_pairs():
    spec = default_spec(NODE)
    assert ideal_dim(NODE, spec, (0, 0)) == 1
    assert ideal_dim(NODE, spec, (1, 1)) == 2
    assert ideal_dim(NODE, spec, (2, 1)) == 2


def test_ideal_dim_three_lines():
    # three lines l1, l2, l3 through the origin: J(1,1,1) = m and
    # J(2,2,2) = m^2; J(3,3,3) = m^3 while J(4,4,4) = m^4 + (l1 l2 l3);
    # J(2,1,1) = (l1) + m^2 and J(3,2,2) = l1 m + m^3.  Three lines in
    # the plane of linear forms are the smallest subspace lattice that
    # is not distributive, so no basis is adapted to all three at once
    g = DualGraph(((),), (), ((1, 1), (1, 2), (1, 3)))
    spec = default_spec(g)
    assert ideal_dim(g, spec, (0, 0, 0)) == 1
    assert ideal_dim(g, spec, (1, 1, 1)) == 2
    assert ideal_dim(g, spec, (2, 2, 2)) == 3
    assert ideal_dim(g, spec, (3, 3, 3)) == 3
    assert ideal_dim(g, spec, (2, 1, 1)) == 2
    assert ideal_dim(g, spec, (1, 1, 2)) == 2


def per_cell_counts(graph, spec, W, top):
    """dim J(w) for every w on [0, top]^r, each from a fresh echelon of
    the rows of every valuation k at the levels below w_k."""
    levels = oracle._level_rows(graph, spec, W, top)
    jets = (W + 1) * (W + 2) // 2
    counts = np.zeros((top + 1,) * len(spec), dtype=np.int64)
    for w in product(range(top + 1), repeat=len(spec)):
        ech = {}
        counts[w] = jets - sum(oracle._place(ech, row) is not None
                               for rows, x in zip(levels, w)
                               for level in rows[:x] for row in level)
    return counts


# the largest index of the box checked cell by cell, per number of
# valuations
CELL_TOPS = {1: 14, 2: 8, 3: 5, 4: 3}


def assert_count_grid_per_cell(g, spec):
    top = CELL_TOPS[len(spec)]
    counts = oracle._counts(g, spec, top + 2, top)
    assert (counts == per_cell_counts(g, spec, top + 2, top)).all()
    # ideal_dim takes one echelon per query, on jets of degree max(v) + 3
    for v in product(range(top), repeat=len(spec)):
        assert ideal_dim(g, spec, v) == int(
            counts[v] - counts[tuple(x + 1 for x in v)]), v


def random_graphs(r, mode):
    return [g for g in (random_instance(800 + seed, 10, r, mode)
                        for seed in range(20))
            if len(default_spec(g)) == r][:3]


@pytest.mark.parametrize("mode", ["divisorial", "curve"])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_ideal_dim_matches_the_count_grid(r, mode):
    graphs = random_graphs(r, mode)
    assert len(graphs) == 3
    for g in graphs:
        assert_count_grid_per_cell(g, default_spec(g))


# fig2 graphs (a branch and a marked divisor) and three marked divisors,
# the graph on which the count grid is slowest per cell
NAMED_GRAPHS = [ladder_graph(1), ladder_graph(3),
                DualGraph(((), (1,), (1,)), (1, 2, 3), ())]


@pytest.mark.parametrize("g", NAMED_GRAPHS)
def test_count_grid_matches_per_cell_ranks_on_named_graphs(g):
    assert_count_grid_per_cell(g, default_spec(g))


def reference_level_rows(graph, spec, W, top):
    """The rows of _level_rows, each jet from a fresh product of a full
    power of x and one of y, all truncated at s-degree top."""
    out = []
    for x, y in oracle._spec_pullback_sources(graph, spec, top):
        xpow, ypow = [{(0, 0): 1}], [{(0, 0): 1}]
        for _ in range(W):
            xpow.append(oracle._pmul(xpow[-1], x, top))
            ypow.append(oracle._pmul(ypow[-1], y, top))
        levels = [{} for _ in range(top)]
        jet = 0
        for i in range(W + 1):
            for j in range(W + 1 - i):
                for (l, lam), c in oracle._pmul(xpow[i], ypow[j],
                                                top).items():
                    if l < top:
                        levels[l].setdefault(lam, {})[jet] = c
                jet += 1
        out.append([list(level.values()) for level in levels])
    return out


def level_multisets(levels):
    return [[sorted(sorted(row.items()) for row in level) for level in rows]
            for rows in levels]


@pytest.mark.parametrize("graphs", [
    *(random_graphs(r, mode) for r in (1, 2, 3, 4)
      for mode in ("divisorial", "curve")),
    NAMED_GRAPHS])
def test_level_rows_match_products_of_full_powers(graphs):
    assert len(graphs) == 3
    for g in graphs:
        spec = default_spec(g)
        for top in (3, CELL_TOPS[len(spec)] + 4):
            W = top + 1
            ref = reference_level_rows(g, spec, W, top)
            assert (level_multisets(oracle._level_rows(g, spec, W, top))
                    == level_multisets(ref))
            # jets of order >= top leave no row: some of every valuation
            used = [{i for level in rows for row in level for i in row}
                    for rows in ref]
            assert all(len(u) < (W + 1) * (W + 2) // 2 for u in used)


def fraction_rank(rows, width):
    """Reference rank by Gaussian elimination over the rationals."""
    m = [[Fraction(r.get(i, 0)) for i in range(width)] for r in rows]
    rank = 0
    for col in range(width):
        piv = next((k for k in range(rank, len(m)) if m[k][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for k in range(len(m)):
            if k != rank and m[k][col]:
                f = m[k][col] / m[rank][col]
                m[k] = [a - f * b for a, b in zip(m[k], m[rank])]
        rank += 1
    return rank


@given(st.lists(st.dictionaries(st.integers(0, 5),
                                st.integers(-4, 4).filter(bool),
                                max_size=6), max_size=8))
def test_insert_counts_rank_exactly(rows):
    frozen = [dict(r) for r in rows]
    ech = {}
    grown = [oracle._place(ech, r) is not None for r in rows]
    assert rows == frozen
    assert sum(grown) == len(ech) == fraction_rank(rows, 6)
    for piv, row in ech.items():
        assert min(row) == piv and math.gcd(*row.values()) == 1
    # an echelon row reinserted adds nothing
    for row in list(ech.values()):
        assert oracle._place(dict(ech), row) is None


row_lists = st.lists(st.dictionaries(st.integers(0, 5),
                                     st.integers(-4, 4).filter(bool),
                                     min_size=1, max_size=4), max_size=3)


@given(st.integers(0, 3).flatmap(lambda top: st.tuples(
    row_lists, st.lists(row_lists, min_size=top, max_size=top),
    st.lists(row_lists, min_size=top, max_size=top))))
def test_two_flags_give_every_rank_of_the_block(case):
    base, a_levels, b_levels = case
    ech = {}
    rank = sum(oracle._place(ech, row) is not None for row in base)
    block = oracle._two_flags(ech, rank, a_levels, b_levels, 6)
    top = len(a_levels)
    assert block.shape == (top + 1, top + 1)
    for i in range(top + 1):
        for j in range(top + 1):
            rows = base + sum(a_levels[:i], []) + sum(b_levels[:j], [])
            assert block[i, j] == 6 - fraction_rank(rows, 6), (i, j)


def agrees_with_formula(g, spec, bound):
    """The oracle equals the expanded closed form on [0, bound - r]^r."""
    r = len(spec)
    p = expand(poincare_series(g, spec), bound)
    q = definitional_poincare(g, spec, bound)
    box = (slice(0, bound - r + 1),) * r
    return (p.coeffs[box] == q.coeffs[box]).all()


def test_definitional_poincare_matches_formula_on_node():
    p = expand(series_of(NODE), 10)
    q = definitional_poincare(NODE, default_spec(NODE), 10)
    for a in range(9):
        for b in range(9):
            assert p[(a, b)] == q[(a, b)]


@pytest.mark.parametrize("args,bound", [((7, 12, 2, "divisorial"), 25),
                                        ((5, 12, 3, "divisorial"), 20)])
def test_definitional_support_comes_in_glex_order(args, bound):
    g = random_instance(*args)
    q = definitional_poincare(g, default_spec(g), bound)
    terms = [m for m, _ in q.nonzero_terms()]
    assert len(terms) > 30 and terms == sorted(terms, key=glex_key)


def test_definitional_poincare_guards():
    with pytest.raises(OracleError):
        definitional_poincare(NODE, default_spec(NODE), 200)
    with pytest.raises(OracleError):
        definitional_poincare(NODE, (), 10)
    with pytest.raises(OracleError, match="bound must be positive"):
        definitional_poincare(NODE, default_spec(NODE), 0)
    with pytest.raises(OracleError, match=r"value vector \(1,\) does not "
                       "match the spec"):
        ideal_dim(NODE, default_spec(NODE), (1,))
    with pytest.raises(OracleError, match="does not match the spec"):
        ideal_dim(NODE, default_spec(NODE), (1, -1))
    g = DualGraph(((), (1,), (1,)), (1, 2, 3), ())
    assert agrees_with_formula(g, default_spec(g), 8)


def test_infeasible_requests_are_refused_before_any_chart(monkeypatch):
    def no_charts(graph, cap):
        raise AssertionError("a chart was built")

    monkeypatch.setattr(oracle, "_charts", no_charts)
    g = DualGraph(((), (1,), (1,)), (1, 2, 3), ())
    # 86 is the least bound past MAX_JETS; at r = 3, bound 35 is the
    # least past MAX_WORK
    for graph, bound in ((NODE, 86), (NODE, 200), (g, 35), (SMOOTH, 500)):
        with pytest.raises(OracleError, match="feasibility"):
            definitional_poincare(graph, default_spec(graph), bound)
    with pytest.raises(OracleError, match="feasibility"):
        ideal_dim(g, default_spec(g), (10 ** 9, 0, 0))
    # the largest accepted bounds get as far as building charts
    four = random_instance(505, 10, 4, "divisorial")
    for graph, bound in ((NODE, 85), (g, 34), (four, 15)):
        with pytest.raises(AssertionError, match="chart"):
            definitional_poincare(graph, default_spec(graph), bound)
    with pytest.raises(OracleError):
        ideal_dim(g, (), ())


def test_mixed_spec_accepted():
    g = ladder_graph(1)
    assert default_spec(g) == (Branch(1), Divisorial(3))
    p = expand(poincare_series(g, default_spec(g)), 8)
    q = definitional_poincare(g, default_spec(g), 8)
    for a in range(7):
        for b in range(7):
            assert p[(a, b)] == q[(a, b)]


def test_definitional_poincare_random_two_divisorial():
    bound = 20
    box = bound - 2 + 1
    checked = 0
    for seed in range(40):
        g = random_instance(300 + seed, 12, 2, "divisorial")
        spec = default_spec(g)
        if len(spec) != 2:
            continue
        p = expand(poincare_series(g, spec), bound)
        q = definitional_poincare(g, spec, bound)
        assert (p.coeffs[:box, :box] == q.coeffs[:box, :box]).all(), seed
        checked += 1
        if checked == 10:
            break
    assert checked == 10


@pytest.mark.parametrize("mode,r,bound", [("divisorial", 3, 14),
                                          ("curve", 3, 14),
                                          ("divisorial", 4, 10),
                                          ("curve", 4, 10)])
def test_definitional_poincare_random_three_and_four(mode, r, bound):
    checked = 0
    for seed in range(40):
        g = random_instance(500 + seed, 10, r, mode)
        spec = default_spec(g)
        if len(spec) != r:
            continue
        assert agrees_with_formula(g, spec, bound), seed
        checked += 1
        if checked == 3:
            break
    assert checked == 3


def mixed_three(seed):
    """Two branches of a random curve plus its last vertex, marked."""
    g = random_instance(seed, 10, 2, "curve")
    return DualGraph(g.parents, (g.n,), g.arrows)


@pytest.mark.parametrize("g", [ladder_graph(1), ladder_graph(2),
                               ladder_graph(3), mixed_three(0),
                               mixed_three(4), mixed_three(8)])
def test_definitional_poincare_mixed_collections(g):
    # ladder_graph(p) is the fig2 family
    spec = default_spec(g)
    assert len({type(v) for v in spec}) == 2
    assert agrees_with_formula(g, spec, 12)


def staged_poincare(counts, bound):
    """The definition in three stages, from counts[w] = dim J(w) on
    [0, bound + 1]^r: L(v) = dim J(v) - dim J(v + 1) on [-1, bound]^r,
    where index -1 reads index 0; times prod (t_i - 1), one difference per
    axis; then divided by (t_1 ... t_r - 1)."""
    r = counts.ndim
    idx = np.concatenate(([0], np.arange(bound + 2)))
    dims = counts[np.ix_(*([idx] * r))]
    prime = dims[(slice(0, -1),) * r] - dims[(slice(1, None),) * r]
    for axis in range(r):
        prime = -np.diff(prime, axis=axis)
    support = {tuple(w): int(prime[tuple(w)]) for w in np.argwhere(prime)}
    return divide_torus(TruncatedSeries(r, bound, support))


@pytest.mark.parametrize("r,bound", [(1, 30), (2, 12), (3, 7), (4, 5)])
def test_corner_sum_equals_the_staged_definition(monkeypatch, r, bound):
    # the corner sum is an identity of the assembly, whatever the counts
    rng = np.random.default_rng(100 * r + bound)
    spec = (Divisorial(1),) * r
    for _ in range(5):
        counts = rng.integers(0, 60, size=(bound + 2,) * r)

        def fake_counts(graph, spec, W, top):
            assert counts.shape == (top + 1,) * r
            return counts

        monkeypatch.setattr(oracle, "_counts", fake_counts)
        assert (definitional_poincare(None, spec, bound)
                == staged_poincare(counts, bound))


def oracle_digest(cases):
    h = hashlib.sha256()
    for g, bound in cases:
        q = definitional_poincare(g, default_spec(g), bound)
        h.update(series_to_text(q).encode())
    return h.hexdigest()


def test_definitional_poincare_golden_digest():
    # whole boxes, edge cells included, as computed by the staged
    # definition (see staged_poincare) before the corner sum replaced it
    random_cases = ((random_instance(700 + s, 10, r, mode), bound)
                    for r, bound in ((1, 30), (2, 16), (3, 10), (4, 8))
                    for mode in ("divisorial", "curve") for s in range(3))
    assert oracle_digest(random_cases) == (
        "d65606144e6cb647bea835b52a1f71d2f7196acb3fced699544ade24403ca9a9")
    assert oracle_digest((ladder_graph(p), 12) for p in (1, 2, 3)) == (
        "98cbde232284e1e9fb0a0bc13333b4052e6faa4dba369bda0e579904bd0db6b9")


# -- numerical semigroups ------------------------------------------------------


def test_semigroup_series_two_three():
    s = semigroup_series((2, 3), 10)
    assert [s[(k,)] for k in range(11)] == [1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1]


def test_semigroup_series_four_six_thirteen():
    s = semigroup_series((4, 6, 13), 20)
    members = {k for k in range(21) if s[(k,)]}
    assert 13 in members and 17 in members
    assert 5 not in members and 9 not in members and 11 not in members
    assert all(s[(k,)] in (0, 1) for k in range(21))


def test_semigroup_series_rejects_empty():
    with pytest.raises(OracleError):
        semigroup_series((), 5)

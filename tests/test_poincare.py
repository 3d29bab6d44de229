"""Closed product form of the series and the projection identities."""

import time

import pytest

from planevals import (Branch, Divisorial, DualGraph, FactoredSeries,
                       GraphError, blowup, default_spec, downward_closure,
                       expand, multiplicity_matrix, poincare_series, project,
                       projection_formula_curve, random_instance)
from planevals.dualgraph import euler_smooth
from planevals.reconstruct import BranchData, graph_from_branch

from conftest import (CUSP_CURVE, CUSP_DIV, CUSP_PAIR, FROZEN_SERIES, NAMED,
                      NODE, TACNODE, TRANSVERSAL_CUSPS, series_of)


def test_frozen_examples(named_graph):
    name, g = named_graph
    nvars, factors = FROZEN_SERIES[name]
    assert series_of(g) == FactoredSeries(nvars, factors)


def test_default_spec_orders_branches_first():
    g = DualGraph(((), (1,)), (1,), ((2, 1),))
    assert default_spec(g) == (Branch(1), Divisorial(1))


def test_explicit_spec_controls_variable_order():
    p = poincare_series(CUSP_PAIR_SWAPPED := DualGraph(CUSP_DIV.parents,
                                                       (2, 3), ()),
                        default_spec(CUSP_PAIR_SWAPPED))
    assert p == FactoredSeries(2, {(1, 2): -1, (2, 3): -1})
    q = poincare_series(CUSP_PAIR_SWAPPED,
                        (Divisorial(3), Divisorial(2)))
    assert q == FactoredSeries(2, {(2, 1): -1, (3, 2): -1})


def test_powers_are_negated_euler_characteristics():
    g = TRANSVERSAL_CUSPS
    chi = euler_smooth(g, "curve")
    m = multiplicity_matrix(g)
    arrows = [g.arrow_vertex(b) for b in (1, 2)]
    expected = {}
    for v in g.vertex_ids():
        if chi[v - 1]:
            exp = tuple(m[v - 1][a - 1] for a in arrows)
            expected[exp] = -chi[v - 1]
    assert series_of(g).factors() == expected


def test_spec_validation():
    with pytest.raises(GraphError):
        poincare_series(CUSP_DIV, ())
    with pytest.raises(GraphError):
        poincare_series(CUSP_DIV, (Divisorial(9),))
    with pytest.raises(GraphError):
        poincare_series(CUSP_DIV, (Branch(1),))
    with pytest.raises(GraphError):
        poincare_series(CUSP_DIV, (Divisorial(3), Divisorial(3)))
    with pytest.raises(GraphError, match="must reference every arrow"):
        poincare_series(NODE, (Branch(1),))


def test_nonminimal_divisorial_graph_rejected():
    # an unmarked maximal vertex cannot influence the filtration
    g = DualGraph(((), (1,)), (1,), ())
    with pytest.raises(GraphError, match="vertex 2 lies under no referenced"):
        poincare_series(g, default_spec(g))


def test_nonminimal_curve_graph_rejected():
    g, _ = blowup(DualGraph(CUSP_CURVE.parents, (), ()), ("free", 3))
    g = DualGraph(g.parents, (), ((3, 1),))
    with pytest.raises(GraphError, match="vertex 4 lies under no referenced"):
        poincare_series(g, default_spec(g))


def test_contractible_curve_graph_rejected():
    # a smooth branch through a free point of E_1: E_2 meets E_1 and the
    # arrow only, so it blows down
    g = DualGraph(((), (1,)), (), ((2, 1),))
    with pytest.raises(GraphError, match="vertex 2 is contractible"):
        poincare_series(g, default_spec(g))


# -- projections --------------------------------------------------------------


@pytest.mark.parametrize("seed", range(25))
def test_divisorial_projection_matches_closure(seed):
    g = random_instance(seed, 14, 3, "divisorial")
    p = series_of(g)
    marks = g.marked_divisors
    for keep in [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]:
        sub = downward_closure(g, [marks[i - 1] for i in keep])
        assert project(p, keep) == series_of(sub)


def test_curve_projection_formula_drops_one_branch():
    p = series_of(TACNODE)
    m = multiplicity_matrix(TACNODE)
    alpha = TACNODE.arrow_vertex(2)
    row = m[alpha - 1]
    m_alpha = tuple(row[TACNODE.arrow_vertex(b) - 1] for b in (1, 2))
    q = projection_formula_curve(p, m_alpha, 2)
    assert q == FactoredSeries(1, {(1,): -1})


def test_curve_projection_formula_last_branch():
    p = series_of(NAMED["smooth"])
    q = projection_formula_curve(p, (1,), 1)
    assert q == FactoredSeries(0, ())
    with pytest.raises(Exception):
        projection_formula_curve(p, (1,), 2)


@pytest.mark.parametrize("seed", range(15))
def test_curve_projection_agrees_with_direct_series(seed):
    from planevals import minimize_curve_resolution
    g = random_instance(seed, 14, 3, "curve")
    p = series_of(g)
    m = multiplicity_matrix(g)
    arrows = {b: g.arrow_vertex(b) for b in (1, 2, 3)}
    for drop in (1, 2, 3):
        row = m[arrows[drop] - 1]
        m_alpha = tuple(row[arrows[b] - 1] for b in (1, 2, 3))
        q = projection_formula_curve(p, m_alpha, drop)
        keep = [b for b in (1, 2, 3) if b != drop]
        sub = DualGraph(g.parents, (), tuple(
            (arrows[b], i + 1) for i, b in enumerate(keep)))
        sub = minimize_curve_resolution(sub)
        assert q == series_of(sub)


def test_list_and_tuple_specs_give_the_same_cached_series():
    # the series is cached per (graph, tuple(spec)): an equal graph built
    # as a new object, with the spec as a list, gets the very series
    spec = default_spec(CUSP_PAIR)
    first = poincare_series(CUSP_PAIR, spec)
    again = poincare_series(DualGraph(CUSP_PAIR.parents,
                                      CUSP_PAIR.marked_divisors),
                            list(spec))
    assert again is first


def test_expansion_of_cusp_series_is_semigroup_indicator():
    s = expand(series_of(CUSP_CURVE), 12)
    gaps = [k for k in range(13) if s[(k,)] == 0]
    assert gaps == [1]
    assert all(s[(k,)] in (0, 1) for k in range(13))


def test_deep_chain_series_is_linear():
    # gens (2, 3997): a free chain of 1999 vertices and a satellite on its
    # last edge, built here so that no series cached by another test answers
    n = 2000
    parents = ((),) + tuple((v - 1,) for v in range(2, n)) + ((n - 2, n - 1),)
    b = BranchData.from_generators((2, 3997), 0)
    start = time.perf_counter()
    g = DualGraph(parents, (), ((n, 1),))
    p = poincare_series(g, default_spec(g))
    assert time.perf_counter() - start < 2.0
    assert p == b.univariate_series("curve")
    assert graph_from_branch(b, "curve") == g

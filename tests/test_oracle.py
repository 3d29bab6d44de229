"""First-principles checks: parametrizations, jet dimensions, semigroups.

The oracle never touches the product formula; it replays blowup charts
and row-reduces jets, so agreement with the closed form is evidence,
not circularity.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from planevals import (Branch, Divisorial, DualGraph, OracleError,
                       branch_parametrization, curvette_parametrization,
                       default_spec, definitional_poincare, expand, ideal_dim,
                       multiplicity_matrix, multiplicity_sequence,
                       noether_contact, poincare_series, random_instance,
                       semigroup_series, valuation)
from planevals.oracle import _dependency

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


def test_definitional_poincare_matches_formula_on_node():
    p = expand(series_of(NODE), 10)
    q = definitional_poincare(NODE, default_spec(NODE), 10)
    for a in range(9):
        for b in range(9):
            assert p[(a, b)] == q[(a, b)]


def test_definitional_poincare_guards():
    with pytest.raises(OracleError):
        definitional_poincare(NODE, default_spec(NODE), 200)
    with pytest.raises(OracleError):
        definitional_poincare(NODE, (), 10)
    g = DualGraph(((), (1,), (1,)), (1, 2, 3), ())
    with pytest.raises(OracleError):
        definitional_poincare(g, default_spec(g), 8)


def test_mixed_spec_accepted():
    g = ladder_graph(1)
    assert default_spec(g) == (Branch(1), Divisorial(3))
    p = expand(poincare_series(g, default_spec(g)), 8)
    q = definitional_poincare(g, default_spec(g), 8)
    for a in range(7):
        for b in range(7):
            assert p[(a, b)] == q[(a, b)]


def test_dependency_returns_a_vanishing_integer_combination():
    rows = [(2, 4, 0), (1, 0, 3), (0, 4, -6)]
    dep = _dependency(rows)
    assert all(isinstance(c, int) for c in dep)
    assert dep == [-1, 2, 1]
    assert all(sum(c * r[i] for c, r in zip(dep, rows)) == 0
               for i in range(3))


def test_dependency_is_primitive_and_positive_on_the_closing_row():
    dep = _dependency([(4, 6), (6, 9)])
    assert dep == [-3, 2]
    # only the first dependent prefix counts; the last row is unused
    assert _dependency([(1, 0), (3, 0), (0, 1)]) == [-3, 1, 0]


@given(st.lists(st.lists(st.integers(-3, 3), max_size=4), min_size=1,
                max_size=5))
def test_dependency_vanishes_and_is_primitive(rows):
    dep = _dependency(rows)
    if dep is None:
        return
    last = max(i for i, c in enumerate(dep) if c)
    assert dep[last] > 0 and math.gcd(*dep) == 1
    width = max(len(r) for r in rows)
    for i in range(width):
        assert sum(c * (r[i] if i < len(r) else 0)
                   for c, r in zip(dep, rows)) == 0


def test_dependency_none_for_independent_rows():
    assert _dependency([(1, 0, 0), (0, 1), (1, 1, 1)]) is None
    assert _dependency([(5,)]) is None
    assert _dependency([]) is None


def test_dependency_pads_rows_of_unequal_length():
    rows = [(1,), (0, 2), (3, 4, 0, 0)]
    dep = _dependency(rows)
    assert dep == [-3, -2, 1]
    assert _dependency([(0, 0, 1), (0, 0, 0, 0)]) == [0, 1]


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

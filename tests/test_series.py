"""Series arithmetic: factored products, truncated expansions, text format."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from planevals import (FactoredSeries, SeriesError, TruncatedSeries,
                       divide_torus, expand, factorize, project,
                       series_from_text, series_to_text)
from planevals.series import MAX_CELLS, glex_key


def exponents(nvars, max_coord=6):
    return st.tuples(*[st.integers(0, max_coord)] * nvars).filter(any)


def factored(nvars, max_coord=6, max_factors=4):
    powers = st.integers(-3, 3).filter(bool)
    return st.dictionaries(exponents(nvars, max_coord), powers,
                           max_size=max_factors).map(
        lambda d: FactoredSeries(nvars, d))


# -- FactoredSeries basics ------------------------------------------------


def test_zero_powers_drop_and_duplicates_merge():
    f = FactoredSeries(2, [((1, 0), 2), ((1, 0), -2), ((0, 3), 1),
                           ((0, 3), 1)])
    assert f.factors() == {(0, 3): 2}
    assert len(f) == 1


def test_exponent_validation():
    with pytest.raises(SeriesError):
        FactoredSeries(2, {(0, 0): 1})
    with pytest.raises(SeriesError):
        FactoredSeries(2, {(1, -1): 1})
    with pytest.raises(SeriesError):
        FactoredSeries(2, {(1,): 1})
    with pytest.raises(SeriesError):
        FactoredSeries(-1, {})


def test_with_factor_and_equality():
    f = FactoredSeries(1, {(2,): -1})
    g = f.with_factor((2,), 1)
    assert g == FactoredSeries(1, {})
    assert f == FactoredSeries(1, {(2,): -1})
    assert hash(f) == hash(FactoredSeries(1, {(2,): -1}))


def test_max_degree_is_largest_coordinate():
    f = FactoredSeries(2, {(1, 4): -1, (3, 2): 2})
    assert f.max_degree() == 4
    assert FactoredSeries(2, {}).max_degree() == 0


def test_project_merges_and_rejects_degenerate():
    f = FactoredSeries(2, {(1, 2): -1, (1, 5): -1})
    assert project(f, [1]).factors() == {(1,): -2}
    with pytest.raises(SeriesError):
        project(FactoredSeries(2, {(0, 2): 1}), [1])
    with pytest.raises(SeriesError):
        project(f, [])
    with pytest.raises(SeriesError):
        project(f, [3])


# -- expansion ------------------------------------------------------------


def test_geometric_expansion():
    s = expand(FactoredSeries(1, {(1,): -1}), 6)
    assert [s[(k,)] for k in range(7)] == [1] * 7


def test_plain_factor_expansion():
    s = expand(FactoredSeries(1, {(2,): 1}), 6)
    assert [s[(k,)] for k in range(7)] == [1, 0, -1, 0, 0, 0, 0]


def test_expansion_with_exponent_beyond_bound():
    # a numerator factor whose exponent exceeds the grid must act as 1
    s = expand(FactoredSeries(1, {(66,): 1, (2,): -1}), 60)
    assert [s[(k,)] for k in range(8)] == [1, 0, 1, 0, 1, 0, 1, 0]
    assert s[(59,)] == 0 and s[(58,)] == 1


def test_zero_variable_constant():
    # the empty collection has the 0-variable constant series 1; it can
    # be stored and compared but a dense grid needs at least one variable
    f = FactoredSeries(0, ())
    assert f == FactoredSeries(0, {})
    assert len(f) == 0
    with pytest.raises(SeriesError):
        expand(f, 5)


@given(factored(2, max_coord=4))
def test_expand_agrees_with_projection(f):
    # substituting 1 for var 2 in the expansion matches the projected
    # series when the support cannot escape the grid along var 2: with
    # m2 <= m1 in every factor the exponents stay below the diagonal
    if any(m[1] > m[0] for m in f.factors()):
        return
    p = expand(project(f, [1]), 10)
    s = expand(f, 10)
    for k in range(11):
        assert p[(k,)] == sum(s[(k, j)] for j in range(11))


def test_divide_torus_inverts_torus_multiple():
    # (t1 t2 - 1) p = -(1 - t1 t2) p cancels the factor at (1, 1)
    p = expand(FactoredSeries(2, {(1, 1): -1, (1, 2): -1}), 9)
    q = expand(FactoredSeries(2, {(1, 2): -1}), 9)
    p_prime = TruncatedSeries(2, 9, -q.coeffs)
    assert divide_torus(p_prime) == p


# -- factorization --------------------------------------------------------


@given(factored(3, max_coord=5))
def test_factorize_recovers_factored_form(f):
    assert factorize(expand(f, 20)) == f


def test_factorize_requires_unit_constant():
    s = TruncatedSeries.zeros(1, 4)
    with pytest.raises(SeriesError):
        factorize(s)


def test_factorize_reproduces_arbitrary_unit_series():
    # peeling writes any unit-constant truncation as a product, exactly
    # within the grid
    s = TruncatedSeries.zeros(1, 3)
    s.coeffs[(0,)] = 1
    s.coeffs[(1,)] = 1
    s.coeffs[(3,)] = 1
    assert expand(factorize(s), 3) == s


# -- text format ----------------------------------------------------------


def test_factored_text_roundtrip_and_determinism():
    f = FactoredSeries(2, {(2, 1): -1, (1, 2): 3})
    text = series_to_text(f)
    assert text.splitlines()[0] == "vars 2 mode factored bound 0"
    assert series_from_text(text) == f
    assert series_to_text(series_from_text(text)) == text


def test_expanded_text_roundtrip():
    s = expand(FactoredSeries(2, {(1, 1): -1}), 5)
    text = series_to_text(s)
    assert text.splitlines()[0] == "vars 2 mode expanded bound 5"
    assert series_from_text(text) == s


def test_text_comments_and_blank_lines():
    text = "# leading comment\nvars 1 mode factored bound 0\n\n-1 2\n# done\n"
    assert series_from_text(text) == FactoredSeries(1, {(2,): -1})


@pytest.mark.parametrize("bad", [
    "",
    "garbage",
    "vars 1 mode factored bound 3\n-1 2\n",
    "vars 1 mode expanded bound -1\n",
    "vars 2 mode factored bound 0\n-1 2\n",
    "vars 1 mode factored bound 0\n-1 2 junk\n",
    "vars 1 mode whatever bound 0\n",
    "vars 1 mode expanded bound 2\n1 5\n",
])
def test_text_rejects_malformed_input(bad):
    with pytest.raises(SeriesError):
        series_from_text(bad)


@given(factored(3, max_coord=5))
def test_text_roundtrip_factored(f):
    assert series_from_text(series_to_text(f)) == f


@given(factored(2, max_coord=4))
def test_text_roundtrip_expanded(f):
    s = expand(f, 6)
    assert series_from_text(series_to_text(s)) == s


def test_coefficients_are_python_ints():
    s = expand(FactoredSeries(1, {(1,): -3}), 40)
    assert isinstance(s[(40,)], int) and not isinstance(s[(40,)], np.integer)
    # binomial(42, 2), large enough to matter if dtype were fixed width
    assert s[(40,)] == 861


# -- int64 storage and promotion -------------------------------------------


def cells(s):
    """All coefficients of a truncated series, as Python ints."""
    return {w: s[w] for w in itertools.product(range(s.bound + 1),
                                               repeat=s.nvars)}


def reference_expand(f, bound):
    """Pure-Python expansion: binomial series of each factor, convolved."""
    grid = list(itertools.product(range(bound + 1), repeat=f.nvars))
    acc = {w: int(not any(w)) for w in grid}
    for m, k in f.items():
        # (1 - t^m)^k = sum_j a_j t^{jm} with a_j = (-1)^j C(k, j) for
        # k > 0 and a_j = C(-k + j - 1, j) for k < 0
        series = {}
        for j in range(bound + 1):
            jm = tuple(j * e for e in m)
            if max(jm) > bound:
                break
            series[jm] = ((-1) ** j * math.comb(k, j) if k > 0
                          else math.comb(-k + j - 1, j))
        acc = {w: sum(c * acc[tuple(a - b for a, b in zip(w, u))]
                      for u, c in series.items()
                      if all(a >= b for a, b in zip(w, u)))
               for w in grid}
    return acc


def reference_text(f, bound):
    acc = reference_expand(f, bound)
    lines = [f"vars {f.nvars} mode expanded bound {bound}"]
    for w in sorted((w for w, c in acc.items() if c), key=glex_key):
        lines.append(" ".join(map(str, (acc[w],) + w)))
    return "\n".join(lines) + "\n"


def test_zeros_start_in_int64():
    assert TruncatedSeries.zeros(3, 4).coeffs.dtype == np.int64


def test_binomial_growth_promotes_to_python_ints():
    # (1 - t)^-40 has coefficients C(n + 39, 39); C(99, 39) > 2^63
    f = FactoredSeries(1, {(1,): -40})
    s = expand(f, 60)
    assert s[(60,)] > 2 ** 63
    assert s.coeffs.dtype == object
    for n in range(61):
        assert s[(n,)] == math.comb(n + 39, 39)
    assert factorize(s) == f


def test_promotion_partway_through_a_product():
    # glex order expands (1 - t2)^-3 first, in int64; (1 - t1)^-40 then
    # reaches C(99, 39) > 2^63 and promotes the buffer
    s = expand(FactoredSeries(2, {(0, 1): -3}), 60)
    assert s.coeffs.dtype == np.int64 and s[(0, 60)] == math.comb(62, 2)
    f = FactoredSeries(2, {(0, 1): -3, (1, 0): -40})
    t = expand(f, 60)
    assert t.coeffs.dtype == object
    want = {(i, j): math.comb(i + 39, 39) * math.comb(j + 2, 2)
            for i in range(61) for j in range(61)}
    assert cells(t) == want
    assert factorize(t) == f
    # the input is left as it was
    assert cells(t) == want


@pytest.mark.parametrize("top", [2 ** 62 - 1, 2 ** 62, 2 ** 62 + 1,
                                 2 ** 63 - 1])
def test_direct_write_near_int64_limit(top):
    # a value written into coeffs after construction must be measured,
    # not assumed small
    s = TruncatedSeries.zeros(1, 3)
    s.coeffs[(0,)] = 1
    s.coeffs[(1,)] = 1
    s.coeffs[(2,)] = top
    s.coeffs[(3,)] = -top
    # peeling (1 - t) first leaves top - 1 at t^2 and -2 * top at t^3
    f = factorize(s)
    assert f.factors() == {(1,): -1, (2,): 1 - top, (3,): 2 * top}
    assert cells(expand(f, 3)) == cells(s)
    u = TruncatedSeries.zeros(1, 3)
    u.coeffs[(0,)] = top
    u.coeffs[(1,)] = -top
    assert cells(divide_torus(u)) == {(0,): -top, (1,): 0, (2,): 0, (3,): 0}


def test_int64_min_is_measured_without_wrapping():
    # no pass fits on this grid, so only the sign flip meets INT64_MIN
    s = TruncatedSeries.zeros(1, 0)
    s.coeffs[(0,)] = -2 ** 63
    assert divide_torus(s)[(0,)] == 2 ** 63
    s = TruncatedSeries.zeros(1, 2)
    s.coeffs[(0,)] = -2 ** 63
    once = divide_torus(s)
    assert cells(once) == {(0,): 2 ** 63, (1,): 2 ** 63, (2,): 2 ** 63}
    assert cells(divide_torus(once)) == {(0,): -2 ** 63, (1,): -2 ** 64,
                                         (2,): -3 * 2 ** 63}
    s = TruncatedSeries.zeros(1, 1)
    s.coeffs[(0,)] = 1
    s.coeffs[(1,)] = -2 ** 63
    assert factorize(s) == FactoredSeries(1, {(1,): 2 ** 63})


def test_huge_negative_power_is_binomial():
    # (1 - t)^(-10^6): C(n + 10^6 - 1, n), far past int64; a million
    # unit-by-unit passes would not finish
    k = 10 ** 6
    s = expand(FactoredSeries(1, {(1,): -k}), 40)
    assert s.coeffs.dtype == object
    for n in range(41):
        assert s[(n,)] == math.comb(n + k - 1, n)
    lines = ["vars 1 mode expanded bound 40"]
    lines += [f"{math.comb(n + k - 1, n)} {n}" for n in range(41)]
    assert series_to_text(s) == "\n".join(lines) + "\n"


@pytest.mark.parametrize("k,dtype", [(10 ** 5, np.int64),
                                     (2 * 10 ** 5, object)])
def test_huge_positive_power_stays_exact(k, dtype):
    # sum_{j <= 4} C(k, j) is below 2^63 for k = 10^5 and above it for
    # 2 * 10^5, so the first result is certified in int64 and the second
    # is promoted
    f = FactoredSeries(2, {(2, 0): k})
    s = expand(f, 9)
    assert s.coeffs.dtype == dtype
    assert cells(s) == {(i, j): (math.comb(k, i // 2) * (-1) ** (i // 2)
                                 if i % 2 == 0 and j == 0 else 0)
                        for i in range(10) for j in range(10)}
    # peeling multiplies by (1 - t1^2)^-k, back to the constant 1
    assert factorize(s) == f


@given(factored(2, max_coord=4, max_factors=3), st.integers(0, 8))
def test_expansion_text_matches_pure_python(f, bound):
    assert series_to_text(expand(f, bound)) == reference_text(f, bound)


@given(st.dictionaries(exponents(1, 3), st.integers(-60, 2), max_size=3),
       st.integers(0, 40))
def test_large_powers_match_pure_python(factors, bound):
    # powers down to -60 push coefficients far past 2^63
    f = FactoredSeries(1, factors)
    s = expand(f, bound)
    assert series_to_text(s) == reference_text(f, bound)
    assert series_from_text(series_to_text(s)) == s


# -- grid-size guard --------------------------------------------------------


@pytest.mark.parametrize("nvars,bound", [(30, 5), (2, 4096), (1, MAX_CELLS),
                                         (40, 0), (2, 10 ** 40)])
def test_oversized_grids_are_refused(nvars, bound):
    with pytest.raises(SeriesError, match="cells"):
        TruncatedSeries.zeros(nvars, bound)
    with pytest.raises(SeriesError, match="cells"):
        expand(FactoredSeries(nvars, {}), bound)
    # refused from the header, before the malformed line is read
    with pytest.raises(SeriesError, match="cells"):
        series_from_text(f"vars {nvars} mode expanded bound {bound}\njunk\n")


def test_largest_used_grid_is_admitted():
    assert MAX_CELLS >= 26 ** 4
    s = expand(FactoredSeries(4, {(1, 1, 1, 1): -1}), 25)
    assert s[(25, 25, 25, 25)] == 1

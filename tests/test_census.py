"""The one-pass decoders over every small pure collection.

Each graph of the census (tests/census.py: at most 6 points, at most 3
valuations) is decoded from its series.  A divisorial decode must hand
its one assemble call the graph's own contact matrix, so the contact it
chose for every pair is the true one; a curve decode must peel each
level once, at the glex-first exponent of that level's series.  Either
way the decode is equivalent to its source after exactly one assembly.
On the census of at most 5 points, every contact of a decode, replaced
by each partial sum of its two chains' multiplicity products, is either
refused by assemble or merged into a graph that realizes the edit.

The series that the package builds without the constructor's check (the
product formula, a branch's univariate series, a factor added, a branch
removed, a factorized expansion) are, over that census and the campaign
items of the golden digest, exactly what the checked constructor makes
of their factors.
"""

from itertools import accumulate, combinations, zip_longest

import pytest

from planevals import (DecodeError, FactoredSeries, assemble, equivalent,
                       expand, factorize, multiplicity_matrix,
                       projection_formula_curve, random_instance,
                       reconstruct_curve, reconstruct_divisorial)
from planevals.reconstruct import _branch_profile
from planevals.series import glex_key

from census import bare_sequences, curve_collections, divisorial_collections
from conftest import series_of, spy_on

N_MAX = 6
R_MAX = 3
# decorated graphs of the census, one per canonical code
DIVISORIAL_GRAPHS = 6078
CURVE_GRAPHS = 4060
# the contact edits run on the census of at most 5 points, both modes
EDIT_N_MAX = 5
CONTACT_EDITS = 33683
EDITED_GRAPHS = 8320


@pytest.fixture(scope="module")
def bare():
    return [g for level in bare_sequences(N_MAX) for g in level]


def test_bare_sequence_counts():
    assert [len(level) for level in bare_sequences(N_MAX)] == [
        1, 1, 3, 10, 41, 180]


def test_divisorial_census_decodes_with_the_true_contacts(bare, monkeypatch):
    assembled = spy_on(monkeypatch, "assemble")
    graphs = [h for g in bare for h in divisorial_collections(g, R_MAX)]
    for h in graphs:
        assembled.clear()
        assert equivalent(reconstruct_divisorial(series_of(h)), h)
        (_, contacts, _), = assembled
        marks = h.marked_divisors
        mm = multiplicity_matrix(h, marks)
        assert contacts == [[row[w - 1] for w in marks] for row in mm]
    assert len(graphs) == DIVISORIAL_GRAPHS


def test_curve_census_peels_at_the_glex_first_exponent(bare, monkeypatch):
    assembled = spy_on(monkeypatch, "assemble")
    levels = spy_on(monkeypatch, "_solve_curve")
    peels = spy_on(monkeypatch, "projection_formula_curve")
    graphs = [h for g in bare for h in curve_collections(g, R_MAX)]
    for h in graphs:
        assembled.clear()
        levels.clear()
        peels.clear()
        assert equivalent(reconstruct_curve(series_of(h)), h)
        assert len(assembled) == 1
        # one peel per level that has a branch to give up, at its
        # glex-first exponent; one smooth branch, or two transversal
        # ones (the empty series), end the recursion
        peeled = [q for q, in levels if q.nvars > 1 and q.factors()]
        assert [q for q, _, _ in peels] == peeled
        for q, cand, _ in peels:
            assert cand == max(q.factors(), key=glex_key)
    assert len(graphs) == CURVE_GRAPHS


def contact_values(mu_i, mu_j):
    """The contacts of two chains that share 1, 2, ... points, down to two
    points past the longer one: partial sums of the products of their
    multiplicities, which are 1 past either chain."""
    products = [a * b for a, b in zip_longest(mu_i, mu_j, fillvalue=1)]
    return list(accumulate(products + [1, 1]))


def test_edited_contacts_are_refused_or_realized(bare, monkeypatch):
    assembled = spy_on(monkeypatch, "assemble")
    for g in bare:
        if g.n <= EDIT_N_MAX:
            for h in divisorial_collections(g, R_MAX):
                reconstruct_divisorial(series_of(h))
            for h in curve_collections(g, R_MAX):
                reconstruct_curve(series_of(h))
    edits = graphs = 0
    for branches, contacts, mode in assembled:
        mu = [_branch_profile(b, mode)[1] for b in branches]
        r = len(branches)
        for i, j in combinations(range(r), 2):
            for value in contact_values(mu[i], mu[j]):
                edited = [row[:] for row in contacts]
                edited[i][j] = edited[j][i] = value
                edits += 1
                try:
                    graph = assemble(branches, edited, mode)
                except DecodeError:  # ContactError is one
                    continue
                graphs += 1
                if mode == "divisorial":
                    refs = graph.marked_divisors
                else:
                    refs = [v for v, _ in sorted(graph.arrows,
                                                 key=lambda a: a[1])]
                got = [[row[w - 1] for w in refs]
                       for row in multiplicity_matrix(graph, refs)]
                if mode == "curve":
                    # the diagonal holds a branch's solo self-value, which
                    # free points shared with another branch run past
                    for k in range(r):
                        got[k][k] = edited[k][k]
                assert got == edited
    assert (edits, graphs) == (CONTACT_EDITS, EDITED_GRAPHS)


# the box of the factorized expansions
CHECK_BOUND = 4


def assert_checked(q):
    """q is what the checked constructor makes of its factors: the same
    exponents, as tuples of Python ints, and nonzero Python int powers."""
    facs = q.factors()
    assert q == FactoredSeries(q.nvars, facs)
    assert 0 not in facs.values()
    assert all(type(m) is tuple and len(m) == q.nvars
               and all(type(e) is int for e in m) and type(k) is int
               for m, k in facs.items())


def campaign_graphs():
    """The graphs of the campaign golden digest (test_reconstruct.py)."""
    for k in range(1000):
        mode, j = ("divisorial", "curve")[k % 2], k // 2
        r = j % 3 + 1 if mode == "divisorial" else j % 4 + 1
        yield random_instance(4 * (10 ** 6 + k), 30, r, mode)


def test_unchecked_series_match_the_checked_constructor(bare, monkeypatch):
    assembled = spy_on(monkeypatch, "assemble")
    graphs = list(campaign_graphs())
    for g in bare:
        if g.n <= EDIT_N_MAX:
            graphs += divisorial_collections(g, R_MAX)
            graphs += curve_collections(g, R_MAX)
    outputs = 0
    for h in graphs:
        p = series_of(h)
        made = [p, factorize(expand(p, CHECK_BOUND))]
        assembled.clear()
        if h.arrows:
            reconstruct_curve(p)
            refs = [v for v, _ in sorted(h.arrows, key=lambda a: a[1])]
            rows = multiplicity_matrix(h, refs)
            for i, v in enumerate(refs, 1):
                m_alpha = tuple(row[v - 1] for row in rows)
                made.append(p.with_factor(m_alpha, -1))
                made.append(projection_formula_curve(p, m_alpha, i))
        else:
            reconstruct_divisorial(p)
        (branches, _, mode), = assembled
        made += [b.univariate_series(mode) for b in branches]
        for q in made:
            assert_checked(q)
        outputs += len(made)
    assert (len(graphs), outputs) == (3129, 22383)

"""The one-pass decoders over every small pure collection.

Each graph of the census (tests/census.py: at most 6 points, at most 3
valuations) is decoded from its series.  A divisorial decode must hand
its one assemble call the graph's own contact matrix, so the contact it
chose for every pair is the true one; a curve decode must peel each
level once, at the glex-first exponent of that level's series.  Either
way the decode is equivalent to its source after exactly one assembly.
"""

import pytest

from planevals import (equivalent, multiplicity_matrix, reconstruct_curve,
                       reconstruct_divisorial)
from planevals.series import glex_key

from census import bare_sequences, curve_collections, divisorial_collections
from conftest import series_of, spy_on

N_MAX = 6
R_MAX = 3
# decorated graphs of the census, one per canonical code
DIVISORIAL_GRAPHS = 6078
CURVE_GRAPHS = 4060


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

"""Shared example graphs and helpers for the test suite."""

import pytest
from hypothesis import HealthCheck, settings

from planevals import (DualGraph, default_spec, poincare_series,
                       random_instance, reconstruct)

settings.register_profile("suite", deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])
# examples of each test in test_fuzz.py in tier-1; the "fuzz" profile, for
# `pytest --hypothesis-profile fuzz tests/test_fuzz.py`, runs twenty times
# as many
FUZZ_EXAMPLES = 100
settings.register_profile("fuzz", parent=settings.get_profile("suite"),
                          max_examples=20 * FUZZ_EXAMPLES)
settings.load_profile("suite")

# Named small instances.  Parents are 1-based; a vertex with two parents
# sits on the intersection of those exceptional curves.

SINGLE = DualGraph(((),), (1,), ())
SMOOTH = DualGraph(((),), (), ((1, 1),))
CUSP_CURVE = DualGraph(((), (1,), (1, 2)), (), ((3, 1),))
CUSP_DIV = DualGraph(((), (1,), (1, 2)), (3,), ())
CUSP_PAIR = DualGraph(((), (1,), (1, 2)), (3, 2), ())
CUSP_MARKS3 = DualGraph(((), (1,), (1, 2)), (1, 2, 3), ())
NODE = DualGraph(((),), (), ((1, 1), (1, 2)))
TACNODE = DualGraph(((), (1,)), (), ((2, 1), (2, 2)))
TRANSVERSAL_CUSPS = DualGraph(((), (1,), (1, 2), (1,), (1, 4)), (),
                              ((3, 1), (5, 2)))

# Frozen factored series of the named instances, derived once by hand
# from the product formula and the multiplicity matrix.

FROZEN_SERIES = {
    "single": (1, {(1,): -2}),
    "smooth": (1, {(1,): -1}),
    "cusp_curve": (1, {(2,): -1, (3,): -1, (6,): 1}),
    "cusp_div": (1, {(2,): -1, (3,): -1}),
    "cusp_pair": (2, {(2, 1): -1, (3, 2): -1}),
    "cusp_marks3": (3, {(1, 1, 2): -1, (1, 2, 3): -1}),
    "node": (2, {}),
    "tacnode": (2, {(1, 1): -1, (2, 2): 1}),
    "transversal_cusps": (2, {(2, 3): -1, (3, 2): -1, (4, 6): 1, (6, 4): 1}),
}

NAMED = {
    "single": SINGLE,
    "smooth": SMOOTH,
    "cusp_curve": CUSP_CURVE,
    "cusp_div": CUSP_DIV,
    "cusp_pair": CUSP_PAIR,
    "cusp_marks3": CUSP_MARKS3,
    "node": NODE,
    "tacnode": TACNODE,
    "transversal_cusps": TRANSVERSAL_CUSPS,
}


def ladder_graph(p: int) -> DualGraph:
    """Free chain of length p+1, one satellite on the last edge.

    The satellite vertex is marked and the chain end carries a branch
    arrow.  The series is the same for every p although the graphs all
    differ, which is the standard caution against dropping the partial
    order."""
    parents = [()] + [(i,) for i in range(1, p + 1)] + [(p, p + 1)]
    return DualGraph(tuple(parents), (p + 2,), ((p + 1, 1),))


def small_corpus():
    """Every named instance plus seeded random ones, all with <= 8 vertices."""
    graphs = [g for g in NAMED.values() if g.n <= 8]
    graphs += [ladder_graph(p) for p in (1, 2, 3)]
    for seed in range(20):
        g = random_instance(seed, 8, 1 + seed % 2, "divisorial")
        if g.n <= 8:
            graphs.append(g)
    for seed in range(20):
        g = random_instance(1000 + seed, 8, 1 + seed % 2, "curve")
        if g.n <= 8:
            graphs.append(g)
    return graphs


def series_of(graph: DualGraph):
    return poincare_series(graph, default_spec(graph))


def bareiss_det(rows) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    a = [list(map(int, r)) for r in rows]
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("square matrix required")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def spy_on(monkeypatch, name):
    """Record the arguments of every call of reconstruct.<name>."""
    calls = []
    real = getattr(reconstruct, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(reconstruct, name, spy)
    return calls


@pytest.fixture(params=sorted(NAMED))
def named_graph(request):
    return request.param, NAMED[request.param]

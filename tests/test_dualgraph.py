"""Dual graphs: replay validation, order queries, matrices, equivalence."""

import hashlib
import json
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from planevals import (DualGraph, GraphError, blowup, canonical_code,
                       downward_closure, equivalent, graph_from_json,
                       graph_to_json, minimize_curve_resolution,
                       multiplicity_matrix, random_instance)
from planevals.dualgraph import MAX_VERTICES, euler_smooth

from conftest import (CUSP_CURVE, CUSP_DIV, TACNODE, bareiss_det,
                      small_corpus)


# -- construction and replay ----------------------------------------------


def test_empty_and_single():
    g = DualGraph((), (), ())
    assert g.n == 0
    # an empty graph has no vertex for a decoration to sit on
    with pytest.raises(GraphError, match="marked divisor 1 out of range"):
        DualGraph((), (1,), ())
    with pytest.raises(GraphError, match="arrow vertex 1 out of range"):
        DualGraph((), (), ((1, 1),))
    g, v = blowup(g, "origin")
    assert (g.n, v) == (1, 1)
    assert g.neighbors(1) == ()
    assert g.self_intersection(1) == -1


def test_blowup_kinds_and_self_intersections():
    g, _ = blowup(DualGraph((), (), ()), "origin")
    g, _ = blowup(g, ("free", 1))
    g, _ = blowup(g, ("satellite", 1, 2))
    # two blowups on E1, one on E2
    assert [g.self_intersection(v) for v in g.vertex_ids()] == [-3, -2, -1]
    assert g.neighbors(3) == (1, 2)
    assert g.neighbors(1) == (3,)
    assert g.parents == CUSP_CURVE.parents


def test_blowup_rejections():
    g = DualGraph((), (), ())
    with pytest.raises(GraphError):
        blowup(g, ("free", 1))
    g, _ = blowup(g, "origin")
    with pytest.raises(GraphError):
        blowup(g, "origin")
    with pytest.raises(GraphError):
        blowup(g, ("free", 2))
    g, _ = blowup(g, ("free", 1))
    g, _ = blowup(g, ("satellite", 1, 2))
    with pytest.raises(GraphError):
        blowup(g, ("satellite", 1, 2))  # edge 1-2 destroyed by vertex 3
    with pytest.raises(GraphError):
        blowup(g, ("weird",))


def test_satellite_pair_out_of_range():
    g = DualGraph(((), (1,)), (), ())
    with pytest.raises(GraphError, match="bad pair"):
        blowup(g, ("satellite", 1, g.n + 3))
    with pytest.raises(GraphError, match="bad pair"):
        blowup(g, ("satellite", 0, 1))


def test_parent_validation():
    with pytest.raises(GraphError):
        DualGraph(((), (3,)), (), ())
    with pytest.raises(GraphError):
        DualGraph(((), (1,), (1, 2), (1, 2)), (), ())
    with pytest.raises(GraphError):
        DualGraph(((1,),), (), ())
    with pytest.raises(GraphError):
        DualGraph(((), ()), (), ())


def test_parents_are_stored_as_sorted_int_tuples():
    # tuples of ints already in order are kept as they are
    parents = ((), (1,), (1, 2))
    g = DualGraph(parents)
    assert all(a is b for a, b in zip(g.parents, parents))
    # any other entry is converted and sorted: a list, a bool, a float, a
    # tuple of two in reverse order or of one repeated entry
    g = DualGraph(([], [True], (2.0, 1), (3, 1)))
    assert g.parents == ((), (1,), (1, 2), (1, 3))
    assert [type(p) for ps in g.parents for p in ps] == [int] * 5
    with pytest.raises(GraphError, match="vertex 3: bad parents \\(2, 2\\)"):
        DualGraph(((), (1,), (2, 2)))


def test_arrows_are_stored_as_sorted_int_pairs():
    # arrows are converted and sorted: a sorted tuple, a list, lists as
    # pairs, a bool, a float, pairs out of order
    parents = CUSP_CURVE.parents
    for given in (((2, 1), (3, 2)), [[3, 2], [2, 1]], ((2, True), (3, 2.0)),
                  ((3, 2), (2, 1))):
        g = DualGraph(parents, (), given)
        assert g.arrows == ((2, 1), (3, 2))
        assert type(g.arrows) is tuple
        assert [type(x) for a in g.arrows for x in (a, *a)] == [
            tuple, int, int] * 2
    with pytest.raises(ValueError, match="not enough values to unpack"):
        DualGraph(parents, (), ((2,),))


@given(st.data())
def test_satellite_parents_are_nested(data):
    # whatever earlier vertices are given as parents, an accepted graph
    # has the smaller parent of each satellite among the larger one's
    # parents, which the tags of canonical_code read
    rows = [()]
    for v in range(2, data.draw(st.integers(1, 8)) + 1):
        rows.append(tuple(data.draw(st.lists(st.integers(1, v - 1),
                                             min_size=1, max_size=2))))
    try:
        g = DualGraph(tuple(rows), (), ())
    except GraphError:
        return
    for lo, hi in (ps for ps in g.parents if len(ps) == 2):
        assert lo in g.parents[hi - 1]
    assert canonical_code(g).startswith("(R;")


def test_decoration_validation():
    parents = ((), (1,))
    with pytest.raises(GraphError):
        DualGraph(parents, (3,), ())
    with pytest.raises(GraphError):
        DualGraph(parents, (1, 1), ())
    with pytest.raises(GraphError):
        DualGraph(parents, (), ((2, 1), (2, 3)))
    with pytest.raises(GraphError):
        DualGraph(parents, (), ((5, 1),))


# -- order queries ---------------------------------------------------------


def test_order_queries_on_cusp():
    g = CUSP_DIV
    assert g.chain_to(3) == (1, 2, 3)
    assert g.maximal_vertices() == (3,)
    assert not g.is_maximal(1)
    assert g.valence(3) == 2 and g.valence(1) == 1
    assert g.arrows_at(3) == ()


def reference_down_sets(g):
    """down[v] = {v} together with the down-sets of both parents."""
    down = {}
    for v in g.vertex_ids():
        down[v] = frozenset({v}).union(*(down[p] for p in g.parents[v - 1]))
    return down


def test_order_queries_match_down_sets():
    graphs = small_corpus() + [random_instance(seed, 25, 1 + seed % 3,
                                               ("divisorial", "curve")[seed % 2],
                                               satellite_bias=0.7)
                               for seed in range(40)]
    for g in graphs:
        down = reference_down_sets(g)
        for v in g.vertex_ids():
            assert g.chain_to(v) == tuple(sorted(down[v]))
    for bad in (0, CUSP_DIV.n + 1):
        with pytest.raises(GraphError):
            CUSP_DIV.chain_to(bad)


def test_deep_chain_builds_and_answers_in_linear_time():
    n = 5000
    start = time.perf_counter()
    g = free_chain(n)
    assert g.chain_to(n) == tuple(range(1, n + 1))
    assert time.perf_counter() - start < 0.5


def test_meet_of_separated_vertices():
    # two free chains out of the root
    g = DualGraph(((), (1,), (1,), (2,)), (), ())
    assert g.chain_to(4) == (1, 2, 4) and g.chain_to(3) == (1, 3)
    assert max(set(g.chain_to(4)) & set(g.chain_to(3))) == 1
    assert max(set(g.chain_to(4)) & set(g.chain_to(2))) == 2


def test_arrow_queries():
    assert TACNODE.arrows_at(2) == (1, 2)
    assert TACNODE.arrow_vertex(1) == 2
    with pytest.raises(GraphError):
        TACNODE.arrow_vertex(3)


# -- multiplicity matrix ---------------------------------------------------


def test_cusp_multiplicity_matrix():
    assert multiplicity_matrix(CUSP_DIV) == ((1, 1, 2), (1, 2, 3), (2, 3, 6))


def intersection_matrix(g):
    n = g.n
    rows = [[0] * n for _ in range(n)]
    for v in g.vertex_ids():
        rows[v - 1][v - 1] = g.self_intersection(v)
        for w in g.neighbors(v):
            rows[v - 1][w - 1] = 1
    return rows


@pytest.mark.parametrize("g", small_corpus())
def test_multiplicity_matrix_inverts_intersection_form(g):
    m = multiplicity_matrix(g)
    ii = intersection_matrix(g)
    n = g.n
    for a in range(n):
        for b in range(n):
            s = -sum(ii[a][k] * m[k][b] for k in range(n))
            assert s == (1 if a == b else 0)
    assert bareiss_det([list(r) for r in m]) == 1
    assert all(e >= 1 for row in m for e in row)
    assert m == tuple(zip(*m))


def test_multiplicity_rows_grow_upward():
    for g in small_corpus():
        m = multiplicity_matrix(g)
        for v in g.vertex_ids():
            for p in g.parents[v - 1]:
                assert all(m[v - 1][k] >= m[p - 1][k] for k in range(g.n))


def test_multiplicity_rows_match_full_matrix():
    graphs = small_corpus()
    graphs += [random_instance(seed, 20, 1 + seed % 4,
                               ("divisorial", "curve")[seed % 2])
               for seed in range(200)]
    rng = random.Random(5)
    for g in graphs:
        full = multiplicity_matrix(g)
        assert len(full) == g.n
        picks = [tuple(rng.choices(range(1, g.n + 1), k=k)) for k in (1, 3)]
        for cols in picks + [tuple(g.vertex_ids())]:
            assert multiplicity_matrix(g, cols) == tuple(full[c - 1]
                                                         for c in cols)
    with pytest.raises(GraphError):
        multiplicity_matrix(CUSP_DIV, (4,))
    with pytest.raises(GraphError):
        multiplicity_matrix(CUSP_DIV, (0,))


def test_multiplicity_rows_are_certified():
    # Corrupted intersection data must be caught by the (-I) x = e_c
    # certificate: the recursion itself reads only the parents.  Rows are
    # not cached, so every call certifies the rows it returns.
    for n, field in ((41, "_selfint"), (43, "_adj")):
        g = free_chain(n, (n,))
        if field == "_selfint":
            bad = (g._selfint[0] - 1,) + g._selfint[1:]
        else:
            bad = dict(g._adj)
            bad[n] = bad[n] + (1,)
        object.__setattr__(g, field, bad)
        with pytest.raises(GraphError, match="inversion"):
            multiplicity_matrix(g, (n,))


def test_bareiss_det_examples():
    assert bareiss_det([[2, 1], [1, 1]]) == 1
    assert bareiss_det([[1, 2], [3, 4]]) == -2
    assert bareiss_det([[5]]) == 5


# -- euler characteristics --------------------------------------------------


def test_euler_smooth_counts_removed_points():
    assert euler_smooth(CUSP_DIV, "divisorial") == (1, 1, 0)
    assert euler_smooth(CUSP_CURVE, "curve") == (1, 1, -1)
    assert euler_smooth(TACNODE, "curve") == (1, -1)


# -- closures and minimization ----------------------------------------------


def test_downward_closure_of_mark():
    g = downward_closure(CUSP_DIV, [2])
    assert g.parents == ((), (1,))
    assert g.marked_divisors == (2,)
    with pytest.raises(GraphError):
        downward_closure(CUSP_CURVE, [1])
    with pytest.raises(GraphError):
        downward_closure(CUSP_DIV, [])
    with pytest.raises(GraphError):
        downward_closure(CUSP_DIV, [7])


def test_downward_closure_keeps_mark_order():
    g = downward_closure(CUSP_DIV, [3, 1])
    assert g.marked_divisors == (3, 1)
    assert g.parents == CUSP_DIV.parents


def test_minimize_contracts_spent_tail():
    g, _ = blowup(DualGraph(CUSP_CURVE.parents, (), ()), ("free", 3))
    g = DualGraph(g.parents, (), ((4, 1),))
    h = minimize_curve_resolution(g)
    # the arrow slides down the contracted chain; cusp shape is restored
    assert equivalent(h, CUSP_CURVE)
    assert equivalent(minimize_curve_resolution(CUSP_CURVE), CUSP_CURVE)


def test_minimize_keeps_rupture_vertices():
    assert equivalent(minimize_curve_resolution(TACNODE), TACNODE)


# -- equivalence and canonical codes ----------------------------------------


def test_equivalence_ignores_creation_order():
    a = DualGraph(((), (1,), (1,)), (2, 3), ())
    b = DualGraph(((), (1,), (1,)), (3, 2), ())
    assert canonical_code(a) == canonical_code(b)
    assert equivalent(a, b)


def test_equivalence_distinguishes_satellite_structure():
    a = DualGraph(((), (1,), (1, 2)), (3,), ())
    b = DualGraph(((), (1,), (2,)), (3,), ())
    assert not equivalent(a, b)


def test_equivalence_sees_decorations():
    base = ((), (1,))
    assert not equivalent(DualGraph(base, (2,), ()),
                          DualGraph(base, (1,), ()))
    assert not equivalent(DualGraph(base, (2,), ()),
                          DualGraph(base, (), ((2, 1),)))


def recursive_code(graph, v=1):
    """The recursive definition of canonical_code, for small graphs."""
    if graph.n == 0:
        return "()"
    ps = graph.parents[v - 1]
    if not ps:
        tag = "R"
    elif len(ps) == 1:
        tag = "F"
    else:
        other, tree_parent = ps
        pp = graph.parents[tree_parent - 1]
        tag = ("S1" if len(pp) == 1
               else "SL" if other == min(pp) else "SH")
    marks = ",".join(str(i + 1)
                     for i, w in enumerate(graph.marked_divisors) if w == v)
    arrs = ",".join(str(b) for b in graph.arrows_at(v))
    kids = sorted(recursive_code(graph, c) for c in graph.vertex_ids()
                  if graph.parents[c - 1] and max(graph.parents[c - 1]) == v)
    return f"({tag};{marks};{arrs}|{''.join(kids)})"


def test_canonical_code_matches_recursive_definition():
    graphs = small_corpus() + [DualGraph((), (), ())]
    graphs += [random_instance(seed, 30, 1 + seed % 4,
                               ("divisorial", "curve")[seed % 2])
               for seed in range(40)]
    for g in graphs:
        assert canonical_code(g) == recursive_code(g)


def test_canonical_code_of_deep_chain():
    # far deeper than the interpreter's recursion limit
    n = 1500
    g = DualGraph(((),) + tuple((v - 1,) for v in range(2, n + 1)),
                  (n,), ((n, 1),))
    code = canonical_code(g)
    assert code == "(R;;|" + "(F;;|" * (n - 2) + "(F;1;1|)" + ")" * (n - 1)
    assert equivalent(g, g)


# -- random instances --------------------------------------------------------


@given(st.integers(0, 10_000))
def test_random_divisorial_instances_are_closed(seed):
    g = random_instance(seed, 12, 2, "divisorial")
    assert len(g.marked_divisors) == 2
    assert g.arrows == ()
    assert set(g.maximal_vertices()) <= set(g.marked_divisors)
    assert g.n <= 12


@given(st.integers(0, 10_000))
def test_random_curve_instances_are_minimal(seed):
    g = random_instance(seed, 12, 2, "curve")
    assert len(g.arrows) == 2
    assert g.marked_divisors == ()
    assert equivalent(minimize_curve_resolution(g), g)


def test_random_instance_is_deterministic():
    a = random_instance(7, 12, 2, "divisorial")
    b = random_instance(7, 12, 2, "divisorial")
    assert a == b and graph_to_json(a) == graph_to_json(b)


def test_random_instance_rejections():
    with pytest.raises(GraphError):
        random_instance(0, 5, 6, "divisorial")
    with pytest.raises(GraphError):
        random_instance(0, 0, 1, "curve")
    with pytest.raises(GraphError):
        random_instance(0, 5, 1, "weird")


def test_random_instance_refuses_more_than_max_vertices():
    assert random_instance(3, MAX_VERTICES, 2, "curve").n <= MAX_VERTICES
    for mode in ("divisorial", "curve"):
        with pytest.raises(GraphError, match="exceeds"):
            random_instance(0, MAX_VERTICES + 1, 1, mode)
        with pytest.raises(GraphError, match="exceeds"):
            random_instance(0, 10 ** 9, 2, mode)


# sha256 over graph_to_json of every instance generated below, as produced
# by the generator that appended one blowup and rebuilt the graph each time
GENERATION_DIGEST = (
    "6327e1f16bd27694e82ad2f50810622ab004c32b36cc6a9a8290442429d72c03")


def test_random_instances_match_pinned_digest():
    h = hashlib.sha256()
    for mode in ("divisorial", "curve"):
        for mv in (12, 30):
            for seed in range(300):
                g = random_instance(seed, mv, 1 + seed % 4, mode)
                h.update(graph_to_json(g).encode())
        for seed in range(3):
            h.update(graph_to_json(random_instance(seed, 800, 24, mode))
                     .encode())
    assert h.hexdigest() == GENERATION_DIGEST


def reference_contract(graph, v):
    """Blow down the maximal vertex v and rebuild the graph."""
    ps = graph.parents[v - 1]
    remap = {old: (old if old < v else old - 1)
             for old in graph.vertex_ids() if old != v}
    parents = tuple(tuple(remap[p] for p in graph.parents[old - 1])
                    for old in graph.vertex_ids() if old != v)
    marks = tuple(remap[w] for w in graph.marked_divisors)
    arrows = []
    for w, b in graph.arrows:
        if w == v:
            assert len(ps) == 1, "cannot move an arrow off a satellite"
            arrows.append((remap[ps[0]], b))
        else:
            arrows.append((remap[w], b))
    return DualGraph(parents, marks, tuple(arrows))


def reference_minimize(graph):
    """Contract the smallest eligible vertex and rescan, until none is."""
    g = graph
    while True:
        target = None
        for v in g.maximal_vertices():
            if g.n < 2 or v in g.marked_divisors:
                continue
            load = g.valence(v) + len(g.arrows_at(v))
            if load <= 2 and not (len(g.parents[v - 1]) == 2
                                  and g.arrows_at(v)):
                target = v
                break
        if target is None:
            return g
        g = reference_contract(g, target)


def decorated_sequence(seed):
    """A random blowup sequence with arrows and marks, stacked on the
    maximal vertices so that every contraction rule comes into play."""
    rng = random.Random(seed)
    g, _ = blowup(DualGraph(), "origin")
    for _ in range(rng.randint(0, 13)):
        edges = [(a, b) for a in g.vertex_ids() for b in g.neighbors(a)
                 if a < b]
        if edges and rng.random() < 0.4:
            g, _ = blowup(g, ("satellite",) + rng.choice(edges))
        else:
            g, _ = blowup(g, ("free", rng.randint(1, g.n)))
    tips = g.maximal_vertices()
    arrows = []
    for b in range(1, rng.randint(0, 4) + 1):
        pool = tips if rng.random() < 0.7 else tuple(g.vertex_ids())
        if arrows and rng.random() < 0.4:
            v = arrows[-1][0]
        else:
            v = rng.choice(pool)
        arrows.append((v, b))
    marks = rng.sample(range(1, g.n + 1), rng.choice((0, 0, 1, 2))
                       if g.n >= 2 else 0)
    return DualGraph(g.parents, tuple(marks), tuple(arrows))


def free_chain(n, marks=(), arrows=()):
    return DualGraph(((),) + tuple((v - 1,) for v in range(2, n + 1)),
                     marks, arrows)


def test_minimize_matches_rebuilding_reference():
    graphs = [decorated_sequence(seed) for seed in range(200)]
    graphs += [free_chain(6), free_chain(6, (), ((6, 1),)),
               free_chain(6, (2,), ((6, 1),)),
               free_chain(6, (), ((6, 1), (6, 2))),
               free_chain(5, (), ((3, 1), (5, 2))), DualGraph(),
               free_chain(1, (), ((1, 1),)),
               # contracting 3 gives 2 back its edge to 1, which then
               # meets three components and stays
               DualGraph(((), (1,), (1, 2)), (), ((2, 1), (2, 2))),
               DualGraph(((), (1,), (1, 2)), (), ((3, 1),))]
    seen = set()
    for g in graphs:
        want = reference_minimize(g)
        got = minimize_curve_resolution(g)
        assert graph_to_json(got) == graph_to_json(want)
        assert got == want
        if want.n == g.n:
            assert got is g
        tips = [v for v in g.maximal_vertices() if g.n >= 2]
        seen.update(
            name for name, hit in (
                ("stacked arrows", any(len(g.arrows_at(v)) >= 2
                                       for v in g.vertex_ids())),
                ("arrow on a satellite tip", any(
                    len(g.parents[v - 1]) == 2 and g.arrows_at(v)
                    for v in tips)),
                ("marked tip", any(v in g.marked_divisors for v in tips)),
                ("satellite contracted", any(
                    len(g.parents[v - 1]) == 2 and not g.arrows_at(v)
                    and v not in g.marked_divisors for v in tips)
                 and want.n < g.n),
                ("down to two", g.n >= 4 and want.n == 2),
                ("down to one", g.n >= 4 and want.n == 1),
            ) if hit)
    assert len(seen) == 6, seen
    # the chain shrinks to the last vertex the rule can spare
    assert reference_minimize(free_chain(6)).n == 1
    assert minimize_curve_resolution(free_chain(6, (2,), ((6, 1),))).n == 2
    assert minimize_curve_resolution(graphs[-2]).n == 2


# -- JSON format --------------------------------------------------------------


@pytest.mark.parametrize("g", small_corpus())
def test_json_roundtrip(g):
    assert graph_from_json(graph_to_json(g)) == g


def reference_json(g):
    doc = {
        "vertices": [
            {"id": v, "parents": list(g.parents[v - 1]),
             "self_intersection": g.self_intersection(v)}
            for v in g.vertex_ids()
        ],
        "marked_divisors": list(g.marked_divisors),
        "arrows": [{"vertex": v, "branch": b} for v, b in g.arrows],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_json_layout_matches_json_dumps():
    graphs = [DualGraph(), DualGraph(((),)), DualGraph(((),), (1,), ()),
              DualGraph(((),), (), ((1, 1), (1, 2), (1, 3))),
              DualGraph(((), (1,), (1, 2))), TACNODE, CUSP_DIV,
              free_chain(12, (12, 3), ((12, 1), (12, 2), (7, 3)))]
    graphs += [random_instance(seed, 30, 1 + seed % 5,
                               ("divisorial", "curve")[seed % 2])
               for seed in range(100)]
    for g in graphs:
        assert graph_to_json(g) == reference_json(g)


def test_json_declares_self_intersections():
    data = json.loads(graph_to_json(CUSP_DIV))
    assert [v["self_intersection"] for v in data["vertices"]] == [-3, -2, -1]
    assert data["marked_divisors"] == [3]


def test_json_rejects_wrong_self_intersection():
    data = json.loads(graph_to_json(CUSP_DIV))
    data["vertices"][0]["self_intersection"] = -5
    with pytest.raises(GraphError):
        graph_from_json(json.dumps(data))


def test_json_rejects_malformed_documents():
    with pytest.raises((GraphError, ValueError)):
        graph_from_json("{")
    with pytest.raises((GraphError, ValueError)):
        graph_from_json("{}")
    with pytest.raises((GraphError, ValueError)):
        graph_from_json(json.dumps({"vertices": [], "marked_divisors": [1],
                                    "arrows": []}))
    with pytest.raises(GraphError, match="'vertices' must be a list"):
        graph_from_json(json.dumps({"vertices": {"id": 1}}))
    with pytest.raises(GraphError, match="vertex ids must be exactly 1..n"):
        graph_from_json(json.dumps({"vertices": [{"id": 1}, {"id": 3}]}))

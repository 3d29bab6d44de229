"""Exact class and message of every refusal on the round trip's hot path.

Graph replay, decorations, the JSON reader, factor exponents, branch
generators, the Euler characteristics, the minimality check and the
assembly of contacts against the chains each refuse bad input with one
message.  The table pins the class and the
whole message, and where one input breaks two rules, which rule speaks
first.
"""

import json

import pytest

from planevals import (Branch, BranchData, ContactError, DecodeError,
                       Divisorial, DualGraph, FactoredSeries, GraphError,
                       SeriesError, assemble, branch_from_univariate,
                       graph_from_branch, graph_from_json,
                       multiplicity_matrix, poincare_series,
                       reconstruct_curve, reconstruct_divisorial)
from planevals.dualgraph import MAX_VERTICES, euler_smooth
from planevals.reconstruct import _branch_of_values, _branch_profile, _fit_pair


def graph_doc(vertices, marks=(), arrows=()):
    """Graph JSON with the given vertex entries, marks and (v, b) arrows."""
    return json.dumps({"vertices": list(vertices),
                       "marked_divisors": list(marks),
                       "arrows": [{"vertex": v, "branch": b}
                                  for v, b in arrows]})


def chain(n):
    """Vertex entries of a free chain of n blowups, no self-intersections."""
    return [{"id": 1, "parents": []}] + [{"id": v, "parents": [v - 1]}
                                         for v in range(2, n + 1)]


CUSP = ((), (1,), (1, 2))
# curve branches: the smooth one (chain: the origin) and the cusp (chain:
# the origin, a free point, a satellite point; multiplicities 2, 1, 1)
SMOOTH = BranchData.from_generators((1,))
CUSP_BRANCH = BranchData.from_generators((2, 3))
# divisorial: E_1 (chain length 1) and the end of a free chain of 3
E1 = BranchData.from_generators((1,))
E3 = BranchData.from_generators((1,), 2)
NOT_INT = "int() argument must be a string, a bytes-like object or a real " \
          "number, not 'NoneType'"

REFUSALS = [
    # -- DualGraph: replay of the parents ----------------------------------
    ("parents on vertex 1", lambda: DualGraph(((1,),)),
     GraphError, "vertex 1 cannot have parents"),
    ("empty parents on vertex 2", lambda: DualGraph(((), ())),
     GraphError, "vertex 2: needs 0, 1, or 2 parents"),
    ("free parent past the vertex", lambda: DualGraph(((), (3,))),
     GraphError, "vertex 2: bad parent 3"),
    ("free parent on itself", lambda: DualGraph(((), (2,))),
     GraphError, "vertex 2: bad parent 2"),
    ("free parent 0", lambda: DualGraph(((), (0,))),
     GraphError, "vertex 2: bad parent 0"),
    ("satellite parent past the vertex", lambda: DualGraph(((), (1,), (1, 3))),
     GraphError, "vertex 3: bad parents (1, 3)"),
    ("satellite parents given out of order",
     lambda: DualGraph(((), (1,), (4, 1))),
     GraphError, "vertex 3: bad parents (1, 4)"),
    ("satellite parent 0", lambda: DualGraph(((), (1,), (0, 2))),
     GraphError, "vertex 3: bad parents (0, 2)"),
    ("repeated satellite parent", lambda: DualGraph(((), (1,), (2, 2))),
     GraphError, "vertex 3: bad parents (2, 2)"),
    ("satellite parents not adjacent",
     lambda: DualGraph(((), (1,), (1,), (2, 3))),
     GraphError, "vertex 4: satellite parents 2,3 not adjacent"),
    ("satellite parents no longer adjacent",
     lambda: DualGraph(((), (1,), (1, 2), (1, 2))),
     GraphError, "vertex 4: satellite parents 1,2 not adjacent"),
    ("three parents", lambda: DualGraph(((), (1,), (1, 2), (1, 2, 3))),
     GraphError, "vertex 4: needs 0, 1, or 2 parents"),
    ("first bad vertex speaks", lambda: DualGraph(((), (5,), (1, 2, 3))),
     GraphError, "vertex 2: bad parent 5"),
    ("parents before marks", lambda: DualGraph(((), (3,)), (1, 1)),
     GraphError, "vertex 2: bad parent 3"),
    ("non-numeric parent", lambda: DualGraph(((), ("x",))),
     ValueError, "invalid literal for int() with base 10: 'x'"),
    # -- DualGraph: decorations --------------------------------------------
    ("repeated mark", lambda: DualGraph(CUSP, (2, 2)),
     GraphError, "marked divisors must be distinct"),
    ("mark past n", lambda: DualGraph(CUSP, (1, 4)),
     GraphError, "marked divisor 4 out of range"),
    ("mark 0", lambda: DualGraph(CUSP, (0,)),
     GraphError, "marked divisor 0 out of range"),
    ("repeated mark before its range", lambda: DualGraph(CUSP, (9, 9)),
     GraphError, "marked divisors must be distinct"),
    ("first mark out of range speaks", lambda: DualGraph(CUSP, (5, 0)),
     GraphError, "marked divisor 5 out of range"),
    ("branch 2 without branch 1", lambda: DualGraph(CUSP, (), ((3, 2),)),
     GraphError, "arrow branch indices must be exactly 1..b"),
    ("repeated branch", lambda: DualGraph(CUSP, (), ((3, 1), (2, 1))),
     GraphError, "arrow branch indices must be exactly 1..b"),
    ("branch 0", lambda: DualGraph(CUSP, (), ((3, 0),)),
     GraphError, "arrow branch indices must be exactly 1..b"),
    ("arrow past n", lambda: DualGraph(CUSP, (), ((4, 1),)),
     GraphError, "arrow vertex 4 out of range"),
    ("arrow on vertex 0", lambda: DualGraph(CUSP, (), ((0, 1), (5, 2))),
     GraphError, "arrow vertex 0 out of range"),
    ("branch indices before arrow range",
     lambda: DualGraph(CUSP, (), ((9, 2),)),
     GraphError, "arrow branch indices must be exactly 1..b"),
    ("marks before arrows", lambda: DualGraph(CUSP, (7,), ((9, 2),)),
     GraphError, "marked divisor 7 out of range"),
    # -- graph_from_json ----------------------------------------------------
    ("duplicate ids",
     lambda: graph_from_json(graph_doc(chain(2)
                                       + [{"id": 2, "parents": [1]}])),
     GraphError, "vertex ids must be exactly 1..n"),
    ("id gap",
     lambda: graph_from_json(graph_doc([{"id": 1, "parents": []},
                                        {"id": 3, "parents": [1]}])),
     GraphError, "vertex ids must be exactly 1..n"),
    ("id true", lambda: graph_from_json(graph_doc([{"id": True}])),
     GraphError, "bad vertex entry: True is not an integer"),
    ("id 1.0", lambda: graph_from_json(graph_doc([{"id": 1.0}])),
     GraphError, "bad vertex entry: 1.0 is not an integer"),
    ("id '1'", lambda: graph_from_json(graph_doc([{"id": "1"}])),
     GraphError, "bad vertex entry: '1' is not an integer"),
    ("id 'x'", lambda: graph_from_json(graph_doc([{"id": "x"}])),
     GraphError,
     "bad vertex entry: invalid literal for int() with base 10: 'x'"),
    ("id null", lambda: graph_from_json(graph_doc([{"id": None}])),
     GraphError, f"bad vertex entry: {NOT_INT}"),
    ("id missing", lambda: graph_from_json(graph_doc([{"parents": []}])),
     GraphError, "bad vertex entry: 'id'"),
    ("parent true",
     lambda: graph_from_json(graph_doc(chain(1) + [{"id": 2,
                                                    "parents": [True]}])),
     GraphError, "bad vertex entry: True is not an integer"),
    ("parent 1.0",
     lambda: graph_from_json(graph_doc(chain(1) + [{"id": 2,
                                                    "parents": [1.0]}])),
     GraphError, "bad vertex entry: 1.0 is not an integer"),
    ("parent '1'",
     lambda: graph_from_json(graph_doc(chain(1) + [{"id": 2,
                                                    "parents": ["1"]}])),
     GraphError, "bad vertex entry: '1' is not an integer"),
    ("parents not a list",
     lambda: graph_from_json(graph_doc(chain(1) + [{"id": 2, "parents": 1}])),
     GraphError, "bad vertex entry: 'parents' must be a list, got 1"),
    ("self-intersection 1.0",
     lambda: graph_from_json(graph_doc([{"id": 1,
                                         "self_intersection": -1.0}])),
     GraphError, "bad vertex entry: -1.0 is not an integer"),
    ("first bad vertex in file order speaks",
     lambda: graph_from_json(graph_doc([{"id": 2, "parents": [1.0]},
                                        {"id": True}])),
     GraphError, "bad vertex entry: 1.0 is not an integer"),
    ("id before parents",
     lambda: graph_from_json(graph_doc([{"id": "1", "parents": [True]}])),
     GraphError, "bad vertex entry: '1' is not an integer"),
    ("wrong declared self-intersection",
     lambda: graph_from_json(graph_doc([{"id": 2, "parents": [1],
                                         "self_intersection": -1},
                                        {"id": 1, "parents": [],
                                         "self_intersection": -1}])),
     GraphError,
     "vertex 1: declared self-intersection -1 disagrees with replay (-2)"),
    ("replay before self-intersections",
     lambda: graph_from_json(graph_doc([{"id": 1, "parents": [],
                                         "self_intersection": 0},
                                        {"id": 2, "parents": [2]}])),
     GraphError, "vertex 2: bad parent 2"),
    ("mark true", lambda: graph_from_json(graph_doc(chain(1), [True])),
     GraphError, "bad marked divisor: True is not an integer"),
    ("arrow branch 1.0",
     lambda: graph_from_json(json.dumps(
         {"vertices": chain(1), "arrows": [{"vertex": 1, "branch": 1.0}]})),
     GraphError, "bad arrow entry: 1.0 is not an integer"),
    ("mark out of range", lambda: graph_from_json(graph_doc(chain(2), [3])),
     GraphError, "marked divisor 3 out of range"),
    # -- FactoredSeries exponents -------------------------------------------
    ("short exponent", lambda: FactoredSeries(2, [((1,), -1)]),
     SeriesError, "exponent (1,) has wrong arity, expected 2"),
    ("long exponent", lambda: FactoredSeries(1, [((1.0, 2), -1)]),
     SeriesError, "exponent (1, 2) has wrong arity, expected 1"),
    ("negative entry", lambda: FactoredSeries(2, [((1, -1), -1)]),
     SeriesError, "negative entry in exponent (1, -1)"),
    ("zero vector", lambda: FactoredSeries(2, [((0, 0), 1)]),
     SeriesError, "zero exponent vector is not allowed in a factor"),
    ("arity before sign", lambda: FactoredSeries(3, [((-1, 0), 1)]),
     SeriesError, "exponent (-1, 0) has wrong arity, expected 3"),
    ("sign before zero", lambda: FactoredSeries(2, [((0, -0.5), 1)]),
     SeriesError, "zero exponent vector is not allowed in a factor"),
    ("non-numeric entry", lambda: FactoredSeries(2, [((1, "x"), 1)]),
     ValueError, "invalid literal for int() with base 10: 'x'"),
    ("first bad factor speaks",
     lambda: FactoredSeries(2, [((1, 2), -1), ((0, 0), 1), ((1,), 1)]),
     SeriesError, "zero exponent vector is not allowed in a factor"),
    # the one new exponent of with_factor is checked as the constructor's
    ("with_factor of a short exponent",
     lambda: FactoredSeries(2, {(1, 1): -1}).with_factor((1,), 1),
     SeriesError, "exponent (1,) has wrong arity, expected 2"),
    ("with_factor of a negative entry",
     lambda: FactoredSeries(2, {(1, 1): -1}).with_factor((1, -1), 1),
     SeriesError, "negative entry in exponent (1, -1)"),
    ("with_factor of the zero vector",
     lambda: FactoredSeries(2, {(1, 1): -1}).with_factor((0, 0), -1),
     SeriesError, "zero exponent vector is not allowed in a factor"),
    # -- BranchData.from_generators -----------------------------------------
    ("no generators", lambda: BranchData.from_generators(()),
     DecodeError, "need at least one generator and c >= 0"),
    ("negative tail", lambda: BranchData.from_generators((1,), -1),
     DecodeError, "need at least one generator and c >= 0"),
    ("decreasing generators", lambda: BranchData.from_generators((3, 2)),
     DecodeError, "generators must strictly increase: (3, 2)"),
    ("equal generators", lambda: BranchData.from_generators((2, 2, 3)),
     DecodeError, "generators must strictly increase: (2, 2, 3)"),
    ("zero generator", lambda: BranchData.from_generators((0, 1)),
     DecodeError, "generators must strictly increase: (0, 1)"),
    ("negative generator", lambda: BranchData.from_generators((-2, 3)),
     DecodeError, "generators must strictly increase: (-2, 3)"),
    ("gcd above 1", lambda: BranchData.from_generators((4, 6)),
     DecodeError, "generators (4, 6) have gcd 2 != 1"),
    ("one generator above 1", lambda: BranchData.from_generators((2,)),
     DecodeError, "generators (2,) have gcd 2 != 1"),
    ("redundant generator", lambda: BranchData.from_generators((2, 3, 5)),
     DecodeError, "generator 5 is redundant (gcd does not drop)"),
    ("first redundant generator speaks",
     lambda: BranchData.from_generators((6, 9, 12, 13)),
     DecodeError, "generator 12 is redundant (gcd does not drop)"),
    ("dead value past the next generator",
     lambda: BranchData.from_generators((4, 6, 11)),
     DecodeError, "dead value 12 not below next generator 11; not a plane "
     "valuation semigroup"),
    ("dead value at the next generator",
     lambda: BranchData.from_generators((4, 6, 12, 13)),
     DecodeError, "generator 12 is redundant (gcd does not drop)"),
    ("gcd before redundancy", lambda: BranchData.from_generators((4, 6, 8)),
     DecodeError, "generators (4, 6, 8) have gcd 2 != 1"),
    ("order before gcd", lambda: BranchData.from_generators((6, 4)),
     DecodeError, "generators must strictly increase: (6, 4)"),
    ("float generators and tail",
     lambda: BranchData.from_generators((2.5, 3.9), 1.7),
     DecodeError, "branch data needs a tuple of int generators and an int "
     "c, got generators (2.5, 3.9), c 1.7"),
    # -- BranchData: its constructor ------------------------------------------
    # types first, unconverted; then the checks above, in their order
    ("generator list in branch data", lambda: BranchData([2, 3]),
     DecodeError, "branch data needs a tuple of int generators and an int "
     "c, got generators [2, 3], c 0"),
    ("bool generator in branch data", lambda: BranchData((2, True)),
     DecodeError, "branch data needs a tuple of int generators and an int "
     "c, got generators (2, True), c 0"),
    ("bool tail in branch data", lambda: BranchData((2, 3), True),
     DecodeError, "branch data needs a tuple of int generators and an int "
     "c, got generators (2, 3), c True"),
    ("negative tail in branch data", lambda: BranchData((2, 3), -1),
     DecodeError, "need at least one generator and c >= 0"),
    ("zero generator in branch data", lambda: BranchData((0,)),
     DecodeError, "generators must strictly increase: (0,)"),
    # -- euler_smooth ---------------------------------------------------------
    ("unknown mode", lambda: euler_smooth(DualGraph(CUSP), "branch"),
     GraphError, "unknown mode 'branch'"),
    ("mode before emptiness", lambda: euler_smooth(DualGraph(), "x"),
     GraphError, "unknown mode 'x'"),
    ("empty graph", lambda: euler_smooth(DualGraph(), "curve"),
     GraphError, "empty graph"),
    # -- multiplicity_matrix --------------------------------------------------
    ("matrix of the empty graph", lambda: multiplicity_matrix(DualGraph()),
     GraphError, "empty graph has no multiplicity matrix"),
    ("row past n", lambda: multiplicity_matrix(DualGraph(CUSP), (1, 4)),
     GraphError, "no vertex 4 for a multiplicity row"),
    # -- poincare_series: minimality ------------------------------------------
    ("vertex under no reference",
     lambda: poincare_series(DualGraph(((), (1,), (1,))), [Divisorial(2)]),
     GraphError, "vertex 3 lies under no referenced vertex; the graph is not "
     "the minimal resolution of this collection"),
    ("vertex past the references",
     lambda: poincare_series(DualGraph(((), (1,), (2,)), (1,)),
                             [Divisorial(1)]),
     GraphError, "vertex 2 lies under no referenced vertex; the graph is "
     "not the minimal resolution of this collection"),
    ("contractible arrow vertex",
     lambda: poincare_series(DualGraph(((), (1,)), (), ((2, 1),)),
                             [Branch(1)]),
     GraphError, "vertex 2 is contractible; the graph is not minimal"),
    ("first contractible vertex speaks",
     lambda: poincare_series(DualGraph(((), (1,), (1,)), (),
                                       ((2, 1), (3, 2))),
                             [Branch(1), Branch(2)]),
     GraphError, "vertex 2 is contractible; the graph is not minimal"),
    ("empty valuation collection",
     lambda: poincare_series(DualGraph(CUSP, (3,)), ()),
     GraphError, "empty valuation collection"),
    # each entry's type is checked before the cache hashes the spec
    ("list valuation entry",
     lambda: poincare_series(DualGraph(CUSP, (3,)), [[1]]),
     GraphError, "bad valuation entry [1]"),
    ("dict valuation entry",
     lambda: poincare_series(DualGraph(CUSP, (3,)), [{1: 2}]),
     GraphError, "bad valuation entry {1: 2}"),
    # -- assemble: contacts against the chains --------------------------------
    ("no valuations", lambda: assemble([], [], "curve"),
     ContactError, "no valuations to assemble"),
    ("unknown assembly mode", lambda: assemble([SMOOTH], [[1]], "branch"),
     ContactError, "unknown mode 'branch'"),
    # its diagonal is the cusp's top value with the tail, 8, so only the
    # tail rule refuses it
    ("curve branch with a free tail",
     lambda: assemble([BranchData.from_generators((2, 3), 2)], [[8]],
                      "curve"),
     ContactError, "curve branch 1 has free tail c = 2; curve branches "
     "have none"),
    # the same rule, the same class and message, on one branch's series
    # and on its solo graph
    ("curve series of a branch with a free tail",
     lambda: BranchData.from_generators((2, 3), 2).univariate_series("curve"),
     ContactError, "curve branch 1 has free tail c = 2; curve branches "
     "have none"),
    ("curve graph of a branch with a free tail",
     lambda: graph_from_branch(BranchData.from_generators((2, 3), 2),
                               "curve"),
     ContactError, "curve branch 1 has free tail c = 2; curve branches "
     "have none"),
    ("diagonal off the top value",
     lambda: assemble([SMOOTH, SMOOTH], [[2, 1], [1, 1]], "curve"),
     ContactError, "diagonal contact 2 differs from top value 1 of "
     "valuation 1"),
    ("asymmetric contacts",
     lambda: assemble([SMOOTH, SMOOTH], [[1, 2], [3, 1]], "curve"),
     ContactError, "contact 2 of chains 1 and 2 differs from contact 3 of "
     "chains 2 and 1"),
    ("contact 0",
     lambda: assemble([SMOOTH, SMOOTH], [[1, 0], [0, 1]], "curve"),
     ContactError, "contact 0 of chains 1 and 2 is not positive"),
    ("contact past the shorter divisorial chain",
     lambda: assemble([E1, E3], [[1, 2], [2, 3]], "divisorial"),
     ContactError, "contact 2 of chains 1 and 2 exceeds what they can "
     "share"),
    ("contact between partial sums",
     lambda: assemble([CUSP_BRANCH, SMOOTH], [[6, 1], [1, 1]], "curve"),
     ContactError, "contact 1 of chains 1 and 2 is not a partial sum of "
     "multiplicity products (reached 2 at depth 1)"),
    ("shared depth past the vertex limit",
     lambda: assemble([SMOOTH, SMOOTH], [[1, MAX_VERTICES + 1],
                                         [MAX_VERTICES + 1, 1]], "curve"),
     DecodeError, f"contact {MAX_VERTICES + 1} needs {MAX_VERTICES + 1} "
     f"shared points, above the limit {MAX_VERTICES}"),
    ("divisorial chains shared whole",
     lambda: assemble([CUSP_BRANCH, CUSP_BRANCH], [[6, 6], [6, 6]],
                      "divisorial"),
     ContactError, "valuations 1 and 2 share their whole chains; they are "
     "not distinct"),
    ("kinds disagree at a shared depth",
     lambda: assemble([CUSP_BRANCH, SMOOTH], [[6, 4], [4, 1]], "curve"),
     ContactError, "chains 1 and 2 disagree at shared depth 3: "
     "('satellite', 1, 2) vs ('free', 2)"),
    # chains 1 and 2 share 3 points and chains 2 and 3 share 2, so chains
    # 1 and 3 share at least 2; the pair that breaks it is not (1, 2)
    ("hierarchy broken off the source pair",
     lambda: assemble([SMOOTH] * 3, [[1, 3, 1], [3, 1, 2], [1, 2, 1]],
                      "curve"),
     ContactError, "shared depths violate the tree hierarchy"),
    # the cusp's chain, and the same chain run on by one free point:
    # contact 5 makes them share the origin and the free point, and then
    # each chain blows up the satellite point of the same two components
    ("two satellite points on the same components",
     lambda: assemble([CUSP_BRANCH, BranchData.from_generators((2, 3), 1)],
                      [[6, 5], [5, 7]], "divisorial"),
     ContactError, "merged chains are not a blowup sequence: vertex 4: "
     "satellite parents 1,2 not adjacent"),
    # random_instance(50020033, 12, 2, "divisorial") with one pole moved:
    # the least contact fits both chains, and the merge repeats a
    # satellite point
    ("tampered pair series that repeats a satellite point",
     lambda: reconstruct_divisorial(FactoredSeries(
         2, {(3, 2): -1, (8, 5): -1, (14, 10): 1, (14, 11): -1})),
     ContactError, "merged chains are not a blowup sequence: vertex 5: "
     "satellite parents 2,3 not adjacent"),
    # -- decoders -------------------------------------------------------------
    ("curve series of three branches with no factor",
     lambda: reconstruct_curve(FactoredSeries(3, {})),
     DecodeError, "series does not decompose into plane curve branches: no "
     "exponent peels with 3 branches left"),
    ("unknown decode mode",
     lambda: branch_from_univariate(
         FactoredSeries(1, {(2,): -1, (3,): -1, (6,): 1}), "nodal"),
     DecodeError, "unknown mode 'nodal'"),
    # the decode cache hashes its arguments before the body reads them
    ("unhashable decode mode",
     lambda: branch_from_univariate(
         FactoredSeries(1, {(2,): -1, (3,): -1, (6,): 1}), ["curve"]),
     TypeError, "unhashable type: 'list'"),
    ("no semigroup values", lambda: _branch_of_values([]),
     DecodeError, "bad semigroup values []"),
    ("semigroup value 0", lambda: _branch_of_values([0, 2]),
     DecodeError, "bad semigroup values [0, 2]"),
]


@pytest.mark.parametrize("make, cls, message",
                         [case[1:] for case in REFUSALS],
                         ids=[case[0] for case in REFUSALS])
def test_refusal_class_and_message(make, cls, message):
    with pytest.raises(Exception) as info:
        make()
    assert type(info.value) is cls
    assert str(info.value) == message


def test_assemble_accepts_the_hierarchy_of_three_smooth_branches():
    # branches 1 and 2 share 3 points, and branch 3 leaves both after 2
    g = assemble([SMOOTH] * 3, [[1, 3, 2], [3, 1, 2], [2, 2, 1]], "curve")
    assert g.parents == ((), (1,), (2,))
    assert g.arrows == ((2, 3), (3, 1), (3, 2))


def test_pair_check_accepts_a_contact_at_the_vertex_limit():
    # two smooth branches with contact MAX_VERTICES share exactly that
    # many points; one more is refused (the row above)
    smooth = _branch_profile(SMOOTH)
    assert _fit_pair([smooth, smooth], 0, 1, MAX_VERTICES,
                     "curve") == MAX_VERTICES


def test_float_exponent_entries_are_read_as_integers():
    (m, k), = FactoredSeries(2, [((1.0, 2), -1)]).items()
    assert (m, k) == ((1, 2), -1)
    assert [type(e) for e in m] == [int, int]

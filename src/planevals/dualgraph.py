"""Dual graphs of modifications of the plane, stored as blowup sequences.

A graph is the list of its vertices in creation order; each vertex records
the vertices through whose exceptional components its center passed (its
parents): none for the first blowup, one for a free point, two for a
satellite point.  Adjacency, self-intersections and the partial order are
derived by replaying the sequence.  Decorations are an ordered list of
marked divisors (divisorial valuations) and arrows (curve branches).
"""

from __future__ import annotations

import bisect
import json
import random
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from typing import Iterable, List, Optional, Tuple

__all__ = [
    "GraphError",
    "DualGraph",
    "blowup",
    "multiplicity_matrix",
    "euler_smooth",
    "downward_closure",
    "minimize_curve_resolution",
    "canonical_code",
    "equivalent",
    "random_instance",
    "graph_to_json",
    "graph_from_json",
    "MAX_VERTICES",
]

# Largest max_vertices that random_instance accepts.  It draws the vertex
# count up to this value and builds the graph in memory, so a larger request
# raises GraphError before any drawing.  At the limit a CLI `gen` takes
# about 0.4 s on a 2-core x86_64 VM.
MAX_VERTICES = 10 ** 4


class GraphError(ValueError):
    """Raised for malformed graphs or illegal graph operations."""


@dataclass(frozen=True)
class DualGraph:
    """Blowup sequence with decorations.

    parents[k] lists the parents of vertex k+1 (ids are 1-based, parents
    strictly smaller).  marked_divisors is an ordered tuple of distinct
    vertex ids; arrows is a tuple of (vertex, branch) pairs whose branch
    indices are exactly 1..b.

    Construction replays the sequence in a single pass: one child count
    per vertex gives its self-intersection (-1 minus the count) and
    maximality (no child), and each vertex's adjacency list is built as the
    replay goes, its parents first and then its children, each in id order
    without a sort, so each list is sorted.  A satellite point cuts the
    edge between its two parents from both their lists: the smaller parent
    can sit in the larger one's list only as its parent, one of its first
    two entries, and the larger is found in the smaller's list by
    bisection.
    """

    parents: Tuple[Tuple[int, ...], ...] = ()
    marked_divisors: Tuple[int, ...] = ()
    arrows: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self):
        # an entry that is already a tuple of at most two ascending ints
        # is kept, since converting and sorting it would give it back
        object.__setattr__(self, "parents", tuple([
            ps if type(ps) is tuple and (
                len(ps) == 1 and type(ps[0]) is int
                or len(ps) == 2 and type(ps[0]) is int
                and type(ps[1]) is int and ps[0] < ps[1]
                or not ps)
            else tuple(sorted(map(int, ps))) for ps in self.parents]))
        object.__setattr__(self, "marked_divisors",
                           tuple(map(int, self.marked_divisors)))
        object.__setattr__(self, "arrows",
                           tuple(sorted((int(v), int(b))
                                        for v, b in self.arrows)))
        self._replay()
        self._check_decorations()

    # -- replay of the blowup sequence -----------------------------------

    def _replay(self) -> None:
        parents = self.parents
        n = len(parents)
        if n and parents[0]:
            raise GraphError("vertex 1 cannot have parents")
        kids = [0] * (n + 1)
        # adj[v]: the parents of v that no satellite has cut it from, then
        # its children, each in id order
        adj: List[List[int]] = [[] for _ in range(n + 1)]
        for v in range(2, n + 1):
            ps = parents[v - 1]
            if len(ps) == 1:
                (s,) = ps
                if not 0 < s < v:
                    raise GraphError(f"vertex {v}: bad parent {s}")
                kids[s] += 1
                adj[s].append(v)
                adj[v] = [s]
            elif len(ps) == 2:
                s, d = ps
                if not 0 < s < d < v:
                    raise GraphError(f"vertex {v}: bad parents {ps}")
                # s < d, so s can sit in adj[d] only as a parent of d
                if s not in adj[d]:
                    raise GraphError(
                        f"vertex {v}: satellite parents {s},{d} not adjacent")
                adj[d].remove(s)
                del adj[s][bisect.bisect_left(adj[s], d)]
                kids[s] += 1
                kids[d] += 1
                adj[s].append(v)
                adj[d].append(v)
                adj[v] = [s, d]
            else:
                raise GraphError(f"vertex {v}: needs 0, 1, or 2 parents")
        object.__setattr__(self, "_adj",
                           dict(zip(range(1, n + 1), map(tuple, adj[1:]))))
        object.__setattr__(self, "_selfint",
                           tuple(map((-1).__sub__, kids[1:])))

    def _check_decorations(self) -> None:
        n = len(self.parents)
        marks = self.marked_divisors
        if len(set(marks)) != len(marks):
            raise GraphError("marked divisors must be distinct")
        if marks and not (0 < min(marks) and max(marks) <= n):
            v = next(v for v in marks if not 0 < v <= n)
            raise GraphError(f"marked divisor {v} out of range")
        if self.arrows:
            vs, branches = zip(*self.arrows)
            if sorted(branches) != list(range(1, len(branches) + 1)):
                raise GraphError("arrow branch indices must be exactly 1..b")
            if not (0 < vs[0] and vs[-1] <= n):
                v = next(v for v in vs if not 0 < v <= n)
                raise GraphError(f"arrow vertex {v} out of range")

    # -- basic queries ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.parents)

    def vertex_ids(self) -> range:
        return range(1, self.n + 1)

    def neighbors(self, v: int) -> Tuple[int, ...]:
        return self._adj[v]

    def valence(self, v: int) -> int:
        return len(self._adj[v])

    def self_intersection(self, v: int) -> int:
        return self._selfint[v - 1]

    def arrows_at(self, v: int) -> Tuple[int, ...]:
        """Branch indices whose arrows sit at vertex v."""
        return tuple(b for w, b in self.arrows if w == v)

    def arrow_vertex(self, branch: int) -> int:
        for v, b in self.arrows:
            if b == branch:
                return v
        raise GraphError(f"no branch {branch}")

    def chain_to(self, v: int) -> Tuple[int, ...]:
        """All vertices <= v in the blowup partial order, in id order.

        The vertices <= v form a chain: the two parents of a satellite are
        adjacent, and of two adjacent components the older lies under the
        younger, so it is walked along tree parents (the larger parent of
        each vertex) in O(depth of v).
        """
        if not 1 <= v <= self.n:
            raise GraphError(f"no vertex {v}")
        parents = self.parents
        out = [v]
        while parents[v - 1]:
            v = parents[v - 1][-1]
            out.append(v)
        return tuple(reversed(out))

    def is_maximal(self, v: int) -> bool:
        return self._selfint[v - 1] == -1

    def maximal_vertices(self) -> Tuple[int, ...]:
        return tuple(compress(self.vertex_ids(),
                              map((-1).__eq__, self._selfint)))


# -- construction ---------------------------------------------------------


def blowup(graph: DualGraph, kind) -> Tuple[DualGraph, int]:
    """Append one blowup; kind is "origin", ("free", s) or ("satellite", s, d).

    Returns the extended graph and the id of the new vertex.  Decorations
    are carried over unchanged.
    """
    if kind == "origin":
        if graph.n != 0:
            raise GraphError("origin blowup only on the empty graph")
        new_parents = ((),)
    elif isinstance(kind, tuple) and len(kind) == 2 and kind[0] == "free":
        s = int(kind[1])
        if not 1 <= s <= graph.n:
            raise GraphError(f"free blowup: no vertex {s}")
        new_parents = graph.parents + ((s,),)
    elif isinstance(kind, tuple) and len(kind) == 3 and kind[0] == "satellite":
        s, d = sorted((int(kind[1]), int(kind[2])))
        if not (1 <= s <= graph.n and 1 <= d <= graph.n):
            raise GraphError(f"satellite blowup: bad pair {s},{d}")
        if d not in graph._adj.get(s, ()):
            raise GraphError(f"satellite blowup: {s} and {d} not adjacent")
        new_parents = graph.parents + ((s, d),)
    else:
        raise GraphError(f"unknown blowup kind {kind!r}")
    out = DualGraph(new_parents, graph.marked_divisors, graph.arrows)
    return out, out.n


# -- multiplicity matrix --------------------------------------------------


def _column(graph: DualGraph, c: int) -> Tuple[int, ...]:
    parents = graph.parents
    n = len(parents)
    chain = graph.chain_to(c)
    # x[u] starts as mu[u], the multiplicity of a curvette of E_c at the
    # center blown up to create u: by proximity the sum of mu over the
    # children of u, plus 1 at c itself (0 off the chain, and every parent
    # of a chain vertex is on it).  Adding the orders along the components
    # through that center, parents first, makes x[u] the order along E_u
    # of the curvette's total transform.
    x = [0] * (n + 1)
    x[c] = 1
    for v in reversed(chain):
        for p in parents[v - 1]:
            x[p] += x[v]
    # x[u] is final once it has added its parents' entries, which precede
    # it, so positivity is checked as each is made.  Growth over the tree
    # parent needs no check: x[u] is that parent's entry plus entries >= 0.
    for u, ps in enumerate(parents, 1):
        for p in ps:
            x[u] += x[p]
        if x[u] <= 0:
            raise GraphError("multiplicity matrix must be positive")

    # (-I) x must be the unit vector e_c, so x is column c of (-I)^-1
    selfint = graph._selfint
    for u, nbrs in graph._adj.items():
        acc = -selfint[u - 1] * x[u]
        for w in nbrs:
            acc -= x[w]
        if acc != (1 if u == c else 0):
            raise GraphError("intersection matrix inversion failed")
    # and the entries grow strictly along the chain
    for a, b in zip(chain, chain[1:]):
        if x[a] >= x[b]:
            raise GraphError("multiplicity rows must grow along covers")
    return tuple(x[1:])


def multiplicity_matrix(graph: DualGraph, cols: Optional[Iterable[int]] = None
                        ) -> Tuple[Tuple[int, ...], ...]:
    """Rows ``cols`` (all rows for None) of the inverse of minus the
    intersection matrix, as integer tuples of length n.

    The matrix is symmetric, so row c is also column c: entry u is the
    order along E_u of a curvette of E_c.  It is built by the forward
    recursion x_u = sum of x over the parents of u + mu_u, where mu_u is the
    curvette's multiplicity at the center of u, taken from proximity along
    the chain to c; a row costs O(n + depth of c).  Each row is certified
    by (-I) x = e_c, positivity (checked as each entry is made) and strict
    growth along the chain, so a corrupted graph cannot pass silently;
    growth over every other cover follows from the recursion itself.

    ``oracle.multiplicity_sequence`` and ``oracle.noether_contact`` compute
    the same multiplicities and contacts by separate code, so the tests
    that compare them with this matrix stay an independent cross-check.
    """
    n = graph.n
    if n == 0:
        raise GraphError("empty graph has no multiplicity matrix")
    cols = tuple(range(1, n + 1)) if cols is None else tuple(cols)
    for c in cols:
        if not 1 <= c <= n:
            raise GraphError(f"no vertex {c} for a multiplicity row")
    done = {}
    for c in cols:
        if c not in done:
            done[c] = _column(graph, c)
    return tuple(done[c] for c in cols)


# -- Euler characteristics ------------------------------------------------


def euler_smooth(graph: DualGraph, mode: str) -> Tuple[int, ...]:
    """Euler characteristic of the smooth part of each component.

    mode "divisorial": punctures are the adjacent exceptional components.
    mode "curve": arrows (strict transforms of branches) puncture as well.
    Arrows are counted in one pass over them, so a call is O(n + a).  The
    tree identity sum(chi) = 2 - (#arrows counted in curve mode) is
    asserted on every call.
    """
    if mode not in ("divisorial", "curve"):
        raise GraphError(f"unknown mode {mode!r}")
    if graph.n == 0:
        raise GraphError("empty graph")
    chi = [2 - len(nbrs) for nbrs in graph._adj.values()]
    if mode == "curve":
        for v, _ in graph.arrows:
            chi[v - 1] -= 1
    if sum(chi) != (2 - len(graph.arrows) if mode == "curve" else 2):
        raise GraphError("Euler characteristic bookkeeping failed")
    return tuple(chi)


# -- subsequences and contraction ----------------------------------------


def _renumber(parents, alive, marks, arrows):
    """(parents, marks, arrows) of the vertices v with alive[v], renumbered
    in creation order.  Every parent of a survivor must survive."""
    remap = [0] * len(alive)
    kept = []
    for v, ps in enumerate(parents, 1):
        if alive[v]:
            kept.append(tuple(map(remap.__getitem__, ps)))
            remap[v] = len(kept)
    return (tuple(kept), tuple(map(remap.__getitem__, marks)),
            tuple((remap[v], b) for v, b in arrows))


def _under(parents, S) -> List[bool]:
    """under[v]: whether vertex v lies <= some vertex of S (index 0 unused).

    parents[v-1] is sorted, so its last entry is the tree parent of v.  A
    walk down from each vertex of S stops at the first vertex already
    marked, whose chain is marked too, so the cost is O(n + len(S)).
    """
    under = [False] * (len(parents) + 1)
    for v in S:
        while not under[v]:
            under[v] = True
            if not parents[v - 1]:
                break
            v = parents[v - 1][-1]
    return under


def downward_closure(graph: DualGraph, S: Iterable[int]) -> DualGraph:
    """Sub-blowup-sequence of everything <= some element of S.

    The surviving vertices are renumbered in creation order and become the
    support of the closure; marked_divisors is set to S (in the given
    order).  Arrows are a curve-mode notion and must be absent.
    """
    S = [int(v) for v in S]
    if not S:
        raise GraphError("empty closure request")
    if graph.arrows:
        raise GraphError("closure is a divisorial operation; arrows present")
    for v in S:
        if not 1 <= v <= graph.n:
            raise GraphError(f"no vertex {v}")
    return DualGraph(*_renumber(graph.parents, _under(graph.parents, S), S,
                                ()))


def _minimize(parents, adj, marks, arrows):
    # The contraction pass of minimize_curve_resolution on plain data:
    # sorted parents tuples, adjacency sets adj[v] (updated in place) and
    # (vertex, branch) arrows.  Returns the survivors' (parents, marks,
    # arrows) renumbered in creation order, or None if nothing contracts.
    n = len(parents)
    kids = [0] * (n + 1)
    for ps in parents:
        for p in ps:
            kids[p] += 1
    at: List[List[int]] = [[] for _ in range(n + 1)]
    for v, b in arrows:
        at[v].append(b)
    marked = set(marks)
    alive = [True] * (n + 1)
    left = n

    # Contracting v changes only its parents, whose ids are smaller, so one
    # pass in decreasing id order sees each vertex after every change that
    # can reach it.  Two eligible vertices are never parent and child, and
    # arrows are sorted on construction, so contractions commute and this
    # order gives the graph of the smallest-eligible-id-first order.
    for v in range(n, 0, -1):
        if (kids[v] or left < 2 or v in marked
                or len(adj[v]) + len(at[v]) > 2):
            continue
        ps = parents[v - 1]
        for p in ps:
            adj[p].discard(v)
            kids[p] -= 1
        if len(ps) == 1:
            at[ps[0]] += at[v]
        else:
            s, d = ps
            adj[s].add(d)
            adj[d].add(s)
        alive[v] = False
        left -= 1
    if left == n:
        return None
    return _renumber(parents, alive, marks,
                     [(v, b) for v in range(1, n + 1) if alive[v]
                      for b in at[v]])


def minimize_curve_resolution(graph: DualGraph) -> DualGraph:
    """Contract needless exceptional curves of a curve resolution.

    A maximal vertex (self-intersection -1) is blown down when it is
    unmarked, is not the last vertex, and meets at most two components of
    the total transform (edges plus arrows).  A maximal satellite meets its
    two parents, so it is blown down only when it carries no arrow.  Arrows
    on a contracted free vertex reattach to its parent; contracting a
    satellite restores the adjacency of its parents.  Contractions run on
    a working copy kept on the input's ids until none applies; the
    survivors are then renumbered in creation order and validated as one
    DualGraph.  The result is that of contracting the smallest eligible id
    first, one rebuilt graph per step.  The input itself is returned when
    nothing contracts.
    """
    adj = [set()] + [set(graph.neighbors(v)) for v in graph.vertex_ids()]
    out = _minimize(graph.parents, adj, graph.marked_divisors, graph.arrows)
    return graph if out is None else DualGraph(*out)


# -- combinatorial equivalence -------------------------------------------


def canonical_code(graph: DualGraph) -> str:
    """Creation-order-independent encoding of (graph, order, decorations).

    The blowup sequence is viewed as a rooted tree (each vertex hangs off
    its largest parent); a tag records whether the vertex is free or which
    of the tree-parent's own parents the satellite point involved.  Child
    codes are sorted, so any relabeling that preserves parent structure and
    decorations yields the same string.  A child's id is larger than its
    parent's, so codes are built in decreasing id order, without
    recursion, and each child's code is dropped once its parent's is built.
    """
    n = graph.n
    if n == 0:
        return "()"
    parents = graph.parents
    marks = [""] * (n + 1)
    for i, w in enumerate(graph.marked_divisors, 1):
        marks[w] = str(i)
    arrs: List[List[str]] = [[] for _ in range(n + 1)]
    for w, b in graph.arrows:
        arrs[w].append(str(b))
    # below[v]: codes of v's tree children; v is the last entry when built
    below: List[List[str]] = [[] for _ in range(n + 1)]
    for v in range(n, 0, -1):
        ps = parents[v - 1]
        if len(ps) == 2:
            # the smaller parent of a satellite is a parent of the larger
            # one: a vertex gains only neighbours created after it
            other, tree_parent = ps
            pp = parents[tree_parent - 1]
            tag = "S1" if len(pp) == 1 else "SL" if other == pp[0] else "SH"
        else:
            tag = "F" if ps else "R"
        code = (f"({tag};{marks[v]};{','.join(arrs[v])}|"
                f"{''.join(sorted(below.pop()))})")
        if ps:
            below[ps[-1]].append(code)
    return code


def equivalent(g1: DualGraph, g2: DualGraph) -> bool:
    """Combinatorial equivalence preserving marked/arrow index roles.

    Two graphs equal as stored (the same parents, marks in the same order
    and the same numbered arrows) are equivalent through the identity map,
    which preserves all three, so they are answered before any canonical
    code is built; other pairs compare codes.  Both arguments must be
    DualGraphs, checked first, since two equal objects of another type
    would pass the equality test.
    """
    if not (isinstance(g1, DualGraph) and isinstance(g2, DualGraph)):
        raise GraphError(f"equivalent needs two DualGraphs, got "
                         f"{type(g1).__name__} and {type(g2).__name__}")
    return g1 == g2 or canonical_code(g1) == canonical_code(g2)


# -- random instances -----------------------------------------------------


def _random_sequence(rng: random.Random, n: int, satellite_bias: float
                     ) -> Tuple[List[Tuple[int, ...]], List[Tuple[int, int]]]:
    # The RNG calls are those of appending one blowup at a time and reading
    # each intermediate graph: rng.random() only once an edge exists, then
    # rng.choice over the edges (a, b), a < b, in sorted order, or over the
    # ids 1..v-1.  Hence the edge list is kept sorted.  Returns the sorted
    # parents tuples and the final edge list; the caller's one DualGraph
    # re-checks every parent and adjacency.
    parents: List[Tuple[int, ...]] = [()]
    edges: List[Tuple[int, int]] = []
    for v in range(2, n + 1):
        if edges and rng.random() < satellite_bias:
            s, d = rng.choice(edges)
            del edges[bisect.bisect_left(edges, (s, d))]
            bisect.insort(edges, (s, v))
            bisect.insort(edges, (d, v))
            parents.append((s, d))
        else:
            s = rng.choice(range(1, v))
            bisect.insort(edges, (s, v))
            parents.append((s,))
    return parents, edges


def random_instance(seed: int, max_vertices: int, r: int, mode: str,
                    satellite_bias: float = 0.4) -> DualGraph:
    """Deterministic random minimal instance for round-trip campaigns.

    The blowup sequence, its closure (divisorial) or its minimization
    (curve) run on plain lists; only the result is built as a DualGraph.
    """
    if mode not in ("divisorial", "curve"):
        raise GraphError(f"unknown mode {mode!r}")
    if max_vertices < 1 or r < 1:
        raise GraphError("need max_vertices >= 1 and r >= 1")
    if r > max_vertices:
        raise GraphError("more valuations requested than vertices allowed")
    if max_vertices > MAX_VERTICES:
        raise GraphError(f"max_vertices {max_vertices} exceeds the limit "
                         f"{MAX_VERTICES}")
    rng = random.Random(seed)
    n = rng.randint(r, max_vertices)
    parents, edges = _random_sequence(rng, n, satellite_bias)
    picks = rng.sample(range(1, n + 1), r)
    if mode == "divisorial":
        return DualGraph(*_renumber(parents, _under(parents, picks), picks,
                                    ()))
    arrows = [(v, i + 1) for i, v in enumerate(picks)]
    adj: List[set] = [set() for _ in range(n + 1)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    minimal = _minimize(parents, adj, (), arrows)
    return DualGraph(*minimal) if minimal else DualGraph(parents, (), arrows)


# -- file format ----------------------------------------------------------


def _json_array(items: List[str], pad: str) -> str:
    # items are already indented by pad plus two spaces
    return "[\n" + ",\n".join(items) + "\n" + pad + "]" if items else "[]"


def graph_to_json(graph: DualGraph) -> str:
    """The graph as JSON, byte for byte json.dumps(doc, indent=2,
    sort_keys=True) + "\n" of the document below.

    The layout is written directly, since an indent makes json fall back
    to its pure-Python encoder:

        {"arrows": [{"branch": b, "vertex": v}, ...],
         "marked_divisors": [...],
         "vertices": [{"id": v, "parents": [...],
                       "self_intersection": s}, ...]}
    """
    arrows = [f'    {{\n      "branch": {b},\n      "vertex": {v}\n    }}'
              for v, b in graph.arrows]
    marks = [f"    {v}" for v in graph.marked_divisors]
    verts = [f'    {{\n      "id": {v},\n      "parents": '
             f'{_json_array([f"        {p}" for p in ps], "      ")},\n'
             f'      "self_intersection": {si}\n    }}'
             for v, (ps, si) in enumerate(zip(graph.parents, graph._selfint),
                                          1)]
    return (f'{{\n  "arrows": {_json_array(arrows, "  ")},\n'
            f'  "marked_divisors": {_json_array(marks, "  ")},\n'
            f'  "vertices": {_json_array(verts, "  ")}\n}}\n')


def _json_int(value) -> int:
    """``value`` if it is a JSON integer.  What ``int()`` refuses raises
    ``int()``'s own error; what it would coerce (a float, ``true``, a
    numeric string) raises ValueError."""
    if type(value) is int:
        return value
    int(value)
    raise ValueError(f"{value!r} is not an integer")


def _json_row(v) -> tuple:
    """(id, parents, declared self-intersection or None) of one vertex
    entry, read in that order."""
    number = _json_int(v["id"])
    parents = v.get("parents", [])
    if not isinstance(parents, list):
        raise TypeError(f"'parents' must be a list, got {parents!r}")
    parents = tuple(map(_json_int, parents))
    si = v.get("self_intersection")
    return number, parents, None if si is None else _json_int(si)


def graph_from_json(text: str) -> DualGraph:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: arrays or objects nested too deep to decode
        raise GraphError(f"bad graph JSON: {exc}") from exc
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise GraphError("graph JSON needs a 'vertices' list")
    verts = doc["vertices"]
    if not isinstance(verts, list):
        raise GraphError("'vertices' must be a list")
    bad = (TypeError, KeyError, ValueError, OverflowError)
    try:
        rows = sorted(map(_json_row, verts), key=itemgetter(0))
    except bad as exc:
        raise GraphError(f"bad vertex entry: {exc}") from exc
    ids, parents, declared = tuple(zip(*rows)) or ((), (), ())
    if ids != tuple(range(1, len(rows) + 1)):
        raise GraphError("vertex ids must be exactly 1..n")
    marks = doc.get("marked_divisors", [])
    arrows = doc.get("arrows", [])
    for key, entries in (("marked_divisors", marks), ("arrows", arrows)):
        if not isinstance(entries, list):
            raise GraphError(f"'{key}' must be a list")
    try:
        marks = tuple(map(_json_int, marks))
    except bad as exc:
        raise GraphError(f"bad marked divisor: {exc}") from exc
    try:
        arrows = tuple((_json_int(a["vertex"]), _json_int(a["branch"]))
                       for a in arrows)
    except bad as exc:
        raise GraphError(f"bad arrow entry: {exc}") from exc
    g = DualGraph(parents, marks, arrows)
    for v, si, replayed in zip(ids, declared, g._selfint):
        if si is not None and si != replayed:
            raise GraphError(
                f"vertex {v}: declared self-intersection {si} "
                f"disagrees with replay ({replayed})")
    return g

"""Every small minimal resolution, enumerated rather than sampled.

Bare blowup sequences are grown one blowup at a time, each graph of n
points by every free and satellite blowup of each graph of n - 1, and
kept once per canonical code.  A pure collection decorates a bare
sequence: ordered marks on a set of points holding every maximal one
(divisorial), or numbered arrows on such points, several allowed on one
point, kept when the graph is already its own minimal curve resolution
(curve).  A point that lies under no maximal one does not exist, so every
point lies under a mark or an arrow.
"""

from itertools import combinations, combinations_with_replacement, permutations

from planevals import (DualGraph, blowup, canonical_code,
                       minimize_curve_resolution)


def bare_sequences(n_max):
    """Bare blowup sequences by number of points: out[n - 1] lists every
    sequence of n points up to equivalence, for n = 1..n_max."""
    level = [blowup(DualGraph(), "origin")[0]]
    out = [level]
    for _ in range(n_max - 1):
        grown = {}
        for g in level:
            kinds = [("free", s) for s in g.vertex_ids()]
            kinds += [("satellite", s, d) for s in g.vertex_ids()
                      for d in g.neighbors(s) if s < d]
            for kind in kinds:
                h = blowup(g, kind)[0]
                grown.setdefault(canonical_code(h), h)
        level = list(grown.values())
        out.append(level)
    return out


def _decorated(graphs):
    """The graphs, one per canonical code, in first-seen order."""
    seen = {}
    for g in graphs:
        seen.setdefault(canonical_code(g), g)
    return list(seen.values())


def divisorial_collections(g, r_max):
    """Every ordered choice of at most r_max marks that holds each
    maximal point of the bare sequence g."""
    top = set(g.maximal_vertices())
    graphs = []
    for r in range(len(top), r_max + 1):
        for points in combinations(g.vertex_ids(), r):
            if top.issubset(points):
                graphs += [DualGraph(g.parents, marks, ())
                           for marks in permutations(points)]
    return _decorated(graphs)


def curve_collections(g, r_max):
    """Every numbering of at most r_max arrows on points of g that holds
    each maximal point, kept when no point of the graph contracts."""
    top = set(g.maximal_vertices())
    graphs = []
    for r in range(len(top), r_max + 1):
        for points in combinations_with_replacement(g.vertex_ids(), r):
            if not top.issubset(points):
                continue
            for order in sorted(set(permutations(points))):
                h = DualGraph(g.parents, (),
                              [(v, b) for b, v in enumerate(order, 1)])
                if minimize_curve_resolution(h) is h:
                    graphs.append(h)
    return _decorated(graphs)

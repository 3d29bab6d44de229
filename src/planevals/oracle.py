"""Ground truth computed from first principles, at desk scale.

Valuations are evaluated by composing blowup charts into explicit
parametrizations and reading off leading orders.  The codimension of
J(v) = {f : v_k(f) >= v_k for every k} in a jet space is the rank of the
functionals "coefficient of s^l lambda^j in the pullback along valuation
k, for l < v_k", taken over all valuations at once, so it is defined and
computed the same way for any number of valuations.  The Poincare series
is then assembled straight from its definition, as an alternating sum of
these dimensions over the corners of a unit cube.  Nothing here reuses
the closed formulas, so agreement with the poincare module is meaningful
evidence.

All arithmetic is exact: integer polynomial dictionaries, fraction-free
integer elimination.  Divisorial valuations use a single symbolic-generic
curvette (an indeterminate lambda), never random sampling.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .dualgraph import DualGraph, multiplicity_matrix
from .poincare import Branch, Divisorial, ValuationSpec
from .series import TruncatedSeries, _check_grid, _support
# nothing here calls divide_torus; the benchmark's tracer (bench/tracing.py)
# still wraps it as an attribute of this module
from .series import divide_torus  # noqa: F401

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "OracleError",
    "Parametrization",
    "curvette_parametrization",
    "branch_parametrization",
    "valuation",
    "multiplicity_sequence",
    "noether_contact",
    "ideal_dim",
    "definitional_poincare",
    "semigroup_series",
]

# polynomials in two symbols are dicts {(i, j): int}; the first symbol is
# always the one whose order we read (s in charts, tau in parametrizations)

Poly = Dict[Tuple[int, int], int]


class OracleError(RuntimeError):
    """The oracle cannot certify an answer at the requested scale."""


# feasibility limits of the jet-space count, checked before any chart is
# built: the number of jets (the width of every elimination row), and the
# jets times (top + 1)^(r - 1), the prefixes of the first r - 1
# coordinates.  _counts walks only the prefixes of the first r - 2 and takes
# the last two coordinates in one elimination each, so this bound is
# conservative; it is kept so that the same requests are refused
MAX_JETS = 4000
MAX_WORK = 10 ** 6


def _pmul(a: Poly, b: Poly, cap: int) -> Poly:
    # chart polynomials start at s and s*t and every substitution adds
    # theta >= 0, so their coefficients stay positive and _pmul and _subst
    # keep no zero; a caller's Parametrization can leave zeros here, which
    # valuation's _padd_scaled drops
    if len(a) > len(b):
        a, b = b, a
    out: Poly = {}
    for (i, j), c in a.items():
        for (k, l), d in b.items():
            s = i + k
            if s > cap:
                continue
            key = (s, j + l)
            out[key] = out.get(key, 0) + c * d
    return out


def _padd_scaled(acc: Poly, p: Poly, c: int) -> None:
    for key, d in p.items():
        v = acc.get(key, 0) + c * d
        if v:
            acc[key] = v
        elif key in acc:
            del acc[key]


def _subst(p: Poly, umono: Tuple[int, int], vpoly: Poly, cap: int) -> Poly:
    """p(U, V) where U is the monomial s^u0 t^u1 and V a short polynomial."""
    rows: Dict[int, Dict[int, int]] = {}
    for (a, b), c in p.items():
        rows.setdefault(b, {})[a] = c
    acc: Poly = {}
    for b in range(max(rows, default=0), -1, -1):
        acc = _pmul(acc, vpoly, cap)
        for a, c in rows.get(b, {}).items():
            i, j = a * umono[0], a * umono[1]
            if i <= cap:
                acc[(i, j)] = acc.get((i, j), 0) + c
    return acc


def _order(p: Poly) -> Optional[int]:
    return min((i for i, _ in p), default=None)


# -- blowup chart composition ----------------------------------------------


def _charts(graph: DualGraph, cap: int):
    """Chart data of every vertex, truncated at s-degree ``cap``.

    For vertex v the result holds a dict mapping ``other`` to the chart
    (X, Y) whose axes are {s = 0} = E_v and {t = 0} = E_other (other is
    None for the non-divisor axis of a chart at a free point).  Also
    returns, per vertex, the center coordinate assigned to each free
    child and to each arrow: distinct finite positions on the primary
    chart, starting at 0 when the second axis is not a divisor.
    """
    n = graph.n
    charts: List[Dict[Optional[int], Tuple[Poly, Poly]]] = [None] * (n + 1)
    primary: List[Optional[int]] = [None] * (n + 1)
    counters = [0] * (n + 1)
    for v in range(1, n + 1):
        ps = graph.parents[v - 1]
        if not ps:
            x: Poly = {(1, 0): 1}
            y: Poly = {(1, 1): 1}
            charts[v] = {None: (x, y)}
            primary[v] = None
            counters[v] = 0
        elif len(ps) == 1:
            p = ps[0]
            theta = counters[p]
            counters[p] += 1
            px, py = charts[p][primary[p]]
            va = {(1, 1): 1}
            if theta:
                va[(0, 0)] = theta
            vb = {(1, 0): 1}
            if theta:
                vb[(0, 0)] = theta
            charts[v] = {
                None: (_subst(px, (1, 0), va, cap), _subst(py, (1, 0), va, cap)),
                p: (_subst(px, (1, 1), vb, cap), _subst(py, (1, 1), vb, cap)),
            }
            primary[v] = None
            counters[v] = 0
        else:
            lo, hi = ps
            hx, hy = charts[hi][lo]
            charts[v] = {
                lo: (_subst(hx, (1, 0), {(1, 1): 1}, cap),
                     _subst(hy, (1, 0), {(1, 1): 1}, cap)),
                hi: (_subst(hx, (1, 1), {(1, 0): 1}, cap),
                     _subst(hy, (1, 1), {(1, 0): 1}, cap)),
            }
            primary[v] = lo
            counters[v] = 1
    arrow_theta = {}
    for v, branch in graph.arrows:
        arrow_theta[branch] = (v, counters[v])
        counters[v] += 1
    return charts, primary, arrow_theta


@dataclass(frozen=True)
class Parametrization:
    """Pair (x(tau), y(tau)) with coefficients polynomial in generic lambda.

    Stored as dicts {(tau_exp, lambda_exp): int}; orders past ``trunc``
    in tau are discarded.  Both components vanish at tau = 0 and the map
    is primitive (it parametrizes the image of a smooth transversal disc
    through the modification).
    """

    x: Tuple[Tuple[Tuple[int, int], int], ...]
    y: Tuple[Tuple[Tuple[int, int], int], ...]
    trunc: int

    @classmethod
    def _make(cls, x: Poly, y: Poly, trunc: int) -> "Parametrization":
        return cls(tuple(sorted(x.items())), tuple(sorted(y.items())), trunc)

    def polys(self) -> Tuple[Poly, Poly]:
        return dict(self.x), dict(self.y)


def _default_trunc(graph: DualGraph, sigma: int) -> int:
    (row,) = multiplicity_matrix(graph, (sigma,))
    return 2 * max(row) + 2


def curvette_parametrization(graph: DualGraph, sigma: int,
                             trunc: Optional[int] = None) -> Parametrization:
    """Generic transversal disc through E_sigma, pushed down to (x, y).

    The second chart coordinate is left symbolic: it is the generic
    position lambda of the point where the disc crosses E_sigma.
    """
    if not 1 <= sigma <= graph.n:
        raise OracleError(f"no vertex {sigma}")
    if trunc is None:
        trunc = _default_trunc(graph, sigma)
    ((x, y),) = _spec_pullback_sources(graph, (Divisorial(sigma),), trunc)
    return Parametrization._make(x, y, trunc)


def branch_parametrization(graph: DualGraph, branch: int,
                           trunc: Optional[int] = None) -> Parametrization:
    """Explicit parametrization of one arrow branch of a curve graph."""
    if branch not in {b for _, b in graph.arrows}:
        raise OracleError(f"no branch {branch}")
    alpha = graph.arrow_vertex(branch)
    if trunc is None:
        trunc = _default_trunc(graph, alpha)
    ((x, y),) = _spec_pullback_sources(graph, (Branch(branch),), trunc)
    return Parametrization._make(x, y, trunc)


def valuation(param: Parametrization, f) -> "int | float":
    """Leading tau-order of f pulled back along the parametrization.

    f is a polynomial {(i, j): int} in (x, y).  The leading coefficient
    is a polynomial in lambda; vanishing is decided identically, not
    numerically.  If everything cancels below the truncation degree the
    answer is only known to be >= trunc and math.inf is returned.
    """
    x, y = param.polys()
    cap = param.trunc
    xpow: List[Poly] = [{(0, 0): 1}]
    ypow: List[Poly] = [{(0, 0): 1}]
    acc: Poly = {}
    for (i, j), c in f.items():
        if not c:
            continue
        while len(xpow) <= i:
            xpow.append(_pmul(xpow[-1], x, cap))
        while len(ypow) <= j:
            ypow.append(_pmul(ypow[-1], y, cap))
        _padd_scaled(acc, _pmul(xpow[i], ypow[j], cap), c)
    o = _order(acc)
    return math.inf if o is None else o


# -- multiplicity sequences (independent of the matrix recursion) -----------


def multiplicity_sequence(graph: DualGraph, sigma: int) -> Dict[int, int]:
    """Multiplicity of a curvette of E_sigma at each center below it.

    Computed by proximity: the multiplicity at a center equals the sum
    of multiplicities at the centers proximate to it, seeded by 1 at the
    final center.
    """
    if not 1 <= sigma <= graph.n:
        raise OracleError(f"no vertex {sigma}")
    chain = graph.chain_to(sigma)
    members = set(chain)
    mu = {}
    for c in reversed(chain):
        total = 1 if c == sigma else 0
        for v in chain:
            if v > c and c in graph.parents[v - 1] and v in members:
                total += mu[v]
        mu[c] = total
    return mu


def noether_contact(graph: DualGraph, sigma: int, delta: int) -> int:
    """Intersection value of curvettes at two vertices, by Noether's sum."""
    mu_s = multiplicity_sequence(graph, sigma)
    mu_d = multiplicity_sequence(graph, delta)
    common = set(mu_s) & set(mu_d)
    return sum(mu_s[c] * mu_d[c] for c in common)


# -- jet spaces and the definitional series ---------------------------------


def _spec_pullback_sources(graph: DualGraph, spec, cap: int):
    """(X, Y) chart polynomials for every valuation in the spec."""
    charts, primary, arrow_theta = _charts(graph, cap)
    out = []
    for entry in spec:
        if isinstance(entry, Divisorial):
            out.append(charts[entry.vertex][primary[entry.vertex]])
        elif isinstance(entry, Branch):
            alpha, theta = arrow_theta[entry.branch]
            x, y = charts[alpha][primary[alpha]]
            sub = {(0, 0): theta} if theta else {}
            out.append((_subst(x, (1, 0), sub, cap),
                        _subst(y, (1, 0), sub, cap)))
        else:
            raise OracleError(f"unknown valuation {entry!r}")
    return out


def _power_terms(p: Poly, cap: int) -> List[Tuple[int, int, int, int]]:
    """(s-degree, k, lambda-degree, c) of every term c s^a lambda^b of p^k
    truncated at s-degree ``cap``, for k = 0, 1, .. up to the first zero
    power, in increasing order: one product per power.  A chart
    polynomial vanishes at s = 0, so its power cap + 1 is zero."""
    terms = [(0, 0, 0, 1)]
    q: Poly = {(0, 0): 1}
    for k in range(1, cap + 1):
        q = _pmul(q, p, cap)
        if not q:
            break
        terms += [(a, k, b, c) for (a, b), c in q.items()]
    terms.sort()
    return terms


def _level_rows(graph: DualGraph, spec, W: int, top: int):
    """The defining functionals of J(w) on the jets, as sparse rows.

    Jets are the monomials x^i y^j with i + j <= W, indexed in that
    order.  For valuation k, ``rows[k][l]`` holds one row {jet index: int}
    per lambda-power of the coefficient of s^l in the pullback along k,
    for l < top: a combination of jets lies in J(w) iff every row of
    every k at a level below w_k vanishes on its coefficient vector.

    The pullbacks come from two power tables per valuation: the terms of
    every power of x and of y, truncated at s-degree top - 1 (only levels
    below top are read, and s-degrees only add), each table ending at
    its first zero power.  Each term of x^i is scattered against the
    terms of the powers of y in increasing s-degree, up to the first
    that leaves the levels; the entries of one jet, level and
    lambda-power are summed.  Every chart coefficient is positive (their
    polynomials start at s and s*t and each substitution adds theta >=
    0), so the sums never cancel and no row holds a zero entry, which
    ``_place`` relies on.  x and y vanish at s = 0, so x^i y^j has no
    term below s-degree i + j: with W >= top - 1, as both callers pass,
    every jet that leaves an entry has degree at most W.
    """
    cap = top - 1
    # the index of the jet x^i
    first = [i * (2 * W + 3 - i) // 2 for i in range(W + 1)]
    out = []
    for x, y in _spec_pullback_sources(graph, spec, top):
        levels: List[Dict[int, Dict[int, int]]] = [{} for _ in range(top)]
        yterms = _power_terms(y, cap)
        for a, i, la, c in _power_terms(x, cap):
            room, jet0 = cap - a, first[i]
            for b, j, lb, d in yterms:
                if b > room:
                    break
                level, lam, jet = levels[a + b], la + lb, jet0 + j
                row = level.get(lam)
                if row is None:
                    level[lam] = {jet: c * d}
                else:
                    row[jet] = row.get(jet, 0) + c * d
        out.append([list(level.values()) for level in levels])
    return out


def _place(ech: Dict[int, Dict[int, int]],
           row: Dict[int, int]) -> Optional[int]:
    """Add a row to an echelon {pivot: row}; the new pivot, or None if the
    rank did not grow.

    Fraction-free elimination pivoting on the smallest key, so a reduction
    only leaves higher keys; the reduced row is divided by its content
    before it is stored.  Neither ``row`` nor a stored row is mutated, so
    echelons can share rows.
    """
    while row:
        piv = min(row)
        erow = ech.get(piv)
        if erow is None:
            g = math.gcd(*row.values())
            ech[piv] = row if g == 1 else {i: c // g for i, c in row.items()}
            return piv
        a, b = row[piv], erow[piv]
        g = math.gcd(a, b)
        a, b = a // g, b // g
        new = dict(row) if b == 1 else {i: b * c for i, c in row.items()}
        for i, c in erow.items():
            v = new.get(i, 0) - a * c
            if v:
                new[i] = v
            else:
                del new[i]
        row = new
    return None


def _reduce(ech: Dict[int, Dict[int, int]],
            row: Dict[int, int]) -> Dict[int, int]:
    """A nonzero multiple of ``row`` minus a combination of echelon rows,
    zero at every pivot; ``row`` is not mutated.

    The pivots are cleared in increasing order by the fraction-free step
    of ``_place``: an echelon row has no key below its pivot, so a cleared
    pivot never comes back.  The result is divided by its content.
    """
    row = dict(row)
    todo = sorted(i for i in row if i in ech)
    k = 0
    while k < len(todo):
        piv = todo[k]
        k += 1
        a = row.get(piv)
        if a is None:
            continue
        erow = ech[piv]
        b = erow[piv]
        g = math.gcd(a, b)
        a, b = a // g, b // g
        if b != 1:
            for i in row:
                row[i] *= b
        for i, c in erow.items():
            v = row.get(i)
            if v is None:
                row[i] = -a * c
                if i in ech:
                    insort(todo, i, k)
            elif v == a * c:
                del row[i]
            else:
                row[i] = v - a * c
    g = math.gcd(*row.values())
    return row if g < 2 else {i: c // g for i, c in row.items()}


def _feasible_jets(W: int, prefixes: int) -> int:
    """The number of jets of degree <= W; OracleError if it exceeds
    MAX_JETS, or if it times ``prefixes`` exceeds MAX_WORK."""
    jets = (W + 1) * (W + 2) // 2
    if jets > MAX_JETS or jets * prefixes > MAX_WORK:
        raise OracleError(f"{jets} jets over {prefixes} prefixes are beyond "
                          "oracle feasibility")
    return jets


def _flag(ech: Dict[int, Dict[int, int]], levels, room: int):
    """Insert ``levels`` into ``ech`` one level at a time, until the rank
    has grown by ``room``.  Returns the new pivots in insertion order and
    ``sizes``, where sizes[i] counts those added by the levels below i."""
    pivots: List[int] = []
    sizes = [0]
    for level in levels:
        for row in level:
            if len(pivots) == room:
                break
            piv = _place(ech, row)
            if piv is not None:
                pivots.append(piv)
        sizes.append(len(pivots))
    return pivots, sizes


def _two_flags(ech: Dict[int, Dict[int, int]], rank: int, a_levels,
               b_levels, jets: int) -> np.ndarray:
    """jets - rank(E + A_<i + B_<j) for (i, j) on [0, top]^2, where E is
    the echelon ``ech`` of rank ``rank`` (taken over and extended) and
    A_<i, B_<j are the rows of the two valuations at levels below i, j.

    In the quotient Q of the row space by E, A's rows span a flag: p_i new
    pivots from the levels below i.  Those rows, in insertion order, then
    the jets that are no pivot at all, form a basis of Q.  Each row of B
    is reduced against E + A; the multipliers of the A rows (kept as tags
    past the last jet) and the residual on the free jets are its
    coordinates in that basis.  A second echelon of these coordinates,
    pivoting on their last column, gives each new pivot a level l and a
    column c, and the image of B_<j in Q / A_<i has one dimension for each
    pivot with l < j and c >= p_i.  So the whole block comes from two
    cumulative sums over a histogram of (l + 1, c).
    """
    import numpy as np

    room = jets - rank
    top = len(a_levels)
    a_pivots, sizes = _flag(ech, a_levels, room)
    m = len(a_pivots)
    for k, piv in enumerate(a_pivots):
        ech[piv] = {**ech[piv], jets + k: 1}
    hist = np.zeros((top + 1, m + 1), dtype=np.int64)
    coords: Dict[int, Dict[int, int]] = {}
    for level, rows in enumerate(b_levels):
        for row in rows:
            if len(coords) == room:
                break
            # column k for the A row tagged jets + k, m + f for free jet f,
            # negated so that _place pivots on the last column
            piv = _place(coords, {jets - i if i >= jets else -m - i: c
                                  for i, c in _reduce(ech, row).items()})
            if piv is not None:
                hist[level + 1, min(-piv, m)] += 1
    tail = hist.cumsum(0)[:, ::-1].cumsum(1)[:, ::-1]
    p = np.array(sizes)
    return room - p[:, None] - tail[:, p].T


def _counts(graph: DualGraph, spec, W: int, top: int) -> np.ndarray:
    """counts[w] = dim J(w) on the jets, for w on the grid [0, top]^r, for
    a spec of r >= 1 valuations (its caller refuses an empty one).

    dim J(w) is the number of jets minus the rank of the rows of every
    valuation k at the levels below w_k.  A depth-first walk over the
    first r - 2 coordinates extends one echelon level by level, handing
    each prefix a shallow copy and stopping where the rank is full.  Each
    prefix reads its whole [0, top]^2 block of the last two coordinates
    from one elimination of their rows (``_two_flags``); with r = 1 the
    only valuation's levels are added one at a time.  The rank does not
    depend on the order of the valuations, so they are walked densest
    first: the sparsest is the one whose rows are reduced in full.

    A count is at most the number of jets, at most MAX_JETS, so int64
    cannot overflow here or in the sums over 2^r corners taken from it.
    """
    import numpy as np

    r = len(spec)
    jets = _feasible_jets(W, (top + 1) ** (r - 1))
    levels = _level_rows(graph, spec, W, top)
    if r == 1:
        return jets - np.array(_flag({}, levels[0], jets)[1], dtype=np.int64)
    order = sorted(range(r), key=lambda k: -sum(
        len(row) for level in levels[k] for row in level))
    walk_levels = [levels[k] for k in order]
    counts = np.zeros((top + 1,) * r, dtype=np.int64)

    def walk(depth: int, ech, rank: int, index: Tuple[int, ...]) -> None:
        if depth == r - 2:
            counts[index] = _two_flags(ech, rank, walk_levels[-2],
                                       walk_levels[-1], jets)
            return
        for w in range(top + 1):
            if w:
                for row in walk_levels[depth][w - 1]:
                    rank += _place(ech, row) is not None
            if rank == jets:
                # J is zero here and at every larger coordinate
                return
            walk(depth + 1, dict(ech), rank, index + (w,))

    walk(0, {}, 0, ())
    return counts.transpose(np.argsort(order))


def ideal_dim(graph: DualGraph, spec: ValuationSpec, v: Sequence[int]) -> int:
    """dim J(v)/J(v + (1,..,1)) computed on jets, exactly.

    The jet space takes all monomials of degree <= max(v) + 3, enough to
    determine membership in every ideal queried here.  One echelon takes
    the rows of every valuation k at the levels below v_k, then the rows
    at level v_k; the rank those add is dim J(v) - dim J(v + (1,..,1)).
    Any number of valuations is accepted; OracleError marks an empty spec,
    a vector that does not match it, or a jet count beyond MAX_JETS.
    """
    v = tuple(int(x) for x in v)
    if not spec:
        raise OracleError("empty valuation spec")
    if len(v) != len(spec) or any(x < 0 for x in v):
        raise OracleError(f"value vector {v} does not match the spec")
    top = max(v) + 1
    _feasible_jets(top + 2, 1)
    levels = _level_rows(graph, spec, top + 2, top)
    ech: Dict[int, Dict[int, int]] = {}
    for rows, x in zip(levels, v):
        for level in rows[:x]:
            for row in level:
                _place(ech, row)
    return sum(_place(ech, row) is not None
               for rows, x in zip(levels, v) for row in rows[x])


def definitional_poincare(graph: DualGraph, spec: ValuationSpec,
                          bound: int) -> TruncatedSeries:
    """Poincare series straight from the definition, truncated.

    The definition is P = L(t) prod (t_i - 1) / (t_1 .. t_r - 1), with
    L(v) = D(v) - D(v + (1,..,1)) and D(v) = dim J(v).  Dividing sums the
    numerator down each diagonal, along which the difference inside L
    telescopes; the term left at the diagonal's foot vanishes, as D does
    not change when a coordinate at 0 drops to -1.  So

        P(w) = sum over T subset of {1..r} of (-1)^|T| D(w + e_T),

    read from counts on [0, bound + 1]^r.  Exact; the published contract
    guarantees coefficients on [0, bound - r]^r (window-edge effects stay
    outside it).  Any number of valuations is accepted; a (bound, r) whose
    jet count exceeds MAX_JETS, or whose jets times (bound + 2)^(r - 1)
    prefixes exceed MAX_WORK, raises OracleError before any chart is
    built.
    """
    r = len(spec)
    if r < 1:
        raise OracleError("empty valuation spec")
    if bound < 1:
        raise OracleError("bound must be positive")
    counts = _counts(graph, spec, bound + 2, bound + 1)
    grid = sum((-1) ** sum(corner)
               * counts[tuple(slice(c, c + bound + 1) for c in corner)]
               for corner in product((0, 1), repeat=r))
    return TruncatedSeries._from_keys(r, bound, *_support(grid))


def semigroup_series(generators: Sequence[int], bound: int) -> TruncatedSeries:
    """Characteristic series of the numerical semigroup, by dynamic
    programming: coefficient 1 exactly at representable values.  A bound
    that ``TruncatedSeries`` would refuse raises ``SeriesError`` before
    anything is allocated."""
    _check_grid(1, bound)
    gens = [int(g) for g in generators]
    if not gens or any(g < 1 for g in gens):
        raise OracleError(f"bad generators {generators}")
    reach = [False] * (bound + 1)
    reach[0] = True
    for g in gens:
        for v in range(g, bound + 1):
            if reach[v - g]:
                reach[v] = True
    return TruncatedSeries(1, bound,
                           {(v,): 1 for v, ok in enumerate(reach) if ok})

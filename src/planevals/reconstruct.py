"""Recovering minimal resolutions from Poincare series.

The univariate series of one valuation decodes to numerical branch data
(semigroup generators, dead-end values, free tail); branch_from_univariate
holds the only check of that data against its series.  A Euclidean state
machine rebuilds the blowup sequence from that data.  One pair check
(_fit_pair) decides whether a contact fits two chains and at what depth
they part.  Each pairwise contact is read off the shape of the pair's
two-variable series, projected once: it is the least value that the
structural cases give, with nothing tried and no graph built.  A Noether
walk merges per-branch infinitely-near-point chains into the final graph,
running the pair check on every pair and checking that the merge realizes
every shared depth (the tree hierarchy), which by Noether's formula
makes the graph realize every contact; a single chain is the same walk
with one branch.  A curve series gives up one branch at a time, at its
glex-first exponent, through the projection formula, with nothing else
tried.  Either decode assembles its one graph once, and that graph has
its forward series recomputed and compared with the input, so a wrong
decode surfaces as an error instead of a wrong graph.

A series determines its minimal resolution (Yamamoto;
Campillo-Delgado-Gusein-Zade), so each decode is a pure function of its
input, and three steps are cached per process, each in a bounded LRU
cache.  reconstruct_divisorial and reconstruct_curve each keep the last
_DECODED_GRAPHS graphs, keyed on the series: a hit returns the very
DualGraph that assemble built and checked against an equal series.
branch_from_univariate keeps the last _DECODED_SERIES decodes, keyed on
(series, mode), and _branch_profile the last _PROFILED_CHAINS chains,
keyed on the BranchData alone.  No cache stores a refusal, so a refused
input raises the same error on every call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from math import gcd
from operator import ge, index, lt
from typing import List, Optional, Sequence, Tuple

from .dualgraph import (MAX_VERTICES, DualGraph, GraphError,
                        multiplicity_matrix)  # bench/tracing.py wraps it here
from .poincare import (default_spec, poincare_series,
                       projection_formula_curve)
from .series import FactoredSeries, SeriesError, glex_key, project

__all__ = [
    "DecodeError",
    "ContactError",
    "VerificationError",
    "BranchData",
    "branch_from_univariate",
    "graph_from_branch",
    "pairwise_contact",
    "assemble",
    "reconstruct_divisorial",
    "reconstruct_curve",
]


class DecodeError(ValueError):
    """Series data does not have the shape of any valid valuation."""


class ContactError(DecodeError):
    """Contact values cannot be realized by any infinitely-near tree."""


class VerificationError(RuntimeError):
    """A synthesized graph failed to reproduce the series it came from."""


# -- numerical data of one valuation --------------------------------------


@dataclass(frozen=True)
class BranchData:
    """Numerical type of one branch or one divisorial valuation.

    generators are the minimal generators m_0 < ... < m_g of the value
    semigroup; c counts free blowups past the last rupture (a curve
    branch has none).  The rest is derived from them, and instances
    compare and hash by (generators, c): dead_values are the dead-end
    contact values m_tau_i = (e_{i-1}/e_i) m_i; gcds holds
    e_i = gcd(m_0..m_i); top_value is the self-contact
    m_{g+1} = m_tau_g + c, with the conventions e_{-1} = m_0 and
    m_tau_0 = m_0 when g = 0.  The constructor takes only a tuple of
    ints and an int c >= 0 that make such a semigroup, so every value
    univariate_series wraps unchecked is a positive int.
    """

    generators: Tuple[int, ...]
    dead_values: Tuple[int, ...] = field(init=False, compare=False)
    gcds: Tuple[int, ...] = field(init=False, compare=False)
    c: int = 0
    g: int = field(init=False, compare=False)
    top_value: int = field(init=False, compare=False)

    def __post_init__(self):
        gens, c = self.generators, self.c
        if not (type(gens) is tuple and type(c) is int
                and all(type(m) is int for m in gens)):
            raise DecodeError(
                f"branch data needs a tuple of int generators and an int "
                f"c, got generators {gens!r}, c {c!r}")
        if not gens or c < 0:
            raise DecodeError("need at least one generator and c >= 0")
        # once they strictly increase, the first is the least
        if gens[0] < 1 or not all(map(lt, gens, gens[1:])):
            raise DecodeError(f"generators must strictly increase: {gens}")
        e = tuple(accumulate(gens, gcd))
        g = len(gens) - 1
        if e[-1] != 1:
            raise DecodeError(f"generators {gens} have gcd {e[-1]} != 1")
        for i in range(1, g + 1):
            if e[i] >= e[i - 1]:
                raise DecodeError(
                    f"generator {gens[i]} is redundant (gcd does not drop)")
        dead = tuple([e[i - 1] // e[i] * gens[i] for i in range(1, g + 1)])
        for i in range(1, g):
            if not dead[i - 1] < gens[i + 1]:
                raise DecodeError(
                    f"dead value {dead[i - 1]} not below next generator "
                    f"{gens[i + 1]}; not a plane valuation semigroup")
        top = (dead[-1] if g >= 1 else gens[0]) + c
        # the instance is frozen, so the derived fields skip __setattr__
        vars(self).update(dead_values=dead, gcds=e, g=g, top_value=top)

    @classmethod
    def from_generators(cls, generators, c: int = 0) -> "BranchData":
        """The constructor, on values converted with operator.index: numpy
        ints are accepted, and a float or a string is refused with the
        constructor's message, never truncated."""
        gens = tuple(generators)
        try:
            gens, c = tuple(map(index, gens)), index(c)
        except TypeError:
            pass  # the constructor names the values that are not ints
        return cls(gens, c)

    def univariate_series(self, mode: str) -> FactoredSeries:
        """Factored series of this single valuation (the forward map)."""
        if mode not in ("curve", "divisorial"):
            raise DecodeError(f"unknown mode {mode!r}")
        if mode == "curve":
            _refuse_curve_tail(self, 1)
        # the constructor certified every value a positive int
        factors = dict.fromkeys([(m,) for m in self.generators], -1)
        if mode == "divisorial":
            # with no free tail the top value is the last dead value (or
            # m_0 = 1 when g = 0), so this pole cancels that zero (or
            # squares the pole at t)
            top = (self.top_value,)
            factors[top] = factors.get(top, 0) - 1
        for m in self.dead_values:
            factors[(m,)] = factors.get((m,), 0) + 1
        return FactoredSeries._from_valid(1, factors)


def _refuse_curve_tail(b: BranchData, i: int) -> None:
    """A curve branch has no free tail: refuse b, branch i, if it has one."""
    if b.c:
        raise ContactError(f"curve branch {i} has free tail c = {b.c}; "
                           "curve branches have none")


# the decodes of 2000 campaign round trips that miss the graph caches
# look up about 175 distinct one-variable series, about 1840 times in
# all; an entry (the key series, which the cache keeps alive, and its
# BranchData) holds about 0.7 KB there, and no more for a chain of 10^4
# points, so a full cache holds about 1 MB
_DECODED_SERIES = 1024


@lru_cache(maxsize=_DECODED_SERIES)
def branch_from_univariate(p: FactoredSeries, mode: str) -> BranchData:
    """Decode a one-variable factored series into BranchData.

    Curve shape: g+1 denominators (the generators) against g numerators
    (the dead values).  Divisorial shape: l+1 denominators against l-1
    numerators; gcd of all denominators but the last decides whether the
    marked vertex is the last rupture (gcd > 1, no free tail) or lies
    past it (gcd = 1, tail length recovered from the top exponent).  The
    double pole (1-t)^(-2) is the single-vertex modification.

    The result's own series must be p; this is the only check of a
    decoded branch against its series.  The poles are b's by
    construction and every power is +-1, and a dead value is never a
    generator or the top value (m_i < dead_i < m_{i+1}, dead_g < top), so
    the check fails exactly when the zeros are not b's.  Results are
    cached per (p, mode); a refusal is not, and raises again.
    """
    if p.nvars != 1:
        raise DecodeError("univariate series expected")
    facs = p.factors()
    if facs == {(1,): -2}:
        if mode == "curve":
            raise DecodeError("a curve branch never has a double pole at t")
        return BranchData.from_generators((1,), 0)
    if not {1, -1}.issuperset(facs.values()):
        raise DecodeError("all multiplicities must be +-1")
    denoms = sorted(m for (m,), k in facs.items() if k == -1)
    numers = sorted(m for (m,), k in facs.items() if k == 1)
    if mode == "curve":
        if len(denoms) != len(numers) + 1:
            raise DecodeError(
                f"curve shape needs g+1 poles vs g zeros, got "
                f"{len(denoms)} vs {len(numers)}")
        b = BranchData.from_generators(denoms, 0)
    elif mode != "divisorial":
        raise DecodeError(f"unknown mode {mode!r}")
    elif len(denoms) != len(numers) + 2:
        raise DecodeError(
            f"divisorial shape needs l+1 poles vs l-1 zeros, got "
            f"{len(denoms)} vs {len(numers)}")
    elif gcd(*denoms[:-1]) > 1:
        b = BranchData.from_generators(denoms, 0)
    else:
        base = BranchData.from_generators(denoms[:-1], 0)
        c = denoms[-1] - base.top_value
        if c < 1:
            raise DecodeError(
                f"top exponent {denoms[-1]} not past the last dead value "
                f"{base.top_value}")
        b = BranchData(base.generators, c)
    if b.univariate_series(mode) != p:
        raise DecodeError(
            f"zeros {numers} disagree with dead values {b.dead_values}")
    return b


# -- rebuilding one chain: the Euclidean state machine ---------------------


# the decodes of 2000 campaign round trips that miss the graph caches
# look up about 181 distinct chains, about 3180 times in all; a cached
# chain of a campaign graph holds about 0.7 KB, and one of 10^4 points
# about 1 MB
_PROFILED_CHAINS = 256


@lru_cache(maxsize=_PROFILED_CHAINS)
def _branch_profile(b: BranchData):
    """Blowup chain of the solo minimal resolution of one valuation.

    Returns (kinds, mu): kinds[d-1] describes the center blown to create
    depth d as ("origin",), ("free", parent_depth) or
    ("satellite", other_depth, prev_depth); mu[d-1] is the multiplicity
    of a curvette of the valuation (or of the branch) at that center.

    The machine runs Euclid on the characteristic pairs: the state holds
    the vanishing orders of the two local coordinate axes together with
    the divisor each axis belongs to; subtract the smaller order, give
    the freed slot to the newly created divisor.  Order equality is the
    rupture of the current pair.  The pairs are (beta_0, beta_1), then
    (e_{i-1}, beta_i - beta_{i-1}) for i = 2..g; the smooth branch
    (g = 0, beta_0 = 1) is the one pair (1, 1), a single point.  Euclid
    on a pair ends at its gcd, and the last one's is e_g = 1, so every
    chain ends at a point of multiplicity 1.  A pair (a, w) takes as many
    steps as the quotients of Euclid's algorithm on it add up to, so the
    length of the chain is known first, and a chain longer than
    MAX_VERTICES raises DecodeError before it is built.  The chain runs
    on by b.c free points past the last rupture.  Results are cached per
    b, so the pairs of one decode share each branch's chain.
    """
    gens, e, g, c = b.generators, b.gcds, b.g, b.c
    beta = list(gens[:2])
    for i in range(1, g):
        beta.append(gens[i + 1] - (e[i - 1] // e[i]) * gens[i] + beta[i])
    runs = [(beta[0], beta[1] if g else beta[0])]
    runs += [(e[i], beta[i + 1] - beta[i]) for i in range(1, g)]

    length = c
    for a, w in runs:
        while w:
            q, rem = divmod(a, w)
            length += q
            a, w = w, rem
    if length > MAX_VERTICES:
        raise DecodeError(
            f"the resolution of {b.generators} has {length} vertices, "
            f"above the limit {MAX_VERTICES}")

    kinds: list = []
    mu: list = []
    depth = 0
    rupture = None
    for a, w in runs:
        # the first pair starts at the origin, on no divisor
        la, lw = rupture, None
        while True:
            depth += 1
            labels = [x for x in (la, lw) if x is not None]
            if not labels:
                kinds.append(("origin",))
            elif len(labels) == 1:
                kinds.append(("free", labels[0]))
            else:
                kinds.append(("satellite", min(labels), max(labels)))
            mu.append(min(a, w))
            if a == w:
                rupture = depth
                break
            if a < w:
                la, w = depth, w - a
            else:
                a, lw = a - w, depth
    for _ in range(c):
        depth += 1
        kinds.append(("free", depth - 1))
        mu.append(1)
    return tuple(kinds), tuple(mu)


def graph_from_branch(b: BranchData, mode: str) -> DualGraph:
    """Solo minimal resolution of one valuation, self-verified.

    This is assemble of the one chain, with its forward series compared
    against b.univariate_series(mode); any disagreement raises.
    """
    return assemble([b], [[b.top_value]], mode,
                    expect=b.univariate_series(mode))


# -- merging chains: the Noether walk --------------------------------------


def _kind_at(kinds, d: int):
    if d <= len(kinds):
        return kinds[d - 1]
    return ("free", d - 1)


def _fit_pair(profiles, i: int, j: int, contact: int, mode: str) -> int:
    """Number of common infinitely-near points of chains i and j that
    realize their contact.

    The contact must be positive and a partial sum of the products of
    the two chains' multiplicities.  Past both profiles every shared
    point has multiplicity 1 on both chains and adds exactly 1, so the
    depth is known without walking there; one above MAX_VERTICES raises
    DecodeError.  Two divisorial chains share no deeper than the shorter
    one and not both whole, and a shared point has the same kind on both
    chains; past both profiles both kinds are ("free", d - 1) by
    construction, so kinds are compared only up to the longer profile.
    No graph is built.
    """
    if contact < 1:
        raise ContactError(f"contact {contact} of chains {i + 1} and "
                           f"{j + 1} is not positive")
    (kinds_i, mu_i), (kinds_j, mu_j) = profiles[i], profiles[j]
    acc = d = 0
    for a, b in itertools.zip_longest(mu_i, mu_j, fillvalue=1):
        if acc >= contact:
            break
        acc += a * b
        d += 1
    if acc < contact:
        d += contact - acc
        acc = contact
    if mode == "divisorial" and d > min(len(mu_i), len(mu_j)):
        raise ContactError(f"contact {contact} of chains {i + 1} and "
                           f"{j + 1} exceeds what they can share")
    if acc != contact:
        raise ContactError(f"contact {contact} of chains {i + 1} and "
                           f"{j + 1} is not a partial sum of multiplicity "
                           f"products (reached {acc} at depth {d})")
    if d > MAX_VERTICES:
        raise DecodeError(
            f"contact {contact} needs {d} shared points, above the limit "
            f"{MAX_VERTICES}")
    if mode == "divisorial" and d == len(mu_i) == len(mu_j):
        raise ContactError(
            f"valuations {i + 1} and {j + 1} share their whole "
            "chains; they are not distinct")
    for e in range(1, min(d, max(len(kinds_i), len(kinds_j))) + 1):
        ki, kj = _kind_at(kinds_i, e), _kind_at(kinds_j, e)
        if ki != kj:
            raise ContactError(
                f"chains {i + 1} and {j + 1} disagree at shared "
                f"depth {e}: {ki} vs {kj}")
    return d


def assemble(branches: Sequence[BranchData], contacts, mode: str,
             expect: Optional[FactoredSeries] = None) -> DualGraph:
    """Merge solo chains into one minimal resolution.

    contacts[i][j] is the pairwise intersection value m_{alpha_i alpha_j}
    (diagonal: the valuation's own top value).  _fit_pair checks each
    contact against its two chains and finds their shared depth s[i][j].
    Chain i takes its first share[i] = max_{j<i} s[i][j] points from an
    earlier chain src[i] attaining that maximum and creates the rest;
    points are numbered by depth, then by chain.  The merge realizes
    every shared depth exactly when s[i][j] = min(share[i], s[src[i]][j])
    for each j < i, which holds for all i exactly when the depths form a
    tree hierarchy (s[i][k] >= min(s[i][j], s[j][k])).  A curve branch
    has no free tail, so one with c > 0 is refused before any chain is
    built.  With ``expect`` given, the forward series of the result is
    compared against it.

    Three facts follow and are not checked again.  The graph realizes
    every contact: chain i's points carry its profile's kinds (the first
    share[i] from src[i], as _fit_pair matched), so a curvette of its
    last point has the profile's multiplicities, and 1 past it; two
    chains share exactly their first s[i][j] points, so Noether's
    formula (Casas-Alvero) gives the partial sum _fit_pair matched.  No
    satellite position is taken twice: of two satellite points on
    components s < d, the first in depth order removes s from d's
    adjacency, and the replay refuses the second as a ContactError.  The
    graph is minimal, so poincare_series accepts it: every point lies
    under the last point of a chain, and a maximal vertex ends every
    chain through it.  It is a marked divisor or, in curve mode, an
    arrow vertex: the graph's one vertex, a point past a profile (shared
    by two chains: two arrows and a parent) or a profile's last rupture
    (two parents and an arrow).
    """
    branches = list(branches)
    r = len(branches)
    if r == 0:
        raise ContactError("no valuations to assemble")
    if mode not in ("divisorial", "curve"):
        raise ContactError(f"unknown mode {mode!r}")
    cm = [[int(contacts[i][j]) for j in range(r)] for i in range(r)]
    for i in range(r):
        if mode == "curve":
            _refuse_curve_tail(branches[i], i + 1)
        if cm[i][i] != branches[i].top_value:
            raise ContactError(
                f"diagonal contact {cm[i][i]} differs from top value "
                f"{branches[i].top_value} of valuation {i + 1}")
        for j in range(i + 1, r):
            if cm[i][j] != cm[j][i]:
                raise ContactError(
                    f"contact {cm[i][j]} of chains {i + 1} and {j + 1} "
                    f"differs from contact {cm[j][i]} of chains {j + 1} "
                    f"and {i + 1}")

    profiles = [_branch_profile(b) for b in branches]
    s = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            s[i][j] = s[j][i] = _fit_pair(profiles, i, j, cm[i][j], mode)
    # a curve branch runs on, by free points, as deep as it shares; a
    # divisorial chain shares no deeper than its own length
    total = [max(len(mu), max(row)) for (_, mu), row in zip(profiles, s)]

    src = [0] * r
    share = [0] * r
    for i in range(1, r):
        row = s[i]
        src[i] = max(range(i), key=row.__getitem__)
        share[i] = row[src[i]]
        up = s[src[i]]
        for j in range(i):
            if j != src[i] and row[j] != min(share[i], up[j]):
                raise ContactError("shared depths violate the tree hierarchy")
    # ids[i][d]: the point of chain i at depth d; ids grow with the depth,
    # so a point's parents, in depth order, are in id order
    ids: List[List[int]] = [[0] for _ in range(r)]
    parents: List[tuple] = []
    for d in range(1, max(total) + 1):
        for i, chain in enumerate(ids):
            if d <= share[i]:
                chain.append(ids[src[i]][d])
            elif d <= total[i]:
                kind = _kind_at(profiles[i][0], d)
                parents.append(tuple(map(chain.__getitem__, kind[1:])))
                chain.append(len(parents))

    refs = tuple(chain[-1] for chain in ids)
    try:
        if mode == "divisorial":
            graph = DualGraph(tuple(parents), refs, ())
        else:
            graph = DualGraph(tuple(parents), (),
                              tuple(zip(refs, range(1, r + 1))))
    except GraphError as exc:
        raise ContactError(f"merged chains are not a blowup sequence: "
                           f"{exc}") from exc

    if expect is not None:
        got = poincare_series(graph, default_spec(graph))
        if got != expect:
            raise VerificationError(_mismatch(got.factors(),
                                              expect.factors()))
    return graph


# a failed check quotes both factor dicts only up to this many factors
# each; past it the message names the counts and the first difference, so
# its length does not grow with the number of factors
_QUOTED_FACTORS = 32


def _mismatch(got: dict, expect: dict) -> str:
    """The message of a series check that found ``got`` for ``expect``."""
    if max(len(got), len(expect)) <= _QUOTED_FACTORS:
        return f"assembled graph reproduces {got}, expected {expect}"
    first = min((m for m in got.keys() | expect.keys()
                 if got.get(m) != expect.get(m)), key=glex_key)
    return (f"assembled graph reproduces {len(got)} factors, expected "
            f"{len(expect)}; the glex-first difference is at exponent "
            f"{first}, power {got.get(first, 0)} instead of "
            f"{expect.get(first, 0)}")


# -- pairwise contacts from two-variable series (divisorial) ---------------


def _maximal_exponents(exps) -> List[tuple]:
    """Componentwise-maximal elements, glex-descending.

    An exponent that dominates another has the larger degree and comes
    first in that order, so each one is checked against the maximal
    ones already kept only.
    """
    out: List[tuple] = []
    for m in sorted(set(exps), key=glex_key, reverse=True):
        if not any(all(map(ge, o, m)) for o in out):
            out.append(m)
    return out


def _last_gen(b: BranchData) -> int:
    return b.generators[-1]


def _e_top(b: BranchData) -> int:
    # e_{g-1} with the convention e_{-1} = m_0
    return b.gcds[b.g - 1] if b.g >= 1 else b.generators[0]


def _least_contact(p2: FactoredSeries, b1: BranchData,
                   b2: BranchData) -> int:
    """The pair's contact: the least value the structural cases give.

    Each maximal pole exponent of the pair belongs either to one of the
    marked vertices itself (first coordinate equal to the top value, tail
    present) or to the deepest dead end of one of the chains; in the
    latter case the geodesics separate at or after the last rupture and
    the other coordinate picks up the gcd factor of the deeper chain.
    Every case that applies gives a value, and on a valid pair the least
    of them is the contact.  That rule is empirical: no value has been
    found below the contact, and the least was the contact, on every
    pair of every collection of at most 8 points and 4 valuations and on
    tens of thousands of random pairs; tests/test_census.py checks it on
    every collection of at most 6 points and 3 valuations.  The caller's
    check of the whole series turns a miss into an error, never a graph.
    """
    poles = [m for m, k in p2.factors().items() if k == -1]
    cands: List[int] = []
    for x, y in _maximal_exponents(poles):
        if x == b1.top_value and b1.c > 0:
            cands.append(y)
        if y == b2.top_value and b2.c > 0:
            cands.append(x)
        if x == _last_gen(b1) and y == _last_gen(b2):
            cands.append(min(_e_top(b2) * x, _e_top(b1) * y))
        if x == _last_gen(b1) and y != _last_gen(b2):
            cands.append(_e_top(b1) * y)
        if y == _last_gen(b2) and x != _last_gen(b1):
            cands.append(_e_top(b2) * x)
    if not cands:
        raise DecodeError(
            "no structural case yields a contact consistent with the series")
    return min(cands)


def pairwise_contact(p2: FactoredSeries, b1: BranchData,
                     b2: BranchData) -> int:
    """Intersection value of curvettes of two marked divisors.

    The least structural value (_least_contact), returned once the pair
    assembled with it reproduces the given two-variable series.
    reconstruct_divisorial does not call it: it checks the whole series
    once instead of each pair's.
    """
    if p2.nvars != 2:
        raise DecodeError("pairwise contact needs a two-variable series")
    c = _least_contact(p2, b1, b2)
    assemble([b1, b2], [[b1.top_value, c], [c, b2.top_value]], "divisorial",
             expect=p2)
    return c


# 2000 campaign round trips decode about 1145 distinct series, 2000 in all,
# half of them in each mode; an entry (the key series, which the cache
# keeps alive, and the graph) holds about 1.6 KB there, and one of a
# 10^4-vertex graph about 2.3 MB
_DECODED_GRAPHS = 1024


@lru_cache(maxsize=_DECODED_GRAPHS)
def reconstruct_divisorial(p: FactoredSeries) -> DualGraph:
    """Minimal resolution of a set of divisorial valuations from its series.

    Each valuation decodes from its one-variable projection, and each
    pair's contact is read off its two-variable projection
    (_least_contact) with no pair graph built.  assemble checks every
    contact against the two chains (_fit_pair) once, merges the chains,
    and compares the one graph's series with the whole input.  That
    series determines the minimal resolution, and its projection to two
    valuations is the series of the pair (Campillo-Delgado-Gusein-Zade),
    so the one check proves every pair's contact: a wrong choice ends in
    an error, never in a graph.  Results are cached per p; a refusal is
    not, and raises again.
    """
    r = p.nvars
    if r < 1:
        raise DecodeError("need at least one variable")
    branches = [branch_from_univariate(project(p, {i}) if r > 1 else p,
                                       "divisorial")
                for i in range(1, r + 1)]
    cm = [[b.top_value if i == j else 0 for j in range(r)]
          for i, b in enumerate(branches)]
    for i, j in itertools.combinations(range(r), 2):
        # every factor has all coordinates nonzero once the variables
        # project, so no pair's projection can fail
        pij = project(p, {i + 1, j + 1}) if r > 2 else p
        cm[i][j] = cm[j][i] = _least_contact(pij, branches[i], branches[j])
    return assemble(branches, cm, "divisorial", expect=p)


# -- curve reconstruction ---------------------------------------------------


def _branch_of_values(values) -> BranchData:
    """The plane branch whose semigroup has the given values as members
    and is generated by some of them.

    The minimal generators are the gcd chain of the sorted values:
    ``m_i`` is the least value not divisible by ``e_{i-1}``, since every
    element of the semigroup below it is a sum of earlier generators.
    Once ``from_generators`` accepts the chain, each value is checked for
    membership through its standard representation
    ``a_0 m_0 + sum a_i m_i`` with ``0 <= a_i < e_{i-1}/e_i``: it lies in
    the semigroup exactly when ``a_0 >= 0``.  A value outside would be a
    further generator, which no plane branch has.
    """
    vals = sorted(set(map(int, values)))
    if not vals or vals[0] < 1:
        raise DecodeError(f"bad semigroup values {vals}")
    gens, e = [], 0
    for v in vals:
        if e == 0 or v % e:
            gens.append(v)
            e = gcd(e, v)
    b = BranchData.from_generators(gens, 0)
    for v in vals:
        rest = v
        for i in range(b.g, 0, -1):
            e_i, n_i = b.gcds[i], b.gcds[i - 1] // b.gcds[i]
            a_i = rest // e_i * pow(b.generators[i] // e_i, -1, n_i) % n_i
            rest -= a_i * b.generators[i]
        if rest < 0:
            raise DecodeError(
                f"value {v} is not in the semigroup generated by {b.generators}")
    return b


def _peel_at(q: FactoredSeries, cand: tuple):
    """Split off the branch whose arrow vertex carries exponent ``cand``."""
    facs = q.factors()
    r = q.nvars
    exps = list(facs)
    A = []
    for j in range(r):
        if all(cand[j] * m[k] >= m[j] * cand[k]
               for m in exps for k in range(r)):
            A.append(j)
    if not A:
        raise DecodeError("no coordinate is extremal at the peeled vertex")
    best = max(cand[j] for j in A)
    i0 = next(j for j in A if cand[j] == best)
    values = [m[i0] for m, k in facs.items() if k == -1]
    values += [cand[j] for j in range(r) if j != i0]
    return i0 + 1, _branch_of_values(values)


def _solve_curve(p: FactoredSeries,
                 inputs: Optional[Tuple[int, ...]] = None):
    """The (branches, contacts) decomposition of a curve series.

    Peels the branch at the glex-first exponent, which is always a
    maximal one, and decodes the rest.  A valid series has one
    decomposition (Yamamoto), and on every valid series tried the
    glex-first exponent peeled, so no other exponent is tried: if it does
    not peel, the series is refused, naming the exponent, the input
    branches of its coordinates and how many are left.  The caller
    checks the result against the series.
    """
    if p.nvars == 1:
        b = branch_from_univariate(p, "curve")
        return [b], [[b.top_value]]
    facs = p.factors()
    if p.nvars == 2 and not facs:
        sm = BranchData.from_generators((1,), 0)
        return [sm, sm], [[1, 1], [1, 1]]
    if not facs:
        raise DecodeError(
            f"series does not decompose into plane curve branches: no "
            f"exponent peels with {p.nvars} branches left")
    cand = max(facs, key=glex_key)
    inputs = inputs or tuple(range(1, p.nvars + 1))
    try:
        i0, bd = _peel_at(p, cand)
        if bd.top_value > cand[i0 - 1]:
            raise DecodeError(
                f"peeled branch {bd.generators} has self-value "
                f"{bd.top_value} above its exponent {cand[i0 - 1]}")
        p_rest = projection_formula_curve(p, cand, i0)
    except (DecodeError, SeriesError) as exc:
        raise DecodeError(
            f"series does not decompose into plane curve branches: exponent "
            f"{cand} on input branches {inputs} does not peel with "
            f"{p.nvars} branches left: {exc}"
        ) from exc
    # the peeled branch's row and column are the exponent, but its own
    # coordinate counts shared extension steps on top of the solo
    # self-value; the diagonal stores the latter
    col = list(cand)
    col[i0 - 1] = bd.top_value
    branches, sub_c = _solve_curve(p_rest,
                                   inputs=inputs[:i0 - 1] + inputs[i0:])
    branches.insert(i0 - 1, bd)
    cm = [row[:i0 - 1] + [v] + row[i0 - 1:]
          for row, v in zip(sub_c, col[:i0 - 1] + col[i0:])]
    cm.insert(i0 - 1, col)
    return branches, cm


@lru_cache(maxsize=_DECODED_GRAPHS)
def reconstruct_curve(p: FactoredSeries) -> DualGraph:
    """Minimal resolution of a plane curve from its Poincare series.

    Peels each branch once, at the glex-first exponent, and assembles the
    one decomposition once; the graph is returned only if its series
    reproduces the input exactly.  Results are cached per p; a refusal is
    not, and raises again.
    """
    if p.nvars < 1:
        raise DecodeError("need at least one variable")
    branches, cm = _solve_curve(p)
    try:
        return assemble(branches, cm, "curve", expect=p)
    except (ContactError, VerificationError) as exc:
        raise VerificationError(
            f"the branch decomposition does not assemble back to the "
            f"series: {exc}") from exc

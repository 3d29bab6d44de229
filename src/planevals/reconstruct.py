"""Recovering minimal resolutions from Poincare series.

The univariate series of one valuation decodes to numerical branch data
(semigroup generators, dead-end values, free tail).  A Euclidean state
machine rebuilds the blowup sequence from that data.  Pairwise contacts
come from the shape of the two-variable series, cross-validated by
reassembling the pair and recomputing its series.  A Noether walk merges
per-branch infinitely-near-point chains into the final graph.  Every
synthesis step re-verifies the forward series, so wrong guesses surface
as errors instead of wrong graphs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from typing import List, Optional, Sequence, Tuple

from .dualgraph import (MAX_VERTICES, DualGraph, GraphError,
                        multiplicity_matrix)
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
    semigroup; dead_values are the dead-end contact values
    m_tau_i = (e_{i-1}/e_i) m_i; gcds holds e_i = gcd(m_0..m_i); c counts
    free blowups past the last rupture (always 0 for curve branches);
    top_value is the self-contact m_{g+1} = m_tau_g + c, with the
    conventions e_{-1} = m_0 and m_tau_0 = m_0 when g = 0.
    """

    generators: Tuple[int, ...]
    dead_values: Tuple[int, ...]
    gcds: Tuple[int, ...]
    c: int
    g: int
    top_value: int

    @classmethod
    def from_generators(cls, generators, c: int = 0) -> "BranchData":
        gens = tuple(int(m) for m in generators)
        c = int(c)
        if not gens or c < 0:
            raise DecodeError("need at least one generator and c >= 0")
        if any(m < 1 for m in gens) or any(
                a >= b for a, b in zip(gens, gens[1:])):
            raise DecodeError(f"generators must strictly increase: {gens}")
        e = [gens[0]]
        for m in gens[1:]:
            e.append(gcd(e[-1], m))
        g = len(gens) - 1
        if e[-1] != 1:
            raise DecodeError(f"generators {gens} have gcd {e[-1]} != 1")
        for i in range(1, g + 1):
            if e[i] >= e[i - 1]:
                raise DecodeError(
                    f"generator {gens[i]} is redundant (gcd does not drop)")
        dead = tuple((e[i - 1] // e[i]) * gens[i] for i in range(1, g + 1))
        for i in range(1, g):
            if not dead[i - 1] < gens[i + 1]:
                raise DecodeError(
                    f"dead value {dead[i - 1]} not below next generator "
                    f"{gens[i + 1]}; not a plane valuation semigroup")
        top = (dead[-1] if g >= 1 else gens[0]) + c
        return cls(gens, dead, tuple(e), c, g, top)

    def univariate_series(self, mode: str) -> FactoredSeries:
        """Factored series of this single valuation (the forward map)."""
        if mode == "curve":
            if self.c != 0:
                raise DecodeError("curve branches have no free tail")
            items = [((m,), -1) for m in self.generators]
            items += [((m,), 1) for m in self.dead_values]
            return FactoredSeries(1, items)
        if mode != "divisorial":
            raise DecodeError(f"unknown mode {mode!r}")
        if self.g == 0 and self.c == 0:
            return FactoredSeries(1, {(1,): -2})
        if self.c == 0:
            items = [((m,), -1) for m in self.generators]
            items += [((m,), 1) for m in self.dead_values[:-1]]
        else:
            items = [((m,), -1) for m in self.generators]
            items.append(((self.top_value,), -1))
            items += [((m,), 1) for m in self.dead_values]
        return FactoredSeries(1, items)


def branch_from_univariate(p: FactoredSeries, mode: str) -> BranchData:
    """Decode a one-variable factored series into BranchData.

    Curve shape: g+1 denominators (the generators) against g numerators
    (the dead values).  Divisorial shape: l+1 denominators against l-1
    numerators; gcd of all denominators but the last decides whether the
    marked vertex is the last rupture (gcd > 1, no free tail) or lies
    past it (gcd = 1, tail length recovered from the top exponent).  The
    double pole (1-t)^(-2) is the single-vertex modification.
    """
    if p.nvars != 1:
        raise DecodeError("univariate series expected")
    facs = p.factors()
    if facs == {(1,): -2}:
        if mode == "curve":
            raise DecodeError("a curve branch never has a double pole at t")
        return BranchData.from_generators((1,), 0)
    if any(abs(k) != 1 for k in facs.values()):
        raise DecodeError("all multiplicities must be +-1")
    denoms = sorted(m for (m,), k in facs.items() if k == -1)
    numers = sorted(m for (m,), k in facs.items() if k == 1)
    if mode == "curve":
        if len(denoms) != len(numers) + 1:
            raise DecodeError(
                f"curve shape needs g+1 poles vs g zeros, got "
                f"{len(denoms)} vs {len(numers)}")
        b = BranchData.from_generators(denoms, 0)
        if list(b.dead_values) != numers:
            raise DecodeError(
                f"zeros {numers} disagree with dead values {b.dead_values}")
        return b
    if mode != "divisorial":
        raise DecodeError(f"unknown mode {mode!r}")
    if len(denoms) != len(numers) + 2:
        raise DecodeError(
            f"divisorial shape needs l+1 poles vs l-1 zeros, got "
            f"{len(denoms)} vs {len(numers)}")
    e = 0
    for m in denoms[:-1]:
        e = gcd(e, m)
    if e > 1:
        b = BranchData.from_generators(denoms, 0)
        if list(b.dead_values[:-1]) != numers:
            raise DecodeError(
                f"zeros {numers} disagree with dead values {b.dead_values}")
        return b
    gens = denoms[:-1]
    base = BranchData.from_generators(gens, 0)
    c = denoms[-1] - base.top_value
    if c < 1:
        raise DecodeError(
            f"top exponent {denoms[-1]} not past the last dead value "
            f"{base.top_value}")
    b = BranchData.from_generators(gens, c)
    if list(b.dead_values) != numers:
        raise DecodeError(
            f"zeros {numers} disagree with dead values {b.dead_values}")
    return b


# -- rebuilding one chain: the Euclidean state machine ---------------------


def _branch_profile(b: BranchData, mode: str):
    """Blowup chain of the solo minimal resolution of one valuation.

    Returns (kinds, mu): kinds[d-1] describes the center blown to create
    depth d as ("origin",), ("free", parent_depth) or
    ("satellite", other_depth, prev_depth); mu[d-1] is the multiplicity
    of a curvette of the valuation (or of the branch) at that center.

    The machine runs Euclid on the characteristic pairs: the state holds
    the vanishing orders of the two local coordinate axes together with
    the divisor each axis belongs to; subtract the smaller order, give
    the freed slot to the newly created divisor.  Order equality is the
    rupture of the current pair.  A pair (a, w) takes as many steps as
    the quotients of Euclid's algorithm on it add up to, so the length of
    the chain is known first, and a chain longer than MAX_VERTICES raises
    DecodeError before it is built.
    """
    gens, e, g, c = b.generators, b.gcds, b.g, b.c
    beta = list(gens[:2])
    for i in range(1, g):
        beta.append(gens[i + 1] - (e[i - 1] // e[i]) * gens[i] + beta[i])
    runs = []
    if g >= 1:
        runs.append((beta[0], beta[1]))
        runs += [(e[i], beta[i + 1] - beta[i]) for i in range(1, g)]

    length = (1 if g == 0 else 0) + (c if mode == "divisorial" else 0)
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
    for idx, (a_val, b_val) in enumerate(runs):
        a, la = a_val, (None if idx == 0 else rupture)
        w, lw = b_val, None
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
    if g == 0:
        depth += 1
        kinds.append(("origin",))
        mu.append(1)
        rupture = depth
    for _ in range(c if mode == "divisorial" else 0):
        depth += 1
        kinds.append(("free", depth - 1))
        mu.append(1)
    if mode == "curve" and mu[-1] != 1:
        raise DecodeError("branch data does not resolve to a smooth end")
    return kinds, mu


def graph_from_branch(b: BranchData, mode: str) -> DualGraph:
    """Solo minimal resolution of one valuation, self-verified.

    The forward series of the result is recomputed and compared with
    b.univariate_series(mode); any disagreement raises.
    """
    kinds, _ = _branch_profile(b, mode)
    parents = []
    for kind in kinds:
        if kind[0] == "origin":
            parents.append(())
        elif kind[0] == "free":
            parents.append((kind[1],))
        else:
            parents.append((kind[1], kind[2]))
    n = len(parents)
    if mode == "divisorial":
        graph = DualGraph(tuple(parents), (n,), ())
    else:
        graph = DualGraph(tuple(parents), (), ((n, 1),))
    got = poincare_series(graph, default_spec(graph))
    if got != b.univariate_series(mode):
        raise VerificationError(
            f"rebuilt graph for {b} reproduces {got.factors()} instead of "
            f"its own series")
    return graph


# -- merging chains: the Noether walk --------------------------------------


def _kind_at(kinds, d: int):
    if d <= len(kinds):
        return kinds[d - 1]
    return ("free", d - 1)


def _mu_at(mu, d: int) -> int:
    return mu[d - 1] if d <= len(mu) else 1


def _shared_depth(mu_i, mu_j, contact: int, cap: Optional[int]) -> int:
    """Number of common infinitely-near points realizing the contact.

    Past both profiles every shared point has multiplicity 1 on both
    chains and adds exactly 1, so the depth is known without walking
    there; one above MAX_VERTICES raises DecodeError.
    """
    acc = 0
    d = 0
    end = max(len(mu_i), len(mu_j))
    while acc < contact and d < end:
        d += 1
        acc += _mu_at(mu_i, d) * _mu_at(mu_j, d)
    if acc < contact:
        d += contact - acc
        acc = contact
    if cap is not None and d > cap:
        raise ContactError(
            f"contact {contact} exceeds what the two chains can share")
    if acc != contact:
        raise ContactError(
            f"contact {contact} is not a partial sum of multiplicity "
            f"products (reached {acc} at depth {d})")
    if d > MAX_VERTICES:
        raise DecodeError(
            f"contact {contact} needs {d} shared points, above the limit "
            f"{MAX_VERTICES}")
    return d


def assemble(branches: Sequence[BranchData], contacts, mode: str,
             expect: Optional[FactoredSeries] = None) -> DualGraph:
    """Merge solo chains into one minimal resolution.

    contacts[i][j] is the pairwise intersection value m_{alpha_i alpha_j}
    (diagonal: the valuation's own top value).  The walk locates, for each
    pair, how many infinitely-near points the two chains share, checks
    that the sharing pattern is an ultrametric hierarchy with consistent
    point kinds, and replays the union.  With ``expect`` given, the
    forward series of the result is compared against it.
    """
    branches = list(branches)
    r = len(branches)
    if r == 0:
        raise ContactError("no valuations to assemble")
    if mode not in ("divisorial", "curve"):
        raise ContactError(f"unknown mode {mode!r}")
    cm = [[int(contacts[i][j]) for j in range(r)] for i in range(r)]
    for i in range(r):
        if cm[i][i] != branches[i].top_value:
            raise ContactError(
                f"diagonal contact {cm[i][i]} differs from top value "
                f"{branches[i].top_value} of valuation {i + 1}")
        for j in range(r):
            if cm[i][j] != cm[j][i] or (i != j and cm[i][j] < 1):
                raise ContactError("contact matrix must be symmetric "
                                   "with positive entries")

    profiles = [_branch_profile(b, mode) for b in branches]
    lengths = [len(mu) for _, mu in profiles]

    s = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            cap = (min(lengths[i], lengths[j])
                   if mode == "divisorial" else None)
            s[i][j] = s[j][i] = _shared_depth(
                profiles[i][1], profiles[j][1], cm[i][j], cap)
            if (mode == "divisorial" and s[i][j] == lengths[i]
                    and s[i][j] == lengths[j]):
                raise ContactError(
                    f"valuations {i + 1} and {j + 1} share their whole "
                    "chains; they are not distinct")
    for i, j, k in itertools.permutations(range(r), 3):
        if s[i][k] < min(s[i][j], s[j][k]):
            raise ContactError("shared depths violate the tree hierarchy")

    if mode == "curve":
        total = [max(lengths[i], max((s[i][j] for j in range(r) if j != i),
                                     default=0)) for i in range(r)]
    else:
        total = lengths

    for i in range(r):
        for j in range(i + 1, r):
            for d in range(1, s[i][j] + 1):
                ki = _kind_at(profiles[i][0], d)
                kj = _kind_at(profiles[j][0], d)
                if ki != kj:
                    raise ContactError(
                        f"chains {i + 1} and {j + 1} disagree at shared "
                        f"depth {d}: {ki} vs {kj}")

    def rep(i: int, d: int) -> int:
        # smallest branch index sharing depth d with branch i
        out = i
        for j in range(i):
            if s[j][i] >= d:
                out = j
                break
        return out

    vmap = {}
    parents: List[tuple] = []
    sat_seen = {}
    for d in range(1, max(total, default=0) + 1):
        for i in range(r):
            if d > total[i] or rep(i, d) != i:
                continue
            kind = _kind_at(profiles[i][0], d)
            if kind[0] == "origin":
                if d != 1:
                    raise ContactError("origin point not at depth 1")
                ps = ()
            elif kind[0] == "free":
                ps = (vmap[(rep(i, d - 1), d - 1)],)
            else:
                other = vmap[(rep(i, kind[1]), kind[1])]
                prev = vmap[(rep(i, kind[2]), kind[2])]
                ps = tuple(sorted((other, prev)))
                if ps in sat_seen:
                    raise ContactError(
                        f"two distinct points claim the satellite position "
                        f"on components {ps}")
                sat_seen[ps] = True
            parents.append(ps)
            vmap[(i, d)] = len(parents)
        for i in range(r):
            if d <= total[i] and rep(i, d) != i:
                vmap[(i, d)] = vmap[(rep(i, d), d)]

    try:
        if mode == "divisorial":
            marks = tuple(vmap[(i, lengths[i])] for i in range(r))
            graph = DualGraph(tuple(parents), marks, ())
            refs = marks
        else:
            arrows = tuple((vmap[(i, total[i])], i + 1) for i in range(r))
            graph = DualGraph(tuple(parents), (), arrows)
            refs = tuple(v for v, _ in sorted(arrows, key=lambda a: a[1]))
        mm = multiplicity_matrix(graph, refs)
    except GraphError as exc:
        raise ContactError(f"merged chains are not a blowup sequence: "
                           f"{exc}") from exc
    for i in range(r):
        for j in range(r):
            if i != j and mm[i][refs[j] - 1] != cm[i][j]:
                raise ContactError(
                    f"merged graph realizes contact "
                    f"{mm[i][refs[j] - 1]} between valuations "
                    f"{i + 1} and {j + 1}, not {cm[i][j]}")

    if expect is not None:
        try:
            got = poincare_series(graph, default_spec(graph))
        except GraphError as exc:
            raise VerificationError(
                f"assembled graph is not a minimal resolution: {exc}"
            ) from exc
        if got != expect:
            raise VerificationError(
                f"assembled graph reproduces {got.factors()}, expected "
                f"{expect.factors()}")
    return graph


# -- pairwise contacts from two-variable series (divisorial) ---------------


def _maximal_exponents(exps) -> List[tuple]:
    """Componentwise-maximal elements, glex-descending."""
    out = []
    for m in exps:
        if not any(all(o[i] >= m[i] for i in range(len(m))) and o != m
                   for o in exps):
            out.append(m)
    return sorted(set(out), key=glex_key, reverse=True)


def _last_gen(b: BranchData) -> int:
    return b.generators[-1]


def _e_top(b: BranchData) -> int:
    # e_{g-1} with the convention e_{-1} = m_0
    return b.gcds[b.g - 1] if b.g >= 1 else b.generators[0]


def _contact_candidates(p2: FactoredSeries, b1: BranchData,
                        b2: BranchData) -> List[int]:
    """Candidate contacts from the maximal pole exponents of the pair.

    The maximal exponent vector belongs either to one of the marked
    vertices itself (first coordinate equal to the top value, tail
    present) or to the deepest dead end of one of the chains; in the
    latter case the geodesics separate at or after the last rupture and
    the other coordinate picks up the gcd factor of the deeper chain.
    Every candidate is validated by reassembly in pairwise_contact.
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
    seen = set()
    out = []
    for v in cands:
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def pairwise_contact(p2: FactoredSeries, b1: BranchData,
                     b2: BranchData) -> int:
    """Intersection value of curvettes of two marked divisors.

    Tries each structural candidate and keeps the one whose reassembled
    pair reproduces the given two-variable series; at most one can, since
    the series determines the pair's minimal resolution.
    """
    if p2.nvars != 2:
        raise DecodeError("pairwise contact needs a two-variable series")
    last: Optional[Exception] = None
    for cand in _contact_candidates(p2, b1, b2):
        cm = [[b1.top_value, cand], [cand, b2.top_value]]
        try:
            assemble([b1, b2], cm, "divisorial", expect=p2)
            return cand
        except (ContactError, VerificationError, GraphError,
                DecodeError) as exc:
            last = exc
    raise DecodeError(
        f"no structural case yields a contact consistent with the series"
        f"{'' if last is None else f' (last failure: {last})'}")


def reconstruct_divisorial(p: FactoredSeries) -> DualGraph:
    """Minimal resolution of a set of divisorial valuations from its series.

    Each valuation decodes from its one-variable projection, contacts
    come from pairwise projections, and the assembled graph must
    reproduce the whole input series.
    """
    r = p.nvars
    if r < 1:
        raise DecodeError("need at least one variable")
    branches = []
    for i in range(1, r + 1):
        pi = project(p, {i}) if r > 1 else p
        b = branch_from_univariate(pi, "divisorial")
        if b.univariate_series("divisorial") != pi:
            raise DecodeError(
                f"projection to variable {i} is not a valid divisorial "
                "series")
        branches.append(b)
    cm = [[b.top_value if i == j else 0 for j in range(r)]
          for i, b in enumerate(branches)]
    for i in range(r):
        for j in range(i + 1, r):
            pij = project(p, {i + 1, j + 1}) if r > 2 else p
            cm[i][j] = cm[j][i] = pairwise_contact(
                pij, branches[i], branches[j])
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
    vals = sorted(set(int(v) for v in values))
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


def _solve_curve(p: FactoredSeries):
    """Yield (branches, contacts) decompositions of a curve series."""
    r = p.nvars
    if r == 1:
        b = branch_from_univariate(p, "curve")
        if b.univariate_series("curve") == p:
            yield [b], [[b.top_value]]
        return
    if not p.factors():
        if r == 2:
            sm = BranchData.from_generators((1,), 0)
            yield [sm, sm], [[1, 1], [1, 1]]
        return
    for cand in _maximal_exponents(list(p.factors())):
        try:
            i0, bd = _peel_at(p, cand)
            if bd.top_value > cand[i0 - 1]:
                continue
            p_rest = projection_formula_curve(p, cand, i0)
        except (DecodeError, SeriesError):
            continue
        others = [j for j in range(1, r + 1) if j != i0]
        for sub_b, sub_c in _solve_curve(p_rest):
            branches = list(sub_b)
            branches.insert(i0 - 1, bd)
            cm = [[0] * r for _ in range(r)]
            for a, ja in enumerate(others):
                for bcol, jb in enumerate(others):
                    cm[ja - 1][jb - 1] = sub_c[a][bcol]
            for j in range(1, r + 1):
                cm[i0 - 1][j - 1] = cand[j - 1]
                cm[j - 1][i0 - 1] = cand[j - 1]
            # the exponent's own coordinate counts shared extension steps
            # on top of the solo self-value; the diagonal stores the latter
            cm[i0 - 1][i0 - 1] = bd.top_value
            yield branches, cm


def reconstruct_curve(p: FactoredSeries) -> DualGraph:
    """Minimal resolution of a plane curve from its Poincare series.

    Peels one branch at a time from a maximal exponent, recurses on the
    projection, and accepts the first decomposition whose assembled
    graph reproduces the input series exactly.
    """
    if p.nvars < 1:
        raise DecodeError("need at least one variable")
    last: Optional[Exception] = None
    for branches, cm in _solve_curve(p):
        try:
            return assemble(branches, cm, "curve", expect=p)
        except (ContactError, VerificationError, GraphError) as exc:
            last = exc
    if last is not None:
        raise VerificationError(
            f"no branch decomposition assembles back to the series "
            f"(last failure: {last})")
    raise DecodeError("series does not decompose into plane curve branches")

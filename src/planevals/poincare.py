"""Poincare series of multi-index filtrations from a decorated dual graph.

Given a modification and an ordered collection of valuations (divisorial
ones named by marked vertices, branch ones by arrows), the series is the
product over vertices of (1 - t^m_sigma)^(-chi), where m_sigma collects
the multiplicity-matrix entries of sigma against the referenced vertices
and chi is the Euler characteristic of the smooth part of E_sigma.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple, Union

from .dualgraph import (DualGraph, GraphError, _under, euler_smooth,
                        multiplicity_matrix)
from .series import FactoredSeries, SeriesError, project

__all__ = [
    "Divisorial",
    "Branch",
    "ValuationSpec",
    "default_spec",
    "poincare_series",
    "projection_formula_curve",
]


@dataclass(frozen=True)
class Divisorial:
    """Valuation by order of vanishing along the exceptional component."""

    vertex: int


@dataclass(frozen=True)
class Branch:
    """Valuation by intersection order with the branch of this arrow."""

    branch: int


ValuationSpec = Sequence[Union[Divisorial, Branch]]


def default_spec(graph: DualGraph) -> Tuple[Union[Divisorial, Branch], ...]:
    """Branches in arrow order first, then marked divisors in mark order."""
    return (tuple(Branch(b) for _, b in sorted(graph.arrows,
                                               key=lambda vb: vb[1]))
            + tuple(Divisorial(v) for v in graph.marked_divisors))


def _reference_vertices(graph: DualGraph, spec: ValuationSpec
                        ) -> Tuple[int, ...]:
    if not spec:
        raise GraphError("empty valuation collection")
    if len(set(spec)) != len(spec):
        raise GraphError("valuation entries must be distinct")
    cols = []
    branches_seen = set()
    n = graph.n
    for entry in spec:
        if isinstance(entry, Divisorial):
            v = entry.vertex
            if not 1 <= v <= n:
                raise GraphError(f"no vertex {v} for divisorial valuation")
            cols.append(v)
        elif isinstance(entry, Branch):
            cols.append(graph.arrow_vertex(entry.branch))
            branches_seen.add(entry.branch)
        else:
            raise GraphError(f"bad valuation entry {entry!r}")
    if branches_seen != {b for _, b in graph.arrows}:
        raise GraphError("spec must reference every arrow of the graph "
                         "exactly once (sub-collections need their own "
                         "minimal graph)")
    return tuple(cols)


def _check_minimal(graph: DualGraph, spec: ValuationSpec,
                   cols: Tuple[int, ...], chi: Tuple[int, ...]) -> None:
    """Every vertex must lie under a reference, and no maximal vertex but
    a divisorial reference may be contractible: meet at most two
    components, edges plus arrows, i.e. have chi >= 0.  O(n + a)."""
    under = _under(graph.parents, cols)
    if not all(under[1:]):
        raise GraphError(
            f"vertex {under.index(False, 1)} lies under no referenced vertex; "
            "the graph is not the minimal resolution of this collection")
    if graph.n >= 2:
        div_refs = {e.vertex for e in spec if isinstance(e, Divisorial)}
        for v in graph.maximal_vertices():
            if chi[v - 1] >= 0 and v not in div_refs:
                raise GraphError(
                    f"vertex {v} is contractible; the graph is not minimal")


def poincare_series(graph: DualGraph, spec: ValuationSpec) -> FactoredSeries:
    """Factored Poincare series of the collection described by ``spec``.

    The graph must be the minimal resolution of the collection: every
    vertex must lie under a referenced one and no vertex may be
    contractible.  Vertices with chi = 0 contribute no factor; equal
    exponent vectors merge.
    """
    spec = tuple(spec)
    cols = _reference_vertices(graph, spec)
    chi = euler_smooth(graph, "curve" if graph.arrows else "divisorial")
    _check_minimal(graph, spec, cols, chi)
    m = multiplicity_matrix(graph, cols)
    # the rows are certified positive, so every column is a valid exponent
    factors: dict = {}
    for exponent, k in zip(zip(*m), chi):
        if k:
            factors[exponent] = factors.get(exponent, 0) - k
    return FactoredSeries._from_valid(len(cols), factors)


def projection_formula_curve(p: FactoredSeries, m_alpha,
                             i: int) -> FactoredSeries:
    """Remove branch ``i``: divide by (1 - t^m_alpha), then set t_i = 1.

    ``m_alpha`` is the exponent vector of the removed branch's arrow
    vertex.  Dividing decrements the multiplicity at that exact exponent
    (entering -1 if the factor was absent).  Removing the only branch
    leaves the empty collection, whose series is the 0-variable constant 1.
    """
    if not 1 <= i <= p.nvars:
        raise SeriesError(f"no variable index {i}")
    q = p.with_factor(tuple(m_alpha), -1)
    keep = [j for j in range(1, p.nvars + 1) if j != i]
    if not keep:
        return FactoredSeries(0, ())
    return project(q, keep)

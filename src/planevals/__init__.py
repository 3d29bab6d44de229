"""Exact Poincare series of plane valuation filtrations, and back.

Forward direction: a minimal embedded resolution (a dual graph with
marked divisors or branch arrows) determines a multi-index filtration
whose Poincare series has a closed product form.  Backward direction:
for purely divisorial or purely curve filtrations the series determines
the graph, and this package reconstructs it with every step
self-verified.  A definitional oracle recomputes small instances from
blowup charts and jet spaces so the closed formulas are cross-checked
against first principles.
"""

from .dualgraph import (DualGraph, GraphError, blowup, canonical_code,
                        downward_closure, equivalent, graph_from_json,
                        graph_to_json, minimize_curve_resolution,
                        multiplicity_matrix, random_instance)
from .oracle import (OracleError, Parametrization, branch_parametrization,
                     curvette_parametrization, definitional_poincare,
                     ideal_dim, multiplicity_sequence, noether_contact,
                     semigroup_series, valuation)
from .poincare import (Branch, Divisorial, default_spec, poincare_series,
                       projection_formula_curve)
from .reconstruct import (BranchData, ContactError, DecodeError,
                          VerificationError, assemble,
                          branch_from_univariate, graph_from_branch,
                          pairwise_contact, reconstruct_curve,
                          reconstruct_divisorial)
from .series import (FactoredSeries, SeriesError, TruncatedSeries,
                     divide_torus, expand, factorize, project,
                     series_from_text, series_to_text)

__version__ = "1.0.0"

__all__ = [
    "DualGraph", "GraphError", "blowup", "canonical_code",
    "downward_closure", "equivalent", "graph_from_json", "graph_to_json",
    "minimize_curve_resolution", "multiplicity_matrix", "random_instance",
    "OracleError", "Parametrization", "branch_parametrization",
    "curvette_parametrization", "definitional_poincare", "ideal_dim",
    "multiplicity_sequence", "noether_contact", "semigroup_series",
    "valuation",
    "Branch", "Divisorial", "default_spec", "poincare_series",
    "projection_formula_curve",
    "BranchData", "ContactError", "DecodeError", "VerificationError",
    "assemble", "branch_from_univariate", "graph_from_branch",
    "pairwise_contact", "reconstruct_curve", "reconstruct_divisorial",
    "FactoredSeries", "SeriesError", "TruncatedSeries", "divide_torus",
    "expand", "factorize", "project",
    "series_from_text", "series_to_text",
    "__version__",
]

"""Exact representation, counting and enumeration of all transversals
(hitting sets) of a hypergraph via disjoint {0,1,2,e}-valued rows."""

from .analytics import (Infeasible, Spectrum, Tally, count_at_least,
                        count_exactly, count_total, filter_family, spectrum,
                        transversal_number, transversals_of_size)
from .engine import (RowFamily, RunStats, final_parts, impose, is_feasible,
                     run)
from .hypergraph import (Hypergraph, HypergraphError, load_hypergraph,
                         parse_hypergraph, parse_vertex_list, render_hypergraph)
from .oracles import (all_rows, bell_numbers, brute_transversals,
                      inclusion_exclusion_count, row_census, row_census_brute,
                      subset_reduced, superset_reduced)
from .rows import Row, bubble_segment_counts, row_from_tokens, vertex_mask

__version__ = "0.1.0"

__all__ = [
    "Hypergraph", "HypergraphError", "parse_hypergraph", "parse_vertex_list",
    "render_hypergraph", "load_hypergraph", "subset_reduced", "superset_reduced",
    "Row", "row_from_tokens", "bubble_segment_counts", "vertex_mask",
    "RunStats", "RowFamily", "impose", "is_feasible", "final_parts", "run",
    "Infeasible", "Spectrum", "Tally", "count_total", "spectrum",
    "count_at_least", "count_exactly", "transversal_number",
    "transversals_of_size", "filter_family",
    "brute_transversals", "inclusion_exclusion_count", "bell_numbers",
    "row_census", "row_census_brute", "all_rows",
    "__version__",
]

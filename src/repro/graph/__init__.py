"""Graph substrate: CSR storage, degree-array states, generators and I/O."""

from .csr import CSRGraph
from .degree_array import (
    REMOVED,
    VCState,
    Workspace,
    fresh_state,
    max_degree_vertex,
    recompute_edge_count,
    remove_neighbors_into_cover,
    remove_vertex_into_cover,
    remove_vertices_into_cover,
)

__all__ = [
    "CSRGraph",
    "REMOVED",
    "VCState",
    "Workspace",
    "fresh_state",
    "max_degree_vertex",
    "recompute_edge_count",
    "remove_neighbors_into_cover",
    "remove_vertex_into_cover",
    "remove_vertices_into_cover",
]

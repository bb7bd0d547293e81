"""Classic graph algorithms used for preprocessing and analysis.

Connected components matter to vertex cover directly: the optimum of a
disconnected graph is the sum of its components' optima, and searching
components separately multiplies the bound-tightening power of ``best``
(the search tree of a union is the *product* of the component trees, the
sum of trees after splitting).  :func:`repro.core.decompose` builds on
this.  The k-core decomposition supports instance analysis: vertices
outside the 2-core are handled entirely by the degree-one rule.
"""

from __future__ import annotations

from collections import deque
from typing import List, Tuple

import numpy as np

from .csr import CSRGraph

__all__ = [
    "connected_components",
    "component_subgraphs",
    "core_numbers",
    "k_core_vertices",
    "bfs_distances",
    "is_connected",
]


def connected_components(graph: CSRGraph) -> np.ndarray:
    """Component label per vertex (labels are 0..c-1 in discovery order).

    BFS over plain-Python lists: no NumPy scalar is boxed per neighbour.
    """
    ptr = graph.indptr.tolist()
    adj = graph.indices.tolist()
    labels = [-1] * graph.n
    current = 0
    for start in range(graph.n):
        if labels[start] != -1:
            continue
        labels[start] = current
        queue = [start]
        for u in queue:  # the queue grows while it is walked
            for v in adj[ptr[u]:ptr[u + 1]]:
                if labels[v] == -1:
                    labels[v] = current
                    queue.append(v)
        current += 1
    return np.array(labels, dtype=np.int64)


def component_subgraphs(graph: CSRGraph) -> List[Tuple[CSRGraph, np.ndarray]]:
    """Each component as ``(subgraph, original_vertex_ids)``.

    ``original_vertex_ids[i]`` is the input-graph id of the subgraph's
    vertex ``i``, so covers can be mapped back.
    """
    labels = connected_components(graph)
    out: List[Tuple[CSRGraph, np.ndarray]] = []
    for comp in range(int(labels.max(initial=-1)) + 1):
        verts = np.flatnonzero(labels == comp)
        out.append((graph.subgraph(verts), verts.astype(np.int64)))
    return out


def is_connected(graph: CSRGraph) -> bool:
    """True for the empty graph and any single-component graph."""
    if graph.n == 0:
        return True
    return bool((connected_components(graph) == 0).all())


def core_numbers(graph: CSRGraph) -> np.ndarray:
    """The k-core number of every vertex (peeling algorithm, O(E))."""
    deg = graph.degrees.astype(np.int64).copy()
    core = np.zeros(graph.n, dtype=np.int64)
    # bucket queue over degrees
    order = np.argsort(deg, kind="stable")
    pos = np.empty(graph.n, dtype=np.int64)
    pos[order] = np.arange(graph.n)
    bin_start = np.zeros((int(deg.max(initial=0)) + 2), dtype=np.int64)
    for d in deg:
        bin_start[d + 1] += 1
    bin_start = np.cumsum(bin_start)
    bins = bin_start[:-1].copy()

    removed = np.zeros(graph.n, dtype=bool)
    for i in range(graph.n):
        v = int(order[i])
        core[v] = deg[v]
        removed[v] = True
        for u in graph.neighbors(v):
            u = int(u)
            if removed[u] or deg[u] <= deg[v]:
                continue
            # move u one bucket down (swap with the first member of its bin)
            du = deg[u]
            pu = pos[u]
            pw = bins[du]
            w = int(order[pw])
            if u != w:
                order[pu], order[pw] = order[pw], order[pu]
                pos[u], pos[w] = pw, pu
            bins[du] += 1
            deg[u] -= 1
    return core


def k_core_vertices(graph: CSRGraph, k: int) -> np.ndarray:
    """Vertices of the (maximal) k-core."""
    return np.flatnonzero(core_numbers(graph) >= k)


def bfs_distances(graph: CSRGraph, source: int) -> np.ndarray:
    """Hop distances from ``source`` (-1 for unreachable vertices)."""
    if not 0 <= source < graph.n:
        raise ValueError("source out of range")
    dist = -np.ones(graph.n, dtype=np.int64)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            v = int(v)
            if dist[v] == -1:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist

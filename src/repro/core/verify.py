"""Verification utilities: every engine's output is checked, never trusted."""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.degree_array import REMOVED, VCState, recompute_edge_count

__all__ = [
    "is_vertex_cover",
    "uncovered_edges",
    "is_independent_set",
    "assert_valid_cover",
    "cover_complement_is_independent",
    "check_state_consistency",
    "minimal_cover_certificate",
]


def is_vertex_cover(graph: CSRGraph, cover: Iterable[int]) -> bool:
    """True iff every edge has at least one endpoint in ``cover``."""
    mask = np.zeros(graph.n, dtype=bool)
    idx = np.fromiter((int(v) for v in cover), dtype=np.int64)
    if idx.size:
        if idx.min() < 0 or idx.max() >= graph.n:
            raise ValueError("cover vertex out of range")
        mask[idx] = True
    src = np.repeat(np.arange(graph.n), graph.degrees)
    return bool(np.all(mask[src] | mask[graph.indices]))


def uncovered_edges(graph: CSRGraph, cover: Iterable[int]) -> list[tuple[int, int]]:
    """All edges missed by ``cover`` (diagnostic helper)."""
    mask = np.zeros(graph.n, dtype=bool)
    mask[np.fromiter((int(v) for v in cover), dtype=np.int64)] = True
    edges = graph.edge_array()
    missed = edges[~(mask[edges[:, 0]] | mask[edges[:, 1]])]
    return list(zip(*missed.T.tolist()))


def is_independent_set(graph: CSRGraph, vertices: Iterable[int]) -> bool:
    """True iff no two of ``vertices`` are adjacent."""
    verts = sorted(int(v) for v in vertices)
    vert_set = set(verts)
    for u in verts:
        for w in graph.neighbors(u):
            if int(w) in vert_set:
                return False
    return True


def cover_complement_is_independent(graph: CSRGraph, cover: Iterable[int]) -> bool:
    """König duality sanity check: V \\ cover must be an independent set."""
    cover_set = {int(v) for v in cover}
    rest = [v for v in range(graph.n) if v not in cover_set]
    return is_independent_set(graph, rest)


def assert_valid_cover(graph: CSRGraph, cover: Optional[Sequence[int]], expected_size: Optional[int] = None) -> None:
    """Raise ``AssertionError`` unless ``cover`` is a valid cover of the size claimed."""
    if cover is None:
        raise AssertionError("no cover produced")
    if expected_size is not None and len(cover) != expected_size:
        raise AssertionError(f"cover has {len(cover)} vertices, claimed {expected_size}")
    missing = uncovered_edges(graph, cover)
    if missing:
        raise AssertionError(f"{len(missing)} uncovered edges, first: {missing[0]}")


def check_state_consistency(graph: CSRGraph, state: VCState) -> None:
    """Full invariant audit of a degree-array state against the CSR graph.

    Checks (1) the incremental counters, (2) that every alive degree equals
    the true number of alive neighbours, (3) that removing the cover really
    leaves the recorded number of edges.
    """
    state.validate(graph)
    deg = state.deg
    for v in range(graph.n):
        if deg[v] == REMOVED:
            continue
        nbrs = graph.neighbors(v)
        alive = int(np.count_nonzero(deg[nbrs] >= 0)) if nbrs.size else 0
        if alive != int(deg[v]):
            raise AssertionError(
                f"vertex {v}: stored degree {int(deg[v])} != alive neighbours {alive}"
            )
    if recompute_edge_count(graph, deg) != state.edge_count:
        raise AssertionError("edge_count drifted from the degree array")


def minimal_cover_certificate(graph: CSRGraph, cover: Iterable[int]) -> list[int]:
    """Redundant cover members (removable without uncovering any edge).

    An exact solver can still legitimately return a non-minimal cover on a
    *pruned* branch, but the final optimum should have no removable member;
    tests use this as a strong quality signal.
    """
    cover_set = {int(v) for v in cover}
    removable = []
    for v in sorted(cover_set):
        nbrs = graph.neighbors(v)
        # v is removable iff all its neighbours are in the cover
        if all(int(u) in cover_set for u in nbrs):
            removable.append(v)
    return removable

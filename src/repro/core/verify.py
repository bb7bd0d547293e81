"""Verification utilities: every engine's output is checked, never trusted."""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.degree_array import REMOVED, VCState, recompute_edge_count

__all__ = [
    "CertificateError",
    "is_vertex_cover",
    "cover_defect",
    "uncovered_edges",
    "is_independent_set",
    "assert_valid_cover",
    "cover_complement_is_independent",
    "check_state_consistency",
    "minimal_cover_certificate",
]


class CertificateError(AssertionError):
    """A cover offered as an answer does not certify it."""


def _index(cover: Iterable[int]) -> np.ndarray:
    return cover if isinstance(cover, np.ndarray) else np.fromiter(cover, dtype=np.int64)


def _uncovered(graph: CSRGraph, member: np.ndarray) -> np.ndarray:
    """Per CSR entry: neither end is a ``member`` (the one edge-cover test)."""
    return ~(member[graph.row_ids()] | member[graph.indices])


def is_vertex_cover(graph: CSRGraph, cover: Iterable[int]) -> bool:
    """True iff every edge has at least one endpoint in ``cover``."""
    idx = _index(cover)
    if idx.size and (idx.min() < 0 or idx.max() >= graph.n):
        raise ValueError("cover vertex out of range")
    member = np.zeros(graph.n, dtype=bool)
    member[idx] = True
    return not _uncovered(graph, member).any()


def cover_defect(graph: CSRGraph, cover: Iterable[int], *,
                 size: Optional[int] = None, k: Optional[int] = None) -> Optional[str]:
    """Why ``cover`` does not certify its answer, or ``None`` if it does.

    A certificate has exactly ``size`` vertices (when given), at most
    ``k`` (a PVC witness), all distinct and in ``[0, n)``, and covers
    every edge.  Vectorized: a few array passes, no Python loop.
    """
    idx = _index(cover)
    if size is not None and idx.size != size:
        return f"cover has {idx.size} vertices, claimed {size}"
    if k is not None and idx.size > k:
        return f"cover of size {idx.size} exceeds k={k}"
    if idx.size and (int(idx.min()) < 0 or int(idx.max()) >= graph.n):
        return "cover vertex out of range"
    member = np.zeros(graph.n, dtype=bool)
    member[idx] = True
    if int(np.count_nonzero(member)) != idx.size:
        return "repeated cover vertices"
    missed = _uncovered(graph, member)
    if missed.any():
        i = int(np.argmax(missed))
        return (f"cover leaves {int(np.count_nonzero(missed)) // 2} edges uncovered, "
                f"first: ({int(graph.row_ids()[i])}, {int(graph.indices[i])})")
    return None


def uncovered_edges(graph: CSRGraph, cover: Iterable[int]) -> list[tuple[int, int]]:
    """All edges missed by ``cover`` (diagnostic helper)."""
    mask = np.zeros(graph.n, dtype=bool)
    mask[_index(cover)] = True
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


def assert_valid_cover(graph: CSRGraph, cover: Optional[Sequence[int]],
                       expected_size: Optional[int] = None,
                       k: Optional[int] = None) -> None:
    """Raise :class:`CertificateError` unless ``cover`` certifies the
    answer claimed (see :func:`cover_defect`)."""
    if cover is None:
        raise CertificateError("no cover produced")
    defect = cover_defect(graph, cover, size=expected_size, k=k)
    if defect is not None:
        raise CertificateError(defect)


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

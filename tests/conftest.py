"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.generators.random_graphs import gnp
from repro.graph.generators.structured import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    petersen,
    star_graph,
)


@pytest.fixture
def without_native():
    """Run as on a host whose compiled kernel extension did not load:
    ``auto`` falls back to the ``scalar`` kernels.  A private patcher,
    so a test's own ``monkeypatch.undo()`` keeps it."""
    from repro.core import native

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "_module", None)
        yield


@pytest.fixture
def triangle() -> CSRGraph:
    return CSRGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def small_graphs() -> list[tuple[str, CSRGraph, int]]:
    """(name, graph, known optimum) triples with closed-form optima."""
    return [
        ("path5", path_graph(5), 2),
        ("path6", path_graph(6), 3),
        ("cycle5", cycle_graph(5), 3),
        ("cycle6", cycle_graph(6), 3),
        ("star7", star_graph(7), 1),
        ("k5", complete_graph(5), 4),
        ("k33", complete_bipartite(3, 3), 3),
        ("k25", complete_bipartite(2, 5), 2),
        ("petersen", petersen(), 6),
        ("grid33", grid_graph(3, 3), 4),
    ]


@pytest.fixture
def random_graph_family() -> list[CSRGraph]:
    """A deterministic zoo of random graphs small enough to brute force."""
    out = []
    for n, p, seed in [(8, 0.3, 1), (10, 0.25, 2), (12, 0.4, 3), (13, 0.2, 4),
                       (14, 0.35, 5), (9, 0.6, 6), (11, 0.15, 7), (15, 0.3, 8)]:
        out.append(gnp(n, p, seed=seed))
    return out


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def malformed_checkpoints():
    """``make(checkpoint)`` → checkpoint blobs that ``Checkpoint.from_bytes``
    must refuse with ``ValueError``, by name.  "names a global" is a good
    payload behind a global (``collections.OrderedDict``), which a loader
    that honours globals would call and accept."""
    import pickle
    from collections import OrderedDict

    def make(checkpoint) -> dict:
        blob = checkpoint.to_bytes()
        payload = checkpoint.to_payload()
        missing = {key: val for key, val in payload.items() if key != "graph_fp"}
        return {
            "garbage": b"this is not a checkpoint",
            "empty": b"",
            "truncated": blob[: len(blob) // 2],
            "v1": pickle.dumps(dict(payload, version=1)),
            "names a global": pickle.dumps(OrderedDict(payload)),
            "missing a key": pickle.dumps(missing),
            "not a dict": pickle.dumps([1, 2, 3]),
            "a numpy scalar": pickle.dumps(dict(payload, n=np.int64(payload["n"]))),
            "a field of the wrong type": pickle.dumps(dict(payload, m=str(payload["m"]))),
            "items not pairs": pickle.dumps(dict(payload, items=[b"frame"])),
        }

    return make

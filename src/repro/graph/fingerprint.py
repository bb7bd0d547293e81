"""Content-addressed identity of graphs and JSON payloads.

A leaf module (``hashlib``, ``json`` and numpy only), so the solve cache
can hash a request without importing the experiment layer.  The
experiment specs re-export both functions: spec hashes, cell
fingerprints, cache config hashes and stored ``graph_fp`` values are all
computed here.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

__all__ = ["canonical_json", "graph_fingerprint"]


def canonical_json(obj: object) -> str:
    """Stable JSON text: sorted keys, no whitespace drift."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def graph_fingerprint(graph) -> str:
    """SHA-256 over a CSR graph's defining arrays (hex).

    Hashes ``n``, ``m`` and the ``indptr``/``indices`` arrays in a
    dtype-normalized (int64, little-endian) form, so the fingerprint is
    a property of the graph, not of how it was constructed.
    """
    h = hashlib.sha256()
    h.update(f"csr:{graph.n}:{graph.m}:".encode())
    h.update(np.ascontiguousarray(graph.indptr, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(graph.indices, dtype="<i8").tobytes())
    return h.hexdigest()

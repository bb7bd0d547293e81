"""Wall-clock micro-benchmarks of the substrate hot paths (``repro bench``).

The pytest-benchmark suite in ``benchmarks/`` gives statistically careful
numbers for interactive work; this module is the *artifact* producer: one
command that times the named hot-path cases and writes a machine-readable
``BENCH_micro.json`` with provenance (git SHA, seed, library versions), so
every PR can regenerate the perf trajectory and diff it against the
committed baseline.  See ``benchmarks/README.md`` for the schema.

Cases deliberately mirror ``benchmarks/bench_micro.py`` where the
acceptance numbers live (``reduce_serial``, ``sequential_solver_small``)
and add kernel-layer cases that isolate the fast/reference split.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchCase",
    "bench_cases",
    "run_microbench",
    "write_artifact",
    "validate_artifact",
]

#: Bump when the JSON layout changes (documented in benchmarks/README.md).
BENCH_SCHEMA_VERSION = 1

#: Seeds used by the benchmark graphs; recorded in the artifact.
BENCH_SEEDS = {"sparse_gnp": 78, "phat_solver": 5, "phat_graph": 77,
               "greedy_gnp": 21, "ingest_relabel": 500}


@dataclass
class BenchCase:
    """One timed hot-path case: a zero-arg callable, pre-warmed inputs.

    ``backend`` records which ``KERNELS`` backend the case's dispatch
    resolves to (``auto:scalar`` style for the auto dispatcher), or
    ``None`` for cases that never touch the kernel-backend layer; it is
    copied into the artifact's provenance block.
    """

    name: str
    fn: Callable[[], object]
    description: str
    backend: Optional[str] = None


def bench_cases(kernels: Optional[str] = None) -> List[BenchCase]:
    """Build the standard case list (imports deferred: keep CLI start fast).

    ``kernels`` (a ``KERNELS`` registry name, default ``auto``)
    forces the backend for every case that dispatches through the
    kernel-backend layer; the forced/resolved per-case backend is
    recorded on each :class:`BenchCase`.
    """
    from ..core.formulation import BestBound, MVCFormulation
    from ..core.greedy import greedy_cover
    from ..core.kernel_backends import resolve_kernels
    from ..core.kernels import apply_reductions_fast
    from ..core.parallel_reductions import apply_reductions_parallel
    from ..core.reductions import apply_reductions_reference
    from ..core.sequential import solve_mvc_sequential
    from ..graph.csr import CSRGraph
    from ..graph.degree_array import (
        Workspace,
        fresh_state,
        remove_neighbors_into_cover,
        remove_vertices_into_cover,
    )
    from ..graph.generators.phat import phat_complement
    from ..graph.generators.random_graphs import gnp
    from ..graph.generators.suites import suite_instance

    backend = resolve_kernels(kernels)
    sparse = gnp(400, 0.01, seed=BENCH_SEEDS["sparse_gnp"])
    dense = phat_complement(100, 2, seed=BENCH_SEEDS["phat_graph"])
    solver_graph = phat_complement(50, 2, seed=BENCH_SEEDS["phat_solver"])
    # The largest graph here: the greedy pick loop dominates (native when
    # the extension loads, else the scalar exhausts over pending lists).
    greedy_graph = gnp(4096, 8.0 / 4095.0, seed=BENCH_SEEDS["greedy_gnp"])
    ws_sparse = Workspace.for_graph(sparse)
    ws_dense = Workspace.for_graph(dense)
    ws_greedy = Workspace.for_graph(greedy_graph)
    edges = list(dense.edges())
    ingest = suite_instance("p_hat_500_3").graph()
    ingest_edges = np.random.default_rng(BENCH_SEEDS["ingest_relabel"]).permutation(
        ingest.n)[ingest.edge_array().astype(np.int64)]
    batch = np.arange(0, 40, 2)

    def form(graph):
        return MVCFormulation(BestBound(size=graph.n + 1))

    form_sparse = form(sparse)

    def reduce_fast():
        state = fresh_state(sparse)
        apply_reductions_fast(sparse, state, form_sparse, ws_sparse,
                              kernels=backend)

    def reduce_reference():
        state = fresh_state(sparse)
        apply_reductions_reference(sparse, state, form_sparse, ws_sparse)

    def reduce_parallel():
        state = fresh_state(sparse)
        apply_reductions_parallel(sparse, state, form_sparse, ws_sparse)

    def solver_small():
        return solve_mvc_sequential(solver_graph, kernels=backend)

    def csr_from_edges():
        return CSRGraph.from_edges(dense.n, edges, validate=False)

    def csr_from_edges_validated():
        return CSRGraph.from_edges(ingest.n, ingest_edges)

    def batch_removal():
        state = fresh_state(dense)
        remove_vertices_into_cover(dense, state.deg, batch, ws_dense)

    def remove_neighbors_hub():
        state = fresh_state(dense)
        remove_neighbors_into_cover(dense, state.deg, 0, ws_dense)

    def state_copy_pooled():
        state = fresh_state(dense)
        clone = state.copy(ws_dense)
        ws_dense.release_deg(clone.deg)

    def greedy_large():
        return greedy_cover(greedy_graph, ws_greedy, kernels=backend)

    return [
        BenchCase("reduce_serial", reduce_fast,
                  "apply_reductions (fast kernels) to fixpoint on gnp(400, 0.01)",
                  backend=backend.resolved_name(sparse.n, sparse.m)),
        BenchCase("reduce_reference", reduce_reference,
                  "reference serial rules on the same graph (the pre-kernel path)"),
        BenchCase("reduce_parallel_semantics", reduce_parallel,
                  "Section IV-D batch rules on the same graph"),
        BenchCase("sequential_solver_small", solver_small,
                  "full MVC solve of phat_complement(50, 2)",
                  backend=backend.resolved_name(solver_graph.n, solver_graph.m)),
        BenchCase("csr_from_edges", csr_from_edges,
                  "vectorized CSR construction of phat_complement(100, 2)"),
        BenchCase("csr_from_edges_validated", csr_from_edges_validated,
                  "validated CSR ingest of a relabelled p_hat_500_3 edge array"),
        BenchCase("batch_removal", batch_removal,
                  "20-vertex batch removal into the cover"),
        BenchCase("remove_neighbors", remove_neighbors_hub,
                  "hub neighbourhood removal on phat_complement(100, 2): the "
                  "fused single-gather branch kernel"),
        BenchCase("state_copy_pooled", state_copy_pooled,
                  "pooled VCState.copy via the workspace buffer pool"),
        BenchCase("greedy_bound_large", greedy_large,
                  "greedy upper bound on gnp(4096, ~deg 8): the backend's "
                  "pending-list pick loop",
                  backend=backend.resolved_name(greedy_graph.n, greedy_graph.m)),
    ]


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=5,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def _time_case(fn: Callable[[], object], repeats: int, target_s: float) -> Dict[str, float]:
    """Best/median seconds per call over ``repeats`` samples.

    The loop count is calibrated so one sample lasts roughly ``target_s``,
    which keeps tiny cases out of timer-resolution noise.
    """
    repeats = max(1, repeats)
    fn()  # warm caches (adjacency tuples, edge keys, buffer pools)
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-7)
    loops = max(1, int(target_s / once))
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(loops):
            fn()
        samples.append((time.perf_counter() - t0) / loops)
    samples.sort()
    return {
        "best_s": samples[0],
        "median_s": samples[len(samples) // 2],
        "loops": float(loops),
        "repeats": float(repeats),
    }


def run_microbench(
    repeats: int = 5,
    target_s: float = 0.05,
    cases: Optional[List[BenchCase]] = None,
    kernels: Optional[str] = None,
) -> Dict[str, object]:
    """Time every case and return the artifact dict (see the schema doc).

    ``kernels`` forces a ``KERNELS`` backend for the dispatcher-driven
    cases; the backend each such case actually resolved to is recorded in
    ``provenance["kernel_backends"]``.
    """
    if cases is None:
        cases = bench_cases(kernels)
    results: Dict[str, Dict[str, object]] = {}
    for case in cases:
        timing = _time_case(case.fn, repeats, target_s)
        results[case.name] = {"description": case.description, **timing}
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "kind": "repro-vc-microbench",
        "results": results,
        "provenance": {
            "git_sha": _git_sha(),
            "seeds": dict(BENCH_SEEDS),
            "kernel_backends": {case.name: case.backend for case in cases
                                if case.backend is not None},
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "platform": platform.platform(),
            "timestamp_unix": time.time(),
        },
    }


def write_artifact(payload: Dict[str, object], path: str) -> None:
    """Write the benchmark artifact as stable, diffable JSON."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def render_microbench(payload: Dict[str, object]) -> str:
    """Human-readable table of one artifact."""
    lines = [f"{'case':28s} {'best':>12s} {'median':>12s}"]
    for name, res in sorted(payload["results"].items()):  # type: ignore[union-attr]
        best = float(res["best_s"]) * 1e6
        med = float(res["median_s"]) * 1e6
        lines.append(f"{name:28s} {best:10.1f}us {med:10.1f}us")
    return "\n".join(lines)


def validate_artifact(payload: Dict[str, object]) -> None:
    """Assert the microbench artifact matches the documented schema.

    Raises ``ValueError`` on any violation; the ``--smoke`` CI path runs
    this so perf-artifact regressions (dropped cases, renamed keys, wrong
    types) are caught without a full benchmark run.
    """
    def fail(msg: str) -> None:
        raise ValueError(f"BENCH_micro artifact schema violation: {msg}")

    if not isinstance(payload, dict):
        fail("payload is not an object")
    if payload.get("schema_version") != BENCH_SCHEMA_VERSION:
        fail(f"schema_version != {BENCH_SCHEMA_VERSION}")
    if payload.get("kind") != "repro-vc-microbench":
        fail("kind != 'repro-vc-microbench'")
    results = payload.get("results")
    if not isinstance(results, dict) or not results:
        fail("results missing or empty")
    for name, res in results.items():  # type: ignore[union-attr]
        if not isinstance(res, dict):
            fail(f"results[{name!r}] is not an object")
        for key in ("description", "best_s", "median_s", "loops", "repeats"):
            if key not in res:
                fail(f"results[{name!r}] missing {key!r}")
        for key in ("best_s", "median_s", "loops", "repeats"):
            val = res[key]
            if not isinstance(val, (int, float)) or val <= 0:
                fail(f"results[{name!r}][{key!r}] is not a positive number")
        if res["best_s"] > res["median_s"]:
            fail(f"results[{name!r}] best_s exceeds median_s")
    prov = payload.get("provenance")
    if not isinstance(prov, dict):
        fail("provenance missing")
    for key in ("git_sha", "seeds", "python", "numpy", "platform", "timestamp_unix"):
        if key not in prov:
            fail(f"provenance missing {key!r}")

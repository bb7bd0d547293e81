"""Micro-benchmarks of the substrate hot paths.

Unlike the macro benches (one round each), these run under
pytest-benchmark's normal statistical timing: they are the operations
whose real Python cost bounds the whole reproduction's wall-clock.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.formulation import BestBound, MVCFormulation
from repro.core.greedy import greedy_cover
from repro.core.parallel_reductions import apply_reductions_parallel
from repro.core.reductions import apply_reductions
from repro.core.sequential import solve_mvc_sequential
from repro.graph.csr import CSRGraph
from repro.graph.degree_array import (
    Workspace,
    fresh_state,
    remove_neighbors_into_cover,
    remove_vertices_into_cover,
)
from repro.graph.generators.phat import phat_complement
from repro.graph.generators.random_graphs import gnp
from repro.graph.generators.suites import suite_instance
from repro.sim.broker import BrokerWorklist
from repro.sim.launch import select_launch_config
from repro.sim.device import SMALL_SIM

GRAPH = phat_complement(100, 2, seed=77)
SPARSE = gnp(400, 0.01, seed=78)


def bench_csr_construction(benchmark):
    edges = list(GRAPH.edges())
    benchmark(lambda: CSRGraph.from_edges(GRAPH.n, edges, validate=False))


def bench_csr_from_edges_validated(benchmark):
    # The facade caller's path: a relabelled edge array, validate=True.
    base = suite_instance("p_hat_500_3").graph()
    perm = np.random.default_rng(500).permutation(base.n)
    edges = perm[base.edge_array().astype(np.int64)]
    graph = benchmark(lambda: CSRGraph.from_edges(base.n, edges))
    assert graph.m == base.m


def bench_fresh_state(benchmark):
    benchmark(fresh_state, GRAPH)


def bench_state_copy(benchmark):
    state = fresh_state(GRAPH)
    benchmark(state.copy)


def bench_batch_removal(benchmark):
    ws = Workspace.for_graph(GRAPH)
    verts = np.arange(0, 40, 2)

    def run():
        state = fresh_state(GRAPH)
        remove_vertices_into_cover(GRAPH, state.deg, verts, ws)

    benchmark(run)


def bench_remove_neighbors(benchmark):
    ws = Workspace.for_graph(GRAPH)

    def run():
        state = fresh_state(GRAPH)
        remove_neighbors_into_cover(GRAPH, state.deg, 0, ws)

    benchmark(run)


def bench_reduce_serial(benchmark):
    ws = Workspace.for_graph(SPARSE)
    form = MVCFormulation(BestBound(size=SPARSE.n + 1))

    def run():
        state = fresh_state(SPARSE)
        apply_reductions(SPARSE, state, form, ws)

    benchmark(run)


def bench_reduce_parallel_semantics(benchmark):
    ws = Workspace.for_graph(SPARSE)
    form = MVCFormulation(BestBound(size=SPARSE.n + 1))

    def run():
        state = fresh_state(SPARSE)
        apply_reductions_parallel(SPARSE, state, form, ws)

    benchmark(run)


def bench_greedy_bound(benchmark):
    benchmark(greedy_cover, GRAPH)


def bench_greedy_bound_large(benchmark):
    # Above the scalar cutoff: the worklist-driven vectorized pick loop.
    g = gnp(4096, 8.0 / 4095.0, seed=21)
    ws = Workspace.for_graph(g)
    result = benchmark(lambda: greedy_cover(g, ws))
    assert result.size > 0


def bench_sequential_solver_small(benchmark):
    g = phat_complement(50, 2, seed=5)
    result = benchmark(solve_mvc_sequential, g)
    assert result.optimum is not None


def bench_worklist_throughput(benchmark):
    state = fresh_state(GRAPH)

    def run():
        wl = BrokerWorklist(capacity=1024)
        t = 0.0
        for _ in range(256):
            wl.add(state, t)
            t += 1.0
        for _ in range(256):
            wl.try_remove(t)
            t += 1.0

    benchmark(run)


def bench_launch_config(benchmark):
    benchmark(select_launch_config, SMALL_SIM, 100, 80)

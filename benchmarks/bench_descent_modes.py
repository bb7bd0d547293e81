"""Prior work's two descent schemes (Section III-A): root vs grid.

The paper describes two ways prior implementations reach the fixed-depth
sub-trees: descending from the root per sub-tree (redundant work,
Abu-Khzam et al.) or materialising each level with a separate grid launch
(launch overhead + frontier memory, Kabbara).  This bench measures the
trade-off the paper uses to motivate the hybrid scheme:

* grid mode visits strictly fewer tree nodes (no redundant descents);
* grid mode pays launch overhead and frontier storage that grow with the
  starting depth.
"""

from __future__ import annotations

import pytest

from repro.core.sequential import solve_mvc_sequential
from repro.engines.stackonly import StackOnlyEngine
from repro.graph.generators.suites import suite_instance
from repro.sim.costmodel import CostModel
from repro.sim.device import SMALL_SIM

from conftest import once


@pytest.mark.parametrize("depth", [4, 8])
def bench_descent_mode_tradeoff(benchmark, quick_spec, depth):
    graph = suite_instance("p_hat_300_3", quick_spec.scale).graph()
    expected = solve_mvc_sequential(graph).optimum

    def run():
        results = {}
        for mode in ("root", "grid"):
            eng = StackOnlyEngine(device=SMALL_SIM, cost_model=CostModel(),
                                  start_depth=depth, descent_mode=mode)
            results[mode] = eng.solve_mvc(graph, node_budget=quick_spec.engine_node_guard)
        return results

    results = once(benchmark, run)
    root, grid = results["root"], results["grid"]
    for mode, res in results.items():
        assert res.timed_out or res.optimum == expected, mode
    benchmark.extra_info["root nodes"] = root.nodes_visited
    benchmark.extra_info["grid nodes"] = grid.nodes_visited
    benchmark.extra_info["grid expansion cycles"] = \
        f"{grid.stats.params['grid_expansion']['expansion_cycles']:.3g}"
    benchmark.extra_info["grid frontier bytes"] = \
        int(grid.stats.params["grid_expansion"]["frontier_bytes"])

    # the paper's Section III-A: root descent re-processes prefix nodes
    if not root.timed_out and not grid.timed_out:
        assert grid.nodes_visited <= root.nodes_visited

#!/usr/bin/env python
"""Why the vertex cover search tree defeats static parallelisation.

Section III of the paper argues from two structural properties — the tree
is *narrow* and *highly imbalanced* — and every design decision follows.
This example measures both properties on a real traversal and then shows
two consequences:

1. a static fixed-depth split (prior work) inherits the measured
   imbalance almost exactly;
2. a disconnected instance is exponentially cheaper to solve per
   component (the decomposition utility).

Run:  python examples/search_tree_anatomy.py
"""

from repro.analysis.tree_shape import measure_tree_shape, render_tree_shape
from repro.core.decompose import optimum_via_pvc, solve_mvc_by_components
from repro.core.sequential import solve_mvc_sequential
from repro.engines.stackonly import StackOnlyEngine
from repro.graph.generators.phat import phat_complement
from repro.graph.generators.structured import disjoint_union
from repro.sim.device import SMALL_SIM


def main() -> None:
    graph = phat_complement(90, 3, seed=303)   # the p_hat_300_3 analog
    print(f"instance: {graph}\n")

    # -- 1. anatomy of the tree -------------------------------------------
    shape = measure_tree_shape(graph, node_budget=40_000)
    print(render_tree_shape(shape, "p_hat_300_3 analog"))

    depth32 = shape.depth_for_width(32)
    print(f"\nTo feed 32 thread blocks, a static scheme must descend to "
          f"depth {depth32} — and at that depth the largest sub-tree is "
          f"{shape.imbalance_at(8) or 0:.1f}x the mean (depth-8 sample): "
          f"whichever block draws it becomes the straggler.")

    # -- 2. the static split inherits the imbalance ------------------------
    res = StackOnlyEngine(device=SMALL_SIM, start_depth=6).solve_mvc(graph)
    loads = res.stats.metrics.normalized_load()
    print(f"\nStackOnly per-SM load (nodes/mean): "
          f"min {loads.min():.2f}x, max {loads.max():.2f}x "
          f"— the measured tree imbalance, realised as hardware idleness.")

    # -- 3. decomposition: the flip side -----------------------------------
    two = disjoint_union(phat_complement(50, 3, seed=1), phat_complement(50, 3, seed=2))
    joint = solve_mvc_sequential(two)
    split = solve_mvc_by_components(two)
    print(f"\ndisjoint union of two instances: joint search visits "
          f"{joint.stats.nodes_visited} nodes, per-component search "
          f"{split.nodes_visited} ({joint.stats.nodes_visited / max(split.nodes_visited, 1):.1f}x less) "
          f"for the same optimum {split.optimum}.")

    # -- 4. bonus: the optimum via the parameterized oracle ----------------
    probes = []
    opt = optimum_via_pvc(graph, on_probe=lambda k, f: probes.append(k))
    print(f"\nPVC binary search recovered the optimum {opt} with "
          f"{len(probes)} feasibility probes (ks tried: {probes}).")


if __name__ == "__main__":
    main()

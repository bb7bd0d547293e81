#!/usr/bin/env python
"""Quickstart: solve MVC and PVC on a small graph with every engine.

Run:  python examples/quickstart.py
"""

from repro.core.solver import solve_mvc, solve_pvc
from repro.core.verify import assert_valid_cover
from repro.graph.csr import CSRGraph
from repro.graph.generators.phat import phat_complement
from repro.sim.device import TINY_SIM


def main() -> None:
    # --- build a graph --------------------------------------------------
    # Directly from an edge list...
    little = CSRGraph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
    print(f"little graph: {little}")

    out = solve_mvc(little)
    print(f"  minimum vertex cover: size {out.optimum}, cover {sorted(out.cover.tolist())}")
    assert_valid_cover(little, out.cover, out.optimum)

    # ...or from a generator.  This is a scaled-down complement of a
    # DIMACS p_hat graph — the hard high-degree family of the paper.
    graph = phat_complement(60, 3, seed=1)
    print(f"\np_hat-style complement: {graph}")

    # --- MVC with each engine -------------------------------------------
    # 'sequential' is the Fig. 1 CPU baseline; 'stackonly' is prior work's
    # fixed-depth GPU scheme; 'hybrid' is the paper's contribution.  The
    # GPU engines run on a simulated device and report virtual time.
    for engine in ("sequential", "stackonly", "hybrid"):
        out = solve_mvc(graph, engine=engine, device=TINY_SIM)
        extra = ""
        if engine != "sequential":  # a simulated launch: its report rides in stats
            launch = out.stats.launch
            extra = f" [virtual GPU time {out.stats.sim_seconds * 1e3:.2f} ms, " \
                    f"{launch.num_blocks} blocks x {launch.block_size} threads]"
        print(f"  {engine:10s}: optimum {out.optimum}, {out.nodes_visited} tree nodes{extra}")
        assert_valid_cover(graph, out.cover, out.optimum)

    # --- PVC: the parameterized formulation ------------------------------
    minimum = solve_mvc(graph).optimum
    for k, label in ((minimum - 1, "k = min - 1"), (minimum, "k = min"), (minimum + 1, "k = min + 1")):
        out = solve_pvc(graph, k, engine="hybrid", device=TINY_SIM)
        verdict = "feasible" if out.feasible else "infeasible"
        print(f"  PVC {label:11s} (k={k}): {verdict}"
              + (f", found a cover of size {out.optimum}" if out.feasible else ""))

    print("\nAll covers verified. Try `python -m repro table1 --quick` next.")


if __name__ == "__main__":
    main()

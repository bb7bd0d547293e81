#!/usr/bin/env python
"""Reproduce the paper's Fig. 5 observation interactively.

Runs StackOnly and Hybrid on a hard high-degree instance and prints each
SM's share of the traversal as an ASCII bar chart — the same per-SM
tree-nodes-visited metric as the paper's Fig. 5, where StackOnly leaves
one SM doing ~64x the average work while Hybrid keeps every SM within a
few percent of the mean.

Run:  python examples/load_balance_study.py
"""

import numpy as np

from repro.analysis.load_balance import load_summary_from_metrics
from repro.engines.hybrid import HybridEngine
from repro.engines.stackonly import StackOnlyEngine
from repro.graph.generators.phat import phat_complement
from repro.sim.device import SMALL_SIM


def bars(normalized: np.ndarray, width: int = 50) -> str:
    top = max(normalized.max(), 1.0)
    out = []
    for sm, load in enumerate(normalized):
        bar = "#" * max(1, int(load / top * width)) if load > 0 else ""
        out.append(f"  SM{sm:02d} |{bar:<{width}s}| {load:5.2f}x mean")
    return "\n".join(out)


def main() -> None:
    graph = phat_complement(90, 3, seed=303)   # the p_hat_300_3 analog
    print(f"instance: {graph} (hard, high-degree)\n")

    for name, engine in (
        ("StackOnly (prior work: fixed-depth sub-trees)",
         StackOnlyEngine(device=SMALL_SIM, start_depth=6)),
        ("Hybrid (the paper: local stacks + global worklist)",
         HybridEngine(device=SMALL_SIM)),
    ):
        res = engine.solve_mvc(graph)
        summary = load_summary_from_metrics(res.stats.metrics)
        print(f"{name}")
        print(f"  optimum {res.optimum}, {res.nodes_visited} tree nodes, "
              f"virtual time {res.stats.sim_seconds * 1e3:.2f} ms")
        print(bars(res.stats.metrics.normalized_load()))
        print(f"  spread: min {summary.min:.2f}x / max {summary.max:.2f}x of mean, "
              f"imbalance (max/mean) {summary.imbalance:.2f}\n")

    print("The StackOnly bars concentrate the work on few SMs (big sub-trees");
    print("are pinned to whichever block got them); the Hybrid bars are flat.")


if __name__ == "__main__":
    main()

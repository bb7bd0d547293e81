"""Interleaved A/B pair for the compiled search loop.

A = the per-node ``NodeStep`` loop with the compiled kernels
(``auto:native``), forced by a ``LifoFrontier`` subclass, which the
compiled loop does not take; B = the compiled loop (``_native.c``'s
``search``).  Each side is a full sequential MVC solve (greedy incumbent
plus search) of p_hat_500_3 at small scale.  The order alternates every
pair, and every pair asserts the optimum and all traversal and reduction
counters equal.  Prints one JSON record in the ``pre_pr_baseline`` shape
of ``BENCH_micro.json``.

    PYTHONPATH=src python benchmarks/ab_native_search.py --pairs 10
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

from repro.core.frontier import LifoFrontier
from repro.core.sequential import solve_mvc_sequential
from repro.graph.generators.suites import suite_instance


class PerNodeLifo(LifoFrontier):
    """The depth-first stack, under a type the compiled loop declines."""

    __slots__ = ()


def counters(outcome):
    s, r = outcome.stats, outcome.stats.reductions
    return (outcome.optimum, s.nodes_visited, s.branches, s.prunes,
            s.solutions_found, s.max_depth_reached, s.max_stack_depth,
            r.degree_one, r.degree_two_triangle, r.high_degree, r.sweeps)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    graph = suite_instance("p_hat_500_3", "small").graph()
    sides = {
        "a": lambda: solve_mvc_sequential(graph, frontier=PerNodeLifo()),
        "b": lambda: solve_mvc_sequential(graph),
    }
    sides["a"](), sides["b"]()  # warm the extension and caches
    times = {"a": [], "b": []}
    expected = None
    for pair in range(args.pairs):
        for side in ("ab" if pair % 2 == 0 else "ba"):
            t0 = time.perf_counter()
            outcome = sides[side]()
            times[side].append(time.perf_counter() - t0)
            assert ("native_search" in outcome.stats.extra) == (side == "b")
            got = counters(outcome)
            expected = expected or got
            assert got == expected, (side, got, expected)
    a, b = statistics.median(times["a"]), statistics.median(times["b"])
    print(json.dumps({
        "best_s": round(min(times["a"]), 5),
        "median_s": round(a, 5),
        "with_change_median_s": round(b, 5),
        "speedup": round(a / b, 3),
        "counters": dict(zip(
            ("optimum", "nodes", "branches", "prunes", "solutions",
             "max_depth", "max_stack", "degree_one", "degree_two_triangle",
             "high_degree", "sweeps"), expected)),
        "pairs": args.pairs,
        "wins": sum(tb < ta for ta, tb in zip(times["a"], times["b"])),
    }))


if __name__ == "__main__":
    main()

"""Interleaved A/B pairs for the compiled search loop.

Sequential (the default): A = the per-node ``NodeStep`` loop with the
compiled kernels (``auto:native``), forced by a ``LifoFrontier``
subclass, which the compiled loop does not take; B = the compiled loop
(``_native.c``'s ``search``).  Each side is a full sequential MVC solve
(greedy incumbent plus search) of p_hat_500_3 at small scale.  The order
alternates every pair, and every pair asserts the optimum and all
traversal and reduction counters equal.

Sequential against a baseline (``--baseline SRC``): A = the compiled
loop of another checkout's ``src`` directory (for example the parent
commit, exported with ``git archive``), B = this checkout's.  Each side
of a pair is a fresh interpreter that runs ``REQUESTS`` sequential MVC
solves of relabellings of p_hat_500_3 (small) after one untimed warm-up
and reports the median and every solve's counters; the first side
alternates every pair, both sides of a pair solve the same relabellings,
and every optimum, traversal and reduction counter must be equal.

Distributed (``--dist-baseline SRC``): A = the 2-worker socket engine of
another checkout's ``src`` directory, B = this checkout's.  Each side of
a pair is a fresh interpreter that solves ``REQUESTS`` relabellings of
p_hat_500_3 (small) after one untimed warm-up and reports the median;
every answer is checked against the sequential optimum.  The same
interpreter then times the engine's fixed cost: the median of
``REQUESTS`` solves of a 4-vertex path (after one untimed warm-up),
whose search is a single node.  The first side alternates every pair,
and both sides of a pair solve the same relabellings.

The two sequential modes print one JSON record in the
``pre_pr_baseline`` shape of ``BENCH_micro.json``; the distributed mode
prints one object with two such records, ``p_hat_500_3`` and
``fixed_cost_path4``.

    PYTHONPATH=src python benchmarks/ab_native_search.py --pairs 10
    PYTHONPATH=src python benchmarks/ab_native_search.py --pairs 10 \
        --baseline /tmp/parent/src
    PYTHONPATH=src python benchmarks/ab_native_search.py --pairs 4 \
        --dist-baseline /tmp/parent/src
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro.core.frontier import LifoFrontier
from repro.core.sequential import solve_mvc_sequential
from repro.graph.generators.suites import suite_instance

#: Timed distributed solves per side of a pair.
REQUESTS = 12


class PerNodeLifo(LifoFrontier):
    """The depth-first stack, under a type the compiled loop declines."""

    __slots__ = ()


COUNTERS = ("optimum", "nodes", "branches", "prunes", "solutions",
            "max_depth", "max_stack", "degree_one", "degree_two_triangle",
            "high_degree", "sweeps")


def counters(outcome):
    s, r = outcome.stats, outcome.stats.reductions
    return (outcome.optimum, s.nodes_visited, s.branches, s.prunes,
            s.solutions_found, s.max_depth_reached, s.max_stack_depth,
            r.degree_one, r.degree_two_triangle, r.high_degree, r.sweeps)


def relabellings(seed):
    """p_hat_500_3 (small) and ``REQUESTS + 1`` relabellings of it."""
    import numpy as np

    from repro.graph.csr import CSRGraph

    base = suite_instance("p_hat_500_3", "small").graph()
    edges = base.edge_array()
    rng = np.random.default_rng(seed)
    return base, [CSRGraph.from_edges(base.n, rng.permutation(base.n)[edges])
                  for _ in range(REQUESTS + 1)]


def seq_side(seed: int) -> None:
    """One side of a sequential pair, in the interpreter it runs in."""
    _, graphs = relabellings(seed)
    times, seen = [], []
    for i, graph in enumerate(graphs):
        t0 = time.perf_counter()
        out = solve_mvc_sequential(graph)
        elapsed = time.perf_counter() - t0
        assert out.stats.extra.get("native_search") == 1.0
        if i:  # the first request warms imports and the extension
            times.append(elapsed)
            seen.append(counters(out))
    print(json.dumps({"median_s": statistics.median(times), "counters": seen}))


def dist_side(seed: int) -> None:
    """One side of a distributed pair, in the interpreter it runs in."""
    from repro.graph.generators.structured import path_graph
    from repro.net.distributed import solve_mvc_distributed

    base, graphs = relabellings(seed)
    want = solve_mvc_sequential(base).optimum
    times, chunks = [], 0
    for i, graph in enumerate(graphs):
        t0 = time.perf_counter()
        out = solve_mvc_distributed(graph, n_workers=2)
        elapsed = time.perf_counter() - t0
        assert out.optimum == want and len(out.cover) == want, out.optimum
        if i:  # the first request warms imports and the extension
            times.append(elapsed)
            chunks += out.comms["totals"].get("native_search", 0)
    path = path_graph(4)
    fixed = []
    for i in range(REQUESTS + 1):
        t0 = time.perf_counter()
        out = solve_mvc_distributed(path, n_workers=2)
        elapsed = time.perf_counter() - t0
        assert out.optimum == 2, out.optimum
        if i:
            fixed.append(elapsed)
    print(json.dumps({"median_s": statistics.median(times),
                      "native_search": chunks / REQUESTS,
                      "fixed_median_s": statistics.median(fixed)}))


def pair_record(a_runs, b_runs, pairs):
    a, b = statistics.median(a_runs), statistics.median(b_runs)
    return {
        "best_s": round(min(a_runs), 5),
        "median_s": round(a, 5),
        "with_change_median_s": round(b, 5),
        "speedup": round(a / b, 3),
        "pair_medians_s": {"a": [round(t, 5) for t in a_runs],
                           "b": [round(t, 5) for t in b_runs]},
        "pairs": pairs,
        "requests_per_side": REQUESTS,
        "wins": sum(tb < ta for ta, tb in zip(a_runs, b_runs)),
    }


def side_records(baseline: str, pairs: int, flag: str):
    """Per pair, the ``{"a": record, "b": record}`` of two fresh
    interpreters running ``flag`` on the baseline's and this ``src``,
    the first side alternating every pair."""
    own = str(Path(__file__).resolve().parent.parent / "src")
    sides = {"a": str(Path(baseline).resolve()), "b": own}
    out = []
    for pair in range(pairs):
        records = {}
        for side in ("ab" if pair % 2 == 0 else "ba"):
            env = dict(os.environ, PYTHONPATH=sides[side])
            done = subprocess.run(
                [sys.executable, __file__, flag, "--seed", str(1000 + pair)],
                env=env, capture_output=True, text=True, check=True)
            records[side] = json.loads(done.stdout.strip().splitlines()[-1])
        out.append(records)
    return out


def seq_pairs(baseline: str, pairs: int) -> None:
    runs = side_records(baseline, pairs, "--seq-side")
    for pair, records in enumerate(runs):
        assert records["a"]["counters"] == records["b"]["counters"], pair
    record = pair_record([r["a"]["median_s"] for r in runs],
                         [r["b"]["median_s"] for r in runs], pairs)
    nodes = [c[COUNTERS.index("nodes")] for r in runs for c in r["b"]["counters"]]
    record["solves_compared"] = len(nodes)
    record["nodes_per_solve_median"] = statistics.median(nodes)
    print(json.dumps(record))


def dist_pairs(baseline: str, pairs: int) -> None:
    runs = side_records(baseline, pairs, "--dist-side")
    medians, fixed, chunks = ({side: [r[side][key] for r in runs] for side in "ab"}
                              for key in ("median_s", "fixed_median_s",
                                          "native_search"))
    solve = pair_record(medians["a"], medians["b"], pairs)
    solve["native_search_per_solve"] = {side: statistics.median(chunks[side])
                                        for side in "ab"}
    print(json.dumps({"p_hat_500_3": solve,
                      "fixed_cost_path4": pair_record(fixed["a"], fixed["b"], pairs)}))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--baseline", metavar="SRC",
                        help="compare the sequential compiled loop against this src")
    parser.add_argument("--dist-baseline", metavar="SRC",
                        help="compare the distributed engine against this src")
    parser.add_argument("--seq-side", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--dist-side", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seq_side:
        seq_side(args.seed)
        return
    if args.dist_side:
        dist_side(args.seed)
        return
    if args.baseline:
        seq_pairs(args.baseline, args.pairs)
        return
    if args.dist_baseline:
        dist_pairs(args.dist_baseline, args.pairs)
        return
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
        "counters": dict(zip(COUNTERS, expected)),
        "pairs": args.pairs,
        "wins": sum(tb < ta for ta, tb in zip(times["a"], times["b"])),
    }))


if __name__ == "__main__":
    main()

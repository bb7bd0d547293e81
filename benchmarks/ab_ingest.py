"""Interleaved A/B pairs for graph ingest and the cache-hit path.

A = another checkout's ``src`` directory (for example the parent commit,
exported with ``git archive``), B = this checkout's.  Each side of a pair
is a fresh interpreter that times, on ``REQUESTS`` relabellings of a
small-scale suite instance (after one untimed warm-up):

* ``from_edges``: ``CSRGraph.from_edges`` with ``validate=True`` on the
  relabelled ``(m, 2)`` int64 edge array of p_hat_500_3 (the facade
  caller's path);
* ``components``: ``connected_components`` of that graph;
* ``cache_hit``: the ``perfbench`` ``mvc-cache`` mix on p_hat_300_3 —
  per round one relabelling misses an empty store and two hit its
  isomorphic tier — timing each hit request, ingest included.

Each side reports the median per case.  The first side alternates every
pair and both sides of a pair use the same relabellings; every ingest is
checked against the base graph and every hit against the optimum.
Prints one JSON object with one ``pre_pr_baseline``-shaped record per
case.

    PYTHONPATH=src python benchmarks/ab_ingest.py --baseline /tmp/parent/src --pairs 10
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: Timed requests per case and side of a pair.
REQUESTS = 30
CASES = ("from_edges", "components", "cache_hit")


def side(seed: int) -> None:
    """One side of a pair, in the interpreter it runs in."""
    import numpy as np

    from repro import solve_mvc
    from repro.graph.algorithms import connected_components
    from repro.graph.csr import CSRGraph
    from repro.graph.generators.suites import suite_instance

    rng = np.random.default_rng(seed)
    base = suite_instance("p_hat_500_3").graph()
    edges = base.edge_array().astype(np.int64)
    times = {case: [] for case in CASES}
    for i in range(REQUESTS + 1):
        perm = rng.permutation(base.n)
        relabelled = perm[edges]
        t0 = time.perf_counter()
        graph = CSRGraph.from_edges(base.n, relabelled)
        t1 = time.perf_counter()
        labels = connected_components(graph)
        t2 = time.perf_counter()
        assert graph.m == base.m and int(labels.max()) == 0
        if i:  # the first request warms imports
            times["from_edges"].append(t1 - t0)
            times["components"].append(t2 - t1)

    cached = suite_instance("p_hat_300_3").graph()
    edges = cached.edge_array().astype(np.int64)
    want = solve_mvc(cached, cache=False).optimum
    with tempfile.TemporaryDirectory() as tmp:
        for rnd in range(REQUESTS // 2 + 1):
            store = str(Path(tmp) / f"round-{rnd}")
            for req in range(3):
                relabelled = rng.permutation(cached.n)[edges]
                t0 = time.perf_counter()
                out = solve_mvc(CSRGraph.from_edges(cached.n, relabelled),
                                cache=store)
                elapsed = time.perf_counter() - t0
                assert out.optimum == want, out.optimum
                if req:
                    assert out.nodes_visited == 0, "hit searched nodes"
                    if rnd:
                        times["cache_hit"].append(elapsed)
    print(json.dumps({case: statistics.median(ts) for case, ts in times.items()}))


def pair_record(a_runs, b_runs, pairs):
    a, b = statistics.median(a_runs), statistics.median(b_runs)
    return {
        "best_s": round(min(a_runs), 6),
        "median_s": round(a, 6),
        "with_change_median_s": round(b, 6),
        "speedup": round(a / b, 3),
        "pair_medians_s": {"a": [round(t, 6) for t in a_runs],
                           "b": [round(t, 6) for t in b_runs]},
        "pairs": pairs,
        "requests_per_side": REQUESTS,
        "wins": sum(tb < ta for ta, tb in zip(a_runs, b_runs)),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--baseline", metavar="SRC",
                        help="the src directory of side A (required)")
    parser.add_argument("--side", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.side:
        side(args.seed)
        return
    if not args.baseline:
        parser.error("--baseline SRC is required")
    own = str(Path(__file__).resolve().parent.parent / "src")
    sides = {"a": str(Path(args.baseline).resolve()), "b": own}
    medians = {side_: {case: [] for case in CASES} for side_ in "ab"}
    for pair in range(args.pairs):
        for which in ("ab" if pair % 2 == 0 else "ba"):
            env = dict(os.environ, PYTHONPATH=sides[which])
            env.pop("REPRO_CACHE", None)
            done = subprocess.run(
                [sys.executable, __file__, "--side", "--seed", str(2000 + pair)],
                env=env, capture_output=True, text=True, check=True)
            record = json.loads(done.stdout.strip().splitlines()[-1])
            for case in CASES:
                medians[which][case].append(record[case])
    print(json.dumps({case: pair_record(medians["a"][case], medians["b"][case],
                                        args.pairs) for case in CASES}))


if __name__ == "__main__":
    main()

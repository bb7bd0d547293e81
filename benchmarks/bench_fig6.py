"""Fig. 6: breakdown of the Hybrid MVC kernel's execution time.

Asserted shape (paper Section V-D):

* the reduction rules take the largest share of kernel time (the paper
  reports 65.2% on average);
* within work distribution, removing from the worklist dominates
  (16.0% of 24.1% in the paper);
* removing the neighbours of the max-degree vertex costs relatively more
  on high-degree graphs than on low-degree graphs.
"""

from __future__ import annotations

from repro.experiment.presets import preset_spec
from repro.graph.generators.suites import HIGH_DEGREE, paper_suite
from repro.obs.breakdown import GROUPS, BreakdownRow, mean_breakdown

from conftest import once, run_grid

#: Hard+easy members of both categories (full 18-graph run is the CLI's job).
SUBSET = (
    "p_hat_300_1", "p_hat_300_3", "p_hat_500_3", "p_hat_1000_1",
    "movielens_100k", "us_power_grid", "sister_cities", "lastfm_asia",
)


def bench_fig6_breakdown(benchmark):
    view = once(benchmark, run_grid, preset_spec("fig6", "small", quick=True),
                instances=SUBSET)
    rows = {name: BreakdownRow(name, cell["launch"]["breakdown"])
            for (name, _, _), cell in view.cells.items()}
    mean = mean_breakdown(list(rows.values()))
    groups = mean.group_totals()
    for group in GROUPS:
        benchmark.extra_info[group] = f"{groups[group] * 100:.1f}%"
    benchmark.extra_info["remove-from-worklist"] = f"{mean.fractions['wl_remove'] * 100:.1f}%"

    # Reducing dominates on average.
    assert groups["Reducing"] > groups["Branching"]
    assert groups["Reducing"] > 0.3

    # Worklist removal dominates the work-distribution share.
    wd_kinds = dict(mean.fractions)
    assert wd_kinds["wl_remove"] >= max(
        wd_kinds["wl_add"], wd_kinds["stack_push"], wd_kinds["stack_pop"]
    )

    # remove-neighbours is relatively heavier on high-degree graphs.
    suite = {i.name: i for i in paper_suite("small")}
    high = [rows[n].fractions["remove_neighbors"] for n in SUBSET
            if suite[n].category == HIGH_DEGREE and n in rows]
    low = [rows[n].fractions["remove_neighbors"] for n in SUBSET
           if suite[n].category != HIGH_DEGREE and n in rows]
    assert sum(high) / len(high) > sum(low) / len(low)

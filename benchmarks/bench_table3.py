"""Table III: PVC (k = min) on the p_hat sub-suite vs prior work.

The prior-work column replicates the numbers the paper itself copied from
Abu-Khzam et al. (different hardware, not re-runnable) — our runnable
stand-in for their *scheme* is the StackOnly engine.  Shape assertion: the
Hybrid engine is competitive (no dramatic loss) against StackOnly across
the sub-suite, matching the paper's "highly competitive" claim.
"""

from __future__ import annotations

from repro.analysis.experiments import PRIOR_WORK_TABLE3_SECONDS
from repro.analysis.speedup import geometric_mean
from repro.analysis.tables import format_seconds
from repro.experiment.presets import preset_spec

from conftest import once, run_grid


def bench_table3(benchmark):
    view = once(benchmark, run_grid, preset_spec("table3", "small", quick=True))
    assert len(view.instances) == len(PRIOR_WORK_TABLE3_SECONDS)

    ratios = []
    for info in view.instances:
        name = info["label"]
        secs = {engine: view.seconds(name, engine, "pvc_k")
                for engine in ("sequential", "stackonly", "hybrid")}
        benchmark.extra_info[name] = " ".join(
            f"{engine}={format_seconds(s, s is None)}" for engine, s in secs.items()
        ) + f" prior={PRIOR_WORK_TABLE3_SECONDS[name]}"
        if secs["stackonly"] is not None and secs["hybrid"] is not None:
            ratios.append(secs["stackonly"] / secs["hybrid"])

    # Hybrid is at least competitive with the prior-work scheme on k=min
    # (the paper reports a 4.2x geomean advantage on this instance type).
    assert ratios, "no finishing rows to compare"
    assert geometric_mean(ratios) >= 1.0

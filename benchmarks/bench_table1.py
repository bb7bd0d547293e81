"""Table I: execution time per (graph, problem instance, engine).

One benchmark per suite row; each regenerates that row's twelve Table I
cells (4 problem instances x {Sequential, StackOnly, Hybrid}) at the quick
budget profile and records the cells in ``extra_info``.  The paper-shape
assertions: all engines that finish agree on the optimum, and the PVC
feasibility boundary (k = min−1 infeasible, k = min feasible) holds.
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import format_seconds
from repro.experiment.report import table1_section
from repro.graph.generators.suites import paper_suite

from conftest import once, run_grid

INSTANCE_NAMES = [inst.name for inst in paper_suite("small")]


@pytest.mark.parametrize("instance", INSTANCE_NAMES)
def bench_table1_row(benchmark, quick_spec, instance):
    view = once(benchmark, run_grid, quick_spec, instances=(instance,))
    for (_, engine, itype), cell in sorted(view.cells.items()):
        benchmark.extra_info[f"{itype}/{engine}"] = format_seconds(cell["seconds"], cell["timed_out"])

    # engines that finished MVC must agree on the optimum
    optima = {
        cell["optimum"]
        for (_, engine, itype), cell in view.cells.items()
        if itype == "mvc" and not cell["timed_out"]
    }
    assert len(optima) <= 1, f"{instance}: engines disagree on MVC optimum {optima}"

    # PVC feasibility boundary
    for engine in ("sequential", "stackonly", "hybrid"):
        km1 = view.get(instance, engine, "pvc_km1")
        if km1 is not None and not km1["timed_out"]:
            assert km1["feasible"] is False, f"{instance}/{engine}: k=min-1 must be infeasible"
        kk = view.get(instance, engine, "pvc_k")
        if kk is not None and not kk["timed_out"]:
            assert kk["feasible"] is True, f"{instance}/{engine}: k=min must be feasible"


def bench_table1_render(benchmark, tiny_spec):
    """Render the full Table I text artefact (tiny scale: format check)."""
    view = once(benchmark, run_grid, tiny_spec, instances=("p_hat_300_1", "us_power_grid"),
                instance_types=("mvc", "pvc_km1", "pvc_k", "pvc_kp1"))
    text = table1_section(view)
    assert "Table I" in text
    benchmark.extra_info["lines"] = len(text.splitlines())

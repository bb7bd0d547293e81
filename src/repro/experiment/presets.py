"""The paper's evaluation commands as presets of the one experiment driver.

``repro table1|table2|table3|fig5|fig6|ablation`` each build an
:class:`~repro.experiment.spec.ExperimentSpec` (:func:`preset_spec`), run
it through :func:`~repro.experiment.runner.run_experiment` — into the
given store, or a temporary one removed afterwards — and print the one
report section (:data:`~repro.experiment.report.SECTIONS`) rendered from
the stored cells (:func:`run_preset`).

``table1`` and ``table2`` share one spec (Table II aggregates Table I's
cells), so on one store the second command executes no cell; its run
also feeds the Table III, Fig. 5 and Fig. 6 sections of ``repro
experiment report``.
"""

from __future__ import annotations

import tempfile
from typing import Callable, Optional, Tuple

from ..analysis.experiments import (
    ABLATION_GRAPHS,
    FIG5_GRAPHS,
    INSTANCE_TYPES,
    PRIOR_WORK_TABLE3_SECONDS,
    TABLE1_ENGINES,
)
from .report import SECTIONS, run_cells, write_report
from .runner import RunOutcome, run_experiment
from .spec import ExperimentSpec, InstanceRef
from .store import RunStore

__all__ = ["PRESETS", "preset_spec", "run_preset"]

#: preset -> (spec name stem, instances (``None``: the whole suite),
#: engines, instance types).
PRESETS = {
    "table1": ("paper", None, TABLE1_ENGINES, INSTANCE_TYPES),
    "table2": ("paper", None, TABLE1_ENGINES, INSTANCE_TYPES),
    "table3": ("table3", tuple(PRIOR_WORK_TABLE3_SECONDS), TABLE1_ENGINES, ("pvc_k",)),
    "fig5": ("fig5", FIG5_GRAPHS, ("stackonly", "hybrid"), INSTANCE_TYPES),
    "fig6": ("fig6", None, ("hybrid",), ("mvc",)),
    "ablation": ("ablation", ABLATION_GRAPHS, ("hybrid", "globalonly"), ("mvc",)),
}


def preset_spec(preset: str, scale: str = "small", *, quick: bool = False,
                budget: Optional[float] = None) -> ExperimentSpec:
    """The spec a paper command runs, with every budget set explicitly.

    The paper profile prices cells on ``SmallSim`` with a 0.03 s virtual
    budget, node guards of 40,000 (sequential) and 20,000 (simulated
    engines), StackOnly depths (4, 6, 8) and the Hybrid worklist at
    capacity 1024, threshold 0.25.  ``quick`` (the benchmark profile)
    cuts that to 0.02 s, 12,000/8,000 and depth 6; ``budget`` then sets
    the virtual budget in seconds.
    """
    from ..graph.generators.suites import paper_suite

    stem, names, engines, itypes = PRESETS[preset]
    suite = [inst.name for inst in paper_suite(scale)]
    return ExperimentSpec(
        name=f"{stem}-{scale}",
        scale=scale,
        device="SmallSim",
        instances=[InstanceRef(suite=name) for name in suite
                   if names is None or name in names],
        engines=engines,
        instance_types=itypes,
        virtual_budget_s=budget if budget is not None else 0.02 if quick else 0.03,
        seq_node_guard=12_000 if quick else 40_000,
        engine_node_guard=8_000 if quick else 20_000,
        stackonly_depths=(6,) if quick else (4, 6, 8),
        hybrid_capacities=(1024,),
        hybrid_fractions=(0.25,),
    ).validate()


def run_preset(
    preset: str,
    spec: ExperimentSpec,
    *,
    store: Optional[RunStore] = None,
    echo: Optional[Callable[[str], None]] = None,
) -> Tuple[str, RunOutcome]:
    """Run ``spec`` and render the preset's section from the stored cells.

    With a ``store`` the run (and its ``report.md``) stays there and a
    repeat executes no cell; without one it runs in a temporary store
    that is removed before returning.
    """
    def section(outcome: RunOutcome) -> str:
        return SECTIONS[preset][1](run_cells(outcome.run)) or f"{preset}: no cells"

    if store is None:
        with tempfile.TemporaryDirectory(prefix="repro-preset-") as root:
            outcome = run_experiment(spec, RunStore(root), echo=echo)
            return section(outcome), outcome
    outcome = run_experiment(spec, store, echo=echo)
    write_report(store, outcome.run.run_id)
    return section(outcome), outcome

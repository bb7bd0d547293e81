"""Section IV-A ablation: the hybrid scheme vs a pure global worklist.

Asserts the two drawbacks the paper gives for the per-node global
worklist: (a) far more traffic through the serialised broker, and
(b) a larger resident population (the BFS-order explosion).
"""

from __future__ import annotations

from repro.analysis.experiments import ABLATION_GRAPHS
from repro.experiment.presets import preset_spec

from conftest import once, run_grid


def bench_globalonly_ablation(benchmark):
    view = once(benchmark, run_grid, preset_spec("ablation", "small", quick=True))
    by_key = {(name, engine): cell for (name, engine, _), cell in view.cells.items()}
    for (name, engine), cell in sorted(by_key.items()):
        wl = cell["launch"]["worklist"]
        benchmark.extra_info[f"{name}|{engine}"] = (
            f"{cell['seconds']} adds={wl['adds']} peak={wl['peak']}"
        )
    for graph in ABLATION_GRAPHS:
        hyb = by_key[(graph, "hybrid")]["launch"]["worklist"]
        glob = by_key[(graph, "globalonly")]["launch"]["worklist"]
        assert glob["adds"] > hyb["adds"], graph
        assert glob["peak"] >= hyb["peak"], graph

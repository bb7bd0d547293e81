"""Shared configuration for the benchmark harness.

Every macro-benchmark (one per paper table/figure) runs the corresponding
preset spec (``repro.experiment.presets``) once per benchmark round with
the *quick* budget profile through the experiment runner, reads the
paper section's figures back from the stored cells, records the
reproduction's headline numbers in ``benchmark.extra_info``, and asserts
the paper's qualitative shape.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import dataclasses
import tempfile

import pytest

from repro.experiment import InstanceRef, RunStore, load_spec, run_cells, run_experiment
from repro.experiment.presets import preset_spec


@pytest.fixture(scope="session")
def quick_spec():
    """The quick benchmark profile (documented in EXPERIMENTS.md)."""
    return preset_spec("table1", "small", quick=True)


@pytest.fixture(scope="session")
def tiny_spec():
    return load_spec({
        "name": "bench-tiny", "scale": "tiny", "device": "TinySim",
        "instances": ["p_hat_300_1"], "engines": ["sequential", "stackonly", "hybrid"],
        "virtual_budget_s": 0.01, "seq_node_guard": 4000, "engine_node_guard": 2500,
        "stackonly_depths": [4], "hybrid_capacities": [256], "hybrid_fractions": [0.25],
    })


def run_grid(spec, *, instances=None, **fields):
    """Run ``spec`` (with ``instances``/``fields`` replaced) in a scratch
    store and return its :class:`~repro.experiment.report.RunCells`."""
    if instances is not None:
        fields["instances"] = [InstanceRef(suite=name) for name in instances]
    spec = dataclasses.replace(spec, **fields).validate()
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as root:
        return run_cells(run_experiment(spec, RunStore(root)).run)


def once(benchmark, fn, *args, **kwargs):
    """Run a macro-benchmark exactly once (they are minutes-scale)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

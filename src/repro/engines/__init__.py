"""Simulated-GPU traversal engines: StackOnly, Hybrid and GlobalOnly.

The wall-clock worker-pool engine (``distributed``, with its
``cpu-threads`` and ``cpu-process`` names) lives in
:mod:`repro.net.distributed`; the solve facade's
:data:`repro.core.solver.ENGINE_TABLE` lists every engine."""

from .base import LaunchReport, SimEngineBase
from .globalonly import GlobalOnlyEngine
from .hybrid import HybridEngine
from .stackonly import StackOnlyEngine

__all__ = [
    "LaunchReport",
    "SimEngineBase",
    "GlobalOnlyEngine",
    "HybridEngine",
    "StackOnlyEngine",
]

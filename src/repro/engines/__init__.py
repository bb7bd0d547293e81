"""Traversal engines: simulated-GPU (StackOnly / Hybrid / GlobalOnly) and
the real thread team (:mod:`repro.engines.cpu_threads`).

The process engine lives in :mod:`repro.net.distributed`; the solve
facade's :data:`repro.core.solver.ENGINE_TABLE` lists every engine."""

from .base import EngineResult, SimEngineBase
from .globalonly import GlobalOnlyEngine
from .hybrid import HybridEngine
from .stackonly import StackOnlyEngine

__all__ = [
    "EngineResult",
    "SimEngineBase",
    "GlobalOnlyEngine",
    "HybridEngine",
    "StackOnlyEngine",
]

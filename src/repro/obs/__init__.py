"""The telemetry plane: metrics, wall tracing, activity breakdowns.

The fifth orthogonal subsystem (after ENGINES, FRONTIERS, BOUNDS,
KERNELS): every engine *emits into* it, nothing *depends on* it, and the
whole plane is disarmed by default with construction-time binding on hot
paths — a solve that never arms telemetry runs the same closures,
allocations, and branch counts as before this package existed.

* :mod:`repro.obs.metrics` — process-wide counters / gauges /
  histograms, JSON snapshot + Prometheus exposition;
* :mod:`repro.obs.trace` — one span model on two clocks: wall-clock
  spans with trace/span ids that survive the socket hop, and the
  simulator's cycle charges; Chrome trace JSON + ASCII Gantt for both;
* :mod:`repro.obs.breakdown` — the activity kinds, the one kind → group
  table of Fig. 6, and per-kind wall attribution (predicted vs measured).

:func:`step_telemetry` is the single integration point the node-step
core uses: it returns ``None`` when the plane is disarmed (so
:class:`~repro.core.nodestep.NodeStep` binds its bare closure,
untouched) and a :class:`StepTelemetry` wrapper-factory when armed.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

from . import breakdown, metrics, trace

__all__ = ["metrics", "trace", "breakdown", "StepTelemetry",
           "step_telemetry", "armed", "arm", "disarm"]


def armed() -> bool:
    """Is any part of the plane armed?"""
    return metrics.armed() or trace.armed()


def arm(trace_id: Optional[str] = None, *, with_trace: bool = True,
        with_metrics: bool = True, epoch: Optional[float] = None,
        max_spans: int = trace.WallTracer.DEFAULT_MAX_SPANS
        ) -> Optional[trace.WallTracer]:
    """Arm the plane for one solve/run.  Returns the tracer (if any)."""
    tracer = None
    if with_trace:
        tracer = trace.arm(trace_id, epoch, max_spans)
    if with_metrics:
        metrics.arm()
    return tracer


def disarm() -> Optional[trace.WallTracer]:
    """Disarm everything; returns the detached tracer for export."""
    metrics.disarm()
    return trace.disarm()


class StepTelemetry:
    """Wrapper factory for the instrumented node step.

    Built once per :class:`NodeStep` construction when the plane is
    armed.  ``wrap_reducer``/``wrap_prune`` time the two inner sections
    (emitting ``cascade``/``bound`` spans when tracing); ``wrap_run``
    times the whole step (a ``node_step`` span) and attributes the
    remainder — find-max, pivot, child expansion — to ``branch``.
    Section times flow through a two-slot list shared by the closures:
    one NodeStep serves one worker thread, so no locking.
    """

    __slots__ = ("tracer", "attrib", "_cell")

    def __init__(self, tracer: Optional[trace.WallTracer],
                 attrib: Optional[Dict[str, Callable[[float], None]]]) -> None:
        self.tracer = tracer
        self.attrib = attrib
        self._cell = [0.0, 0.0]  # [reduce_s, bound_s] of the current step

    def wrap_reducer(self, reducer: Callable) -> Callable:
        clock = time.perf_counter
        tracer = self.tracer
        cell = self._cell

        def timed_reducer(*args, **kwargs):
            token = tracer.begin("cascade") if tracer is not None else None
            t0 = clock()
            try:
                reducer(*args, **kwargs)
            finally:
                cell[0] += clock() - t0
                if token is not None:
                    tracer.end(token)

        return timed_reducer

    def wrap_prune(self, prune: Callable) -> Callable:
        clock = time.perf_counter
        tracer = self.tracer
        cell = self._cell

        def timed_prune(state):
            token = tracer.begin("bound") if tracer is not None else None
            t0 = clock()
            try:
                return prune(state)
            finally:
                cell[1] += clock() - t0
                if token is not None:
                    tracer.end(token)

        return timed_prune

    def wrap_run(self, run: Callable) -> Callable:
        clock = time.perf_counter
        tracer = self.tracer
        attrib = self.attrib
        cell = self._cell

        def telemetry_run(state):
            cell[0] = 0.0
            cell[1] = 0.0
            token = tracer.begin("node_step") if tracer is not None else None
            t0 = clock()
            try:
                return run(state)
            finally:
                total = clock() - t0
                if token is not None:
                    tracer.end(token)
                if attrib is not None:
                    attrib["reduce"](cell[0])
                    attrib["bound"](cell[1])
                    attrib["branch"](max(0.0, total - cell[0] - cell[1]))

        return telemetry_run


def step_telemetry() -> Optional[StepTelemetry]:
    """The armed-plane handle for node-step construction, else ``None``."""
    tracer = trace.get()
    attrib = breakdown.step_attribution() if metrics.armed() else None
    if tracer is None and attrib is None:
        return None
    return StepTelemetry(tracer, attrib)

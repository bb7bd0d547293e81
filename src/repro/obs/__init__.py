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
  table of Fig. 6, and per-kind wall attribution from span self-time
  (predicted vs measured).

:func:`step_telemetry` is the single integration point the node-step
core uses: it returns ``None`` unless a tracer is armed (so
:class:`~repro.core.nodestep.NodeStep` binds its bare closure, untouched,
and armed metrics alone still run the compiled loop) and a
:class:`StepTelemetry` wrapper-factory while one is.
"""

from __future__ import annotations

from typing import Callable, Optional

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
    """Wrapper factory for the traced node step.

    Built once per :class:`NodeStep` construction while a tracer is
    armed.  ``wrap_reducer``/``wrap_prune`` emit ``cascade``/``bound``
    spans around the two inner sections and ``wrap_run`` a ``node_step``
    span around the whole step; per-kind wall time is their self-time
    (:func:`repro.obs.breakdown.wall_by_kind_from_spans`).
    """

    __slots__ = ("tracer",)

    def __init__(self, tracer: trace.WallTracer) -> None:
        self.tracer = tracer

    def _wrap(self, kind: str, fn: Callable) -> Callable:
        begin, end = self.tracer.begin, self.tracer.end

        def traced(*args, **kwargs):
            token = begin(kind)
            try:
                return fn(*args, **kwargs)
            finally:
                end(token)

        return traced

    def wrap_reducer(self, reducer: Callable) -> Callable:
        return self._wrap("cascade", reducer)

    def wrap_prune(self, prune: Callable) -> Callable:
        return self._wrap("bound", prune)

    def wrap_run(self, run: Callable) -> Callable:
        return self._wrap("node_step", run)


def step_telemetry() -> Optional[StepTelemetry]:
    """The traced-step handle for node-step construction while a tracer
    is armed, else ``None``: armed metrics alone leave the step bare."""
    tracer = trace.get()
    return None if tracer is None else StepTelemetry(tracer)

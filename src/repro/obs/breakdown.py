"""Activity kinds, the Fig. 6 group table, and predicted-vs-measured breakdowns.

The sim engines price every charge into the Fig. 6 activity kinds (the
cost model in :mod:`repro.sim.costmodel` imports them from here); the
wall engines, instrumented through the telemetry plane, attribute real
seconds to a coarser taxonomy (reduce / bound / branch /
work-distribution).  One table, :data:`GROUPS`, maps both vocabularies
onto the paper's four activity *groups*, so the Fig. 6 bars, the Gantt
glyphs and a store report laying the simulator's prediction next to a
measured wall-clock breakdown all read the same mapping.

Measured attribution sources, in preference order:

1. ``wall_by_kind`` — per-kind seconds accumulated by the instrumented
   :class:`~repro.core.nodestep.NodeStep` closure into
   ``repro_wall_seconds_total{kind=}`` counters (workers fold theirs
   into the comms dict as ``obs_<kind>_s``, which
   ``CommStats.totals()`` sums home for free; a worker *thread* opens
   :func:`local_attribution`, so its share stays out of the registry its
   coordinator also reads);
2. spans — self-time attribution over a drained trace
   (:func:`wall_by_kind_from_spans`), used by ``repro obs view`` on a
   trace file where no registry snapshot exists.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, Iterator, List,
                    Mapping, Optional, Sequence)

from . import metrics as _metrics

if TYPE_CHECKING:
    from .trace import WallSpan

__all__ = [
    "WORK_DISTRIBUTION_KINDS",
    "REDUCE_KINDS",
    "BRANCH_KINDS",
    "BOUND_KINDS",
    "CACHE_KINDS",
    "WALL_KINDS",
    "ACTIVITY_LABELS",
    "GROUPS",
    "GROUP_TITLES",
    "SPAN_ATTRIBUTION",
    "BreakdownRow",
    "breakdown_row",
    "mean_breakdown",
    "step_attribution",
    "local_attribution",
    "local_sink",
    "add_wall",
    "wall_by_kind",
    "wall_obs_keys",
    "wall_from_obs_keys",
    "wall_by_kind_from_spans",
    "group_fractions",
    "render_breakdown_table",
]

#: The predicted (simulated-cycles) kinds: the paper's eleven Fig. 6
#: activities plus ``lower_bound``, which the cost model charges only for
#: non-default bound policies (see :mod:`repro.sim.costmodel`).
WORK_DISTRIBUTION_KINDS = ("wl_add", "wl_remove", "stack_push", "stack_pop", "terminate")
REDUCE_KINDS = ("degree_one", "degree_two_triangle", "high_degree")
BRANCH_KINDS = ("find_max", "remove_vmax", "remove_neighbors")
BOUND_KINDS = ("lower_bound",)

#: The solve cache's spans around a facade solve (:mod:`repro.cache`):
#: the lookup before any search and the record after it.
CACHE_KINDS = ("cache_lookup", "cache_record")

#: The measured (wall) attribution kinds.  ``reduce``/``bound``/``branch``
#: are carved out of each node step by the instrumented closure;
#: ``lease``/``idle``/``frame`` are engine-level work-distribution sites;
#: the cache kinds wrap the solve.
WALL_KINDS = ("reduce", "bound", "branch", "lease", "idle", "frame") + CACHE_KINDS

#: Display names for the Fig. 6 activities, in the figure's order.
ACTIVITY_LABELS: Dict[str, str] = {
    "wl_add": "Add to worklist",
    "wl_remove": "Remove from worklist",
    "stack_push": "Push to stack",
    "stack_pop": "Pop from stack",
    "terminate": "Terminate",
    "degree_one": "Degree-one rule",
    "degree_two_triangle": "Degree-two-triangle rule",
    "high_degree": "High-degree rule",
    "find_max": "Find max degree vertex",
    "remove_vmax": "Remove max-degree vertex",
    "remove_neighbors": "Remove neighbors of max-degree vertex",
    "lower_bound": "Lower-bound policy evaluation",
}

#: The one kind → group table, for both vocabularies (sim and wall kind
#: names never collide): the paper's four activity groups, then the
#: cache, which only wall-clock solves have.  ``state_copy`` is work
#: distribution: copying the degree array is part of moving a tree node
#: between frontier slots.
GROUPS: Dict[str, tuple] = {
    "Work distribution and load balancing":
        WORK_DISTRIBUTION_KINDS + ("state_copy", "lease", "idle", "frame"),
    "Reducing": REDUCE_KINDS + ("reduce",),
    "Branching": BRANCH_KINDS + ("branch",),
    "Bounding": BOUND_KINDS + ("bound",),
    "Cache": CACHE_KINDS,
}
GROUP_TITLES = tuple(GROUPS)

#: Wall span kinds → the attribution kind their self-time counts as
#: (``solve`` envelopes carry none of their own).
SPAN_ATTRIBUTION = {"cascade": "reduce", "node_step": "branch", "solve": "branch"}


@dataclass
class BreakdownRow:
    """One graph's Fig. 6 bar: fraction of block time per activity."""

    name: str
    fractions: Dict[str, float]

    def group_totals(self) -> Dict[str, float]:
        return _group_sums(self.fractions)


def _group_sums(by_kind: Mapping[str, float]) -> Dict[str, float]:
    return {title: sum(by_kind.get(kind, 0.0) for kind in kinds)
            for title, kinds in GROUPS.items()}


def breakdown_row(name: str, metrics) -> BreakdownRow:
    """One instance's breakdown from its :class:`~repro.sim.metrics.LaunchMetrics`."""
    fractions = metrics.breakdown_fractions()
    fractions.pop("state_copy", None)  # folded into stack/worklist moves
    return BreakdownRow(name=name, fractions=fractions)


def mean_breakdown(rows: List[BreakdownRow]) -> BreakdownRow:
    """The Fig. 6 "Mean" bar: unweighted mean of per-graph fractions."""
    if not rows:
        return BreakdownRow("Mean", {k: 0.0 for k in ACTIVITY_LABELS})
    fractions: Dict[str, float] = {}
    for kind in ACTIVITY_LABELS:
        fractions[kind] = sum(r.fractions.get(kind, 0.0) for r in rows) / len(rows)
    return BreakdownRow("Mean", fractions)


_WALL_METRIC = "repro_wall_seconds_total"

#: Per-thread attribution sinks (see :func:`local_attribution`).
_LOCAL = threading.local()


@contextmanager
def local_attribution() -> Iterator[Dict[str, float]]:
    """Scoped per-thread sink: inside, this thread's attribution
    (:func:`step_attribution`, :func:`add_wall`) accumulates in the
    yielded ``{kind: seconds}`` dict instead of the process registry.

    An in-process distributed worker reports its own share this way, as
    ``obs_<kind>_s`` comms keys, while its coordinator reads the registry
    for everything else: no second is counted twice.
    """
    sink: Dict[str, float] = {}
    _LOCAL.sink = sink
    try:
        yield sink
    finally:
        _LOCAL.sink = None


def local_sink() -> Optional[Dict[str, float]]:
    """The calling thread's open :func:`local_attribution` sink, if any."""
    return getattr(_LOCAL, "sink", None)


def _sink_inc(sink: Dict[str, float], kind: str) -> Callable[[float], None]:
    def inc(seconds: float) -> None:
        sink[kind] = sink.get(kind, 0.0) + seconds
    return inc


def step_attribution() -> Dict[str, object]:
    """Bound ``inc`` methods for the three per-step kinds, prefetched so
    the armed step wrapper pays zero registry lookups per node."""
    sink = local_sink()
    if sink is not None:
        return {kind: _sink_inc(sink, kind) for kind in ("reduce", "bound", "branch")}
    return {
        kind: _metrics.counter(_WALL_METRIC,
                               "wall seconds attributed per activity kind",
                               kind=kind).inc
        for kind in ("reduce", "bound", "branch")
    }


def add_wall(kind: str, seconds: float) -> None:
    """Attribute ``seconds`` to an engine-level kind (lease/idle/...);
    a no-op while metrics are disarmed."""
    sink = local_sink()
    if sink is not None:
        if _metrics.armed():
            _sink_inc(sink, kind)(seconds)
        return
    _metrics.counter(_WALL_METRIC,
                     "wall seconds attributed per activity kind",
                     kind=kind).inc(seconds)


def wall_by_kind() -> Dict[str, float]:
    """The registry's current per-kind wall attribution, kinds with a
    nonzero total only."""
    vals = _metrics.REGISTRY.values_by_label(_WALL_METRIC, "kind")
    return {k: v for k, v in vals.items() if v > 0.0}


def wall_obs_keys(by_kind: Optional[Mapping[str, float]] = None) -> Dict[str, float]:
    """An attribution as ``obs_<kind>_s`` keys — the shape a worker folds
    into its comms dict so ``CommStats.totals()`` sums the attributions
    home without any new wire fields.  ``by_kind`` defaults to this
    process's registry (:func:`wall_by_kind`); kinds at zero are left
    out."""
    if by_kind is None:
        by_kind = wall_by_kind()
    return {f"obs_{k}_s": v for k, v in by_kind.items() if v > 0.0}


def wall_from_obs_keys(totals: Mapping[str, float]) -> Dict[str, float]:
    """Inverse of :func:`wall_obs_keys` over a comms totals dict."""
    out: Dict[str, float] = {}
    for key, val in totals.items():
        if key.startswith("obs_") and key.endswith("_s"):
            kind = key[4:-2]
            if isinstance(val, (int, float)) and val > 0:
                out[kind] = out.get(kind, 0.0) + float(val)
    return out


def wall_by_kind_from_spans(spans: Iterable["WallSpan"]) -> Dict[str, float]:
    """Self-time attribution over a span tree.

    Each span's duration minus its children's gives self-time;
    ``node_step`` self-time is the branching remainder (find-max, pivot,
    expansion), ``cascade`` → reduce, the rest map by name.  ``solve``
    envelopes carry no attribution of their own.  Cycles-clock spans have
    no parents, so there this is the per-kind sum of charged cycles.
    """
    spans = list(spans)
    child_time: Dict[str, float] = {}
    for s in spans:
        if s.parent_id:
            child_time[s.parent_id] = child_time.get(s.parent_id, 0.0) \
                + s.duration
    out: Dict[str, float] = {}
    for s in spans:
        self_time = max(0.0, s.duration - child_time.get(s.span_id, 0.0))
        if s.kind == "solve":
            continue
        kind = SPAN_ATTRIBUTION.get(s.kind, s.kind)
        out[kind] = out.get(kind, 0.0) + self_time
    return {k: v for k, v in out.items() if v > 0.0}


def group_fractions(by_kind: Mapping[str, float]) -> Dict[str, float]:
    """Fold kind totals (sim or wall kinds) onto the four paper groups,
    normalized to 1."""
    totals = _group_sums(by_kind)
    grand = sum(totals.values())
    if grand <= 0:
        return {title: 0.0 for title in GROUPS}
    return {title: v / grand for title, v in totals.items()}


def render_breakdown_table(
        entries: Sequence[Mapping[str, object]]) -> str:
    """The predicted-vs-measured table for reports and ``repro obs``.

    ``entries`` rows carry ``instance``, ``engine``, and per-group
    fraction dicts under ``predicted`` (sim cycles) and/or ``measured``
    (wall seconds); either side may be absent for an engine that only
    exists in one world.
    """
    if not entries:
        return "(no breakdown data)"
    short = {
        "Work distribution and load balancing": "work-dist",
        "Reducing": "reduce",
        "Branching": "branch",
        "Bounding": "bound",
        "Cache": "cache",
    }
    header = (["instance", "engine", "side"]
              + [short[t] for t in GROUP_TITLES])
    rows: List[List[str]] = []
    for e in entries:
        for side in ("predicted", "measured"):
            fr = e.get(side)
            if not fr:
                continue
            rows.append(
                [str(e.get("instance", "?")), str(e.get("engine", "?")),
                 side]
                + [f"{float(fr.get(t, 0.0)) * 100:5.1f}%"
                   for t in GROUP_TITLES])
    if not rows:
        return "(no breakdown data)"
    widths = [max(len(header[c]), max(len(r[c]) for r in rows))
              for c in range(len(header))]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*header), fmt.format(*("-" * w for w in widths))]
    lines += [fmt.format(*r) for r in rows]
    lines.append("predicted = sim cycles by kind (cost model); "
                 "measured = instrumented wall seconds")
    return "\n".join(lines)

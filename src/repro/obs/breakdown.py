"""Activity kinds, the Fig. 6 group table, and predicted-vs-measured breakdowns.

The sim engines price every charge into the Fig. 6 activity kinds (the
cost model in :mod:`repro.sim.costmodel` imports them from here); the
wall engines, instrumented through the telemetry plane, attribute real
seconds to a coarser taxonomy (reduce / bound / branch /
work-distribution).  One table, :data:`GROUPS`, maps both vocabularies
onto the paper's four activity *groups*, so the Fig. 6 bars, the Gantt
glyphs and a store report laying the simulator's prediction next to a
measured wall-clock breakdown all read the same mapping.

The measured side has one source: self-time over a traced run's spans
(:func:`wall_by_kind_from_spans`).  The traced node step emits
``node_step`` spans with ``cascade``/``bound`` children, the distributed
engine ``lease``/``idle``/``frame`` spans, the cache its lookup and
record, and a worker process ships its drained spans home in its result
frame; ``repro obs view``, perfbench and the experiment cells all read
the same attribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Sequence

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
#: are the self-time of the traced node step's spans (see
#: :data:`SPAN_ATTRIBUTION`);
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

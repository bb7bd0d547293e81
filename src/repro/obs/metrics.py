"""Process-wide metrics registry: counters, gauges, fixed-bucket histograms.

The plane is **disarmed by default** and armed explicitly per solve/run
(``arm()``), mirroring the construction-time binding discipline of
:mod:`repro.core.nodestep` and :mod:`repro.faults`: the disarmed mutator
path is a single module-global read and branch (``if not _armed:
return``) — no allocation, no lock, no dict lookup — so instruments can
live permanently on hot paths.  Instrument *creation* (``counter()``,
``gauge()``, ``histogram()``) is the expensive, locked operation; do it
once at construction/arm time and bind the returned object (or its
``inc``/``observe`` bound method) into your closure.

Export formats:

* :meth:`MetricsRegistry.snapshot` — a plain JSON-able dict, the shape
  persisted by the experiment store and printed by ``repro obs view``;
* :meth:`MetricsRegistry.to_prometheus` — Prometheus text exposition
  (``# TYPE``/``# HELP`` + samples), the shape a future ``repro serve``
  scrape endpoint returns verbatim.

This module absorbs the ad-hoc stat surfaces that grew per-engine:
``CommStats`` dictionaries are published via :func:`publish_comms`,
fault-supervision events via :func:`publish_supervision`, and
``SearchStats`` node counters via :func:`publish_search`, so one
``snapshot()`` sees every engine through the same names.
"""

from __future__ import annotations

import json
import re
import threading
from bisect import bisect_left
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "arm",
    "disarm",
    "armed",
    "counter",
    "gauge",
    "histogram",
    "snapshot",
    "to_prometheus",
    "prometheus_from_snapshot",
    "reset",
    "publish_comms",
    "publish_supervision",
    "publish_search",
]

# ---------------------------------------------------------------------------
# Arming switch.  One module-level bool; every mutator reads it first.
# ---------------------------------------------------------------------------

_armed = False


def arm() -> None:
    """Arm the plane: instrument mutators start recording."""
    global _armed
    _armed = True


def disarm() -> None:
    """Disarm the plane: mutators return after one branch."""
    global _armed
    _armed = False


def armed() -> bool:
    return _armed


_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

LabelItems = Tuple[Tuple[str, str], ...]


def _label_items(labels: Mapping[str, str]) -> LabelItems:
    items = tuple(sorted((str(k), str(v)) for k, v in labels.items()))
    for k, _ in items:
        if not _LABEL_RE.match(k):
            raise ValueError(f"invalid label name: {k!r}")
    return items


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(items: LabelItems, extra: str = "") -> str:
    parts = [f'{k}="{_escape_label_value(v)}"' for k, v in items]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


# ---------------------------------------------------------------------------
# Instruments.  Mutators are the hot path: one global read, one branch.
# ---------------------------------------------------------------------------


class Counter:
    """Monotonically increasing count (events, bytes, seconds of work)."""

    __slots__ = ("name", "help", "labels", "_value")

    kind = "counter"

    def __init__(self, name: str, help: str = "", labels: LabelItems = ()) -> None:
        self.name = name
        self.help = help
        self.labels = labels
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not _armed:
            return
        self._value += amount

    def force(self, amount: float) -> None:
        """Add regardless of arming — for publishing already-collected
        stats (a worker's comms dict) where the cost was paid elsewhere."""
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def _reset(self) -> None:
        self._value = 0.0


class Gauge:
    """A value that goes up and down (queue depth, live workers)."""

    __slots__ = ("name", "help", "labels", "_value")

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labels: LabelItems = ()) -> None:
        self.name = name
        self.help = help
        self.labels = labels
        self._value = 0.0

    def set(self, value: float) -> None:
        if not _armed:
            return
        self._value = value

    def inc(self, amount: float = 1.0) -> None:
        if not _armed:
            return
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        if not _armed:
            return
        self._value -= amount

    def force(self, value: float) -> None:
        self._value = value

    @property
    def value(self) -> float:
        return self._value

    def _reset(self) -> None:
        self._value = 0.0


class Histogram:
    """Fixed-bucket histogram (latencies, span durations).

    ``buckets`` are the inclusive upper bounds, ascending; an implicit
    ``+Inf`` bucket catches the tail.  Bucket layout is fixed at creation
    so ``observe`` is a bisect plus three adds — no resizing on the hot
    path.
    """

    __slots__ = ("name", "help", "labels", "bounds", "counts", "_sum", "_count")

    kind = "histogram"

    def __init__(self, name: str, buckets: Sequence[float],
                 help: str = "", labels: LabelItems = ()) -> None:
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram buckets must be strictly ascending")
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.help = help
        self.labels = labels
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last = +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        if not _armed:
            return
        self.counts[bisect_left(self.bounds, value)] += 1
        self._sum += value
        self._count += 1

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def count(self) -> int:
        return self._count

    def _reset(self) -> None:
        self.counts = [0] * (len(self.bounds) + 1)
        self._sum = 0.0
        self._count = 0


Instrument = Union[Counter, Gauge, Histogram]


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------


class MetricsRegistry:
    """Name × labels → instrument.  Creation is locked; mutation is not
    (CPython's GIL makes lost updates vanishingly rare, and telemetry
    tolerates them; do not use counters for program logic)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, LabelItems], Instrument] = {}

    # -- creation (get-or-create; idempotent) ------------------------------

    def _get_or_create(self, cls, name: str, help: str,
                       labels: Mapping[str, str], **kw) -> Instrument:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        key = (name, _label_items(labels))
        with self._lock:
            inst = self._metrics.get(key)
            if inst is None:
                inst = cls(name, help=help, labels=key[1], **kw)
                self._metrics[key] = inst
            elif type(inst) is not cls:
                raise ValueError(
                    f"metric {name!r} already registered as {inst.kind}")
            return inst

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(self, name: str, buckets: Sequence[float],
                  help: str = "", **labels: str) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels,
                                   buckets=buckets)

    # -- read side ---------------------------------------------------------

    def instruments(self) -> List[Instrument]:
        with self._lock:
            return [self._metrics[k] for k in sorted(self._metrics)]

    def value(self, name: str, **labels: str) -> Optional[float]:
        key = (name, _label_items(labels))
        inst = self._metrics.get(key)
        if inst is None or isinstance(inst, Histogram):
            return None
        return inst.value

    def values_by_label(self, name: str, label: str) -> Dict[str, float]:
        """All samples of ``name``, keyed by one label's value."""
        out: Dict[str, float] = {}
        for (mname, items), inst in list(self._metrics.items()):
            if mname != name or isinstance(inst, Histogram):
                continue
            d = dict(items)
            if label in d:
                out[d[label]] = inst.value
        return out

    def snapshot(self) -> Dict[str, object]:
        """JSON-able snapshot: the persisted / printed shape."""
        metrics: List[Dict[str, object]] = []
        for inst in self.instruments():
            entry: Dict[str, object] = {
                "name": inst.name,
                "type": inst.kind,
                "labels": dict(inst.labels),
            }
            if isinstance(inst, Histogram):
                entry["buckets"] = [list(p) for p in
                                    zip(list(inst.bounds) + ["+Inf"],
                                        inst.counts)]
                entry["sum"] = inst._sum
                entry["count"] = inst._count
            else:
                entry["value"] = inst.value
                if inst.help:
                    entry["help"] = inst.help
            metrics.append(entry)
        return {"armed": _armed, "metrics": metrics}

    def to_prometheus(self) -> str:
        """Prometheus text exposition format 0.0.4."""
        lines: List[str] = []
        seen_header: set = set()
        for inst in self.instruments():
            if inst.name not in seen_header:
                seen_header.add(inst.name)
                if inst.help:
                    lines.append(f"# HELP {inst.name} {inst.help}")
                lines.append(f"# TYPE {inst.name} {inst.kind}")
            if isinstance(inst, Histogram):
                cum = 0
                for bound, n in zip(inst.bounds, inst.counts):
                    cum += n
                    le = 'le="' + repr(bound) + '"'
                    lines.append(
                        f"{inst.name}_bucket{_render_labels(inst.labels, le)} {cum}")
                cum += inst.counts[-1]
                le_inf = 'le="+Inf"'
                lines.append(
                    f"{inst.name}_bucket"
                    f"{_render_labels(inst.labels, le_inf)} {cum}")
                lines.append(
                    f"{inst.name}_sum{_render_labels(inst.labels)} {inst._sum!r}")
                lines.append(
                    f"{inst.name}_count{_render_labels(inst.labels)} {inst._count}")
            else:
                value = inst.value
                text = repr(value) if isinstance(value, float) else str(value)
                lines.append(f"{inst.name}{_render_labels(inst.labels)} {text}")
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        """Zero every instrument (instruments stay registered)."""
        with self._lock:
            for inst in self._metrics.values():
                inst._reset()


#: The process-wide default registry every helper below writes into.
REGISTRY = MetricsRegistry()


def counter(name: str, help: str = "", **labels: str) -> Counter:
    return REGISTRY.counter(name, help, **labels)


def gauge(name: str, help: str = "", **labels: str) -> Gauge:
    return REGISTRY.gauge(name, help, **labels)


def histogram(name: str, buckets: Sequence[float],
              help: str = "", **labels: str) -> Histogram:
    return REGISTRY.histogram(name, buckets, help, **labels)


def snapshot() -> Dict[str, object]:
    return REGISTRY.snapshot()


def to_prometheus() -> str:
    return REGISTRY.to_prometheus()


def reset() -> None:
    REGISTRY.reset()


def prometheus_from_snapshot(snap: Mapping[str, object]) -> str:
    """Render a persisted :meth:`MetricsRegistry.snapshot` dict as
    Prometheus text exposition — ``repro obs export`` converts stored
    per-cell snapshots without reconstructing a live registry.  A
    snapshot or a label set that is not a JSON object raises
    ``ValueError``."""
    if not isinstance(snap, Mapping):
        raise ValueError(f"a metrics snapshot must be a JSON object, "
                         f"not {type(snap).__name__}")
    lines: List[str] = []
    seen_header: set = set()
    for entry in snap.get("metrics", []):
        name = str(entry["name"])
        kind = str(entry.get("type", "counter"))
        labels = entry.get("labels", {})
        if not isinstance(labels, Mapping):
            raise ValueError(f"labels of {name!r} must be a JSON object, "
                             f"not {type(labels).__name__}")
        items = _label_items(labels)
        if name not in seen_header:
            seen_header.add(name)
            if entry.get("help"):
                lines.append(f"# HELP {name} {entry['help']}")
            lines.append(f"# TYPE {name} {kind}")
        if kind == "histogram":
            cum = 0
            for bound, n in entry.get("buckets", []):
                cum += int(n)
                le = 'le="' + (str(bound) if bound == "+Inf"
                               else repr(float(bound))) + '"'
                lines.append(f"{name}_bucket{_render_labels(items, le)} {cum}")
            lines.append(f"{name}_sum{_render_labels(items)} "
                         f"{float(entry.get('sum', 0.0))!r}")
            lines.append(f"{name}_count{_render_labels(items)} "
                         f"{int(entry.get('count', 0))}")
        else:
            lines.append(f"{name}{_render_labels(items)} "
                         f"{float(entry.get('value', 0.0))!r}")
    return "\n".join(lines) + ("\n" if lines else "")


def dump_json(path: str) -> None:
    with open(path, "w") as fh:
        json.dump(REGISTRY.snapshot(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Bridges from the pre-existing ad-hoc stat surfaces.
# ---------------------------------------------------------------------------


def publish_comms(engine: str, totals: Mapping[str, float]) -> None:
    """Fold a ``CommStats``-shaped totals dict into the registry.

    Every numeric key becomes ``repro_comms_<key>_total{engine=...}`` —
    extra keys (codec counters, wire bytes, obs attributions) survive,
    matching ``CommStats.totals()``'s own sum-everything contract.
    """
    for key, val in totals.items():
        if not isinstance(val, (int, float)):
            continue
        name = re.sub(r"[^a-zA-Z0-9_]", "_", str(key))
        REGISTRY.counter(f"repro_comms_{name}_total",
                         "per-engine communication totals",
                         engine=engine).force(float(val))


def publish_supervision(engine: str, events: Mapping[str, float]) -> None:
    """Fault-supervision outcomes (PR 6) as first-class metrics:
    ``recovered`` / ``respawns`` / ``retired_slots`` / ``lost_subtrees``
    / ``inline_drains`` land on
    ``repro_supervision_events_total{engine=,event=}``."""
    for event, val in events.items():
        if not isinstance(val, (int, float)) or not val:
            continue
        REGISTRY.counter("repro_supervision_events_total",
                         "worker supervision events by kind",
                         engine=engine, event=str(event)).force(float(val))


def publish_search(engine: str, nodes: int, optimum: Optional[int] = None,
                   wall_seconds: Optional[float] = None) -> None:
    """Headline search outcomes for one solve."""
    REGISTRY.counter("repro_nodes_visited_total",
                     "search tree nodes visited", engine=engine).force(nodes)
    if wall_seconds is not None:
        REGISTRY.counter("repro_solve_wall_seconds_total",
                         "wall time spent solving", engine=engine
                         ).force(float(wall_seconds))
    if optimum is not None:
        REGISTRY.gauge("repro_last_optimum",
                       "cover size of the most recent solve",
                       engine=engine).force(float(optimum))

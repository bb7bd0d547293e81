"""Span tracing on two clocks: wall time across workers, cycles on the
simulated GPU.

One span model serves predicted and measured time.  A :class:`WallTracer`
carries a ``clock``:

* ``"wall"`` — armed process-wide (:func:`arm`), it records
  :class:`WallSpan` intervals in seconds on a shared monotonic epoch —
  worker threads straight into it, each on its own lane — and the
  coordinator merges spans drained home from remote workers (on their
  ``result`` frames over the ``net/`` sockets) into one timeline keyed by
  real ``(pid, tid)`` lanes.
* ``"cycles"`` — assigned to a simulated engine's ``tracer`` attribute,
  it receives one span per cycle charge from the block contexts
  (:mod:`repro.sim.context`), in virtual cycles, with ``pid`` the SM and
  ``tid`` the block.

Identity model:

* ``trace_id`` — one hex string per traced solve, minted by the
  coordinator and propagated verbatim through spawn args and the
  distributed ``init`` frame, so every participating process tags spans
  with the same id.
* ``span_id`` — ``"<pid:x>.<seq:x>"``: unique across processes without
  coordination because the pid is baked in.
* ``parent_id`` — maintained by a per-thread open-span stack, so spans
  nest properly even when engines interleave step and frontier work.

Clock model: spans are seconds relative to the tracer ``epoch``
(``time.monotonic()`` at arm time).  ``CLOCK_MONOTONIC`` is system-wide
on Linux, so ``serve-worker`` processes on the same host get a directly
comparable clock; a *remote* host arms with the coordinator's elapsed
offset from the ``init`` frame, which is accurate to one network hop
(documented in ``docs/OBSERVABILITY.md``).

Exports, for both clocks: Chrome trace-event JSON (:func:`to_chrome`,
loadable in Perfetto / ``chrome://tracing``, read back by
:func:`load_chrome`) and an ASCII Gantt (:func:`render_wall_gantt`).
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .breakdown import GROUP_TITLES, GROUPS, SPAN_ATTRIBUTION

__all__ = [
    "WallSpan",
    "WallTracer",
    "arm",
    "disarm",
    "armed",
    "get",
    "set_worker",
    "span",
    "to_chrome",
    "dump_chrome",
    "load_chrome",
    "render_wall_gantt",
    "SPAN_KINDS",
    "CLOCKS",
]

#: The span taxonomy.  ``node_step`` wraps one search-tree node;
#: ``cascade`` (reduction fixpoint) and ``bound`` (prune evaluation) nest
#: inside it; ``lease`` / ``idle`` are frontier and supervision work;
#: ``frame`` is socket codec+transport time; ``solve`` is the whole-run
#: envelope; ``cache_lookup`` / ``cache_record`` are the solve cache's
#: work before and after the search.
SPAN_KINDS = ("solve", "node_step", "cascade", "bound",
              "lease", "idle", "frame", "cache_lookup", "cache_record")

#: Span clocks → Chrome ``ts``/``dur`` ticks per span time unit: wall
#: seconds are written in µs, simulated cycles as they are.
CLOCKS = {"wall": 1e6, "cycles": 1.0}


class WallSpan:
    """One closed interval ``[t0, t1]``: seconds relative to the epoch on
    the wall clock, virtual cycles from launch start on the cycles clock."""

    __slots__ = ("kind", "t0", "t1", "pid", "tid", "span_id", "parent_id")

    def __init__(self, kind: str, t0: float, t1: float, pid: int, tid: int,
                 span_id: str, parent_id: Optional[str]) -> None:
        self.kind = kind
        self.t0 = t0
        self.t1 = t1
        self.pid = pid
        self.tid = tid
        self.span_id = span_id
        self.parent_id = parent_id

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def to_list(self) -> list:
        """Wire/JSON shape (survives the v2 codec and socket frames)."""
        return [self.kind, self.t0, self.t1, self.pid, self.tid,
                self.span_id, self.parent_id or ""]

    @classmethod
    def from_list(cls, row: Sequence) -> "WallSpan":
        kind, t0, t1, pid, tid, span_id, parent_id = row[:7]
        return cls(str(kind), float(t0), float(t1), int(pid), int(tid),
                   str(span_id), str(parent_id) or None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"WallSpan({self.kind!r}, {self.t0:.6f}..{self.t1:.6f}, "
                f"pid={self.pid}, tid={self.tid}, id={self.span_id})")


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: List[Tuple[str, float, str]] = []  # (kind, t0, span_id)
        self.tid: Optional[int] = None


class WallTracer:
    """Per-process span collector for one ``trace_id``.

    ``begin``/``end`` are the hot-path pair: ``begin`` pushes onto a
    per-thread stack (establishing parentage), ``end`` pops and appends
    a :class:`WallSpan`.  A ``clock="cycles"`` tracer is fed by
    :meth:`add` instead, one span per simulated charge.  Spans beyond
    ``max_spans`` are counted in ``dropped`` instead of stored, bounding
    memory on huge trees.
    """

    DEFAULT_MAX_SPANS = 2_000_000

    def __init__(self, trace_id: Optional[str] = None,
                 epoch: Optional[float] = None,
                 max_spans: int = DEFAULT_MAX_SPANS,
                 clock: str = "wall") -> None:
        if clock not in CLOCKS:
            raise ValueError(f"unknown trace clock {clock!r}; choose from {tuple(CLOCKS)}")
        self.clock = clock
        self.trace_id = trace_id or uuid.uuid4().hex[:16]
        self.epoch = time.monotonic() if epoch is None else float(epoch)
        self.max_spans = int(max_spans)
        self.spans: List[WallSpan] = []
        self.dropped = 0
        self._pid = os.getpid()
        self._seq = 0
        self._seq_lock = threading.Lock()
        self._local = _ThreadState()

    # -- identity ----------------------------------------------------------

    def _next_id(self) -> str:
        with self._seq_lock:
            self._seq += 1
            return f"{self._pid:x}.{self._seq:x}"

    def now(self) -> float:
        return time.monotonic() - self.epoch

    def set_tid(self, tid: int) -> None:
        """Pin this thread's lane id (worker index); defaults to 0."""
        self._local.tid = int(tid)

    # -- hot path ----------------------------------------------------------

    def begin(self, kind: str) -> Tuple[str, float, str]:
        token = (kind, time.monotonic() - self.epoch, self._next_id())
        self._local.stack.append(token)
        return token

    def end(self, token: Tuple[str, float, str]) -> None:
        stack = self._local.stack
        # Pop back to (and including) the token; tolerates a crashed
        # child span that never closed (fault-injection recovery paths).
        while stack:
            top = stack.pop()
            if top is token:
                break
        parent_id = stack[-1][2] if stack else None
        kind, t0, span_id = token
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return
        tid = self._local.tid
        self.spans.append(WallSpan(kind, t0, time.monotonic() - self.epoch,
                                   self._pid, 0 if tid is None else tid,
                                   span_id, parent_id))

    def add(self, kind: str, t0: float, t1: float, pid: int, tid: int) -> None:
        """Store one span measured by the caller (the simulator's charge
        hook); it has no id and no parent."""
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return
        self.spans.append(WallSpan(kind, t0, t1, pid, tid, "", None))

    # -- merge / drain -----------------------------------------------------

    def absorb(self, rows: Iterable[Sequence]) -> None:
        """Merge serialized spans drained home from a worker."""
        for row in rows:
            if len(self.spans) >= self.max_spans:
                self.dropped += 1
                continue
            self.spans.append(WallSpan.from_list(row))

    def drain(self) -> List[list]:
        """Serialize and clear — what a worker ships in its result."""
        out = [s.to_list() for s in self.spans]
        self.spans = []
        return out


# ---------------------------------------------------------------------------
# Module-level switchboard (mirrors repro.faults): one tracer per process,
# armed explicitly, shared by its threads.
# ---------------------------------------------------------------------------

_TRACER: Optional[WallTracer] = None


def arm(trace_id: Optional[str] = None, epoch: Optional[float] = None,
        max_spans: int = WallTracer.DEFAULT_MAX_SPANS) -> WallTracer:
    """Install (and return) the process tracer.  Re-arming replaces it."""
    global _TRACER
    _TRACER = WallTracer(trace_id, epoch, max_spans)
    return _TRACER


def disarm() -> Optional[WallTracer]:
    """Remove the process tracer; returns it so callers can export."""
    global _TRACER
    tracer, _TRACER = _TRACER, None
    return tracer


def armed() -> bool:
    return _TRACER is not None


def get() -> Optional[WallTracer]:
    return _TRACER


def set_worker(tid: int) -> None:
    """Tag the current thread's spans with a worker lane id."""
    if _TRACER is not None:
        _TRACER.set_tid(tid)


class span:
    """``with span("lease"): ...`` — no-op when disarmed.

    For code that runs a few times per solve (leases, frames, drains);
    the per-node hot path uses construction-time binding instead (see
    :class:`repro.core.nodestep.NodeStep`).
    """

    __slots__ = ("kind", "_token", "_tracer")

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._tracer = _TRACER
        self._token = None

    def __enter__(self) -> "span":
        if self._tracer is not None:
            self._token = self._tracer.begin(self.kind)
        return self

    def __exit__(self, *exc) -> None:
        if self._tracer is not None and self._token is not None:
            self._tracer.end(self._token)


# ---------------------------------------------------------------------------
# Exports.
# ---------------------------------------------------------------------------


def to_chrome(tracer: WallTracer) -> Dict[str, object]:
    """Chrome trace-event JSON (the ``{"traceEvents": [...]}`` wrapper).

    Complete events (``ph: "X"``, ``cat`` the clock) with timestamps in
    µs relative to the trace epoch (wall) or in cycles (cycles); ``pid``
    is the OS pid or SM, ``tid`` the worker lane or block.  Loadable in
    Perfetto or ``chrome://tracing``.
    """
    clock = tracer.clock
    ticks = CLOCKS[clock]
    events: List[Dict[str, object]] = []
    for s in tracer.spans:
        ts, dur = s.t0 * ticks, max(0.0, s.duration) * ticks
        if clock == "wall":
            ts, dur = round(ts, 3), round(dur, 3)
        events.append({
            "name": s.kind,
            "cat": clock,
            "ph": "X",
            "ts": ts,
            "dur": dur,
            "pid": s.pid,
            "tid": s.tid,
            "args": {"span_id": s.span_id, "parent_id": s.parent_id or ""},
        })
    return {
        "displayTimeUnit": "ms",
        "traceEvents": events,
        "otherData": {"trace_id": tracer.trace_id,
                      "dropped_spans": tracer.dropped, "clock": clock,
                      "producer": "repro.obs.trace"},
    }


def dump_chrome(path: str, tracer: WallTracer) -> None:
    with open(path, "w") as fh:
        json.dump(to_chrome(tracer), fh)
        fh.write("\n")


def load_chrome(path: str) -> WallTracer:
    """Inverse of :func:`dump_chrome`: a detached tracer holding the
    file's spans, clock, ``trace_id`` and dropped count.  A file that is
    not a Chrome trace raises ``ValueError``."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents", []), list):
        raise ValueError("not a Chrome trace: want an object with a traceEvents list")
    try:
        other = doc.get("otherData", {})
        tracer = WallTracer(clock=str(other.get("clock", "wall")))
        tracer.trace_id = str(other.get("trace_id", ""))
        tracer.dropped = int(other.get("dropped_spans", 0))
        ticks = CLOCKS[tracer.clock]
        for ev in doc.get("traceEvents", []):
            if ev.get("ph") != "X":
                continue
            args = ev.get("args", {})
            t0 = float(ev["ts"]) / ticks
            tracer.spans.append(WallSpan(
                str(ev.get("name", "?")), t0,
                t0 + float(ev.get("dur", 0.0)) / ticks,
                int(ev.get("pid", 0)), int(ev.get("tid", 0)),
                str(args.get("span_id", "")),
                str(args.get("parent_id", "")) or None))
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed trace ({type(exc).__name__}: {exc})") from exc
    return tracer


#: Dominant-glyph family per kind, read off the one group table; wall
#: span kinds go through the attribution kind they stand for.
_GROUP_GLYPH = dict(zip(GROUP_TITLES, "wrblc"))
_KIND_GLYPH = {kind: _GROUP_GLYPH[title]
               for title, kinds in GROUPS.items() for kind in kinds}


def render_wall_gantt(spans: Sequence[WallSpan], *, width: int = 80,
                      legend: bool = True, clock: str = "wall") -> str:
    """ASCII Gantt on either clock: one lane per ``(pid, tid)`` — worker
    lanes on the wall clock, (SM, block) on the cycles clock — and the
    dominant activity-group glyph per time bucket."""
    if not spans:
        return "(no spans)"
    lanes = sorted({(s.pid, s.tid) for s in spans})
    lane_index = {lane: i for i, lane in enumerate(lanes)}
    t_lo = min(s.t0 for s in spans)
    t_hi = max(s.t1 for s in spans)
    extent = max(t_hi - t_lo, 1e-9)
    bucket = extent / width
    # weight[lane][col][glyph] -> time of that family in the bucket
    weights = [[{} for _ in range(width)] for _ in lanes]
    for s in spans:
        glyph = _KIND_GLYPH.get(SPAN_ATTRIBUTION.get(s.kind, s.kind), "b")
        if s.kind in ("node_step", "solve"):
            # container spans would shadow their nested children; weight
            # them lightly so self-time (branching) shows only where no
            # child span covers the bucket.
            weight = 0.25
        else:
            weight = 1.0
        c0 = int((s.t0 - t_lo) / bucket)
        c1 = int((s.t1 - t_lo) / bucket)
        row = weights[lane_index[(s.pid, s.tid)]]
        for c in range(max(0, c0), min(width - 1, c1) + 1):
            seg_lo = t_lo + c * bucket
            seg_hi = seg_lo + bucket
            overlap = min(s.t1, seg_hi) - max(s.t0, seg_lo)
            if overlap <= 0:
                overlap = 1e-12
            cell = row[c]
            cell[glyph] = cell.get(glyph, 0.0) + overlap * weight
    label_w = max(len(f"{p}/{t}") for p, t in lanes)
    out: List[str] = []
    span_of = f"{extent * 1e3:.2f} ms" if clock == "wall" else f"{extent:.0f} cycles"
    out.append(f"{clock} gantt: {len(spans)} spans over {span_of} "
               f"({len(lanes)} lanes)")
    for lane in lanes:
        row = weights[lane_index[lane]]
        cells = []
        for cell in row:
            if not cell:
                cells.append(".")
            else:
                cells.append(max(cell.items(), key=lambda kv: kv[1])[0])
        out.append(f"{lane[0]}/{lane[1]}".rjust(label_w) + " |"
                   + "".join(cells) + "|")
    if legend:
        out.append(" " * label_w
                   + "  b=branch/step r=reduce l=bound w=work-dist c=cache .=gap")
    return "\n".join(out)

"""Real shared-memory parallel engine: threads + a global worklist.

The paper compares its GPU kernels against a *sequential* CPU baseline and
explicitly notes that a fair CPU comparison would need a parallel CPU
implementation — this engine (and the socket engine in
:mod:`repro.net.distributed`) provides one, mirroring the hybrid protocol:
per-worker local stacks, a bounded global deque with a donation
threshold, a shared incumbent bound, and the all-workers-waiting
termination test.

Under CPython the GIL serialises bytecode, so wall-clock speedups are
modest (NumPy kernels release the GIL); the engine's value is that the
*coordination protocol* — donation, termination, bound propagation —
runs under genuine concurrency and is exercised by the test suite for
races the DES cannot produce.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import faults
from ..core.formulation import BestBound, Formulation, FoundFlag, MVCFormulation, PVCFormulation
from ..core.frontier import GlobalWorklistFrontier, LifoFrontier, hybrid_should_donate
from ..core.greedy import greedy_cover
from ..core.kernel_backends import resolve_kernels
from ..core.nodestep import LEAF, PRUNED, NodeStep
from ..graph.csr import CSRGraph
from ..graph.degree_array import VCState, Workspace, fresh_state
from ..obs import breakdown as obs_breakdown
from ..obs import trace as obs_trace

__all__ = ["CommStats", "CpuParallelResult", "solve_mvc_threads", "solve_pvc_threads"]


class CommStats:
    """Per-worker communication counters (messages, bytes, lease traffic).

    Accumulated inside each worker, shipped home with its ``result``
    event (or deposited under the shared lock for thread engines), and
    aggregated onto :attr:`CpuParallelResult.comms` — so the
    GlobalOnly-vs-Hybrid question is answerable in traffic terms, not
    just node counts.  ``repro solve --stats`` prints the totals, and
    :func:`repro.obs.metrics.publish_comms` folds them into the metrics
    registry when the telemetry plane is armed.
    """

    __slots__ = ("messages", "bytes_sent", "bytes_received", "leases",
                 "subtrees", "donations", "idle_s")

    FIELDS = ("messages", "bytes_sent", "bytes_received", "leases",
              "subtrees", "donations", "idle_s")

    def __init__(self) -> None:
        self.messages = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.leases = 0
        self.subtrees = 0
        self.donations = 0
        self.idle_s = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {name: getattr(self, name) for name in self.FIELDS}

    @staticmethod
    def totals(per_worker: Dict[int, Dict[str, float]]) -> Dict[str, float]:
        # Sum every reported key, not just FIELDS: transports with exact
        # byte accounting (the socket engine's wire_sent/wire_received)
        # extend the dict — as do the telemetry plane's obs_<kind>_s
        # wall attributions — and those extras must survive aggregation.
        out: Dict[str, float] = {name: 0 for name in CommStats.FIELDS}
        for counters in per_worker.values():
            for name, value in counters.items():
                out[name] = out.get(name, 0) + value
        return out


@dataclass
class CpuParallelResult:
    """Outcome of a CPU-parallel run."""

    engine: str
    formulation: str
    optimum: Optional[int]
    cover: Optional[np.ndarray]
    feasible: Optional[bool]
    timed_out: bool
    nodes_visited: int
    n_workers: int
    wall_seconds: float
    greedy_size: int
    per_worker_nodes: List[int] = field(default_factory=list)
    #: tree nodes still pending when an interrupted run wound down —
    #: worker leftovers plus the drained shared pool (anytime checkpoints).
    pending_states: List[VCState] = field(default_factory=list)
    #: the wall-clock ``deadline`` (not the node budget) tripped.
    deadline_tripped: bool = False
    #: injected step faults recovered by re-enqueueing the pre-step state.
    faults_recovered: int = 0
    #: workers that died mid-run (their in-flight work was preserved).
    workers_lost: int = 0
    #: communication counters, all parallel engines —
    #: ``{"per_worker": {wid: {...}}, "totals": {...}}`` (messages, bytes,
    #: leases, donations, idle time; the thread engine reports the
    #: shared-memory subset: donations/subtrees + idle seconds).
    comms: Optional[Dict[str, object]] = None
    #: fault-supervision outcomes (PR 6), surfaced instead of buried in
    #: ``RuntimeWarning``s: ``recovered`` / ``workers_lost`` plus, for
    #: supervised engines, ``respawns`` / ``retired_slots`` /
    #: ``inline_drains`` / ``lost_subtrees``.
    supervision: Optional[Dict[str, float]] = None

    @property
    def stats(self):  # harness parity
        return self


class _ThreadShared:
    """Coordination state shared by all worker threads.

    The shared pool is a plain :class:`GlobalWorklistFrontier` (FIFO);
    this class owns only the *coordination* around it — the condition
    variable, the all-waiting termination test, and the node budget.
    Ordering policy lives in the frontier layer, synchronisation here.
    """

    def __init__(self, n_workers: int, threshold: int, node_budget: Optional[int],
                 deadline: Optional[float] = None):
        self.cond = threading.Condition()
        self.queue: GlobalWorklistFrontier = GlobalWorklistFrontier()
        self.threshold = threshold
        self.n_workers = n_workers
        self.n_alive = n_workers  # dead workers leave the termination quorum
        self.waiting = 0
        self.done = False
        self.nodes = 0
        self.node_budget = node_budget
        self.deadline_at = None if deadline is None else time.monotonic() + deadline
        self.timed_out = False
        self.deadline_tripped = False
        self.leftovers: List[VCState] = []   # in-flight states of exiting workers
        self.recovered = 0                   # injected step faults survived
        self.lost = 0                        # workers that died mid-run
        self.comm_rows: Dict[int, Dict[str, float]] = {}  # wid -> counters

    def stop(self, formulation: Formulation) -> bool:
        return self.done or self.timed_out or formulation.stop_requested()

    def note_node(self) -> None:
        # Called under self.cond's lock.
        self.nodes += 1
        if self.node_budget is not None and self.nodes >= self.node_budget:
            self.timed_out = True
            self.cond.notify_all()
        if self.deadline_at is not None and time.monotonic() >= self.deadline_at:
            self.timed_out = True
            self.deadline_tripped = True
            self.cond.notify_all()

    def wait_remove(self, formulation: Formulation) -> Optional[VCState]:
        """Blocking removal with the all-waiting termination test."""
        with self.cond:
            self.waiting += 1
            while True:
                if self.stop(formulation):
                    self.waiting -= 1
                    return None
                state = self.queue.pop()
                if state is not None:
                    self.waiting -= 1
                    return state
                if self.waiting >= self.n_alive:
                    self.done = True
                    self.cond.notify_all()
                    self.waiting -= 1
                    return None
                self.cond.wait(timeout=0.05)

    def donate_or_keep(self, state: VCState, local: LifoFrontier) -> bool:
        """Fig. 4's donation policy: feed the pool while it is hungry.

        Returns ``True`` when the state was donated to the shared pool
        (the comms counter the thread engines report per worker).
        """
        with self.cond:
            if hybrid_should_donate(len(self.queue), self.threshold):
                self.queue.push(state)
                self.cond.notify()
                return True
        local.push(state)
        return False


def _worker(
    graph: CSRGraph,
    formulation: Formulation,
    shared: _ThreadShared,
    node_counts: List[int],
    wid: int,
    bound: str,
    kernels,
) -> None:
    ws = Workspace.for_graph(graph)
    obs_trace.set_worker(wid)  # spans from this thread land on lane `wid`
    # fast kernels, uncharged; each worker owns its bound-policy instance
    step = NodeStep(graph, formulation, ws, bound=bound, kernels=kernels).run
    fault_guard = faults.step_guard_active()
    local = LifoFrontier()  # this worker's depth-first half of the hybrid
    current: Optional[VCState] = None
    donations = 0
    subtrees = 0
    idle_s = 0.0
    try:
        while True:
            with shared.cond:
                if shared.stop(formulation):
                    break
            if current is None:
                current = local.pop()
                if current is None:
                    idle_from = time.perf_counter()
                    with obs_trace.span("idle"):
                        current = shared.wait_remove(formulation)
                    idle_s += time.perf_counter() - idle_from
                    if current is None:
                        break
                    subtrees += 1
            with shared.cond:
                shared.note_node()
            node_counts[wid] += 1
            if fault_guard:
                backup = current.copy()
                try:
                    outcome = step(current)
                except faults.FaultInjected:
                    # recover: the pristine pre-step copy goes back to work
                    with shared.cond:
                        shared.recovered += 1
                    if shared.donate_or_keep(backup, local):
                        donations += 1
                    current = None
                    continue
            else:
                outcome = step(current)
            if outcome is PRUNED:
                current = None
                continue
            if outcome is LEAF:
                with shared.cond:
                    stop_all = formulation.accept(current)
                    if stop_all:
                        shared.cond.notify_all()
                ws.release_deg(current.deg)  # accept() extracted the cover under the lock
                current = None
                continue
            deferred = outcome.deferred
            current = outcome.continued
            if shared.donate_or_keep(deferred, local):
                donations += 1
    except BaseException:  # unexpected death: preserve work, leave the quorum
        with shared.cond:
            shared.lost += 1
    finally:
        # Deposit everything still in hand (in-flight node + local stack)
        # and shrink the termination quorum so siblings can still reach
        # the all-waiting consensus.  On a clean finish both are empty.
        obs_breakdown.add_wall("idle", idle_s)
        with shared.cond:
            shared.comm_rows[wid] = {"donations": donations,
                                     "subtrees": subtrees, "idle_s": idle_s}
            if current is not None:
                shared.leftovers.append(current)
            shared.leftovers.extend(local.drain())
            shared.n_alive -= 1
            shared.cond.notify_all()


def _run_threads(
    graph: CSRGraph,
    formulation: Formulation,
    *,
    n_workers: int,
    threshold: int,
    node_budget: Optional[int],
    bound: str = "greedy",
    kernels=None,
    deadline: Optional[float] = None,
    roots: Optional[Sequence[VCState]] = None,
) -> tuple[_ThreadShared, List[int], float]:
    shared = _ThreadShared(n_workers, threshold, node_budget, deadline)
    for state in ([fresh_state(graph)] if roots is None else roots):
        shared.queue.push(state)
    # Build the graph's lazy query caches here, before workers exist, so
    # the worker threads only ever read them.  The selected kernel backend
    # says which caches its hot paths will touch.
    backend = resolve_kernels(kernels)
    graph.prewarm(adjacency=backend.uses_adjacency(graph))
    node_counts = [0] * n_workers
    threads = [
        threading.Thread(
            target=_worker,
            args=(graph, formulation, shared, node_counts, w, bound, backend),
            daemon=True
        )
        for w in range(n_workers)
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if shared.timed_out:
        # interrupted: the worker leftovers plus the shared pool are the
        # unexplored remainder (workers deposited before exiting)
        shared.leftovers.extend(shared.queue.drain())
    return shared, node_counts, time.perf_counter() - start


def solve_mvc_threads(graph: CSRGraph, **options: Any) -> CpuParallelResult:
    """Minimum vertex cover with a thread team running the hybrid protocol."""
    return _solve_threads(graph, None, **options)


def solve_pvc_threads(graph: CSRGraph, k: int, **options: Any) -> CpuParallelResult:
    """Parameterized vertex cover with a thread team."""
    return _solve_threads(graph, k, **options)


def _solve_threads(
    graph: CSRGraph,
    k: Optional[int],
    *,
    n_workers: int = 4,
    threshold: int = 32,
    node_budget: Optional[int] = None,
    bound: str = "greedy",
    kernels=None,
    deadline: Optional[float] = None,
    roots: Optional[Sequence[VCState]] = None,
    initial_best: Optional[Tuple[int, np.ndarray]] = None,
    **_: object,
) -> CpuParallelResult:
    """MVC (``k`` None) or PVC (size at most ``k``) on one thread team.

    ``initial_best`` seeds the MVC incumbent (a resumed anytime leg).
    """
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    if threshold < 1:
        raise ValueError(f"threshold must be at least 1, got {threshold}")
    if k is not None and k < 0:
        raise ValueError("k must be non-negative")
    greedy = greedy_cover(graph, kernels=kernels)
    if k is None:
        best = BestBound(size=greedy.size, cover=greedy.cover)
        if initial_best is not None and initial_best[0] < best.size:
            best = BestBound(size=int(initial_best[0]),
                             cover=np.asarray(initial_best[1], dtype=np.int32))
        formulation: Formulation = MVCFormulation(best)
    else:
        flag = FoundFlag()
        formulation = PVCFormulation(k=k, flag=flag)
    name = "mvc" if k is None else "pvc"
    if graph.m == 0:
        return CpuParallelResult("cpu-threads", name, 0, np.empty(0, dtype=np.int32),
                                 None if k is None else True, False, 0, n_workers,
                                 0.0, greedy.size)
    shared, node_counts, wall = _run_threads(
        graph, formulation, n_workers=n_workers, threshold=threshold,
        node_budget=node_budget, bound=bound, kernels=kernels,
        deadline=deadline, roots=roots
    )
    timed_out = shared.timed_out
    if k is None:
        optimum, cover, feasible = best.size, best.cover, None
    else:
        optimum, cover = flag.size, flag.cover
        feasible = None if (timed_out and not flag.found) else flag.found
    return CpuParallelResult(
        engine="cpu-threads",
        formulation=name,
        optimum=optimum,
        cover=cover,
        feasible=feasible,
        timed_out=timed_out,
        nodes_visited=shared.nodes,
        n_workers=n_workers,
        wall_seconds=wall,
        greedy_size=greedy.size,
        per_worker_nodes=node_counts,
        pending_states=shared.leftovers if timed_out else [],
        deadline_tripped=shared.deadline_tripped,
        faults_recovered=shared.recovered,
        workers_lost=shared.lost,
        comms={"per_worker": dict(shared.comm_rows),
               "totals": CommStats.totals(shared.comm_rows)},
    )

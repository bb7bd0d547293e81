"""Real multi-process parallel engine: the hybrid protocol without a GIL.

Workers are OS processes supervised by the parent.  The parent owns the
work queue outright: workers *lease* sub-trees from it and route every
donation back through a synchronous event channel, so all accounting —
what is queued, what is leased to whom, when the search is globally done
— lives in exactly one place, the supervisor loop.  That is what makes
worker death recoverable:

* every worker message (``lease``/``lease_done``/``donate``/``best``/
  ``result``) travels over a :class:`multiprocessing.SimpleQueue`, which
  has **no feeder thread** — once ``put`` returns, the message is in the
  pipe and survives the sender's death (a buffered ``mp.Queue`` put can
  vanish with the process, which is exactly how the old teardown lost
  work and hung for up to 600 s);
* a leased batch of sub-trees stays charged to its worker until the
  worker reports ``lease_done`` (batch fully drained or shipped back as
  leftovers).  When the supervisor sees a worker die mid-lease
  (``Process.is_alive`` goes false with no ``result`` message), it
  re-enqueues the lease payload — the sub-tree *roots*, which dominate
  everything the dead worker had expanded locally — and respawns the
  slot with bounded retry and exponential backoff, degrading to fewer
  workers (loud warning) when a slot keeps dying;
* if every slot dies, the parent drains the remaining sub-trees itself
  through the sequential solver, so the call still returns the correct
  answer instead of hanging.

Termination is the supervisor's ledger test: nothing pending in the
queue and no lease outstanding means no node anywhere can spawn more
work, so the parent sets the ``done`` event and workers wind down,
shipping their in-flight states back (the anytime layer checkpoints
them when a node budget or wall-clock deadline tripped the run).

Three communications optimizations sit on top of the PR 6 protocol, all
ledger-neutral:

* **batched leases** — the queue carries *lists* of up to ``lease_batch``
  sub-tree payloads; one ``lease``/``lease_done`` pair charges the whole
  batch, and workers buffer donations and flush them as one ``donate``
  message, amortizing the per-message pipe cost;
* **wire codec v2** — states are delta-encoded against the shared root
  degree plane (:mod:`repro.graph.plane`), published once into
  ``multiprocessing.shared_memory`` and attached by every worker; the
  frozen tuple codec stays available as ``codec="v1"``;
* **idle backoff** — an idle worker blocks on the queue with exponential
  backoff capped at the supervision heartbeat instead of spinning at a
  fixed 20 ms poll.

States cross process boundaries through the :class:`VCState`-owned wire
codec (:meth:`~repro.graph.degree_array.VCState.to_wire` /
:meth:`~repro.graph.degree_array.VCState.to_wire_v2`) — the same
self-contained property (Section IV-B) that lets the GPU implementation
move tree nodes between thread blocks.  Improved incumbent *covers* are
shipped to the parent the moment they are accepted (the shared
``best_size`` value alone would let a dying worker strand the cover its
siblings are already pruning against).
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import time
import warnings
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .. import faults
from ..core import native
from ..core.formulation import BestBound, Formulation, FoundFlag, MVCFormulation, PVCFormulation
from ..core.frontier import LifoFrontier, hybrid_should_donate
from ..core.greedy import greedy_cover
from ..core.kernel_backends import resolve_kernels
from ..core.nodestep import LEAF, PRUNED, NodeStep
from ..core.sequential import branch_and_reduce
from ..graph.csr import CSRGraph
from ..graph.degree_array import VCState, Workspace, decode_wire, fresh_state, wire_nbytes
from ..graph.plane import GraphPlane, publish_plane
from ..obs import breakdown as obs_breakdown
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .cpu_threads import CommStats, CpuParallelResult

__all__ = ["CommStats", "solve_mvc_processes", "solve_pvc_processes",
           "LEASE_BATCH"]

#: Respawn policy: how often one worker slot may die before the engine
#: degrades to fewer workers, and the base of the exponential backoff.
MAX_RESPAWNS = 2
RESPAWN_BACKOFF_S = 0.05

#: Sub-trees handed out per ``lease`` message (and buffered per
#: ``donate`` flush).  1 recovers the PR 6 per-node protocol exactly.
LEASE_BATCH = 8

#: Idle-poll backoff: first wait and the cap.  The cap doubles as the
#: supervision heartbeat — the longest an idle worker can take to notice
#: the ``done`` event or fresh work.
_BACKOFF_MIN_S = 0.001
_HEARTBEAT_S = 0.05

#: ``stop_reason`` codes (shared value; first tripper wins).
_STOP_NONE, _STOP_BUDGET, _STOP_DEADLINE = 0, 1, 2


class _SharedMVC(Formulation):
    """MVC formulation whose incumbent lives in shared process memory."""

    name = "mvc"

    def __init__(self, best_size: "mp.Value", lock: "mp.Lock"):
        self.best_size = best_size
        self.lock = lock
        self.local_best: Optional[VCState] = None
        self.improved = False  # set by accept(); the worker ships the cover

    def budget(self, cover_size: int) -> int:
        return self.best_size.value - cover_size - 1

    def accept(self, state: VCState) -> bool:
        with self.lock:
            if state.cover_size < self.best_size.value:
                self.best_size.value = state.cover_size
                self.local_best = state.copy()
                self.improved = True
        return False


class _SharedPVC(Formulation):
    """PVC formulation driven by a shared found-event."""

    name = "pvc"

    def __init__(self, k: int, found: "mp.Event"):
        self.k = k
        self.found = found
        self.local_best: Optional[VCState] = None
        self.improved = False

    def budget(self, cover_size: int) -> int:
        return self.k - cover_size

    def accept(self, state: VCState) -> bool:
        if state.cover_size <= self.k:
            self.local_best = state.copy()
            self.improved = True
            self.found.set()
            return True
        return False

    def stop_requested(self) -> bool:
        return self.found.is_set()


def _attach_root_plane(
    plane_name: Optional[str], graph: CSRGraph,
) -> Tuple[Optional[GraphPlane], np.ndarray]:
    """The shared root degree plane, or the fork-inherited fallback."""
    if plane_name:
        try:
            plane = GraphPlane.attach(plane_name)
            return plane, plane.root_deg
        except Exception:  # pragma: no cover - segment gone / no shm
            pass
    return None, np.asarray(graph.degrees, dtype=np.int32)


def _codec_fns(
    codec: str, root_deg: np.ndarray,
) -> Tuple[Callable[[VCState], object], Callable[[object], VCState]]:
    """(encode, decode) pair for the selected wire codec.

    Codec v2 runs on the compiled twins of ``VCState.to_wire_v2`` and
    ``from_wire_v2`` (byte-identical frames) when the native extension
    is available.
    """
    if codec == "v1":
        return (lambda s: s.to_wire()), VCState.from_wire
    if codec == "v2":
        ext = native.load()
        if ext is None:
            return (lambda s: s.to_wire_v2(root_deg)), \
                   (lambda p: VCState.from_wire_v2(p, root_deg))
        encode, decode = ext.wire_encode, ext.wire_decode
        return (lambda s: encode(s.deg, s.cover_size, s.edge_count, s.dirty,
                                 s.max_deg_hint, root_deg)), \
               (lambda p: VCState(*decode(p, root_deg)))
    raise ValueError(f"unknown wire codec {codec!r}; pick one of: v1, v2")


def _next_batch(
    work_q: "mp.Queue",
    stop: Callable[[], bool],
    delay_hook: Optional[Callable[[], None]] = None,
) -> Optional[object]:
    """Block for the next work batch with exponential idle backoff.

    Polls ``work_q.get`` starting at ``_BACKOFF_MIN_S`` and doubling up
    to the supervision heartbeat ``_HEARTBEAT_S`` — an idle worker makes
    O(log(heartbeat/min) + elapsed/heartbeat) syscalls instead of the
    old fixed 20 ms spin.  Returns ``None`` as soon as ``stop()`` says
    the search is over.
    """
    timeout = _BACKOFF_MIN_S
    while True:
        if stop():
            return None
        try:
            if delay_hook is not None:
                delay_hook()
            return work_q.get(timeout=timeout)
        except queue_mod.Empty:
            timeout = min(timeout * 2.0, _HEARTBEAT_S)


def _process_worker(
    wid: int,
    salt: int,
    graph: CSRGraph,
    mode: str,
    k: int,
    work_q: "mp.Queue",
    event_q: "mp.SimpleQueue",
    best_size: "mp.Value",
    lock: "mp.Lock",
    nodes: "mp.Value",
    done: "mp.Event",
    found: "mp.Event",
    stop_reason: "mp.Value",
    threshold: int,
    node_budget: Optional[int],
    deadline_at: Optional[float],
    bound: str,
    kernels: str,
    plane_name: Optional[str],
    codec: str,
    lease_batch: int,
) -> None:
    formulation: Formulation
    if mode == "mvc":
        formulation = _SharedMVC(best_size, lock)
    else:
        formulation = _SharedPVC(k, found)
    # Telemetry crossed the fork with us: the armed plane is inherited.
    # Re-arm a *fresh* tracer under the parent's trace id and epoch
    # (CLOCK_MONOTONIC is system-wide on Linux, so worker spans stay
    # directly comparable) rather than keep the parent's span buffer,
    # and zero the inherited metric values so this worker's wall
    # attribution counts only its own work.
    tracer = obs_trace.get()
    if tracer is not None:
        tracer = obs_trace.arm(tracer.trace_id, tracer.epoch, tracer.max_spans)
        obs_trace.set_worker(wid)
    if obs_metrics.armed():
        obs_metrics.REGISTRY.reset()
    # Each (slot, respawn) gets its own deterministic fault stream, so a
    # respawned worker does not deterministically die at the same node.
    faults.reseed(salt)
    plan = faults.current_plan()
    kill_active = plan is not None and "worker_kill" in plan.sites()
    delay_active = plan is not None and "queue_delay" in plan.sites()
    fault_guard = faults.step_guard_active()
    plane, root_deg = _attach_root_plane(plane_name, graph)
    enc, dec = _codec_fns(codec, root_deg)
    ws = Workspace.for_graph(graph)
    # fast kernels, uncharged; the bound-policy and kernel-backend *names*
    # cross the process boundary with the launch arguments (states
    # themselves travel through the VCState wire codec) and each worker
    # instantiates its own policy/backend from its registry
    step = NodeStep(graph, formulation, ws, bound=bound, kernels=kernels).run
    local = LifoFrontier()  # this worker's depth-first half of the hybrid
    comms = CommStats()
    donation_buf: List[object] = []
    current: Optional[VCState] = None
    local_nodes = 0
    total_nodes = 0
    recovered = 0
    has_lease = False

    def flush_nodes() -> None:
        nonlocal local_nodes
        if local_nodes:
            with nodes.get_lock():
                nodes.value += local_nodes
                if node_budget is not None and nodes.value >= node_budget:
                    with stop_reason.get_lock():
                        if stop_reason.value == _STOP_NONE:
                            stop_reason.value = _STOP_BUDGET
                    done.set()
            local_nodes = 0

    def flush_donations() -> None:
        if donation_buf:
            payloads = list(donation_buf)
            donation_buf.clear()
            if delay_active:
                faults.fire("queue_delay")
            event_q.put(("donate", wid, payloads))
            comms.messages += 1
            comms.donations += len(payloads)
            comms.bytes_sent += sum(wire_nbytes(p) for p in payloads)

    def finish_lease() -> None:
        nonlocal has_lease
        if has_lease:
            # Donations must be charged before the lease is released, so
            # the supervisor's ledger never dips to zero with work alive.
            flush_donations()
            event_q.put(("lease_done", wid))
            comms.messages += 1
            has_lease = False

    def get_work() -> Optional[VCState]:
        """Blocking get: lease the next sub-tree batch from the supervisor."""
        nonlocal has_lease
        finish_lease()  # the previous batch is fully drained
        idle_from = time.monotonic()
        with obs_trace.span("idle"):
            batch = _next_batch(
                work_q,
                stop=lambda: done.is_set() or formulation.stop_requested(),
                delay_hook=(lambda: faults.fire("queue_delay")) if delay_active else None,
            )
        comms.idle_s += time.monotonic() - idle_from
        if batch is None:
            return None
        with obs_trace.span("lease"):
            # Synchronous put: once this returns, the supervisor will know
            # about the lease even if this process dies at the next node.
            event_q.put(("lease", wid, batch))
            has_lease = True
            comms.messages += 1
            comms.leases += 1
            comms.subtrees += len(batch)
            comms.bytes_received += sum(wire_nbytes(p) for p in batch)
            states = [dec(p) for p in batch]
        for extra in states[1:]:
            local.push(extra)
        return states[0]

    while True:
        if done.is_set() or formulation.stop_requested():
            break
        if deadline_at is not None and time.monotonic() >= deadline_at:
            with stop_reason.get_lock():
                if stop_reason.value == _STOP_NONE:
                    stop_reason.value = _STOP_DEADLINE
            done.set()
            break
        if current is None:
            current = local.pop()
            if current is None:
                flush_nodes()
                current = get_work()
                if current is None:
                    break
        if kill_active:
            faults.fire("worker_kill")  # may os._exit right here
        local_nodes += 1
        total_nodes += 1
        if local_nodes >= 32:
            flush_nodes()
        if fault_guard:
            backup = current.copy()
            try:
                outcome = step(current)
            except faults.FaultInjected:
                recovered += 1
                local.push(backup)  # pristine pre-step copy goes back to work
                current = None
                continue
        else:
            outcome = step(current)
        if outcome is PRUNED:
            current = None
            continue
        if outcome is LEAF:
            formulation.accept(current)  # accept() deep-copies the state
            if formulation.improved:
                # Ship the cover now: the shared best_size is already
                # pruning siblings against it, so it must not be lost
                # with this process.
                formulation.improved = False
                best = formulation.local_best
                payload = enc(best)
                event_q.put(("best", wid, best.cover_size, payload))
                comms.messages += 1
                comms.bytes_sent += wire_nbytes(payload)
            ws.release_deg(current.deg)
            current = None
            continue
        deferred = outcome.deferred
        current = outcome.continued
        # Hybrid donation policy; qsize() is advisory (in batch units)
        # and only steers policy.
        try:
            hungry = hybrid_should_donate(
                work_q.qsize() * lease_batch + len(donation_buf), threshold)
        except NotImplementedError:  # pragma: no cover - macOS
            hungry = True
        if hungry:
            donation_buf.append(enc(deferred))
            if len(donation_buf) >= lease_batch:
                flush_donations()
        else:
            local.push(deferred)

    # Clean wind-down: ship everything still in hand so an interrupted run
    # (budget/deadline) leaves a complete frontier with the supervisor.
    flush_nodes()
    leftovers: List = []
    if current is not None:
        leftovers.append(enc(current))
    leftovers.extend(enc(state) for state in local.drain())
    finish_lease()
    comms.messages += 1
    comms.bytes_sent += sum(wire_nbytes(p) for p in leftovers)
    # The telemetry rides the existing protocol home: wall attributions
    # as obs_<kind>_s keys in the comms dict (summed by CommStats.totals)
    # and the drained span list as a trailing result field.
    obs_breakdown.add_wall("idle", comms.idle_s)
    comms_out = comms.as_dict()
    comms_out.update(obs_breakdown.wall_obs_keys())
    spans_out = tracer.drain() if tracer is not None else []
    event_q.put(("result", wid, total_nodes, leftovers, recovered,
                 comms_out, spans_out))


class _ProcRun:
    """Everything the supervisor learned from one process-team run."""

    __slots__ = ("best_size", "best_cover", "timed_out", "deadline_tripped",
                 "nodes", "wall", "per_worker", "pending", "recovered", "lost",
                 "comms", "supervision")

    def __init__(self) -> None:
        self.best_size: Optional[int] = None
        self.best_cover: Optional[np.ndarray] = None
        self.timed_out = False
        self.deadline_tripped = False
        self.nodes = 0
        self.wall = 0.0
        self.per_worker: List[int] = []
        self.pending: List[VCState] = []
        self.recovered = 0
        self.lost = 0
        self.comms: Optional[Dict[str, object]] = None
        self.supervision: Optional[Dict[str, float]] = None


def _drain_inline(
    graph: CSRGraph,
    mode: str,
    k: int,
    states: List[VCState],
    initial_best: int,
    initial_cover: Optional[np.ndarray],
    bound: str,
    kernels: Optional[str] = None,
) -> Tuple[Optional[int], Optional[np.ndarray]]:
    """Last-resort fallback: every worker slot died — the parent finishes.

    Solves the remaining sub-trees sequentially against the best incumbent
    the supervisor holds; returns the (possibly improved) incumbent.
    """
    ws = Workspace.for_graph(graph)
    formulation: Formulation
    if mode == "mvc":
        best = BestBound(size=initial_best, cover=initial_cover)
        formulation = MVCFormulation(best)
    else:
        flag = FoundFlag()
        formulation = PVCFormulation(k=k, flag=flag)
    frontier = LifoFrontier()
    for state in states[1:]:
        frontier.push((state, 0))
    branch_and_reduce(graph, formulation, ws=ws, root=states[0],
                      frontier=frontier, bound=bound, kernels=kernels)
    if mode == "mvc":
        return best.size, best.cover
    if flag.found:
        return flag.size, flag.cover
    return None, None


def _run_processes(
    graph: CSRGraph,
    mode: str,
    k: int,
    *,
    n_workers: int,
    threshold: int,
    node_budget: Optional[int],
    initial_best: int,
    initial_cover: Optional[np.ndarray] = None,
    bound: str = "greedy",
    kernels: Optional[str] = None,
    deadline: Optional[float] = None,
    roots: Optional[Sequence[VCState]] = None,
    max_respawns: int = MAX_RESPAWNS,
    lease_batch: int = LEASE_BATCH,
    codec: str = "v2",
) -> _ProcRun:
    # Validate/normalize the backend selection up front (one-line registry
    # error rather than a traceback inside a child) and prewarm whatever
    # graph caches it needs *before* forking, so every worker inherits the
    # warmed pages instead of rebuilding them n_workers times.
    if lease_batch < 1:
        raise ValueError("lease_batch must be >= 1")
    backend = resolve_kernels(kernels)
    kernels_name = backend.name
    graph.prewarm(adjacency=backend.uses_adjacency(graph))
    root_deg = np.asarray(graph.degrees, dtype=np.int32)
    enc, _ = _codec_fns(codec, root_deg)  # validates the codec name too
    plane = publish_plane(graph) if codec == "v2" else None
    plane_name = None if plane is None else plane.name
    ctx = mp.get_context("fork")
    work_q: "mp.Queue" = ctx.Queue()
    event_q = ctx.SimpleQueue()
    best_size = ctx.Value("i", initial_best, lock=False)
    lock = ctx.Lock()
    nodes = ctx.Value("i", 0)
    done = ctx.Event()
    found = ctx.Event()
    stop_reason = ctx.Value("i", _STOP_NONE)
    deadline_at = None if deadline is None else time.monotonic() + deadline

    run = _ProcRun()
    run.best_size = initial_best if mode == "mvc" else None
    run.best_cover = initial_cover

    pending_in_queue = 0  # ledger unit: one queued *batch*
    root_payloads = [enc(state)
                     for state in ([fresh_state(graph)] if roots is None else roots)]
    for i in range(0, len(root_payloads), lease_batch):
        work_q.put(root_payloads[i:i + lease_batch])
        pending_in_queue += 1

    salt_seq = [0]

    def spawn(slot: int) -> "mp.Process":
        salt_seq[0] += 1
        p = ctx.Process(
            target=_process_worker,
            args=(slot, salt_seq[0], graph, mode, k, work_q, event_q, best_size,
                  lock, nodes, done, found, stop_reason, threshold, node_budget,
                  deadline_at, bound, kernels_name, plane_name, codec,
                  lease_batch),
            daemon=True,
        )
        p.start()
        return p

    start = time.perf_counter()
    procs: Dict[int, "mp.Process"] = {slot: spawn(slot) for slot in range(n_workers)}
    leases: Dict[int, List[object]] = {}
    results: Dict[int, Tuple[int, List, int, Dict[str, float]]] = {}
    attempts: Dict[int, int] = {slot: 0 for slot in range(n_workers)}
    failed: Set[int] = set()
    last_event = time.monotonic()
    parent_tracer = obs_trace.get()
    inline_drains = 0

    def offer_best(size: int, wire) -> None:
        if run.best_size is None or size < run.best_size:
            run.best_size = size
            run.best_cover = decode_wire(wire, root_deg).cover()

    def drain_events() -> bool:
        nonlocal pending_in_queue, last_event
        got = False
        while not event_q.empty():
            msg = event_q.get()
            got = True
            last_event = time.monotonic()
            kind = msg[0]
            if kind == "lease":
                leases[msg[1]] = msg[2]
                pending_in_queue = max(0, pending_in_queue - 1)
            elif kind == "lease_done":
                leases.pop(msg[1], None)
            elif kind == "donate":
                work_q.put(msg[2])  # one donated batch -> one queued batch
                pending_in_queue += 1
            elif kind == "best":
                offer_best(msg[2], msg[3])
            elif kind == "result":
                results[msg[1]] = (msg[2], msg[3], msg[4], msg[5])
                if len(msg) > 6 and msg[6] and parent_tracer is not None:
                    parent_tracer.absorb(msg[6])
        return got

    try:
        # ------------------------- supervisor loop ------------------------ #
        while True:
            progressed = drain_events()

            # Ledger termination test: nothing queued, nothing leased — no
            # node anywhere can create more work, so the search is done.
            if not done.is_set() and pending_in_queue == 0 and not leases:
                done.set()

            # Health check: a slot with no result whose process is gone died.
            for slot, p in list(procs.items()):
                if slot in results or slot in failed or p.is_alive():
                    continue
                p.join()
                drain_events()  # its final messages may have raced our check
                if slot in results:
                    continue
                run.lost += 1
                progressed = True
                batch = leases.pop(slot, None)
                if batch is not None:
                    # The lease roots dominate everything the dead worker
                    # had expanded locally: re-enqueueing them loses nothing.
                    work_q.put(batch)
                    pending_in_queue += 1
                if done.is_set():
                    failed.add(slot)  # winding down anyway; don't respawn
                    continue
                attempts[slot] += 1
                if attempts[slot] <= max_respawns:
                    time.sleep(RESPAWN_BACKOFF_S * (2 ** (attempts[slot] - 1)))
                    procs[slot] = spawn(slot)
                else:
                    failed.add(slot)
                    warnings.warn(
                        f"cpu-process worker slot {slot} died {attempts[slot]} "
                        f"times; degrading to {n_workers - len(failed)} workers",
                        RuntimeWarning,
                    )

            open_slots = [s for s in procs if s not in results and s not in failed]
            if not open_slots:
                break

            if not progressed:
                # Stall repair: with no leases outstanding, the queue *is*
                # the ledger — recount it (a worker that died between a pop
                # and its lease message would otherwise strand the count).
                if (not leases and pending_in_queue > 0
                        and time.monotonic() - last_event > 1.0):
                    recount: List = []
                    while True:
                        try:
                            recount.append(work_q.get_nowait())
                        except queue_mod.Empty:
                            break
                    pending_in_queue = len(recount)
                    for batch in recount:
                        work_q.put(batch)
                    last_event = time.monotonic()
                time.sleep(0.005)

        # ------------------------- wind-down ----------------------------- #
        # Keep draining while joining: a worker blocked on a full event
        # pipe can only exit if the parent keeps reading.
        done.set()
        join_until = time.monotonic() + 10.0
        while any(p.is_alive() for p in procs.values()):
            drain_events()
            if time.monotonic() >= join_until:  # pragma: no cover - defensive
                break
            time.sleep(0.005)
        for p in procs.values():
            p.join(timeout=1.0)
        drain_events()
        run.wall = time.perf_counter() - start

        queue_rest: List = []
        while True:
            try:
                queue_rest.append(work_q.get(timeout=0.05))
            except queue_mod.Empty:
                break

        run.timed_out = stop_reason.value != _STOP_NONE and not found.is_set()
        run.deadline_tripped = stop_reason.value == _STOP_DEADLINE
        run.nodes = nodes.value
        run.per_worker = [results.get(s, (0, [], 0, {}))[0] for s in range(n_workers)]
        run.recovered = sum(r[2] for r in results.values())
        per_worker_comms = {slot: r[3] for slot, r in results.items()}
        run.comms = {
            "per_worker": per_worker_comms,
            "totals": CommStats.totals(per_worker_comms),
        }

        remaining_wires: List[object] = []
        for batch in list(queue_rest) + list(leases.values()):
            remaining_wires.extend(batch)
        if run.timed_out:
            for _, leftovers, _, _ in results.values():
                remaining_wires.extend(leftovers)
            run.pending = [decode_wire(w, root_deg) for w in remaining_wires]
        elif remaining_wires and not found.is_set():
            # Every slot died with work outstanding and no budget tripped:
            # finish the job in-process rather than return a wrong answer.
            inline_drains += 1
            warnings.warn(
                "cpu-process: all workers lost; draining "
                f"{len(remaining_wires)} sub-trees inline", RuntimeWarning,
            )
            size, cover = _drain_inline(
                graph, mode, k,
                [decode_wire(w, root_deg) for w in remaining_wires],
                best_size.value if mode == "mvc" else k,
                run.best_cover, bound, kernels_name,
            )
            if size is not None and (run.best_size is None or size <= run.best_size):
                run.best_size, run.best_cover = size, cover

        run.supervision = {
            "recovered": float(run.recovered),
            "workers_lost": float(run.lost),
            "respawns": float(max(0, salt_seq[0] - n_workers)),
            "retired_slots": float(len(failed)),
            "inline_drains": float(inline_drains),
        }
    finally:
        # Zombie-proof teardown: every child is reaped, both queues are
        # closed, and the shared graph plane is unlinked whatever path —
        # including exceptions — got us here.
        done.set()
        for p in procs.values():
            if p.is_alive():
                p.join(timeout=1.0)
            if p.is_alive():  # pragma: no cover - defensive
                p.terminate()
                p.join(timeout=1.0)
        work_q.close()
        work_q.cancel_join_thread()
        if hasattr(event_q, "close"):
            event_q.close()
        if plane is not None:
            plane.close()
    return run


def solve_mvc_processes(
    graph: CSRGraph,
    *,
    n_workers: int = 4,
    threshold: int = 32,
    node_budget: Optional[int] = None,
    bound: str = "greedy",
    kernels: Optional[str] = None,
    deadline: Optional[float] = None,
    roots: Optional[Sequence[VCState]] = None,
    initial_best: Optional[Tuple[int, np.ndarray]] = None,
    lease_batch: int = LEASE_BATCH,
    codec: str = "v2",
    **_: object,
) -> CpuParallelResult:
    """Minimum vertex cover with a supervised process team."""
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    greedy = greedy_cover(graph, kernels=kernels)
    best0, cover0 = greedy.size, greedy.cover
    if initial_best is not None and initial_best[0] < best0:
        best0 = int(initial_best[0])
        cover0 = np.asarray(initial_best[1], dtype=np.int32)
    if graph.m == 0:
        return CpuParallelResult("cpu-process", "mvc", 0, np.empty(0, dtype=np.int32),
                                 None, False, 0, n_workers, 0.0, greedy.size)
    run = _run_processes(
        graph, "mvc", 0, n_workers=n_workers, threshold=threshold,
        node_budget=node_budget, initial_best=best0, initial_cover=cover0,
        bound=bound, kernels=kernels, deadline=deadline, roots=roots,
        lease_batch=lease_batch, codec=codec,
    )
    return CpuParallelResult(
        engine="cpu-process",
        formulation="mvc",
        optimum=run.best_size,
        cover=run.best_cover,
        feasible=None,
        timed_out=run.timed_out,
        nodes_visited=run.nodes,
        n_workers=n_workers,
        wall_seconds=run.wall,
        greedy_size=greedy.size,
        per_worker_nodes=run.per_worker,
        pending_states=run.pending,
        deadline_tripped=run.deadline_tripped,
        faults_recovered=run.recovered,
        workers_lost=run.lost,
        comms=run.comms,
        supervision=run.supervision,
    )


def solve_pvc_processes(
    graph: CSRGraph,
    k: int,
    *,
    n_workers: int = 4,
    threshold: int = 32,
    node_budget: Optional[int] = None,
    bound: str = "greedy",
    kernels: Optional[str] = None,
    deadline: Optional[float] = None,
    roots: Optional[Sequence[VCState]] = None,
    lease_batch: int = LEASE_BATCH,
    codec: str = "v2",
    **_: object,
) -> CpuParallelResult:
    """Parameterized vertex cover with a supervised process team."""
    if k < 0:
        raise ValueError("k must be non-negative")
    greedy = greedy_cover(graph, kernels=kernels)
    if graph.m == 0:
        return CpuParallelResult("cpu-process", "pvc", 0, np.empty(0, dtype=np.int32),
                                 True, False, 0, n_workers, 0.0, greedy.size)
    run = _run_processes(
        graph, "pvc", k, n_workers=n_workers, threshold=threshold,
        node_budget=node_budget, initial_best=graph.n + 1, initial_cover=None,
        bound=bound, kernels=kernels, deadline=deadline, roots=roots,
        lease_batch=lease_batch, codec=codec,
    )
    feasible: Optional[bool]
    if run.best_cover is not None:
        feasible = True
    elif run.timed_out:
        feasible = None
    else:
        feasible = False
    return CpuParallelResult(
        engine="cpu-process",
        formulation="pvc",
        optimum=None if run.best_cover is None else run.best_size,
        cover=run.best_cover,
        feasible=feasible,
        timed_out=run.timed_out,
        nodes_visited=run.nodes,
        n_workers=n_workers,
        wall_seconds=run.wall,
        greedy_size=greedy.size,
        per_worker_nodes=run.per_worker,
        pending_states=run.pending,
        deadline_tripped=run.deadline_tripped,
        faults_recovered=run.recovered,
        workers_lost=run.lost,
        comms=run.comms,
        supervision=run.supervision,
    )

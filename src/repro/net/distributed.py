"""The eighth engine: the supervised lease protocol over sockets.

A coordinator runs the PR 6 supervision state machine — single work
ledger, leases charged until ``lease_done``, dead peers re-enqueued —
over :class:`~repro.net.transport.MessageStream` connections instead of
``multiprocessing`` queues.  Workers are plain socket clients: the
engine spawns ``n_workers`` of them as local processes that connect to
the coordinator's loopback port (so every run, including CI, exercises
the real socket path), spawns ``hosts`` additional ``repro serve-worker``
*subprocesses* (cold Python interpreters simulating extra hosts on
localhost), and accepts any externally launched
``repro serve-worker --connect HOST:PORT`` into the same pool.

Workers never receive the graph through process arguments.  The
handshake offers the shared-memory graph plane (:mod:`repro.graph.plane`)
by name; a same-host worker attaches it zero-copy, a remote one answers
``need_graph`` and receives the CSR arrays inline, once.  After that,
only codec frames, incumbent sizes and counters cross the wire — the
incumbent broadcast is the only shared mutable state, exactly as in the
paper's GPU formulation.

Protocol (all messages are pickled tuples; see ``net/transport.py``):

====================  =============================================
worker -> coordinator  coordinator -> worker
====================  =============================================
``("hello", pid)``     ``("plane", name|None, n, nidx)``
``("attached",)`` /    ``("graph", indptr, indices)`` (on demand)
``("need_graph",)``    ``("init", params)``
``("ready",)``         ``("work", [payload, ...], depth)``
``("lease_done",)``
``("donate", [payload, ...])``
``("best", size, payload)``   ``("best", size, depth)``
``("nodes", delta)``   ``("done",)``
``("result", nodes, leftovers, recovered, comms)``
====================  =============================================

A lease is charged to a connection the moment the ``work`` frame is
written; a connection that dies — EOF, reset, torn frame — before its
``lease_done`` gets its batch re-enqueued, exactly like a dead local
worker, and the slot is respawned with the same bounded-retry policy.
If every peer is gone with work outstanding, the coordinator drains the
remainder inline through the sequential solver.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import time
import warnings
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import faults
from ..core.formulation import Formulation
from ..core.frontier import LifoFrontier
from ..core.greedy import greedy_cover
from ..core.kernel_backends import resolve_kernels
from ..core.nodestep import LEAF, PRUNED, NodeStep
from ..engines.cpu_process import (
    LEASE_BATCH,
    MAX_RESPAWNS,
    CommStats,
    _codec_fns,
    _drain_inline,
)
from ..engines.cpu_threads import CpuParallelResult
from ..graph.csr import CSRGraph
from ..graph.degree_array import VCState, Workspace, decode_wire, fresh_state, wire_nbytes
from ..graph.plane import GraphPlane, publish_plane
from ..obs import breakdown as obs_breakdown
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .transport import MessageStream, ProtocolError, TransportClosed

__all__ = ["solve_mvc_distributed", "solve_pvc_distributed", "run_worker_client"]

#: How long the coordinator waits for the first worker to finish its
#: handshake before concluding nobody is coming and draining inline.
_CONNECT_GRACE_S = 10.0

#: Wind-down budget: how long to wait for ``result`` frames after ``done``.
_WINDDOWN_S = 10.0

#: Worker-side cadence: node-count deltas flushed every this many nodes.
_NODES_FLUSH = 64

_STOP_NONE, _STOP_BUDGET, _STOP_DEADLINE = 0, 1, 2


# --------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------- #
class _RemoteMVC(Formulation):
    """MVC against a locally cached incumbent, refreshed by broadcast."""

    name = "mvc"

    def __init__(self, initial_best: int):
        self.best_size = initial_best
        self.local_best: Optional[VCState] = None
        self.improved = False

    def budget(self, cover_size: int) -> int:
        return self.best_size - cover_size - 1

    def accept(self, state: VCState) -> bool:
        if state.cover_size < self.best_size:
            self.best_size = state.cover_size
            self.local_best = state.copy()
            self.improved = True
        return False


class _RemotePVC(Formulation):
    """PVC: first worker to find a k-cover reports it; coordinator stops all."""

    name = "pvc"

    def __init__(self, k: int):
        self.k = k
        self.found = False
        self.local_best: Optional[VCState] = None
        self.improved = False

    def budget(self, cover_size: int) -> int:
        return self.k - cover_size

    def accept(self, state: VCState) -> bool:
        if state.cover_size <= self.k:
            self.local_best = state.copy()
            self.improved = True
            self.found = True
            return True
        return False

    def stop_requested(self) -> bool:
        return self.found


def run_worker_client(host: str, port: int, *, salt: int = 0,
                      connect_timeout: float = 10.0) -> None:
    """Join a coordinator's pool as one worker (``repro serve-worker``).

    Blocks until the coordinator finishes the solve (or hangs up); the
    fault plan, if any, is read from ``REPRO_FAULT`` at import time like
    every other entry point, so injected chaos reaches remote workers.
    """
    sock = socket.create_connection((host, port), timeout=connect_timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    stream = MessageStream(sock)
    try:
        _worker_session(stream, salt)
    finally:
        stream.close()


def _worker_session(stream: MessageStream, salt: int) -> None:
    stream.send(("hello", os.getpid()))
    msg = stream.recv(timeout=30.0)
    if msg[0] != "plane":
        raise ProtocolError(f"expected plane offer, got {msg[0]!r}")
    _, plane_name, n, nidx = msg
    plane: Optional[GraphPlane] = None
    graph: Optional[CSRGraph] = None
    if plane_name:
        try:
            plane = GraphPlane.attach(plane_name)
            graph = plane.graph()
        except Exception:
            plane = None
    if plane is not None:
        stream.send(("attached",))
        root_deg = plane.root_deg
    else:
        stream.send(("need_graph",))
        msg = stream.recv(timeout=30.0)
        if msg[0] != "graph":
            raise ProtocolError(f"expected graph, got {msg[0]!r}")
        indptr = np.frombuffer(msg[1], dtype=np.int64).copy()
        indices = np.frombuffer(msg[2], dtype=np.int32).copy()
        # The one graph that arrives from outside the process: validate
        # it once, since the compiled kernels trust a well-formed CSR.
        graph = CSRGraph(indptr, indices, validate=True)
        root_deg = np.asarray(graph.degrees, dtype=np.int32)
    msg = stream.recv(timeout=30.0)
    if msg[0] != "init":
        raise ProtocolError(f"expected init, got {msg[0]!r}")
    params = msg[1]
    faults.reseed(params.get("salt", salt))
    # Telemetry arming travels in the init frame, so remote cold
    # interpreters join the coordinator's trace.  The epoch is recovered
    # from the coordinator's elapsed-seconds stamp (`now_rel`) — exact on
    # the same host (CLOCK_MONOTONIC is system-wide), one network hop of
    # skew on a real remote.  Local fork workers drop any inherited
    # tracer here too, so every lane is armed the same one way.
    tele = params.get("telemetry")
    if tele and tele.get("trace_id"):
        epoch = time.monotonic() - float(tele.get("now_rel", 0.0))
        obs_trace.arm(str(tele["trace_id"]), epoch)
    else:
        obs_trace.disarm()
    if tele and tele.get("metrics"):
        obs_metrics.arm()
        obs_metrics.REGISTRY.reset()
    else:
        obs_metrics.disarm()
    _worker_loop(stream, graph, root_deg, params)


def _worker_loop(stream: MessageStream, graph: CSRGraph,
                 root_deg: np.ndarray, params: Dict[str, object]) -> None:
    mode = params["mode"]
    formulation: Formulation
    if mode == "mvc":
        formulation = _RemoteMVC(int(params["initial_best"]))
    else:
        formulation = _RemotePVC(int(params["k"]))
    enc, dec = _codec_fns(str(params["codec"]), root_deg)
    threshold = int(params["threshold"])
    lease_batch = int(params["lease_batch"])
    deadline_s = params.get("deadline_s")
    deadline_at = None if deadline_s is None else time.monotonic() + float(deadline_s)
    plan = faults.current_plan()
    kill_active = plan is not None and "worker_kill" in plan.sites()
    delay_active = plan is not None and "queue_delay" in plan.sites()
    fault_guard = faults.step_guard_active()
    ws = Workspace.for_graph(graph)
    step = NodeStep(graph, formulation, ws, bound=str(params["bound"]),
                    kernels=str(params["kernels"])).run
    local = LifoFrontier()
    comms = CommStats()
    donation_buf: List[object] = []
    depth_hint = 0  # coordinator queue depth, in batches (advisory)
    current: Optional[VCState] = None
    unflushed_nodes = 0
    total_nodes = 0
    recovered = 0
    has_lease = False
    done = False

    def handle(msg) -> None:
        nonlocal depth_hint, done
        kind = msg[0]
        if kind == "best":
            depth_hint = msg[2]
            if mode == "mvc" and msg[1] < formulation.best_size:
                formulation.best_size = msg[1]
        elif kind == "done":
            done = True

    def flush_nodes() -> None:
        nonlocal unflushed_nodes
        if unflushed_nodes:
            stream.send(("nodes", unflushed_nodes))
            comms.messages += 1
            unflushed_nodes = 0

    def flush_donations() -> None:
        nonlocal depth_hint
        if donation_buf:
            payloads = list(donation_buf)
            donation_buf.clear()
            if delay_active:
                faults.fire("queue_delay")
            with obs_trace.span("frame"):
                stream.send(("donate", payloads))
            comms.messages += 1
            comms.donations += len(payloads)
            comms.bytes_sent += sum(wire_nbytes(p) for p in payloads)
            depth_hint += 1

    def finish_lease() -> None:
        nonlocal has_lease
        if has_lease:
            flush_donations()
            flush_nodes()
            stream.send(("lease_done",))
            comms.messages += 1
            has_lease = False

    def get_work() -> Optional[VCState]:
        nonlocal has_lease, depth_hint
        finish_lease()
        stream.send(("ready",))
        comms.messages += 1
        idle_from = time.monotonic()
        wait = 0.001
        with obs_trace.span("idle"):
            while True:
                if done or formulation.stop_requested():
                    return None
                if deadline_at is not None and time.monotonic() >= deadline_at:
                    return None
                if delay_active:
                    faults.fire("queue_delay")
                for msg in stream.poll(wait):
                    if msg[0] == "work":
                        comms.idle_s += time.monotonic() - idle_from
                        batch, depth_hint = msg[1], msg[2]
                        has_lease = True
                        comms.leases += 1
                        comms.subtrees += len(batch)
                        comms.bytes_received += sum(wire_nbytes(p) for p in batch)
                        with obs_trace.span("lease"):
                            states = [dec(p) for p in batch]
                        for extra in states[1:]:
                            local.push(extra)
                        return states[0]
                    handle(msg)
                wait = min(wait * 2.0, 0.05)

    while True:
        if done or formulation.stop_requested():
            break
        if deadline_at is not None and time.monotonic() >= deadline_at:
            break
        if current is None:
            current = local.pop()
            if current is None:
                current = get_work()
                if current is None:
                    break
        if kill_active:
            faults.fire("worker_kill")  # may os._exit right here
        for msg in stream.poll(0.0):
            handle(msg)
        total_nodes += 1
        unflushed_nodes += 1
        if unflushed_nodes >= _NODES_FLUSH:
            flush_nodes()
        if fault_guard:
            backup = current.copy()
            try:
                outcome = step(current)
            except faults.FaultInjected:
                recovered += 1
                local.push(backup)
                current = None
                continue
        else:
            outcome = step(current)
        if outcome is PRUNED:
            current = None
            continue
        if outcome is LEAF:
            formulation.accept(current)
            if formulation.improved:
                formulation.improved = False
                best = formulation.local_best
                payload = enc(best)
                stream.send(("best", best.cover_size, payload))
                comms.messages += 1
                comms.bytes_sent += wire_nbytes(payload)
            ws.release_deg(current.deg)
            current = None
            continue
        deferred = outcome.deferred
        current = outcome.continued
        if depth_hint * lease_batch + len(donation_buf) < threshold:
            donation_buf.append(enc(deferred))
            if len(donation_buf) >= lease_batch:
                flush_donations()
        else:
            local.push(deferred)

    # Wind-down: everything still in hand goes home with the result.
    leftovers: List[object] = list(donation_buf)
    donation_buf.clear()
    if current is not None:
        leftovers.append(enc(current))
    leftovers.extend(enc(state) for state in local.drain())
    flush_nodes()
    if has_lease:
        stream.send(("lease_done",))
        comms.messages += 1
    comms.messages += 1
    comms.bytes_sent += sum(wire_nbytes(p) for p in leftovers)
    # Exact socket byte counts from the transport, alongside the
    # wire_nbytes() estimates shared with the queue engines.  wire_received
    # includes the inline graph frame on the need_graph path, which is the
    # cost the shared-memory plane exists to avoid; wire_sent excludes only
    # the final result frame (its size would have to contain itself).
    obs_breakdown.add_wall("idle", comms.idle_s)
    comms_dict = comms.as_dict()
    comms_dict["wire_sent"] = stream.bytes_sent
    comms_dict["wire_received"] = stream.decoder.bytes_fed
    # Telemetry rides the existing result frame: wall-time attribution as
    # extra ``obs_<kind>_s`` comms keys (CommStats.totals sums every key it
    # sees) and the drained span rows appended as a fifth element that old
    # coordinators simply never index.
    comms_dict.update(obs_breakdown.wall_obs_keys())
    tracer = obs_trace.get()
    spans = tracer.drain() if tracer is not None else []
    stream.send(("result", total_nodes, leftovers, recovered, comms_dict, spans))


def _local_worker_main(host: str, port: int, salt: int) -> None:
    """Entry point of the engine's own (forked) socket workers."""
    try:
        run_worker_client(host, port, salt=salt)
    except (TransportClosed, ConnectionError, EOFError, TimeoutError):
        pass  # coordinator gone: nothing useful left to do


# --------------------------------------------------------------------- #
# coordinator side
# --------------------------------------------------------------------- #
class _Peer:
    """One connected worker, local or remote — the protocol can't tell."""

    __slots__ = ("stream", "wid", "stage", "lease", "waiting", "finished",
                 "result", "nodes_flushed")

    def __init__(self, stream: MessageStream, wid: int):
        self.stream = stream
        self.wid = wid
        self.stage = "hello"  # hello -> plane -> live
        self.lease: Optional[List[object]] = None
        self.waiting = False  # sent ready and has not been fed yet
        self.finished = False
        self.result: Optional[Tuple[int, List, int, Dict[str, float]]] = None
        self.nodes_flushed = 0


class _DistRun:
    """Everything the coordinator learned from one distributed run."""

    __slots__ = ("best_size", "best_cover", "timed_out", "deadline_tripped",
                 "nodes", "wall", "per_worker", "pending", "recovered", "lost",
                 "comms", "found", "supervision")

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
        self.found = False
        self.supervision: Optional[Dict[str, float]] = None


def _spawn_host_process(port: int) -> "subprocess.Popen":
    """One simulated extra host: a cold ``repro serve-worker`` interpreter."""
    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Local fork workers inherit a faults.injected() plan via the fork;
    # a cold interpreter only reads REPRO_FAULT, so export the live plan
    # there too — otherwise "kill a *remote* worker" tests can't arm it.
    plan = faults.current_plan()
    if plan is not None:
        env["REPRO_FAULT"] = plan.spec()
        env["REPRO_FAULT_SEED"] = str(plan.seed)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve-worker",
         "--connect", f"127.0.0.1:{port}"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def _run_distributed(
    graph: CSRGraph,
    mode: str,
    k: int,
    *,
    n_workers: int,
    hosts: int,
    threshold: int,
    node_budget: Optional[int],
    initial_best: int,
    initial_cover: Optional[np.ndarray] = None,
    bound: str = "greedy",
    kernels: Optional[str] = None,
    deadline: Optional[float] = None,
    roots: Optional[Sequence[VCState]] = None,
    lease_batch: int = LEASE_BATCH,
    codec: str = "v2",
    max_respawns: int = MAX_RESPAWNS,
    listen_host: str = "127.0.0.1",
) -> _DistRun:
    import multiprocessing as mp
    from collections import deque

    if n_workers < 0 or hosts < 0 or n_workers + hosts < 1:
        raise ValueError("need at least one worker (n_workers + hosts >= 1)")
    if lease_batch < 1:
        raise ValueError("lease_batch must be >= 1")
    backend = resolve_kernels(kernels)
    kernels_name = backend.name
    graph.prewarm(adjacency=backend.uses_adjacency(graph))
    root_deg = np.asarray(graph.degrees, dtype=np.int32)
    enc, _ = _codec_fns(codec, root_deg)
    plane = publish_plane(graph) if codec == "v2" else None

    run = _DistRun()
    run.best_size = initial_best if mode == "mvc" else None
    run.best_cover = initial_cover

    queue: "deque[List[object]]" = deque()
    root_payloads = [enc(state)
                     for state in ([fresh_state(graph)] if roots is None else roots)]
    for i in range(0, len(root_payloads), lease_batch):
        queue.append(root_payloads[i:i + lease_batch])

    init_params = {
        "mode": mode, "k": k, "bound": bound, "kernels": kernels_name,
        "threshold": threshold, "codec": codec, "lease_batch": lease_batch,
        "initial_best": initial_best,
        "deadline_s": deadline,
    }

    lsock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    lsock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    lsock.bind((listen_host, 0))
    lsock.listen(n_workers + hosts + 4)
    lsock.setblocking(False)
    port = lsock.getsockname()[1]

    ctx = mp.get_context("fork")
    salt_seq = [0]

    def spawn_local() -> "mp.Process":
        salt_seq[0] += 1
        p = ctx.Process(target=_local_worker_main,
                        args=(listen_host, port, salt_seq[0]), daemon=True)
        p.start()
        return p

    procs: List["mp.Process"] = [spawn_local() for _ in range(n_workers)]
    host_procs: List["subprocess.Popen"] = [
        _spawn_host_process(port) for _ in range(hosts)]

    peers: Dict[int, _Peer] = {}
    wid_seq = [0]
    stop_reason = [_STOP_NONE]
    done_sent = [False]
    respawns_used = [0]
    retired_slots = [0]   # peers lost after the respawn budget ran dry
    inline_drains = [0]   # wind-down paths that fell back to _drain_inline
    nodes_total = [0]
    # An armed coordinator ships its trace identity in the init frame so a
    # cold remote interpreter can place its spans on the same timeline.
    parent_tracer = obs_trace.get()
    started = time.monotonic()
    deadline_at = None if deadline is None else started + deadline
    start = time.perf_counter()

    def live_peers() -> List[_Peer]:
        return [p for p in peers.values() if p.stage == "live" and not p.finished]

    def broadcast(msg: Tuple) -> None:
        for peer in live_peers():
            try:
                peer.stream.send(msg)
            except TransportClosed:
                pass  # death is handled by the read path

    def request_done(reason: int) -> None:
        if reason != _STOP_NONE and stop_reason[0] == _STOP_NONE:
            stop_reason[0] = reason
        if not done_sent[0]:
            done_sent[0] = True
            broadcast(("done",))

    def offer_best(size: int, payload) -> None:
        if run.best_size is None or size < run.best_size:
            run.best_size = size
            run.best_cover = decode_wire(payload, root_deg).cover()
            if mode == "mvc":
                broadcast(("best", size, len(queue)))
            else:
                run.found = True
                request_done(_STOP_NONE)

    lost_nodes = [0]  # flushed deltas of peers that died without a result

    def drop_peer(peer: _Peer, *, died: bool) -> None:
        peer.stream.close()
        peers.pop(peer.wid, None)
        if peer.lease is not None:
            # The lease roots dominate everything the dead peer had
            # expanded locally: re-enqueueing them loses nothing.
            queue.append(peer.lease)
            peer.lease = None
        if peer.finished:
            return
        if died:
            run.lost += 1
            lost_nodes[0] += peer.nodes_flushed
        if died and not done_sent[0]:
            if respawns_used[0] < max_respawns * max(1, n_workers):
                respawns_used[0] += 1
                procs.append(spawn_local())
            else:
                retired_slots[0] += 1
                warnings.warn(
                    f"distributed: peer {peer.wid} died and the respawn "
                    f"budget is spent; degrading to {len(peers)} workers",
                    RuntimeWarning,
                )

    def handle_message(peer: _Peer, msg) -> None:
        kind = msg[0]
        if peer.stage == "hello":
            if kind != "hello":
                raise ProtocolError(f"expected hello, got {kind!r}")
            peer.stream.send(("plane",
                              None if plane is None else plane.name,
                              graph.n, int(graph.indices.size)))
            peer.stage = "plane"
            return
        if peer.stage == "plane":
            if kind == "need_graph":
                peer.stream.send(("graph", graph.indptr.tobytes(),
                                  graph.indices.tobytes()))
            elif kind != "attached":
                raise ProtocolError(f"expected attached/need_graph, got {kind!r}")
            salt_seq[0] += 1
            params = dict(init_params)
            params["salt"] = salt_seq[0]
            if deadline_at is not None:
                params["deadline_s"] = max(0.0, deadline_at - time.monotonic())
            if parent_tracer is not None or obs_metrics.armed():
                params["telemetry"] = {
                    "trace_id": parent_tracer.trace_id if parent_tracer else "",
                    "now_rel": parent_tracer.now() if parent_tracer else 0.0,
                    "metrics": obs_metrics.armed(),
                }
            peer.stream.send(("init", params))
            peer.stage = "live"
            if done_sent[0]:
                peer.stream.send(("done",))
            return
        # live protocol
        if kind == "ready":
            peer.waiting = True
        elif kind == "lease_done":
            peer.lease = None
        elif kind == "donate":
            queue.append(list(msg[1]))
        elif kind == "best":
            offer_best(msg[1], msg[2])
        elif kind == "nodes":
            peer.nodes_flushed += msg[1]
            nodes_total[0] += msg[1]
            if node_budget is not None and nodes_total[0] >= node_budget:
                request_done(_STOP_BUDGET)
        elif kind == "result":
            peer.result = (msg[1], msg[2], msg[3], msg[4])
            results[peer.wid] = peer.result
            if len(msg) > 5 and msg[5] and parent_tracer is not None:
                parent_tracer.absorb(msg[5])
            peer.finished = True
            peer.waiting = False
            if peer.lease is not None:
                # fed in the same instant the worker wound down on its
                # own (deadline race): put the untouched batch back
                queue.append(peer.lease)
                peer.lease = None

    def pump_all(timeout: float) -> bool:
        """Accept + read every connection; True if anything happened."""
        import select as select_mod

        progressed = False
        socks = [lsock] + [p.stream.sock for p in peers.values()]
        try:
            readable, _, _ = select_mod.select(socks, [], [], timeout)
        except (OSError, ValueError):
            readable = []
        readable_set = set(readable)
        if lsock in readable_set:
            while True:
                try:
                    conn, _ = lsock.accept()
                except (BlockingIOError, OSError):
                    break
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                wid_seq[0] += 1
                peers[wid_seq[0]] = _Peer(MessageStream(conn), wid_seq[0])
                progressed = True
        for peer in list(peers.values()):
            if peer.stream.sock not in readable_set:
                continue
            try:
                for msg in peer.stream.poll(0.0):
                    handle_message(peer, msg)
                    progressed = True
            except (TransportClosed, ProtocolError, EOFError):
                drop_peer(peer, died=True)
                progressed = True
        return progressed

    def feed_ready_peers() -> None:
        if done_sent[0]:
            return
        for peer in live_peers():
            if not queue:
                break
            if peer.waiting and peer.lease is None:
                batch = queue.popleft()
                # Charged at send time: a peer that dies before its
                # lease_done gets this batch re-enqueued by drop_peer.
                peer.lease = batch
                peer.waiting = False
                try:
                    peer.stream.send(("work", batch, len(queue)))
                except TransportClosed:
                    drop_peer(peer, died=True)

    results: Dict[int, Tuple[int, List, int, Dict[str, float]]] = {}
    try:
        # ------------------------- supervisor loop ------------------------ #
        while True:
            progressed = pump_all(0.01)
            feed_ready_peers()

            if deadline_at is not None and time.monotonic() >= deadline_at:
                request_done(_STOP_DEADLINE)

            # Ledger termination test: nothing queued, nothing leased — no
            # node anywhere can create more work, so the search is done.
            if (not done_sent[0] and not queue
                    and all(p.lease is None for p in peers.values())
                    and any(p.stage == "live" for p in peers.values())):
                request_done(_STOP_NONE)

            # reap exited local processes (their conn death re-enqueues)
            for p in list(procs):
                if not p.is_alive():
                    p.join()
                    procs.remove(p)

            alive_conns = [p for p in peers.values() if not p.finished]
            if done_sent[0] and not alive_conns:
                break
            if done_sent[0]:
                continue

            if not peers and not procs and not any(
                    h.poll() is None for h in host_procs):
                # every process is gone and nobody is connected
                break
            if not peers and time.monotonic() - started > _CONNECT_GRACE_S:
                inline_drains[0] += 1
                warnings.warn("distributed: no worker ever connected; "
                              "draining inline", RuntimeWarning)
                break
            if not progressed:
                time.sleep(0.002)

        # ------------------------- wind-down ----------------------------- #
        request_done(_STOP_NONE)
        windup_until = time.monotonic() + _WINDDOWN_S
        while (any(not p.finished for p in peers.values())
               and time.monotonic() < windup_until):
            pump_all(0.02)
        for peer in list(peers.values()):
            if peer.result is not None:
                results[peer.wid] = peer.result
            drop_peer(peer, died=False)
        run.wall = time.perf_counter() - start

        run.timed_out = stop_reason[0] != _STOP_NONE and not run.found
        run.deadline_tripped = stop_reason[0] == _STOP_DEADLINE
        # Result frames carry each finisher's exact total (including the
        # unflushed tail); dead peers contribute what they flushed.
        run.nodes = sum(r[0] for r in results.values()) + lost_nodes[0]
        run.per_worker = [r[0] for _, r in sorted(results.items())]
        run.recovered = sum(r[2] for r in results.values())
        per_worker_comms = {wid: r[3] for wid, r in results.items()}
        run.comms = {
            "per_worker": per_worker_comms,
            "totals": CommStats.totals(per_worker_comms),
        }
        remaining: List[object] = []
        for batch in queue:
            remaining.extend(batch)
        if run.timed_out:
            for _, leftovers, _, _ in results.values():
                remaining.extend(leftovers)
            run.pending = [decode_wire(w, root_deg) for w in remaining]
        elif remaining and not run.found:
            inline_drains[0] += 1
            warnings.warn(
                f"distributed: draining {len(remaining)} sub-trees inline",
                RuntimeWarning,
            )
            size, cover = _drain_inline(
                graph, mode, k, [decode_wire(w, root_deg) for w in remaining],
                run.best_size if mode == "mvc" and run.best_size is not None
                else (initial_best if mode == "mvc" else k),
                run.best_cover, bound, kernels_name,
            )
            if size is not None and (run.best_size is None or size <= run.best_size):
                run.best_size, run.best_cover = size, cover
                if mode == "pvc":
                    run.found = True
        run.supervision = {
            "recovered": float(run.recovered),
            "workers_lost": float(run.lost),
            "respawns": float(respawns_used[0]),
            "retired_slots": float(retired_slots[0]),
            "inline_drains": float(inline_drains[0]),
            "lost_nodes": float(lost_nodes[0]),
        }
    finally:
        for peer in list(peers.values()):
            peer.stream.close()
        try:
            lsock.close()
        except OSError:  # pragma: no cover
            pass
        for p in procs:
            p.join(timeout=1.0)
            if p.is_alive():  # pragma: no cover - defensive
                p.terminate()
                p.join(timeout=1.0)
        for h in host_procs:
            if h.poll() is None:
                try:
                    h.terminate()
                    h.wait(timeout=2.0)
                except Exception:  # pragma: no cover - defensive
                    h.kill()
        if plane is not None:
            plane.close()
    return run


def solve_mvc_distributed(
    graph: CSRGraph,
    *,
    n_workers: int = 2,
    hosts: int = 0,
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
    """Minimum vertex cover with a coordinator + socket-worker pool."""
    greedy = greedy_cover(graph, kernels=kernels)
    best0, cover0 = greedy.size, greedy.cover
    if initial_best is not None and initial_best[0] < best0:
        best0 = int(initial_best[0])
        cover0 = np.asarray(initial_best[1], dtype=np.int32)
    if graph.m == 0:
        return CpuParallelResult("distributed", "mvc", 0, np.empty(0, dtype=np.int32),
                                 None, False, 0, n_workers + hosts, 0.0, greedy.size)
    run = _run_distributed(
        graph, "mvc", 0, n_workers=n_workers, hosts=hosts, threshold=threshold,
        node_budget=node_budget, initial_best=best0, initial_cover=cover0,
        bound=bound, kernels=kernels, deadline=deadline, roots=roots,
        lease_batch=lease_batch, codec=codec,
    )
    return CpuParallelResult(
        engine="distributed",
        formulation="mvc",
        optimum=run.best_size,
        cover=run.best_cover,
        feasible=None,
        timed_out=run.timed_out,
        nodes_visited=run.nodes,
        n_workers=n_workers + hosts,
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


def solve_pvc_distributed(
    graph: CSRGraph,
    k: int,
    *,
    n_workers: int = 2,
    hosts: int = 0,
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
    """Parameterized vertex cover with a coordinator + socket-worker pool."""
    if k < 0:
        raise ValueError("k must be non-negative")
    greedy = greedy_cover(graph, kernels=kernels)
    if graph.m == 0:
        return CpuParallelResult("distributed", "pvc", 0, np.empty(0, dtype=np.int32),
                                 True, False, 0, n_workers + hosts, 0.0, greedy.size)
    run = _run_distributed(
        graph, "pvc", k, n_workers=n_workers, hosts=hosts, threshold=threshold,
        node_budget=node_budget, initial_best=graph.n + 1, initial_cover=None,
        bound=bound, kernels=kernels, deadline=deadline, roots=roots,
        lease_batch=lease_batch, codec=codec,
    )
    feasible: Optional[bool]
    if run.found and run.best_cover is not None:
        feasible = True
    elif run.timed_out:
        feasible = None
    else:
        feasible = False
    return CpuParallelResult(
        engine="distributed",
        formulation="pvc",
        optimum=run.best_size if feasible else None,
        cover=run.best_cover if feasible else None,
        feasible=feasible,
        timed_out=run.timed_out,
        nodes_visited=run.nodes,
        n_workers=n_workers + hosts,
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

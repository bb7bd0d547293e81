"""The supervised lease protocol over sockets: the distributed engine.

A coordinator runs the supervision state machine — single work ledger,
leases charged until ``lease_done``, dead peers re-enqueued — over
:class:`~repro.net.transport.MessageStream` connections.  It backs three
facade engine names: ``distributed``, and ``cpu-threads`` and
``cpu-process``, which are the same solve with ``hosts=0`` (local
workers only; the names are kept for committed specs, checkpoints and
metric labels, and no longer mean a second thread engine or a process
per worker).  The engine starts ``n_workers`` local workers as threads
of its own process, each joined to the coordinator by a ``socketpair``
(so every run, including CI, exercises the real socket path), spawns
``hosts`` additional ``repro serve-worker`` *subprocesses* (cold Python
interpreters simulating extra hosts on localhost) that connect to the
coordinator's loopback port, and accepts any externally launched
``repro serve-worker --connect HOST:PORT`` into the same pool.

As in the paper, every local worker walks its own sub-tree on a private
stack in one address space and meets the others only at the global
worklist: the compiled ``Walker`` releases the GIL for each chunk, so
worker threads walk in parallel.  Without it (no compiler,
``kernels="scalar"``, armed step telemetry or step faults) they run the
interpreted loop: correct, but serialized by the GIL.  Either way the
coordination protocol — donation, termination, incumbent propagation,
node grants — runs under genuine concurrency, and the test suite
exercises it for races the discrete-event simulator cannot produce.

A worker thread shares the graph, its root degrees and its ``init``
parameters with the coordinator, so it starts live: no TCP connect, no
handshake.  A TCP peer (a ``hosts`` subprocess or an
external ``serve-worker``) gets them through the handshake: the
coordinator publishes the shared-memory graph plane
(:mod:`repro.graph.plane`) when the first one says ``hello`` and offers
it by name; a same-host worker attaches it zero-copy, a remote one
answers ``need_graph`` and receives the CSR arrays inline, once.  After
that, only codec frames, incumbents and counters cross the wire — the
incumbent broadcast is the only shared mutable state, exactly as in the
paper's GPU formulation.

A worker walks its leases as node-budget chunks of one
:class:`~repro.core.sequential.ChunkWalk` (a compiled ``Walker`` that
keeps the stack in C when the configuration allows it) and talks to the
coordinator only between chunks; while another worker starves for work
it donates from the bottom of that stack.  The coordinator checks the
shape of every frame a live worker sends, and every incumbent it
reports, before acting on it; a frame that fails drops the peer.

Protocol (all messages are pickled tuples; see ``net/transport.py``).
The first three rows are the TCP handshake; worker threads skip them:

====================  =============================================
worker -> coordinator  coordinator -> worker
====================  =============================================
``("hello", pid)``     ``("plane", name|None, n, nidx)``
``("attached",)`` /    ``("graph", indptr, indices)`` (on demand)
``("need_graph",)``    ``("init", params)``
``("ready",)``         ``("grant", cap)`` (under a node budget)
``("lease_done",)``    ``("work", [payload, ...], need)``
``("donate", [payload, ...])``
                       ``("need", need)``
``("best", size, cover)``     ``("best", size)``
``("nodes", delta)``   ``("done",)``
``("result", nodes, leftovers, recovered, comms[, spans])``
====================  =============================================

A lease is charged to a connection the moment the ``work`` frame is
written; a connection that dies — EOF, reset, torn or malformed frame —
before its ``lease_done`` gets its batch re-enqueued, exactly like a
dead local worker, and the slot is respawned (as a worker thread) with
the same bounded-retry policy.  If every peer is gone with work
outstanding, the coordinator drains the remainder inline through the
sequential solver, within what is left of the node budget and the
deadline.

``need`` is the coordinator's count of peers waiting for a lease that
no queued batch can feed (waiting unfed peers minus queued batches,
never below zero).  It rides on every ``work`` frame, and a ``need``
frame carries each change of it to every lease holder; a worker that
sees ``need > 0`` donates at its next chunk boundary (see
:func:`_worker_loop`), so sub-trees move only toward a starving peer.

Under a ``node_budget`` the coordinator hands the budget out in node
grants and keeps one invariant: the nodes reported in ``nodes`` frames
plus the grants not yet spent never exceed the budget.  A ``grant``
frame precedes every ``work`` frame and carries that peer's share of
the budget not yet handed out (split evenly over the live peers that
hold none), as a cap on the worker's own node count.  A worker walks no
chunk past its cap; when it reaches the cap with work in hand it
reports its node delta and waits for a top-up (another ``grant``) or
``done``.  A peer that asks for work (``ready``: it has reported every
node it walked) or dies hands its unspent grant back, so it can be
granted to a peer that still has work.  Once nothing is left to grant
and every grant is spent, the reported nodes equal the budget and the
coordinator sends ``done``.  Without a budget no ``grant`` frame is
sent and workers walk uncapped.
"""

from __future__ import annotations

import numbers
import os
import select
import socket
import subprocess
import sys
import threading
import time
import warnings
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import faults
from ..core.formulation import BestBound, Formulation, FoundFlag, MVCFormulation, PVCFormulation
from ..core.greedy import greedy_cover
from ..core.kernel_backends import resolve_kernels
from ..core.outcome import SolveOutcome, finish_outcome
from ..core.sequential import ChunkWalk, solve_mvc_sequential, solve_pvc_sequential
from ..core.stats import SearchStats
from ..core.verify import cover_defect
from ..graph.csr import CSRGraph
from ..graph.degree_array import VCState, fresh_state, state_codec
from ..graph.plane import GraphPlane, publish_plane
from ..obs import trace as obs_trace
from .transport import MessageStream, ProtocolError, TransportClosed

__all__ = ["CommStats", "solve_mvc_distributed",
           "solve_pvc_distributed", "run_worker_client"]

#: How long the coordinator waits for the first worker to join before
#: concluding nobody is coming and draining inline, the longest the
#: start-up barrier holds the first leases back, and the longest a
#: finished solve waits for a spawned host to connect.
_CONNECT_GRACE_S = 10.0

#: Wind-down budget: how long to wait for ``result`` frames after ``done``.
_WINDDOWN_S = 10.0

#: Worker chunk lengths, in search nodes.  A worker touches its socket
#: only between chunks: a long chunk while no peer needs work, a short
#: one (then a donation) while the coordinator's ``need`` is positive.
#: The compiled walk keeps its stack in C between chunks, so a chunk
#: boundary costs one call, not a copy of the stack; the long chunk
#: bounds how long a ``need`` or an incumbent broadcast waits for a
#: worker to read it.
_CHUNK_LONG = 256
_CHUNK_SHORT = 64

_STOP_NONE, _STOP_BUDGET, _STOP_DEADLINE = 0, 1, 2

#: Respawn policy: a dead peer's slot is refilled by a fresh thread until
#: ``MAX_RESPAWNS * n_workers`` respawns are spent; then the pool
#: degrades to fewer workers (loud warning).
MAX_RESPAWNS = 2

#: Sub-trees handed out per ``work`` frame (and shipped per ``donate``
#: frame).
LEASE_BATCH = 8


class CommStats:
    """Per-worker communication counters (messages, bytes, lease traffic).

    Accumulated inside each worker, shipped home with its ``result``
    frame, and aggregated onto :attr:`SolveOutcome.comms` — so the
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
        # Sum every reported key, not just FIELDS: the exact socket byte
        # counts (wire_sent/wire_received) and the walk counters extend
        # the dict, and those extras must survive aggregation.
        out: Dict[str, float] = {name: 0 for name in CommStats.FIELDS}
        for counters in per_worker.values():
            for name, value in counters.items():
                out[name] = out.get(name, 0) + value
        return out


def _check_pool(n_workers: int, hosts: int, threshold: int) -> None:
    if n_workers < 0 or hosts < 0 or n_workers + hosts < 1:
        raise ValueError("need at least one worker (n_workers + hosts >= 1)")
    if threshold < 1:
        raise ValueError(f"threshold must be at least 1, got {threshold}")


# --------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------- #
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
    except faults.WorkerKilled:
        os._exit(faults.KILL_EXIT_CODE)  # a host dies as a process
    finally:
        stream.close()


def _worker_session(stream: MessageStream, salt: int) -> None:
    """The TCP handshake (graph plane or inline graph, then ``init``)."""
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
    _arm_worker(params, salt, time.monotonic())
    _worker_loop(stream, graph, root_deg, params, ship_spans=True)


def _arm_worker(params: Dict[str, object], salt: int, received_at: float) -> None:
    """Seed a TCP worker process's fault plan and arm its tracer as
    ``params`` say.

    The coordinator's trace identity travels in the ``init`` parameters,
    so a cold ``serve-worker`` interpreter joins the coordinator's trace
    (its metrics registry stays disarmed: nothing it would count goes
    home).  The epoch is recovered from the coordinator's
    elapsed-seconds stamp (``now_rel``) taken at ``received_at``: exact
    on the same host (CLOCK_MONOTONIC is system-wide), one network hop
    of skew on a real remote.  This arms and disarms process-global
    state, so the coordinator's own worker threads never call it (see
    :func:`_local_worker_main`).
    """
    faults.reseed(params.get("salt", salt))
    tele = params.get("telemetry")
    if tele and tele.get("trace_id"):
        obs_trace.arm(str(tele["trace_id"]),
                      received_at - float(tele.get("now_rel", 0.0)))
    else:
        obs_trace.disarm()


def _worker_loop(stream: MessageStream, graph: CSRGraph,
                 root_deg: np.ndarray, params: Dict[str, object], *,
                 ship_spans: bool = False) -> None:
    """Walk leased sub-trees in node-budget chunks of one ``ChunkWalk``.

    The chunk is the worker's unit of contact with the coordinator:
    between two chunks it reads broadcasts, reports any improved
    incumbent, checks the deadline and, while the coordinator reports a
    positive ``need``, donates the bottom of its stack.  Under a node
    budget no chunk runs past the worker's granted cap, and a worker at
    its cap reports its node delta and waits for a top-up.

    A worker process (``ship_spans``) drains its tracer into the
    ``result`` frame; a worker thread's spans are already in the
    coordinator's tracer.
    """
    # Ask for the first lease before building anything: the coordinator's
    # start-up barrier waits for every local worker's ready, and this
    # worker's set-up overlaps that wait.
    stream.send(("ready",))
    asked = True  # a ready is out that no lease has answered yet
    best: Optional[BestBound] = None
    flag: Optional[FoundFlag] = None
    formulation: Formulation
    if params["mode"] == "mvc":
        best = BestBound(size=int(params["initial_best"]))
        formulation = MVCFormulation(best)
    else:
        flag = FoundFlag()
        formulation = PVCFormulation(k=int(params["k"]), flag=flag)
    enc, dec = state_codec(root_deg)
    threshold = int(params["threshold"])
    deadline_s = params.get("deadline_s")
    deadline_at = None if deadline_s is None else time.monotonic() + float(deadline_s)
    plan = faults.current_plan()
    kill_active = plan is not None and "worker_kill" in plan.sites()
    delay_active = plan is not None and "queue_delay" in plan.sites()
    # Under a fault plan every node is a chunk of its own, so kills and
    # delays fire per node.
    long_chunk, short_chunk = (1, 1) if plan is not None else (_CHUNK_LONG, _CHUNK_SHORT)
    stats = SearchStats()
    walk = ChunkWalk(graph, formulation, bound=str(params["bound"]),
                     kernels=str(params["kernels"]), stats=stats)
    comms = CommStats()
    comms.messages = 1  # the first ready
    chunks = 0
    need = 0  # peers starving for work, as the coordinator last said
    nodes_sent = 0
    updates_sent = 0
    has_lease = False
    done = False
    # Under a node budget: the node count this worker may walk up to, as
    # the coordinator's last ``grant`` frame set it (None: no budget).
    cap: Optional[int] = None
    # Frames posted between two chunks leave in one write, so the
    # coordinator wakes once per chunk boundary, not once per frame.
    outbox: List[Tuple] = []

    def post(msg: Tuple) -> None:
        outbox.append(msg)
        comms.messages += 1

    def flush() -> None:
        if outbox:
            stream.send_all(outbox)
            outbox.clear()

    def handle(msg) -> None:
        nonlocal need, done, has_lease, asked, cap
        kind = msg[0]
        if kind == "grant":
            cap = msg[1]
        elif kind == "work":
            # A lease can land whenever a ready is out, also before this
            # worker starts waiting for it.
            batch, need = msg[1], msg[2]
            has_lease = True
            asked = False
            comms.leases += 1
            comms.subtrees += len(batch)
            comms.bytes_received += sum(map(len, batch))
            with obs_trace.span("lease"):
                walk.push([dec(payload) for payload in reversed(batch)])
        elif kind == "need":
            need = msg[1]
        elif kind == "best":
            if best is not None and msg[1] < best.size:
                # Only the size: the cover behind it stays with the
                # coordinator, and updates does not move, so no stale
                # cover is ever reported under the new size.
                best.size = msg[1]
                best.cover = None
        elif kind == "done":
            done = True

    def post_nodes() -> None:
        nonlocal nodes_sent
        if stats.nodes_visited > nodes_sent:
            post(("nodes", stats.nodes_visited - nodes_sent))
            nodes_sent = stats.nodes_visited

    def post_best(size: int, cover: np.ndarray) -> None:
        payload = np.asarray(cover, dtype=np.int32).tobytes()
        post(("best", int(size), payload))
        comms.bytes_sent += len(payload)

    def donate_bottom() -> None:
        # The bottom of a depth-first stack holds the shallowest, largest
        # sub-trees: a lease batch per starving peer, capped at threshold
        # and at half the stack.  The top item stays so this worker keeps
        # walking; with nothing below it, need stands until the next
        # boundary.  Donations leave with this chunk boundary's write, one
        # lease batch per frame.
        nonlocal need
        states = walk.donate_bottom(
            max(1, min(threshold, need * LEASE_BATCH, len(walk) // 2)))
        if not states:
            return
        need = 0
        for i in range(0, len(states), LEASE_BATCH):
            payloads = [enc(state) for state in states[i:i + LEASE_BATCH]]
            if delay_active:
                faults.fire("queue_delay")
            post(("donate", payloads))
            comms.donations += len(payloads)
            comms.bytes_sent += sum(map(len, payloads))

    def post_lease_done() -> None:
        nonlocal has_lease
        if has_lease:
            post_nodes()
            post(("lease_done",))
            has_lease = False

    def idle_until(ready: Callable[[], bool]) -> bool:
        """Read the coordinator's frames until ``ready()``; False once
        the solve is done, stopped or past its deadline."""
        idle_from = time.monotonic()
        wait = 0.001
        # Every exit counts, the final wait for ``done`` (the tail
        # imbalance) included.
        with obs_trace.span("idle"):
            try:
                while True:
                    if done or formulation.stop_requested():
                        return False
                    if deadline_at is not None and time.monotonic() >= deadline_at:
                        return False
                    if delay_active:
                        faults.fire("queue_delay")
                    # Read the whole batch: a ``done`` right behind the
                    # lease must not be lost.
                    for msg in stream.poll(wait):
                        handle(msg)
                    if ready():
                        return True
                    wait = min(wait * 2.0, 0.05)
            finally:
                comms.idle_s += time.monotonic() - idle_from

    def get_work() -> bool:
        nonlocal asked
        if not asked:
            post_lease_done()
            post(("ready",))
            flush()
            asked = True
        return idle_until(lambda: has_lease)

    while True:
        if done or formulation.stop_requested():
            break
        if deadline_at is not None and time.monotonic() >= deadline_at:
            break
        if not walk and not get_work():
            break
        if cap is not None and stats.nodes_visited >= cap and \
                not idle_until(lambda: stats.nodes_visited < cap):
            break  # no top-up came before ``done``
        if kill_active:
            faults.fire("worker_kill")  # may raise WorkerKilled right here
        chunk = short_chunk if need else long_chunk
        if cap is not None:
            chunk = min(chunk, cap - stats.nodes_visited)
        walk.run(chunk)
        chunks += 1
        if best is not None and best.updates != updates_sent:
            updates_sent = best.updates
            post_best(best.size, best.cover)
        elif flag is not None and flag.found:
            post_best(flag.size, flag.cover)
        # The chunk boundary: read what arrived during the chunk (after
        # reporting this chunk's incumbent, which a ``best`` broadcast
        # would strip of its cover), so that a fresh ``need`` is answered
        # now, not a chunk later.
        for msg in stream.poll(0.0):
            handle(msg)
        if need:
            donate_bottom()
        if plan is not None or (cap is not None and stats.nodes_visited >= cap):
            # The node delta is worth a frame of its own under chaos, where
            # it prices a lost peer, and at the grant's end, where the
            # coordinator needs it to top the grant up or end the solve;
            # otherwise it goes with each lease_done.
            post_nodes()
        if outbox:
            with obs_trace.span("frame"):
                flush()

    # Wind-down: everything still in hand goes home with the result.
    leftovers = [enc(state) for state in walk.drain()]
    post_lease_done()
    post_nodes()
    flush()
    comms.messages += 1
    comms.bytes_sent += sum(map(len, leftovers))
    # Exact socket byte counts from the transport, alongside the payload
    # bytes counted above.  wire_received includes the inline graph frame
    # on the need_graph path, which is the cost the shared-memory plane
    # exists to avoid; wire_sent excludes only the final result frame (its
    # size would have to contain itself).
    comms_dict = comms.as_dict()
    comms_dict["wire_sent"] = stream.bytes_sent
    comms_dict["wire_received"] = stream.decoder.bytes_fed
    # Chunks walked, and how many of them ran on the compiled Walker; its
    # item counters show what crossed into Python (donations, leftovers).
    walker = walk.walker
    comms_dict["chunks"] = chunks
    comms_dict["native_search"] = 0 if walker is None else walker.runs
    if walker is not None:
        comms_dict["walker_items_in"] = walker.items_in
        comms_dict["walker_items_out"] = walker.items_out
    # A worker process's drained span rows ride the result frame as its
    # sixth element.
    tracer = obs_trace.get() if ship_spans else None
    spans: List[list] = tracer.drain() if tracer is not None else []
    stream.send(("result", stats.nodes_visited, leftovers,
                 int(stats.extra.get("faults_recovered", 0)), comms_dict, spans))


def _local_worker_main(sock: socket.socket, wid: int, graph: CSRGraph,
                       root_deg: np.ndarray, params: Dict[str, object]) -> None:
    """Entry point of the engine's own worker threads.

    Everything the handshake would send — the graph, its root degrees,
    the ``init`` parameters — is already in this process's memory.  The
    coordinator's tracer and fault plan are too, so the thread arms
    nothing: it tags its trace lane with its worker id and fires faults
    from its own stream, salted per worker so a respawn does not replay
    its predecessor's.  An injected ``worker_kill`` aborts the socket with no
    ``result`` frame: the coordinator sees a dead peer.
    """
    stream = MessageStream(sock)
    obs_trace.set_worker(wid)
    try:
        with faults.worker_stream(int(params["salt"])):
            _worker_loop(stream, graph, root_deg, params)
    except (faults.WorkerKilled, TransportClosed, ConnectionError, EOFError,
            TimeoutError):
        pass  # killed, or the coordinator is gone: nothing left to do
    finally:
        stream.close()


# --------------------------------------------------------------------- #
# coordinator side
# --------------------------------------------------------------------- #
class _Peer:
    """One connected worker: a thread (live at once) or TCP (handshake first)."""

    __slots__ = ("stream", "wid", "stage", "lease", "waiting", "joined",
                 "finished", "result", "nodes_flushed", "told", "grant")

    def __init__(self, stream: MessageStream, wid: int, stage: str):
        self.stream = stream
        self.wid = wid
        self.stage = stage  # hello -> plane -> live, or live from the start
        self.lease: Optional[List[object]] = None
        self.waiting = 0  # order of its pending ready, 0 once fed
        self.joined = False  # has asked for its first lease
        self.finished = False
        self.result: Optional[Tuple[int, List, int, Dict[str, float]]] = None
        self.nodes_flushed = 0
        self.told = 0  # the need this peer last heard (0 once it donates)
        self.grant = 0  # granted nodes it has not reported yet


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
    # Worker threads share a faults.injected() plan with the coordinator;
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


def _checked_cover(graph: CSRGraph, size: int, k: Optional[int],
                   payload: object) -> np.ndarray:
    """Decode a worker's ``best`` cover, or raise ``ProtocolError``.

    The size must be an int, and the cover must have exactly that many
    vertices and certify it (:func:`~repro.core.verify.cover_defect`:
    distinct, in ``[0, n)``, at most ``k`` for PVC, every edge covered).
    """
    if type(size) is not int:
        raise ProtocolError(f"best frame: size {size!r} is not an int")
    try:
        cover = np.frombuffer(payload, dtype=np.int32)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"best frame: undecodable cover ({exc})") from None
    if cover.size != size:
        raise ProtocolError(f"best frame claims size {size} but carries "
                            f"{cover.size} vertices")
    defect = cover_defect(graph, cover, k=k)
    if defect is not None:
        raise ProtocolError(f"best frame: {defect}")
    return cover.copy()


def _is_count(value: object) -> bool:
    return type(value) is int and value >= 0


def _check_payloads(payloads: object, what: str) -> list:
    """A list of codec-v2 frames, or ``ProtocolError``."""
    if type(payloads) is not list or any(type(p) is not bytes for p in payloads):
        raise ProtocolError(f"{what}: not a list of wire frames")
    return payloads


#: Frame kinds a live worker may send, with their lengths.
_LIVE_ARITY = {"ready": (1,), "lease_done": (1,), "nodes": (2,),
               "donate": (2,), "best": (3,), "result": (5, 6)}


def _check_live_frame(msg: object) -> str:
    """Check a live worker frame's kind, arity and field types; return the
    kind or raise ``ProtocolError`` (``best`` payloads are checked by
    :func:`_checked_cover`)."""
    if type(msg) is not tuple or not msg or msg[0] not in _LIVE_ARITY:
        kind = msg[0] if type(msg) is tuple and msg else msg
        raise ProtocolError(f"unexpected frame {kind!r} from a live worker")
    kind = msg[0]
    if len(msg) not in _LIVE_ARITY[kind]:
        raise ProtocolError(f"{kind} frame has {len(msg)} fields")
    if kind == "nodes" and not _is_count(msg[1]):
        raise ProtocolError(f"nodes frame: delta {msg[1]!r} is not a count")
    elif kind == "donate" and not _check_payloads(msg[1], "donate frame"):
        raise ProtocolError("donate frame: no payloads")
    elif kind == "result":
        _, nodes, leftovers, recovered, comms = msg[:5]
        if not (_is_count(nodes) and _is_count(recovered)):
            raise ProtocolError("result frame: counts are not counts")
        _check_payloads(leftovers, "result frame")
        if type(comms) is not dict or any(
                type(key) is not str or not isinstance(value, numbers.Real)
                for key, value in comms.items()):
            raise ProtocolError("result frame: comms is not a counter dict")
        if len(msg) > 5 and type(msg[5]) is not list:
            raise ProtocolError("result frame: spans are not a list")
    return kind


def _drain_inline(graph: CSRGraph, mode: str, k: int, run: _DistRun,
                  states: List[VCState], *, node_budget: Optional[int],
                  deadline_at: Optional[float], bound: str, kernels: str) -> None:
    """Last resort: every peer is gone, so the coordinator finishes.

    The remaining sub-trees go to the sequential solver, seeded with the
    coordinator's incumbent and held to what is left of the node budget
    and the deadline.  Its nodes count towards ``run.nodes``; what it
    leaves unfinished becomes ``run.pending`` of an interrupted run.
    """
    budget = None if node_budget is None else max(0, node_budget - run.nodes)
    deadline = None if deadline_at is None else max(0.0, deadline_at - time.monotonic())
    if mode == "mvc":
        out = solve_mvc_sequential(graph, roots=states, node_budget=budget,
                                   deadline=deadline, bound=bound, kernels=kernels,
                                   initial_best=(run.best_size, run.best_cover))
    else:
        out = solve_pvc_sequential(graph, k, roots=states, node_budget=budget,
                                   deadline=deadline, bound=bound, kernels=kernels)
    run.nodes += out.nodes_visited
    if out.cover is not None and (run.best_size is None or out.optimum <= run.best_size):
        run.best_size, run.best_cover = out.optimum, out.cover
        run.found = mode == "pvc"
    if out.timed_out and not run.found:
        run.timed_out = True
        run.deadline_tripped = out.deadline_tripped
        run.pending = [state for state, _ in out.checkpoint.states(graph)]


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
    listen_host: str = "127.0.0.1",
) -> _DistRun:
    from collections import deque

    backend = resolve_kernels(kernels)
    kernels_name = backend.name
    graph.prewarm(adjacency=backend.uses_adjacency(graph))
    root_deg = np.asarray(graph.degrees, dtype=np.int32)
    enc, dec = state_codec(root_deg)
    # Published when the first TCP peer says hello: worker threads share
    # the graph, so a solve without a TCP peer never touches shm.
    plane: Optional[GraphPlane] = None

    run = _DistRun()
    run.best_size = initial_best if mode == "mvc" else None
    run.best_cover = initial_cover

    queue: "deque[List[object]]" = deque()
    # The start-up pool: held back from the queue until the local workers
    # have asked for work (see the supervisor loop), then split evenly
    # over every expected worker.
    pool = [enc(state) for state in ([fresh_state(graph)] if roots is None else roots)]
    released = [False]

    # Builtin scalars only: a peer loads frames with no pickle globals,
    # and a numpy scalar pickles as one.
    init_params = {
        "mode": mode, "k": int(k), "bound": bound, "kernels": kernels_name,
        "threshold": int(threshold), "initial_best": int(initial_best),
        "deadline_s": None if deadline is None else float(deadline),
    }

    lsock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    lsock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    lsock.bind((listen_host, 0))
    lsock.listen(n_workers + hosts + 4)
    lsock.setblocking(False)
    port = lsock.getsockname()[1]

    salt_seq = [0]
    peers: Dict[int, _Peer] = {}
    wid_seq = [0]
    joined = [0]          # peers that asked for their first lease
    ready_seq = [0]       # ready frames received, numbering waiting peers
    exited = [0]          # local worker threads joined
    stop_reason = [_STOP_NONE]
    done_sent = [False]
    respawns_used = [0]
    retired_slots = [0]   # peers lost after the respawn budget ran dry
    inline_drains = [0]   # wind-down paths that fell back to _drain_inline
    nodes_total = [0]
    # The part of the node budget no peer holds as a grant: nodes_total,
    # the peers' unspent grants and this always sum to the budget.
    ungranted = [node_budget]
    # An armed coordinator ships its trace identity in the init parameters
    # so every TCP worker places its spans on its timeline (worker threads
    # record into the coordinator's tracer directly).
    parent_tracer = obs_trace.get()
    started = time.monotonic()
    deadline_at = None if deadline is None else started + deadline
    start = time.perf_counter()

    def worker_params() -> Dict[str, object]:
        """The ``init`` parameters as of now: the deadline left."""
        salt_seq[0] += 1
        params = dict(init_params)
        params["salt"] = salt_seq[0]
        if deadline_at is not None:
            params["deadline_s"] = max(0.0, deadline_at - time.monotonic())
        if parent_tracer is not None:
            params["telemetry"] = {"trace_id": parent_tracer.trace_id,
                                   "now_rel": parent_tracer.now()}
        return params

    def add_peer(stream: MessageStream, stage: str) -> _Peer:
        wid_seq[0] += 1
        peer = peers[wid_seq[0]] = _Peer(stream, wid_seq[0], stage)
        return peer

    def go_live(peer: _Peer) -> None:
        peer.stage = "live"
        if done_sent[0]:
            peer.stream.send(("done",))

    def spawn_local() -> threading.Thread:
        """Start one worker thread on a socketpair; it is live from the start."""
        ours, theirs = socket.socketpair()
        peer = add_peer(MessageStream(ours), "live")
        thread = threading.Thread(
            target=_local_worker_main,
            args=(theirs, peer.wid, graph, root_deg, worker_params()),
            name=f"repro-worker-{peer.wid}", daemon=True)
        try:
            thread.start()
        except BaseException:
            peers.pop(peer.wid)
            ours.close()
            theirs.close()
            raise
        go_live(peer)
        return thread

    def live_peers() -> List[_Peer]:
        return [p for p in peers.values() if p.stage == "live" and not p.finished]

    def grant_frame(peer: _Peer) -> Tuple[str, int]:
        """Give a peer that holds no grant its share of the ungranted
        budget (possibly none), as a cap on its own node count."""
        grantless = sum(1 for p in live_peers() if not p.grant)
        share = -(-ungranted[0] // max(1, grantless))
        ungranted[0] -= share
        peer.grant = share
        return ("grant", peer.nodes_flushed + share)

    def reclaim_grant(peer: _Peer) -> None:
        ungranted[0] += peer.grant
        peer.grant = 0

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
        cover = _checked_cover(graph, size, k if mode == "pvc" else None, payload)
        if run.best_size is None or size < run.best_size:
            run.best_size = size
            run.best_cover = cover
            if mode == "mvc":
                broadcast(("best", size))
            else:
                run.found = True
                request_done(_STOP_NONE)

    def release_pool() -> None:
        """Queue the pool, split evenly over the expected workers."""
        released[0] = True
        per = max(1, min(LEASE_BATCH, -(-len(pool) // (n_workers + hosts))))
        for i in range(0, len(pool), per):
            queue.append(pool[i:i + per])

    lost_nodes = [0]  # flushed deltas of peers that died without a result

    reap_due = [False]    # a peer dropped: its worker may have exited
    accepted = [0]        # TCP connections accepted

    def hosts_joining() -> bool:
        """A spawned host is still starting and has not connected yet: a
        search that completes first still lets it join and hear ``done``
        (a tripped deadline or node budget does not wait)."""
        return (accepted[0] < hosts and stop_reason[0] == _STOP_NONE
                and time.monotonic() - started < _CONNECT_GRACE_S
                and any(h.poll() is None for h in host_procs))

    def drop_peer(peer: _Peer, *, died: bool) -> None:
        reap_due[0] = True
        peer.stream.close()
        peers.pop(peer.wid, None)
        if peer.lease is not None:
            # The lease roots dominate everything the dead peer had
            # expanded locally: re-enqueueing them loses nothing.
            queue.append(peer.lease)
            peer.lease = None
        if peer.grant:
            reclaim_grant(peer)
        if peer.finished:
            return
        if died:
            run.lost += 1
            lost_nodes[0] += peer.nodes_flushed
        if died and not done_sent[0]:
            if respawns_used[0] < MAX_RESPAWNS * max(1, n_workers):
                respawns_used[0] += 1
                workers.append(spawn_local())
            else:
                retired_slots[0] += 1
                warnings.warn(
                    f"distributed: peer {peer.wid} died and the respawn "
                    f"budget is spent; degrading to {len(peers)} workers",
                    RuntimeWarning,
                )

    def handle_message(peer: _Peer, msg) -> None:
        nonlocal plane
        if peer.stage == "hello":
            if type(msg) is not tuple or msg[:1] != ("hello",):
                raise ProtocolError(f"expected hello, got {msg!r:.60}")
            if plane is None:
                plane = publish_plane(graph)
            peer.stream.send(("plane",
                              None if plane is None else plane.name,
                              graph.n, int(graph.indices.size)))
            peer.stage = "plane"
            return
        if peer.stage == "plane":
            if msg == ("need_graph",):
                peer.stream.send(("graph", graph.indptr.tobytes(),
                                  graph.indices.tobytes()))
            elif msg != ("attached",):
                raise ProtocolError(f"expected attached/need_graph, got {msg!r:.60}")
            peer.stream.send(("init", worker_params()))
            go_live(peer)
            return
        kind = _check_live_frame(msg)
        if kind == "ready":
            ready_seq[0] += 1
            peer.waiting = ready_seq[0]
            if peer.grant:
                reclaim_grant(peer)  # an idle peer has reported every node
            if not peer.joined:
                peer.joined = True
                joined[0] += 1
        elif kind == "lease_done":
            peer.lease = None
        elif kind == "donate":
            queue.append(list(msg[1]))
            peer.told = 0  # a donor clears its need
        elif kind == "best":
            offer_best(msg[1], msg[2])
        elif kind == "nodes":
            if node_budget is not None:
                if msg[1] > peer.grant:
                    raise ProtocolError(f"nodes frame: {msg[1]} nodes past "
                                        f"the peer's grant of {peer.grant}")
                peer.grant -= msg[1]
            peer.nodes_flushed += msg[1]
            nodes_total[0] += msg[1]
        elif kind == "result":
            peer.result = (msg[1], msg[2], msg[3], msg[4])
            results[peer.wid] = peer.result
            if len(msg) > 5 and msg[5] and parent_tracer is not None:
                parent_tracer.absorb(msg[5])
            peer.finished = True
            peer.waiting = 0
            if peer.lease is not None:
                # fed in the same instant the worker wound down on its
                # own (deadline race): put the untouched batch back
                queue.append(peer.lease)
                peer.lease = None

    def pump_all(timeout: float) -> bool:
        """Accept + read every connection; True if anything happened."""
        progressed = False
        socks = [lsock] + [p.stream.sock for p in peers.values()]
        try:
            readable, _, _ = select.select(socks, [], [], timeout)
        except (OSError, ValueError):
            time.sleep(0.002)  # a socket closed under us: let the loop catch up
            return False
        readable_set = set(readable)
        if lsock in readable_set:
            while True:
                try:
                    conn, _ = lsock.accept()
                except (BlockingIOError, OSError):
                    break
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                add_peer(MessageStream(conn), "hello")
                accepted[0] += 1
                progressed = True
        for peer in list(peers.values()):
            if peer.stream.sock not in readable_set:
                continue
            try:
                for msg in peer.stream.read():
                    handle_message(peer, msg)
                    progressed = True
            except (TransportClosed, ProtocolError, EOFError):
                drop_peer(peer, died=True)
                progressed = True
        return progressed

    def need() -> int:
        """Waiting peers that no queued batch can feed."""
        starving = sum(1 for p in live_peers() if p.waiting and p.lease is None)
        return max(0, starving - len(queue))

    def feed_ready_peers() -> None:
        if done_sent[0] or not queue:
            return
        # Longest-waiting peer first: a worker that donates and then asks
        # for work again does not take its own donation back from a peer
        # that has been idle all along.
        fed = []
        for peer in sorted(live_peers(), key=lambda p: p.waiting):
            if not queue:
                break
            if peer.waiting and peer.lease is None:
                # Charged at send time: a peer that dies before its
                # lease_done gets this batch re-enqueued by drop_peer.
                peer.lease = queue.popleft()
                peer.waiting = 0
                fed.append(peer)
        told = need()
        for peer in fed:
            peer.told = told
            work = ("work", peer.lease, told)
            try:
                if node_budget is None:
                    peer.stream.send(work)
                else:
                    peer.stream.send_all((grant_frame(peer), work))
            except TransportClosed:
                drop_peer(peer, died=True)

    def top_up_grants() -> None:
        """Grant more nodes to every lease holder that has spent its grant."""
        if done_sent[0]:
            return
        for peer in live_peers():
            if not ungranted[0]:
                return
            if peer.lease is not None and not peer.grant:
                try:
                    peer.stream.send(grant_frame(peer))
                except TransportClosed:
                    pass  # death is handled by the read path

    def tell_need() -> None:
        """Send each lease holder the current ``need`` if it changed."""
        if done_sent[0]:
            return
        told = need()
        for peer in live_peers():
            if peer.lease is not None and peer.told != told:
                peer.told = told
                try:
                    peer.stream.send(("need", told))
                except TransportClosed:
                    pass  # death is handled by the read path

    results: Dict[int, Tuple[int, List, int, Dict[str, float]]] = {}
    workers: List[threading.Thread] = []
    host_procs: List["subprocess.Popen"] = []
    try:
        for _ in range(n_workers):
            workers.append(spawn_local())
        host_procs.extend(_spawn_host_process(port) for _ in range(hosts))
        # ------------------------- supervisor loop ------------------------ #
        while True:
            progressed = pump_all(0.01)
            # Start-up barrier: no lease goes out until as many peers as
            # there are local workers have asked for one (or died, or the
            # grace ran out), so a small tree cannot be finished by the
            # first worker to join.  Cold serve-worker hosts are not
            # waited for; they join through the queue and donations.
            if not released[0] and not done_sent[0] and (
                    not pool
                    or joined[0] + exited[0] + sum(
                        h.poll() is not None for h in host_procs)
                    >= (n_workers or hosts)
                    or time.monotonic() - started > _CONNECT_GRACE_S):
                release_pool()
            feed_ready_peers()
            tell_need()
            if node_budget is not None:
                if nodes_total[0] >= node_budget:
                    # nothing left to grant and every grant spent
                    request_done(_STOP_BUDGET)
                top_up_grants()

            if deadline_at is not None and time.monotonic() >= deadline_at:
                request_done(_STOP_DEADLINE)

            # Ledger termination test: nothing queued, nothing leased — no
            # node anywhere can create more work, so the search is done.
            if (not done_sent[0] and released[0] and not queue
                    and all(p.lease is None for p in peers.values())
                    and any(p.stage == "live" for p in peers.values())):
                request_done(_STOP_NONE)

            # Join exited worker threads (their conn death re-enqueues)
            # after a drop, or while nothing else is happening.
            if reap_due[0] or not progressed:
                reap_due[0] = False
                for thread in list(workers):
                    if not thread.is_alive():
                        thread.join()
                        workers.remove(thread)
                        exited[0] += 1

            alive_conns = [p for p in peers.values() if not p.finished]
            if done_sent[0] and not alive_conns and not hosts_joining():
                break
            if done_sent[0]:
                continue

            if not peers and not workers and not any(
                    h.poll() is None for h in host_procs):
                # every worker is gone and nobody is connected
                break
            if not peers and time.monotonic() - started > _CONNECT_GRACE_S:
                inline_drains[0] += 1
                warnings.warn("distributed: no worker ever connected; "
                              "draining inline", RuntimeWarning)
                break

        # ------------------------- wind-down ----------------------------- #
        if not released[0]:
            release_pool()
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
            run.pending = [dec(w) for w in remaining]
        elif remaining and not run.found:
            inline_drains[0] += 1
            warnings.warn(
                f"distributed: draining {len(remaining)} sub-trees inline",
                RuntimeWarning,
            )
            _drain_inline(graph, mode, k, run, [dec(w) for w in remaining],
                          node_budget=node_budget, deadline_at=deadline_at,
                          bound=bound, kernels=kernels_name)
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
        # Every coordinator end is closed, so a worker thread stops at its
        # next socket touch, at most one chunk away.
        for thread in workers:
            thread.join(timeout=_WINDDOWN_S)
            if thread.is_alive():  # pragma: no cover - defensive
                warnings.warn(f"distributed: worker thread {thread.name} "
                              "did not stop", RuntimeWarning)
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
    **_: object,
) -> SolveOutcome:
    """Minimum vertex cover with a coordinator + socket-worker pool.

    ``threshold`` (at least 1) caps the sub-trees one donation hands
    over; a worker donates only while a peer is waiting for work, one
    lease batch per waiting peer.
    """
    _check_pool(n_workers, hosts, threshold)
    if graph.m == 0:
        return finish_outcome(graph, None, engine="distributed",
                              cover=np.empty(0, dtype=np.int32))
    greedy = greedy_cover(graph, kernels=kernels)
    best0, cover0 = greedy.size, greedy.cover
    if initial_best is not None and initial_best[0] < best0:
        best0 = int(initial_best[0])
        cover0 = np.asarray(initial_best[1], dtype=np.int32)
    run = _run_distributed(
        graph, "mvc", 0, n_workers=n_workers, hosts=hosts, threshold=threshold,
        node_budget=node_budget, initial_best=best0, initial_cover=cover0,
        bound=bound, kernels=kernels, deadline=deadline, roots=roots,
    )
    return _finish(graph, None, run, bound)


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
    **_: object,
) -> SolveOutcome:
    """Parameterized vertex cover with a coordinator + socket-worker pool.

    ``threshold`` caps one donation, as in :func:`solve_mvc_distributed`.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    _check_pool(n_workers, hosts, threshold)
    if graph.m == 0:
        return finish_outcome(graph, k, engine="distributed",
                              cover=np.empty(0, dtype=np.int32))
    run = _run_distributed(
        graph, "pvc", k, n_workers=n_workers, hosts=hosts, threshold=threshold,
        node_budget=node_budget, initial_best=graph.n + 1, initial_cover=None,
        bound=bound, kernels=kernels, deadline=deadline, roots=roots,
    )
    return _finish(graph, k, run, bound)


def _finish(graph: CSRGraph, k: Optional[int], run: _DistRun, bound: str) -> SolveOutcome:
    """The outcome of one run; ``stats`` is the per-worker node counts."""
    return finish_outcome(
        graph, k, engine="distributed",
        cover=run.best_cover if k is None or run.found else None,
        size=run.best_size, interrupted=run.timed_out,
        deadline_tripped=run.deadline_tripped, nodes=run.nodes,
        pending=[(state, 0) for state in run.pending], bound=bound,
        wall_seconds=run.wall, stats=run.per_worker, comms=run.comms,
        supervision=run.supervision)

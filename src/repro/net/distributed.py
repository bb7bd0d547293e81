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
only codec frames, incumbents and counters cross the wire — the
incumbent broadcast is the only shared mutable state, exactly as in the
paper's GPU formulation.

A worker walks its lease with the sequential solver's
``branch_and_reduce`` in node-budget chunks (the compiled loop when the
configuration allows it) on its own depth-first stack, and talks to the
coordinator only between chunks; while the coordinator's queue runs low
it donates from the bottom of that stack.  The coordinator checks every
incumbent a worker reports before adopting it.

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
``("best", size, cover)``     ``("best", size, depth)``
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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import faults
from ..core.bounds import make_bound
from ..core.formulation import BestBound, Formulation, FoundFlag, MVCFormulation, PVCFormulation
from ..core.frontier import LifoFrontier
from ..core.greedy import greedy_cover
from ..core.kernel_backends import resolve_kernels
from ..core.sequential import branch_and_reduce
from ..core.stats import SearchStats
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
#: handshake before concluding nobody is coming and draining inline, and
#: the longest the start-up barrier holds the first leases back.
_CONNECT_GRACE_S = 10.0

#: Wind-down budget: how long to wait for ``result`` frames after ``done``.
_WINDDOWN_S = 10.0

#: Worker chunk lengths, in search nodes.  A worker touches its socket
#: only between chunks: a long chunk while the coordinator's queue is
#: well stocked, a short one (then a donation) while it runs low.  Each
#: chunk hands the local stack to compiled code and back, which costs
#: about 4% of a 1024-node chunk and about half of a 64-node one.
_CHUNK_LONG = 1024
_CHUNK_SHORT = 64

_STOP_NONE, _STOP_BUDGET, _STOP_DEADLINE = 0, 1, 2


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
    """Walk leased sub-trees in node-budget chunks of ``branch_and_reduce``.

    The chunk is the worker's unit of contact with the coordinator:
    between two chunks it reads broadcasts, reports its node delta and
    any improved incumbent, checks the deadline and, while the
    coordinator's queue is short, donates the bottom of its stack.
    """
    best: Optional[BestBound] = None
    flag: Optional[FoundFlag] = None
    formulation: Formulation
    if params["mode"] == "mvc":
        best = BestBound(size=int(params["initial_best"]))
        formulation = MVCFormulation(best)
    else:
        flag = FoundFlag()
        formulation = PVCFormulation(k=int(params["k"]), flag=flag)
    enc, dec = _codec_fns(str(params["codec"]), root_deg)
    threshold = int(params["threshold"])
    lease_batch = int(params["lease_batch"])
    deadline_s = params.get("deadline_s")
    deadline_at = None if deadline_s is None else time.monotonic() + float(deadline_s)
    node_cap = params.get("node_budget")
    plan = faults.current_plan()
    kill_active = plan is not None and "worker_kill" in plan.sites()
    delay_active = plan is not None and "queue_delay" in plan.sites()
    # Under a fault plan every node is a chunk of its own, so kills and
    # delays fire per node.
    long_chunk, short_chunk = (1, 1) if plan is not None else (_CHUNK_LONG, _CHUNK_SHORT)
    ws = Workspace.for_graph(graph)
    bound = make_bound(str(params["bound"]), graph, ws)
    kernels = resolve_kernels(str(params["kernels"]))
    stats = SearchStats()
    local = LifoFrontier()
    comms = CommStats()
    native_chunks = 0
    depth_hint = 0  # coordinator queue depth, in batches (advisory)
    nodes_sent = 0
    updates_sent = 0
    has_lease = False
    done = False

    def handle(msg) -> None:
        nonlocal depth_hint, done
        kind = msg[0]
        if kind == "best":
            depth_hint = msg[2]
            if best is not None and msg[1] < best.size:
                # Only the size: the cover behind it stays with the
                # coordinator, and updates does not move, so no stale
                # cover is ever reported under the new size.
                best.size = msg[1]
                best.cover = None
        elif kind == "done":
            done = True

    def flush_nodes() -> None:
        nonlocal nodes_sent
        if stats.nodes_visited > nodes_sent:
            stream.send(("nodes", stats.nodes_visited - nodes_sent))
            comms.messages += 1
            nodes_sent = stats.nodes_visited

    def send_best(size: int, cover: np.ndarray) -> None:
        payload = np.asarray(cover, dtype=np.int32).tobytes()
        stream.send(("best", size, payload))
        comms.messages += 1
        comms.bytes_sent += len(payload)

    def donate_bottom() -> None:
        # The bottom of a depth-first stack holds the shallowest, largest
        # sub-trees; the top item stays so this worker keeps walking.
        # Donations go out at once, one lease batch per frame.
        nonlocal depth_hint
        give = min(threshold - depth_hint * lease_batch, len(local) - 1)
        if give <= 0:
            return
        items = local.drain()[::-1]  # bottom to top
        for item in items[give:]:
            local.push(item)
        for i in range(0, give, lease_batch):
            payloads = [enc(state) for state, _ in items[i:min(give, i + lease_batch)]]
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
            flush_nodes()
            stream.send(("lease_done",))
            comms.messages += 1
            has_lease = False

    def get_work() -> bool:
        nonlocal has_lease, depth_hint
        finish_lease()
        stream.send(("ready",))
        comms.messages += 1
        idle_from = time.monotonic()
        wait = 0.001
        with obs_trace.span("idle"):
            while True:
                if done or formulation.stop_requested():
                    return False
                if deadline_at is not None and time.monotonic() >= deadline_at:
                    return False
                if delay_active:
                    faults.fire("queue_delay")
                for msg in stream.poll(wait):
                    if msg[0] != "work":
                        handle(msg)
                        continue
                    # Keep reading the batch: a ``done`` right behind the
                    # lease must not be lost.
                    comms.idle_s += time.monotonic() - idle_from
                    batch, depth_hint = msg[1], msg[2]
                    has_lease = True
                    comms.leases += 1
                    comms.subtrees += len(batch)
                    comms.bytes_received += sum(wire_nbytes(p) for p in batch)
                    with obs_trace.span("lease"):
                        for payload in reversed(batch):
                            local.push((dec(payload), 0))
                if has_lease:
                    return True
                wait = min(wait * 2.0, 0.05)

    while True:
        for msg in stream.poll(0.0):
            handle(msg)
        if done or formulation.stop_requested():
            break
        if deadline_at is not None and time.monotonic() >= deadline_at:
            break
        if node_cap is not None and stats.nodes_visited >= node_cap:
            break  # this worker alone has spent the solve's node budget
        if not local and not get_work():
            break
        if kill_active:
            faults.fire("worker_kill")  # may os._exit right here
        short = depth_hint * lease_batch < threshold
        chunk = short_chunk if short else long_chunk
        if node_cap is not None:
            # Under a node budget every chunk is short: a worker runs on
            # until a ``done`` reaches it, so the chunk bounds how far the
            # solve overshoots the budget.
            chunk = min(short_chunk, node_cap - stats.nodes_visited)
        root, _ = local.pop()
        branch_and_reduce(graph, formulation, ws=ws, root=root, frontier=local,
                          stats=stats, bound=bound, kernels=kernels,
                          node_budget=stats.nodes_visited + chunk)
        stats.extra.pop("timed_out", None)
        if stats.extra.pop("native_search", None):
            native_chunks += 1
        if best is not None and best.updates != updates_sent:
            updates_sent = best.updates
            send_best(best.size, best.cover)
        elif flag is not None and flag.found:
            send_best(flag.size, flag.cover)
        flush_nodes()
        if node_cap is not None:
            # Let the coordinator run on a busy host: it sums the deltas
            # and answers a spent budget with ``done``.
            os.sched_yield()
        if short:
            donate_bottom()

    # Wind-down: everything still in hand goes home with the result.
    leftovers = [enc(state) for state, _ in local.drain()]
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
    comms_dict["native_search"] = native_chunks
    # Telemetry rides the existing result frame: wall-time attribution as
    # extra ``obs_<kind>_s`` comms keys (CommStats.totals sums every key it
    # sees) and the drained span rows appended as a fifth element that old
    # coordinators simply never index.
    comms_dict.update(obs_breakdown.wall_obs_keys())
    tracer = obs_trace.get()
    spans = tracer.drain() if tracer is not None else []
    stream.send(("result", stats.nodes_visited, leftovers,
                 int(stats.extra.get("faults_recovered", 0)), comms_dict, spans))


def _local_worker_main(host: str, port: int, salt: int,
                       listener: socket.socket) -> None:
    """Entry point of the engine's own (forked) socket workers."""
    # Drop the fork's copy of the coordinator's listening socket, so that
    # closing it there refuses a worker that has not connected yet.
    listener.close()
    try:
        run_worker_client(host, port, salt=salt)
    except (TransportClosed, ConnectionError, EOFError, TimeoutError):
        pass  # coordinator gone: nothing useful left to do


# --------------------------------------------------------------------- #
# coordinator side
# --------------------------------------------------------------------- #
class _Peer:
    """One connected worker, local or remote — the protocol can't tell."""

    __slots__ = ("stream", "wid", "stage", "lease", "waiting", "joined",
                 "finished", "result", "nodes_flushed")

    def __init__(self, stream: MessageStream, wid: int):
        self.stream = stream
        self.wid = wid
        self.stage = "hello"  # hello -> plane -> live
        self.lease: Optional[List[object]] = None
        self.waiting = 0  # order of its pending ready, 0 once fed
        self.joined = False  # has asked for its first lease
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


def _checked_cover(graph: CSRGraph, rows: np.ndarray, size: int,
                   k: Optional[int], payload: object) -> np.ndarray:
    """Decode a worker's ``best`` cover, or raise ``ProtocolError``.

    The size must be an int (at most ``k`` for PVC), and the cover must
    have exactly that many vertices, distinct and in ``[0, n)``, and
    cover every edge; ``rows`` is the row index of each CSR entry, so
    the edge test is one vectorized pass over ``indices``.
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
    if k is not None and size > k:
        raise ProtocolError(f"best frame: cover of size {size} exceeds k={k}")
    if cover.size and (int(cover.min()) < 0 or int(cover.max()) >= graph.n):
        raise ProtocolError("best frame: cover vertex out of range")
    member = np.zeros(graph.n, dtype=bool)
    member[cover] = True
    if int(np.count_nonzero(member)) != size:
        raise ProtocolError("best frame: repeated cover vertices")
    if not np.all(member[rows] | member[graph.indices]):
        raise ProtocolError("best frame: cover leaves an edge uncovered")
    return cover.copy()


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
    # The start-up pool: held back from the queue until the local workers
    # have asked for work (see the supervisor loop), then split evenly
    # over every expected worker.
    pool = [enc(state) for state in ([fresh_state(graph)] if roots is None else roots)]
    released = [False]
    edge_rows = np.repeat(np.arange(graph.n, dtype=np.int32), np.diff(graph.indptr))

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
                        args=(listen_host, port, salt_seq[0], lsock),
                        daemon=True)
        p.start()
        return p

    procs: List["mp.Process"] = [spawn_local() for _ in range(n_workers)]
    host_procs: List["subprocess.Popen"] = [
        _spawn_host_process(port) for _ in range(hosts)]

    peers: Dict[int, _Peer] = {}
    wid_seq = [0]
    joined = [0]          # peers that asked for their first lease
    ready_seq = [0]       # ready frames received, numbering waiting peers
    exited = [0]          # local worker processes reaped
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
        cover = _checked_cover(graph, edge_rows, size,
                               k if mode == "pvc" else None, payload)
        if run.best_size is None or size < run.best_size:
            run.best_size = size
            run.best_cover = cover
            if mode == "mvc":
                broadcast(("best", size, len(queue)))
            else:
                run.found = True
                request_done(_STOP_NONE)

    def release_pool() -> None:
        """Queue the pool, split evenly over the expected workers."""
        released[0] = True
        per = max(1, min(lease_batch, -(-len(pool) // (n_workers + hosts))))
        for i in range(0, len(pool), per):
            queue.append(pool[i:i + per])

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
            if node_budget is not None:
                params["node_budget"] = max(0, node_budget - nodes_total[0])
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
            ready_seq[0] += 1
            peer.waiting = ready_seq[0]
            if not peer.joined:
                peer.joined = True
                joined[0] += 1
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
            peer.waiting = 0
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
        # Longest-waiting peer first: a worker that donates and then asks
        # for work again does not take its own donation back from a peer
        # that has been idle all along.
        for peer in sorted(live_peers(), key=lambda p: p.waiting):
            if not queue:
                break
            if peer.waiting and peer.lease is None:
                batch = queue.popleft()
                # Charged at send time: a peer that dies before its
                # lease_done gets this batch re-enqueued by drop_peer.
                peer.lease = batch
                peer.waiting = 0
                try:
                    peer.stream.send(("work", batch, len(queue)))
                except TransportClosed:
                    drop_peer(peer, died=True)

    results: Dict[int, Tuple[int, List, int, Dict[str, float]]] = {}
    try:
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

            if deadline_at is not None and time.monotonic() >= deadline_at:
                request_done(_STOP_DEADLINE)

            # Ledger termination test: nothing queued, nothing leased — no
            # node anywhere can create more work, so the search is done.
            if (not done_sent[0] and released[0] and not queue
                    and all(p.lease is None for p in peers.values())
                    and any(p.stage == "live" for p in peers.values())):
                request_done(_STOP_NONE)

            # reap exited local processes (their conn death re-enqueues)
            for p in list(procs):
                if not p.is_alive():
                    p.join()
                    procs.remove(p)
                    exited[0] += 1

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

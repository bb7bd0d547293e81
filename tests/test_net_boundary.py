"""The distributed engine's worker and frame boundaries.

Worker threads share the graph and their ``init`` parameters with the
coordinator, so a solve without TCP peers publishes no shared-memory
plane and sends no handshake frame; a ``serve-worker`` host still gets
the full handshake.  Every frame a live worker sends is checked for
kind, arity and field types: a malformed one drops the peer (its lease
re-enqueued) instead of crashing the solve, and a dropped worker thread
sees EOF and exits on its own.  In a plain solve each worker walks all
its chunks on one compiled ``Walker``, and stack items cross into Python
only as donations and leftovers.  A SIGINT mid-solve leaves no worker
thread, child process or shared-memory segment behind.
"""

import multiprocessing
import os
import signal
import socket
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sequential import solve_mvc_sequential
from repro.graph.generators.random_graphs import gnp
from repro.net import distributed
from repro.net.distributed import solve_mvc_distributed
from repro.net.transport import MessageStream, ProtocolError, TransportClosed


class _FakeHost:
    """Stands in for a serve-worker subprocess handle: runs ``client(port)``
    on a thread."""

    def __init__(self, client, port):
        self.thread = threading.Thread(target=client, args=(port,), daemon=True)
        self.thread.start()

    def poll(self):
        return None if self.thread.is_alive() else 0

    def terminate(self):
        pass

    def wait(self, timeout=None):
        self.thread.join(timeout)

    kill = terminate


def _handshake_then(frame, sent):
    """A TCP client that completes the handshake, sends ``frame`` and
    reads until the coordinator hangs up."""

    def client(port: int) -> None:
        stream = MessageStream(socket.create_connection(("127.0.0.1", port),
                                                        timeout=10))
        try:
            stream.send(("hello", 0))
            stream.recv(timeout=10)           # plane offer
            stream.send(("need_graph",))
            stream.recv(timeout=10)           # graph
            stream.recv(timeout=10)           # init
            stream.send(frame)
            sent.append(frame)
            while True:
                stream.recv(timeout=10)
        except (TransportClosed, OSError, EOFError):
            pass
        finally:
            stream.close()

    return client


#: Calls made by unpickling a :class:`_NamesAGlobal` (a loader that
#: honours pickle globals would make one; the strict loader makes none).
_GLOBAL_CALLS = []


def _record_call(note):
    _GLOBAL_CALLS.append(note)
    return ("ready",)


class _NamesAGlobal:
    """Pickles as a call to :func:`_record_call`, which would decode to a
    well-formed ``ready`` frame."""

    def __reduce__(self):
        return (_record_call, ("called from a wire frame",))


MALFORMED = {
    "names a pickle global": _NamesAGlobal(),
    "nodes not an int": ("nodes", "x"),
    "nodes without delta": ("nodes",),
    "nodes negative": ("nodes", -3),
    "donate not a list": ("donate", 5),
    "donate empty": ("donate", []),
    "donate wrong payload type": ("donate", [("not", "v2")]),
    "result short": ("result", 1),
    "result bad comms": ("result", 1, [], 0, {"messages": "many"}),
    "ready with a field": ("ready", 1),
    "lease_done with a field": ("lease_done", 0),
    "best short": ("best", 1),
    "unknown kind": ("steal", 1),
    "not a tuple": ["ready"],
    "empty tuple": (),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_live_frame_drops_the_peer(name, monkeypatch):
    g = gnp(40, 0.2, seed=6)
    want = solve_mvc_sequential(g).optimum
    sent = []
    monkeypatch.setattr(
        distributed, "_spawn_host_process",
        lambda port: _FakeHost(_handshake_then(MALFORMED[name], sent), port))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = solve_mvc_distributed(g, n_workers=1, hosts=1)
    assert sent, "the client never got to send its frame"
    assert res.optimum == want
    assert len(res.cover) == want
    assert res.supervision["workers_lost"] >= 1
    assert not _GLOBAL_CALLS, "decoding a frame called a pickle global"


def test_malformed_frame_after_a_lease_re_enqueues_it(monkeypatch):
    """The only worker is a TCP peer: it takes the whole tree as its lease,
    then sends a malformed frame.  It is dropped, and its lease goes back
    to the queue, where a respawned worker walks it: the solve still beats
    the greedy incumbent it started from."""
    from repro.core.greedy import greedy_cover

    g = gnp(40, 0.2, seed=6)
    want = solve_mvc_sequential(g).optimum
    assert greedy_cover(g).size > want  # a lost lease would return greedy's
    leases = []

    def client(port: int) -> None:
        stream = MessageStream(socket.create_connection(("127.0.0.1", port),
                                                        timeout=10))
        try:
            stream.send(("hello", 0))
            stream.recv(timeout=10)           # plane offer
            stream.send(("need_graph",))
            stream.recv(timeout=10)           # graph
            stream.recv(timeout=10)           # init
            stream.send(("ready",))
            while not leases:
                msg = stream.recv(timeout=10)
                if msg[0] == "work":
                    leases.append(msg[1])
            stream.send(("nodes", "x"))
            while True:
                stream.recv(timeout=10)
        except (TransportClosed, OSError, EOFError):
            pass
        finally:
            stream.close()

    monkeypatch.setattr(distributed, "_spawn_host_process",
                        lambda port: _FakeHost(client, port))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = solve_mvc_distributed(g, n_workers=0, hosts=1)
    assert leases and leases[0], "the peer never held a lease"
    assert res.supervision["workers_lost"] == 1
    assert res.supervision["respawns"] == 1
    assert res.optimum == want and len(res.cover) == want


#: Frames ``_check_live_frame`` must refuse, one per rule it enforces.
BAD_LIVE_FRAMES = {
    "unknown kind": ("steal", 1),
    "wrong arity": ("ready", 1),
    "result wrong arity": ("result", 1, [], 0),
    "nodes delta a float": ("nodes", 2.5),
    "nodes delta a bool": ("nodes", True),
    "result nodes not a count": ("result", -1, [], 0, {}),
    "result recovered not a count": ("result", 1, [], "0", {}),
    "result comms not a dict": ("result", 1, [], 0, [("messages", 1)]),
    "result comms not numeric": ("result", 1, [], 0, {"messages": "many"}),
    "result comms key not a str": ("result", 1, [], 0, {1: 1.0}),
    "result spans not a list": ("result", 1, [], 0, {}, ("span",)),
}


@pytest.mark.parametrize("name", sorted(BAD_LIVE_FRAMES))
def test_check_live_frame_raises_protocol_error(name):
    with pytest.raises(ProtocolError):
        distributed._check_live_frame(BAD_LIVE_FRAMES[name])
    # the well-formed neighbours of these frames pass
    assert distributed._check_live_frame(("nodes", 3)) == "nodes"
    assert distributed._check_live_frame(
        ("result", 1, [], 0, {"messages": 2, "idle_s": 0.5}, [])) == "result"


def test_forked_workers_get_no_handshake_and_no_plane(monkeypatch):
    def no_plane(graph):
        raise AssertionError("a hosts=0 solve published the shm plane")

    kinds = []
    send_all = MessageStream.send_all

    def spy(self, messages):
        kinds.extend(m[0] for m in messages)
        return send_all(self, messages)

    monkeypatch.setattr(distributed, "publish_plane", no_plane)
    monkeypatch.setattr(MessageStream, "send_all", spy)
    g = gnp(60, 0.12, seed=3)
    res = solve_mvc_distributed(g, n_workers=2)
    assert res.optimum == solve_mvc_sequential(g).optimum
    assert "work" in kinds and "done" in kinds
    assert not {"plane", "graph", "init"} & set(kinds)


def test_serve_worker_v1_receives_the_graph_inline(monkeypatch):
    """A TCP host attaches the shared-memory plane when there is one and
    is sent the CSR arrays inline when there is none, so the inline host
    receives at least the CSR bytes more.  A reduction-dominated instance
    (a one-node tree) keeps lease traffic out of the comparison."""
    from repro.graph.generators.suites import paper_suite

    g = next(i for i in paper_suite("small") if i.name == "lastfm_asia").graph()
    csr = g.indptr.nbytes + g.indices.nbytes
    want = solve_mvc_sequential(g).optimum

    def received():
        res = solve_mvc_distributed(g, n_workers=0, hosts=1)
        assert res.optimum == want
        return res.comms["totals"]["wire_received"]

    attached = received()
    monkeypatch.setattr(distributed, "publish_plane", lambda graph: None)
    inline = received()
    assert inline >= attached + csr


def test_dropped_local_worker_exits_on_its_own(monkeypatch, tmp_path):
    """Every worker thread sends a bad frame and waits for EOF.  Each must
    see it (the coordinator's end is not held open by a sibling), write
    its marker and exit, leaving no thread and no child; the solve drains
    inline."""

    def bad_loop(stream, graph, root_deg, params):
        stream.send(("nodes", "x"))
        try:
            stream.recv(timeout=30.0)
        except TransportClosed:
            (tmp_path / threading.current_thread().name).write_text("eof")

    monkeypatch.setattr(distributed, "_worker_loop", bad_loop)
    g = gnp(40, 0.2, seed=7)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = solve_mvc_distributed(g, n_workers=2)
    assert res.optimum == solve_mvc_sequential(g).optimum
    assert res.supervision["inline_drains"] >= 1
    assert _worker_threads() == []
    assert multiprocessing.active_children() == []
    spawned = res.supervision["workers_lost"]
    assert spawned >= 2
    assert len(list(tmp_path.iterdir())) == spawned


def test_each_worker_walks_all_its_chunks_on_one_walker():
    g = gnp(80, 0.15, seed=2)
    res = solve_mvc_distributed(g, n_workers=2)
    assert res.optimum == solve_mvc_sequential(g).optimum
    per_worker = res.comms["per_worker"]
    assert len(per_worker) == 2
    for comms in per_worker.values():
        assert comms["chunks"] > 0
        # every chunk ran on the worker's one Walker ...
        assert comms["native_search"] == comms["chunks"]
        # ... whose items came from leases and left only as donations
        # (a complete solve has no leftovers)
        assert comms["walker_items_in"] == comms["subtrees"]
        assert comms["walker_items_out"] == comms["donations"]
    assert sum(c["donations"] for c in per_worker.values()) > 0


def test_interpreted_workers_report_no_walker():
    g = gnp(40, 0.2, seed=6)
    res = solve_mvc_distributed(g, n_workers=2, kernels="scalar")
    assert res.optimum == solve_mvc_sequential(g).optimum
    for comms in res.comms["per_worker"].values():
        assert comms["native_search"] == 0
        assert "walker_items_in" not in comms
    assert res.comms["totals"]["chunks"] > 0



# --------------------------------------------------------------------- #
# the compiled codec-v2 twins
# --------------------------------------------------------------------- #
def _native():
    from repro.core import native

    module = native.load()
    assert module is not None, native.load_error()
    return module


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 60), seed=st.integers(0, 10_000),
       touched=st.floats(0.0, 1.0), hint=st.sampled_from([None, "list", "array"]),
       cover=st.integers(0, 10 ** 6), max_deg=st.integers(-1, 60))
def test_compiled_wire_codec_is_byte_identical(n, seed, touched, hint, cover,
                                               max_deg):
    """wire_encode writes the bytes VCState.to_wire_v2 writes, sparse and
    dense, and wire_decode reads back what from_wire_v2 reads."""
    from repro.graph.degree_array import VCState

    ext = _native()
    rng = np.random.default_rng(seed)
    root = rng.integers(0, n, size=n).astype(np.int32)
    deg = root.copy()
    mask = rng.random(n) < touched
    deg[mask] = rng.integers(-1, n, size=int(mask.sum()))
    dirty = None
    if hint is not None:
        dirty = rng.integers(0, n, size=int(rng.integers(0, 6))).tolist()
        if hint == "array":
            dirty = np.asarray(dirty, dtype=np.int64)
    state = VCState(deg, cover, int(rng.integers(0, 10 ** 6)), dirty, max_deg)
    frame = state.to_wire_v2(root)
    assert ext.wire_encode(deg, state.cover_size, state.edge_count, dirty,
                           max_deg, root) == frame
    got = ext.wire_decode(frame, root)
    ref = VCState.from_wire_v2(frame, root)
    assert np.array_equal(got[0], ref.deg) and got[0].dtype == np.int32
    assert got[1:3] + got[4:] == (ref.cover_size, ref.edge_count, ref.max_deg_hint)
    assert (got[3] is None) == (ref.dirty is None)
    if ref.dirty is not None:
        assert got[3].tolist() == np.asarray(ref.dirty).tolist()


def _malformed_frames(root):
    """Frames both codec-v2 decoders refuse, by name, against ``root``
    (n=10)."""
    from repro.graph.degree_array import VCState

    deg = root.copy()
    deg[3] = -1
    sparse = VCState(deg, 1, 5, [3], 2).to_wire_v2(root)
    dense = VCState(-np.ones(10, dtype=np.int32), 10, 0, None, -1).to_wire_v2(root)
    return {
        "empty": b"",
        "short header": b"\x02" * 10,
        "version 9": b"\x09" + sparse[1:],
        "mode 7": sparse[:1] + b"\x07" + sparse[2:],
        "dense with mode 7": dense[:1] + b"\x07" + dense[2:],
        "short sparse entries": sparse[:-1],
        "short dense array": dense[:-4],
        "sparse id 99": sparse[:-8] + np.array([99, 0], np.int32).tobytes(),
        "negative sparse id": sparse[:-8] + np.array([-1, 0], np.int32).tobytes(),
        "dirty count past the end": sparse[:32] + np.int64(10 ** 6).tobytes()
        + sparse[40:],
        "negative entry count": sparse[:48] + np.int64(-1).tobytes() + sparse[56:],
    }


def test_compiled_wire_decode_rejects_malformed_frames():
    ext = _native()
    root = np.arange(10, dtype=np.int32)
    deg = root.copy()
    deg[3] = -1
    for frame in _malformed_frames(root).values():
        with pytest.raises(ValueError):
            ext.wire_decode(frame, root)
    with pytest.raises(ValueError):
        ext.wire_encode(deg, 1, 5, [10], 2, root)  # hint out of range
    with pytest.raises(ValueError):
        ext.wire_encode(deg, 1, 5, None, 2, root[:-1])


@pytest.mark.parametrize("decoder", ("python", "compiled"))
def test_both_decoders_refuse_the_malformed_table(decoder, monkeypatch):
    """The Python decoder refuses what the compiled one refuses, with
    ``ValueError`` and nothing else (no ``struct.error``, no
    ``IndexError``, no silent write through a negative id); so does the
    codec pair in either mode."""
    from repro.core import native
    from repro.graph.degree_array import VCState, state_codec

    root = np.arange(10, dtype=np.int32)
    if decoder == "compiled":
        decode = lambda f: VCState(*_native().wire_decode(f, root))  # noqa: E731
    else:
        decode = lambda f: VCState.from_wire_v2(f, root)  # noqa: E731
        monkeypatch.setattr(native, "load", lambda: None)
    _, pair_decode = state_codec(root)
    for name, frame in _malformed_frames(root).items():
        for fn in (decode, pair_decode):
            with pytest.raises(ValueError):
                fn(frame)
            assert root.tolist() == list(range(10)), name


@pytest.mark.parametrize("kernels", ("native", "scalar"))
def test_lease_landing_during_worker_setup_is_walked(kernels, monkeypatch):
    """A worker asks for its first lease before it builds its walk.  A
    lease that lands while it builds (here: a slow build, so it always
    does) is walked like any other, on both loops, and no worker dies."""
    import time

    from repro.core import sequential

    init = sequential.ChunkWalk.__init__

    def slow_init(self, *args, **kwargs):
        time.sleep(0.05)
        init(self, *args, **kwargs)

    monkeypatch.setattr(sequential.ChunkWalk, "__init__", slow_init)
    g = gnp(60, 0.12, seed=3)
    res = solve_mvc_distributed(g, n_workers=2, kernels=kernels)
    assert res.optimum == solve_mvc_sequential(g).optimum
    assert res.supervision["workers_lost"] == 0
    assert res.comms["totals"]["leases"] >= 2


# --------------------------------------------------------------------- #
# SIGINT mid-solve
# --------------------------------------------------------------------- #
def _children():
    """Pids of this process's live children (every thread's)."""
    pids = set()
    for task in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{task}/children") as fh:
            pids.update(int(p) for p in fh.read().split())
    return pids


def _shm():
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def _worker_threads():
    return [t for t in threading.enumerate() if t.name.startswith("repro-worker-")]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
@pytest.mark.parametrize("n_workers,hosts", [(2, 0), (1, 1)],
                         ids=["2-threads", "1-thread+1-host"])
def test_sigint_mid_solve_leaves_nothing_behind(n_workers, hosts):
    """Ctrl-C while the workers walk a tree of about a million nodes:
    the solve raises KeyboardInterrupt within a few seconds and leaves no
    worker thread, no child process and no new /dev/shm entry.  The
    signal goes out once every local worker is walking and, with a host,
    once the host has made the coordinator publish the graph plane."""
    from multiprocessing import resource_tracker

    from repro.graph.generators.phat import phat_complement

    g = phat_complement(200, 3, seed=1)
    # Publishing the plane starts the interpreter's one shared-memory
    # resource tracker, which outlives every solve by design: start it
    # first so it is not counted as left behind.
    resource_tracker.ensure_running()
    shm_before = _shm()
    children_before = _children()
    sent = []

    def interrupt():
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            walking = len(_worker_threads()) >= n_workers
            if walking and (not hosts or _shm() - shm_before):
                break
            time.sleep(0.01)
        time.sleep(0.2)
        sent.append(time.monotonic())
        os.kill(os.getpid(), signal.SIGINT)

    watcher = threading.Thread(target=interrupt, daemon=True)
    watcher.start()
    with pytest.raises(KeyboardInterrupt):
        solve_mvc_distributed(g, n_workers=n_workers, hosts=hosts)
    raised = time.monotonic()
    watcher.join()
    assert sent and raised - sent[0] < 5.0
    assert _worker_threads() == []
    assert _children() <= children_before
    assert _shm() <= shm_before


def test_numpy_scalar_options_reach_a_serve_worker():
    """A serve-worker host loads frames with no pickle globals, so the
    coordinator ships numpy-scalar options (here ``k`` and ``threshold``)
    as builtin ints: the remote worker joins and walks."""
    from repro.net.distributed import solve_pvc_distributed

    g = gnp(40, 0.2, seed=6)
    want = solve_mvc_sequential(g).optimum
    res = solve_pvc_distributed(g, np.int64(want), n_workers=0, hosts=1,
                                threshold=np.int64(4))
    assert res.feasible is True and res.optimum <= want
    assert res.supervision["workers_lost"] == 0
    assert res.supervision["inline_drains"] == 0
    assert res.comms["totals"]["leases"] >= 1

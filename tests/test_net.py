"""Distributed engine, socket transport, and wire-codec-v2 tests."""

import socket
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.core.sequential import solve_mvc_sequential
from repro.core.solver import POOL_ENGINES, solve_mvc
from repro.graph.degree_array import VCState, fresh_state, state_codec
from repro.graph.generators.phat import phat_complement
from repro.graph.generators.random_graphs import gnp
from repro.graph.generators.structured import grid_graph, petersen
from repro.graph.plane import GraphPlane
from repro.net.distributed import (
    CommStats,
    solve_mvc_distributed,
    solve_pvc_distributed,
)
from repro.net.transport import (
    FrameDecoder,
    MessageStream,
    ProtocolError,
    TransportClosed,
    encode_frame,
)


# --------------------------------------------------------------------- #
# wire codec v2
# --------------------------------------------------------------------- #
class TestWireCodecV2:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 40), p=st.floats(0.05, 0.8), seed=st.integers(0, 300),
           ntouch=st.integers(0, 40), cover=st.integers(0, 1000),
           hint=st.sampled_from([None, "list", "array"]),
           data=st.data())
    def test_v2_roundtrip_equals_state(self, n, p, seed, ntouch, cover, hint, data):
        """Delta frames decode to exactly the state that was encoded, on
        both halves of the codec pair."""
        g = gnp(n, p, seed=seed)
        root_deg = np.asarray(g.degrees, dtype=np.int32)
        state = fresh_state(g)
        state.cover_size = cover
        # mutate a random subset of degrees (including removals: -1 marks)
        idx = data.draw(st.lists(st.integers(0, g.n - 1), min_size=0,
                                 max_size=min(ntouch, g.n), unique=True))
        for i in idx:
            state.deg[i] = data.draw(st.integers(-1, g.n))
        state.edge_count = int(max(0, state.deg[state.deg > 0].sum() // 2))
        if hint == "list":
            state.dirty = data.draw(st.lists(st.integers(0, g.n - 1),
                                             min_size=0, max_size=5))
        elif hint == "array":
            state.dirty = np.asarray(
                data.draw(st.lists(st.integers(0, g.n - 1), max_size=5)),
                dtype=np.int64)
        state.max_deg_hint = data.draw(st.integers(-1, g.n))

        encode, decode = state_codec(root_deg)
        for out in (VCState.from_wire_v2(state.to_wire_v2(root_deg), root_deg),
                    decode(encode(state))):
            assert np.array_equal(out.deg, state.deg)
            assert out.cover_size == state.cover_size
            assert out.edge_count == state.edge_count
            assert out.max_deg_hint == state.max_deg_hint
            assert (out.dirty is None) == (state.dirty is None)
            if state.dirty is not None:
                assert sorted(np.asarray(out.dirty).tolist()) == \
                    sorted(np.asarray(state.dirty).tolist())

    def test_sparse_beats_v1_near_root(self):
        g = gnp(200, 0.05, seed=1)
        root_deg = np.asarray(g.degrees, dtype=np.int32)
        state = fresh_state(g)
        state.deg[3] = 0  # one touched vertex: near-root frame
        frame = state.to_wire_v2(root_deg)
        assert len(frame) < state.deg.nbytes  # the dense array

    def test_dense_fallback_still_roundtrips(self):
        g = gnp(50, 0.4, seed=2)
        root_deg = np.asarray(g.degrees, dtype=np.int32)
        state = fresh_state(g)
        state.deg[:] = np.arange(g.n) % 5 - 1  # every entry differs
        out = VCState.from_wire_v2(state.to_wire_v2(root_deg), root_deg)
        assert np.array_equal(out.deg, state.deg)

    def test_version_byte_is_validated(self):
        g = petersen()
        root_deg = np.asarray(g.degrees, dtype=np.int32)
        frame = bytearray(fresh_state(g).to_wire_v2(root_deg))
        frame[0] = 99
        with pytest.raises(ValueError):
            VCState.from_wire_v2(bytes(frame), root_deg)


# --------------------------------------------------------------------- #
# shared-memory graph plane
# --------------------------------------------------------------------- #
class TestGraphPlane:
    def test_publish_attach_roundtrip(self):
        g = gnp(60, 0.2, seed=3)
        plane = GraphPlane.publish(g)
        try:
            other = GraphPlane.attach(plane.name)
            g2 = other.graph()
            assert np.array_equal(g2.indptr, g.indptr)
            assert np.array_equal(g2.indices, g.indices)
            assert np.array_equal(other.root_deg, g.degrees)
            other.close()
        finally:
            plane.close()

    def test_owner_close_unlinks(self):
        g = petersen()
        plane = GraphPlane.publish(g)
        name = plane.name
        plane.close()
        with pytest.raises(Exception):
            GraphPlane.attach(name)

    def test_attach_views_are_read_only(self):
        g = petersen()
        plane = GraphPlane.publish(g)
        try:
            other = GraphPlane.attach(plane.name)
            with pytest.raises(ValueError):
                other.indices[0] = 7
            other.close()
        finally:
            plane.close()


# --------------------------------------------------------------------- #
# socket framing
# --------------------------------------------------------------------- #
class TestFraming:
    def test_torn_frames_byte_by_byte(self):
        msgs = [("lease", 1, [b"x" * 33]), ("best", 7, 2), ("done",)]
        wire = b"".join(encode_frame(m) for m in msgs)
        dec = FrameDecoder()
        out = []
        for i in range(len(wire)):
            dec.feed(wire[i:i + 1])
            out.extend(dec.drain())
        assert out == msgs
        assert dec.pending == 0

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_arbitrary_chunking(self, data):
        msgs = data.draw(st.lists(
            st.tuples(st.sampled_from(["lease", "donate", "best"]),
                      st.integers(0, 999), st.binary(max_size=64)),
            min_size=1, max_size=6))
        wire = b"".join(encode_frame(m) for m in msgs)
        dec = FrameDecoder()
        out, pos = [], 0
        while pos < len(wire):
            step = data.draw(st.integers(1, max(1, len(wire) - pos)))
            dec.feed(wire[pos:pos + step])
            out.extend(dec.drain())
            pos += step
        assert out == msgs

    def test_oversize_length_prefix_raises(self):
        dec = FrameDecoder()
        dec.feed(b"\xff\xff\xff\xff")
        with pytest.raises(ProtocolError):
            dec.next()

    def test_dead_peer_mid_frame(self):
        a, b = socket.socketpair()
        left, right = MessageStream(a), MessageStream(b)
        frame = encode_frame(("donate", 1, [b"payload" * 10]))
        a.sendall(frame[: len(frame) // 2])  # half a frame, then hang up
        left.close()
        with pytest.raises(TransportClosed, match="mid-frame"):
            while True:
                right.recv(timeout=1.0)
        right.close()

    def test_stream_roundtrip_and_counters(self):
        a, b = socket.socketpair()
        left, right = MessageStream(a), MessageStream(b)
        left.send(("hello", 42))
        left.send(("ready",))
        assert right.recv(timeout=1.0) == ("hello", 42)
        assert right.recv(timeout=1.0) == ("ready",)
        assert left.messages_sent == 2
        assert left.bytes_sent > 0
        # pushback re-decodes a batched second message, so >= not ==
        assert right.decoder.frames_out >= 2
        left.close(), right.close()

    def test_send_to_closed_peer_raises(self):
        a, b = socket.socketpair()
        left = MessageStream(a)
        b.close()
        with pytest.raises(TransportClosed):
            for _ in range(10_000):  # outrun the socket buffer
                left.send(("best", 1, b"x" * 4096))
        left.close()


# --------------------------------------------------------------------- #
# batched leases: comms counters
# --------------------------------------------------------------------- #
class TestBatchedLeases:
    def test_comms_counters_present(self):
        g = gnp(25, 0.3, seed=5)
        res = solve_mvc_distributed(g, n_workers=2)
        assert res.comms is not None
        totals = res.comms["totals"]
        assert set(CommStats.FIELDS) <= set(totals)
        assert totals["messages"] > 0
        assert totals["leases"] > 0
        assert totals["subtrees"] >= totals["leases"]
        per_worker = res.comms["per_worker"]
        assert sum(c["messages"] for c in per_worker.values()) == totals["messages"]


# --------------------------------------------------------------------- #
# the distributed engine
# --------------------------------------------------------------------- #
class TestDistributed:
    def test_mvc_matches_sequential(self):
        g = gnp(40, 0.2, seed=6)
        res = solve_mvc_distributed(g, n_workers=2)
        assert res.optimum == solve_mvc_sequential(g).optimum
        from repro.core.verify import assert_valid_cover

        assert_valid_cover(g, res.cover, res.optimum)

    def test_pvc_boundary(self):
        g = petersen()
        assert solve_pvc_distributed(g, 6, n_workers=2).feasible is True
        assert solve_pvc_distributed(g, 5, n_workers=2).feasible is False

    def test_work_actually_distributes(self):
        g = gnp(60, 0.12, seed=3)
        res = solve_mvc_distributed(g, n_workers=2)
        per_worker = res.comms["per_worker"]
        assert len(per_worker) == 2
        assert all(c["subtrees"] > 0 for c in per_worker.values())

    def test_exact_wire_counters_reported(self):
        """Socket workers report exact transport bytes next to the
        payload byte counts.  Local worker threads share the graph, so
        what they receive is leases and broadcasts: on a
        reduction-dominated instance that is near-root codec-v2 frames,
        which carry the few degree entries that differ from the root."""
        from repro.graph.generators.suites import paper_suite

        g = next(i for i in paper_suite("small")
                 if i.name == "lastfm_asia").graph()
        totals = solve_mvc_distributed(g, n_workers=2).comms["totals"]
        assert totals["wire_sent"] > 0
        assert totals["wire_received"] > 0
        # less than one dense int32 degree array per leased sub-tree
        assert totals["wire_received"] < totals["subtrees"] * g.n * 4

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            solve_mvc_distributed(petersen(), n_workers=0, hosts=0)

    @pytest.mark.parametrize("engine", ["cpu-process", "distributed"])
    @pytest.mark.parametrize("mode", ["mvc", "pvc"])
    def test_invalid_workers_rejected_on_edgeless_graph(self, mode, engine):
        """A graph with no edges needs no search, but a bad worker count
        is still an error."""
        from repro.core.solver import solve_pvc
        from repro.graph.csr import CSRGraph

        for n_workers in (0, -3):
            with pytest.raises(ValueError):
                if mode == "mvc":
                    solve_mvc(CSRGraph.empty(3), engine=engine,
                              n_workers=n_workers)
                else:
                    solve_pvc(CSRGraph.empty(3), 0, engine=engine,
                              n_workers=n_workers)

    def test_hosts_joins_over_serve_worker(self):
        """hosts=1 spawns a cold `repro serve-worker` interpreter that
        attaches the plane over the socket and contributes sub-trees."""
        g = gnp(100, 0.1, seed=5)
        res = solve_mvc_distributed(g, n_workers=1, hosts=1)
        assert res.optimum == solve_mvc_sequential(g).optimum
        assert len(res.comms["per_worker"]) == 2  # both workers reported

    def test_dead_local_worker_recovers(self):
        g = gnp(40, 0.2, seed=7)
        want = solve_mvc_sequential(g).optimum
        with faults.injected("worker_kill:0.5:3", seed=11):
            res = solve_mvc_distributed(g, n_workers=2)
        assert res.optimum == want
        assert res.supervision["workers_lost"] > 0

    def test_dead_remote_worker_recovers(self):
        """Killing a serve-worker host mid-lease re-enqueues exactly like
        a dead local worker: the optimum is still reached."""
        g = gnp(40, 0.2, seed=8)
        want = solve_mvc_sequential(g).optimum
        with faults.injected("worker_kill:0.9:4", seed=2):
            res = solve_mvc_distributed(g, n_workers=0, hosts=2)
        assert res.optimum == want
        assert res.supervision["workers_lost"] > 0

    def test_node_budget_interrupts_with_pending(self):
        g = gnp(60, 0.2, seed=9)
        res = solve_mvc_distributed(g, n_workers=2, node_budget=40)
        assert res.timed_out
        assert res.checkpoint.items  # resumable frontier survives

    def test_anytime_resume_reaches_optimum(self):
        from repro.core.anytime import resume_from

        g = gnp(50, 0.2, seed=10)
        want = solve_mvc_sequential(g).optimum
        out = solve_mvc(g, engine="distributed", node_budget=60, n_workers=2)
        legs = 1
        while not out.complete and out.resumable:
            out = resume_from(out.checkpoint, g, engine="distributed", n_workers=2)
            legs += 1
            assert legs < 60
        assert out.complete and out.optimum == want

    def test_comms_surface_on_outcome_extra(self):
        g = gnp(30, 0.25, seed=11)
        out = solve_mvc(g, engine="distributed", n_workers=2)
        assert out.comms["totals"]["messages"] > 0
        assert out.comms["totals"]["bytes_sent"] > 0


# --------------------------------------------------------------------- #
# the workers' compiled sub-tree walk
# --------------------------------------------------------------------- #
#: The distributed section of benchmarks/ci_smoke.sh.
SMOKE = {
    "gnp20": lambda: gnp(20, 0.2, seed=12),
    "phat16": lambda: phat_complement(16, 2, seed=4),
    "grid4x4": lambda: grid_graph(4, 4),
    "gnp60": lambda: gnp(60, 0.12, seed=3),
}


def _native_chunks(res) -> int:
    # Absent only when no worker sent a result frame.
    return res.comms["totals"].get("native_search", 0)


def _check_engine_against_sequential(g) -> None:
    """MVC, and PVC at k = OPT and OPT - 1, on 2 workers vs sequential,
    each walked in at least one compiled worker chunk."""
    from repro.core.verify import assert_valid_cover

    seq = solve_mvc_sequential(g)
    opt = seq.optimum
    res = solve_mvc_distributed(g, n_workers=2)
    assert res.optimum == opt
    assert_valid_cover(g, res.cover, opt)
    assert res.supervision["workers_lost"] == 0  # no worker sent a frame that failed checks
    assert _native_chunks(res) > 0
    for k, feasible in ((opt, True), (opt - 1, False)):
        if k < 0:
            continue
        pvc = solve_pvc_distributed(g, k, n_workers=2)
        assert pvc.feasible is feasible, k
        if feasible:
            assert len(pvc.cover) <= k
            assert_valid_cover(g, pvc.cover, len(pvc.cover))
        assert _native_chunks(pvc) > 0, k


class TestCompiledWorkerWalk:
    @pytest.mark.parametrize("name", sorted(SMOKE))
    def test_smoke_instances_match_sequential(self, name):
        _check_engine_against_sequential(SMOKE[name]())

    @settings(max_examples=8, deadline=None)
    @given(n=st.integers(2, 40), p=st.floats(0.05, 0.4),
           seed=st.integers(0, 10_000))
    def test_random_graphs_match_sequential(self, n, p, seed):
        g = gnp(n, p, seed=seed)
        if g.m:
            _check_engine_against_sequential(g)

    def test_scalar_kernels_stay_interpreted(self):
        g = SMOKE["gnp60"]()
        res = solve_mvc_distributed(g, n_workers=2, kernels="scalar")
        assert res.optimum == solve_mvc_sequential(g).optimum
        assert _native_chunks(res) == 0

    def test_armed_step_faults_stay_interpreted(self):
        g = SMOKE["gnp60"]()
        want = solve_mvc_sequential(g).optimum
        with faults.injected("reduce_raise:0.2:5", seed=3):
            res = solve_mvc_distributed(g, n_workers=2)
        assert res.optimum == want
        assert _native_chunks(res) == 0
        assert res.supervision["recovered"] > 0

    def test_armed_telemetry_stays_interpreted(self):
        from repro import obs

        g = SMOKE["gnp60"]()
        want = solve_mvc_sequential(g).optimum
        obs.arm()
        try:
            res = solve_mvc_distributed(g, n_workers=2)
        finally:
            obs.disarm()
        assert res.optimum == want
        assert _native_chunks(res) == 0

    def test_node_budget_legs_resume_to_optimum(self):
        from repro.core.anytime import solve_to_completion

        g = gnp(60, 0.2, seed=9)
        want = solve_mvc_sequential(g).optimum
        out = solve_to_completion(g, engine="distributed", node_budget=100,
                                  n_workers=2)
        assert out.optimum == want

    def test_deadline_zero_resumes_to_optimum(self):
        from repro.core.anytime import resume_from

        g = gnp(60, 0.2, seed=9)
        want = solve_mvc_sequential(g).optimum
        out = solve_mvc(g, engine="distributed", deadline=0.0, n_workers=2)
        assert not out.complete and out.resumable
        legs = 0
        while not out.complete:
            out = resume_from(out.checkpoint, g, engine="distributed",
                              n_workers=2)
            legs += 1
            assert legs < 20
        assert out.optimum == want

    def test_node_budget_overshoot_stays_small(self):
        """The coordinator hands the budget out in node grants, so the
        solve stops exactly at the budget, on a tree several times larger
        than it (about 6.5k sequential nodes), in compiled chunks of at
        most the long chunk."""
        from repro.net.distributed import _CHUNK_LONG

        g = gnp(80, 0.2, seed=1)
        budget = 1000
        res = solve_mvc_distributed(g, n_workers=2, node_budget=budget)
        assert res.timed_out
        assert res.nodes_visited == budget
        assert res.supervision["workers_lost"] == 0  # no nodes frame ran past its grant
        assert _native_chunks(res) * _CHUNK_LONG >= res.nodes_visited

    def test_node_budget_is_exact_with_more_workers_than_cores(self):
        """Eight worker threads on a short switch interval split small and
        large budgets through grants and top-ups, and none walks past
        its grant."""
        import sys

        g = gnp(80, 0.2, seed=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for budget in (7, 1000):
                res = solve_mvc_distributed(g, n_workers=8, node_budget=budget)
                assert res.timed_out
                assert res.nodes_visited == sum(res.stats) == budget
                assert res.supervision["workers_lost"] == 0
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("budget", [1000, 4097])
    @pytest.mark.parametrize("engine", POOL_ENGINES)
    def test_node_budget_is_exact_on_every_pool_engine(self, engine, budget,
                                                       phat_500_3):
        from repro.core.anytime import resume_from

        g, want = phat_500_3
        out = solve_mvc(g, engine=engine, node_budget=budget, n_workers=2)
        assert out.status == "budget_exhausted"
        assert out.nodes_visited == budget
        final = resume_from(out.checkpoint, g, engine=engine, n_workers=2)
        assert final.complete and final.optimum == want

    def test_node_budget_survives_worker_kills(self):
        """A killed peer's unspent grant goes back to the coordinator and
        on to the peers left: the budgeted solve still ends, within its
        budget, and its checkpoint resumes to the optimum."""
        from repro.core.anytime import resume_from

        g = gnp(80, 0.2, seed=1)
        want = solve_mvc_sequential(g).optimum
        budget = 1000
        # A kill about every 200 nodes per worker: peers die mid-grant,
        # and the respawns (not the inline drain) finish the leg.
        with faults.injected("worker_kill:0.005:2", seed=11):
            out = solve_mvc(g, engine="distributed", node_budget=budget,
                                n_workers=2)
        assert out.supervision["workers_lost"] > 0, "no kills fired; test is vacuous"
        assert out.status == "budget_exhausted"
        assert out.nodes_visited <= budget
        final = resume_from(out.checkpoint, g, engine="distributed", n_workers=2)
        assert final.complete and final.optimum == want

    def test_inline_drain_keeps_the_node_budget(self):
        """Every peer dies early (respawn budget spent), so the coordinator
        drains the rest inline: the drain walks only what is left of the
        budget, its nodes count, and what it leaves is a checkpoint that
        resumes to the sequential optimum."""
        from repro.core.anytime import resume_from

        g = gnp(80, 0.2, seed=1)
        want = solve_mvc_sequential(g).optimum
        assert want == 62
        budget = 1000
        with faults.injected("worker_kill:0.5:3", seed=11):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                out = solve_mvc(g, engine="distributed", node_budget=budget,
                                n_workers=2)
        assert out.supervision["inline_drains"] == 1, "no inline drain; test is vacuous"
        assert out.nodes_visited <= budget
        assert out.status == "budget_exhausted" and out.timed_out
        final = resume_from(out.checkpoint, g)
        assert final.complete and final.optimum == want


@pytest.fixture(scope="module")
def phat_500_3():
    """The small-scale p_hat_500_3 graph (about 14.8k sequential nodes)
    and its sequential optimum."""
    from repro.graph.generators.suites import suite_instance

    g = suite_instance("p_hat_500_3", "small").graph()
    return g, solve_mvc_sequential(g).optimum


def test_import_leaves_simulated_engines_unloaded():
    """The socket engine needs nothing from the simulated-GPU engines:
    importing it loads neither ``repro.engines`` nor ``repro.sim``."""
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    code = ("import sys, repro.net.distributed; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['repro', 'engines'], ['repro', 'sim'])))")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# --------------------------------------------------------------------- #
# demand-driven donation and idle accounting
# --------------------------------------------------------------------- #
class TestDemandDonation:
    def test_lone_worker_never_donates(self):
        """No peer ever starves, so the one worker walks the whole tree
        on its first lease."""
        g = gnp(80, 0.2, seed=1)
        res = solve_mvc_distributed(g, n_workers=1)
        assert res.optimum == solve_mvc_sequential(g).optimum
        assert res.nodes_visited > 1000
        totals = res.comms["totals"]
        assert totals["donations"] == 0
        assert totals["leases"] == 1

    def test_more_workers_than_cores_conserve_subtrees(self):
        """Four workers share two or fewer cores: every starving one is fed
        through donations, and every leased sub-tree is the root or a
        donation, so none is lost or handed out twice."""
        import multiprocessing

        g = gnp(80, 0.2, seed=1)
        res = solve_mvc_distributed(g, n_workers=4)
        assert res.optimum == solve_mvc_sequential(g).optimum
        per_worker = res.comms["per_worker"]
        assert len(per_worker) == 4
        assert all(c["subtrees"] > 0 for c in per_worker.values())
        totals = res.comms["totals"]
        assert totals["subtrees"] == totals["donations"] + 1
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("engine", ["cpu-process", "distributed"])
    @pytest.mark.parametrize("mode", ["mvc", "pvc"])
    def test_threshold_below_one_rejected(self, mode, engine):
        from repro.core.solver import solve_pvc
        from repro.graph.csr import CSRGraph

        for g in (gnp(60, 0.12, seed=3), CSRGraph.empty(3)):
            with pytest.raises(ValueError, match="threshold"):
                if mode == "mvc":
                    solve_mvc(g, engine=engine, n_workers=2, threshold=0)
                else:
                    solve_pvc(g, 20, engine=engine, n_workers=2, threshold=0)

    def test_final_wait_for_done_counts_as_idle(self):
        """A thread plays the coordinator: it leases the whole tree, holds
        ``done`` back 50 ms after the worker's last ``ready``, and reads the
        ``idle_s`` the worker reports in its result."""
        import threading
        import time

        from repro.net.distributed import _worker_loop

        g = gnp(30, 0.2, seed=4)
        root_deg = np.asarray(g.degrees, dtype=np.int32)
        enc, _ = state_codec(root_deg)
        params = {"mode": "mvc", "k": 0, "bound": "greedy", "kernels": "auto",
                  "threshold": 32, "initial_best": g.n, "deadline_s": None}
        ours, theirs = socket.socketpair()
        coordinator, worker = MessageStream(ours), MessageStream(theirs)
        got = {}

        def coordinate():
            until = time.monotonic() + 10.0
            try:
                readies = 0
                while readies < 2 and time.monotonic() < until:
                    for msg in coordinator.poll(1.0):
                        if msg[0] == "ready":
                            readies += 1
                            if readies == 1:
                                coordinator.send(("work", [enc(fresh_state(g))], 0))
                time.sleep(0.05)
                coordinator.send(("done",))
                while "result" not in got and time.monotonic() < until:
                    for msg in coordinator.poll(1.0):
                        if msg[0] == "result":
                            got["result"] = msg
            finally:
                coordinator.close()

        thread = threading.Thread(target=coordinate, daemon=True)
        thread.start()
        try:
            _worker_loop(worker, g, root_deg, params)
        finally:
            worker.close()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        comms = got["result"][4]
        assert comms["leases"] == 1
        assert comms["idle_s"] >= 0.05


# --------------------------------------------------------------------- #
# best-frame validation at the coordinator
# --------------------------------------------------------------------- #

class TestBestFrameValidation:
    def test_checked_cover_accepts_a_true_cover(self):
        from repro.net.distributed import _checked_cover

        g = petersen()
        cover = solve_mvc_sequential(g).cover
        got = _checked_cover(g, len(cover), None,
                             np.asarray(cover, dtype=np.int32).tobytes())
        assert sorted(got.tolist()) == sorted(np.asarray(cover).tolist())

    @pytest.mark.parametrize("size, vertices, k, why", [
        (3, [0, 1, 2, 3, 4, 5], None, "claims size"),
        (6, [0, 1, 2, 3, 4, 99], None, "out of range"),
        (6, [0, 1, 2, 3, 4, -1], None, "out of range"),
        (6, [0, 0, 1, 2, 3, 4], None, "repeated"),
        (1, [0], None, "uncovered"),
        (6, None, 5, "exceeds k"),
        ("6", None, None, "not an int"),
    ])
    def test_checked_cover_rejects_lies(self, size, vertices, k, why):
        from repro.net.distributed import _checked_cover

        g = petersen()
        if vertices is None:
            vertices = solve_mvc_sequential(g).cover
        payload = np.asarray(vertices, dtype=np.int32).tobytes()
        with pytest.raises(ProtocolError, match=why):
            _checked_cover(g, size, k, payload)

    def test_checked_cover_rejects_undecodable_payload(self):
        from repro.net.distributed import _checked_cover

        g = petersen()
        with pytest.raises(ProtocolError, match="undecodable"):
            _checked_cover(g, 1, None, b"\x00\x01\x02")
        with pytest.raises(ProtocolError, match="undecodable"):
            _checked_cover(g, 1, None, 12345)

    def test_lying_peer_is_dropped_and_the_optimum_holds(self, monkeypatch):
        """A hand-rolled client completes the handshake, then sends a
        well-framed ``best`` whose size is a lie.  The coordinator must
        drop it and still return the sequential optimum."""
        import threading

        from repro.net import distributed

        g = gnp(40, 0.2, seed=6)
        want = solve_mvc_sequential(g).optimum
        sent = []

        def liar(port: int) -> None:
            sock = socket.create_connection(("127.0.0.1", port), timeout=10)
            stream = MessageStream(sock)
            try:
                stream.send(("hello", 0))
                stream.recv(timeout=10)           # plane offer
                stream.send(("need_graph",))
                stream.recv(timeout=10)           # graph
                stream.recv(timeout=10)           # init
                stream.send(("best", 1, np.arange(5, dtype=np.int32).tobytes()))
                sent.append(True)
                while True:
                    stream.recv(timeout=10)       # until the coordinator hangs up
            except (TransportClosed, OSError, EOFError):
                pass
            finally:
                stream.close()

        class _Host:
            """Stands in for the serve-worker subprocess handle."""

            def __init__(self, port):
                self.thread = threading.Thread(target=liar, args=(port,),
                                               daemon=True)
                self.thread.start()

            def poll(self):
                return None if self.thread.is_alive() else 0

            def terminate(self):
                pass

            def wait(self, timeout=None):
                self.thread.join(timeout)

            kill = terminate

        monkeypatch.setattr(distributed, "_spawn_host_process", _Host)
        res = solve_mvc_distributed(g, n_workers=1, hosts=1)
        assert sent, "the lying client never got to send its frame"
        assert res.optimum == want
        assert len(res.cover) == want
        assert res.supervision["workers_lost"] >= 1


# --------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------- #
class TestCli:
    def test_serve_worker_rejects_bad_address(self, capsys):
        from repro.cli import main

        assert main(["serve-worker", "--connect", "nonsense"]) == 2
        assert "HOST:PORT" in capsys.readouterr().out

    def test_serve_worker_reports_unreachable_coordinator(self, capsys):
        from repro.cli import main

        # a port nothing listens on: connect fails, one-line error, rc 2
        assert main(["serve-worker", "--connect", "127.0.0.1:1"]) == 2
        assert "error" in capsys.readouterr().out

    def test_solve_stats_prints_comms(self, capsys):
        from repro.cli import main

        rc = main(["solve", "--graph", "p_hat_300_1", "--scale", "tiny",
                   "--engine", "distributed", "--workers", "2", "--stats"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "comms totals:" in out
        assert "messages=" in out

    def test_workers_rejected_for_sequential(self, capsys):
        from repro.cli import main

        rc = main(["solve", "--graph", "p_hat_300_1", "--scale", "tiny",
                   "--engine", "sequential", "--workers", "2"])
        assert rc == 2
        assert "--workers" in capsys.readouterr().out

    def test_hosts_rejected_for_cpu_process(self, capsys):
        from repro.cli import main

        rc = main(["solve", "--graph", "p_hat_300_1", "--scale", "tiny",
                   "--engine", "cpu-process", "--hosts", "1"])
        assert rc == 2
        assert "--hosts" in capsys.readouterr().out


# --------------------------------------------------------------------- #
# experiment-layer workers x hosts axes
# --------------------------------------------------------------------- #
class TestExperimentAxes:
    def test_axes_expand_for_wall_clock_engines_only(self):
        from repro.experiment.spec import load_spec

        spec = load_spec({"name": "ax", "scale": "tiny",
                          "instances": ["p_hat_300_1"],
                          "engines": ["sequential", "distributed"],
                          "workers": [1, 2], "hosts": [0, 1]})
        cells = spec.expand_cells()
        seq = [c for c in cells if c.engine == "sequential"]
        dist = [c for c in cells if c.engine == "distributed"]
        assert all(c.workers is None and c.hosts == 0 for c in seq)
        assert {(c.workers, c.hosts) for c in dist} == \
            {(1, 0), (1, 1), (2, 0), (2, 1)}

    def test_fingerprints_neutral_without_the_axes(self):
        from repro.experiment.runner import plan_run
        from repro.experiment.spec import load_spec

        spec = load_spec({"name": "neutral", "scale": "tiny",
                          "instances": ["p_hat_300_1"],
                          "engines": ["cpu-process"]})
        _, planned = plan_run(spec)
        for cell in planned:
            identity = cell.identity()
            assert "workers" not in identity and "hosts" not in identity

    def test_hosts_axis_requires_distributed(self):
        from repro.experiment.spec import load_spec

        with pytest.raises(ValueError, match="distributed"):
            load_spec({"name": "bad", "scale": "tiny",
                       "instances": ["p_hat_300_1"],
                       "engines": ["cpu-process"], "hosts": [1]})

    def test_spec_roundtrips_the_axes(self):
        from repro.experiment.spec import ExperimentSpec, load_spec

        spec = load_spec({"name": "rt", "scale": "tiny",
                          "instances": ["p_hat_300_1"],
                          "engines": ["distributed"],
                          "workers": [2, 4], "hosts": [0, 1]})
        again = ExperimentSpec.from_dict(spec.to_dict())
        assert again.workers == (2, 4)
        assert again.hosts == (0, 1)

    def test_report_renders_wall_and_team_for_distributed_cells(self, tmp_path):
        from repro.experiment.report import write_report
        from repro.experiment.runner import run_experiment
        from repro.experiment.spec import load_spec
        from repro.experiment.store import RunStore

        spec = load_spec({"name": "rep", "scale": "tiny",
                          "instances": ["p_hat_300_1"],
                          "engines": ["distributed"],
                          "workers": [2], "hosts": [0, 1],
                          "engine_node_guard": 4000})
        store = RunStore(tmp_path)
        outcome = run_experiment(spec, store)
        text = write_report(store, outcome.run.run_id)
        # Wall-clock cells render their measured wall, not ">budget",
        # and the team column shows workers (+h for remote hosts).
        assert "(wall)" in text
        assert "2+1h" in text
        assert ">budget" not in text

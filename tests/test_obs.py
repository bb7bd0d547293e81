"""Tests for the telemetry plane: metrics, wall tracing, breakdowns.

Covers the arming contract (disarmed mutators are no-ops and the node
step binds bare closures), span-tree structural properties (nesting,
per-lane non-overlap, worker-thread lanes, ids surviving the socket
hop), the exposition formats, and the experiment layer's per-cell
capture.
"""

from __future__ import annotations

import dataclasses
import json
import re
import threading
import time

import pytest

from repro import obs
from repro.core.sequential import solve_mvc_sequential
from repro.core.solver import solve_mvc
from repro.graph.generators.phat import phat_complement
from repro.graph.generators.random_graphs import gnp
from repro.obs import breakdown, metrics, trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import WallSpan, WallTracer


@pytest.fixture(autouse=True)
def clean_plane():
    """Every test starts and ends with the plane fully disarmed."""
    obs.disarm()
    metrics.REGISTRY.reset()
    yield
    obs.disarm()
    metrics.REGISTRY.reset()


# --------------------------------------------------------------------- #
# metrics registry
# --------------------------------------------------------------------- #
class TestMetrics:
    def test_disarmed_mutators_are_noops(self):
        reg = MetricsRegistry()
        c = reg.counter("t_total")
        g = reg.gauge("t_gauge")
        h = reg.histogram("t_hist", (1.0, 2.0))
        c.inc(5)
        g.set(3)
        g.inc()
        h.observe(0.5)
        assert c.value == 0.0 and g.value == 0.0 and h.count == 0

    def test_armed_mutators_record(self):
        metrics.arm()
        reg = MetricsRegistry()
        c = reg.counter("t_total")
        c.inc()
        c.inc(2.5)
        g = reg.gauge("t_gauge")
        g.set(7)
        g.dec(2)
        assert c.value == 3.5 and g.value == 5.0

    def test_force_bypasses_arming(self):
        reg = MetricsRegistry()
        c = reg.counter("t_total")
        c.force(4.0)
        assert c.value == 4.0

    def test_histogram_buckets(self):
        metrics.arm()
        reg = MetricsRegistry()
        h = reg.histogram("lat", (0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.counts == [1, 2, 1, 1]
        assert h.count == 5 and h.sum == pytest.approx(56.05)

    def test_histogram_rejects_bad_buckets(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("h", ())
        with pytest.raises(ValueError):
            reg.histogram("h2", (2.0, 1.0))

    def test_get_or_create_idempotent_and_kind_checked(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", engine="seq")
        b = reg.counter("x_total", engine="seq")
        assert a is b
        assert reg.counter("x_total", engine="other") is not a
        with pytest.raises(ValueError):
            reg.gauge("x_total", engine="seq")

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad name")
        with pytest.raises(ValueError):
            reg.counter("ok_total", **{"bad-label": "v"})

    def test_values_by_label(self):
        reg = MetricsRegistry()
        reg.counter("n_total", engine="a").force(1)
        reg.counter("n_total", engine="b").force(2)
        assert reg.values_by_label("n_total", "engine") == {"a": 1.0, "b": 2.0}

    def test_snapshot_shape(self):
        metrics.arm()
        reg = MetricsRegistry()
        reg.counter("c_total", "help text").force(3)
        reg.histogram("h", (1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert snap["armed"] is True
        by_name = {m["name"]: m for m in snap["metrics"]}
        assert by_name["c_total"]["value"] == 3.0
        assert by_name["c_total"]["type"] == "counter"
        assert by_name["h"]["buckets"] == [[1.0, 1], ["+Inf", 0]]
        json.dumps(snap)  # must be JSON-able as persisted

    def _assert_prometheus_parses(self, text: str) -> None:
        sample = re.compile(
            r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [-+0-9eE.inf]+$')
        for line in text.strip().splitlines():
            if line.startswith("#"):
                assert re.match(r"^# (HELP|TYPE) ", line), line
            else:
                assert sample.match(line), line

    def test_prometheus_exposition_parses(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "a counter", engine="seq").force(3)
        reg.gauge("g").force(1.5)
        h = reg.histogram("h_seconds", (0.1, 1.0))
        metrics.arm()
        h.observe(0.05)
        h.observe(0.5)
        text = reg.to_prometheus()
        self._assert_prometheus_parses(text)
        assert 'c_total{engine="seq"} 3.0' in text
        assert "# TYPE h_seconds histogram" in text
        assert 'h_seconds_bucket{le="+Inf"} 2' in text

    def test_prometheus_from_snapshot_matches_live(self):
        metrics.arm()
        reg = MetricsRegistry()
        reg.counter("c_total", engine="seq").force(3)
        reg.histogram("h_seconds", (0.1, 1.0)).observe(0.5)
        live = reg.to_prometheus()
        rendered = metrics.prometheus_from_snapshot(reg.snapshot())
        self._assert_prometheus_parses(rendered)
        assert set(l for l in live.splitlines() if not l.startswith("#")) \
            == set(l for l in rendered.splitlines() if not l.startswith("#"))

    def test_reset_zeroes_but_keeps_instruments(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total")
        c.force(5)
        reg.reset()
        assert c.value == 0.0
        assert reg.counter("c_total") is c

    def test_publish_bridges(self):
        metrics.REGISTRY.reset()
        metrics.publish_comms("cpu-process", {"donations": 3, "idle_s": 0.5,
                                              "chunks": 4, "skip": "x"})
        metrics.publish_supervision("cpu-process",
                                    {"recovered": 2.0, "respawns": 0.0})
        metrics.publish_search("cpu-process", 17, optimum=9, wall_seconds=0.2)
        val = metrics.REGISTRY.value
        assert val("repro_comms_donations_total", engine="cpu-process") == 3.0
        assert val("repro_comms_chunks_total", engine="cpu-process") == 4.0
        assert val("repro_supervision_events_total", engine="cpu-process",
                   event="recovered") == 2.0
        # zero-valued events are skipped, not registered
        assert val("repro_supervision_events_total", engine="cpu-process",
                   event="respawns") is None
        assert val("repro_nodes_visited_total", engine="cpu-process") == 17.0
        assert val("repro_last_optimum", engine="cpu-process") == 9.0


# --------------------------------------------------------------------- #
# span-tree structural properties
# --------------------------------------------------------------------- #
def _assert_well_nested(spans):
    """Per (pid, tid) lane: any two spans are disjoint or nested, and
    every parent_id resolves to a span that actually encloses the child."""
    by_id = {s.span_id: s for s in spans}
    lanes = {}
    for s in spans:
        lanes.setdefault((s.pid, s.tid), []).append(s)
    eps = 1e-6
    for lane_spans in lanes.values():
        lane_spans.sort(key=lambda s: (s.t0, -s.t1))
        for i, a in enumerate(lane_spans):
            for b in lane_spans[i + 1:]:
                if b.t0 >= a.t1 - eps:
                    continue  # disjoint (b starts after a ends)
                assert b.t1 <= a.t1 + eps, (
                    f"overlap without nesting: {a!r} vs {b!r}")
    for s in spans:
        if s.parent_id and s.parent_id in by_id:
            p = by_id[s.parent_id]
            assert p.t0 <= s.t0 + eps and s.t1 <= p.t1 + eps, (s, p)


class TestTrace:
    def test_nesting_and_parentage(self):
        tracer = WallTracer("t1", epoch=time.monotonic())
        outer = tracer.begin("solve")
        inner = tracer.begin("node_step")
        leaf = tracer.begin("cascade")
        tracer.end(leaf)
        tracer.end(inner)
        tracer.end(outer)
        spans = {s.kind: s for s in tracer.spans}
        assert spans["cascade"].parent_id == spans["node_step"].span_id
        assert spans["node_step"].parent_id == spans["solve"].span_id
        assert spans["solve"].parent_id is None
        _assert_well_nested(tracer.spans)

    def test_end_tolerates_unclosed_children(self):
        tracer = WallTracer("t1")
        outer = tracer.begin("solve")
        tracer.begin("node_step")  # never closed (crashed worker path)
        tracer.end(outer)
        assert [s.kind for s in tracer.spans] == ["solve"]
        assert tracer._local.stack == []

    def test_span_ids_unique_and_pid_scoped(self):
        import os

        tracer = WallTracer("t1")
        for _ in range(50):
            tracer.end(tracer.begin("lease"))
        ids = [s.span_id for s in tracer.spans]
        assert len(set(ids)) == len(ids)
        assert all(i.startswith(f"{os.getpid():x}.") for i in ids)

    def test_threads_get_separate_lanes(self):
        tracer = trace.arm("t1")

        def worker(wid):
            trace.set_worker(wid)
            for _ in range(5):
                tok = tracer.begin("node_step")
                inner = tracer.begin("cascade")
                tracer.end(inner)
                tracer.end(tok)

        threads = [threading.Thread(target=worker, args=(w,)) for w in (1, 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        tids = {s.tid for s in tracer.spans}
        assert tids == {1, 2}
        _assert_well_nested(tracer.spans)

    def test_wire_roundtrip(self):
        s = WallSpan("lease", 0.5, 1.25, 4242, 3, "1092.a", "1092.9")
        row = s.to_list()
        json.loads(json.dumps(row))  # wire shape is JSON-able
        back = WallSpan.from_list(row)
        assert (back.kind, back.t0, back.t1, back.pid, back.tid,
                back.span_id, back.parent_id) \
            == ("lease", 0.5, 1.25, 4242, 3, "1092.a", "1092.9")
        root = WallSpan.from_list(WallSpan("solve", 0, 1, 1, 0, "1.1", None)
                                  .to_list())
        assert root.parent_id is None

    def test_drain_absorb(self):
        worker = WallTracer("t1")
        worker.end(worker.begin("lease"))
        rows = worker.drain()
        assert worker.spans == []
        parent = WallTracer("t1")
        parent.absorb(rows)
        assert len(parent.spans) == 1 and parent.spans[0].kind == "lease"

    def test_max_spans_drops_counted(self):
        tracer = WallTracer("t1", max_spans=3)
        for _ in range(5):
            tracer.end(tracer.begin("lease"))
        assert len(tracer.spans) == 3 and tracer.dropped == 2

    def test_chrome_roundtrip(self, tmp_path):
        tracer = WallTracer("tid123")
        outer = tracer.begin("solve")
        tracer.end(tracer.begin("node_step"))
        tracer.end(outer)
        path = tmp_path / "trace.json"
        trace.dump_chrome(str(path), tracer)
        doc = json.loads(path.read_text())
        assert doc["otherData"]["trace_id"] == "tid123"
        for ev in doc["traceEvents"]:
            assert ev["ph"] == "X" and ev["dur"] >= 0
        back = trace.load_chrome(str(path))
        assert (back.clock, back.trace_id) == ("wall", "tid123")
        assert {s.kind for s in back.spans} == {"solve", "node_step"}
        assert {s.span_id for s in back.spans} \
            == {s.span_id for s in tracer.spans}

    def test_gantt_renders_lanes(self):
        spans = [WallSpan("node_step", 0.0, 1.0, 1, 0, "1.1", None),
                 WallSpan("cascade", 0.1, 0.6, 1, 0, "1.2", "1.1"),
                 WallSpan("idle", 0.0, 1.0, 2, 1, "2.1", None)]
        out = trace.render_wall_gantt(spans, width=20)
        assert "1/0" in out and "2/1" in out and "r" in out and "w" in out
        assert trace.render_wall_gantt([]) == "(no spans)"


# --------------------------------------------------------------------- #
# breakdown attribution
# --------------------------------------------------------------------- #
class TestBreakdown:
    def test_group_fractions_normalize(self):
        fr = breakdown.group_fractions(
            {"reduce": 3.0, "bound": 1.0, "idle": 4.0, "branch": 2.0})
        assert sum(fr.values()) == pytest.approx(1.0)
        assert fr["Reducing"] == pytest.approx(0.3)
        assert fr["Work distribution and load balancing"] == pytest.approx(0.4)
        empty = breakdown.group_fractions({})
        assert set(empty.values()) == {0.0}

    def test_self_time_from_spans(self):
        spans = [WallSpan("node_step", 0.0, 10.0, 1, 0, "1.1", None),
                 WallSpan("cascade", 2.0, 5.0, 1, 0, "1.2", "1.1"),
                 WallSpan("bound", 5.0, 6.0, 1, 0, "1.3", "1.1"),
                 WallSpan("solve", 0.0, 12.0, 1, 0, "1.0", None)]
        by_kind = breakdown.wall_by_kind_from_spans(spans)
        assert by_kind["branch"] == pytest.approx(6.0)  # 10 - 3 - 1
        assert by_kind["reduce"] == pytest.approx(3.0)
        assert by_kind["bound"] == pytest.approx(1.0)
        assert "solve" not in by_kind

    def test_groups_cover_cost_model_kinds(self):
        from repro.sim.costmodel import CostModel

        listed = [k for kinds in breakdown.GROUPS.values() for k in kinds]
        assert len(listed) == len(set(listed))  # one group per kind
        assert set(CostModel().base_cycles) | set(breakdown.WALL_KINDS) \
            == set(listed)
        assert "state_copy" in breakdown.GROUPS[breakdown.GROUP_TITLES[0]]

    def test_render_table(self):
        entries = [{"instance": "g1/mvc", "engine": "hybrid",
                    "predicted": {t: 0.25 for t in breakdown.GROUP_TITLES},
                    "measured": {t: 0.25 for t in breakdown.GROUP_TITLES}}]
        out = breakdown.render_breakdown_table(entries)
        assert "predicted" in out and "measured" in out and "g1/mvc" in out
        assert breakdown.render_breakdown_table([]) == "(no breakdown data)"


# --------------------------------------------------------------------- #
# solve envelope + engine integration
# --------------------------------------------------------------------- #
GRAPH = gnp(30, 0.15, seed=7)


class TestSolveEnvelope:
    def test_disarmed_hot_path_never_touches_mutators(self, monkeypatch):
        """The seed contract: a disarmed solve must not call a single
        tracer or counter mutator — the node step binds bare closures,
        and a pool worker's wind-down records nothing either."""
        def boom(*a, **k):
            raise AssertionError("telemetry mutator hit on disarmed path")

        monkeypatch.setattr(WallTracer, "begin", boom)
        monkeypatch.setattr(metrics.Counter, "inc", boom)
        monkeypatch.setattr(metrics.Gauge, "set", boom)
        monkeypatch.setattr(metrics.Histogram, "observe", boom)
        expected = solve_mvc_sequential(GRAPH).optimum
        assert solve_mvc(GRAPH).optimum == expected
        out = solve_mvc(GRAPH, engine="cpu-threads", n_workers=2)
        assert out.optimum == expected
        assert out.comms["totals"]["subtrees"] > 0  # the workers walked

    def test_armed_sequential_solve(self):
        tracer = obs.arm()
        expected = solve_mvc_sequential(GRAPH).optimum
        out = solve_mvc(GRAPH)
        assert out.optimum == expected
        kinds = {s.kind for s in tracer.spans}
        assert {"solve", "node_step", "cascade", "bound"} <= kinds
        _assert_well_nested(tracer.spans)
        by_kind = breakdown.wall_by_kind_from_spans(tracer.spans)
        assert by_kind.get("reduce", 0) > 0 and by_kind.get("branch", 0) > 0
        assert metrics.REGISTRY.value("repro_nodes_visited_total",
                                      engine="sequential") > 0
        assert metrics.REGISTRY.value("repro_last_optimum",
                                      engine="sequential") == float(expected)

    def test_metrics_only_solve_runs_the_compiled_loop(self):
        """Armed metrics observe a solve without choosing its loop: only
        a tracer wraps the per-node step."""
        from repro.graph.generators.suites import suite_instance

        g = suite_instance("p_hat_500_3", "small").graph()
        obs.arm(with_trace=False)
        out = solve_mvc(g)
        assert out.stats.extra["native_search"] == 1.0
        assert metrics.REGISTRY.value("repro_nodes_visited_total",
                                      engine="sequential") \
            == out.nodes_visited > 0

    def test_armed_cpu_threads_publishes_comms(self):
        obs.arm()
        out = solve_mvc(GRAPH, engine="cpu-threads", n_workers=2)
        assert out.comms["totals"]["subtrees"] > 0
        assert metrics.REGISTRY.value("repro_comms_donations_total",
                                      engine="cpu-threads") is not None

    def test_worker_thread_spans_land_on_distinct_lanes(self):
        """cpu-process workers are threads of the solving process: they
        record straight into its tracer, each on its own (pid, worker id)
        lane, every span exactly once; the attribution comes from those
        spans, and no wall time travels home as comms keys."""
        import os

        expected = solve_mvc_sequential(GRAPH).optimum
        tracer = obs.arm()
        out = solve_mvc(GRAPH, engine="cpu-process", n_workers=2)
        assert out.optimum == expected
        assert {s.pid for s in tracer.spans} == {os.getpid()}
        # Lane 0 is the coordinator's; every worker thread has its own.
        worker_lanes = {s.tid for s in tracer.spans if s.tid != 0}
        assert len(worker_lanes) >= 2, worker_lanes
        assert all(s.tid != 0 for s in tracer.spans if s.kind == "node_step")
        ids = [s.span_id for s in tracer.spans]
        assert len(ids) == len(set(ids)), "a span was recorded twice"
        _assert_well_nested(tracer.spans)
        by_kind = breakdown.wall_by_kind_from_spans(tracer.spans)
        assert by_kind.get("reduce", 0) > 0
        assert not [key for key in out.comms["totals"] if key.startswith("obs_")]

    def test_spans_survive_socket_hop(self):
        """A serve-worker host arms from the init frame and ships its
        spans back, from another process, inside the socket result
        frame."""
        tracer = obs.arm()
        out = solve_mvc(GRAPH, engine="distributed", n_workers=1, hosts=1)
        assert out.optimum == solve_mvc_sequential(GRAPH).optimum
        pids = {s.pid for s in tracer.spans}
        assert len(pids) >= 2, "no worker spans made it home over the socket"
        _assert_well_nested(tracer.spans)
        assert out.supervision is not None
        assert out.supervision["workers_lost"] == 0.0

    def test_supervision_surfaces_fault_recovery(self):
        import warnings

        from repro import faults

        obs.arm(with_trace=False)
        with faults.injected("worker_kill:0.5:3", seed=11):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                out = solve_mvc(GRAPH, engine="cpu-process", n_workers=2,
                                threshold=4)
        assert out.optimum == solve_mvc_sequential(GRAPH).optimum
        assert out.supervision["workers_lost"] > 0
        assert metrics.REGISTRY.value(
            "repro_supervision_events_total",
            engine="cpu-process", event="workers_lost") > 0


# --------------------------------------------------------------------- #
# experiment-layer capture
# --------------------------------------------------------------------- #
class TestExperimentTelemetry:
    def test_telemetry_is_fingerprint_neutral(self):
        from repro.experiment.spec import ExperimentSpec, InstanceRef

        base = dict(name="x", scale="tiny",
                    instances=(InstanceRef(suite="p_hat_300_1"),),
                    engines=("sequential",))
        on = ExperimentSpec(telemetry=True, **base)
        off = ExperimentSpec(telemetry=False, **base)
        assert on.cell_config() == off.cell_config()
        assert on.to_dict()["telemetry"] is True
        assert "telemetry" not in off.to_dict()
        assert ExperimentSpec.from_dict(on.to_dict()).telemetry is True

    def test_cell_obs_capture_and_roundtrip(self):
        from repro.analysis.experiments import run_cell
        from repro.experiment.presets import preset_spec

        off_spec = preset_spec("table1", "tiny", quick=True)
        cfg = dataclasses.replace(off_spec, telemetry=True)
        seq = run_cell("sequential", GRAPH, "mvc", None, cfg)
        assert "cycles_by_kind" in seq.obs
        assert all(v > 0 for v in seq.obs["cycles_by_kind"].values())
        wall = run_cell("cpu-threads", GRAPH, "mvc", None, cfg)
        assert "wall_by_kind" in wall.obs
        assert wall.obs["wall_by_kind"].get("reduce", 0) > 0
        # cells leave the plane as they found it
        assert not metrics.armed() and not trace.armed()
        assert json.loads(json.dumps(wall.to_record()))["obs"] == wall.obs
        # telemetry off: no obs key at all (old-store shape)
        off = run_cell("sequential", GRAPH, "mvc", None, off_spec)
        assert off.obs is None and "obs" not in off.to_record()

    def test_pool_cell_measures_work_distribution(self):
        """A telemetry wall cell's attribution is the span self-time of
        its traced run, so the pool's lease and idle sites show up."""
        from repro.analysis.experiments import run_cell
        from repro.experiment.presets import preset_spec

        cfg = dataclasses.replace(preset_spec("table1", "tiny", quick=True),
                                  telemetry=True)
        cell = run_cell("cpu-threads", GRAPH, "mvc", None, cfg)
        wall = cell.obs["wall_by_kind"]
        assert wall.get("lease", 0) > 0 and wall.get("idle", 0) > 0
        assert wall.get("reduce", 0) > 0
        assert not metrics.armed() and not trace.armed()

    def test_store_validates_obs_leniently(self):
        from repro.experiment.store import validate_cell_record

        record = {"fingerprint": "0" * 64, "instance": "g", "engine": "sequential",
                  "frontier": None, "instance_type": "mvc", "k": None,
                  "repeat": 0,
                  "result": {"engine": "sequential", "instance_type": "mvc",
                             "seconds": 1.0, "timed_out": False, "nodes": 3,
                             "optimum": 2, "feasible": None,
                             "wall_seconds": 0.1, "cycles": 10.0}}
        validate_cell_record(record)  # no obs: pre-PR shape stays valid
        record["result"]["obs"] = {"cycles_by_kind": {"find_max": 1.0}}
        validate_cell_record(record)
        record["result"]["obs"] = "not a dict"
        with pytest.raises(ValueError):
            validate_cell_record(record)

    def test_report_renders_breakdown_table(self, tmp_path):
        from repro.experiment.report import breakdown_rows, render_report
        from repro.experiment.runner import run_experiment
        from repro.experiment.spec import ExperimentSpec, InstanceRef
        from repro.experiment.store import RunStore

        spec = ExperimentSpec(
            name="obs-t", scale="tiny", device="TinySim",
            instances=(InstanceRef(suite="p_hat_300_1"),),
            engines=("sequential", "cpu-threads"),
            instance_types=("mvc",), seq_node_guard=4000,
            engine_node_guard=2500, virtual_budget_s=0.01,
            telemetry=True,
        )
        store = RunStore(tmp_path)
        outcome = run_experiment(spec, store)
        assert outcome.quarantined == 0
        rows = breakdown_rows(outcome.run)
        sides = {(r["engine"], side) for r in rows
                 for side in ("predicted", "measured") if side in r}
        assert ("sequential", "predicted") in sides
        assert ("cpu-threads", "measured") in sides
        text = render_report(store, outcome.run.run_id)
        assert "## Activity breakdown — sim-predicted vs wall-measured" in text
        assert "measured" in text


# --------------------------------------------------------------------- #
# disarmed-overhead guard
# --------------------------------------------------------------------- #
class TestDisarmedOverhead:
    def test_disarmed_step_costs_at_most_two_percent(self, monkeypatch):
        """Interleaved A/B on the microbench solver case: A = the hook
        short-circuited at the source (the seed-equivalent NodeStep
        construction), B = the shipping disarmed path.  The disarmed
        plane binds the very same bare closures, so the only delta is
        one ``step_telemetry()`` call per NodeStep construction — the
        guard asserts it stays within 2% (best-of samples, with retries
        to absorb scheduler noise)."""
        from repro.core import nodestep

        graph = phat_complement(50, 2, seed=77)

        def solve_once():
            return solve_mvc_sequential(graph).optimum

        expected = solve_once()

        def timed(repeats=3, inner=2):
            best = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                for _ in range(inner):
                    assert solve_once() == expected
                best = min(best, (time.perf_counter() - t0) / inner)
            return best

        real_hook = nodestep.obs.step_telemetry
        for attempt in range(3):
            a = b = float("inf")
            for _ in range(4):  # interleave A/B to share machine state
                monkeypatch.setattr(nodestep.obs, "step_telemetry",
                                    lambda: None)
                a = min(a, timed())
                monkeypatch.setattr(nodestep.obs, "step_telemetry", real_hook)
                b = min(b, timed())
            if b <= a * 1.02:
                return
        pytest.fail(f"disarmed telemetry overhead {b / a - 1:.2%} > 2% "
                    f"(baseline {a * 1e3:.3f} ms, disarmed {b * 1e3:.3f} ms)")

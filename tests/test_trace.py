"""Tests for cycles-clock tracing of the simulated GPU and its Gantt."""

import json

import pytest

from repro.engines.hybrid import HybridEngine
from repro.engines.stackonly import StackOnlyEngine
from repro.graph.generators.phat import phat_complement
from repro.obs.breakdown import wall_by_kind_from_spans
from repro.obs.trace import WallTracer, dump_chrome, load_chrome, render_wall_gantt
from repro.sim.device import TINY_SIM

GRAPH = phat_complement(40, 3, seed=9)


def traced_run(engine_factory, **tracer_kw):
    eng = engine_factory()
    eng.tracer = tracer = WallTracer(clock="cycles", **tracer_kw)
    res = eng.solve_mvc(GRAPH)
    return res, tracer


def makespan(spans):
    return max((s.t1 for s in spans), default=0.0)


def utilisation(spans, num_blocks):
    """Busy fraction of the (blocks x makespan) area."""
    total = makespan(spans) * num_blocks
    if total <= 0:
        return 0.0
    return min(sum(s.duration for s in spans) / total, 1.0)


class TestRecorder:
    def test_spans_collected(self):
        res, tracer = traced_run(lambda: HybridEngine(device=TINY_SIM))
        assert len(tracer.spans) > 0 and tracer.dropped == 0
        assert all(s.t1 >= s.t0 for s in tracer.spans)

    def test_span_cycles_match_metrics(self):
        res, tracer = traced_run(lambda: HybridEngine(device=TINY_SIM))
        traced = wall_by_kind_from_spans(tracer.spans)
        metered = res.stats.metrics.cycles_by_kind()
        for kind, cycles in metered.items():
            assert traced.get(kind, 0.0) == pytest.approx(cycles, rel=1e-9), kind

    def test_makespan_bounded_by_launch(self):
        res, tracer = traced_run(lambda: HybridEngine(device=TINY_SIM))
        assert makespan(tracer.spans) <= res.stats.makespan_cycles + 1e-6

    def test_spans_per_block_are_ordered(self):
        res, tracer = traced_run(lambda: HybridEngine(device=TINY_SIM))
        for block in range(res.stats.launch.num_blocks):
            spans = [s for s in tracer.spans if s.tid == block]
            assert len({s.pid for s in spans}) <= 1  # a block stays on its SM
            for a, b in zip(spans, spans[1:]):
                assert b.t0 >= a.t0 - 1e-9

    def test_utilisation_in_unit_interval(self):
        res, tracer = traced_run(lambda: HybridEngine(device=TINY_SIM))
        u = utilisation(tracer.spans, res.stats.launch.num_blocks)
        assert 0.0 < u <= 1.0

    def test_hybrid_utilisation_beats_stackonly(self):
        _, tr_h = traced_run(lambda: HybridEngine(device=TINY_SIM))
        _, tr_s = traced_run(lambda: StackOnlyEngine(device=TINY_SIM, start_depth=6))
        # use each run's own block count via recorded block ids
        blocks_h = len({s.tid for s in tr_h.spans})
        blocks_s = len({s.tid for s in tr_s.spans})
        assert utilisation(tr_h.spans, blocks_h) >= utilisation(tr_s.spans, blocks_s) * 0.9

    def test_max_spans_cap(self):
        _, tracer = traced_run(lambda: HybridEngine(device=TINY_SIM), max_spans=5)
        assert len(tracer.spans) == 5 and tracer.dropped > 0

    def test_empty_recorder(self):
        tracer = WallTracer(clock="cycles")
        assert makespan(tracer.spans) == 0.0
        assert utilisation(tracer.spans, 4) == 0.0
        assert render_wall_gantt(tracer.spans, clock="cycles") == "(no spans)"

    def test_unknown_clock_rejected(self):
        with pytest.raises(ValueError, match="clock"):
            WallTracer(clock="ticks")


class TestExport:
    def test_json_roundtrip(self, tmp_path):
        res, tracer = traced_run(lambda: HybridEngine(device=TINY_SIM))
        path = tmp_path / "cycles.json"
        dump_chrome(str(path), tracer)
        data = json.loads(path.read_text())
        assert data["otherData"]["clock"] == "cycles"
        assert len(data["traceEvents"]) == len(tracer.spans)
        ev = data["traceEvents"][0]
        assert ev["cat"] == "cycles" and ev["ph"] == "X"
        back = load_chrome(str(path))
        assert (back.clock, back.trace_id, back.dropped) \
            == ("cycles", tracer.trace_id, 0)
        assert len(back.spans) == len(tracer.spans)
        traced = wall_by_kind_from_spans(back.spans)
        for kind, cycles in res.stats.metrics.cycles_by_kind().items():
            assert traced.get(kind, 0.0) == pytest.approx(cycles, rel=1e-9), kind

    def test_gantt_shape(self):
        _, tracer = traced_run(lambda: HybridEngine(device=TINY_SIM))
        chart = render_wall_gantt(tracer.spans, width=40, clock="cycles")
        lines = chart.splitlines()
        lanes = {(s.pid, s.tid) for s in tracer.spans}
        assert lines[0].startswith("cycles gantt:") and "cycles (" in lines[0]
        assert len(lines) == len(lanes) + 2  # header + one per (SM, block) + legend
        assert all(len(line.split("|")[1]) == 40 for line in lines[1:-1])

    def test_gantt_no_legend(self):
        _, tracer = traced_run(lambda: HybridEngine(device=TINY_SIM))
        chart = render_wall_gantt(tracer.spans, width=20, legend=False, clock="cycles")
        assert "reduce" not in chart

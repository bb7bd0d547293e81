"""Tests for the execution-trace recorder and Gantt rendering."""

import json

import pytest

from repro.engines.hybrid import HybridEngine
from repro.engines.stackonly import StackOnlyEngine
from repro.graph.generators.phat import phat_complement
from repro.sim.trace import Span, TraceRecorder, render_gantt
from repro.sim.device import TINY_SIM

GRAPH = phat_complement(40, 3, seed=9)


def traced_run(engine_factory):
    eng = engine_factory()
    eng.tracer = rec = TraceRecorder()
    res = eng.solve_mvc(GRAPH)
    return res, rec


class TestRecorder:
    def test_spans_collected(self):
        res, rec = traced_run(lambda: HybridEngine(device=TINY_SIM))
        assert len(rec.spans) > 0
        assert all(s.end >= s.start for s in rec.spans)

    def test_span_cycles_match_metrics(self):
        res, rec = traced_run(lambda: HybridEngine(device=TINY_SIM))
        traced = rec.busy_cycles_by_kind()
        metered = res.stats.metrics.cycles_by_kind()
        for kind, cycles in metered.items():
            assert traced.get(kind, 0.0) == pytest.approx(cycles, rel=1e-9), kind

    def test_makespan_bounded_by_launch(self):
        res, rec = traced_run(lambda: HybridEngine(device=TINY_SIM))
        assert rec.makespan() <= res.stats.makespan_cycles + 1e-6

    def test_spans_per_block_are_ordered(self):
        res, rec = traced_run(lambda: HybridEngine(device=TINY_SIM))
        for block in range(res.stats.launch.num_blocks):
            spans = rec.spans_of_block(block)
            for a, b in zip(spans, spans[1:]):
                assert b.start >= a.start - 1e-9

    def test_utilisation_in_unit_interval(self):
        res, rec = traced_run(lambda: HybridEngine(device=TINY_SIM))
        u = rec.utilisation(res.stats.launch.num_blocks)
        assert 0.0 < u <= 1.0

    def test_hybrid_utilisation_beats_stackonly(self):
        _, rec_h = traced_run(lambda: HybridEngine(device=TINY_SIM))
        _, rec_s = traced_run(lambda: StackOnlyEngine(device=TINY_SIM, start_depth=6))
        n = TINY_SIM.num_sms * TINY_SIM.max_blocks_per_sm
        # use each run's own block count via recorded block ids
        blocks_h = len({s.block_id for s in rec_h.spans})
        blocks_s = len({s.block_id for s in rec_s.spans})
        assert rec_h.utilisation(blocks_h) >= rec_s.utilisation(blocks_s) * 0.9

    def test_max_spans_cap(self):
        rec = TraceRecorder(max_spans=5)
        eng = HybridEngine(device=TINY_SIM)
        eng.tracer = rec
        eng.solve_mvc(GRAPH)
        assert len(rec.spans) == 5

    def test_empty_recorder(self):
        rec = TraceRecorder()
        assert rec.makespan() == 0.0
        assert rec.utilisation(4) == 0.0
        assert render_gantt(rec, num_sms=2) == "(empty trace)"


class TestExport:
    def test_json_roundtrip(self):
        _, rec = traced_run(lambda: HybridEngine(device=TINY_SIM))
        data = json.loads(rec.to_json())
        assert len(data["traceEvents"]) == len(rec.spans)
        ev = data["traceEvents"][0]
        assert set(ev) == {"name", "ph", "ts", "dur", "pid", "tid"}

    def test_gantt_shape(self):
        _, rec = traced_run(lambda: HybridEngine(device=TINY_SIM))
        chart = render_gantt(rec, num_sms=TINY_SIM.num_sms, width=40)
        lines = chart.splitlines()
        assert len(lines) == TINY_SIM.num_sms + 1  # rows + legend
        assert all(len(line.split("|")[1]) == 40 for line in lines[:-1])

    def test_gantt_no_legend(self):
        _, rec = traced_run(lambda: HybridEngine(device=TINY_SIM))
        chart = render_gantt(rec, num_sms=TINY_SIM.num_sms, width=20, legend=False)
        assert "reducing" not in chart

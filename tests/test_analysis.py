"""Tests for the analysis layer: speedups, load stats, breakdowns, tables,
and the CPU-priced sequential baseline."""

import numpy as np
import pytest

from repro.analysis.load_balance import summarize_load
from repro.analysis.sequential_sim import solve_mvc_sequential_sim, solve_pvc_sequential_sim
from repro.analysis.speedup import aggregate_speedups, geometric_mean, speedup
from repro.analysis.tables import format_seconds, format_speedup, render_table
from repro.core.sequential import solve_mvc_sequential
from repro.graph.generators.phat import phat_complement
from repro.graph.generators.structured import petersen
from repro.obs.breakdown import ACTIVITY_LABELS, BreakdownRow, breakdown_row, mean_breakdown


class TestSpeedup:
    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([]) == 1.0
        assert geometric_mean([1.0]) == 1.0

    def test_speedup_basic(self):
        assert speedup(10.0, 2.0) == pytest.approx(5.0)

    def test_speedup_censored(self):
        assert speedup(None, 2.0) is None
        assert speedup(10.0, None) is None
        assert speedup(0.0, 1.0) is None

    def test_aggregate_by_category(self):
        rows = [
            {"category": "high", "base": 10.0, "subject": 1.0},
            {"category": "high", "base": 40.0, "subject": 10.0},
            {"category": "low", "base": 2.0, "subject": 2.0},
            {"category": "low", "base": None, "subject": 1.0},  # censored
        ]
        agg = aggregate_speedups(rows, baseline_key="base", subject_key="subject")
        assert agg["high"] == pytest.approx(geometric_mean([10.0, 4.0]))
        assert agg["low"] == pytest.approx(1.0)
        assert agg["overall"] == pytest.approx(geometric_mean([10.0, 4.0, 1.0]))


class TestLoadSummary:
    def test_balanced(self):
        s = summarize_load(np.ones(8))
        assert s.imbalance == pytest.approx(1.0)
        assert s.cv == pytest.approx(0.0)

    def test_imbalanced(self):
        s = summarize_load(np.array([7.0, 0.5, 0.25, 0.25]))
        assert s.max == pytest.approx(7.0)
        assert s.imbalance > 3.0

    def test_empty(self):
        s = summarize_load(np.array([]))
        assert s.num_sms == 0


class TestBreakdown:
    def test_labels_cover_eleven_activities(self):
        # the paper's eleven Fig. 6 activities plus the lower_bound
        # extension (charged only by non-default bound policies)
        assert len(ACTIVITY_LABELS) == 12
        assert "lower_bound" in ACTIVITY_LABELS

    def test_mean_breakdown(self):
        rows = [
            BreakdownRow("a", {"degree_one": 0.6, "wl_remove": 0.4}),
            BreakdownRow("b", {"degree_one": 0.2, "wl_remove": 0.8}),
        ]
        mean = mean_breakdown(rows)
        assert mean.fractions["degree_one"] == pytest.approx(0.4)
        assert mean.name == "Mean"

    def test_mean_of_nothing(self):
        assert mean_breakdown([]).fractions["degree_one"] == 0.0

    def test_group_totals(self):
        row = BreakdownRow("x", {"degree_one": 0.5, "wl_add": 0.3, "find_max": 0.2})
        groups = row.group_totals()
        assert groups["Reducing"] == pytest.approx(0.5)
        assert groups["Work distribution and load balancing"] == pytest.approx(0.3)
        assert groups["Branching"] == pytest.approx(0.2)


class TestTables:
    def test_format_seconds_ranges(self):
        assert format_seconds(1234.0) == "1,234"
        assert format_seconds(3.5) == "3.50"
        assert format_seconds(0.0042) == "4.20ms"
        assert format_seconds(4.2e-6) == "4.2us"
        assert format_seconds(None) == ">budget"
        assert format_seconds(1.0, timed_out=True) == ">budget"

    def test_format_speedup(self):
        assert format_speedup(3.14159) == "3.1x"
        assert format_speedup(None) == "--"

    def test_render_table_alignment(self):
        out = render_table(["name", "val"], [["a", 1], ["bb", 22]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[2]
        assert lines[-1].endswith("22")

    def test_render_table_rejects_ragged(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [["only one"]])


class TestSequentialSim:
    def test_same_optimum_as_plain_sequential(self):
        g = phat_complement(40, 3, seed=9)
        priced = solve_mvc_sequential_sim(g)
        plain = solve_mvc_sequential(g)
        assert priced.optimum == plain.optimum
        assert priced.nodes_visited == plain.stats.nodes_visited

    def test_cycles_accumulate(self):
        res = solve_mvc_sequential_sim(petersen())
        assert res.cycles > 0
        assert res.sim_seconds > 0

    def test_cycle_budget_stops_search(self):
        g = phat_complement(50, 3, seed=10)
        res = solve_mvc_sequential_sim(g, cycle_budget=100.0)
        assert res.timed_out

    def test_pvc_priced(self):
        g = petersen()
        res = solve_pvc_sequential_sim(g, 6)
        assert res.feasible is True
        res = solve_pvc_sequential_sim(g, 5)
        assert res.feasible is False

    def test_pvc_negative_k(self):
        with pytest.raises(ValueError):
            solve_pvc_sequential_sim(petersen(), -2)

    def test_harder_instances_cost_more(self):
        easy = solve_mvc_sequential_sim(phat_complement(40, 1, seed=3))
        hard = solve_mvc_sequential_sim(phat_complement(40, 3, seed=3))
        assert hard.cycles > easy.cycles


class TestMicrobenchArtifacts:
    def _tiny_payload(self):
        from repro.analysis.microbench import run_microbench

        return run_microbench(repeats=1, target_s=1e-3)

    def test_validate_artifact_accepts_real_payload(self):
        from repro.analysis.microbench import validate_artifact

        validate_artifact(self._tiny_payload())  # must not raise

    def test_validate_artifact_rejects_schema_drift(self):
        import pytest

        from repro.analysis.microbench import validate_artifact

        good = self._tiny_payload()
        bad_variants = []
        b = dict(good); b["schema_version"] = 99; bad_variants.append(b)
        b = dict(good); b["kind"] = "nope"; bad_variants.append(b)
        b = dict(good); b["results"] = {}; bad_variants.append(b)
        b = dict(good)
        b["results"] = {k: {kk: vv for kk, vv in v.items() if kk != "median_s"}
                        for k, v in good["results"].items()}
        bad_variants.append(b)
        b = dict(good); b.pop("provenance"); bad_variants.append(b)
        for bad in bad_variants:
            with pytest.raises(ValueError):
                validate_artifact(bad)

"""End-to-end tests of the paper presets and report sections at the tiny scale."""

import dataclasses

import pytest

from repro.analysis.experiments import (
    PAPER_TABLE2,
    PRIOR_WORK_TABLE3_SECONDS,
    run_sweeps,
)
from repro.experiment import InstanceRef, RunStore, load_spec, run_cells, run_experiment
from repro.experiment.presets import preset_spec, run_preset
from repro.experiment.report import (
    ablation_section,
    fig5_section,
    fig6_section,
    table1_section,
    table2_section,
    table2_speedups,
    table3_section,
)
from repro.experiment.runner import _resolve_minimum
from repro.obs.breakdown import BreakdownRow, mean_breakdown
from repro.graph.generators.suites import suite_instance
from repro.sim.device import EPYC_LIKE, TINY_SIM


def tiny_spec(name, instances, engines=("sequential", "stackonly", "hybrid"),
              instance_types=("mvc", "pvc_km1", "pvc_k", "pvc_kp1")):
    return load_spec({
        "name": name, "scale": "tiny", "device": "TinySim",
        "instances": list(instances), "engines": list(engines),
        "instance_types": list(instance_types),
        "virtual_budget_s": 0.01, "seq_node_guard": 4000,
        "engine_node_guard": 2500, "stackonly_depths": [4],
        "hybrid_capacities": [256], "hybrid_fractions": [0.25],
    })


def cells_of(spec, tmp_path_factory):
    store = RunStore(tmp_path_factory.mktemp("store"))
    return run_cells(run_experiment(spec, store).run)


@pytest.fixture(scope="module")
def table1_subset(tmp_path_factory):
    spec = tiny_spec("t1", ("p_hat_300_3", "sister_cities", "movielens_100k"))
    return cells_of(spec, tmp_path_factory)


class TestResolveMinimum:
    def test_bipartite_uses_konig(self):
        minimum, source = _resolve_minimum(suite_instance("movielens_100k", "tiny").graph())
        assert source == "konig"
        assert minimum is not None and minimum > 0

    def test_search_instances_resolve(self):
        minimum, source = _resolve_minimum(suite_instance("p_hat_300_1", "tiny").graph())
        assert source == "search"
        assert minimum is not None


class TestTable1:
    def test_rows_and_cells_present(self, table1_subset):
        assert len(table1_subset.instances) == 3
        for info in table1_subset.instances:
            assert table1_subset.get(info["label"], "sequential", "mvc") is not None
            assert table1_subset.get(info["label"], "hybrid", "mvc") is not None

    def test_engines_agree_on_optimum(self, table1_subset):
        for info in table1_subset.instances:
            opts = {
                cell["optimum"]
                for (name, _engine, itype), cell in table1_subset.cells.items()
                if name == info["label"] and itype == "mvc" and not cell["timed_out"]
            }
            assert len(opts) <= 1, info["label"]

    def test_pvc_k_cells_feasible(self, table1_subset):
        for info in table1_subset.instances:
            cell = table1_subset.get(info["label"], "hybrid", "pvc_k")
            if cell is not None and not cell["timed_out"]:
                assert cell["feasible"] is True

    def test_pvc_km1_cells_infeasible(self, table1_subset):
        for info in table1_subset.instances:
            cell = table1_subset.get(info["label"], "hybrid", "pvc_km1")
            if cell is not None and not cell["timed_out"]:
                assert cell["feasible"] is False

    def test_render_smoke(self, table1_subset):
        text = table1_section(table1_subset)
        assert "Table I" in text and "p_hat_300_3" in text

    def test_unknown_instance_rejected(self):
        with pytest.raises(ValueError, match="unknown suite instance 'nope'"):
            tiny_spec("t1", ("nope",))


class TestTable2:
    def test_speedups_from_table1(self, table1_subset):
        speedups = table2_speedups(table1_subset)
        assert any(key[0] == "overall" for key in speedups)
        assert "Table II" in table2_section(table1_subset)

    def test_paper_reference_values_recorded(self):
        assert PAPER_TABLE2[("overall", "stackonly", "mvc")] == 72.9
        assert len(PAPER_TABLE2) == 24


class TestTable3:
    def test_prior_work_rows(self, tmp_path_factory):
        assert len(PRIOR_WORK_TABLE3_SECONDS) == 10
        view = cells_of(tiny_spec("t3", ("p_hat_300_1", "p_hat_300_2", "sister_cities"),
                                  instance_types=("pvc_k",)), tmp_path_factory)
        text = table3_section(view)
        assert "Table III" in text
        assert "p_hat_300_2" in text and "sister_cities" not in text


class TestFigures:
    def test_fig5_entries(self, tmp_path_factory):
        spec = tiny_spec("f5", ("p_hat_500_3",), engines=("stackonly", "hybrid"))
        view = cells_of(spec, tmp_path_factory)
        loads = [view.get("p_hat_500_3", engine, itype)["launch"]["load"]
                 for engine in ("stackonly", "hybrid") for itype in ("mvc", "pvc_k")]
        for load in loads:
            assert load["num_sms"] == TINY_SIM.num_sms
        assert "Fig. 5" in fig5_section(view)

    def test_fig6_rows_include_mean(self, tmp_path_factory):
        spec = tiny_spec("f6", ("p_hat_300_3", "sister_cities"), engines=("hybrid",),
                         instance_types=("mvc",))
        view = cells_of(spec, tmp_path_factory)
        rows = [BreakdownRow(name, view.get(name, "hybrid", "mvc")["launch"]["breakdown"])
                for name in ("p_hat_300_3", "sister_cities")]
        # the Mean sums only the ACTIVITY_LABELS kinds, so its summing to
        # 1 also proves the labels cover every kind a cell stores
        for row in rows + [mean_breakdown(rows)]:
            assert sum(row.fractions.values()) == pytest.approx(1.0, abs=1e-6)
        text = fig6_section(view)
        assert "Fig. 6" in text
        body = text.split("\n\nLegend:")[0].splitlines()[4:]
        assert [line.split()[0] for line in body] == ["p_hat_300_3", "sister_cities", "Mean"]
        mean_pcts = [float(cell.rstrip("%")) for cell in body[-1].split()[1:]]
        assert sum(mean_pcts) == pytest.approx(100.0, abs=0.05 * len(mean_pcts))

    def test_fig6_header_labels_are_distinct(self, tmp_path_factory):
        from repro.obs.breakdown import ACTIVITY_LABELS

        spec = tiny_spec("f6h", ("p_hat_300_3",), engines=("hybrid",), instance_types=("mvc",))
        text = fig6_section(cells_of(spec, tmp_path_factory))
        legend = text.split("Legend:\n")[1].splitlines()
        labels = [line.split(" = ")[0].strip() for line in legend]
        assert len(labels) == len(ACTIVITY_LABELS)
        assert len(set(labels)) == len(labels), labels
        header = text.splitlines()[2]
        assert all(label in header for label in labels)


class TestSweepsAndAblation:
    def test_sweeps_structure(self):
        spec = tiny_spec("sw", ("p_hat_300_3",))
        sweeps = run_sweeps(spec, instance="p_hat_300_3")
        assert len(sweeps) == 3
        for sweep in sweeps:
            assert sweep.rows
            assert sweep.render()

    def test_ablation_shows_globalonly_traffic(self, tmp_path_factory):
        spec = tiny_spec("ab", ("p_hat_300_3",), engines=("hybrid", "globalonly"),
                         instance_types=("mvc",))
        view = cells_of(spec, tmp_path_factory)
        adds = {engine: view.get("p_hat_300_3", engine, "mvc")["launch"]["worklist"]["adds"]
                for engine in ("hybrid", "globalonly")}
        assert adds["globalonly"] > adds["hybrid"]
        assert "GlobalOnly ablation" in ablation_section(view)


class TestConfig:
    def test_quick_is_cheaper(self):
        full = preset_spec("table1", "tiny")
        quick = preset_spec("table1", "tiny", quick=True)
        assert (full.virtual_budget_s, full.seq_node_guard, full.engine_node_guard,
                full.stackonly_depths) == (0.03, 40_000, 20_000, (4, 6, 8))
        assert (quick.virtual_budget_s, quick.seq_node_guard, quick.engine_node_guard,
                quick.stackonly_depths) == (0.02, 12_000, 8_000, (6,))
        assert full.device == quick.device == "SmallSim"
        assert preset_spec("table1", "tiny", quick=True, budget=0.5).virtual_budget_s == 0.5

    def test_budget_conversion(self):
        spec = dataclasses.replace(tiny_spec("b", ("p_hat_300_1",)), virtual_budget_s=1.0)
        assert spec.seq_cycle_budget == pytest.approx(EPYC_LIKE.clock_mhz * 1e6)
        assert spec.gpu_cycle_budget == pytest.approx(TINY_SIM.clock_mhz * 1e6)


class TestPresets:
    def test_presets_cover_their_instances(self):
        assert [ref.suite for ref in preset_spec("fig5", "tiny").instances] == \
            ["p_hat_500_3", "us_power_grid"]
        assert preset_spec("table1", "tiny").to_dict() == preset_spec("table2", "tiny").to_dict()
        table3 = preset_spec("table3", "tiny")
        assert table3.instance_types == ("pvc_k",)
        assert {ref.suite for ref in table3.instances} == set(PRIOR_WORK_TABLE3_SECONDS)

    def test_temporary_store_is_removed(self, tmp_path, monkeypatch):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        spec = dataclasses.replace(preset_spec("ablation", "tiny", quick=True),
                                   instances=[InstanceRef(suite="p_hat_300_3")])
        text, outcome = run_preset("ablation", spec)
        assert "globalonly" in text and outcome.executed == 2
        assert list(tmp_path.iterdir()) == []

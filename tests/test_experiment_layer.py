"""Tests for the experiment subsystem: spec → runner → store → report.

The two contracts the tentpole stands on:

* **resume**: re-running an (interrupted) experiment recomputes only the
  cells whose fingerprints have no stored record — asserted by *counting
  executed solves*, not just by outcome fields;
* **fidelity**: everything the store regenerates (Table I virtual
  seconds, cycles, node counts) is bit-identical to a direct engine
  invocation.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.experiment import (
    ExperimentSpec,
    InstanceRef,
    RunStore,
    cell_fingerprint,
    graph_fingerprint,
    load_spec,
    run_cells,
    run_experiment,
    spec_hash,
    validate_cell_record,
    validate_manifest,
    verify_run_against_live,
    write_report,
)
from repro.experiment.report import VerificationError, table1_section, tree_shape_rows
from repro.experiment.runner import plan_run
from repro.graph.generators.random_graphs import gnp


def tiny_spec(**overrides) -> ExperimentSpec:
    base = {
        "name": "unit",
        "scale": "tiny",
        "device": "TinySim",
        "instances": ["p_hat_300_1"],
        "engines": ["sequential", "hybrid"],
        "frontiers": ["lifo", "best-first"],
        "instance_types": ["mvc"],
        "repeats": 1,
        "virtual_budget_s": 0.01,
        "seq_node_guard": 4000,
        "engine_node_guard": 2500,
        "stackonly_depths": [4],
        "hybrid_capacities": [256],
        "hybrid_fractions": [0.25],
    }
    base.update(overrides)
    return load_spec(base)


# --------------------------------------------------------------------- #
# spec validation and identity
# --------------------------------------------------------------------- #
class TestSpec:
    def test_roundtrip_through_dict(self):
        spec = tiny_spec()
        again = ExperimentSpec.from_dict(spec.to_dict())
        assert again.to_dict() == spec.to_dict()
        assert spec_hash(again) == spec_hash(spec)

    @pytest.mark.parametrize("field,value,fragment", [
        ("engines", ["sequential", "warp9"], "unknown engine 'warp9'"),
        ("frontiers", ["lifo", "random"], "unknown frontier 'random'"),
        ("scale", "huge", "unknown scale 'huge'"),
        ("device", "H100", "unknown device 'H100'"),
        ("instances", ["p_hat_9000_1"], "unknown suite instance"),
        ("instance_types", ["mvc", "tsp"], "unknown instance type 'tsp'"),
    ])
    def test_bad_axis_values_fail_with_choices(self, field, value, fragment):
        with pytest.raises(ValueError, match="choose from") as err:
            tiny_spec(**{field: value})
        assert fragment in str(err.value)

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown spec fields"):
            tiny_spec(gpu_count=8)

    def test_missing_instance_file_rejected(self):
        with pytest.raises(ValueError, match="does not exist"):
            tiny_spec(instances=[{"path": "/nonexistent/g.col"}])

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError, match="no instances"):
            tiny_spec(instances=[])
        with pytest.raises(ValueError, match="no engines"):
            tiny_spec(engines=[])

    def test_spec_hash_sensitive_to_content(self):
        assert spec_hash(tiny_spec()) != spec_hash(tiny_spec(repeats=2))

    def test_frontier_axis_pairs_with_sequential_only(self):
        cells = tiny_spec().expand_cells()
        seq = [c for c in cells if c.engine == "sequential"]
        hyb = [c for c in cells if c.engine == "hybrid"]
        assert {c.frontier for c in seq} == {"lifo", "best-first"}
        assert {c.frontier for c in hyb} == {None}

    def test_not_json_file(self, tmp_path):
        bad = tmp_path / "spec.json"
        bad.write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_spec(bad)


class TestFingerprints:
    def test_graph_fingerprint_is_content_addressed(self):
        a = gnp(30, 0.2, seed=1)
        b = gnp(30, 0.2, seed=1)
        c = gnp(30, 0.2, seed=2)
        assert graph_fingerprint(a) == graph_fingerprint(b)
        assert graph_fingerprint(a) != graph_fingerprint(c)

    def test_cell_fingerprint_sensitive_to_every_axis(self):
        base = {"instance": "x", "engine": "sequential", "frontier": "lifo",
                "instance_type": "mvc", "k": None, "repeat": 0,
                "config": {"scale": "tiny"}}
        fp = cell_fingerprint("g" * 64, base)
        for mutation in ({"engine": "hybrid"}, {"frontier": "fifo"},
                         {"repeat": 1}, {"k": 3},
                         {"config": {"scale": "small"}}):
            assert cell_fingerprint("g" * 64, {**base, **mutation}) != fp
        assert cell_fingerprint("h" * 64, base) != fp


# --------------------------------------------------------------------- #
# runner + store end-to-end
# --------------------------------------------------------------------- #
class TestRunnerAndStore:
    def test_run_produces_valid_artifacts(self, tmp_path):
        store = RunStore(tmp_path)
        outcome = run_experiment(tiny_spec(), store)
        assert outcome.planned == outcome.executed == 3  # 2 frontiers + hybrid
        run = outcome.run
        validate_manifest(run.manifest)
        records = run.completed()
        assert len(records) == 3
        for record in records.values():
            validate_cell_record(record)
        assert run.manifest["status"] == "complete"
        assert isinstance(run.manifest["provenance"]["git_dirty"], bool)
        assert run.manifest["n_cells"] == 3
        assert run.manifest["instances"][0]["label"] == "p_hat_300_1"

    def test_resume_executes_zero_solves(self, tmp_path, monkeypatch):
        """The resume contract, asserted by counting actual solve calls."""
        import repro.experiment.runner as runner_mod

        store = RunStore(tmp_path)
        spec = tiny_spec()
        run_experiment(spec, store)

        calls = []
        real_run_cell = runner_mod.run_cell
        monkeypatch.setattr(runner_mod, "run_cell",
                            lambda *a, **kw: calls.append(a) or real_run_cell(*a, **kw))
        outcome = run_experiment(spec, store)
        assert outcome.executed == 0
        assert outcome.skipped == 3
        assert calls == []  # not a single engine invocation happened

    def test_interrupted_run_recomputes_only_missing_cells(self, tmp_path, monkeypatch):
        """Drop one record + tear the tail; resume recomputes exactly those."""
        import repro.experiment.runner as runner_mod

        store = RunStore(tmp_path)
        spec = tiny_spec()
        first = run_experiment(spec, store)
        results = first.run.results_path
        lines = results.read_text().splitlines()
        assert len(lines) == 3
        # keep cell 0 intact, drop cell 1, tear cell 2 mid-record (the kill)
        results.write_text(lines[0] + "\n" + lines[2][: len(lines[2]) // 2])

        calls = []
        real_run_cell = runner_mod.run_cell
        monkeypatch.setattr(runner_mod, "run_cell",
                            lambda *a, **kw: calls.append(a) or real_run_cell(*a, **kw))
        outcome = run_experiment(spec, store)
        assert outcome.skipped == 1
        assert outcome.executed == 2
        assert len(calls) == 2
        assert len(outcome.run.completed()) == 3  # whole grid stored again

    def test_rerun_results_are_bit_identical(self, tmp_path):
        store = RunStore(tmp_path)
        spec = tiny_spec()
        run_experiment(spec, store)
        before = {fp: rec["result"] for fp, rec in store.runs()[0].completed().items()}
        outcome = run_experiment(spec, store, resume=False)  # force re-execution
        assert outcome.executed == 3
        after = {fp: rec["result"] for fp, rec in outcome.run.completed().items()}
        assert set(before) == set(after)
        for fp in before:
            for key in ("seconds", "cycles", "nodes", "optimum", "tree"):
                assert before[fp][key] == after[fp][key], (fp, key)

    def test_process_pool_matches_inline(self, tmp_path):
        spec = tiny_spec(name="pool")
        inline_store = RunStore(tmp_path / "inline")
        pool_store = RunStore(tmp_path / "pool")
        inline = run_experiment(spec, inline_store, n_workers=0)
        pooled = run_experiment(spec, pool_store, n_workers=2)
        a = inline.run.completed()
        b = pooled.run.completed()
        assert set(a) == set(b)
        for fp in a:
            for key in ("seconds", "cycles", "nodes", "optimum"):
                assert a[fp]["result"][key] == b[fp]["result"][key]

    def test_file_instances_and_pvc_axis(self, tmp_path):
        from repro.graph.io.dimacs import write_dimacs

        g = gnp(18, 0.25, seed=8)
        path = tmp_path / "inst.col"
        write_dimacs(g, path)
        spec = tiny_spec(
            name="file-inst",
            instances=[{"path": str(path)}],
            engines=["sequential"],
            frontiers=["lifo"],
            instance_types=["mvc", "pvc_k"],
        )
        store = RunStore(tmp_path / "store")
        outcome = run_experiment(spec, store)
        assert outcome.executed == 2
        info = outcome.run.manifest["instances"][0]
        assert info["label"] == "inst"
        assert info["minimum"] is not None
        assert info["graph_fp"] == graph_fingerprint(g)
        by_type = {rec["instance_type"]: rec for rec in outcome.run.completed().values()}
        assert by_type["pvc_k"]["k"] == info["minimum"]
        assert by_type["pvc_k"]["result"]["feasible"] is True

    def test_mvc_only_plan_resolves_no_minimum(self, monkeypatch):
        import repro.experiment.runner as runner_mod

        def boom(graph):
            raise AssertionError("an MVC-only plan resolved a minimum")

        monkeypatch.setattr(runner_mod, "_resolve_minimum", boom)
        infos, planned = plan_run(tiny_spec())
        assert len(planned) == 3
        assert [(info.minimum, info.min_source) for info in infos] == [(None, "not needed")]

    def test_conflicting_run_id_rejected(self, tmp_path):
        store = RunStore(tmp_path)
        run = store.open_run(name="x", spec={"a": 1})
        with pytest.raises(ValueError, match="different spec"):
            store.open_run(name="x", spec={"a": 2}, run_id=run.run_id)


# --------------------------------------------------------------------- #
# reports and verification
# --------------------------------------------------------------------- #
class TestReport:
    @pytest.fixture(scope="class")
    def stored_run(self, tmp_path_factory):
        store = RunStore(tmp_path_factory.mktemp("store"))
        spec = tiny_spec(
            name="report",
            instances=["p_hat_300_1", "sister_cities"],
            engines=["sequential", "stackonly", "hybrid"],
            frontiers=["lifo"],
            instance_types=["mvc", "pvc_k"],
        )
        outcome = run_experiment(spec, store)
        return store, outcome

    def test_table1_from_store_matches_live_harness(self, stored_run, tmp_path):
        """The Table I section from stored cells == the section of a fresh
        run of the same spec, and every stored cell == a live run_cell."""
        from repro.analysis.experiments import run_cell
        from repro.graph.generators.suites import suite_instance

        store, outcome = stored_run
        stored = run_cells(outcome.run)
        spec = load_spec(outcome.run.manifest["spec"])
        again = run_cells(run_experiment(spec, RunStore(tmp_path)).run)
        assert table1_section(stored) == table1_section(again)
        for record in outcome.run.completed().values():
            live = run_cell(record["engine"],
                            suite_instance(record["instance"], "tiny").graph(),
                            record["instance_type"], record["k"], spec,
                            frontier=record["frontier"]).to_record()
            for key in ("seconds", "cycles", "nodes", "launch"):
                assert record["result"].get(key) == live.get(key), key

    def test_verify_against_live_passes(self, stored_run):
        store, outcome = stored_run
        assert verify_run_against_live(store, outcome.run.run_id) == \
            len(outcome.run.completed())

    def test_verify_detects_tampering(self, tmp_path):
        store = RunStore(tmp_path)
        outcome = run_experiment(tiny_spec(), store)
        results = outcome.run.results_path
        lines = [json.loads(line) for line in results.read_text().splitlines()]
        lines[0]["result"]["cycles"] = (lines[0]["result"]["cycles"] or 0.0) + 1.0
        results.write_text("\n".join(json.dumps(rec) for rec in lines) + "\n")
        with pytest.raises(VerificationError, match="cycles"):
            verify_run_against_live(store, outcome.run.run_id)

    def test_report_md_written_with_footer(self, stored_run):
        store, outcome = stored_run
        text = write_report(store, outcome.run.run_id)
        assert outcome.run.report_path.read_text() == text
        assert "Table I" in text
        assert "p_hat_300_1" in text
        assert "git `" in text  # the reproduction footer

    def test_tree_shape_rows_cover_sequential_cells(self, stored_run):
        store, outcome = stored_run
        rows = tree_shape_rows(outcome.run)
        assert rows and all(r["nodes"] >= 0 for r in rows)
        assert {r["instance"] for r in rows} == {"p_hat_300_1", "sister_cities"}

    def test_engines_outside_table1_columns_still_reported(self, tmp_path):
        """Engines without a Table I column keep their cells, each shown
        once: globalonly's MVC cells in the ablation section, a pool
        engine's in the table of the remaining engines."""
        store = RunStore(tmp_path)
        outcome = run_experiment(
            tiny_spec(name="ablate", engines=["sequential", "globalonly", "cpu-threads"],
                      frontiers=["lifo"]), store)
        text = write_report(store, outcome.run.run_id)
        ablation = text.index("## GlobalOnly ablation")
        extra = text.index("## Engines outside the Table I columns")
        assert "globalonly" in text[ablation:extra]
        assert "cpu-threads" in text[extra:] and "globalonly" not in text[extra:]

    def test_non_experiment_runs_refused_cleanly(self, tmp_path):
        """Runs of the retired store-backed Table I path (spec kind
        ``table1``) are not spec-shaped; the report layer must refuse with
        a pointer to the preset, not a traceback."""
        store = RunStore(tmp_path)
        run = store.open_run(name="table1", spec={"kind": "table1", "scale": "tiny"})
        for call in (write_report, verify_run_against_live):
            with pytest.raises(ValueError, match="not created by 'repro experiment run'") as err:
                call(store, run.run_id)
            assert "repro table1 --store" in str(err.value)


# --------------------------------------------------------------------- #
# SQLite index
# --------------------------------------------------------------------- #
class TestIndex:
    def test_index_and_query(self, tmp_path):
        store = RunStore(tmp_path)
        outcome = run_experiment(tiny_spec(), store)
        cells = store.query_cells(run_id=outcome.run.run_id)
        assert len(cells) == 3
        seq = store.query_cells(engine="sequential")
        assert len(seq) == 2
        assert all(rec["engine"] == "sequential" for rec in seq)

    def test_offline_reindex_rebuilds_from_artifacts(self, tmp_path):
        store = RunStore(tmp_path)
        outcome = run_experiment(tiny_spec(), store)
        store.index_path.unlink()
        counts = store.reindex()
        assert counts == {outcome.run.run_id: 3}
        assert len(store.query_cells()) == 3


# --------------------------------------------------------------------- #
# the paper presets run through the one driver
# --------------------------------------------------------------------- #
class TestStoreBackedTable1:
    def test_second_invocation_loads_from_store(self, tmp_path, monkeypatch):
        """A preset run twice on one store executes 0 cells the second time."""
        import dataclasses

        import repro.experiment.runner as runner_mod
        from repro.experiment.presets import preset_spec, run_preset

        spec = dataclasses.replace(
            preset_spec("table1", "tiny", quick=True),
            instances=[InstanceRef(suite="p_hat_300_1")], instance_types=("mvc",))
        store = RunStore(tmp_path)
        first_text, first = run_preset("table1", spec, store=store)
        assert first.executed == first.planned == 3
        assert first.run.report_path.exists()

        def boom(*args, **kwargs):
            raise AssertionError("the preset re-solved a stored cell")

        monkeypatch.setattr(runner_mod, "run_cell", boom)
        second_text, second = run_preset("table1", spec, store=store)
        assert second.executed == 0 and second.skipped == 3
        assert second_text == first_text
        assert second.run.run_id == first.run.run_id

    def test_cost_model_changes_invalidate_the_run(self, tmp_path, monkeypatch):
        """A retune of the default CostModel re-keys every cell — stale
        cells priced under other cycle costs can never be fingerprint
        matches — while the current pricing leaves the keys as stored."""
        import dataclasses

        import repro.sim.costmodel as costmodel
        from repro.experiment.presets import preset_spec, run_preset

        spec = dataclasses.replace(
            preset_spec("table1", "tiny", quick=True),
            instances=[InstanceRef(suite="p_hat_300_1")], instance_types=("mvc",))
        assert "pricing" not in spec.cell_config()
        store = RunStore(tmp_path)
        first_text, first = run_preset("table1", spec, store=store)
        monkeypatch.setitem(costmodel._DEFAULT_PER_UNIT, "degree_one", 999.0)
        assert spec.cell_config()["pricing"]["cost_model"]["per_unit_cycles"]["degree_one"] == 999.0
        second_text, second = run_preset("table1", spec, store=store)
        assert second.executed == second.planned == first.executed == 3
        assert second_text != first_text


# --------------------------------------------------------------------- #
# PR 5: bound axis, wall-clock cpu mode, cross-run diff
# --------------------------------------------------------------------- #
class TestBoundAxis:
    def test_bound_axis_expands_for_every_engine(self):
        spec = tiny_spec(bounds=["greedy", "matching"])
        cells = spec.expand_cells()
        # sequential: 2 frontiers x 2 bounds; hybrid: 1 x 2 bounds
        assert len(cells) == 6
        assert {cell.bound for cell in cells} == {"greedy", "matching"}
        hybrid = [cell for cell in cells if cell.engine == "hybrid"]
        assert {cell.bound for cell in hybrid} == {"greedy", "matching"}

    def test_unknown_bound_rejected_with_choices(self):
        with pytest.raises(ValueError, match="unknown bound 'buss'"):
            tiny_spec(bounds=["buss"])

    def test_bound_changes_the_cell_fingerprint(self):
        fp = graph_fingerprint(gnp(8, 0.4, seed=1))
        base = {"instance": "x", "engine": "sequential", "frontier": "lifo",
                "bound": "greedy", "instance_type": "mvc", "k": None,
                "repeat": 0, "config": {}}
        changed = dict(base, bound="konig")
        assert cell_fingerprint(fp, base) != cell_fingerprint(fp, changed)

    def test_bound_sweep_runs_resume_and_verify(self, tmp_path):
        spec = tiny_spec(frontiers=["lifo"], bounds=["greedy", "degree"])
        store = RunStore(tmp_path / "store")
        first = run_experiment(spec, store)
        assert first.executed == 4  # (sequential + hybrid) x 2 bounds
        again = run_experiment(spec, store)
        assert again.executed == 0 and again.skipped == 4
        assert verify_run_against_live(store, first.run.run_id) == 4

    def test_records_without_bound_field_stay_readable(self, tmp_path):
        # pre-PR-5 stores lack the key; validation and indexing default it
        spec = tiny_spec(engines=["sequential"], frontiers=["lifo"])
        store = RunStore(tmp_path / "store")
        outcome = run_experiment(spec, store)
        record = next(iter(outcome.run.completed().values()))
        legacy = {k: v for k, v in record.items() if k != "bound"}
        validate_cell_record(legacy)
        store.index_run(outcome.run)
        cells = store.query_cells(run_id=outcome.run.run_id, bound="greedy")
        assert len(cells) == 1


class TestWallClockEngines:
    def test_cpu_engines_accepted_in_specs(self):
        spec = tiny_spec(engines=["sequential", "cpu-threads"], cpu_workers=2)
        assert "cpu-threads" in spec.engines

    def test_unknown_engine_error_names_cpu_engines(self):
        with pytest.raises(ValueError, match="cpu-threads"):
            tiny_spec(engines=["gpu"])

    def test_wall_clock_cells_store_wall_seconds_only(self, tmp_path):
        spec = tiny_spec(engines=["cpu-threads"], frontiers=["lifo"],
                         cpu_workers=2)
        store = RunStore(tmp_path / "store")
        outcome = run_experiment(spec, store)
        assert outcome.executed == 1
        record = next(iter(outcome.run.completed().values()))
        result = record["result"]
        assert result["seconds"] is None and result["cycles"] is None
        assert result["wall_seconds"] > 0.0
        assert result["optimum"] is not None
        assert "wall-clock" in result["detail"]
        # verification compares only the deterministic fields
        assert verify_run_against_live(store, outcome.run.run_id) == 1

    def test_verify_re_executes_each_cell_on_its_stored_team(self, tmp_path, monkeypatch):
        import repro.experiment.report as report_mod

        spec = tiny_spec(engines=["cpu-threads"], frontiers=["lifo"], workers=[1, 2])
        store = RunStore(tmp_path / "store")
        outcome = run_experiment(spec, store)
        seen = []
        real = report_mod._execute_cell
        monkeypatch.setattr(report_mod, "_execute_cell",
                            lambda s, cell, ref: seen.append(cell.get("workers"))
                            or real(s, cell, ref))
        assert verify_run_against_live(store, outcome.run.run_id) == 2
        assert sorted(seen) == [1, 2]

    def test_wall_clock_cells_render_outside_table1(self, tmp_path):
        spec = tiny_spec(engines=["sequential", "cpu-threads"],
                         frontiers=["lifo"], cpu_workers=2)
        store = RunStore(tmp_path / "store")
        outcome = run_experiment(spec, store)
        text = write_report(store, outcome.run.run_id)
        assert "cpu-threads" in text


class TestRunDiff:
    def _run(self, store, **overrides):
        overrides.setdefault("engines", ["sequential"])
        overrides.setdefault("frontiers", ["lifo"])
        spec = tiny_spec(**overrides)
        return run_experiment(spec, store).run

    def test_identical_runs_diff_clean(self, tmp_path):
        from repro.experiment import diff_runs

        store = RunStore(tmp_path / "store")
        a = self._run(store, name="diff-a")
        b = self._run(store, name="diff-b")
        diff = diff_runs(store, a.run_id, b.run_id)
        assert not diff.added and not diff.removed and not diff.changed
        assert diff.unchanged == 1

    def test_added_removed_and_changed_cells(self, tmp_path):
        from repro.experiment import diff_runs, render_diff

        store = RunStore(tmp_path / "store")
        a = self._run(store, name="diff-a", bounds=["greedy", "konig"])
        # different budget => sequential cells re-price; dropped bound
        # => removed cells; an extra engine => added cells
        b = self._run(store, name="diff-b", bounds=["greedy"],
                      engines=["sequential", "hybrid"], seq_node_guard=300)
        diff = diff_runs(store, a.run_id, b.run_id)
        assert len(diff.removed) == 1            # the konig cell
        assert len(diff.added) == 1              # the hybrid cell
        assert diff.changed or diff.unchanged    # greedy cell compared
        text = render_diff(diff)
        assert f"diff {a.run_id} -> {b.run_id}" in text
        assert "+ " in text and "- " in text

    def test_changed_cells_carry_node_and_cycle_deltas(self, tmp_path):
        from repro.experiment import diff_runs

        store = RunStore(tmp_path / "store")
        a = self._run(store, name="diff-a")
        b = self._run(store, name="diff-b", seq_node_guard=5)  # guard trips
        diff = diff_runs(store, a.run_id, b.run_id)
        assert len(diff.changed) == 1
        deltas = diff.changed[0]["deltas"]
        assert "nodes" in deltas and "delta" in deltas["nodes"]

    def test_unknown_run_id_raises_key_error(self, tmp_path):
        from repro.experiment import diff_runs

        store = RunStore(tmp_path / "store")
        a = self._run(store, name="diff-a")
        with pytest.raises(KeyError):
            diff_runs(store, a.run_id, "no-such-run")


class TestPreBoundAxisCompatibility:
    """Specs and stores written before the bound axis keep their identity."""

    def test_default_spec_serializes_without_the_new_fields(self):
        spec = tiny_spec()
        data = spec.to_dict()
        assert "bounds" not in data and "cpu_workers" not in data
        assert "cpu_workers" not in spec.cell_config()
        # non-default values do serialize (and round-trip)
        rich = tiny_spec(bounds=["greedy", "konig"], cpu_workers=3)
        data = rich.to_dict()
        assert data["bounds"] == ["greedy", "konig"]
        assert data["cpu_workers"] == 3
        again = load_spec(data)
        assert again.bounds == ("greedy", "konig") and again.cpu_workers == 3

    def test_default_bound_cells_keep_their_pre_axis_fingerprints(self, tmp_path):
        """A run stored with no bound axis resumes with zero recompute."""
        spec = tiny_spec(engines=["sequential"], frontiers=["lifo"])
        store = RunStore(tmp_path / "store")
        outcome = run_experiment(spec, store)
        record = next(iter(outcome.run.completed().values()))
        # simulate a pre-axis record: no 'bound' key anywhere
        legacy = {k: v for k, v in record.items() if k != "bound"}
        # its fingerprint must equal what today's planner computes for
        # the default-bound cell (the greedy payload omits the key)
        _, planned = plan_run(spec)
        assert planned[0].fingerprint == legacy["fingerprint"]


class TestCommittedRunsStayAddressable:
    """The committed runs were hashed with ``"calibration": null`` in their
    spec; the field is gone but their spec hashes must not move."""

    EXPERIMENTS = Path(__file__).resolve().parent.parent / "experiments"
    RUNS = ("obs-breakdown-d255fcecf2", "dist-workers-hosts-4f9eb33f1d",
            "paper-small-2045988359")

    @pytest.mark.parametrize("run", RUNS)
    def test_spec_hash_matches_the_manifest(self, run):
        name = run.rsplit("-", 1)[0]
        manifest = json.loads((self.EXPERIMENTS / run / "manifest.json").read_text())
        assert manifest["spec"]["calibration"] is None
        spec = ExperimentSpec.from_dict(
            json.loads((self.EXPERIMENTS / f"{name}.spec.json").read_text()))
        assert spec_hash(spec) == manifest["spec_hash"]
        assert spec_hash(ExperimentSpec.from_dict(manifest["spec"])) == manifest["spec_hash"]

    def test_paper_run_is_the_table1_preset(self):
        from repro.experiment.presets import preset_spec

        manifest = json.loads(
            (self.EXPERIMENTS / "paper-small-2045988359" / "manifest.json").read_text())
        assert spec_hash(preset_spec("table1", "small", quick=True)) == manifest["spec_hash"]

    def test_paper_run_names_its_uncommitted_tree(self):
        """Its cells came from uncommitted code on top of the commit its
        manifest names; the report footer must say so."""
        from repro.experiment.report import render_report

        text = render_report(RunStore(self.EXPERIMENTS), "paper-small-2045988359")
        assert "(uncommitted changes)" in text.splitlines()[-1]

    def test_paper_run_hybrid_beats_stackonly_on_mvc(self):
        """The direction of the paper's Table II claim, read from the
        committed cells only: hybrid >= stackonly in the overall MVC
        geometric mean (the paper reports 72.9x)."""
        from repro.experiment.report import table2_speedups

        view = run_cells(RunStore(self.EXPERIMENTS).get_run("paper-small-2045988359"))
        assert len(view.cells) == 216
        assert table2_speedups(view)[("overall", "stackonly", "mvc")] >= 1.0

    def test_non_null_calibration_is_refused(self):
        data = tiny_spec().to_dict()
        data["calibration"] = "calib.json"
        with pytest.raises(ValueError, match="calibration' was removed"):
            ExperimentSpec.from_dict(data)

"""CLI smoke tests (tiny scale, quick budgets)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_parse(self):
        parser = build_parser()
        for cmd in ("table1", "table2", "table3", "fig5", "fig6", "sweeps", "ablation", "suite", "memory", "tree"):
            args = parser.parse_args([cmd])
            assert args.command == cmd

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_requires_graph(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve"])

    def test_budget_flag(self):
        args = build_parser().parse_args(["table1", "--budget", "0.5"])
        assert args.budget == 0.5


class TestMain:
    def test_suite_listing(self, capsys):
        assert main(["suite", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "p_hat_300_1" in out and "vc_exact_009" in out

    def test_solve_mvc(self, capsys):
        assert main(["solve", "--graph", "p_hat_300_1", "--scale", "tiny",
                     "--engine", "hybrid"]) == 0
        assert "minimum vertex cover size" in capsys.readouterr().out

    def test_solve_pvc(self, capsys):
        assert main(["solve", "--graph", "p_hat_300_1", "--scale", "tiny",
                     "--engine", "sequential", "--k", "25"]) == 0
        out = capsys.readouterr().out
        assert "EXISTS" in out or "does not exist" in out

    def test_ablation_quick(self, capsys):
        assert main(["ablation", "--scale", "tiny", "--quick"]) == 0
        assert "GlobalOnly" in capsys.readouterr().out

    def test_memory_report(self, capsys):
        assert main(["memory", "--scale", "tiny"]) == 0
        assert "Memory budget" in capsys.readouterr().out

    def test_tree_shape(self, capsys):
        assert main(["tree", "--scale", "tiny", "--graph", "p_hat_300_3",
                     "--node-budget", "2000"]) == 0
        assert "Search-tree shape" in capsys.readouterr().out

    def test_bench_writes_artifact(self, capsys, tmp_path):
        out = tmp_path / "BENCH_micro.json"
        assert main(["bench", "--out", str(out), "--repeats", "1",
                     "--target-ms", "1"]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        assert payload["kind"] == "repro-vc-microbench"
        for case in ("reduce_serial", "reduce_reference", "sequential_solver_small"):
            assert payload["results"][case]["best_s"] > 0
        prov = payload["provenance"]
        assert {"git_sha", "seeds", "python", "numpy", "platform"} <= set(prov)
        assert "reduce_serial" in capsys.readouterr().out

    def test_bench_parser_accepts_action(self, capsys):
        args = build_parser().parse_args(["bench"])
        assert args.action == "run"
        for retired in ("calibrate", "nonsense"):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(["bench", retired])
            assert exc.value.code == 2
            assert "invalid choice" in capsys.readouterr().err

    def test_solve_frontier_flag(self, capsys):
        assert main(["solve", "--graph", "p_hat_300_3", "--scale", "tiny",
                     "--engine", "sequential", "--frontier", "best-first",
                     "--node-budget", "4000"]) == 0
        assert "minimum vertex cover size" in capsys.readouterr().out
        # frontier policies are a sequential-engine knob
        assert main(["solve", "--graph", "p_hat_300_3", "--scale", "tiny",
                     "--engine", "hybrid", "--frontier", "lifo"]) == 2
        assert "sequential" in capsys.readouterr().out

    def test_solve_unknown_frontier_lists_registry(self, capsys):
        """A typo dies with one line naming the FRONTIERS keys, no traceback."""
        from repro.core.frontier import FRONTIERS

        assert main(["solve", "--graph", "p_hat_300_3", "--scale", "tiny",
                     "--engine", "sequential", "--frontier", "bogus-policy"]) == 2
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln.strip()]
        assert len(lines) == 1
        assert "unknown frontier 'bogus-policy'" in lines[0]
        for name in FRONTIERS:
            assert name in lines[0]

    def test_solve_unknown_engine_lists_registry(self, capsys):
        from repro.core.solver import ENGINES

        assert main(["solve", "--graph", "p_hat_300_3", "--scale", "tiny",
                     "--engine", "warp-drive"]) == 2
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln.strip()]
        assert len(lines) == 1
        assert "unknown engine 'warp-drive'" in lines[0]
        for name in ENGINES:
            assert name in lines[0]


    @pytest.mark.parametrize("cmd", ("solve", "tree"))
    def test_unknown_graph_is_one_line_error(self, capsys, cmd):
        assert main([cmd, "--graph", "nosuch", "--scale", "tiny"]) == 2
        assert capsys.readouterr().out == "error: no suite instance named 'nosuch'\n"

    def test_closed_reader_exits_quietly(self):
        """``repro suite | head -1``: a reader that hangs up early gets no
        BrokenPipeError traceback."""
        import os
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "suite", "--scale", "tiny"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src))
        proc.stdout.close()  # hang up before the child writes a byte
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert err == b""

    def test_resume_from_a_malformed_checkpoint_is_one_line_error(
            self, capsys, tmp_path, malformed_checkpoints):
        from repro.core.outcome import Checkpoint

        good = tmp_path / "good.ckpt"
        base = ["solve", "--graph", "p_hat_300_1", "--scale", "tiny"]
        assert main(base + ["--engine", "sequential", "--node-budget", "5",
                            "--checkpoint", str(good)]) == 3
        capsys.readouterr()
        blobs = malformed_checkpoints(Checkpoint.load(good))
        for name in ("garbage", "truncated", "v1", "names a global", "missing a key"):
            bad = tmp_path / "bad.ckpt"
            bad.write_bytes(blobs[name])
            assert main(base + ["--resume-from", str(bad)]) == 2, name
            out = capsys.readouterr().out
            assert out.startswith("error: ") and out.count("\n") == 1, (name, out)
        assert main(base + ["--resume-from", str(good)]) == 0
        assert "status=optimal" in capsys.readouterr().out


class TestExperimentCLI:
    """The `repro experiment` subcommand group (docs/EXPERIMENTS.md)."""

    def test_parser_accepts_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["experiment", "run", "--spec", "s.json"])
        assert args.experiment_command == "run"
        args = parser.parse_args(["experiment", "report", "rid", "--verify"])
        assert args.experiment_command == "report" and args.run_id == "rid"
        for cmd in (["experiment"], ["experiment", "nonsense"]):
            with pytest.raises(SystemExit):
                parser.parse_args(cmd)

    def test_run_requires_spec(self, capsys):
        assert main(["experiment", "run"]) == 2
        assert "--spec" in capsys.readouterr().out

    def test_bad_spec_fails_with_one_line_error(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"name": "x", "instances": ["p_hat_300_1"],
                                    "engines": ["warp9"], "scale": "tiny"}))
        assert main(["experiment", "run", "--spec", str(spec),
                     "--store", str(tmp_path / "store")]) == 2
        out = capsys.readouterr().out
        assert "unknown engine 'warp9'" in out and "choose from" in out

    def test_smoke_then_report_list_index(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(["experiment", "run", "--smoke", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "experiment smoke OK" in out
        assert "resume recomputed 0" in out

        assert main(["experiment", "list", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "ci-smoke" in out and "complete" in out
        run_id = next(line.split()[0] for line in out.splitlines()
                      if line.startswith("ci-smoke"))

        assert main(["experiment", "report", run_id, "--store", store,
                     "--verify", "--max-cells", "2"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "verified: 2 cells" in out

        assert main(["experiment", "index", "--store", store]) == 0
        assert "indexed 1 runs" in capsys.readouterr().out

    def test_run_spec_and_resume(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "cli-e2e", "scale": "tiny", "device": "TinySim",
            "instances": ["p_hat_300_1"], "engines": ["sequential"],
            "frontiers": ["lifo"], "instance_types": ["mvc"],
        }))
        store = str(tmp_path / "store")
        assert main(["experiment", "run", "--spec", str(spec_path),
                     "--store", store]) == 0
        out = capsys.readouterr().out
        assert "1 executed, 0 skipped" in out
        run_id = next(line.split(":")[0] for line in out.splitlines()
                      if line.startswith("cli-e2e"))
        assert main(["experiment", "resume", run_id, "--store", store]) == 0
        assert "0 executed, 1 skipped" in capsys.readouterr().out

    def test_report_unknown_run_lists_known_ids(self, capsys, tmp_path):
        assert main(["experiment", "report", "nope",
                     "--store", str(tmp_path)]) == 2
        assert "no run 'nope'" in capsys.readouterr().out

    def test_table1_store_flag(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        # first run computes and persists; parser must accept --store
        assert main(["table1", "--scale", "tiny", "--quick",
                     "--store", store]) == 0
        first = capsys.readouterr().out
        assert "Table I" in first
        # second run renders the identical table from stored cells
        assert main(["table1", "--scale", "tiny", "--quick",
                     "--store", store]) == 0
        second = capsys.readouterr().out
        table = lambda text: [ln for ln in text.splitlines()
                              if ln.startswith(("Table", "Graph", "p_hat", "-"))]
        assert table(first) == table(second)


    @pytest.mark.parametrize("argv", [
        ["experiment", "run", "--smoke"],
        ["table1", "--scale", "tiny", "--quick"],
    ], ids=["experiment-smoke", "table1"])
    def test_store_under_a_file_is_one_line_error(self, capsys, tmp_path, argv):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        store = str(blocker / "store")
        assert main(argv + ["--store", store]) == 2
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1, out
        assert out[0].startswith(f"error: cannot use experiment store {store!r}")

    def test_preset_prints_one_section_and_leaves_no_store(self, capsys, tmp_path,
                                                           monkeypatch):
        import tempfile

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert main(["table2", "--scale", "tiny", "--quick"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Table II — aggregate speedup (geometric mean)")
        assert "Table I " not in out and "overall" in out
        assert list(tmp_path.iterdir()) == []


class TestObsCLI:
    """``repro obs view|export`` on trace files from outside."""

    @pytest.mark.parametrize("doc", [
        [1, 2],                                # top level not an object
        {"traceEvents": {"ph": "X"}},          # traceEvents not a list
        {"traceEvents": [1]},                  # an event not an object
    ], ids=["top-level", "events", "event"])
    @pytest.mark.parametrize("cmd", ["view", "export"])
    def test_malformed_trace_is_one_line_error(self, capsys, tmp_path, doc, cmd):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        argv = ["obs", "view", str(path)] if cmd == "view" \
            else ["obs", "export", "--trace", str(path)]
        assert main(argv) == 2
        out = capsys.readouterr().out
        assert out.startswith("error: cannot read trace") and out.count("\n") == 1

    @pytest.mark.parametrize("doc", [
        [1, 2],                                # top level not an object
        {"metrics": [{"name": "x", "labels": [1]}]},  # labels not an object
    ], ids=["top-level", "labels"])
    def test_malformed_metrics_is_one_line_error(self, capsys, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["obs", "export", "--metrics", str(path)]) == 2
        out = capsys.readouterr().out
        assert out.startswith("error: cannot convert") and out.count("\n") == 1

    def test_export_keeps_identity_and_clock(self, capsys, tmp_path):
        from repro.engines.hybrid import HybridEngine
        from repro.graph.generators.phat import phat_complement
        from repro.obs import trace
        from repro.sim.device import TINY_SIM

        eng = HybridEngine(device=TINY_SIM)
        eng.tracer = tracer = trace.WallTracer(clock="cycles", max_spans=40)
        eng.solve_mvc(phat_complement(40, 3, seed=9))
        src, dst = tmp_path / "in.json", tmp_path / "out.json"
        trace.dump_chrome(str(src), tracer)
        assert main(["obs", "export", "--trace", str(src), "--out", str(dst)]) == 0
        other = json.loads(dst.read_text())["otherData"]
        assert other["trace_id"] == tracer.trace_id
        assert other["dropped_spans"] == tracer.dropped > 0
        assert other["clock"] == "cycles"
        assert len(json.loads(dst.read_text())["traceEvents"]) == len(tracer.spans)

    def test_view_renders_cycles_lanes(self, capsys, tmp_path):
        from repro.engines.hybrid import HybridEngine
        from repro.graph.generators.phat import phat_complement
        from repro.obs import trace
        from repro.sim.device import TINY_SIM

        eng = HybridEngine(device=TINY_SIM)
        eng.tracer = tracer = trace.WallTracer(clock="cycles")
        eng.solve_mvc(phat_complement(40, 3, seed=9))
        path = tmp_path / "cycles.json"
        trace.dump_chrome(str(path), tracer)
        assert main(["obs", "view", str(path), "--width", "30"]) == 0
        out = capsys.readouterr().out
        lanes = {(s.pid, s.tid) for s in tracer.spans}
        assert out.startswith(f"cycles gantt: {len(tracer.spans)} spans")
        assert sum("|" in line for line in out.splitlines()) == len(lanes)
        assert "cycles attribution" in out and " cycles " in out and " ms " not in out

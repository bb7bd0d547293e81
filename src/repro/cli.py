"""Command-line interface: ``python -m repro <experiment>``.

Subcommands regenerate the paper's evaluation artefacts on the synthetic
suite; each paper command is a preset spec run through the experiment
runner, printing one report section (see docs/EXPERIMENTS.md)::

    python -m repro table1 [--scale small] [--quick] [--store DIR]
    python -m repro table2
    python -m repro table3
    python -m repro fig5
    python -m repro fig6
    python -m repro sweeps [--instance p_hat_300_3]
    python -m repro ablation
    python -m repro solve --graph p_hat_300_3 --engine hybrid [--k 70]
    python -m repro solve --graph p_hat_300_3 --engine sequential --frontier best-first
    python -m repro solve --graph user_item --engine hybrid --bound konig
    python -m repro solve --graph p_hat_300_3 --deadline 2 --checkpoint cp.bin
    python -m repro solve --graph p_hat_300_3 --resume-from cp.bin
    python -m repro solve --graph p_hat_300_3 --engine distributed --inject worker_kill:0.1
    python -m repro solve --graph p_hat_300_3 --engine distributed --stats \
        --trace trace.json --metrics-out metrics.json
    python -m repro obs view trace.json          # ASCII Gantt + attribution
    python -m repro obs export --metrics metrics.json   # Prometheus text
    python -m repro suite            # list the evaluation suite
    python -m repro bench            # hot-path micro-bench -> BENCH_micro.json
    python -m repro bench --smoke    # CI mode: cheap repeats + artifact schema assert

Declarative experiment orchestration (spec -> runner -> store -> report;
see docs/EXPERIMENTS.md)::

    python -m repro experiment run --spec sweep.json [--store experiments] [--workers 4]
    python -m repro experiment resume <run_id>       # skip completed cells
    python -m repro experiment report <run_id> [--verify]
    python -m repro experiment diff <run_a> <run_b>  # cell-level cross-run diff
    python -m repro experiment index                 # rebuild the SQLite index
    python -m repro experiment list
    python -m repro experiment run --smoke           # CI gate: schema + zero-recompute resume
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from .core.solver import POOL_ENGINES
from .graph.generators.suites import paper_suite, suite_instance

__all__ = ["main", "build_parser"]

#: The paper commands: presets of the experiment runner.
_PRESETS = ("table1", "table2", "table3", "fig5", "fig6", "ablation")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-vc",
        description="Reproduction of 'Parallel Vertex Cover Algorithms on GPUs' (IPDPS 2022)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scale", default="small", choices=("tiny", "small", "full"),
                       help="evaluation-suite scale")
        p.add_argument("--quick", action="store_true",
                       help="cheaper budgets (the pytest-benchmark settings)")
        p.add_argument("--budget", type=float, default=None,
                       help="virtual-time budget per cell in seconds (the paper's 2-hour analog)")
        p.add_argument("--verbose", action="store_true")

    for name in _PRESETS:
        p = sub.add_parser(name, help=f"regenerate {name}")
        common(p)
        if name in ("table1", "table2", "table3"):
            p.add_argument("--store", default=None, metavar="DIR",
                           help="experiment store directory: keep the run there "
                                "(resumable: fingerprint-matched cells are not "
                                "re-solved; see docs/EXPERIMENTS.md) instead of "
                                "a temporary store removed afterwards")
    common(sub.add_parser("memory", help="Section III-C memory budget per suite graph"))
    p = sub.add_parser("tree", help="Section III search-tree shape statistics")
    common(p)
    p.add_argument("--graph", default="p_hat_300_3", help="suite instance name")
    p.add_argument("--node-budget", type=int, default=50000)
    p = sub.add_parser("sweeps", help="Section V-A robustness sweeps")
    common(p)
    p.add_argument("--instance", default="p_hat_300_3")

    p = sub.add_parser("solve", help="solve one suite instance with one engine")
    common(p)
    p.add_argument("--graph", required=True, help="suite instance name")
    p.add_argument("--engine", default=None,
                   help="engine name from the ENGINES registry (default: hybrid, "
                        "or the checkpoint's engine with --resume-from)")
    p.add_argument("--k", type=int, default=None, help="solve PVC with this k instead of MVC")
    p.add_argument("--node-budget", type=int, default=None)
    p.add_argument("--frontier", default=None,
                   help="worklist discipline for the sequential engine, from "
                        "the FRONTIERS registry (default: lifo, the Fig. 1 "
                        "depth-first stack)")
    p.add_argument("--bound", default=None,
                   help="pruning/lower-bound policy from the BOUNDS registry, "
                        "any engine (default: greedy, the paper's rule)")
    p.add_argument("--kernels", default=None,
                   help="reduction/branch/greedy kernel backend from the "
                        "KERNELS registry, any engine (default: auto, "
                        "native when the compiled extension loads, else "
                        "scalar; all backends are bit-identical, only "
                        "wall-clock differs)")
    p.add_argument("--deadline", type=float, default=None,
                   help="wall-clock budget in seconds: solve anytime-style, "
                        "reporting status, incumbent and admissible lower "
                        "bound when the deadline trips")
    p.add_argument("--checkpoint", default=None, metavar="PATH",
                   help="write the serialized frontier checkpoint here when "
                        "a --deadline / --node-budget solve is interrupted "
                        "(resume with --resume-from PATH)")
    p.add_argument("--resume-from", default=None, metavar="PATH",
                   help="resume a previously checkpointed solve of the same "
                        "graph instead of starting fresh")
    p.add_argument("--inject", default=None, metavar="SPEC",
                   help="arm the fault-injection switchboard for this solve: "
                        "site:prob[:max_fires],... over "
                        "worker_kill, reduce_raise, branch_raise, queue_delay")
    p.add_argument("--inject-seed", type=int, default=0,
                   help="deterministic seed for the --inject firing streams")
    p.add_argument("--workers", type=int, default=None,
                   help="worker count for the engines with a worker pool "
                        f"({', '.join(POOL_ENGINES)})")
    p.add_argument("--hosts", type=int, default=None,
                   help="distributed engine only: spawn this many extra "
                        "localhost worker processes that join over the socket "
                        "transport, exactly like `repro serve-worker` on a "
                        "second machine")
    p.add_argument("--cache", default=None, nargs="?", const=True, metavar="DIR",
                   help="route the solve through the content-addressed "
                        "certificate cache rooted at DIR (bare --cache uses "
                        "$REPRO_CACHE, else .repro-cache): repeated or "
                        "isomorphic-by-relabeling instances return their "
                        "stored verified cover with zero search nodes, and "
                        "interrupted solves escalate from the cached "
                        "checkpoint instead of restarting")
    p.add_argument("--stats", action="store_true",
                   help="print per-worker comms counters (messages, bytes, "
                        "leases, donations, idle time), fault-supervision "
                        "events and cache hit/miss/escalation counters after "
                        "a solve")
    p.add_argument("--trace", default=None, metavar="OUT.json",
                   help="arm wall-clock tracing for this solve and write the "
                        "merged multi-process timeline as Chrome trace-event "
                        "JSON (view in Perfetto or with `repro obs view`)")
    p.add_argument("--metrics-out", default=None, metavar="OUT.json",
                   help="arm the metrics registry for this solve and write "
                        "its JSON snapshot (convert with `repro obs export`)")

    common(sub.add_parser("suite", help="list the evaluation suite"))

    p = sub.add_parser("obs", help="inspect telemetry artifacts offline")
    osub = p.add_subparsers(dest="obs_command", required=True)
    op = osub.add_parser("view", help="ASCII Gantt + per-kind attribution "
                                      "from a trace file (wall or cycles)")
    op.add_argument("trace", metavar="TRACE.json",
                    help="Chrome trace JSON written by `repro solve --trace` "
                         "or `repro.obs.trace.dump_chrome`")
    op.add_argument("--width", type=int, default=80,
                    help="Gantt width in columns")
    op = osub.add_parser("export", help="convert telemetry artifacts: "
                                        "metrics snapshot -> Prometheus text, "
                                        "trace -> normalized Chrome JSON")
    op.add_argument("--trace", default=None, metavar="TRACE.json",
                    help="trace file to re-export as Chrome JSON")
    op.add_argument("--metrics", default=None, metavar="METRICS.json",
                    help="metrics snapshot to render as Prometheus exposition")
    op.add_argument("--out", default=None, metavar="PATH",
                    help="write here instead of stdout")

    p = sub.add_parser("cache", help="inspect and maintain the solve cache")
    csub = p.add_subparsers(dest="cache_command", required=True)

    def cache_common(cp: argparse.ArgumentParser) -> None:
        cp.add_argument("--store", default=None, metavar="DIR",
                        help="cache root (default: $REPRO_CACHE, else "
                             ".repro-cache)")

    cache_common(csub.add_parser("ls", help="list cached certificates"))
    cache_common(csub.add_parser("stats", help="entry/byte/hit totals"))
    cp = csub.add_parser("gc", help="evict entries, oldest access first")
    cache_common(cp)
    cp.add_argument("--max-bytes", type=int, default=None,
                    help="evict LRU entries until the store fits this size")
    cp.add_argument("--max-age-days", type=float, default=None,
                    help="evict entries not touched within this horizon")
    cache_common(csub.add_parser("clear", help="drop every entry"))

    p = sub.add_parser(
        "serve-worker",
        help="join a distributed coordinator's worker pool over TCP",
    )
    p.add_argument("--connect", required=True, metavar="HOST:PORT",
                   help="the coordinator's listen address (printed by the "
                        "distributed engine / passed to the remote host)")
    p.add_argument("--salt", type=int, default=0,
                   help="decorrelates RNG-dependent tie-breaking across "
                        "workers (the coordinator assigns worker ids)")

    p = sub.add_parser(
        "experiment",
        help="declarative experiment orchestration: spec -> runner -> store -> report",
    )
    esub = p.add_subparsers(dest="experiment_command", required=True)

    def exp_common(ep: argparse.ArgumentParser) -> None:
        ep.add_argument("--store", default=None, metavar="DIR",
                        help="store root directory (default: experiments/)")
        ep.add_argument("--verbose", action="store_true")

    ep = esub.add_parser("run", help="execute a spec (skipping completed cells)")
    exp_common(ep)
    ep.add_argument("--spec", default=None, metavar="SPEC.json",
                    help="experiment spec file (schema in docs/EXPERIMENTS.md)")
    ep.add_argument("--workers", type=int, default=0,
                    help="process-pool width; <=1 runs inline (default)")
    ep.add_argument("--no-resume", action="store_true",
                    help="re-execute every cell, shadowing stored records")
    ep.add_argument("--smoke", action="store_true",
                    help="CI gate: run a built-in tiny 2-engine x 2-frontier "
                         "x 1-suite grid into a scratch store (unless --store "
                         "is passed explicitly), assert the manifest/results "
                         "schema, then resume and assert zero recomputed "
                         "cells and bit-identical live verification")
    ep = esub.add_parser("resume", help="continue an interrupted run by id")
    exp_common(ep)
    ep.add_argument("run_id")
    ep.add_argument("--workers", type=int, default=0)
    ep = esub.add_parser("report", help="regenerate report.md from the store")
    exp_common(ep)
    ep.add_argument("run_id")
    ep.add_argument("--verify", action="store_true",
                    help="re-run every stored cell live and assert virtual "
                         "cycles/seconds, nodes and optima bit-identical")
    ep.add_argument("--max-cells", type=int, default=None,
                    help="with --verify: cap the number of re-executed cells")
    ep = esub.add_parser("diff", help="compare two runs' cells over the SQLite index")
    exp_common(ep)
    ep.add_argument("run_a")
    ep.add_argument("run_b")
    ep = esub.add_parser("index", help="rebuild the cross-run SQLite index offline")
    exp_common(ep)
    ep = esub.add_parser("list", help="list runs in the store")
    exp_common(ep)

    p = sub.add_parser("bench", help="micro-benchmark the substrate hot paths")
    p.add_argument("action", nargs="?", default="run", choices=("run",),
                   help="'run' (the default) times the hot-path cases")
    p.add_argument("--out", default="BENCH_micro.json",
                   help="artifact path (default: BENCH_micro.json; schema in "
                        "benchmarks/README.md)")
    p.add_argument("--repeats", type=int, default=5, help="timing samples per case")
    p.add_argument("--target-ms", type=float, default=50.0,
                   help="approximate duration of one timing sample")
    p.add_argument("--smoke", action="store_true",
                   help="CI mode: run the pytest-benchmark suite once under "
                        "--benchmark-disable as a correctness check, time with few "
                        "cheap repeats, and assert the artifact schema")
    p.add_argument("--kernels", default=None,
                   help="force a KERNELS backend for the "
                        "dispatcher-driven cases (default: auto); the "
                        "resolved backend is recorded per case in the "
                        "artifact's provenance")
    return parser


def _print_comms(comms) -> None:
    """Render a parallel engine's ``comms`` counter dict for --stats."""
    if not comms:
        print("comms: not reported by this engine")
        return
    totals = comms.get("totals", {})
    print("comms totals: " + "  ".join(
        f"{key}={value:g}" for key, value in sorted(totals.items())))
    for wid, counters in sorted(comms.get("per_worker", {}).items()):
        print(f"  worker {wid}: " + "  ".join(
            f"{key}={value:g}" for key, value in sorted(counters.items())))


def _print_cache_stats(cache) -> None:
    """Render one solve's cache counters for --stats."""
    if cache is None:
        print("cache: off")
        return
    s = cache.session
    hits = s["hits_exact"] + s["hits_iso"] + s["hits_derived"]
    print(f"cache: {hits} hits (exact={s['hits_exact']} iso={s['hits_iso']} "
          f"derived={s['hits_derived']})  misses={s['misses']}  "
          f"escalations={s['escalations']}  warm_starts={s['warm_starts']}  "
          f"read={s['bytes_read']}B written={s['bytes_written']}B  "
          f"[{cache.root}]")


def _cmd_cache(args: argparse.Namespace) -> int:
    from .cache.store import CacheStore

    root = args.store or os.environ.get("REPRO_CACHE") or ".repro-cache"
    store = CacheStore(root)
    if args.cache_command == "ls":
        rows = store.ls()
        if not rows:
            print(f"{root}: empty")
            return 0
        print(f"{'key':<14} {'form':<5} {'k':>4} {'n':>6} {'m':>7} "
              f"{'status':<16} {'opt':>5} {'iso':<4} {'hits':>4} {'bytes':>8}")
        for row in rows:
            print(f"{row['key']:<14} {row['formulation']:<5} "
                  f"{'-' if row['k'] is None else row['k']:>4} "
                  f"{row['n']:>6} {row['m']:>7} {row['status']:<16} "
                  f"{'-' if row['optimum'] is None else row['optimum']:>5} "
                  f"{'yes' if row['individualized'] else 'no':<4} "
                  f"{row['hits']:>4} {row['nbytes']:>8}")
        return 0
    if args.cache_command == "stats":
        stats = store.stats()
        by_status = "  ".join(f"{k}={v}" for k, v in
                              sorted(stats["by_status"].items())) or "none"
        print(f"{stats['root']}: {stats['entries']} entries, "
              f"{stats['bytes']} bytes, {stats['hits']} lifetime hits")
        print(f"by status: {by_status}")
        return 0
    if args.cache_command == "gc":
        max_age_s = (None if args.max_age_days is None
                     else args.max_age_days * 86400.0)
        removed = store.gc(max_bytes=args.max_bytes, max_age_s=max_age_s)
        print(f"{root}: evicted {removed} entries")
        return 0
    if args.cache_command == "clear":
        removed = store.clear()
        print(f"{root}: cleared {removed} entries")
        return 0
    raise AssertionError(
        f"unhandled cache command {args.cache_command!r}")  # pragma: no cover


def _print_supervision(result) -> None:
    """Render fault-supervision events for --stats (the pool reports
    respawn accounting too; the simulated engines report none)."""
    events = result.supervision or {}
    shown = [(k, v) for k, v in sorted(events.items()) if v]
    if shown:
        print("supervision: " + "  ".join(f"{k}={v:g}" for k, v in shown))
    else:
        print("supervision: clean run (no faults, respawns, or drains)")


#: The built-in ``experiment run --smoke`` grid: 2 engines x 2 frontiers
#: x 2 bounds x 1 suite instance at tiny scale — small enough for CI,
#: wide enough to exercise the frontier axis, the bound axis, the engine
#: axis and the PVC k resolution.
SMOKE_SPEC = {
    "name": "ci-smoke",
    "scale": "tiny",
    "device": "TinySim",
    "instances": ["p_hat_300_1"],
    "engines": ["sequential", "hybrid"],
    "frontiers": ["lifo", "best-first"],
    "bounds": ["greedy", "matching"],
    "instance_types": ["mvc", "pvc_k"],
    "repeats": 1,
    "virtual_budget_s": 0.01,
    "seq_node_guard": 4000,
    "engine_node_guard": 2500,
    "stackonly_depths": [4],
    "hybrid_capacities": [256],
    "hybrid_fractions": [0.25],
}


def _report_interrupt(run_id: Optional[str], store_arg: Optional[str]) -> int:
    """Tell an interrupted ``experiment run`` user how to pick it back up.

    Completed cells are already durable in ``results.jsonl`` and the
    manifest is marked ``interrupted`` by the runner before the
    ``KeyboardInterrupt`` reaches us; all that is left is to print the
    exact resume command.  Returns 130 (the conventional SIGINT status).
    """
    print()  # move past the echoed ^C
    if run_id is None:
        print("interrupted before a run directory was opened; re-run the "
              "same command to start over")
        return 130
    suffix = f" --store {store_arg}" if store_arg else ""
    print(f"interrupted — completed cells are saved; continue with:\n"
          f"  python -m repro experiment resume {run_id}{suffix}")
    return 130


def _cmd_experiment(args: argparse.Namespace, start: float) -> int:
    from .experiment import (
        RunStore,
        diff_runs,
        load_spec,
        render_diff,
        run_experiment,
        validate_manifest,
        verify_run_against_live,
        write_report,
    )

    echo = print if getattr(args, "verbose", False) else None
    cmd = args.experiment_command

    if cmd == "run" and args.smoke:
        import tempfile

        root = args.store or tempfile.mkdtemp(prefix="repro-experiment-smoke-")
        store = RunStore(root)
        spec = load_spec(dict(SMOKE_SPEC))
        first = run_experiment(spec, store, n_workers=args.workers, echo=echo)
        validate_manifest(first.run.manifest)
        records = first.run.completed()
        if len(records) != first.planned or first.executed != first.planned:
            print(f"experiment smoke FAILED: planned {first.planned} cells, "
                  f"executed {first.executed}, stored {len(records)}")
            return 1
        second = run_experiment(spec, store, n_workers=args.workers, echo=echo)
        if second.executed != 0 or second.skipped != first.planned:
            print(f"experiment smoke FAILED: resume recomputed "
                  f"{second.executed} of {first.planned} completed cells")
            return 1
        verified = verify_run_against_live(store, first.run.run_id)
        write_report(store, first.run.run_id)
        print(f"experiment smoke OK: {first.planned} cells, schema valid, "
              f"resume recomputed 0, {verified} cells verified bit-identical "
              f"against live engines (store: {root})")
        print(f"[{time.perf_counter() - start:.1f}s wall]")
        return 0

    store = RunStore(args.store or "experiments")

    if cmd == "run":
        if args.spec is None:
            print("error: experiment run needs --spec SPEC.json (or --smoke)")
            return 2
        try:
            spec = load_spec(args.spec)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}")
            return 2
        try:
            outcome = run_experiment(spec, store, n_workers=args.workers,
                                     resume=not args.no_resume, echo=echo)
        except KeyboardInterrupt as exc:
            return _report_interrupt(getattr(exc, "run_id", None), args.store)
        write_report(store, outcome.run.run_id)
        print(f"{outcome.run.run_id}: {outcome.planned} cells planned, "
              f"{outcome.executed} executed, {outcome.skipped} skipped "
              f"(fingerprint-matched)\nartifacts: {outcome.run.directory}")
        print(f"[{time.perf_counter() - start:.1f}s wall]")
        return 0

    if cmd == "resume":
        try:
            run = store.get_run(args.run_id)
            spec = load_spec(dict(run.manifest["spec"]))
        except KeyError as exc:
            print(f"error: {exc.args[0]}")
            return 2
        except ValueError:
            print(f"error: run {args.run_id!r} was not created by 'repro "
                  f"experiment run'; regenerate it with the preset, e.g. "
                  f"'repro table1 --store DIR'")
            return 2
        try:
            outcome = run_experiment(spec, store, n_workers=args.workers,
                                     run_id=args.run_id, echo=echo)
        except KeyboardInterrupt:
            return _report_interrupt(args.run_id, args.store)
        write_report(store, args.run_id)
        print(f"{args.run_id}: resumed — {outcome.executed} executed, "
              f"{outcome.skipped} skipped (already complete)")
        print(f"[{time.perf_counter() - start:.1f}s wall]")
        return 0

    if cmd == "report":
        try:
            text = write_report(store, args.run_id)
        except KeyError as exc:
            print(f"error: {exc.args[0]}")
            return 2
        except ValueError as exc:
            print(f"error: {exc}")
            return 2
        print(text)
        if args.verify:
            verified = verify_run_against_live(store, args.run_id,
                                               max_cells=args.max_cells)
            print(f"verified: {verified} cells bit-identical to live "
                  f"engine invocation")
        print(f"[{time.perf_counter() - start:.1f}s wall]")
        return 0

    if cmd == "diff":
        try:
            print(render_diff(diff_runs(store, args.run_a, args.run_b)))
        except KeyError as exc:
            print(f"error: {exc.args[0]}")
            return 2
        print(f"[{time.perf_counter() - start:.1f}s wall]")
        return 0

    if cmd == "index":
        counts = store.reindex()
        for run_id, count in sorted(counts.items()):
            print(f"{run_id:40s} {count:6d} cells")
        print(f"indexed {len(counts)} runs -> {store.index_path}")
        return 0

    if cmd == "list":
        runs = store.runs()
        if not runs:
            print(f"(no runs under {store.root})")
            return 0
        print(f"{'run_id':40s} {'status':12s} {'cells':>6s}  name")
        for run in runs:
            manifest = run.manifest
            print(f"{run.run_id:40s} {str(manifest['status']):12s} "
                  f"{len(run.completed()):6d}  {manifest['name']}")
        return 0

    raise AssertionError(f"unhandled experiment command {cmd!r}")  # pragma: no cover


def _cmd_preset(args: argparse.Namespace, start: float) -> int:
    """``repro table1 … ablation``: run the preset's spec, print its section."""
    from .experiment.presets import preset_spec, run_preset
    from .experiment.store import RunStore

    spec = preset_spec(args.command, args.scale, quick=args.quick, budget=args.budget)
    store_root = getattr(args, "store", None)
    store = None if store_root is None else RunStore(store_root)
    text, outcome = run_preset(args.command, spec, store=store,
                               echo=print if args.verbose else None)
    print(text)
    if store is not None:
        print(f"\nrun {outcome.run.run_id}: {outcome.executed} executed, "
              f"{outcome.skipped} skipped -> {outcome.run.directory}")
    print(f"\n[{time.perf_counter() - start:.1f}s wall]")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    """``repro obs view|export`` — offline telemetry artifact tooling."""
    import json

    from .obs import breakdown, metrics, trace

    if args.obs_command == "view":
        try:
            tracer = trace.load_chrome(args.trace)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read trace {args.trace!r}: {exc}")
            return 2
        print(trace.render_wall_gantt(tracer.spans, width=args.width,
                                      clock=tracer.clock))
        by_kind = breakdown.wall_by_kind_from_spans(tracer.spans)
        if by_kind:
            total = sum(by_kind.values())
            scale, unit = (1e3, "ms") if tracer.clock == "wall" else (1.0, "cycles")
            print(f"\n{tracer.clock} attribution (span self-time):")
            width = max(10, *map(len, by_kind))
            for kind, val in sorted(by_kind.items(), key=lambda kv: -kv[1]):
                print(f"  {kind:{width}s} {val * scale:10.3f} {unit} "
                      f"{val / total * 100:5.1f}%")
            fractions = breakdown.group_fractions(by_kind)
            print("activity groups: " + "  ".join(
                f"{title}={frac * 100:.1f}%"
                for title, frac in fractions.items()))
        return 0

    if args.obs_command == "export":
        if (args.trace is None) == (args.metrics is None):
            print("error: obs export wants exactly one of --trace / --metrics")
            return 2
        if args.metrics is not None:
            try:
                with open(args.metrics) as fh:
                    snap = json.load(fh)
                text = metrics.prometheus_from_snapshot(snap)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                print(f"error: cannot convert {args.metrics!r}: {exc}")
                return 2
        else:
            try:
                tracer = trace.load_chrome(args.trace)
            except (OSError, ValueError) as exc:
                print(f"error: cannot read trace {args.trace!r}: {exc}")
                return 2
            text = json.dumps(trace.to_chrome(tracer)) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
            print(f"wrote {args.out}")
        else:
            sys.stdout.write(text)
        return 0

    raise AssertionError(
        f"unhandled obs command {args.obs_command!r}")  # pragma: no cover


def _known(what: str, name: Optional[str], legal: List[str]) -> bool:
    """Whether ``name`` (None: not given) is legal; if not, say so in one line."""
    if name is None or name in legal:
        return True
    print(f"error: unknown {what} {name!r}; choose from: {', '.join(legal)}")
    return False


def main(argv: Optional[List[str]] = None) -> int:
    try:
        code = _main(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed early (``| head``): exit quietly, with stdout
        # pointed at /dev/null so the interpreter's last flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _main(argv: Optional[List[str]]) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    if args.command in ("solve", "tree"):
        try:
            inst = suite_instance(args.graph, args.scale)
        except KeyError as exc:
            print(f"error: {exc.args[0]}")
            return 2

    if args.command in ("experiment", *_PRESETS):
        from .experiment.store import StoreUnavailable

        try:
            if args.command == "experiment":
                return _cmd_experiment(args, start)
            return _cmd_preset(args, start)
        except StoreUnavailable as exc:
            print(f"error: {exc}")
            return 2

    if args.command == "obs":
        return _cmd_obs(args)

    if args.command == "cache":
        return _cmd_cache(args)

    if args.command == "serve-worker":
        from .net.distributed import run_worker_client
        from .net.transport import TransportClosed

        host, sep, port_s = args.connect.rpartition(":")
        if not sep or not host or not port_s.isdigit():
            print(f"error: --connect wants HOST:PORT, got {args.connect!r}")
            return 2
        try:
            run_worker_client(host, int(port_s), salt=args.salt)
        except (TransportClosed, ConnectionError, TimeoutError, OSError) as exc:
            print(f"error: coordinator unreachable or gone: {exc}")
            return 2
        print(f"[{time.perf_counter() - start:.1f}s wall]")
        return 0

    if args.command == "bench":
        from .analysis.microbench import (
            render_microbench,
            run_microbench,
            validate_artifact,
            write_artifact,
        )
        from .core.kernel_backends import KERNELS

        if not _known("kernels", args.kernels, sorted(KERNELS)):
            return 2
        out = args.out
        out_dir = os.path.dirname(os.path.abspath(out))
        if not os.path.isdir(out_dir):
            print(f"error: output directory does not exist: {out_dir}")
            return 2

        repeats, target_s = args.repeats, args.target_ms / 1e3
        if args.smoke:
            import subprocess
            import sys as _sys
            from pathlib import Path

            repeats, target_s = min(repeats, 2), min(target_s, 2e-3)
            bench_file = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_micro.py"
            if not bench_file.exists():
                print("error: --smoke needs the benchmarks/ directory of a source "
                      f"checkout (not found at {bench_file.parent})")
                return 2
            smoke = subprocess.run(
                [_sys.executable, "-m", "pytest", str(bench_file),
                 "-q", "-o", "python_functions=bench_*", "--benchmark-disable"],
            )
            if smoke.returncode != 0:
                print("benchmark smoke check FAILED; artifact not written")
                return smoke.returncode
        payload = run_microbench(repeats=repeats, target_s=target_s,
                                 kernels=args.kernels)
        if args.smoke:
            validate_artifact(payload)
            print("artifact schema OK")
        write_artifact(payload, out)
        print(render_microbench(payload))
        print(f"\nwrote {out}")
        print(f"[{time.perf_counter() - start:.1f}s wall]")
        return 0

    if args.command == "memory":
        from .analysis.memory import memory_report, render_memory_table
        from .sim.device import SMALL_SIM

        reports = [memory_report(inst.graph(), SMALL_SIM) for inst in paper_suite(args.scale)]
        print(render_memory_table(reports))
        print(f"\n[{time.perf_counter() - start:.1f}s wall]")
        return 0

    if args.command == "tree":
        from .analysis.tree_shape import measure_tree_shape, render_tree_shape

        shape = measure_tree_shape(inst.graph(), node_budget=args.node_budget)
        print(render_tree_shape(shape, args.graph))
        print(f"\n[{time.perf_counter() - start:.1f}s wall]")
        return 0

    if args.command == "suite":
        print(f"{'name':22s} {'category':12s} {'|V|':>5s} {'|E|':>7s} {'avg deg':>8s}  stands in for")
        for inst in paper_suite(args.scale):
            g = inst.graph()
            print(f"{inst.name:22s} {inst.category:12s} {g.n:5d} {g.m:7d} "
                  f"{g.average_degree():8.1f}  {inst.paper_graph}")
        return 0

    if args.command == "solve":
        from contextlib import ExitStack

        from . import faults
        from .core.bounds import BOUNDS
        from .core.frontier import FRONTIERS
        from .core.kernel_backends import KERNELS
        from .core.solver import ENGINES, solve_mvc, solve_pvc

        engine = args.engine or ("hybrid" if args.resume_from is None else None)
        if not (_known("engine", engine, list(ENGINES))
                and _known("frontier", args.frontier, sorted(FRONTIERS))
                and _known("bound", args.bound, sorted(BOUNDS))
                and _known("kernels", args.kernels, sorted(KERNELS))):
            return 2
        if args.frontier is not None and engine != "sequential":
            print(f"error: --frontier applies to --engine sequential only "
                  f"(engine {engine!r} has a fixed worklist discipline)")
            return 2
        if args.workers is not None and engine not in POOL_ENGINES:
            print(f"error: --workers applies to the parallel engines "
                  f"({', '.join(POOL_ENGINES)}); engine {engine!r} is "
                  f"single-worker")
            return 2
        if args.hosts is not None and engine != "distributed":
            print(f"error: --hosts applies to --engine distributed only "
                  f"(engine {engine!r} takes no extra hosts)")
            return 2
        par_opt = {}
        if args.workers is not None:
            par_opt["n_workers"] = args.workers
        if args.hosts is not None:
            par_opt["hosts"] = args.hosts
        graph = inst.graph()

        if args.trace is not None or args.metrics_out is not None:
            from . import obs

            obs.arm(with_trace=args.trace is not None,
                    with_metrics=args.metrics_out is not None)

        def finish_obs() -> None:
            """Write the requested telemetry artifacts and disarm."""
            if args.trace is None and args.metrics_out is None:
                return
            from . import obs

            if args.metrics_out is not None:
                obs.metrics.dump_json(args.metrics_out)
                print(f"metrics snapshot -> {args.metrics_out}")
            tracer = obs.disarm()
            if args.trace is not None and tracer is not None:
                obs.trace.dump_chrome(args.trace, tracer)
                pids = {s.pid for s in tracer.spans}
                print(f"trace: {len(tracer.spans)} spans from "
                      f"{len(pids)} process(es) -> {args.trace}")

        with ExitStack() as stack:
            if args.inject is not None:
                try:
                    stack.enter_context(
                        faults.injected(args.inject, seed=args.inject_seed))
                except ValueError as exc:
                    print(f"error: {exc}")
                    return 2

            cache_obj = None
            if args.cache is not None:
                from .cache import resolve_cache

                cache_obj = resolve_cache(args.cache)

            options = {} if args.frontier is None else {"frontier": args.frontier}
            if args.bound is not None:
                options["bound"] = args.bound
            if args.kernels is not None:
                options["kernels"] = args.kernels
            if cache_obj is not None:
                options["cache"] = cache_obj
            options.update(par_opt)
            if args.resume_from is not None:
                from .core.anytime import resume_from
                from .core.outcome import Checkpoint

                options.pop("frontier", None)
                options.pop("bound", None)
                try:
                    out = resume_from(Checkpoint.load(args.resume_from), graph,
                                      engine=engine, node_budget=args.node_budget,
                                      deadline=args.deadline, **options)
                except (ValueError, OSError) as exc:
                    print(f"error: {exc}")
                    return 2
            elif args.k is None:
                out = solve_mvc(graph, engine=engine, node_budget=args.node_budget,
                                deadline=args.deadline, **options)
            else:
                out = solve_pvc(graph, args.k, engine=engine,
                                node_budget=args.node_budget,
                                deadline=args.deadline, **options)
            if (args.deadline is not None or args.checkpoint is not None
                    or args.resume_from is not None):
                best = ("none" if out.optimum is None
                        else f"{out.optimum} cover" if out.formulation == "mvc"
                        else f"{out.optimum} cover (k={out.k})")
                print(f"{args.graph}: status={out.status} engine={out.engine} "
                      f"best={best} lower_bound={out.lower_bound} "
                      f"nodes={out.nodes_visited}")
                if out.checkpoint is not None and args.checkpoint is not None:
                    out.checkpoint.save(args.checkpoint)
                    print(f"checkpoint: {len(out.checkpoint.items)} frontier "
                          f"states -> {args.checkpoint}\n"
                          f"resume: python -m repro solve --graph {args.graph}"
                          f" --scale {args.scale} --resume-from {args.checkpoint}")
                supervision = out.supervision or {}
                recovered = int(supervision.get("recovered", 0))
                lost = int(supervision.get("workers_lost", 0))
                if recovered or lost:
                    print(f"faults: recovered {recovered} injected step "
                          f"failures, lost {lost} workers")
                if args.stats:
                    _print_comms(out.comms)
                    if cache_obj is not None:
                        _print_cache_stats(cache_obj)
                finish_obs()
                print(f"[{time.perf_counter() - start:.1f}s wall]")
                return 0 if out.complete else 3

            if args.k is None:
                print(f"{args.graph}: minimum vertex cover size = {out.optimum}"
                      f"{' (budget exceeded, best found)' if out.timed_out else ''}")
            else:
                print(f"{args.graph}: cover of size <= {args.k} "
                      f"{'EXISTS (found ' + str(out.optimum) + ')' if out.feasible else 'does not exist' if out.feasible is False else 'undetermined (budget)'}")
            if args.stats:
                _print_comms(out.comms)
                _print_supervision(out)
                if cache_obj is not None:
                    _print_cache_stats(cache_obj)
            finish_obs()
        print(f"[{time.perf_counter() - start:.1f}s wall]")
        return 0

    if args.command == "sweeps":
        from .analysis.experiments import run_sweeps
        from .experiment.presets import preset_spec

        spec = preset_spec("table1", args.scale, quick=args.quick, budget=args.budget)
        for sweep in run_sweeps(spec, instance=args.instance):
            print(sweep.render())
            print()
    print(f"\n[{time.perf_counter() - start:.1f}s wall]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

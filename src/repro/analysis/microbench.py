"""Wall-clock micro-benchmarks of the substrate hot paths (``repro bench``).

The pytest-benchmark suite in ``benchmarks/`` gives statistically careful
numbers for interactive work; this module is the *artifact* producer: one
command that times the named hot-path cases and writes a machine-readable
``BENCH_micro.json`` with provenance (git SHA, seed, library versions), so
every PR can regenerate the perf trajectory and diff it against the
committed baseline.  See ``benchmarks/README.md`` for the schema.

Cases deliberately mirror ``benchmarks/bench_micro.py`` where the
acceptance numbers live (``reduce_serial``, ``sequential_solver_small``)
and add kernel-layer cases that isolate the fast/reference split.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "CALIBRATION_SCHEMA_VERSION",
    "BenchCase",
    "bench_cases",
    "run_microbench",
    "write_artifact",
    "validate_artifact",
    "validate_calibration",
    "calibrate_kernels",
    "calibrate_scalar_cutoffs",
    "calibrate_branch_batch_cutoff",
    "load_kernel_calibration",
    "load_scalar_calibration",
    "maybe_autoload_calibration",
]

#: Bump when the JSON layout changes (documented in benchmarks/README.md).
BENCH_SCHEMA_VERSION = 1

#: Schema of the ``repro bench calibrate`` artifact.  v2 replaced the
#: two scalar cutoffs with a per-size-band backend winner table for the
#: ``KERNELS`` registry's ``auto`` dispatcher; v1 artifacts are refused
#: loudly by :func:`load_kernel_calibration`.
CALIBRATION_SCHEMA_VERSION = 2

#: ``kind`` tag of a v2 artifact (v1 used :data:`CALIBRATION_V1_KIND`).
CALIBRATION_KIND = "repro-vc-kernel-calibration"
CALIBRATION_V1_KIND = "repro-vc-scalar-calibration"

#: Seeds used by the benchmark graphs; recorded in the artifact.
BENCH_SEEDS = {"sparse_gnp": 78, "phat_solver": 5, "phat_graph": 77,
               "greedy_gnp": 21, "ingest_relabel": 500}

#: Seed for the calibration ladder graphs.
CALIBRATION_SEED = 1234


@dataclass
class BenchCase:
    """One timed hot-path case: a zero-arg callable, pre-warmed inputs.

    ``backend`` records which ``KERNELS`` backend the case's dispatch
    resolves to (``auto:scalar`` style for the auto dispatcher), or
    ``None`` for cases that never touch the kernel-backend layer; it is
    copied into the artifact's provenance block.
    """

    name: str
    fn: Callable[[], object]
    description: str
    backend: Optional[str] = None


def bench_cases(kernels: Optional[str] = None) -> List[BenchCase]:
    """Build the standard case list (imports deferred: keep CLI start fast).

    ``kernels`` (a ``KERNELS`` registry name, default the process default)
    forces the backend for every case that dispatches through the
    kernel-backend layer; the forced/resolved per-case backend is
    recorded on each :class:`BenchCase`.
    """
    from ..core.formulation import BestBound, MVCFormulation
    from ..core.greedy import greedy_cover
    from ..core.kernel_backends import resolve_kernels
    from ..core.kernels import apply_reductions_fast
    from ..core.parallel_reductions import apply_reductions_parallel
    from ..core.reductions import apply_reductions_reference
    from ..core.sequential import solve_mvc_sequential
    from ..graph.csr import CSRGraph
    from ..graph.degree_array import (
        Workspace,
        fresh_state,
        remove_neighbors_into_cover,
        remove_vertices_into_cover,
    )
    from ..graph.generators.phat import phat_complement
    from ..graph.generators.random_graphs import gnp
    from ..graph.generators.suites import suite_instance

    backend = resolve_kernels(kernels)
    sparse = gnp(400, 0.01, seed=BENCH_SEEDS["sparse_gnp"])
    dense = phat_complement(100, 2, seed=BENCH_SEEDS["phat_graph"])
    solver_graph = phat_complement(50, 2, seed=BENCH_SEEDS["phat_solver"])
    # Above the scalar cutoff: exercises the worklist-driven greedy pass.
    greedy_graph = gnp(4096, 8.0 / 4095.0, seed=BENCH_SEEDS["greedy_gnp"])
    ws_sparse = Workspace.for_graph(sparse)
    ws_dense = Workspace.for_graph(dense)
    ws_greedy = Workspace.for_graph(greedy_graph)
    edges = list(dense.edges())
    ingest = suite_instance("p_hat_500_3").graph()
    ingest_edges = np.random.default_rng(BENCH_SEEDS["ingest_relabel"]).permutation(
        ingest.n)[ingest.edge_array().astype(np.int64)]
    batch = np.arange(0, 40, 2)

    def form(graph):
        return MVCFormulation(BestBound(size=graph.n + 1))

    form_sparse = form(sparse)

    def reduce_fast():
        state = fresh_state(sparse)
        apply_reductions_fast(sparse, state, form_sparse, ws_sparse,
                              kernels=backend)

    def reduce_reference():
        state = fresh_state(sparse)
        apply_reductions_reference(sparse, state, form_sparse, ws_sparse)

    def reduce_parallel():
        state = fresh_state(sparse)
        apply_reductions_parallel(sparse, state, form_sparse, ws_sparse)

    def solver_small():
        return solve_mvc_sequential(solver_graph, kernels=backend)

    def csr_from_edges():
        return CSRGraph.from_edges(dense.n, edges, validate=False)

    def csr_from_edges_validated():
        return CSRGraph.from_edges(ingest.n, ingest_edges)

    def batch_removal():
        state = fresh_state(dense)
        remove_vertices_into_cover(dense, state.deg, batch, ws_dense)

    def remove_neighbors_hub():
        state = fresh_state(dense)
        remove_neighbors_into_cover(dense, state.deg, 0, ws_dense)

    def state_copy_pooled():
        state = fresh_state(dense)
        clone = state.copy(ws_dense)
        ws_dense.release_deg(clone.deg)

    def greedy_large():
        return greedy_cover(greedy_graph, ws_greedy, kernels=backend)

    return [
        BenchCase("reduce_serial", reduce_fast,
                  "apply_reductions (fast kernels) to fixpoint on gnp(400, 0.01)",
                  backend=backend.resolved_name(sparse.n, sparse.m)),
        BenchCase("reduce_reference", reduce_reference,
                  "reference serial rules on the same graph (the pre-kernel path)"),
        BenchCase("reduce_parallel_semantics", reduce_parallel,
                  "Section IV-D batch rules on the same graph"),
        BenchCase("sequential_solver_small", solver_small,
                  "full MVC solve of phat_complement(50, 2)",
                  backend=backend.resolved_name(solver_graph.n, solver_graph.m)),
        BenchCase("csr_from_edges", csr_from_edges,
                  "vectorized CSR construction of phat_complement(100, 2)"),
        BenchCase("csr_from_edges_validated", csr_from_edges_validated,
                  "validated CSR ingest of a relabelled p_hat_500_3 edge array"),
        BenchCase("batch_removal", batch_removal,
                  "20-vertex batch removal into the cover"),
        BenchCase("remove_neighbors", remove_neighbors_hub,
                  "hub neighbourhood removal on phat_complement(100, 2): the "
                  "fused single-gather branch kernel"),
        BenchCase("state_copy_pooled", state_copy_pooled,
                  "pooled VCState.copy via the workspace buffer pool"),
        BenchCase("greedy_bound_large", greedy_large,
                  "greedy upper bound on gnp(4096, ~deg 8): the vectorized "
                  "worklist-driven pick loop",
                  backend=backend.resolved_name(greedy_graph.n, greedy_graph.m)),
    ]


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=5,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def _time_case(fn: Callable[[], object], repeats: int, target_s: float) -> Dict[str, float]:
    """Best/median seconds per call over ``repeats`` samples.

    The loop count is calibrated so one sample lasts roughly ``target_s``,
    which keeps tiny cases out of timer-resolution noise.
    """
    repeats = max(1, repeats)
    fn()  # warm caches (adjacency tuples, edge keys, buffer pools)
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-7)
    loops = max(1, int(target_s / once))
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(loops):
            fn()
        samples.append((time.perf_counter() - t0) / loops)
    samples.sort()
    return {
        "best_s": samples[0],
        "median_s": samples[len(samples) // 2],
        "loops": float(loops),
        "repeats": float(repeats),
    }


def run_microbench(
    repeats: int = 5,
    target_s: float = 0.05,
    cases: Optional[List[BenchCase]] = None,
    kernels: Optional[str] = None,
) -> Dict[str, object]:
    """Time every case and return the artifact dict (see the schema doc).

    ``kernels`` forces a ``KERNELS`` backend for the dispatcher-driven
    cases; the backend each such case actually resolved to is recorded in
    ``provenance["kernel_backends"]``.
    """
    if cases is None:
        cases = bench_cases(kernels)
    results: Dict[str, Dict[str, object]] = {}
    for case in cases:
        timing = _time_case(case.fn, repeats, target_s)
        results[case.name] = {"description": case.description, **timing}
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "kind": "repro-vc-microbench",
        "results": results,
        "provenance": {
            "git_sha": _git_sha(),
            "seeds": dict(BENCH_SEEDS),
            "kernel_backends": {case.name: case.backend for case in cases
                                if case.backend is not None},
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "platform": platform.platform(),
            "timestamp_unix": time.time(),
        },
    }


def write_artifact(payload: Dict[str, object], path: str) -> None:
    """Write the benchmark artifact as stable, diffable JSON."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def render_microbench(payload: Dict[str, object]) -> str:
    """Human-readable table of one artifact."""
    lines = [f"{'case':28s} {'best':>12s} {'median':>12s}"]
    for name, res in sorted(payload["results"].items()):  # type: ignore[union-attr]
        best = float(res["best_s"]) * 1e6
        med = float(res["median_s"]) * 1e6
        lines.append(f"{name:28s} {best:10.1f}us {med:10.1f}us")
    return "\n".join(lines)


def validate_artifact(payload: Dict[str, object]) -> None:
    """Assert the microbench artifact matches the documented schema.

    Raises ``ValueError`` on any violation; the ``--smoke`` CI path runs
    this so perf-artifact regressions (dropped cases, renamed keys, wrong
    types) are caught without a full benchmark run.
    """
    def fail(msg: str) -> None:
        raise ValueError(f"BENCH_micro artifact schema violation: {msg}")

    if not isinstance(payload, dict):
        fail("payload is not an object")
    if payload.get("schema_version") != BENCH_SCHEMA_VERSION:
        fail(f"schema_version != {BENCH_SCHEMA_VERSION}")
    if payload.get("kind") != "repro-vc-microbench":
        fail("kind != 'repro-vc-microbench'")
    results = payload.get("results")
    if not isinstance(results, dict) or not results:
        fail("results missing or empty")
    for name, res in results.items():  # type: ignore[union-attr]
        if not isinstance(res, dict):
            fail(f"results[{name!r}] is not an object")
        for key in ("description", "best_s", "median_s", "loops", "repeats"):
            if key not in res:
                fail(f"results[{name!r}] missing {key!r}")
        for key in ("best_s", "median_s", "loops", "repeats"):
            val = res[key]
            if not isinstance(val, (int, float)) or val <= 0:
                fail(f"results[{name!r}][{key!r}] is not a positive number")
        if res["best_s"] > res["median_s"]:
            fail(f"results[{name!r}] best_s exceeds median_s")
    prov = payload.get("provenance")
    if not isinstance(prov, dict):
        fail("provenance missing")
    for key in ("git_sha", "seeds", "python", "numpy", "platform", "timestamp_unix"):
        if key not in prov:
            fail(f"provenance missing {key!r}")


# --------------------------------------------------------------------- #
# scalar/vectorized crossover calibration (``repro bench calibrate``)
# --------------------------------------------------------------------- #
#: Vertex-count ladder probed for the ``SCALAR_KERNEL_MAX_N`` crossover
#: (sparse graphs, average degree ~8) and edge-count ladder probed for
#: ``SCALAR_KERNEL_MAX_M`` (densifying a fixed mid-size graph).
CALIBRATION_N_LADDER = (128, 256, 512, 1024, 2048, 4096, 8192)
CALIBRATION_M_LADDER = (1 << 12, 1 << 13, 1 << 14, 1 << 15, 1 << 16, 1 << 17)
CALIBRATION_M_PROBE_N = 768

#: Pivot-neighbourhood sizes probed for the deferred-child batch handoff
#: (``BRANCH_BATCH_MIN_LIVE``): each point embeds a hub of exactly that
#: alive degree in background noise and times both deferred-child
#: constructions through the real branch step.
CALIBRATION_BRANCH_LIVE_LADDER = (8, 16, 24, 32, 48, 64, 96)

#: Sentinel installed when the batch path never wins on this machine
#: (the scalar loop stays unconditional; documented in the artifact).
BRANCH_BATCH_DISABLED = 1 << 30


def _time_cascade(make_state, run, repeats: int) -> float:
    """Median seconds of ``run(state)`` over fresh states (best of pairs)."""
    samples = []
    run(make_state())  # warm adjacency caches etc.
    for _ in range(max(2, repeats)):
        state = make_state()
        t0 = time.perf_counter()
        run(state)
        samples.append(time.perf_counter() - t0)
    samples.sort()
    return samples[len(samples) // 2]


def _branch_probe_graph(live: int, seed: int):
    """A hub vertex of alive degree exactly ``live`` amid gnp-ish noise.

    Vertex 0 is the pivot whose deferred child the probe constructs; the
    remaining vertices carry background edges so the batch kernel's
    segment gather sees realistic row lengths.
    """
    from ..graph.csr import CSRGraph

    n = max(2 * live, 96)
    rng = np.random.default_rng(seed)
    edges = {(0, i) for i in range(1, live + 1)}
    target_noise = 4 * n
    u = rng.integers(1, n, size=target_noise)
    v = rng.integers(1, n, size=target_noise)
    for a, b in zip(u.tolist(), v.tolist()):
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return CSRGraph.from_edges(n, sorted(edges), validate=False)


def calibrate_branch_batch_cutoff(
    repeats: int = 5,
    live_ladder: Optional[tuple] = None,
) -> Dict[str, object]:
    """Measure the deferred-child scalar/batch crossover by pivot degree.

    For each ladder point both deferred-child constructions run through
    the *real* branch step (:func:`repro.core.branching.expand_children`'s
    scalar path), toggled by ``BRANCH_BATCH_MIN_LIVE``; the calibrated
    cutoff is the smallest ladder degree from which the batch kernel wins
    at every larger point, or :data:`BRANCH_BATCH_DISABLED` when the
    scalar loop wins everywhere (the ROADMAP's measured outcome for the
    *general* batch path at n≈50 — the cheap kernel exists to beat it).
    The module globals are restored before returning; installation is the
    caller's decision.
    """
    from ..core import kernels
    from ..core.branching import _expand_children_scalar
    from ..graph.degree_array import Workspace, fresh_state

    if live_ladder is None:
        live_ladder = CALIBRATION_BRANCH_LIVE_LADDER

    saved = kernels.BRANCH_BATCH_MIN_LIVE
    samples = []
    try:
        for live in sorted(live_ladder):
            graph = _branch_probe_graph(int(live), CALIBRATION_SEED)
            ws = Workspace.for_graph(graph)
            parent = fresh_state(graph)
            graph.adjacency_tuples()  # warm the cache both paths share

            def construct() -> None:
                state = parent.copy(ws)
                deferred, continued = _expand_children_scalar(graph, state, 0, ws)
                ws.release_deg(deferred.deg)
                ws.release_deg(continued.deg)

            def timed() -> float:
                best = float("inf")
                loops = 32
                for _ in range(max(2, repeats)):
                    t0 = time.perf_counter()
                    for _ in range(loops):
                        construct()
                    best = min(best, (time.perf_counter() - t0) / loops)
                return best

            kernels.BRANCH_BATCH_MIN_LIVE = BRANCH_BATCH_DISABLED
            scalar_s = timed()
            kernels.BRANCH_BATCH_MIN_LIVE = 0
            batch_s = timed()
            samples.append({"live": int(live), "scalar_s": scalar_s,
                            "batch_s": batch_s})
    finally:
        kernels.BRANCH_BATCH_MIN_LIVE = saved

    min_live = BRANCH_BATCH_DISABLED
    # smallest ladder point from which the batch path wins monotonically
    for i, sample in enumerate(samples):
        if all(s["batch_s"] <= s["scalar_s"] for s in samples[i:]):
            min_live = sample["live"]
            break
    return {"branch_batch_min_live": min_live, "samples": samples}


def _sample_key(name: str) -> str:
    """Timing-sample key of a backend in calibration samples
    (``vectorized_s`` for numpy predates the registry; kept for
    render/diff stability)."""
    return "vectorized_s" if name == "numpy" else f"{name}_s"


def _measurable_backends() -> List[str]:
    """Concrete ``KERNELS`` backends worth timing on this host.

    Every registry name except the ``auto`` dispatcher, minus a
    ``native`` backend whose extension did not load — a degraded
    (fallback) backend would just re-measure ``scalar`` and could win its
    band, silently double-booking the scalar cascade.
    """
    from ..core import native
    from ..core.kernel_backends import KERNELS

    return [name for name in KERNELS
            if name != "auto" and (name != "native" or native.load() is not None)]


def calibrate_kernels(
    repeats: int = 5,
    n_ladder: Optional[tuple] = None,
    m_ladder: Optional[tuple] = None,
    branch_ladder: Optional[tuple] = None,
    apply: bool = True,
    quick: bool = False,
) -> Dict[str, object]:
    """Measure every concrete ``KERNELS`` backend and band the winners.

    For each n-ladder point every measurable backend's cascade runs to
    fixpoint on the same graph (all backends are proven bit-identical, so
    only time differs); the per-point winners collapse into the v2 band
    table ``[(max_n, backend), ...]`` that drives the ``auto``
    dispatcher.  The legacy scalar cutoffs (largest ladder values where
    the scalar path still wins — the uncalibrated dispatch rule and the
    knob ~20 existing tests monkeypatch) and the deferred-child
    branch-batch crossover (:func:`calibrate_branch_batch_cutoff`) are
    measured and recorded alongside.  With ``apply=True`` everything is
    installed immediately: band table into ``make_kernels("auto")``,
    cutoffs via :func:`repro.core.kernels.set_scalar_cutoffs` /
    ``set_branch_batch_cutoff``.

    Cross-node dirty seeding shifts these crossovers (seeded cascades do
    less per-call work, amplifying fixed NumPy call overhead), which is
    why they are measured rather than hand-tuned.
    """
    from ..core import kernels
    from ..core.formulation import BestBound, MVCFormulation
    from ..core.kernel_backends import make_kernels
    from ..graph.degree_array import Workspace, fresh_state
    from ..graph.generators.random_graphs import gnp

    if n_ladder is None:
        n_ladder = CALIBRATION_N_LADDER
    if m_ladder is None:
        m_ladder = CALIBRATION_M_LADDER
    backends = _measurable_backends()

    def probe(graph) -> Dict[str, object]:
        ws = Workspace.for_graph(graph)
        form = MVCFormulation(BestBound(size=graph.n + 1))
        sample: Dict[str, object] = {"n": graph.n, "m": graph.m}
        best_name, best_s = "numpy", float("inf")
        for name in backends:
            backend = make_kernels(name)
            seconds = _time_cascade(
                lambda: fresh_state(graph),
                lambda st, b=backend: b.reduce(graph, st, form, ws, None, None),
                repeats,
            )
            sample[_sample_key(name)] = seconds
            if seconds < best_s:
                best_name, best_s = name, seconds
        sample["winner"] = best_name
        return sample

    n_samples = []
    for n in sorted(n_ladder):
        graph = gnp(int(n), min(1.0, 8.0 / max(int(n) - 1, 1)), seed=CALIBRATION_SEED)
        n_samples.append(probe(graph))
    max_n = 0
    for sample in n_samples:  # largest ladder n where scalar still wins
        if sample["scalar_s"] <= sample["vectorized_s"]:
            max_n = max(max_n, int(sample["n"]))
    if max_n == 0:  # vectorized won everywhere: keep scalar for trivial graphs
        max_n = int(min(n_ladder))

    # Collapse per-point winners into bands: one entry per run of equal
    # winners, keyed by the run's largest ladder n.  Sizes beyond the
    # ladder fall through to the default backend (the top point's winner).
    bands: List[Dict[str, object]] = []
    for sample in n_samples:
        winner = str(sample["winner"])
        if bands and bands[-1]["backend"] == winner:
            bands[-1]["max_n"] = int(sample["n"])
        else:
            bands.append({"max_n": int(sample["n"]), "backend": winner})
    default_backend = str(n_samples[-1]["winner"]) if n_samples else "numpy"

    # The m-crossover is probed at a fixed mid-size n (clamping it to a
    # small measured max_n would make every ladder point past C(n,2)
    # saturate into the same complete graph and measure nothing).
    probe_n = CALIBRATION_M_PROBE_N
    m_cap = probe_n * (probe_n - 1) // 2
    m_samples = []
    for m in sorted(m_ladder):
        p = min(1.0, (2.0 * int(m)) / (probe_n * (probe_n - 1)))
        graph = gnp(probe_n, p, seed=CALIBRATION_SEED)
        m_samples.append(probe(graph))
        if int(m) >= m_cap:  # denser ladder points would repeat this graph
            break
    max_m = 0
    for sample in m_samples:
        if sample["scalar_s"] <= sample["vectorized_s"]:
            max_m = max(max_m, int(sample["m"]))
    if max_m == 0:
        max_m = int(min(m_ladder))
    # Edge cap for the band table: densest probed point where any
    # non-numpy backend still won (numpy handles everything denser).
    band_max_m = 0
    for sample in m_samples:
        if sample["winner"] != "numpy":
            band_max_m = max(band_max_m, int(sample["m"]))
    if band_max_m == 0:
        band_max_m = max_m

    branch = calibrate_branch_batch_cutoff(repeats=repeats, live_ladder=branch_ladder)

    payload: Dict[str, object] = {
        "schema_version": CALIBRATION_SCHEMA_VERSION,
        "kind": CALIBRATION_KIND,
        # quick runs probe a toy ladder; the tag makes them unloadable so a
        # CI artifact can never silently misroute the kernel dispatch
        "quick": bool(quick),
        "bands": bands,
        "max_m": band_max_m,
        "default_backend": default_backend,
        "backends_measured": list(backends),
        "scalar_kernel_max_n": max_n,
        "scalar_kernel_max_m": max_m,
        "branch_batch_min_live": branch["branch_batch_min_live"],
        "shipped_defaults": {
            "scalar_kernel_max_n": kernels.DEFAULT_SCALAR_KERNEL_MAX_N,
            "scalar_kernel_max_m": kernels.DEFAULT_SCALAR_KERNEL_MAX_M,
            "branch_batch_min_live": kernels.DEFAULT_BRANCH_BATCH_MIN_LIVE,
        },
        "samples": {"n_ladder": n_samples, "m_ladder": m_samples,
                    "branch_live_ladder": branch["samples"]},
        "provenance": {
            "git_sha": _git_sha(),
            "seed": CALIBRATION_SEED,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "platform": platform.platform(),
            "timestamp_unix": time.time(),
        },
    }
    if apply:
        _install_calibration(payload)
    return payload


#: Legacy name, kept so pre-v2 callers keep working; same v2 artifact.
calibrate_scalar_cutoffs = calibrate_kernels


def _install_calibration(payload: Dict[str, object]) -> None:
    """Install a v2 artifact's cutoffs and band table process-wide."""
    from ..core import kernels
    from ..core.kernel_backends import make_kernels

    kernels.set_scalar_cutoffs(int(payload["scalar_kernel_max_n"]),
                               int(payload["scalar_kernel_max_m"]))
    kernels.set_branch_batch_cutoff(max(2, int(payload["branch_batch_min_live"])))
    make_kernels("auto").install_calibration(
        [(int(b["max_n"]), str(b["backend"])) for b in payload["bands"]],
        int(payload["max_m"]),
        str(payload.get("default_backend", "numpy")),
    )


def load_kernel_calibration(path: str, apply: bool = True) -> Dict[str, object]:
    """Read a persisted calibration artifact; optionally install it.

    Only schema-v2 (:data:`CALIBRATION_KIND`) artifacts load.  A v1
    scalar-calibration artifact — or any artifact claiming
    ``schema_version`` 1 — is refused loudly: it has no band table, and
    silently installing only its cutoffs would leave the ``auto``
    dispatcher uncalibrated while claiming otherwise.  ``--quick``
    (toy-ladder) artifacts are refused for the same loudness reason.
    """
    with open(path) as fh:
        payload = json.load(fh)
    kind = payload.get("kind")
    if kind == CALIBRATION_V1_KIND or payload.get("schema_version") == 1:
        raise ValueError(
            f"{path} is a schema-v1 scalar-calibration artifact; the KERNELS "
            "band dispatch needs the v2 band table — regenerate it with a "
            "full 'repro bench calibrate'"
        )
    if kind != CALIBRATION_KIND:
        raise ValueError(f"{path} is not a kernel-calibration artifact")
    if payload.get("quick"):
        raise ValueError(
            f"{path} was produced by a --quick (toy-ladder) run; its cutoffs are "
            "not representative — regenerate with a full 'repro bench calibrate'"
        )
    if payload.get("schema_version") != CALIBRATION_SCHEMA_VERSION:
        raise ValueError(
            f"{path} has calibration schema_version "
            f"{payload.get('schema_version')!r}; this build reads "
            f"{CALIBRATION_SCHEMA_VERSION} — regenerate with "
            "'repro bench calibrate'"
        )
    if apply:
        _install_calibration(payload)
    return payload


#: Legacy name, kept for pre-v2 callers; refuses v1 artifacts like the new
#: name does (that loudness is the point of the rename).
load_scalar_calibration = load_kernel_calibration


#: Environment flag controlling import-time calibration auto-load (see
#: :func:`maybe_autoload_calibration`).
CALIBRATION_ENV_VAR = "REPRO_CALIBRATION"

#: Default artifact location inside a source checkout, relative to the
#: repository root (what ``repro bench calibrate`` writes).
CALIBRATION_DEFAULT_RELPATH = "benchmarks/CALIBRATION.json"

#: Recognised boolean spellings for :data:`CALIBRATION_ENV_VAR`.  Anything
#: not in either set is interpreted as an artifact path.
CALIBRATION_OFF_VALUES = frozenset(("", "0", "off", "no", "false"))
CALIBRATION_ON_VALUES = frozenset(("1", "auto", "on", "yes", "true"))


def maybe_autoload_calibration(environ: Optional[Dict[str, str]] = None) -> Optional[Dict[str, object]]:
    """Install persisted cutoffs at import time, gated by ``REPRO_CALIBRATION``.

    Invoked from ``repro/__init__`` so a calibrated machine applies its
    measured scalar/vectorized and branch-batch crossovers to every run
    without code changes:

    * an off spelling (:data:`CALIBRATION_OFF_VALUES`: unset, ``""``,
      ``"0"``, ``"off"``, ``"no"``, ``"false"``) — no-op (the shipped
      defaults stay), returns ``None``;
    * an on spelling (:data:`CALIBRATION_ON_VALUES`: ``"1"``, ``"auto"``,
      ``"on"``, ``"yes"``, ``"true"``) — load
      ``benchmarks/CALIBRATION.json`` from the source checkout; silently
      skipped (returns ``None``) when the artifact does not exist, e.g.
      in an installed wheel;
    * any other value — an explicit artifact path; a missing file raises.

    A ``--quick`` (toy-ladder) artifact is always **refused** with
    ``ValueError``, loudly: silently running a whole session on
    unrepresentative cutoffs is exactly the failure mode the ``quick``
    tag exists to prevent.  Regenerate with a full
    ``repro bench calibrate`` instead.
    """
    import os
    from pathlib import Path

    env = os.environ if environ is None else environ
    value = env.get(CALIBRATION_ENV_VAR, "").strip()
    if value.lower() in CALIBRATION_OFF_VALUES:
        return None
    if value.lower() in CALIBRATION_ON_VALUES:
        root = Path(__file__).resolve().parents[3]
        path = root / CALIBRATION_DEFAULT_RELPATH
        if not path.is_file():
            return None
        return load_scalar_calibration(str(path))
    return load_scalar_calibration(value)


def validate_calibration(payload: Dict[str, object]) -> None:
    """Assert a v2 calibration artifact matches the documented schema.

    Raises ``ValueError`` on any violation; the CI smoke gate runs this on
    a freshly calibrated artifact so schema drift (dropped band table,
    renamed keys, unknown backend names) is caught before an artifact is
    committed.
    """
    from ..core.kernel_backends import KERNELS

    def fail(msg: str) -> None:
        raise ValueError(f"CALIBRATION artifact schema violation: {msg}")

    if not isinstance(payload, dict):
        fail("payload is not an object")
    if payload.get("schema_version") != CALIBRATION_SCHEMA_VERSION:
        fail(f"schema_version != {CALIBRATION_SCHEMA_VERSION}")
    if payload.get("kind") != CALIBRATION_KIND:
        fail(f"kind != {CALIBRATION_KIND!r}")
    bands = payload.get("bands")
    if not isinstance(bands, list) or not bands:
        fail("bands missing or empty")
    prev = 0
    for band in bands:
        if not isinstance(band, dict) or "max_n" not in band or "backend" not in band:
            fail("band entries need max_n and backend")
        if band["backend"] not in KERNELS or band["backend"] == "auto":
            fail(f"band backend {band['backend']!r} is not a concrete "
                 f"KERNELS name")
        if not isinstance(band["max_n"], int) or band["max_n"] <= prev:
            fail("band max_n values must be increasing positive integers")
        prev = band["max_n"]
    if payload.get("default_backend") not in KERNELS:
        fail("default_backend is not a KERNELS name")
    measured = payload.get("backends_measured")
    if not isinstance(measured, list) or not set(measured) <= set(KERNELS):
        fail("backends_measured missing or contains unknown names")
    for key in ("max_m", "scalar_kernel_max_n", "scalar_kernel_max_m",
                "branch_batch_min_live"):
        if not isinstance(payload.get(key), int) or payload[key] <= 0:
            fail(f"{key} is not a positive integer")
    samples = payload.get("samples")
    if not isinstance(samples, dict) or not samples.get("n_ladder"):
        fail("samples.n_ladder missing or empty")
    if not isinstance(payload.get("provenance"), dict):
        fail("provenance missing")


def render_calibration(payload: Dict[str, object]) -> str:
    """Human-readable summary of one calibration artifact."""
    lines = [f"{'ladder point':>18s} {'scalar':>12s} {'vectorized':>12s}  winner"]
    samples = payload["samples"]
    for group in ("n_ladder", "m_ladder"):
        for s in samples[group]:  # type: ignore[index]
            sc, ve = float(s["scalar_s"]) * 1e6, float(s["vectorized_s"]) * 1e6
            tag = f"n={s['n']} m={s['m']}"
            winner = s.get("winner") or ("scalar" if sc <= ve else "vectorized")
            extra = "".join(
                f" ({name} {float(s[_sample_key(name)]) * 1e6:.1f}us)"
                for name in payload.get("backends_measured", ())
                if name not in ("scalar", "numpy") and _sample_key(name) in s)
            lines.append(f"{tag:>18s} {sc:10.1f}us {ve:10.1f}us  "
                         f"{winner}{extra}")
    for s in samples.get("branch_live_ladder", ()):  # type: ignore[union-attr]
        sc, ba = float(s["scalar_s"]) * 1e6, float(s["batch_s"]) * 1e6
        tag = f"live={s['live']}"
        lines.append(f"{tag:>18s} {sc:10.1f}us {ba:10.1f}us  "
                     f"{'scalar' if sc <= ba else 'batch'}")
    min_live = payload.get("branch_batch_min_live")
    branch_note = (
        "disabled (scalar wins everywhere)"
        if min_live is not None and int(min_live) >= BRANCH_BATCH_DISABLED
        else min_live
    )
    if payload.get("bands"):
        table = ", ".join(f"n<={b['max_n']}: {b['backend']}"
                          for b in payload["bands"])  # type: ignore[index]
        lines.append(f"auto dispatch bands: {table}; m>{payload['max_m']}: "
                     f"numpy; n beyond ladder: {payload['default_backend']} "
                     f"(measured: {', '.join(payload['backends_measured'])})")
    lines.append(
        f"calibrated cutoffs: SCALAR_KERNEL_MAX_N={payload['scalar_kernel_max_n']} "
        f"SCALAR_KERNEL_MAX_M={payload['scalar_kernel_max_m']} "
        f"BRANCH_BATCH_MIN_LIVE={branch_note}"
    )
    return "\n".join(lines)

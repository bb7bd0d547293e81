#!/bin/sh
# Lightweight perf-artifact CI: catches benchmark-harness regressions
# (broken cases, schema drift, dropped case names) without a full timed
# run.  Wall time is dominated by one pytest --benchmark-disable pass.
#
#   sh benchmarks/ci_smoke.sh
#
# Exits non-zero if: any benchmark body fails, the freshly produced
# artifact violates the documented schema, a case present in the
# committed BENCH_micro.json is missing from the smoke artifact, any
# engine/frontier combination disagrees on a tiny-instance cover size
# (the step-core/frontier layering guard; see docs/ARCHITECTURE.md),
# any bound/engine combination disagrees — or a strong bound fails to
# shrink a bipartite search tree — (the bounds-layer guard), or the
# experiment layer's smoke grid (which sweeps the bound axis) fails its
# schema / zero-recompute resume / bit-identical verification gate
# (see docs/EXPERIMENTS.md), or a sample of the committed paper run's
# cells no longer re-executes bit-identically (or the report touches
# the checkout), or a paper preset leaves its temporary store behind,
# or the distributed-engine gate fails
# (2-worker localhost-socket runs and a serve-worker second-process run
# must match the sequential covers, the 2-worker runs must walk their
# sub-trees in compiled chunks, a lone worker must walk its tree on one
# lease without donating, and a workers x hosts spec must
# resume with zero recomputed cells), or the fault-tolerance gate fails
# (injected cpu-process worker kills — and remote serve-worker kills
# over the socket — must still yield the optimum; a
# deadline-tripped solve must checkpoint and resume to it), or
# the node-budget gate fails (every worker-pool engine, 2 workers on
# p_hat_500_3 at node_budget=1000, must trip the budget without walking
# past it and resume from its checkpoint to the optimum, and a budgeted
# solve whose workers all die must drain inline within the budget and
# resume to the optimum), or the CLI checkpoint gate fails (a
# `repro solve --node-budget --checkpoint` file must resume in a fresh
# interpreter through `--resume-from` to the optimum, and a garbage
# checkpoint file must exit 2 with one error line), or the
# kernel-backend gate fails (every KERNELS backend — native, scalar,
# auto — must reach the reference cascade's fixpoint bit for bit and the
# pure-Python scalar run's optimum and node count on the smoke suite,
# and a sequential solve must take the compiled search loop with the
# scalar run's counters), or the
# observability gate fails (a traced two-process distributed solve must
# produce schema-valid Chrome trace JSON with spans from >= 2 pids and a
# metrics snapshot whose Prometheus exposition parses, and a disarmed
# solve must never touch a telemetry mutator — spied with raising
# monkeypatches on the span/counter entry points — and a cycles-clock
# trace of a simulated launch must carry its clock, sum per kind to the
# launch's cycles and render in `repro obs view`), or the solve-cache
# gate fails (miss, exact and isomorphic hits with verified covers, an
# escalated repeat, an unusable root that warns and solves
# uncached, a read-only repeat hit, a truncated artifact that re-solves,
# no index.sqlite handle left open, a disarmed path that never reaches
# cache code, no experiment import on the cache path).
#
# Every interrupted solve and resume below runs through the one solve
# facade (``solve_mvc``/``solve_pvc`` with ``node_budget``/``deadline``,
# then ``resume_from``); every result is a ``SolveOutcome``, so worker
# losses read ``supervision["workers_lost"]`` and a cache escalation
# reads the cache's ``escalations`` counter.
set -eu
cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

out="$(mktemp /tmp/bench_smoke.XXXXXX.json)"
ckpt="$(mktemp /tmp/ckpt_smoke.XXXXXX)"
log="$(mktemp /tmp/ckpt_smoke.XXXXXX.log)"
trap 'rm -f "$out" "$ckpt" "$log"' EXIT

python -m repro bench --smoke --out "$out"

python - "$out" <<'EOF'
import json
import sys

from repro.analysis.microbench import validate_artifact

smoke = json.load(open(sys.argv[1]))
validate_artifact(smoke)

committed = json.load(open("BENCH_micro.json"))
missing = sorted(set(committed["results"]) - set(smoke["results"]))
if missing:
    sys.exit(f"cases in committed BENCH_micro.json missing from smoke run: {missing}")
print("ci_smoke: artifact schema OK, all committed case names present")
EOF

# --- engine x frontier agreement matrix (tiny instances, exact answers) ---
python - <<'EOF'
from repro.core.frontier import FRONTIERS
from repro.core.sequential import solve_mvc_sequential
from repro.core.solver import ENGINES, POOL_ENGINES, solve_mvc, solve_pvc
from repro.core.verify import is_vertex_cover
from repro.graph.generators.phat import phat_complement
from repro.graph.generators.random_graphs import gnp
from repro.graph.generators.structured import grid_graph

instances = [
    ("gnp20", gnp(20, 0.2, seed=12)),
    ("phat16", phat_complement(16, 2, seed=4)),
    ("grid4x4", grid_graph(4, 4)),
]
checked = 0
for name, graph in instances:
    expected = solve_mvc_sequential(graph).optimum
    for frontier in FRONTIERS:
        got = solve_mvc_sequential(graph, frontier=frontier).optimum
        assert got == expected, (name, frontier, got, expected)
        checked += 1
    for engine in ENGINES:
        kwargs = {"n_workers": 2} if engine in POOL_ENGINES else {}
        got = solve_mvc(graph, engine=engine, **kwargs).optimum
        assert got == expected, (name, engine, got, expected)
        # PVC leg: k=OPT has a witness of size <= k, k=OPT-1 is refuted
        yes = solve_pvc(graph, expected, engine=engine, **kwargs)
        assert yes.feasible is True, (name, engine, "k=OPT", yes.feasible)
        assert len(yes.cover) <= expected, (name, engine, len(yes.cover))
        assert is_vertex_cover(graph, yes.cover), (name, engine, "witness")
        no = solve_pvc(graph, expected - 1, engine=engine, **kwargs)
        assert no.feasible is False, (name, engine, "k=OPT-1", no.feasible)
        checked += 3
print(f"ci_smoke: engine x frontier matrix OK "
      f"({checked} solver runs, {len(instances)} instances, "
      f"{len(FRONTIERS)} frontiers, {len(ENGINES)} engines, "
      f"MVC + PVC at k=OPT and k=OPT-1)")
EOF

# --- bound x engine agreement matrix (+ bipartite tree-shrink guard) ---
python - <<'EOF'
from repro.core.bounds import BOUNDS
from repro.core.sequential import solve_mvc_sequential
from repro.core.solver import ENGINES, POOL_ENGINES, solve_mvc
from repro.graph.generators.phat import phat_complement
from repro.graph.generators.random_graphs import gnp, random_bipartite

instances = [
    ("gnp20", gnp(20, 0.2, seed=12)),
    ("phat16", phat_complement(16, 2, seed=4)),
    ("bipartite", random_bipartite(12, 14, 0.3, seed=3)),
]
checked = 0
for name, graph in instances:
    expected = solve_mvc_sequential(graph).optimum
    for bound in BOUNDS:
        got = solve_mvc_sequential(graph, bound=bound).optimum
        assert got == expected, (name, bound, got, expected)
        checked += 1
    for engine in ENGINES:
        kwargs = {"n_workers": 2} if engine in POOL_ENGINES else {}
        got = solve_mvc(graph, engine=engine, bound="matching", **kwargs).optimum
        assert got == expected, (name, engine, got, expected)
        checked += 1
# strong bounds must shrink the tree on a bipartite instance
bip = random_bipartite(16, 24, 0.25, seed=1)
greedy_nodes = solve_mvc_sequential(bip).stats.nodes_visited
for strong in ("matching", "konig"):
    nodes = solve_mvc_sequential(bip, bound=strong).stats.nodes_visited
    assert nodes < greedy_nodes, (strong, nodes, greedy_nodes)
    checked += 1
print(f"ci_smoke: bound x engine matrix OK "
      f"({checked} solver runs, {len(instances)} instances, "
      f"{len(BOUNDS)} bounds, {len(ENGINES)} engines, "
      f"bipartite tree-shrink verified)")
EOF

# --- experiment layer: tiny grid -> schema + resume + fidelity gate ---
# (the built-in smoke grid also sweeps the bound axis: see SMOKE_SPEC)
# `experiment run --smoke` executes the built-in 2-engine x 2-frontier x
# 1-suite grid into a scratch store, asserts the manifest/results.jsonl
# schema, re-runs to assert the resume recomputes ZERO completed cells,
# and re-executes every cell live asserting virtual cycles/seconds and
# node counts bit-identical to the stored records.
exp_store="$(mktemp -d /tmp/bench_smoke_exp.XXXXXX)"
trap 'rm -f "$out"; rm -rf "$exp_store"' EXIT
python -m repro experiment run --smoke --store "$exp_store"

# --- the committed paper run: stored cells still match the engines ---
# Copy experiments/paper-small-*/ into a scratch store, regenerate its
# report there and re-execute a sample of its cells live: virtual
# cycles/seconds, node counts and the launch figures must be
# bit-identical to the committed records, and the checkout must be left
# byte-for-byte untouched.
paper_run="$(basename experiments/paper-small-*)"
paper_sum="$(cat experiments/"$paper_run"/* | sha256sum)"
cp -r "experiments/$paper_run" "$exp_store/"
paper_out="$(python -m repro experiment report "$paper_run" --store "$exp_store" \
    --verify --max-cells 12)"
printf '%s\n' "$paper_out" | grep -q "^verified: 12 cells bit-identical"
test "$(cat experiments/"$paper_run"/* | sha256sum)" = "$paper_sum"
echo "ci_smoke: committed paper run verified (12 cells bit-identical, checkout untouched)"

# --- a paper preset prints its section and leaves no store behind ---
preset_tmp="$(mktemp -d "$exp_store/preset.XXXXXX")"
table2_out="$(TMPDIR="$preset_tmp" python -m repro table2 --scale tiny --quick)"
printf '%s\n' "$table2_out" | grep -q "^Table II — aggregate speedup"
test -z "$(ls -A "$preset_tmp")"
echo "ci_smoke: table2 preset printed Table II and left no store behind"

# --- distributed-engine gate (see docs/ARCHITECTURE.md, net/) ---
# 1. two-worker localhost-socket runs must match the sequential engine's
#    covers on the smoke suite (valid cover, identical size), with both
#    socket workers actually contributing sub-trees on the larger one,
#    and the workers must walk their sub-trees in compiled chunks
#    (comms totals report native_search > 0).  The runs must leave no
#    worker thread, no child process and no new /dev/shm entry behind
#    (local workers are threads sharing the graph; only TCP peers get
#    the shared-memory plane).
#    A lone worker, which no peer ever needs work from, walks a tree of
#    thousands of nodes on one lease and donates nothing.
# 2. the second-host path: one worker joins via a cold
#    `repro serve-worker` subprocess — the exact code path a second
#    machine uses — and the answer is unchanged.
# 3. a distributed workers x hosts experiment spec runs through the
#    store and resumes with zero recomputed cells.
python - <<'EOF'
import multiprocessing
import os
import tempfile
import threading

from repro.core.sequential import solve_mvc_sequential
from repro.core.verify import assert_valid_cover
from repro.experiment.runner import run_experiment
from repro.experiment.spec import load_spec
from repro.experiment.store import RunStore
from repro.net.distributed import solve_mvc_distributed
from repro.graph.generators.phat import phat_complement
from repro.graph.generators.random_graphs import gnp
from repro.graph.generators.structured import grid_graph

instances = [
    ("gnp20", gnp(20, 0.2, seed=12)),
    ("phat16", phat_complement(16, 2, seed=4)),
    ("grid4x4", grid_graph(4, 4)),
    ("gnp60", gnp(60, 0.12, seed=3)),
]
shm_before = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
for name, graph in instances:
    expected = solve_mvc_sequential(graph).optimum
    got = solve_mvc_distributed(graph, n_workers=2)
    assert got.optimum == expected, (name, got.optimum, expected)
    assert_valid_cover(graph, got.cover, got.optimum)
    assert got.comms["totals"].get("native_search", 0) > 0, \
        f"{name}: no worker ran a compiled chunk"
per_worker = got.comms["per_worker"]
assert len(per_worker) == 2 and all(
    c["subtrees"] > 0 for c in per_worker.values()), \
    "work did not distribute across both socket workers"
lone_graph = gnp(80, 0.2, seed=1)
lone = solve_mvc_distributed(lone_graph, n_workers=1)
assert lone.optimum == solve_mvc_sequential(lone_graph).optimum
assert lone.nodes_visited > 1000, lone.nodes_visited
lone_totals = lone.comms["totals"]
assert lone_totals["donations"] == 0 and lone_totals["leases"] == 1, \
    f"a lone worker donated to itself: {lone_totals}"
assert multiprocessing.active_children() == [], \
    f"distributed solves left {multiprocessing.active_children()} running"
left = [t.name for t in threading.enumerate() if t is not threading.main_thread()]
assert not left, f"distributed solves left threads {left} running"
shm_after = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
assert not shm_after - shm_before, \
    f"distributed solves left /dev/shm entries {sorted(shm_after - shm_before)}"
print(f"ci_smoke: distributed engine matches sequential covers on "
      f"{len(instances)} instances, walked in compiled chunks (both "
      f"workers contributed on gnp60), no thread, child process or shm "
      f"entry left")
print(f"ci_smoke: a lone worker walked {lone.nodes_visited} nodes on one "
      f"lease and donated nothing")

graph = gnp(60, 0.12, seed=3)
expected = solve_mvc_sequential(graph).optimum
two_proc = solve_mvc_distributed(graph, n_workers=1, hosts=1)
assert two_proc.optimum == expected, (two_proc.optimum, expected)
print("ci_smoke: serve-worker second-process run matches the optimum")

spec = load_spec({"name": "ci-dist", "scale": "tiny",
                  "instances": ["p_hat_300_1"], "engines": ["distributed"],
                  "workers": [1, 2], "hosts": [0, 1],
                  "engine_node_guard": 4000})
seq_opt = None
with tempfile.TemporaryDirectory() as td:
    store = RunStore(td)
    first = run_experiment(spec, store)
    assert first.executed == 4 and first.quarantined == 0
    again = run_experiment(spec, store, run_id=first.run.run_id)
    assert again.executed == 0 and again.skipped == 4, \
        "workers x hosts cells did not resume from the store"
print("ci_smoke: distributed workers x hosts experiment ran and "
      "resumed with zero recomputed cells")
EOF

# --- fault-tolerance gate (see docs/ARCHITECTURE.md, fault tolerance) ---
# 1. kill cpu-process workers mid-solve (through the facade: the socket
#    coordinator with local worker threads, so these are thread kills: the
#    worker aborts its socket without a result frame): the supervisor
#    must re-enqueue the dead workers' leased sub-trees, respawn, and
#    still return the optimum.
# 2. trip a wall-clock deadline at t=0: the solve must surface a
#    checkpoint whose resume reaches the clean-run optimum exactly.
python - <<'EOF'
import warnings

from repro import faults
from repro.core.anytime import resume_from, solve_to_completion
from repro.core.sequential import solve_mvc_sequential
from repro.core.solver import solve_mvc
from repro.graph.generators.random_graphs import gnp

graph = gnp(30, 0.15, seed=7)
expected = solve_mvc_sequential(graph).optimum

with faults.injected("worker_kill:0.5:3", seed=11):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        out = solve_mvc(graph, engine="cpu-process", n_workers=2, threshold=4)
assert out.optimum == expected, (out.optimum, expected)
lost = out.supervision["workers_lost"]
assert lost > 0, "fault plan fired no kills; gate is vacuous"
print(f"ci_smoke: cpu-process survived {lost:g} worker kills, "
      f"cover still optimal ({out.optimum})")

# same chaos over the socket transport: kill a *remote* serve-worker
# mid-lease — still a process kill (os._exit) — the coordinator must
# re-enqueue its lease exactly like a dead local worker's and still
# reach the optimum.
from repro.net.distributed import solve_mvc_distributed

with faults.injected("worker_kill:0.9:4", seed=2):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        dist = solve_mvc_distributed(graph, n_workers=0, hosts=2)
assert dist.optimum == expected, (dist.optimum, expected)
lost = dist.supervision["workers_lost"]
assert lost > 0, "no remote worker died; gate is vacuous"
print(f"ci_smoke: distributed survived {lost:g} remote "
      f"worker kills, cover still optimal ({dist.optimum})")

tripped = solve_mvc(graph, engine="cpu-process", deadline=0.0,
                    n_workers=2, threshold=4)
assert tripped.status in ("feasible", "bound_only"), tripped.status
assert tripped.checkpoint is not None
blob = tripped.checkpoint.to_bytes()
resumed = resume_from(type(tripped.checkpoint).from_bytes(blob), graph)
final = resumed
while not final.complete:
    final = resume_from(final.checkpoint, graph)
assert final.optimum == expected, (final.optimum, expected)
assert final.lower_bound == expected
chained = solve_to_completion(graph, engine="sequential", node_budget=5)
assert chained.optimum == expected
print(f"ci_smoke: deadline-tripped solve checkpointed "
      f"{len(tripped.checkpoint.items)} frontier states and resumed to "
      f"the optimum ({final.optimum})")
EOF

# --- node-budget gate (see docs/ARCHITECTURE.md, node grants) ---
# Every worker-pool engine (POOL_ENGINES) solves p_hat_500_3 (about
# 14.8k sequential nodes) with 2 workers and node_budget=1000: the solve
# must trip the budget without walking past it, and its checkpoint must
# resume to the sequential optimum.
# Inline-drain leg: on gnp(80, 0.2, seed=1) every worker dies early under
# worker_kill:0.5:3 (seed 11), the respawn budget runs out and the
# coordinator drains the rest inline: the drain must stay within
# node_budget=1000 and leave a checkpoint that resumes to the optimum (62).
python - <<'EOF'
import warnings

from repro import faults
from repro.core.anytime import resume_from
from repro.core.sequential import solve_mvc_sequential
from repro.core.solver import POOL_ENGINES, solve_mvc
from repro.graph.generators.random_graphs import gnp
from repro.graph.generators.suites import suite_instance

graph = suite_instance("p_hat_500_3", "small").graph()
expected = solve_mvc_sequential(graph).optimum
assert expected == 84, expected
budget = 1000
for engine in POOL_ENGINES:
    leg = solve_mvc(graph, engine=engine, node_budget=budget, n_workers=2)
    assert leg.status == "budget_exhausted", (engine, leg.status)
    assert leg.nodes_visited <= budget, (engine, leg.nodes_visited)
    final = resume_from(leg.checkpoint, graph, engine=engine, n_workers=2)
    assert final.complete and final.optimum == expected, \
        (engine, final.status, final.optimum)
    print(f"ci_smoke: {engine} stopped at {leg.nodes_visited} of {budget} "
          f"budgeted nodes and resumed to the optimum ({final.optimum})")

drain_graph = gnp(80, 0.2, seed=1)
drain_expected = solve_mvc_sequential(drain_graph).optimum
assert drain_expected == 62, drain_expected
with faults.injected("worker_kill:0.5:3", seed=11):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        drained = solve_mvc(drain_graph, engine="distributed",
                            node_budget=budget, n_workers=2)
assert drained.supervision["inline_drains"] >= 1, "no inline drain; leg is vacuous"
assert drained.nodes_visited <= budget, drained.nodes_visited
assert drained.status == "budget_exhausted", drained.status
final = resume_from(drained.checkpoint, drain_graph)
assert final.complete and final.optimum == drain_expected, \
    (final.status, final.optimum)
print(f"ci_smoke: inline drain stopped at {drained.nodes_visited} of {budget} "
      f"budgeted nodes and resumed to the optimum ({final.optimum})")
EOF

# --- CLI checkpoint gate (see docs/ARCHITECTURE.md, checkpoints) ---
# A sequential solve of p_hat_500_3 stopped at node_budget=1000 exits 3
# and writes its checkpoint (codec-v2 frames); a fresh interpreter
# resumes the file to the optimum (84) and exits 0; a garbage checkpoint
# file exits 2 with exactly one `error:` line.
solve="python -m repro solve --graph p_hat_500_3 --scale small"
rc=0
$solve --engine sequential --node-budget 1000 --checkpoint "$ckpt" > "$log" || rc=$?
if [ "$rc" -ne 3 ] || ! grep -q "status=budget_exhausted" "$log"; then
    cat "$log"; echo "ci_smoke: budgeted solve exited $rc, want 3"; exit 1
fi
rc=0
$solve --resume-from "$ckpt" > "$log" || rc=$?
if [ "$rc" -ne 0 ] || ! grep -q "status=optimal .* best=84 cover" "$log"; then
    cat "$log"; echo "ci_smoke: resumed solve exited $rc or missed the optimum"; exit 1
fi
printf 'not a checkpoint' > "$ckpt"
rc=0
$solve --resume-from "$ckpt" > "$log" 2>&1 || rc=$?
if [ "$rc" -ne 2 ] || [ "$(wc -l < "$log")" -ne 1 ] || ! grep -q "^error: " "$log"; then
    cat "$log"; echo "ci_smoke: garbage checkpoint exited $rc, want 2 and one error line"
    exit 1
fi
echo "ci_smoke: CLI checkpoint resumed in a fresh interpreter to the optimum (84);" \
     "a garbage checkpoint is one error line, exit 2"

# --- kernel-backend gate (see docs/ARCHITECTURE.md, KERNELS registry) ---
# 1. backend agreement: every registered KERNELS backend must reach the
#    reference cascade's bit-identical fixpoint on the smoke suite, and
#    its whole search must match the kernels="scalar" run's optimum and
#    node count (the interpreted tier shares no code with native).  The
#    compiled ``native`` backend must actually be compiled here (gcc is
#    part of the CI image), not degraded to scalar, and ``auto`` must
#    pick it.
# 2. compiled search: a sequential MVC solve of each smoke instance, plus
#    one sparse instance on which the Walker keeps scanning CSR rows
#    (ceil(n / 64) > 2m / n; the four smoke instances take the bitset
#    rows, and Walker.bitset must say so), must record that it ran the
#    compiled loop (stats.extra["native_search"]), with every traversal
#    and reduction counter equal to the kernels="scalar" run's; a
#    deadline-armed solve must still take the per-node interpreted loop.
python - <<'EOF'
import warnings

from repro.core.formulation import BestBound, MVCFormulation
from repro.core import native
from repro.core.kernel_backends import KERNELS, make_kernels
from repro.core.reductions import apply_reductions_reference
from repro.core.sequential import branch_and_reduce, solve_mvc_sequential
from repro.core.stats import ReductionCounters
from repro.graph.degree_array import Workspace, fresh_state
from repro.graph.generators.phat import phat_complement
from repro.graph.generators.random_graphs import gnp
from repro.graph.generators.structured import grid_graph

instances = [
    ("gnp20", gnp(20, 0.2, seed=12)),
    ("phat16", phat_complement(16, 2, seed=4)),
    ("grid4x4", grid_graph(4, 4)),
    ("gnp48", gnp(48, 0.12, seed=7)),
]


def fixpoint(graph, run):
    state = fresh_state(graph)
    counters = ReductionCounters()
    form = MVCFormulation(BestBound(size=graph.n + 1))
    run(graph, state, form, Workspace.for_graph(graph), counters)
    return (state.deg.tobytes(), state.cover_size, state.edge_count,
            counters.degree_one, counters.degree_two_triangle,
            counters.high_degree, counters.sweeps)


with warnings.catch_warnings():
    warnings.simplefilter("error")  # a degraded native would warn here
    backends = {name: make_kernels(name) for name in KERNELS}
assert not backends["native"].degraded, native.load_error()
assert backends["auto"].resolved_name(48, 100) == "auto:native"
checked = 0
for name, graph in instances:
    ref = fixpoint(graph, lambda g, s, f, w, c:
                   apply_reductions_reference(g, s, f, w, counters=c))
    expected_best = BestBound(size=graph.n + 1)
    expected = branch_and_reduce(graph, MVCFormulation(expected_best),
                                 kernels="scalar")
    for bname, backend in backends.items():
        got = fixpoint(graph, lambda g, s, f, w, c:
                       backend.cascade(g, s, f, w, counters=c))
        assert got == ref, (name, bname, "cascade fixpoint diverged")
        best = BestBound(size=graph.n + 1)
        stats = branch_and_reduce(graph, MVCFormulation(best), kernels=backend)
        assert best.size == expected_best.size, (name, bname, best.size)
        assert stats.nodes_visited == expected.nodes_visited, (name, bname)
        checked += 1
print(f"ci_smoke: kernel-backend agreement OK ({checked} backend runs, "
      f"{len(instances)} instances, {len(KERNELS)} backends, "
      f"native compiled at {native.load().__file__})")


def traversal(stats):
    r = stats.reductions
    return (stats.nodes_visited, stats.branches, stats.prunes,
            stats.solutions_found, stats.max_depth_reached,
            stats.max_stack_depth, r.degree_one, r.degree_two_triangle,
            r.high_degree, r.sweeps)


searched = [(name, graph, True) for name, graph in instances]
searched.append(("grid4x50", grid_graph(4, 50), False))
for name, graph, bitset in searched:
    walker = native.load().Walker(graph.indptr, graph.indices, "mvc")
    assert walker.bitset == bitset, (name, "Walker took the other rows")
    compiled = solve_mvc_sequential(graph)
    scalar = solve_mvc_sequential(graph, kernels="scalar")
    assert compiled.stats.extra.get("native_search") == 1.0, (name, "not compiled")
    assert "native_search" not in scalar.stats.extra, name
    assert traversal(compiled.stats) == traversal(scalar.stats), (
        name, traversal(compiled.stats), traversal(scalar.stats))
    assert compiled.optimum == scalar.optimum, name
    best = BestBound(size=graph.n + 1)
    timed = branch_and_reduce(graph, MVCFormulation(best), deadline=600.0)
    assert "native_search" not in timed.extra, (name, "deadline run compiled")
    assert best.size == compiled.optimum, name
print(f"ci_smoke: compiled search OK ({len(instances)} bitset-row and 1 "
      f"CSR-row instances: native_search recorded, counters equal to "
      f"scalar, deadline runs interpreted)")
EOF

# --- observability gate (see docs/OBSERVABILITY.md) ---
# 1. a traced distributed solve through the CLI, one local worker thread
#    plus one serve-worker host, must write a Chrome trace whose events
#    are well-formed, span >= 2 processes and >= 2 worker lanes (the
#    thread's lane in the coordinator's process, the host's in its own),
#    plus a metrics snapshot whose Prometheus exposition parses line by
#    line; `repro obs view` must render the same trace.  Per-kind wall
#    time is span self-time: the reloaded trace must attribute reduce,
#    branch and lease, and the snapshot must carry no per-kind wall
#    counter and no comms-shipped attribution keys.
# 2. the disarmed hot path must stay telemetry-free: with every span /
#    counter mutator replaced by a raising spy, a plain solve must still
#    succeed — proof the per-node code binds bare closures when nothing
#    is armed.
# 3. the cycles clock: a TINY_SIM hybrid launch traced into a
#    clock="cycles" tracer and dumped as Chrome JSON must record
#    otherData.clock == "cycles", sum per kind to the launch's
#    cycles_by_kind, and render in `repro obs view`.
obs_trace="$(mktemp /tmp/bench_smoke_trace.XXXXXX.json)"
obs_metrics="$(mktemp /tmp/bench_smoke_metrics.XXXXXX.json)"
obs_cycles="$(mktemp /tmp/bench_smoke_cycles.XXXXXX.json)"
trap 'rm -f "$out" "$obs_trace" "$obs_metrics" "$obs_cycles"; rm -rf "$exp_store"' EXIT
python -m repro solve --graph p_hat_300_1 --scale tiny \
    --engine distributed --workers 1 --hosts 1 --stats \
    --trace "$obs_trace" --metrics-out "$obs_metrics" > /dev/null
python -m repro obs view "$obs_trace" > /dev/null
python - "$obs_trace" "$obs_metrics" <<'EOF'
import json
import re
import sys

trace_doc = json.load(open(sys.argv[1]))
events = trace_doc["traceEvents"]
assert events, "traced solve produced no spans"
for ev in events:
    assert ev["ph"] == "X" and ev["dur"] >= 0 and ev["ts"] >= 0, ev
    assert isinstance(ev["pid"], int) and isinstance(ev["tid"], int), ev
    assert ev["args"]["span_id"], ev
pids = {ev["pid"] for ev in events}
assert len(pids) >= 2, f"spans from only {len(pids)} process(es)"
lanes = {(ev["pid"], ev["tid"]) for ev in events}
coordinator = {(ev["pid"], ev["tid"]) for ev in events if ev["name"] == "solve"}
worker_lanes = lanes - coordinator
assert len(worker_lanes) >= 2, f"spans from only {len(worker_lanes)} worker lane(s)"
assert trace_doc["otherData"]["trace_id"], "trace id missing"

from repro.obs.metrics import prometheus_from_snapshot

snap = json.load(open(sys.argv[2]))
text = prometheus_from_snapshot(snap)
sample = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [-+0-9eE.inf]+$')
samples = 0
for line in text.strip().splitlines():
    if line.startswith("#"):
        assert re.match(r"^# (HELP|TYPE) ", line), line
    else:
        assert sample.match(line), line
        samples += 1
assert samples > 0, "empty Prometheus exposition"
names = {m["name"] for m in snap["metrics"]}
assert "repro_nodes_visited_total" in names, sorted(names)
assert "repro_wall_seconds_total" not in names, sorted(names)
assert not [n for n in names if n.startswith("repro_comms_obs_")], sorted(names)

from repro.obs.breakdown import wall_by_kind_from_spans
from repro.obs.trace import load_chrome

by_kind = wall_by_kind_from_spans(load_chrome(sys.argv[1]).spans)
for kind in ("reduce", "branch", "lease"):
    assert by_kind.get(kind, 0) > 0, (kind, by_kind)
print(f"ci_smoke: traced distributed solve OK ({len(events)} spans from "
      f"{len(pids)} pids on {len(worker_lanes)} worker lanes, {samples} "
      f"Prometheus samples)")

from repro.core.sequential import solve_mvc_sequential
from repro.core.solver import solve_mvc
from repro.graph.generators.random_graphs import gnp
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace


def boom(*a, **k):
    raise AssertionError("telemetry mutator reached on the disarmed path")


obs_trace.WallTracer.begin = boom
obs_metrics.Counter.inc = boom
obs_metrics.Gauge.set = boom
obs_metrics.Histogram.observe = boom
graph = gnp(30, 0.15, seed=7)
expected = solve_mvc_sequential(graph).optimum
assert solve_mvc(graph).optimum == expected
print("ci_smoke: disarmed solve never touched a telemetry mutator")
EOF
python - "$obs_cycles" <<'EOF'
import json
import math
import sys

from repro.engines.hybrid import HybridEngine
from repro.graph.generators.phat import phat_complement
from repro.obs import trace
from repro.sim.device import TINY_SIM

engine = HybridEngine(device=TINY_SIM)
engine.tracer = tracer = trace.WallTracer(clock="cycles")
launch = engine.solve_mvc(phat_complement(40, 3, seed=9)).stats
trace.dump_chrome(sys.argv[1], tracer)
doc = json.load(open(sys.argv[1]))
assert doc["otherData"]["clock"] == "cycles", doc["otherData"]
assert doc["otherData"]["trace_id"] == tracer.trace_id
traced = {}
for ev in doc["traceEvents"]:
    assert ev["cat"] == "cycles" and ev["ph"] == "X" and ev["dur"] > 0, ev
    traced[ev["name"]] = traced.get(ev["name"], 0.0) + ev["dur"]
metered = launch.metrics.cycles_by_kind()
for kind, cycles in metered.items():
    assert math.isclose(traced.get(kind, 0.0), cycles, rel_tol=1e-9), \
        (kind, traced.get(kind), cycles)
assert set(traced) <= set(metered), set(traced) - set(metered)
print(f"ci_smoke: cycles-clock trace OK ({len(doc['traceEvents'])} spans, "
      f"{len(metered)} kinds equal to the launch's cycles_by_kind)")
EOF
view_out="$(python -m repro obs view "$obs_cycles")"
case "$view_out" in
    "cycles gantt: "*) echo "ci_smoke: repro obs view rendered the cycles trace" ;;
    *) echo "ci_smoke: repro obs view did not render a cycles Gantt" >&2; exit 1 ;;
esac

# --- solve-cache gate (see docs/CACHING.md) ---
# 1. a cold solve misses and stores a valid cover; a second identical
#    solve must be a zero-node exact hit with the bit-identical cover;
#    2. a relabeled copy of the instance must hit isomorphically with
#    zero nodes and a re-verified cover; 3. a budget-bumped
#    repeat must resume the cached checkpoint to the optimum instead of
#    restarting; 4. a cache root under a regular file must give one
#    CacheUnavailableWarning and then the uncached optimum; 5. a repeat
#    hit must leave index.sqlite's size and sha256 unchanged (a hit only
#    appends to the hit journal) and `repro cache ls` must then show
#    hits = 1; 6. a truncated artifact must still yield the optimum (the
#    entry is dropped and re-recorded); 7. after the solves no file
#    descriptor of this process may point at any store's index.sqlite
#    (every connection is closed); 8. a disarmed solve must never reach
#    any cache entry point; 9. a cached solve in a fresh interpreter
#    must import no repro.experiment* or repro.analysis* module.
cache_store="$(mktemp -d /tmp/bench_smoke_cache.XXXXXX)"
trap 'rm -f "$out" "$obs_trace" "$obs_metrics" "$obs_cycles"; rm -rf "$exp_store" "$cache_store"' EXIT
python - "$cache_store" <<'EOF'
import sys

import numpy as np

from repro.cache import SolveCache
from repro.core.solver import solve_mvc
from repro.core.verify import assert_valid_cover
from repro.graph.csr import CSRGraph
from repro.graph.generators.phat import phat_complement

store = sys.argv[1]
graph = phat_complement(60, 2, seed=4)

cold = solve_mvc(graph, cache=store)
assert cold.stats.nodes_visited > 0, "cold solve did not search"
assert_valid_cover(graph, cold.cover, expected_size=cold.optimum)
warm = solve_mvc(graph, cache=store)
assert warm.nodes_visited == 0, "repeat solve searched nodes"
assert warm.optimum == cold.optimum
assert_valid_cover(graph, warm.cover, expected_size=cold.optimum)
np.testing.assert_array_equal(np.sort(np.asarray(cold.cover)),
                              np.asarray(warm.cover))
print(f"ci_smoke: cache repeat solve hit with 0 nodes "
      f"(optimum {warm.optimum}, cold cost {cold.stats.nodes_visited} nodes)")

perm = np.random.default_rng(11).permutation(graph.n)
edges = [(int(perm[u]), int(perm[v]))
         for u in range(graph.n) for v in graph.neighbors(u) if u < v]
relabeled = CSRGraph.from_edges(graph.n, edges)
iso = solve_mvc(relabeled, cache=store)
assert iso.nodes_visited == 0, "relabeled instance missed the cache"
assert iso.optimum == cold.optimum
assert_valid_cover(relabeled, iso.cover, expected_size=cold.optimum)
print("ci_smoke: relabeled instance hit isomorphically, cover re-verified")

fresh = phat_complement(60, 2, seed=9)
ref = solve_mvc(fresh)
escalating = SolveCache(store)
first = solve_mvc(fresh, node_budget=5, cache=escalating)
assert first.status == "budget_exhausted", first.status
bumped = solve_mvc(fresh, cache=escalating)
assert bumped.status == "optimal" and bumped.optimum == ref.optimum
assert escalating.session["escalations"] == 1, "repeat did not resume"
print(f"ci_smoke: budget-bumped repeat resumed cached checkpoint to "
      f"optimum {bumped.optimum}")

import os
import pathlib
import warnings

from repro.cache import CacheUnavailableWarning

blocker = pathlib.Path(store) / "a-regular-file"
blocker.write_text("not a directory")
bad_root = str(blocker / "cache")
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    uncached = solve_mvc(graph, cache=bad_root)
unusable = [w for w in caught if issubclass(w.category, CacheUnavailableWarning)]
assert len(unusable) == 1 and bad_root in str(unusable[0].message), \
    [str(w.message) for w in caught]
assert uncached.optimum == cold.optimum
assert_valid_cover(graph, uncached.cover, expected_size=cold.optimum)
print("ci_smoke: unusable cache root warned once and solved uncached")

import hashlib
import subprocess

hit_root = pathlib.Path(store) / "read-only-hit"
solve_mvc(graph, cache=str(hit_root))
index = hit_root / "index.sqlite"
before = (index.stat().st_size, hashlib.sha256(index.read_bytes()).hexdigest())
assert solve_mvc(graph, cache=str(hit_root)).nodes_visited == 0
after = (index.stat().st_size, hashlib.sha256(index.read_bytes()).hexdigest())
assert after == before, f"a cache hit rewrote the index: {before} -> {after}"
ls = subprocess.run([sys.executable, "-m", "repro", "cache", "ls", "--store",
                     str(hit_root)], capture_output=True, text=True, check=True)
header, row = ls.stdout.splitlines()
hits = row.split()[header.split().index("hits")]
assert hits == "1", ls.stdout
print("ci_smoke: repeat hit left index.sqlite unchanged; cache ls shows 1 hit")

damaged_root = pathlib.Path(store) / "damaged"
solve_mvc(graph, cache=str(damaged_root))
[artifact] = (damaged_root / "entries").iterdir()
artifact.write_bytes(artifact.read_bytes()[:20])
repaired = solve_mvc(graph, cache=str(damaged_root))
assert repaired.optimum == cold.optimum and repaired.engine != "cache"
assert_valid_cover(graph, repaired.cover, expected_size=cold.optimum)
print("ci_smoke: truncated cache artifact was a miss that re-solved to the optimum")

open_index = []
for fd in os.listdir("/proc/self/fd"):
    try:
        target = os.readlink(f"/proc/self/fd/{fd}")
    except OSError:
        continue
    if target.endswith("index.sqlite"):
        open_index.append(target)
assert not open_index, f"cache index handles left open: {open_index}"
print("ci_smoke: no open handle to index.sqlite after the cache solves")

import repro.cache as cache_mod


def boom(*a, **k):
    raise AssertionError("cache entry point reached on the disarmed path")


for name in ("resolve_cache", "solve_cached"):
    setattr(cache_mod, name, boom)
import os

os.environ.pop("REPRO_CACHE", None)
assert solve_mvc(graph).optimum == cold.optimum
assert solve_mvc(graph, deadline=600.0).optimum == cold.optimum
print("ci_smoke: disarmed solve never touched the cache")
EOF
python - "$cache_store/fresh" <<'EOF'
import sys

from repro import solve_mvc
from repro.graph.generators.phat import phat_complement

solve_mvc(phat_complement(60, 2, seed=4), cache=sys.argv[1])
loaded = [m for m in sys.modules
          if m.startswith(("repro.experiment", "repro.analysis"))]
assert not loaded, f"a cached solve imported {loaded}"
print("ci_smoke: a cached solve imported no experiment or analysis module")
EOF

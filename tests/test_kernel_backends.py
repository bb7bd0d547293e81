"""Property tests for the KERNELS dispatch registry.

Admission gate for kernel backends: every registered backend must reach
the **bit-identical fixpoint** of ``apply_reductions_reference`` — same
degree array, cover size, edge count and reduction counters — across the
random / p_hat / structured suites, seeded dirty-hint cascades and
budget-limited early exits, and the greedy pass of
``_greedy_cover_rules`` fire for fire.  Plus: the compiled ``native``
backend's typed boundary errors, build-on-first-use loader and fallbacks
(silent for ``auto``, loud for an explicit ``native``), an independent
networkx oracle, ``auto``'s fixed dispatch rule, the stale-binding
regression (a backend switch after import must steer branching), and the
one-line registry errors surfaced by the CLI and the experiment spec.
"""

import os
import stat
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.kernel_backends as kb
import repro.core.kernels as kernels_mod
from repro.core import branching
from repro.core.branching import expand_children, max_degree_pivot
from repro.core.formulation import BestBound, FoundFlag, MVCFormulation, PVCFormulation
from repro.core.greedy import _greedy_cover_rules, greedy_cover
from repro.core import native
from repro.core.kernel_backends import (
    KERNELS,
    AutoBackend,
    NativeBackend,
    make_kernels,
    resolve_kernels,
)
from repro.core.reductions import apply_reductions_reference
from repro.core.outcome import Checkpoint
from repro.core.sequential import branch_and_reduce, solve_mvc_sequential
from repro.core.stats import ReductionCounters
from repro.graph.csr import CSRGraph
from repro.graph.degree_array import VCState, Workspace, fresh_state
from repro.graph.generators.phat import phat_complement
from repro.graph.generators.random_graphs import gnp
from repro.graph.generators.structured import (
    disjoint_union,
    grid_graph,
    path_graph,
    petersen,
    star_graph,
)

#: Concrete backends every equivalence test must admit.  On a host
#: without a C compiler ``native`` degrades to the scalar kernels, and the
#: degraded path must satisfy the same contract.
CONCRETE = ("scalar", "native")

SRC = Path(__file__).resolve().parent.parent / "src"


def _backend(name):
    """Registry instance, with a degraded-native warning silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return make_kernels(name)


def _suite():
    """Random / p_hat / structured instances for the equivalence matrix."""
    return [
        gnp(48, 0.12, seed=7),
        gnp(70, 0.05, seed=23),
        phat_complement(40, 2, seed=11),
        phat_complement(36, 3, seed=4),
        disjoint_union(path_graph(5), petersen(), star_graph(6)),
        grid_graph(5, 6),
    ]


def _cascade_tuple(graph, runner, best=None, k=None, state=None):
    """Run ``runner`` to fixpoint; return the comparable tuple."""
    st = state if state is not None else fresh_state(graph)
    counters = ReductionCounters()
    if k is None:
        form = MVCFormulation(BestBound(size=best if best is not None else graph.n + 1))
    else:
        form = PVCFormulation(k=k, flag=FoundFlag())
    runner(graph, st, form, Workspace.for_graph(graph), counters)
    return (
        st.deg.tobytes(),
        st.cover_size,
        st.edge_count,
        counters.degree_one,
        counters.degree_two_triangle,
        counters.high_degree,
        counters.sweeps,
        st.dirty,
    )


def _reference(graph, state, form, ws, counters):
    apply_reductions_reference(graph, state, form, ws, counters=counters)


def _via(backend):
    def run(graph, state, form, ws, counters):
        backend.cascade(graph, state, form, ws, counters=counters)

    return run


# --------------------------------------------------------------------- #
# registry plumbing
# --------------------------------------------------------------------- #
class TestRegistry:
    def test_unknown_name_one_liner(self):
        assert sorted(KERNELS) == ["auto", "native", "scalar"]
        for name in ("cuda", "numpy"):  # numpy: the retired third tier
            with pytest.raises(ValueError) as exc:
                make_kernels(name)
            msg = str(exc.value)
            assert msg == (
                f"unknown kernels {name!r}; choose from: "
                + ", ".join(sorted(KERNELS))
            )
            assert "\n" not in msg
        from repro import solve_mvc

        with pytest.raises(ValueError, match="unknown kernels 'numpy'"):
            solve_mvc(gnp(10, 0.3, seed=1), kernels="numpy", cache=False)

    def test_instances_are_cached_singletons(self):
        for name in KERNELS:
            assert _backend(name) is _backend(name)

    def test_resolve_accepts_name_instance_and_none(self):
        scalar = _backend("scalar")
        assert resolve_kernels("scalar") is scalar
        assert resolve_kernels(scalar) is scalar
        assert resolve_kernels(None) is _backend(kb.DEFAULT_KERNELS)

    def test_default_is_auto(self):
        assert kb.DEFAULT_KERNELS == "auto"
        assert resolve_kernels(None) is _backend("auto")

    def test_resolved_name_identity_for_concrete(self):
        for name in CONCRETE:
            assert _backend(name).resolved_name(10, 20) == name


# --------------------------------------------------------------------- #
# the equivalence matrix: backend x suite x budget
# --------------------------------------------------------------------- #
class TestEquivalenceMatrix:
    @pytest.mark.parametrize("name", CONCRETE + ("auto",))
    def test_full_rescan_fixpoints(self, name):
        backend = _backend(name)
        for g in _suite():
            for best in (None, max(3, g.n // 3)):
                ref = _cascade_tuple(g, _reference, best=best)
                got = _cascade_tuple(g, _via(backend), best=best)
                assert got == ref, (name, g.n, best)

    @pytest.mark.parametrize("name", CONCRETE + ("auto",))
    def test_pvc_budget_early_exit(self, name):
        """Doomed budgets cut the cascade short; the early exit must be
        the same early exit (counters and sweeps included)."""
        backend = _backend(name)
        for g in (gnp(50, 0.3, seed=3), star_graph(7), phat_complement(40, 3, seed=2)):
            for k in (1, 3, g.n // 4):
                ref = _cascade_tuple(g, _reference, k=k)
                got = _cascade_tuple(g, _via(backend), k=k)
                assert got == ref, (name, g.n, k)

    @pytest.mark.parametrize("name", CONCRETE + ("auto",))
    def test_seeded_dirty_hint_cascades(self, name):
        """A branch-step child arrives with a dirty hint; every backend
        must consume it and still land on the reference fixpoint."""
        backend = _backend(name)
        for g in (gnp(60, 0.08, seed=13), phat_complement(40, 2, seed=11)):
            ws = Workspace.for_graph(g)
            parent = fresh_state(g)
            form = MVCFormulation(BestBound(size=g.n + 1))
            backend.cascade(g, parent, form, ws)
            assert parent.edge_count > 0
            child, _ = expand_children(g, parent.copy(), max_degree_pivot(parent), ws)
            assert child.dirty is not None

            def clone():
                return VCState(child.deg.copy(), child.cover_size,
                               child.edge_count, child.dirty, child.max_deg_hint)

            ref = _cascade_tuple(g, _reference, state=clone())
            got = _cascade_tuple(g, _via(backend), state=clone())
            assert got == ref, (name, g.n)
            assert got[-1] is None  # the hint was consumed, not left stale

    @pytest.mark.parametrize("name", CONCRETE + ("auto",))
    def test_greedy_cover_identical(self, name):
        """Fire for fire the reference-rules pass: cover, picks, counters."""
        for g in _suite():
            ref = _greedy_cover_rules(g)
            got = greedy_cover(g, kernels=_backend(name))
            assert got.size == ref.size
            assert got.cover.tolist() == ref.cover.tolist()
            assert got.max_degree_picks == ref.max_degree_picks
            for field in ("degree_one", "degree_two_triangle", "high_degree"):
                assert getattr(got.reductions, field) == getattr(ref.reductions, field)

    @pytest.mark.parametrize("name", CONCRETE + ("auto",))
    def test_whole_search_identical(self, name):
        """End to end through branch_and_reduce: same optimum, same tree."""
        backend = _backend(name)
        for g in (phat_complement(40, 2, seed=11), gnp(40, 0.15, seed=5)):
            ref_best = BestBound(size=g.n + 1)
            ref = branch_and_reduce(g, MVCFormulation(ref_best),
                                    reducer=apply_reductions_reference)
            got_best = BestBound(size=g.n + 1)
            got = branch_and_reduce(g, MVCFormulation(got_best), kernels=backend)
            assert got_best.size == ref_best.size
            assert got.nodes_visited == ref.nodes_visited

    @pytest.mark.parametrize("name", CONCRETE)
    def test_node_budget_early_exit_identical(self, name):
        """A depth/node-limited search truncates at the same node for
        every backend (the tree walk is bit-identical, so the budget
        fires at the same point)."""
        g = phat_complement(44, 3, seed=9)
        ref_best = BestBound(size=g.n + 1)
        ref = branch_and_reduce(g, MVCFormulation(ref_best), node_budget=50,
                                reducer=apply_reductions_reference)
        assert ref.extra.get("timed_out")
        got_best = BestBound(size=g.n + 1)
        got = branch_and_reduce(g, MVCFormulation(got_best),
                                node_budget=50, kernels=_backend(name))
        assert got.nodes_visited == ref.nodes_visited
        assert got_best.size == ref_best.size

    def test_solver_facade_accepts_backend_names(self):
        g = phat_complement(36, 2, seed=3)
        sizes = {
            name: solve_mvc_sequential(g, kernels=_backend(name)).optimum
            for name in CONCRETE + ("auto",)
        }
        assert len(set(sizes.values())) == 1


# --------------------------------------------------------------------- #
# native: the compiled extension, its boundary and its loader
# --------------------------------------------------------------------- #
def _ext():
    """The loaded extension; this host is expected to have a compiler."""
    module = native.load()
    assert module is not None, native.load_error()
    return module


@pytest.fixture
def no_compiler(monkeypatch, tmp_path):
    """A fresh process on a host with no C compiler and an empty cache."""
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    monkeypatch.setattr(native, "find_compiler", lambda: None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))
    monkeypatch.setattr(native, "_module", native._UNSET)
    monkeypatch.setattr(kb, "_INSTANCES", {})


class TestNativeBackend:
    def test_compiled_on_this_host(self):
        backend = _backend("native")
        assert not backend.degraded, native.load_error()
        assert isinstance(backend, NativeBackend)
        assert not backend.uses_adjacency(gnp(10, 0.3, seed=1))

    def test_uncalibrated_auto_picks_native_at_every_size(self):
        auto = _backend("auto")
        for n, m in ((1, 0), (10, 10), (5000, 10 ** 6)):
            assert auto.pick(n, m) == "native"
        assert auto.resolved_name(10, 20) == "auto:native"

    def test_expand_children_matches_scalar(self):
        """Both children equal the scalar step's (deg, cover, edges, bound
        hint) down a few tree levels; hints are exact-size int64 arrays
        naming the same vertices."""
        scalar, nat = _backend("scalar"), _backend("native")
        for g in _suite():
            ws = Workspace.for_graph(g)
            form = MVCFormulation(BestBound(size=g.n + 1))
            a_state, b_state = fresh_state(g), fresh_state(g)
            for _ in range(6):
                scalar.cascade(g, a_state, form, ws)
                nat.cascade(g, b_state, form, ws)
                assert a_state.deg.tobytes() == b_state.deg.tobytes()
                if a_state.edge_count == 0:
                    break
                vmax = max_degree_pivot(a_state)
                n_live = int(np.count_nonzero(a_state.deg[g.neighbors(vmax)] >= 0))
                a_kids = scalar.expand_children(g, a_state, vmax, ws)
                b_kids = nat.expand_children(g, b_state, vmax, ws)
                for i, (a, b) in enumerate(zip(a_kids, b_kids)):
                    assert a.deg.tobytes() == b.deg.tobytes()
                    assert (a.cover_size, a.edge_count, a.max_deg_hint) == \
                        (b.cover_size, b.edge_count, b.max_deg_hint)
                    assert isinstance(b.dirty, np.ndarray)
                    assert b.dirty.dtype == np.int64
                    assert b.dirty.size == np.unique(b.dirty).size
                    if i == 1 or n_live < kernels_mod.BRANCH_BATCH_MIN_LIVE:
                        assert set(b.dirty.tolist()) == set(np.asarray(a.dirty).tolist())
                a_state, b_state = a_kids[1], b_kids[1]

    @pytest.mark.parametrize("offset", (0, 1))
    def test_pvc_search_node_counts_match_scalar(self, offset):
        """PVC at k=OPT (feasible, early exit) and k=OPT-1 (refuted)."""
        for g in (phat_complement(44, 3, seed=9), gnp(40, 0.15, seed=5)):
            best = BestBound(size=g.n + 1)
            branch_and_reduce(g, MVCFormulation(best), kernels="scalar")
            k = best.size - offset
            runs = []
            for name in ("scalar", "native"):
                flag = FoundFlag()
                res = branch_and_reduce(g, PVCFormulation(k=k, flag=flag),
                                        kernels=name)
                runs.append((flag.found, flag.size, res.nodes_visited))
            assert runs[0] == runs[1]
            assert runs[0][0] is (offset == 0)

    def test_threads_sharing_the_module_scratch(self):
        """The budget callback lets other threads into the module mid-call
        (here it yields the GIL on every call); with a tiny switch interval
        and more threads than cores every thread's search must still match
        its single-threaded run."""
        import threading
        import time

        class YieldingMVC(MVCFormulation):
            def budget(self, cover_size):
                time.sleep(0)  # hand the GIL to another thread mid-cascade
                return super().budget(cover_size)

        graphs = [phat_complement(50, 3, seed=s) for s in range(4)]

        def solve(g):
            best = BestBound(size=g.n + 1)
            res = branch_and_reduce(g, YieldingMVC(best), kernels="native")
            return best.size, res.nodes_visited

        expected = [solve(g) for g in graphs]
        got = [None] * len(graphs)

        def worker(i):
            got[i] = solve(graphs[i])

        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(len(graphs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(saved)
        assert not any(t.is_alive() for t in threads)
        assert got == expected

    def test_scalar_hint_lists_are_accepted(self):
        """A list hint (the scalar branch step's) seeds the same cascade."""
        g = gnp(60, 0.08, seed=13)
        ws = Workspace.for_graph(g)
        parent = fresh_state(g)
        form = MVCFormulation(BestBound(size=g.n + 1))
        _backend("scalar").cascade(g, parent, form, ws)
        child, _ = _backend("scalar").expand_children(
            g, parent.copy(), max_degree_pivot(parent), ws)
        assert isinstance(child.dirty, list)
        clone = VCState(child.deg.copy(), child.cover_size, child.edge_count,
                        list(child.dirty) + list(child.dirty), child.max_deg_hint)
        ref = _cascade_tuple(g, _reference, state=VCState(
            child.deg.copy(), child.cover_size, child.edge_count, None,
            child.max_deg_hint))
        assert _cascade_tuple(g, _via(_backend("native")), state=clone)[:-1] == ref[:-1]


class TestNativeBoundary:
    """Typed errors, raised before any array is touched."""

    def _args(self, g=None):
        g = g or gnp(30, 0.2, seed=2)
        return g, g.indptr, g.indices, g.degrees.astype(np.int32)

    def _reduce(self, indptr, indices, deg, hint=None):
        return _ext().reduce(indptr, indices, deg, hint, -1, 0, 0,
                             lambda c: 100 - c)

    def test_wrong_dtypes_raise_type_error(self):
        _, indptr, indices, deg = self._args()
        cases = [
            (indptr.astype(np.int32), indices, deg),
            (indptr, indices.astype(np.int64), deg),
            (indptr, indices, deg.astype(np.int64)),
            (indptr, indices, deg.astype(np.float32)),
            (indptr, indices, deg.tolist()),
            (indptr, indices, None),
        ]
        for args in cases:
            with pytest.raises(TypeError):
                self._reduce(*args)

    def test_short_and_malformed_arrays_raise_value_error(self):
        g, indptr, indices, deg = self._args()
        wide = np.zeros(2 * g.n, dtype=np.int32)
        cases = [
            (indptr, indices, deg[:-1].copy()),       # short deg
            (indptr[:-1].copy(), indices, deg),       # short indptr
            (indptr, indices[:-3].copy(), deg),       # indices short of indptr[n]
            (indptr, indices, wide[::2]),             # non-contiguous
            (indptr, indices, np.zeros((g.n, 1), dtype=np.int32)),  # 2-d
        ]
        readonly = deg.copy()
        readonly.flags.writeable = False
        cases.append((indptr, indices, readonly))
        for args in cases:
            with pytest.raises(ValueError):
                self._reduce(*args)

    @pytest.mark.parametrize("bad", (-1, 30, 10 ** 9))
    def test_out_of_range_hint_raises_value_error(self, bad):
        _, indptr, indices, deg = self._args()
        before = deg.copy()
        for hint in (np.array([0, bad], dtype=np.int64), [1, bad]):
            with pytest.raises(ValueError, match="dirty hint entry"):
                self._reduce(indptr, indices, deg, hint)
            assert np.array_equal(deg, before)

    def test_malformed_hint_raises_type_error(self):
        _, indptr, indices, deg = self._args()
        for hint in (np.zeros(3, dtype=np.float64), ["a"], 7):
            with pytest.raises(TypeError):
                self._reduce(indptr, indices, deg, hint)

    def test_expand_children_checks(self):
        g, indptr, indices, deg = self._args()
        ext = _ext()
        out = np.empty(g.n, dtype=np.int32)
        for vmax in (-1, g.n):
            with pytest.raises(ValueError, match="pivot"):
                ext.expand_children(indptr, indices, deg, out, vmax)
        with pytest.raises(ValueError):
            ext.expand_children(indptr, indices, deg, out[:-1], 0)
        with pytest.raises(ValueError, match="alias"):
            ext.expand_children(indptr, indices, deg, deg, 0)
        with pytest.raises(TypeError):
            ext.expand_children(indptr, indices, deg, out.astype(np.int64), 0)

    def test_greedy_checks(self):
        g, indptr, indices, deg = self._args()
        with pytest.raises(TypeError):
            _ext().greedy_cover(indptr, indices, deg.astype(np.int64), g.m)
        with pytest.raises(ValueError):
            _ext().greedy_cover(indptr, indices, deg[:5].copy(), g.m)

    def test_corrupted_checkpoint_hint_is_a_typed_error(self):
        from repro.core.anytime import resume_from
        from repro.core.solver import solve_mvc

        g = phat_complement(44, 3, seed=9)
        outcome = solve_mvc(g, node_budget=20, kernels="native")
        cp = outcome.checkpoint
        assert cp is not None and cp.items
        for bad in (g.n, -5):
            frame, depth = cp.items[0]
            state = VCState.from_wire_v2(frame, g.degrees)
            state.dirty = np.array([0, bad], dtype=np.int64)
            corrupt = Checkpoint.from_bytes(cp.to_bytes())
            corrupt.items = [(state.to_wire_v2(g.degrees), depth)] + list(cp.items[1:])
            corrupt = Checkpoint.from_bytes(corrupt.to_bytes())
            with pytest.raises(ValueError, match="dirty hint entry"):
                resume_from(corrupt, g, kernels="native")


class TestNativeLoader:
    def test_no_compiler_auto_falls_back_silently(self, no_compiler):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            auto = make_kernels("auto")
            assert auto.pick(10, 10) == "scalar"
            assert auto.pick(10 ** 5, 10 ** 6) == "scalar"
            g = gnp(40, 0.1, seed=1)
            assert _cascade_tuple(g, _via(auto)) == _cascade_tuple(g, _reference)
        assert native.load() is None
        assert "no C compiler" in native.load_error()

    def test_no_compiler_native_warns_once_and_degrades(self, no_compiler):
        with pytest.warns(RuntimeWarning, match="degrading to the pure-python 'scalar'"):
            backend = make_kernels("native")
        assert backend.degraded and backend.uses_adjacency(gnp(5, 0.5, seed=1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert make_kernels("native") is backend  # cached: no second warning
            g = gnp(40, 0.1, seed=1)
            assert _cascade_tuple(g, _via(backend)) == _cascade_tuple(g, _reference)
            assert greedy_cover(g, kernels=backend).cover.tolist() == \
                greedy_cover(g, kernels="scalar").cover.tolist()

    def test_source_change_changes_cache_key(self):
        src = native.SOURCE.read_bytes()
        key = native.cache_key(src)
        assert native.cache_key(src) == key and len(key) == 64
        assert native.cache_key(src + b"\n/* edited */\n") != key
        dirs = list(native.cache_dirs(key))
        assert all(d.name == key for d in dirs)

    def test_unwritable_cache_root_falls_back_to_tempdir(self, monkeypatch, tmp_path):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        tmp = tmp_path / "tmp"
        tmp.mkdir()
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp))
        monkeypatch.setattr(native, "_module", native._UNSET)
        module = native.load()
        assert module is not None, native.load_error()
        where = Path(module.__file__)
        assert where.parent.parent == tmp / f"repro-native-{os.getuid()}"
        assert [p.name for p in where.parent.iterdir()] == [where.name]
        for level in (where.parent, where.parent.parent):
            assert stat.S_IMODE(level.stat().st_mode) & 0o077 == 0

    @pytest.mark.parametrize("tamper", (
        None, "foreign owner", "group-writable key dir",
        "other-writable parent", "symlinked object"))
    def test_only_private_cached_objects_are_imported(
            self, monkeypatch, tmp_path, tamper):
        """The tempdir key is computable by anyone: an object planted
        there is imported only when this user owns the whole path."""
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        tmp = tmp_path / "tmp"
        tmp.mkdir()
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        monkeypatch.setattr(tempfile, "tempdir", str(tmp))
        uid = os.getuid() + (1 if tamper == "foreign owner" else 0)
        keydir = (tmp / f"repro-native-{uid}"
                  / native.cache_key(native.SOURCE.read_bytes()))
        keydir.mkdir(parents=True)
        keydir.chmod(0o700)
        keydir.parent.chmod(0o700)
        planted = keydir / ("_native" + native._ext_suffix())
        if tamper == "symlinked object":
            elsewhere = tmp_path / "elsewhere.so"
            elsewhere.write_bytes(b"planted")
            planted.symlink_to(elsewhere)
        else:
            planted.write_bytes(b"planted")
        if tamper == "group-writable key dir":
            keydir.chmod(0o770)
        if tamper == "other-writable parent":
            keydir.parent.chmod(0o703)
        imported = []

        def spy(path):
            imported.append(path)
            raise ImportError("spy")

        monkeypatch.setattr(os, "getuid", lambda: uid)
        monkeypatch.setattr(native, "find_compiler", lambda: None)
        monkeypatch.setattr(native, "_import", spy)
        monkeypatch.setattr(native, "_module", native._UNSET)
        assert native.load() is None
        if tamper is None:  # control: a private object is imported
            assert imported == [planted]
        else:
            assert imported == []
            assert "no C compiler" in native.load_error()

    def test_import_repro_loads_no_extension(self):
        """The codec pair resolves the extension on first use, so a bare
        ``import repro`` builds and imports nothing compiled."""
        code = ("import sys, repro; from repro.core import native; "
                "print(native._module is native._UNSET, "
                "any(m.endswith('_native') for m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True False"

    def test_concurrent_first_builds_both_load(self, tmp_path):
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path / "cache"),
                   PYTHONPATH=str(SRC))
        code = ("from repro.core import native; "
                "print(native.load() is not None, native.load_error())")
        procs = [subprocess.Popen([sys.executable, "-c", code], env=env,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True) for _ in range(2)]
        outs = [p.communicate(timeout=300) for p in procs]
        for p, (out, err) in zip(procs, outs):
            assert p.returncode == 0, err
            assert out.strip() == "True None"
        built = [p for p in (tmp_path / "cache" / "repro-native").rglob("*") if p.is_file()]
        assert len(built) == 1  # one object in place, no temporaries left


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=1, max_value=40).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=150))))
def test_native_mvc_matches_networkx_oracle(case):
    """An oracle this repo did not write: MVC = n - omega(complement)."""
    import networkx as nx

    from repro import solve_mvc

    n, pairs = case
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    g = CSRGraph.from_edges(n, np.array(edges, dtype=np.int64).reshape(-1, 2))
    result = solve_mvc(g, kernels="native", cache=False)
    nxg = nx.Graph()
    nxg.add_nodes_from(range(n))
    nxg.add_edges_from(edges)
    _, omega = nx.algorithms.clique.max_weight_clique(nx.complement(nxg), weight=None)
    assert result.optimum == n - omega
    cover = np.zeros(n, dtype=bool)
    cover[np.asarray(result.cover, dtype=np.int64)] = True
    assert int(cover.sum()) == result.optimum
    assert all(cover[u] or cover[v] for u, v in edges)


# --------------------------------------------------------------------- #
# auto without the extension: scalar at every size
# --------------------------------------------------------------------- #
@pytest.mark.usefixtures("without_native")
class TestAutoDispatch:
    def test_without_extension_auto_is_silent(self):
        """On a host that cannot build the extension ``auto`` takes
        ``scalar`` at every size with no warning, and its cascade is the
        reference's."""
        auto = AutoBackend()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert auto.pick(32, 2000) == "scalar"
            assert auto.pick(10 ** 5, 10 ** 6) == "scalar"
            assert auto.resolved_name(10 ** 5, 10 ** 6) == "auto:scalar"
            g = gnp(40, 0.1, seed=1)
            assert _cascade_tuple(g, _via(auto)) == _cascade_tuple(g, _reference)


def test_bench_provenance_records_backends():
    from repro.analysis.microbench import run_microbench

    payload = run_microbench(repeats=1, target_s=1e-3, kernels="scalar")
    prov = payload["provenance"]["kernel_backends"]
    assert prov  # at least the cascade/solver/greedy cases are stamped
    assert all(v == "scalar" for v in prov.values())
    payload = run_microbench(repeats=1, target_s=1e-3)  # default: auto
    prov = payload["provenance"]["kernel_backends"]
    assert all(v.startswith("auto:") for v in prov.values())


# --------------------------------------------------------------------- #
# stale-binding regression: switches after import steer branching
# --------------------------------------------------------------------- #
class TestStaleBindingRegression:
    def _spy_paths(self, monkeypatch):
        calls = []
        real_scalar = branching._expand_children_scalar
        real_general = branching._expand_children_general

        def spy_scalar(*a, **k):
            calls.append("scalar")
            return real_scalar(*a, **k)

        def spy_general(*a, **k):
            calls.append("general")
            return real_general(*a, **k)

        monkeypatch.setattr(branching, "_expand_children_scalar", spy_scalar)
        monkeypatch.setattr(branching, "_expand_children_general", spy_general)
        return calls

    def _branch_once(self, g, **kw):
        ws = Workspace.for_graph(g)
        parent = fresh_state(g)
        form = MVCFormulation(BestBound(size=g.n + 1))
        make_kernels("scalar").cascade(g, parent, form, ws)
        expand_children(g, parent.copy(), max_degree_pivot(parent), ws, **kw)

    def test_backend_switch_after_import_flips_the_path(self, monkeypatch):
        """The path is the dispatcher's choice, read at call time: the
        very next branch step follows a switch of ``kernels=``, and a
        charged call takes the metered vectorized step."""
        g = gnp(40, 0.15, seed=5)
        calls = self._spy_paths(monkeypatch)
        self._branch_once(g, kernels="scalar")
        assert calls[-1] == "scalar"
        self._branch_once(g, kernels="scalar", charge=lambda kind, units: None)
        assert calls[-1] == "general"
        self._branch_once(g, kernels="scalar")
        assert calls[-1] == "scalar"


# --------------------------------------------------------------------- #
# one-line errors at the user surfaces: CLI and experiment specs
# --------------------------------------------------------------------- #
class TestUserSurfaces:
    def test_solve_rejects_unknown_kernels_one_liner(self, capsys):
        from repro.cli import main

        for name in ("cuda", "numpy"):  # numpy: the retired third tier
            rc = main(["solve", "--graph", "p_hat_300_1", "--scale", "tiny",
                       "--kernels", name])
            assert rc == 2
            out = capsys.readouterr()
            msg = (out.err or out.out).strip()
            assert msg.startswith("error:")
            assert f"unknown kernels {name!r}" in msg
            assert "choose from:" in msg
            assert "\n" not in msg

    def test_bench_rejects_unknown_kernels_one_liner(self, capsys, tmp_path):
        from repro.cli import main

        for name in ("cuda", "numpy"):
            rc = main(["bench", "--repeats", "1", "--out",
                       str(tmp_path / "b.json"), "--kernels", name])
            assert rc == 2
            out = capsys.readouterr()
            msg = (out.err or out.out).strip()
            assert f"unknown kernels {name!r}" in msg and "choose from:" in msg

    def test_solve_accepts_explicit_backend(self, capsys):
        from repro.cli import main

        assert main(["solve", "--graph", "p_hat_300_1", "--scale", "tiny",
                     "--engine", "sequential", "--kernels", "scalar"]) == 0
        assert "minimum vertex cover size" in capsys.readouterr().out

    def test_spec_validates_kernels_axis(self):
        from repro.experiment.spec import ExperimentSpec, InstanceRef

        def spec(**kw):
            return ExperimentSpec(name="t", scale="tiny",
                                  instances=[InstanceRef(suite="p_hat_300_1")],
                                  engines=("sequential",), **kw)

        spec(kernels="scalar").validate()
        for name in ("cuda", "numpy"):
            with pytest.raises(ValueError, match=f"unknown kernels '{name}'"):
                spec(kernels=name).validate()

    def test_spec_kernels_roundtrips_and_stays_fingerprint_neutral(self):
        from repro.experiment.spec import ExperimentSpec, InstanceRef

        base = dict(name="t", scale="tiny",
                    instances=[InstanceRef(suite="p_hat_300_1")],
                    engines=("sequential",))
        with_kernels = ExperimentSpec(kernels="scalar", **base)
        without = ExperimentSpec(**base)
        # round-trip preserves the knob; None is omitted from the dict
        assert ExperimentSpec.from_dict(with_kernels.to_dict()).kernels == "scalar"
        assert "kernels" not in without.to_dict()
        # bit-identical backends: the knob must not invalidate cached cells
        assert with_kernels.cell_config() == without.cell_config()

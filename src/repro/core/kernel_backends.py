"""Pluggable kernel backends: the ``KERNELS`` dispatch registry.

The reduction cascade, the branch-step expansion, and the greedy bound —
the three call families ``BENCH_micro.json`` tracks — sit behind one
dispatch object, mirroring the other three orthogonal registries
(ENGINES × FRONTIERS × BOUNDS).  There are two kernel tiers:

* ``native`` — the kernels compiled from ``core/_native.c`` as a
  CPython extension, built with the system C compiler on first use and
  cached (:mod:`repro.core.native`), plus :meth:`KernelBackend.search`
  and :meth:`KernelBackend.walker`, the whole sequential depth-first
  loop in C (run once, or resumed in chunks).  Without a compiler it degrades
  *loudly* — one structured :class:`RuntimeWarning` — to ``scalar``;
* ``scalar`` — the same kernels in pure Python, loop for loop (any
  graph size): the fallback tier, and the interpreted twin every
  compiled counter is checked against;
* ``auto``   — ``native`` whenever the extension loads, else ``scalar``,
  silently and whatever the graph size.

Equivalence contract: every registered backend reaches the **bit-identical
fixpoint** of :func:`repro.core.reductions.apply_reductions_reference` —
same ``deg`` array, ``cover_size``, ``edge_count``, reduction counters and
dirty-hint consumption — so sim charge streams and the Table I numbers
are frozen whatever backend a run selects (property-tested in
``tests/test_kernel_backends.py``).

Charged (cost-model) runs are backend-independent by construction: the
shared :meth:`KernelBackend.cascade` entry hands any charged call to the
reference rules, whose full-rescan charge stream is the paper's work
meter and must not depend on state provenance or backend choice.

Adding a backend (mirroring the frontier/bound how-tos):

1. subclass :class:`KernelBackend`, implement ``reduce`` /
   ``expand_children`` / ``greedy_cover`` (and ``uses_adjacency`` if the
   implementation walks cached adjacency tuples; ``search`` and
   ``walker`` only if it can run the whole depth-first loop itself);
2. register a zero-argument factory in :data:`KERNELS`;
3. add the backend to the equivalence matrix in
   ``tests/test_kernel_backends.py`` — the property tests are the
   admission gate, not a convention.
"""

from __future__ import annotations

import warnings
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.degree_array import VCState, Workspace
from .formulation import Formulation
from .stats import ChargeFn, ReductionCounters, null_charge
from . import kernels as _kernels
from . import native
from .kernels import _apply_reductions_scalar
from .reductions import apply_reductions_reference

__all__ = [
    "KernelBackend",
    "ScalarBackend",
    "NativeBackend",
    "AutoBackend",
    "KERNELS",
    "DEFAULT_KERNELS",
    "make_kernels",
    "resolve_kernels",
]


class KernelBackend:
    """One implementation of the solver's three kernel call families.

    The shared :meth:`cascade` entry owns the cross-backend contract —
    dirty-hint consumption and the hand-off of charged runs to the
    reference rules — so a backend only implements the uncharged hot
    paths: :meth:`reduce`, :meth:`expand_children` and
    :meth:`greedy_cover`.
    """

    #: Registry name; set by subclasses.
    name: str = "?"

    # ------------------------------------------------------------------ #
    # shared entry: hint consumption + charged-run routing
    # ------------------------------------------------------------------ #
    def cascade(
        self,
        graph: CSRGraph,
        state: VCState,
        formulation: Formulation,
        ws: Optional[Workspace] = None,
        charge: ChargeFn = null_charge,
        counters: Optional[ReductionCounters] = None,
    ) -> None:
        """Run the reduction cascade to its fixpoint (Fig. 1's ``reduce``).

        The state's ``dirty`` hint (populated by ``expand_children`` with
        the branch step's touched vertices) seeds the cascade's worklists;
        it is consumed here — cleared before the cascade runs — so it can
        never go stale on a reduced state.  Charged runs take the
        reference rules (:func:`apply_reductions_reference`) with a full
        rescan: the work stream must not depend on state provenance or
        on the backend a run selected.
        """
        if charge is not null_charge:
            apply_reductions_reference(graph, state, formulation, ws, charge, counters)
            return
        hint = state.dirty
        if hint is not None:
            state.dirty = None
        self.reduce(graph, state, formulation, ws, counters, hint)

    # ------------------------------------------------------------------ #
    # backend-specific hot paths
    # ------------------------------------------------------------------ #
    def reduce(
        self,
        graph: CSRGraph,
        state: VCState,
        formulation: Formulation,
        ws: Optional[Workspace],
        counters: Optional[ReductionCounters],
        hint,
    ) -> None:
        """Uncharged cascade body; ``hint`` is the consumed dirty set."""
        raise NotImplementedError

    def expand_children(
        self, graph: CSRGraph, state: VCState, vmax: int, ws: Workspace
    ) -> Tuple[VCState, VCState]:
        """Uncharged branch step (deferred, continued) — Fig. 4 order."""
        raise NotImplementedError

    def greedy_cover(self, graph: CSRGraph, ws: Optional[Workspace] = None):
        """The greedy upper-bound pass (paper Section II-B)."""
        raise NotImplementedError

    def search(self, graph: CSRGraph, items, kind: str, bound: int,
               node_budget: Optional[int]):
        """The whole depth-first loop in compiled code, or ``None``.

        Only ``native`` implements it (``_native.c``'s ``search``; see
        :func:`repro.core.sequential.branch_and_reduce` for when it is
        used); call it on the backend :meth:`bind` returns.  ``None``
        tells the caller to run the interpreted loop.
        """
        return None

    def walker(self, graph: CSRGraph, kind: str):
        """A compiled depth-first ``Walker`` on ``graph``, or ``None``.

        The loop :meth:`search` runs once, on a stack that persists
        across calls (``_native.c``'s ``Walker``; see
        :class:`repro.core.sequential.ChunkWalk`).  Only ``native``
        implements it; call it on the backend :meth:`bind` returns.
        """
        return None

    def bind(self, n: int, m: int) -> "KernelBackend":
        """The concrete backend that runs a size-(n, m) graph's kernels.

        Identity for concrete backends; ``auto`` resolves its pick once,
        so a per-graph hot loop does not dispatch per call.
        """
        return self

    def uses_adjacency(self, graph: CSRGraph) -> bool:
        """Whether this backend walks cached adjacency tuples on ``graph``.

        The CPU engines' prewarm consults this to decide which graph
        caches to build before starting workers.
        """
        raise NotImplementedError

    def resolved_name(self, n: int, m: int) -> str:
        """The backend that would actually run a size-(n, m) cascade.

        Identity for concrete backends; ``auto`` reports its pick
        (``auto:scalar``).  Recorded as per-case provenance by
        ``repro bench``.
        """
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<KernelBackend {self.name}>"


class ScalarBackend(KernelBackend):
    """The pure-Python kernels (any graph size): the fallback tier."""

    name = "scalar"

    def reduce(self, graph, state, formulation, ws, counters, hint):
        _apply_reductions_scalar(graph, state, formulation, counters, hint)

    def expand_children(self, graph, state, vmax, ws):
        from .branching import _expand_children_scalar

        return _expand_children_scalar(graph, state, vmax, ws)

    def greedy_cover(self, graph, ws=None):
        from .greedy import _greedy_cover_scalar

        return _greedy_cover_scalar(graph)

    def uses_adjacency(self, graph):
        return True


# --------------------------------------------------------------------- #
# native: the scalar kernels compiled as a CPython extension
# --------------------------------------------------------------------- #

class NativeBackend(KernelBackend):
    """The scalar backend's three kernels, compiled (``core/_native.c``).

    The extension is built on first use by :mod:`repro.core.native` and
    cached per source/ABI; arrays cross as buffers, results come back as
    int tuples, and the dirty hints as exact-size int64 arrays.  Without
    a compiler (or on any build failure) an explicitly requested
    ``native`` degrades loudly — one :class:`RuntimeWarning` per process,
    since registry instances are cached — to the ``scalar`` kernels.
    """

    name = "native"

    def __init__(self) -> None:
        self._ext = native.load()
        #: True when the extension is unavailable and every call runs scalar.
        self.degraded = self._ext is None
        if self.degraded:
            warnings.warn(
                "kernels backend 'native' requested but the compiled "
                f"extension is unavailable ({native.load_error()}); "
                "degrading to the pure-python 'scalar' kernels.",
                RuntimeWarning,
                stacklevel=2,
            )

    def reduce(self, graph, state, formulation, ws, counters, hint):
        if self._ext is None:
            _apply_reductions_scalar(graph, state, formulation, counters, hint)
            return
        (state.cover_size, state.edge_count, state.max_deg_hint,
         c1, c2, ch, sweeps) = self._ext.reduce(
            graph.indptr, graph.indices, state.deg, hint, state.max_deg_hint,
            state.cover_size, state.edge_count, formulation.budget)
        if counters is not None:
            counters.degree_one += c1
            counters.degree_two_triangle += c2
            counters.high_degree += ch
            counters.sweeps += sweeps

    def expand_children(self, graph, state, vmax, ws):
        if self._ext is None:
            from .branching import _expand_children_scalar

            return _expand_children_scalar(graph, state, vmax, ws)
        buf = ws.borrow_deg()
        deleted, n_live, hint_def, hint_cont = self._ext.expand_children(
            graph.indptr, graph.indices, state.deg, buf, vmax)
        deferred = VCState(buf, state.cover_size + n_live,
                           state.edge_count - deleted, hint_def,
                           state.max_deg_hint)
        state.edge_count -= n_live
        state.cover_size += 1
        state.dirty = hint_cont
        return deferred, state

    def greedy_cover(self, graph, ws=None):
        from .greedy import GreedyResult, _greedy_cover_scalar

        if self._ext is None:
            return _greedy_cover_scalar(graph)
        deg = graph.degrees.astype(np.int32)
        size, picks, c1, c2, ch = self._ext.greedy_cover(
            graph.indptr, graph.indices, deg, graph.m)
        return GreedyResult(
            size=size,
            cover=np.flatnonzero(deg == _kernels.REMOVED).astype(np.int32),
            max_degree_picks=picks,
            reductions=ReductionCounters(degree_one=c1, degree_two_triangle=c2,
                                         high_degree=ch),
        )

    def search(self, graph, items, kind, bound, node_budget):
        if self._ext is None:
            return None
        return self._ext.search(graph.indptr, graph.indices, items, kind,
                                bound, node_budget)

    def walker(self, graph, kind):
        if self._ext is None:
            return None
        return self._ext.Walker(graph.indptr, graph.indices, kind)

    def uses_adjacency(self, graph):
        # The compiled kernels walk the CSR arrays directly.
        return self._ext is None


class AutoBackend(KernelBackend):
    """The compiled tier when it loads, else the interpreted one.

    :meth:`pick` chooses ``native`` at every size whenever the compiled
    extension loads (it beats ``scalar`` at every measured size), and
    falls back, silently, to ``scalar`` otherwise.  The graph size plays
    no part; ``(n, m)`` stay in the signatures for the callers that
    bind once per graph.
    """

    name = "auto"

    def pick(self, n: int, m: int) -> str:
        """The concrete backend name for a size-(n, m) graph."""
        return "native" if native.load() is not None else "scalar"

    def _picked(self, n: int, m: int) -> KernelBackend:
        name = self.pick(n, m)
        return _INSTANCES.get(name) or make_kernels(name)

    def bind(self, n: int, m: int) -> KernelBackend:
        return self._picked(n, m)

    def resolved_name(self, n: int, m: int) -> str:
        return f"auto:{self.pick(n, m)}"

    def reduce(self, graph, state, formulation, ws, counters, hint):
        self._picked(state.deg.size, graph.m).reduce(
            graph, state, formulation, ws, counters, hint
        )

    def expand_children(self, graph, state, vmax, ws):
        return self._picked(graph.n, graph.m).expand_children(graph, state, vmax, ws)

    def greedy_cover(self, graph, ws=None):
        return self._picked(graph.n, graph.m).greedy_cover(graph, ws)

    def uses_adjacency(self, graph):
        return self._picked(graph.n, graph.m).uses_adjacency(graph)


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #

#: Backend name -> zero-argument factory, mirroring BOUNDS / FRONTIERS.
KERNELS: Dict[str, Callable[[], KernelBackend]] = {
    "scalar": ScalarBackend,
    "native": NativeBackend,
    "auto": AutoBackend,
}

#: The registry's default selection when a caller passes ``None``.
DEFAULT_KERNELS = "auto"

_INSTANCES: Dict[str, KernelBackend] = {}


def make_kernels(name: str) -> KernelBackend:
    """The (cached, process-wide) backend instance for ``name``.

    Backends are stateless, so one instance per name is shared by every
    consumer.
    """
    if name not in KERNELS:
        raise ValueError(
            f"unknown kernels {name!r}; choose from: {', '.join(sorted(KERNELS))}"
        )
    inst = _INSTANCES.get(name)
    if inst is None:
        inst = _INSTANCES[name] = KERNELS[name]()
    return inst


def resolve_kernels(
    kernels: Union[KernelBackend, str, None] = None,
) -> KernelBackend:
    """Normalize a backend selection: instance, registry name, or None."""
    if kernels is None:
        return make_kernels(DEFAULT_KERNELS)
    if isinstance(kernels, KernelBackend):
        return kernels
    return make_kernels(kernels)

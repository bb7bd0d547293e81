"""Solve outcomes: the one result type, its finisher, and checkpoints.

Every engine behind the solve facade (:mod:`repro.core.solver`) returns
a :class:`SolveOutcome`, built by :func:`finish_outcome` from the
engine's raw facts.  The finisher checks the returned cover at this
boundary and, only when a budget or deadline interrupted the run,
derives an admissible lower bound and a resumable frontier.  This
module defines the two artifacts:

* :class:`SolveOutcome` — the structured result.  ``status`` encodes the
  claim strength:

  - ``optimal`` — the answer is proven: the traversal completed, or the
    lower bound closed the gap on an interrupted MVC solve, or an
    interrupted PVC solve's bound exceeds ``k`` (no ``<= k`` cover can
    exist) or a ``<= k`` cover was found (PVC stops at its first cover,
    so a found cover is definitive).
  - ``feasible`` — the wall-clock deadline tripped with a certified
    cover in hand (MVC always has one: the greedy incumbent); the gap
    is open and ``checkpoint`` resumes the search.
  - ``bound_only`` — the deadline tripped with no cover within the
    formulation's constraint (an undetermined PVC); the lower bound and
    checkpoint still stand.
  - ``budget_exhausted`` — the ``node_budget`` (not the deadline)
    tripped; same payload as the two cases above, distinguished so a
    service can tell "out of time" from "hit the per-request node cap".

* :class:`Checkpoint` — the serialized frontier: every pending tree node
  as a codec-v2 frame against the graph's root degrees (the one state
  codec, :func:`~repro.graph.degree_array.state_codec`), plus the
  incumbent and the graph's fingerprint, which refuses a resume against
  any other graph: a delta frame decoded against another graph's degrees
  describes a state of neither.  ``resume_from(checkpoint)`` on any
  engine provably reaches the uninterrupted optimum: the explored region
  was pruned only against incumbents the checkpoint carries, so the
  pending subtrees plus the incumbent dominate the whole tree.

The lower bound is the B&B invariant: every cover the *remaining* search
could still produce costs at least ``min over pending nodes of
|S| + bound.lower_bound(state)``; for MVC — where pruning is exhaustive
against the incumbent — the minimum of that and the incumbent size
lower-bounds the global optimum (property-tested against the brute-force
oracle).  For an undetermined PVC it bounds any ``<= k`` cover the
search could still find; a bound exceeding ``k`` is an infeasibility
proof.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.degree_array import VCState, state_codec
from ..graph.fingerprint import graph_fingerprint
from .bounds import BoundPolicy, make_bound
from .strict_pickle import strict_loads
from .verify import assert_valid_cover

__all__ = [
    "STATUSES",
    "Checkpoint",
    "SolveOutcome",
    "finish_outcome",
    "frontier_lower_bound",
    "classify_status",
]

#: Legal ``SolveOutcome.status`` values, strongest claim first.
STATUSES = ("optimal", "feasible", "bound_only", "budget_exhausted")

#: Serialization format tag (bump on layout change).
CHECKPOINT_VERSION = 2

#: Payload fields and the types :meth:`Checkpoint.from_payload` accepts
#: (``best_cover`` travels as int32 bytes).
_OPT_INT = (int, type(None))
_FIELDS = {
    "formulation": str, "engine": str, "bound": str, "frontier": (str, type(None)),
    "k": _OPT_INT, "n": int, "m": int, "graph_fp": str, "best_size": _OPT_INT,
    "best_cover": (bytes, type(None)), "nodes_visited": int, "items": list,
}


@dataclass
class Checkpoint:
    """A serialized search frontier: everything a resume needs.

    ``items`` are ``(frame, depth)`` pairs — each pending tree node as a
    codec-v2 frame against the root degrees of the graph ``graph_fp``
    names, carrying every cross-node field (degree array, ``|S|``,
    ``|E|``, dirty hint, max-degree hint).  ``depth`` is the node's
    ancestry depth below the leg's roots where the interrupted engine
    tracked it (the sequential solver does; the parallel engines record
    0 — depth only feeds traversal statistics, never correctness).
    """

    formulation: str                      # "mvc" | "pvc"
    engine: str
    bound: str
    frontier: Optional[str]
    k: Optional[int]
    n: int
    m: int
    graph_fp: str
    best_size: Optional[int]
    best_cover: Optional[np.ndarray]
    nodes_visited: int
    items: List[Tuple[bytes, int]] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # content
    # ------------------------------------------------------------------ #
    def states(self, graph: CSRGraph) -> List[Tuple[VCState, int]]:
        """Decode the pending nodes against ``graph``, which
        :meth:`validate_graph` accepts (fresh buffers); a malformed frame
        raises ``ValueError``."""
        _, decode = state_codec(graph.degrees)
        return [(decode(frame), depth) for frame, depth in self.items]

    def validate_graph(self, graph: CSRGraph) -> None:
        """Refuse to resume against a graph this frontier does not describe."""
        fp = graph_fingerprint(graph)
        if fp != self.graph_fp:
            raise ValueError(
                f"checkpoint was taken on graph {self.graph_fp[:12]} (n={self.n}, "
                f"m={self.m}); resume target is graph {fp[:12]} (n={graph.n}, "
                f"m={graph.m})"
            )

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_payload(self) -> Dict[str, object]:
        payload = {key: getattr(self, key) for key in _FIELDS}
        payload.update(version=CHECKPOINT_VERSION, items=list(self.items))
        if self.best_cover is not None:
            payload["best_cover"] = np.asarray(self.best_cover, dtype=np.int32).tobytes()
        return payload

    @classmethod
    def from_payload(cls, payload: object) -> "Checkpoint":
        """Rebuild a checkpoint from :meth:`to_payload`'s dict; anything
        else — another version, a missing key, a field of the wrong type,
        an item that is not a ``(frame, depth)`` pair — is a ``ValueError``."""
        if not isinstance(payload, dict):
            raise ValueError("checkpoint blob does not decode to a payload dict")
        if payload.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {payload.get('version')!r} "
                             f"(expected {CHECKPOINT_VERSION})")
        for key, types in _FIELDS.items():
            if not isinstance(payload.get(key, ...), types):
                raise ValueError(f"checkpoint payload: {key!r} is missing or mistyped")
        fields = {key: payload[key] for key in _FIELDS}
        fields["items"] = items = list(fields["items"])
        if any(type(item) is not tuple or len(item) != 2 or type(item[0]) is not bytes
               or type(item[1]) is not int for item in items):
            raise ValueError("checkpoint payload: items are not (frame, depth) pairs")
        cover = fields["best_cover"]
        if cover is not None:  # a ragged length is a ValueError
            fields["best_cover"] = np.frombuffer(cover, dtype=np.int32).copy()
        return cls(**fields)

    def to_bytes(self) -> bytes:
        return pickle.dumps(self.to_payload(), protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Checkpoint":
        """Load :meth:`to_bytes`'s blob; any malformed input is a ``ValueError``
        (the blob is loaded with no pickle globals)."""
        return cls.from_payload(strict_loads(blob))

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_bytes(self.to_bytes())
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Checkpoint":
        return cls.from_bytes(Path(path).read_bytes())


@dataclass
class SolveOutcome:
    """The one result every engine and the facade return (module docstring).

    ``optimum`` is the cover size found (for PVC, the witness size, or
    ``None`` when no ``<= k`` cover was found); ``cover`` certifies it.
    ``feasible`` is ``None`` for MVC and, for PVC, ``True`` (witness
    found), ``False`` (refuted) or ``None`` (undetermined).  ``timed_out``
    says the node budget or the deadline interrupted the run, and
    ``deadline_tripped`` that it was the deadline.  ``comms`` and
    ``supervision`` are the worker pool's counters (``None`` elsewhere);
    ``stats`` is the engine's own detail: the sequential
    :class:`~repro.core.stats.SearchStats`, a simulated engine's
    :class:`~repro.engines.base.LaunchReport`, or the per-component
    outcomes of a component-wise MVC solve.
    """

    status: str
    formulation: str
    engine: str
    optimum: Optional[int]
    cover: Optional[np.ndarray]
    feasible: Optional[bool] = None
    lower_bound: Optional[int] = None
    nodes_visited: int = 0
    timed_out: bool = False
    deadline_tripped: bool = False
    wall_seconds: float = 0.0
    checkpoint: Optional[Checkpoint] = None
    k: Optional[int] = None
    comms: Optional[Dict[str, object]] = None
    supervision: Optional[Dict[str, float]] = None
    stats: Any = None

    @property
    def complete(self) -> bool:
        return self.status == "optimal"

    @property
    def resumable(self) -> bool:
        return self.checkpoint is not None and bool(self.checkpoint.items)


def finish_outcome(
    graph: CSRGraph,
    k: Optional[int],
    *,
    engine: str,
    cover: Optional[np.ndarray],
    size: Optional[int] = None,
    interrupted: bool = False,
    deadline_tripped: bool = False,
    nodes: int = 0,
    pending: Sequence[Tuple[VCState, int]] = (),
    bound: Union[BoundPolicy, str] = "greedy",
    frontier: Optional[str] = None,
    wall_seconds: float = 0.0,
    stats: Any = None,
    comms: Optional[Dict[str, object]] = None,
    supervision: Optional[Dict[str, float]] = None,
    checked: bool = False,
) -> SolveOutcome:
    """Build the outcome of one solve from an engine's raw facts.

    ``k`` is ``None`` for MVC.  ``cover`` is the incumbent (MVC) or the
    witness (PVC; ``None`` when none was found) and ``size`` the size the
    engine claims for it (default: its length).  The cover is checked at
    this boundary (:func:`~repro.core.verify.assert_valid_cover`: exact
    size, distinct in-range vertices, every edge covered, at most ``k``)
    unless ``checked`` says the caller already did; a bad one raises
    :class:`~repro.core.verify.CertificateError`.

    An interrupted run's ``pending`` ``(state, depth)`` items become the
    admissible lower bound (under ``bound``) and the :class:`Checkpoint`.
    A complete run needs neither, so it calls no bound policy and no
    codec; nor does an interrupted one with nothing pending, whose tree
    is exhausted (a PVC search without a witness is then refuted).
    """
    formulation = "mvc" if k is None else "pvc"
    if cover is not None:
        size = len(cover) if size is None else int(size)
        if not checked:
            assert_valid_cover(graph, cover, expected_size=size, k=k)
    found = cover is not None
    checkpoint = None
    if not interrupted or not pending:  # nothing left unexplored: complete
        lower = size if formulation == "mvc" else (None if found else k + 1)
        status = "optimal"
    else:
        policy = make_bound(bound, graph) if isinstance(bound, str) else bound
        lower = frontier_lower_bound(graph, [state for state, _ in pending], policy,
                                     size if formulation == "mvc" else None)
        status = classify_status(
            interrupted=True, trigger="deadline" if deadline_tripped else "node_budget",
            formulation=formulation, has_cover=found, optimum=size,
            lower_bound=lower, k=k)
        encode, _ = state_codec(graph.degrees)
        checkpoint = Checkpoint(
            formulation=formulation, engine=engine, bound=policy.name,
            frontier=frontier, k=None if k is None else int(k), n=graph.n,
            m=graph.m, graph_fp=graph_fingerprint(graph), best_size=size,
            best_cover=cover, nodes_visited=int(nodes),
            items=[(encode(state), int(depth)) for state, depth in pending])
    feasible = None  # MVC; PVC: found, refuted, or (interrupted) undetermined
    if formulation == "pvc":
        feasible = True if found else (False if status == "optimal" else None)
    return SolveOutcome(
        status=status, formulation=formulation, engine=engine,
        optimum=size if found else None, cover=cover,
        feasible=feasible,
        lower_bound=lower, nodes_visited=int(nodes), timed_out=interrupted,
        deadline_tripped=deadline_tripped, wall_seconds=wall_seconds,
        checkpoint=checkpoint, k=k, comms=comms, supervision=supervision,
        stats=stats)


def frontier_lower_bound(
    graph: CSRGraph,
    pending: Sequence[VCState],
    bound: Union[BoundPolicy, str],
    incumbent: Optional[int],
) -> Optional[int]:
    """Admissible lower bound on the best cover this search can produce.

    ``min(incumbent, min over pending of |S| + lower_bound(state))`` —
    the B&B invariant: every leaf still reachable lies below a pending
    node, and the bound policy's ``lower_bound`` is admissible for the
    remaining subgraph.  With an empty frontier the incumbent *is* the
    answer; with neither, nothing can be claimed (returns ``None``).
    """
    if isinstance(bound, str):
        bound = make_bound(bound, graph)
    candidates: List[int] = [] if incumbent is None else [int(incumbent)]
    for state in pending:
        candidates.append(state.cover_size + int(bound.lower_bound(state)))
    return min(candidates) if candidates else None


def classify_status(
    *,
    interrupted: bool,
    trigger: Optional[str],
    formulation: str,
    has_cover: bool,
    optimum: Optional[int],
    lower_bound: Optional[int],
    k: Optional[int] = None,
) -> str:
    """Map one solve's facts onto the four-status ladder (module docstring).

    ``trigger`` names what stopped an interrupted run: ``"deadline"`` or
    ``"node_budget"``.
    """
    if not interrupted:
        return "optimal"
    if formulation == "mvc":
        if (
            lower_bound is not None and optimum is not None
            and lower_bound >= optimum
        ):
            return "optimal"  # the bound closed the gap mid-flight
    else:
        if has_cover:
            return "optimal"  # PVC: any found cover answers the query
        if lower_bound is not None and k is not None and lower_bound > k:
            return "optimal"  # proven infeasible without finishing
    if trigger == "node_budget":
        return "budget_exhausted"
    return "feasible" if has_cover else "bound_only"

"""Declarative experiment specs: the grid an experiment runs over.

An :class:`ExperimentSpec` is a plain JSON-able description of a
cartesian experiment — engines × frontier policies × bound policies ×
instances × instance types × repeats, plus the shared budgets and
engine parameter grids — validated against the live registries
(``ENGINES`` from :mod:`repro.core.solver`, ``FRONTIERS`` from
:mod:`repro.core.frontier`, ``BOUNDS`` from :mod:`repro.core.bounds`,
the evaluation suite, the Table I instance types), so a typo fails at
spec load with a one-line error naming the legal values, not half-way
through a sweep.

Two engine families are selectable: the virtually priced engines
(:data:`EXPERIMENT_ENGINES` — sequential + the simulated-GPU programs,
reporting virtual ``seconds``/``cycles``) and the real ``cpu-*`` teams
(:data:`WALL_CLOCK_ENGINES`), which run in *wall-clock mode*: their
cells store ``wall_seconds`` (and null virtual ``seconds``/``cycles``),
and live verification compares only their deterministic fields.

Identity is content-addressed at two levels:

* :func:`spec_hash` — SHA-256 over the spec's canonical JSON; the run id
  of a spec's run directory is derived from it, which is what makes
  ``repro experiment run`` on an unchanged spec a *resume*.
* :func:`cell_fingerprint` — SHA-256 over one cell's payload (instance,
  engine, frontier, type, k, repeat, config) combined with
  :func:`graph_fingerprint` (SHA-256 over the instance's CSR arrays;
  it and :func:`canonical_json` live in :mod:`repro.graph.fingerprint`
  and are re-exported here).
  A completed cell is skipped on re-run iff its fingerprint matches,
  so editing the spec — or the graph generator — invalidates exactly
  the cells whose results could change.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.solver import ENGINES, POOL_ENGINES
from ..graph.fingerprint import canonical_json, graph_fingerprint

__all__ = [
    "SPEC_SCHEMA_VERSION",
    "EXPERIMENT_ENGINES",
    "WALL_CLOCK_ENGINES",
    "InstanceRef",
    "CellSpec",
    "ExperimentSpec",
    "load_spec",
    "spec_hash",
    "canonical_json",
    "graph_fingerprint",
    "cell_fingerprint",
]

#: Bump when the spec layout changes (documented in docs/EXPERIMENTS.md).
SPEC_SCHEMA_VERSION = 1

#: Engines the experiment layer can price in virtual seconds — the
#: sequential baseline plus the simulated-GPU engines (the engine table's
#: rows without a worker pool).
EXPERIMENT_ENGINES: Tuple[str, ...] = tuple(e for e in ENGINES if e not in POOL_ENGINES)

#: The engines with a worker pool, runnable in wall-clock mode: their
#: cells carry ``wall_seconds`` only (virtual ``seconds``/``cycles`` stay
#: null) and they never join the Table I virtual-seconds columns.
WALL_CLOCK_ENGINES: Tuple[str, ...] = POOL_ENGINES

#: Simulated devices selectable from a spec.
SPEC_DEVICES: Tuple[str, ...] = ("SmallSim", "TinySim")


def resolve_spec_device(name: str):
    """The :class:`~repro.sim.device.DeviceSpec` behind a spec device name."""
    from ..sim.device import SMALL_SIM, TINY_SIM

    return {"SmallSim": SMALL_SIM, "TinySim": TINY_SIM}[name]


#: SHA-256 of the pricing every stored cell so far was made with: the
#: parameters of ``CostModel()`` and of the sequential cells' CPU
#: ``EPYC_LIKE``.  While the code's pricing hashes to it, cells leave it
#: out of their fingerprints (the committed runs keep their keys); a
#: retune of either changes the digest and every cell fingerprint with it.
KEYED_PRICING = "cfba19ce5c11a0d0ef902f63e4e26c82d69e25b6c8523bfcb5c4cfc18365c197"


def _one_line_choice_error(kind: str, got: object, choices: Sequence[str]) -> ValueError:
    return ValueError(f"unknown {kind} {got!r}; choose from: {', '.join(choices)}")


@dataclass(frozen=True)
class InstanceRef:
    """One evaluation instance: a suite member or an on-disk graph file."""

    suite: Optional[str] = None   # suite instance name (resolved at spec scale)
    path: Optional[str] = None    # metis/.graph, dimacs/.col/.clq, else edge list

    def __post_init__(self) -> None:
        if (self.suite is None) == (self.path is None):
            raise ValueError(
                "instance must be exactly one of a suite name or {'path': ...}: "
                f"got suite={self.suite!r} path={self.path!r}"
            )

    @property
    def label(self) -> str:
        return self.suite if self.suite is not None else Path(self.path).stem  # type: ignore[arg-type]

    def to_json(self) -> object:
        return self.suite if self.suite is not None else {"path": self.path}

    @classmethod
    def from_json(cls, obj: object) -> "InstanceRef":
        if isinstance(obj, str):
            return cls(suite=obj)
        if isinstance(obj, dict) and set(obj) == {"path"}:
            return cls(path=str(obj["path"]))
        raise ValueError(
            f"instance must be a suite name or {{'path': ...}}, got {obj!r}"
        )


@dataclass(frozen=True)
class CellSpec:
    """One expanded grid cell (k still unresolved: it needs the optimum)."""

    instance: InstanceRef
    engine: str
    frontier: Optional[str]   # sequential engine only; None otherwise
    bound: str                # BOUNDS registry name (every engine)
    instance_type: str
    repeat: int
    #: wall-clock engines only; ``None`` means the spec's ``cpu_workers``
    #: scalar (the pre-axis behaviour, kept for fingerprint stability).
    workers: Optional[int] = None
    #: distributed engine only: extra localhost ``serve-worker`` processes.
    hosts: int = 0


@dataclass
class ExperimentSpec:
    """A declarative experiment: axes, budgets and engine parameter grids."""

    name: str
    scale: str = "tiny"
    device: str = "SmallSim"
    instances: List[InstanceRef] = field(default_factory=list)
    engines: Tuple[str, ...] = ("sequential", "hybrid")
    #: frontier axis; pairs with the sequential engine only.
    frontiers: Tuple[str, ...] = ("lifo",)
    #: bound-policy axis; pairs with *every* engine (BOUNDS registry).
    bounds: Tuple[str, ...] = ("greedy",)
    instance_types: Tuple[str, ...] = ("mvc",)
    repeats: int = 1
    seed: int = 0
    virtual_budget_s: float = 0.01
    seq_node_guard: int = 4000
    engine_node_guard: int = 2500
    stackonly_depths: Tuple[int, ...] = (4,)
    hybrid_capacities: Tuple[int, ...] = (256,)
    hybrid_fractions: Tuple[float, ...] = (0.25,)
    #: worker-team width for the wall-clock ``cpu-*`` engines.
    cpu_workers: int = 2
    #: worker-count *axis* for the wall-clock engines: one cell per value.
    #: Empty means "just ``cpu_workers``" — the pre-axis behaviour, and
    #: the one that keeps old stores' fingerprints resumable.
    workers: Tuple[int, ...] = ()
    #: distributed engine only: axis of extra localhost ``serve-worker``
    #: processes joined over the socket transport (0 = none).
    hosts: Tuple[int, ...] = (0,)
    #: optional KERNELS registry name forced on the wall-clock ``cpu-*``
    #: engines (``None``: the default dispatcher, ``auto``).  Backends are
    #: bit-identical by contract, so this is excluded from cell
    #: fingerprints.
    kernels: Optional[str] = None
    #: wall-clock guard per cell: a cell that exceeds it is terminated and
    #: (after ``cell_retries``) quarantined with an ``error`` record.
    #: ``None`` disables the guard.  Execution policy, not result content —
    #: excluded from fingerprints, so tightening it never invalidates cells.
    cell_timeout_s: Optional[float] = None
    #: persist an ``obs`` snapshot per cell (sim cells: predicted cycles
    #: by activity kind; wall cells: traced, span self-time in wall
    #: seconds by kind) for the report's predicted-vs-measured table.
    #: Observation, not result content — excluded from fingerprints, like
    #: ``kernels``, so toggling it never invalidates cells.
    telemetry: bool = False
    #: optional solve-cache store path armed inside wall-clock cells.  A
    #: cache hit returns the stored, verified certificate — same optimum
    #: and cover as the cold solve — so this is execution policy, not
    #: result content, and is excluded from cell fingerprints like
    #: ``kernels``.  Sim-priced cells ignore it: their
    #: output is a predicted cycle count, which a cache would falsify.
    cache: Optional[str] = None
    #: extra attempts before a failing/timing-out cell is quarantined.
    cell_retries: int = 0

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def validate(self) -> "ExperimentSpec":
        """Check every axis against the live registries; return self."""
        from ..core.bounds import BOUNDS
        from ..core.frontier import FRONTIERS
        from ..graph.generators.suites import SCALES, paper_suite

        if not self.name or not str(self.name).replace("-", "").replace("_", "").isalnum():
            raise ValueError(
                f"experiment name must be non-empty [-_ alphanumeric], got {self.name!r}"
            )
        if self.scale not in SCALES:
            raise _one_line_choice_error("scale", self.scale, SCALES)
        if self.device not in SPEC_DEVICES:
            raise _one_line_choice_error("device", self.device, SPEC_DEVICES)
        if not self.instances:
            raise ValueError("spec declares no instances")
        suite_names = {inst.name for inst in paper_suite(self.scale)}
        for ref in self.instances:
            if ref.suite is not None and ref.suite not in suite_names:
                raise _one_line_choice_error(
                    "suite instance", ref.suite, sorted(suite_names))
            if ref.path is not None and not Path(ref.path).is_file():
                raise ValueError(f"instance file does not exist: {ref.path}")
        if not self.engines:
            raise ValueError("spec declares no engines")
        legal_engines = EXPERIMENT_ENGINES + WALL_CLOCK_ENGINES
        for engine in self.engines:
            if engine not in legal_engines:
                raise _one_line_choice_error("engine", engine, legal_engines)
        if not self.frontiers:
            raise ValueError("spec declares no frontiers (use ['lifo'] for the default)")
        for frontier in self.frontiers:
            if frontier not in FRONTIERS:
                raise _one_line_choice_error("frontier", frontier, sorted(FRONTIERS))
        if not self.bounds:
            raise ValueError("spec declares no bounds (use ['greedy'] for the default)")
        for bound in self.bounds:
            if bound not in BOUNDS:
                raise _one_line_choice_error("bound", bound, sorted(BOUNDS))
        if self.cpu_workers < 1:
            raise ValueError("cpu_workers must be >= 1")
        for w in self.workers:
            if w < 1:
                raise ValueError("workers axis values must be >= 1")
        if self.workers and not any(e in WALL_CLOCK_ENGINES for e in self.engines):
            raise ValueError(
                "the workers axis applies to the wall-clock engines "
                f"({', '.join(WALL_CLOCK_ENGINES)}) and none is in the spec")
        for h in self.hosts:
            if h < 0:
                raise ValueError("hosts axis values must be >= 0")
        if not self.hosts:
            raise ValueError("hosts axis must not be empty (use [0] for none)")
        if tuple(self.hosts) != (0,) and "distributed" not in self.engines:
            raise ValueError(
                "the hosts axis applies to engine 'distributed' only, "
                "which is not in the spec")
        if self.kernels is not None:
            from ..core.kernel_backends import KERNELS

            if self.kernels not in KERNELS:
                raise _one_line_choice_error("kernels", self.kernels,
                                             sorted(KERNELS))
        from ..analysis.experiments import INSTANCE_TYPES

        for itype in self.instance_types:
            if itype not in INSTANCE_TYPES:
                raise _one_line_choice_error("instance type", itype, INSTANCE_TYPES)
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.virtual_budget_s <= 0:
            raise ValueError("virtual_budget_s must be positive")
        if self.seq_node_guard < 1 or self.engine_node_guard < 1:
            raise ValueError("node guards must be positive")
        if self.cell_timeout_s is not None and self.cell_timeout_s <= 0:
            raise ValueError("cell_timeout_s must be positive when given")
        if self.cache is not None and not str(self.cache):
            raise ValueError("cache must be a non-empty store path when given")
        if self.cell_retries < 0:
            raise ValueError("cell_retries must be >= 0")
        return self

    # ------------------------------------------------------------------ #
    # (de)serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        # Fields added after schema v1 shipped (``bounds``, ``cpu_workers``)
        # are omitted at their defaults: a spec that does not use them
        # serializes — and therefore spec-hashes — exactly as it did
        # before the axis existed, so pre-existing runs keep their ids
        # and resume instead of erroring on a changed hash.
        extras: Dict[str, object] = {}
        if tuple(self.bounds) != ("greedy",):
            extras["bounds"] = list(self.bounds)
        if self.cpu_workers != 2:
            extras["cpu_workers"] = self.cpu_workers
        if self.workers:
            extras["workers"] = list(self.workers)
        if tuple(self.hosts) != (0,):
            extras["hosts"] = list(self.hosts)
        if self.cell_timeout_s is not None:
            extras["cell_timeout_s"] = self.cell_timeout_s
        if self.cell_retries != 0:
            extras["cell_retries"] = self.cell_retries
        if self.kernels is not None:
            extras["kernels"] = self.kernels
        if self.telemetry:
            extras["telemetry"] = True
        if self.cache is not None:
            extras["cache"] = self.cache
        return {
            **extras,
            "schema_version": SPEC_SCHEMA_VERSION,
            "kind": "repro-vc-experiment-spec",
            "name": self.name,
            "scale": self.scale,
            "device": self.device,
            "instances": [ref.to_json() for ref in self.instances],
            "engines": list(self.engines),
            "frontiers": list(self.frontiers),
            "instance_types": list(self.instance_types),
            "repeats": self.repeats,
            "seed": self.seed,
            "virtual_budget_s": self.virtual_budget_s,
            "seq_node_guard": self.seq_node_guard,
            "engine_node_guard": self.engine_node_guard,
            "stackonly_depths": list(self.stackonly_depths),
            "hybrid_capacities": list(self.hybrid_capacities),
            "hybrid_fractions": list(self.hybrid_fractions),
            # Kernel-dispatch calibration was removed, but every spec
            # hashed before that carried this null; keeping it keeps
            # their spec hashes, so committed runs stay addressable.
            "calibration": None,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExperimentSpec":
        if not isinstance(data, dict):
            raise ValueError("experiment spec must be a JSON object")
        version = data.get("schema_version", SPEC_SCHEMA_VERSION)
        if version != SPEC_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported spec schema_version {version!r} (expected {SPEC_SCHEMA_VERSION})"
            )
        known = {
            "schema_version", "kind", "name", "scale", "device", "instances",
            "engines", "frontiers", "bounds", "instance_types", "repeats",
            "seed", "virtual_budget_s", "seq_node_guard", "engine_node_guard",
            "stackonly_depths", "hybrid_capacities", "hybrid_fractions",
            "cpu_workers", "workers", "hosts", "calibration", "kernels",
            "cell_timeout_s", "cell_retries", "telemetry", "cache",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown spec fields: {unknown}")
        if data.get("calibration") is not None:
            raise ValueError("spec field 'calibration' was removed: kernel "
                             "dispatch is fixed; drop the field or set it to null")
        if "name" not in data:
            raise ValueError("spec is missing the required 'name' field")
        if "instances" not in data:
            raise ValueError("spec is missing the required 'instances' field")
        defaults = cls(name="x")
        spec = cls(
            name=str(data["name"]),
            scale=str(data.get("scale", defaults.scale)),
            device=str(data.get("device", defaults.device)),
            instances=[InstanceRef.from_json(obj) for obj in data["instances"]],  # type: ignore[union-attr]
            engines=tuple(data.get("engines", defaults.engines)),  # type: ignore[arg-type]
            frontiers=tuple(data.get("frontiers", defaults.frontiers)),  # type: ignore[arg-type]
            bounds=tuple(data.get("bounds", defaults.bounds)),  # type: ignore[arg-type]
            instance_types=tuple(data.get("instance_types", defaults.instance_types)),  # type: ignore[arg-type]
            repeats=int(data.get("repeats", defaults.repeats)),  # type: ignore[arg-type]
            seed=int(data.get("seed", defaults.seed)),  # type: ignore[arg-type]
            virtual_budget_s=float(data.get("virtual_budget_s", defaults.virtual_budget_s)),  # type: ignore[arg-type]
            seq_node_guard=int(data.get("seq_node_guard", defaults.seq_node_guard)),  # type: ignore[arg-type]
            engine_node_guard=int(data.get("engine_node_guard", defaults.engine_node_guard)),  # type: ignore[arg-type]
            stackonly_depths=tuple(data.get("stackonly_depths", defaults.stackonly_depths)),  # type: ignore[arg-type]
            hybrid_capacities=tuple(data.get("hybrid_capacities", defaults.hybrid_capacities)),  # type: ignore[arg-type]
            hybrid_fractions=tuple(data.get("hybrid_fractions", defaults.hybrid_fractions)),  # type: ignore[arg-type]
            cpu_workers=int(data.get("cpu_workers", defaults.cpu_workers)),  # type: ignore[arg-type]
            workers=tuple(int(w) for w in data.get("workers", ())),  # type: ignore[union-attr]
            hosts=tuple(int(h) for h in data.get("hosts", defaults.hosts)),  # type: ignore[union-attr]
            kernels=data.get("kernels"),  # type: ignore[arg-type]
            cell_timeout_s=(None if data.get("cell_timeout_s") is None
                            else float(data["cell_timeout_s"])),  # type: ignore[arg-type]
            cell_retries=int(data.get("cell_retries", defaults.cell_retries)),  # type: ignore[arg-type]
            telemetry=bool(data.get("telemetry", False)),
            cache=(None if data.get("cache") is None else str(data["cache"])),
        )
        return spec.validate()

    # ------------------------------------------------------------------ #
    # grid expansion
    # ------------------------------------------------------------------ #
    def expand_cells(self) -> List[CellSpec]:
        """The cartesian grid, in deterministic order.

        The frontier axis pairs with the sequential engine only: the
        parallel engines' worklist disciplines are fixed by what they
        model, so giving them a frontier would misreport the scenario
        (same contract as ``repro solve --frontier``).  The bound axis
        pairs with every engine — pruning strength is a property of the
        shared node step, not of any one traversal discipline.
        """
        cells: List[CellSpec] = []
        for ref in self.instances:
            for itype in self.instance_types:
                for engine in self.engines:
                    frontiers: Sequence[Optional[str]]
                    frontiers = self.frontiers if engine == "sequential" else (None,)
                    # The workers axis pairs with the wall-clock engines
                    # only, and the hosts axis with ``distributed`` only
                    # — other engines have no worker pool / no socket.
                    workers_axis: Sequence[Optional[int]]
                    workers_axis = (tuple(self.workers) or (None,)
                                    if engine in WALL_CLOCK_ENGINES else (None,))
                    hosts_axis = (tuple(self.hosts)
                                  if engine == "distributed" else (0,))
                    for frontier in frontiers:
                        for bound in self.bounds:
                            for workers in workers_axis:
                                for hosts in hosts_axis:
                                    for repeat in range(self.repeats):
                                        cells.append(CellSpec(
                                            instance=ref, engine=engine,
                                            frontier=frontier, bound=bound,
                                            instance_type=itype, repeat=repeat,
                                            workers=workers, hosts=hosts,
                                        ))
        return cells

    @property
    def device_spec(self):
        """The simulated :class:`~repro.sim.device.DeviceSpec` of ``device``."""
        return resolve_spec_device(self.device)

    @property
    def seq_cycle_budget(self) -> float:
        """``virtual_budget_s`` in cycles of the sequential cells' CPU."""
        from ..sim.device import EPYC_LIKE

        return self.virtual_budget_s * EPYC_LIKE.clock_mhz * 1e6

    @property
    def gpu_cycle_budget(self) -> float:
        """``virtual_budget_s`` in cycles of the simulated device."""
        return self.virtual_budget_s * self.device_spec.clock_mhz * 1e6

    def cell_config(self) -> Dict[str, object]:
        """The config sub-dict hashed into every cell fingerprint.

        Everything that can change a cell's *result* — budgets, device,
        parameter grids, seed — and nothing that cannot (``name``,
        ``kernels``: proven speed-only, backends are bit-identical).  The
        device is hashed by its full parameters, not its preset name, so
        re-tuning a preset in code invalidates the cells it priced; so
        does a retune of the cost model or CPU (:data:`KEYED_PRICING`).
        """
        from dataclasses import asdict

        from ..sim.costmodel import CostModel
        from ..sim.device import EPYC_LIKE

        pricing = {"cost_model": asdict(CostModel()), "cpu": asdict(EPYC_LIKE)}
        retuned = hashlib.sha256(canonical_json(pricing).encode()).hexdigest() != KEYED_PRICING
        return {
            "scale": self.scale,
            "device": asdict(resolve_spec_device(self.device)),
            "virtual_budget_s": self.virtual_budget_s,
            "seq_node_guard": self.seq_node_guard,
            "engine_node_guard": self.engine_node_guard,
            "stackonly_depths": list(self.stackonly_depths),
            "hybrid_capacities": list(self.hybrid_capacities),
            "hybrid_fractions": list(self.hybrid_fractions),
            # non-default only: a spec not using the wall-clock engines
            # fingerprints exactly as before the knob existed
            **({"cpu_workers": self.cpu_workers} if self.cpu_workers != 2 else {}),
            **({"pricing": pricing} if retuned else {}),
            "seed": self.seed,
        }


def load_spec(source: Union[str, Path, Dict[str, object]]) -> ExperimentSpec:
    """Load and validate a spec from a JSON file path or an in-memory dict."""
    if isinstance(source, dict):
        return ExperimentSpec.from_dict(source)
    text = Path(source).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{source}: not valid JSON ({exc})") from None
    return ExperimentSpec.from_dict(data)


# --------------------------------------------------------------------- #
# content-addressed identity
# --------------------------------------------------------------------- #
def spec_hash(spec: Union[ExperimentSpec, Dict[str, object]]) -> str:
    """SHA-256 of a spec's canonical JSON (hex)."""
    data = spec.to_dict() if isinstance(spec, ExperimentSpec) else spec
    return hashlib.sha256(canonical_json(data).encode()).hexdigest()


def cell_fingerprint(graph_fp: str, payload: Dict[str, object]) -> str:
    """SHA-256 identity of one cell: graph hash × configuration hash.

    ``payload`` is the cell's identity dict (instance label, engine,
    frontier, bound, instance type, k, repeat, config).  Matching fingerprints
    mean "this exact solve already happened" — the resume contract.
    """
    body = canonical_json({"graph": graph_fp, **payload})
    return hashlib.sha256(body.encode()).hexdigest()

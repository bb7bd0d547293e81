"""repro — reproduction of "Parallel Vertex Cover Algorithms on GPUs" (IPDPS 2022).

Public API highlights
---------------------

* :class:`repro.graph.CSRGraph` — immutable CSR graph.
* :func:`repro.core.solve_mvc` / :func:`repro.core.solve_pvc` — one facade
  over the sequential, simulated-GPU (StackOnly / Hybrid / GlobalOnly) and
  real CPU-parallel engines.
* :mod:`repro.sim` — the discrete-event virtual GPU (device specs, launch
  configuration, cost model, broker worklist).
* :mod:`repro.analysis` — the harness regenerating every table and figure
  of the paper's evaluation.
"""

from .core import solve_mvc, solve_pvc
from .graph import CSRGraph

__version__ = "1.0.0"

__all__ = ["CSRGraph", "solve_mvc", "solve_pvc", "__version__"]

"""Core branch-and-reduce machinery for MVC and PVC."""

from .anytime import resume_from, solve_to_completion
from .bounds import (
    BOUNDS,
    DEFAULT_BOUND,
    BoundPolicy,
    CombinedBound,
    DegreeBound,
    GreedyBound,
    KonigBound,
    MatchingBound,
    make_bound,
)
from .formulation import BestBound, FoundFlag, MVCFormulation, PVCFormulation
from .frontier import (
    FRONTIERS,
    BestFirstFrontier,
    Frontier,
    GlobalWorklistFrontier,
    HybridThresholdFrontier,
    LifoFrontier,
    StealingDequeFrontier,
    make_frontier,
)
from .greedy import GreedyResult, greedy_cover
from .nodestep import LEAF, PRUNED, Children, NodeStep, StepOutcome
from .outcome import (
    Checkpoint,
    SolveOutcome,
    classify_status,
    finish_outcome,
    frontier_lower_bound,
)
from .sequential import branch_and_reduce, solve_mvc_sequential, solve_pvc_sequential
from .solver import ENGINES, solve_mvc, solve_pvc
from .stats import ReductionCounters, SearchStats
from .verify import CertificateError, assert_valid_cover, is_independent_set, is_vertex_cover

__all__ = [
    "resume_from",
    "solve_to_completion",
    "SolveOutcome",
    "Checkpoint",
    "classify_status",
    "finish_outcome",
    "frontier_lower_bound",
    "BOUNDS",
    "DEFAULT_BOUND",
    "BoundPolicy",
    "GreedyBound",
    "DegreeBound",
    "MatchingBound",
    "KonigBound",
    "CombinedBound",
    "make_bound",
    "BestBound",
    "FoundFlag",
    "MVCFormulation",
    "PVCFormulation",
    "Frontier",
    "FRONTIERS",
    "LifoFrontier",
    "GlobalWorklistFrontier",
    "HybridThresholdFrontier",
    "StealingDequeFrontier",
    "BestFirstFrontier",
    "make_frontier",
    "NodeStep",
    "StepOutcome",
    "Children",
    "PRUNED",
    "LEAF",
    "GreedyResult",
    "greedy_cover",
    "branch_and_reduce",
    "solve_mvc_sequential",
    "solve_pvc_sequential",
    "ENGINES",
    "solve_mvc",
    "solve_pvc",
    "ReductionCounters",
    "SearchStats",
    "CertificateError",
    "assert_valid_cover",
    "is_independent_set",
    "is_vertex_cover",
]

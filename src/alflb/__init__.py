"""Auxiliary-loss-free load balancing for sparse MoE routing: a primal-dual
simulator plus deterministic and stochastic verification labs.
"""

from .core import (
    BiasVector,
    LoadVector,
    ProblemDims,
    RandomSource,
)
from .balancer import ScheduleKind, StepSchedule, project_zero_sum
from .router import (
    RawScoreMatrix,
    RoutingOutcome,
    route_topk,
    softmax_affinities,
)

__version__ = "0.1.0"

__all__ = [
    "BiasVector",
    "LoadVector",
    "ProblemDims",
    "RandomSource",
    "RawScoreMatrix",
    "RoutingOutcome",
    "ScheduleKind",
    "StepSchedule",
    "project_zero_sum",
    "route_topk",
    "softmax_affinities",
]

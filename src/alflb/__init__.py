"""Auxiliary-loss-free load balancing for sparse MoE routing: a primal-dual
simulator plus deterministic and stochastic verification labs.
"""

from .core import ProblemDims, RandomSource
from .balancer import ScheduleKind, StepSchedule, project_zero_sum
from .router import RawScoreMatrix, softmax_affinities

__version__ = "0.1.0"

__all__ = [
    "ProblemDims",
    "RandomSource",
    "RawScoreMatrix",
    "ScheduleKind",
    "StepSchedule",
    "project_zero_sum",
    "softmax_affinities",
]

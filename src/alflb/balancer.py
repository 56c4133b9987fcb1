"""Single-shot dual update of the expert biases under pluggable step-size
schedules, with optional zero-sum projection and diameter tracking.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import BiasVector, LoadVector
from .errors import DimMismatch, InvalidRange


class ScheduleKind(enum.Enum):
    DEEPSEEK_SIGN = "deepseek_sign"  # eps_k = u / |L - A_k|, i.e. p_k +- u
    INVERSE_N = "inverse_n"          # eps = u / n
    INVERSE_SQRT_N = "inverse_sqrt_n"  # eps = u / sqrt(n)
    CONSTANT = "constant"            # eps = u


@dataclass(frozen=True)
class StepSchedule:
    kind: ScheduleKind
    u: float

    def __post_init__(self):
        if not (self.u > 0 and math.isfinite(self.u)):
            raise InvalidRange(f"balancing constant u must be finite, > 0: {self.u}")

    @property
    def homogeneous(self) -> bool:
        """True when every coordinate uses the same step size."""
        return self.kind is not ScheduleKind.DEEPSEEK_SIGN

    def scalar_step(self, n: int) -> float:
        """Common step size at iteration n for homogeneous schedules."""
        if self.kind is ScheduleKind.INVERSE_N:
            return self.u / n
        if self.kind is ScheduleKind.INVERSE_SQRT_N:
            return self.u / np.sqrt(n)
        if self.kind is ScheduleKind.CONSTANT:
            return self.u
        raise InvalidRange("DeepSeek sign schedule has no scalar step")

    def bias_delta(self, loads: np.ndarray, L: float, n: int) -> np.ndarray:
        """Per-coordinate update eps_k * (L - A_k).

        For the sign schedule the 0/0 at A_k = L is resolved to a zero net
        update, matching the original three-case rule.
        """
        gap = L - np.asarray(loads, dtype=np.float64)
        if self.kind is ScheduleKind.DEEPSEEK_SIGN:
            return self.u * np.sign(gap)
        return self.scalar_step(n) * gap

    def quadratic_penalty(self, loads: np.ndarray, L: float, n: int) -> float:
        """sum_k eps_k * (A_k - L)^2, with the sign schedule's 0/0 removed.

        For the sign schedule this reduces exactly to u * sum_k |A_k - L|.
        """
        gap = np.asarray(loads, dtype=np.float64) - L
        if self.kind is ScheduleKind.DEEPSEEK_SIGN:
            return float(self.u * np.abs(gap).sum())
        return float(self.scalar_step(n) * np.square(gap).sum())


@dataclass(frozen=True)
class BalancerState:
    p: BiasVector
    iteration: int = 1
    zero_sum: bool = False
    kappa: float | None = None

    def __post_init__(self):
        if self.iteration < 1:
            raise InvalidRange("iteration counter starts at 1")
        if self.kappa is not None and not (0.0 < self.kappa < 1.0):
            raise InvalidRange(f"kappa must lie in (0, 1), got {self.kappa}")

    def diameter_ok(self) -> bool:
        """True unless a kappa is set and diam(p) exceeds 1 - kappa."""
        if self.kappa is None:
            return True
        return self.p.diameter() <= 1.0 - self.kappa


def _center(v: np.ndarray) -> np.ndarray:
    return v - v.mean()


def project_zero_sum(p: BiasVector) -> BiasVector:
    """Orthogonal projection onto the zero-sum subspace: subtract the mean."""
    return BiasVector(_center(p.values))


def diameter(p: BiasVector) -> float:
    return p.diameter()


def _dual_step(
    p: np.ndarray, loads: np.ndarray, L: float, sched: StepSchedule, n: int,
    zero_sum: bool = False,
) -> np.ndarray:
    """The update rule on raw arrays: p + eps_n * (L - A), then, with
    ``zero_sum``, minus its mean.  No input checks; ``dual_update`` and the
    iteration loops share it.
    """
    new_p = p + sched.bias_delta(loads, L, n)
    return _center(new_p) if zero_sum else new_p


def dual_update(
    state: BalancerState,
    loads: LoadVector,
    L: float,
    sched: StepSchedule,
) -> BalancerState:
    """One dual step p_k <- p_k + eps_k * (L - A_k) under ``sched``.

    ``loads`` must come from routing under ``state.p``.  With ``zero_sum``
    the componentwise mean is subtracted afterwards.
    """
    if loads.counts.shape[0] != state.p.E:
        raise DimMismatch("loads / bias length mismatch")
    new_p = _dual_step(
        state.p.values, loads.counts, L, sched, state.iteration, state.zero_sum
    )
    return replace(state, p=BiasVector(new_p), iteration=state.iteration + 1)

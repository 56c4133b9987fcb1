"""Step-size schedules, the overflow rule of a run, and the zero-sum projection.

The update itself, p + eps_n * (L - A), runs inside ``deterministic.iterate``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidRange


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

    def scalar_step(self, n: int | np.ndarray) -> float | np.ndarray:
        """Common step size at iteration n (an int or an array of them) for
        homogeneous schedules."""
        if self.kind is ScheduleKind.INVERSE_N:
            return self.u / n
        if self.kind is ScheduleKind.INVERSE_SQRT_N:
            return self.u / np.sqrt(n)
        if self.kind is ScheduleKind.CONSTANT:
            return self.u
        raise InvalidRange("DeepSeek sign schedule has no scalar step")

    def bias_delta(
        self, loads: np.ndarray, L: float, n: int | np.ndarray
    ) -> np.ndarray:
        """Per-coordinate update eps_k * (L - A_k).

        ``loads`` is one length-E load vector or (M, E) rows of them, and
        ``n`` an iteration or an (M, 1) column of them, one per row.  For the
        sign schedule the 0/0 at A_k = L is resolved to a zero net update,
        matching the original three-case rule.
        """
        gap = L - np.asarray(loads, dtype=np.float64)
        if self.kind is ScheduleKind.DEEPSEEK_SIGN:
            return self.u * np.sign(gap)
        return self.scalar_step(n) * gap

    def quadratic_penalty(
        self, loads: np.ndarray, L: float, n: int | np.ndarray
    ) -> float | np.ndarray:
        """sum_k eps_k * (A_k - L)^2, with the sign schedule's 0/0 removed.

        ``loads`` is one length-E load vector or (M, E) rows of them, and
        ``n`` an iteration or an (M,) array of them, one per row.

        For the sign schedule this reduces exactly to u * sum_k |A_k - L|.
        """
        gap = np.asarray(loads, dtype=np.float64) - L
        if self.kind is ScheduleKind.DEEPSEEK_SIGN:
            return self.u * np.abs(gap).sum(axis=-1)
        return self.scalar_step(n) * np.square(gap).sum(axis=-1)


def check_overflow_bound(u: float, K: int, T: int, iterations: int) -> None:
    """Reject a run when 16 K T max(1, u T iterations) could reach 2^1024.

    A step of size at most u moves a bias by at most u T (|L - A_k| <= T),
    so |p_n| <= P := u T iterations.  With M = max(1, P), a row's Lagrangian
    is at most K T (1 + P) + L E P <= 3KTM, its quadratic penalty
    u T sum_k |A_k - L| <= 2KTM (its sum of squares is at most 2KT^2), its
    switch benefits T (1 + 2P) <= 3TM, and an identity residual 11KTM; the
    factor 16/11 covers rounding.  Each factor enters through its log2, so
    no config integer becomes a float (a threshold such as 2^1024 / (16 u)
    is inf for u < 1/16 and would admit every iteration count).
    """
    growth = math.log2(u) + math.log2(T) + math.log2(max(iterations, 1))
    if 4 + math.log2(K) + math.log2(T) + max(0.0, growth) >= 1024:
        raise InvalidRange("the run could overflow: 16 K T max(1, u T n) >= 2^1024")


def project_zero_sum(p: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the zero-sum subspace: subtract the mean
    of every row of a (..., E) array."""
    return p - p.mean(axis=-1, keepdims=True)

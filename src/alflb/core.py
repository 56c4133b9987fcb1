"""Shared domain types: problem dimensions, the affinity-matrix check and
the deterministic randomness contract, used by every other module, and the
bias and load containers, which back only ``router.route_topk``, kept for
the benchmark's screen in ``perfbench/workloads.py``, which imports them from
here: the package does not re-export them.

All containers are immutable value objects (frozen dataclasses holding
read-only numpy arrays), so they can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidRange


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ProblemDims:
    """Token count T, expert count E and per-token sparsity K, with the one
    load they determine, ``target_load``."""

    T: int
    E: int
    K: int

    def __post_init__(self):
        for name in ("T", "E", "K"):
            if getattr(self, name) <= 0:
                raise InvalidRange(f"dims must be positive, got {self}", name)
        if self.E < 2:
            raise InvalidRange(f"need at least 2 experts, got E={self.E}", "E")
        if self.K > self.E:
            raise InvalidRange(f"K={self.K} exceeds E={self.E}", "K")

    @property
    def target_load(self) -> float:
        """The balanced per-expert load K*T/E, as a real number."""
        return self.K * self.T / self.E


def affinity_array(gamma) -> np.ndarray:
    """A (T, E) affinity matrix as a read-only float64 array, every entry in
    (0, 1), so no NaN.  A float64 array that is read-only and owns its memory,
    as this returns, is taken as it is; any other input is copied, so later
    writes to the caller's array cannot reach the result."""
    g = gamma
    if not (isinstance(g, np.ndarray) and g.dtype == np.float64
            and g.flags.owndata and not g.flags.writeable):
        g = _readonly(g)
    if g.ndim != 2:
        raise InvalidRange(f"affinities must be a (T, E) matrix, got shape {g.shape}")
    if not np.all((g > 0.0) & (g < 1.0)):
        raise InvalidRange("affinity entries must lie strictly in (0, 1)")
    return g


@dataclass(frozen=True)
class BiasVector:
    """Length-E vector of per-expert additive shifts."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))
        if self.values.ndim != 1:
            raise InvalidRange("bias vector must be 1-D")
        if not np.all(np.isfinite(self.values)):
            raise InvalidRange("bias entries must be finite")

    @classmethod
    def zeros(cls, E: int) -> "BiasVector":
        return cls(np.zeros(E))

    @property
    def E(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class LoadVector:
    """Length-E vector of per-expert token counts."""

    dims: ProblemDims
    counts: np.ndarray

    def __post_init__(self):
        c = np.array(self.counts, dtype=np.int64, copy=True)
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)
        if c.shape != (self.dims.E,):
            raise InvalidRange(f"load shape {c.shape} != ({self.dims.E},)")
        if np.any(c < 0) or np.any(c > self.dims.T):
            raise InvalidRange("loads must lie in [0, T]")
        if int(c.sum()) != self.dims.K * self.dims.T:
            raise InvalidRange(
                f"loads sum to {int(c.sum())}, expected K*T={self.dims.K * self.dims.T}"
            )


@dataclass(frozen=True)
class RandomSource:
    """Seedable randomness handle.

    Identical (seed, stream) pairs reproduce the identical draw sequence.
    Streams keep modules / replicas statistically independent without any
    global state.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.default_rng(ss)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alflb.core import (
    BiasVector,
    LoadVector,
    ProblemDims,
    RandomSource,
    affinity_array,
)
from alflb.errors import InvalidRange


class TestProblemDims:
    def test_balanced_target_small(self):
        dims = ProblemDims(T=12, E=4, K=2)
        assert dims.target_load == 6.0

    def test_balanced_target_paper_scale(self):
        dims = ProblemDims(T=262144, E=64, K=6)
        assert dims.target_load == 24576.0

    def test_non_divisible_allowed_in_unbalanced_mode(self):
        dims = ProblemDims(T=5, E=4, K=2)
        assert dims.target_load == pytest.approx(2.5)

    def test_k_exceeds_e_rejected(self):
        with pytest.raises(InvalidRange):
            ProblemDims(T=8, E=4, K=5)

    def test_nonpositive_rejected(self):
        for bad in [(0, 4, 1), (8, 4, 0), (-8, 4, 1), (8, 1, 1)]:
            with pytest.raises(InvalidRange):
                ProblemDims(*bad)


class TestAffinityMatrix:
    """``affinity_array``, the one check of a (T, E) affinity matrix."""

    def test_strict_open_interval(self):
        for bad in (0.0, 1.0, np.nan):
            with pytest.raises(InvalidRange):
                affinity_array(np.array([[bad, 0.5], [0.5, 0.5]]))

    def test_shape_mismatch(self):
        for shape in ((4,), (2, 2, 2)):
            with pytest.raises(InvalidRange, match=r"affinities must be a \(T, E\) matrix"):
                affinity_array(np.full(shape, 0.5))

    def test_values_read_only(self):
        vals = np.full((2, 2), 0.5, dtype=np.float32)
        gamma = affinity_array(vals)
        assert gamma.dtype == np.float64
        with pytest.raises(ValueError):
            gamma[0, 0] = 0.9
        vals[0, 0] = 0.9
        assert gamma[0, 0] == 0.5

    def test_only_writable_or_borrowed_arrays_are_copied(self):
        gamma = affinity_array(np.full((2, 2), 0.5))
        assert affinity_array(gamma) is gamma
        # a read-only view shares its writable base's memory: copied
        base = np.full((2, 2), 0.5)
        view = base[:]
        view.flags.writeable = False
        assert affinity_array(view) is not view
        assert affinity_array(base) is not base


class TestBiasVector:
    def test_zeros_and_props(self):
        p = BiasVector.zeros(4)
        assert p.E == 4
        assert not p.values.any()

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidRange):
            BiasVector(np.array([0.0, np.inf]))


class TestAssignmentAndLoads:
    def test_loads_match_column_sums_random(self):
        # the column sums of any K-per-row selection are valid loads
        rng = np.random.default_rng(7)
        dims = ProblemDims(T=40, E=5, K=2)
        sel = np.zeros((40, 5), dtype=np.int8)
        for i in range(40):
            sel[i, rng.choice(5, size=2, replace=False)] = 1
        loads = LoadVector(dims, sel.sum(axis=0))
        np.testing.assert_array_equal(loads.counts, sel.sum(axis=0))
        assert int(loads.counts.sum()) == dims.K * dims.T

    def test_load_sum_invariant_enforced(self):
        dims = ProblemDims(T=4, E=2, K=1)
        with pytest.raises(InvalidRange):
            LoadVector(dims, np.array([3, 2]))
        with pytest.raises(InvalidRange):
            LoadVector(dims, np.array([5, -1]))


class TestRandomSource:
    def test_same_seed_same_stream_reproduces(self):
        a = RandomSource(123, stream=4).generator().standard_normal(16)
        b = RandomSource(123, stream=4).generator().standard_normal(16)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = RandomSource(123, stream=0).generator().standard_normal(16)
        b = RandomSource(123, stream=1).generator().standard_normal(16)
        assert not np.array_equal(a, b)


@given(
    T=st.integers(min_value=1, max_value=30),
    E=st.integers(min_value=2, max_value=8),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_assignment_load_consistency_property(T, E, data):
    # LoadVector accepts the column sums of every K-per-row selection
    K = data.draw(st.integers(min_value=1, max_value=E))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    sel = np.zeros((T, E), dtype=np.int8)
    for i in range(T):
        sel[i, rng.choice(E, size=K, replace=False)] = 1
    loads = LoadVector(ProblemDims(T=T, E=E, K=K), sel.sum(axis=0))
    assert int(loads.counts.sum()) == K * T
    assert loads.counts.min() >= 0 and loads.counts.max() <= T

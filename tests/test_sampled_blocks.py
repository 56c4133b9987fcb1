"""The score blocks drawn ahead on a worker thread.

``check_gradient_moments`` and ``regret_experiment`` take their blocks from
``stochastic._sampled_blocks``.  Their results, and the state they leave the
generator in, must equal the serial loops of ``reference_sampling`` bit for
bit, and no call may leave a thread behind, whichever side raises.
"""

import json
import sys
import threading

import numpy as np
import pytest

from alflb import cli, stochastic
from alflb.core import RandomSource
from alflb.distributions import AffinityDistributionSet, BetaScore, MixtureScore, UniformScore
from alflb.errors import InvalidRange
from alflb.stochastic import (
    MOMENT_BATCH, SAMPLE_AHEAD, check_gradient_moments, regret_experiment,
)
from reference_sampling import serial_gradient_moments, serial_regret

REPLICAS = MOMENT_BATCH + 88  # a full block and a short one
SETS = {
    "beta": (BetaScore(2.0, 2.5), BetaScore(2.2, 2.3), BetaScore(3.0, 1.5)),
    "uniform": (UniformScore(0.1, 0.9), UniformScore(0.0, 1.0), UniformScore(0.3, 0.7)),
    # a mixture draws through rng.choice as well
    "mixture": (
        MixtureScore((BetaScore(2.0, 5.0), UniformScore(0.4, 0.9)), (0.3, 0.7)),
        BetaScore(2.0, 2.0),
        MixtureScore((UniformScore(0.0, 0.5), BetaScore(5.0, 2.0)), (0.5, 0.5)),
    ),
}
BIAS = np.array([0.05, -0.02, -0.03])
T, K, MU = 6, 1, 40.0


def _dist(name):
    return AffinityDistributionSet(SETS[name])


def _assert_same(got, want):
    for field in vars(want):
        a, b = getattr(got, field), getattr(want, field)
        if isinstance(b, np.ndarray):
            np.testing.assert_array_equal(a, b, err_msg=field)
        else:
            assert a == b, field


def _rngs(seed):
    return RandomSource(seed, 2).generator(), RandomSource(seed, 2).generator()


class TestSerialOracle:
    @pytest.mark.parametrize("name", sorted(SETS))
    def test_gradient_moments(self, name):
        dist = _dist(name)
        rng, ref_rng = _rngs(31)
        got = check_gradient_moments(dist, BIAS, K, T, REPLICAS, rng)
        want = serial_gradient_moments(dist, BIAS, K, T, REPLICAS, ref_rng)
        _assert_same(got, want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    # fewer blocks than the worker draws ahead, exactly as many, and more
    @pytest.mark.parametrize("rounds", [1, SAMPLE_AHEAD, 2 * SAMPLE_AHEAD + 1])
    @pytest.mark.parametrize("name", sorted(SETS))
    def test_regret(self, name, rounds):
        dist = _dist(name)
        rng, ref_rng = _rngs(32)
        got = regret_experiment(dist, T, K, MU, BIAS, rounds, REPLICAS, rng)
        want = serial_regret(dist, T, K, MU, BIAS, rounds, REPLICAS, ref_rng)
        _assert_same(got, want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_both_under_a_short_switch_interval(self):
        # a thread switch at almost every bytecode shakes out an ordering
        # fault that the default 5 ms interval could hide
        dist = _dist("mixture")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rng, ref_rng = _rngs(33)
            got = check_gradient_moments(dist, BIAS, K, T, REPLICAS, rng)
            want = serial_gradient_moments(dist, BIAS, K, T, REPLICAS, ref_rng)
            _assert_same(got, want)
            got = regret_experiment(dist, T, K, MU, BIAS, 3 * SAMPLE_AHEAD, 16, rng)
            want = serial_regret(dist, T, K, MU, BIAS, 3 * SAMPLE_AHEAD, 16, ref_rng)
            _assert_same(got, want)
        finally:
            sys.setswitchinterval(interval)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def _moments(rng):
    return check_gradient_moments(_dist("mixture"), BIAS, K, T, 3 * MOMENT_BATCH, rng)


def _regret(rng):
    return regret_experiment(_dist("mixture"), T, K, MU, BIAS, 3 * SAMPLE_AHEAD, 16, rng)


CALLS = {"moments": _moments, "regret": _regret}


def _failing_draw(monkeypatch, error, at):
    """Make the ``at``-th draw of BetaScore.sample (1-based) raise ``error``."""
    sample = BetaScore.sample
    calls = []

    def failing(self, rng, size):
        calls.append(threading.current_thread())
        if len(calls) == at:
            raise error
        return sample(self, rng, size)

    monkeypatch.setattr(BetaScore, "sample", failing)
    return calls


class TestThreadHygiene:
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_normal_return(self, call):
        before = threading.enumerate()
        CALLS[call](np.random.default_rng(3))
        assert threading.enumerate() == before

    def test_caller_raises_at_round_three(self, monkeypatch):
        # regret_experiment calls topk twice a round; the fifth call is the
        # first of round 3, with draws still queued on the worker
        topk = stochastic.topk
        calls = []

        def failing(scores, K):
            calls.append(None)
            if len(calls) == 5:
                raise RuntimeError("planted routing failure")
            return topk(scores, K)

        monkeypatch.setattr(stochastic, "topk", failing)
        before = threading.enumerate()
        with pytest.raises(RuntimeError, match="^planted routing failure$"):
            _regret(np.random.default_rng(4))
        assert threading.enumerate() == before

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_worker_raises(self, call, monkeypatch):
        # the caller gets the worker's exception itself: its type, message
        # and field
        planted = InvalidRange("planted draw failure", field="replicas")
        draws = _failing_draw(monkeypatch, planted, at=5)  # in the second block
        before = threading.enumerate()
        with pytest.raises(InvalidRange) as exc:
            CALLS[call](np.random.default_rng(5))
        assert exc.value is planted and str(exc.value) == "planted draw failure"
        assert exc.value.field == "replicas"
        assert threading.enumerate() == before
        assert threading.main_thread() not in draws


MOMENT_CFG = {
    "kind": "moment_check", "seed": 6,
    "distributions": [
        {"type": "beta", "a": 2.0, "b": 3.0},
        {"type": "uniform", "lo": 0.1, "hi": 0.9},
        {"type": "beta", "a": 1.5, "b": 1.5},
    ],
    "T": 8, "K": 1, "replicas": 3 * MOMENT_BATCH,
}


@pytest.mark.parametrize("error, status", [
    (InvalidRange("planted draw failure", field="replicas"), 2),
    (RuntimeError("planted draw failure"), 3),
])
def test_cli_exit_code_of_a_worker_error(tmp_path, capsys, monkeypatch, error, status):
    # a draw that fails on the worker maps to the exit code the same
    # exception raised on the calling thread maps to
    _failing_draw(monkeypatch, error, at=2)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(MOMENT_CFG))
    before = threading.enumerate()
    got = cli.main(["moment-check", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert got == status
    assert "planted draw failure" in capsys.readouterr().err
    assert threading.enumerate() == before

import concurrent.futures
import csv
import hashlib
import json
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alflb import cli
from alflb.cli import load_config, main, run
from alflb.distributions import BetaScore, MixtureScore, UniformScore
from alflb.errors import ConfigError, ParseError, ValidationError
from conftest import random_affinities


def _write(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


DET_CFG = {
    "kind": "deterministic_run",
    "seed": 11,
    "dims": {"T": 16, "E": 4, "K": 1},
    "schedule": {"kind": "deepseek_sign", "u": 0.001},
    "iterations": 60,
}


# Any JSON value, its objects keyed by the fields of dims, schedules and
# distribution specs, its strings the names those fields take.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["beta", "uniform", "mixture", "deepseek_sign", "inverse_n", "x"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["T", "E", "K", "kind", "u", "type", "a", "b", "lo", "hi",
                         "components", "weights"]),
        inner, max_size=4,
    ),
    max_leaves=20,
)


@st.composite
def _drawn_configs(draw):
    """A valid kind with any subset of its keys and seed, each holding any
    JSON value."""
    kind = draw(st.sampled_from(cli.KINDS))
    keys = draw(st.sets(st.sampled_from([*cli._SCHEMA[kind][1], "seed"])))
    return {"kind": kind, **{key: draw(_JSON) for key in sorted(keys)}}


class TestLoadConfig:
    @settings(max_examples=200, deadline=None)
    @given(cfg=_drawn_configs())
    def test_only_config_errors_escape(self, tmp_path_factory, cfg):
        # load_config's whole contract with main: a config or a ConfigError
        path = tmp_path_factory.getbasetemp() / "drawn.json"
        path.write_text(json.dumps(cfg))
        try:
            load_config(path)
        except ConfigError:
            pass

    def test_minimal_deterministic_run(self, tmp_path):
        cfg = load_config(_write(tmp_path, "a.json", DET_CFG))
        assert cfg.kind == "deterministic_run"
        assert cfg.seed == 11
        assert cfg.params["dims"].target_load == 4.0
        assert cfg.params["schedule"].u == 0.001

    def test_k_exceeds_e_rejected(self, tmp_path):
        bad = dict(DET_CFG, dims={"T": 16, "E": 4, "K": 5})
        with pytest.raises(ValidationError) as exc:
            load_config(_write(tmp_path, "b.json", bad))
        assert exc.value.field == "dims.K"

    def test_unknown_key_rejected(self, tmp_path):
        bad = dict(DET_CFG, flavor="extra")
        with pytest.raises(ValidationError) as exc:
            load_config(_write(tmp_path, "c.json", bad))
        assert exc.value.field == "flavor"

    def test_unknown_nested_key_rejected(self, tmp_path):
        bad = dict(DET_CFG, schedule={"kind": "constant", "u": 0.1, "warmup": 5})
        with pytest.raises(ValidationError) as exc:
            load_config(_write(tmp_path, "d.json", bad))
        assert exc.value.field == "schedule.warmup"

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "e.json"
        path.write_text('{"kind": "deterministic_run",}')
        with pytest.raises(ParseError) as exc:
            load_config(path)
        assert "e.json:1:" in str(exc.value)

    def test_bad_seed_rejected(self, tmp_path):
        with pytest.raises(ValidationError) as exc:
            load_config(_write(tmp_path, "f.json", dict(DET_CFG, seed=-1)))
        assert exc.value.field == "seed"

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValidationError) as exc:
            load_config(_write(tmp_path, "g.json", dict(DET_CFG, kind="mystery")))
        assert exc.value.field == "kind"

    def test_balance_check_requires_k1(self, tmp_path):
        bad = {
            "kind": "balance_check",
            "seed": 1,
            "dims": {"T": 16, "E": 4, "K": 2},
        }
        with pytest.raises(ValidationError) as exc:
            load_config(_write(tmp_path, "h.json", bad))
        assert exc.value.field == "dims.K"

    def test_config_hash_stable_under_key_order(self, tmp_path):
        a = load_config(_write(tmp_path, "i.json", DET_CFG))
        reordered = {k: DET_CFG[k] for k in reversed(list(DET_CFG))}
        b = load_config(_write(tmp_path, "j.json", reordered))
        assert a.config_hash == b.config_hash


class TestRunDeterministic:
    def test_artifacts_and_verdicts(self, tmp_path):
        cfg = load_config(_write(tmp_path, "cfg.json", DET_CFG))
        status = run(cfg, out_dir=tmp_path / "out")
        assert status == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["verdicts"]["theorem1"] is True
        assert summary["verdicts"]["theorem2"] is True
        assert summary["seed"] == 11
        assert summary["config_hash"] == cfg.config_hash
        assert (tmp_path / "out" / "trace.csv").exists()

    def test_reruns_byte_identical(self, tmp_path):
        cfg_path = _write(tmp_path, "cfg.json", DET_CFG)
        for d in ("run1", "run2"):
            assert run(load_config(cfg_path), out_dir=tmp_path / d) == 0
        for name in ("trace.csv", "summary.json"):
            a = (tmp_path / "run1" / name).read_bytes()
            b = (tmp_path / "run2" / name).read_bytes()
            assert a == b


class TestTraceCsv:
    def test_columns_and_rows(self, tmp_path):
        cfg = dict(DET_CFG, seed=16, dims={"T": 12, "E": 3, "K": 1}, iterations=30)
        run(load_config(_write(tmp_path, "cfg.json", cfg)), out_dir=tmp_path / "out")
        with open(tmp_path / "out" / "trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "n", "lagrangian", "sum_benefit", "sum_abs_imbalance",
            "num_switches", "max_load", "min_load", "tie_flag",
        ]
        assert len(rows) == 31
        # p = 0 on the first step: each token adds its largest affinity
        gamma = random_affinities(12, 3, seed=16)
        assert float(rows[1][1]) == pytest.approx(gamma.max(axis=1).sum())
        assert int(rows[1][4]) == 0  # no switches recorded on the first step


class TestRunBalance:
    CFG = {
        "kind": "balance_check",
        "seed": 3,
        "dims": {"T": 16, "E": 4, "K": 1},
        "instances": 3,
    }

    def test_theorem3_verdict(self, tmp_path):
        cfg = load_config(_write(tmp_path, "cfg.json", self.CFG))
        status = run(cfg, out_dir=tmp_path / "out")
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["verdicts"]["theorem3"] is True
        assert status == 0
        csv_text = (tmp_path / "out" / "balance.csv").read_text()
        assert csv_text.count("\n") == 4  # header + one row per instance

    def test_parallel_matches_serial(self, tmp_path):
        cfg_path = _write(tmp_path, "cfg.json", self.CFG)
        run(load_config(cfg_path), out_dir=tmp_path / "serial")
        run(load_config(cfg_path), out_dir=tmp_path / "par", parallel=2)
        a = (tmp_path / "serial" / "balance.csv").read_bytes()
        b = (tmp_path / "par" / "balance.csv").read_bytes()
        assert a == b

    @pytest.mark.parametrize(
        "parallel,cpus,workers",
        [(1000, 8, 3), (2, 8, 2), (1000, 2, 2), (1000, None, None)],
    )
    def test_pool_size_bounded(self, tmp_path, monkeypatch, parallel, cpus, workers):
        """The pool holds min(parallel, instances, CPUs) workers and is not
        started for one; a stand-in executor records the size, so no
        process starts."""
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        cfg = load_config(_write(tmp_path, "cfg.json", self.CFG))
        assert run(cfg, out_dir=tmp_path / "out", parallel=parallel) == 0
        assert sizes == ([] if workers is None else [workers])


class TestRunStochasticKinds:
    def test_moment_check(self, tmp_path):
        cfg = {
            "kind": "moment_check",
            "seed": 5,
            "distributions": [
                {"type": "beta", "a": 2.0, "b": 3.0},
                {"type": "beta", "a": 3.0, "b": 2.0},
                {"type": "uniform", "lo": 0.1, "hi": 0.9},
            ],
            "T": 12,
            "K": 1,
            "replicas": 2000,
        }
        status = run(load_config(_write(tmp_path, "m.json", cfg)),
                     out_dir=tmp_path / "out")
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert status == 0
        assert summary["verdicts"]["mean_unbiased"] is True
        assert (tmp_path / "out" / "moments.csv").exists()

    def test_hessian_check(self, tmp_path):
        cfg = {
            "kind": "hessian_check",
            "seed": 6,
            "distributions": [
                {"type": "beta", "a": 2.0, "b": 2.5},
                {"type": "beta", "a": 2.5, "b": 2.0},
                {"type": "beta", "a": 2.2, "b": 2.2},
            ],
            "K": 1,
            "directions": 5,
        }
        status = run(load_config(_write(tmp_path, "h.json", cfg)),
                     out_dir=tmp_path / "out")
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert status == 0
        assert summary["verdicts"]["hessian_identity"] is True

    def test_schedule_compare_columns(self, tmp_path):
        cfg = {
            "kind": "schedule_compare",
            "seed": 7,
            "dims": {"T": 16, "E": 4, "K": 1},
            "u": 0.01,
            "iterations": 20,
        }
        status = run(load_config(_write(tmp_path, "s.json", cfg)),
                     out_dir=tmp_path / "out")
        assert status == 0
        header = (tmp_path / "out" / "schedule_compare.csv").read_text().splitlines()[0]
        for name in ("deepseek_sign", "inverse_n", "inverse_sqrt_n"):
            assert f"imbalance_{name}" in header
            assert f"imbalance_norm_{name}" in header


BALANCE_CFG = {
    "kind": "balance_check",
    "seed": 3,
    "dims": {"T": 16, "E": 4, "K": 1},
    "instances": 1,
}
MOMENT_CFG = {
    "kind": "moment_check",
    "seed": 5,
    "distributions": [
        {"type": "beta", "a": 2.0, "b": 3.0},
        {"type": "uniform", "lo": 0.1, "hi": 0.9},
    ],
    "T": 12,
    "K": 1,
    "replicas": 100,
}
REGRET_CFG = {
    "kind": "regret_sweep",
    "seed": 7,
    "distributions": [
        {"type": "beta", "a": 2.0, "b": 3.0},
        {"type": "beta", "a": 3.0, "b": 2.0},
    ],
    "T": 8,
    "K": 1,
}
HESSIAN_CFG = {
    "kind": "hessian_check",
    "seed": 3,
    "distributions": MOMENT_CFG["distributions"],
    "K": 1,
    "directions": 2,
}
COMPARE_CFG = {
    "kind": "schedule_compare",
    "seed": 7,
    "dims": {"T": 16, "E": 4, "K": 1},
    "u": 0.01,
    "iterations": 20,
}
UNIFORM = {"type": "uniform", "lo": 0.1, "hi": 0.9}
MIXTURE = {
    "type": "mixture",
    "components": [
        {"type": "uniform", "lo": 0.0, "hi": 0.5},
        {"type": "beta", "a": 2.0, "b": 2.0},
    ],
    "weights": [0.25, 0.75],
}


def _first_distribution(spec):
    """Config ``distributions`` with ``spec`` as expert 0."""
    return {"distributions": [spec, UNIFORM]}


class TestFromSpec:
    """Distribution specs, parsed by ``load_config``."""

    def _load(self, tmp_path, spec):
        cfg = dict(MOMENT_CFG, **_first_distribution(spec))
        params = load_config(_write(tmp_path, "spec.json", cfg)).params
        return params["distributions"].dists[0]

    def test_beta_roundtrip(self, tmp_path):
        d = self._load(tmp_path, {"type": "beta", "a": 2.0, "b": 3.0})
        assert d == BetaScore(2.0, 3.0)

    def test_uniform_roundtrip(self, tmp_path):
        d = self._load(tmp_path, {"type": "uniform", "lo": 0.2, "hi": 0.9})
        assert d == UniformScore(0.2, 0.9)

    def test_mixture_roundtrip(self, tmp_path):
        d = self._load(tmp_path, MIXTURE)
        assert isinstance(d, MixtureScore)
        assert d.components == (UniformScore(0.0, 0.5), BetaScore(2.0, 2.0))
        assert d.weights == (0.25, 0.75)

    def test_unknown_type_rejected(self, tmp_path):
        with pytest.raises(ValidationError) as exc:
            self._load(tmp_path, {"type": "gamma", "a": 1.0})
        assert exc.value.field == "distributions.0.type"

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ValidationError) as exc:
            self._load(tmp_path, {"type": "beta", "a": 2.0, "b": 3.0, "scale": 2.0})
        assert exc.value.field == "distributions.0.scale"

    def test_missing_key_rejected(self, tmp_path):
        with pytest.raises(ValidationError) as exc:
            self._load(tmp_path, {"type": "uniform", "lo": 0.2})
        assert exc.value.field == "distributions.0.hi"


# Each kind's required keys, and the defaults of the others.
REQUIRED_ONLY = {
    "deterministic_run": {k: DET_CFG[k] for k in ("kind", "dims", "schedule", "iterations")},
    "balance_check": {"kind": "balance_check", "dims": BALANCE_CFG["dims"]},
    "moment_check": {k: MOMENT_CFG[k] for k in ("kind", "distributions", "T", "K")},
    "hessian_check": {k: HESSIAN_CFG[k] for k in ("kind", "distributions", "K")},
    "regret_sweep": {k: REGRET_CFG[k] for k in ("kind", "distributions", "T", "K")},
    "schedule_compare": {k: COMPARE_CFG[k] for k in ("kind", "dims", "u", "iterations")},
}
DEFAULTS = {
    "deterministic_run": {},
    "balance_check": {"u_fraction": 0.9, "instances": 1, "score_scale": 1.0},
    "moment_check": {"replicas": 10_000, "bias": [0.0, 0.0]},
    "hessian_check": {"bias": [0.0, 0.0], "directions": 20},
    "regret_sweep": {
        "rounds": 10_000, "replicas": 32, "kappa": 0.1, "grid_points": 200,
        "checkpoints": [100, 1000, 10_000],
    },
    "schedule_compare": {},
}


def _assert_exit_two(tmp_path, capsys, cfg, field):
    """``cfg`` fails to load naming ``field``, and its CLI run exits 2
    with the field on stderr and writes nothing."""
    cfg_path = _write(tmp_path, "bad.json", cfg)
    with pytest.raises(ValidationError) as exc:
        load_config(cfg_path)
    assert exc.value.field == field
    status = main([
        cfg["kind"].replace("_", "-"), "--config", str(cfg_path),
        "--out", str(tmp_path / "out"),
    ])
    assert status == 2
    err = capsys.readouterr().err
    assert f"config error: {field}:" in err
    assert "Warning" not in err
    assert not (tmp_path / "out").exists()


def _assert_instance_exits_two(tmp_path, capsys, field, value, seed, parallel):
    """A two-instance ``balance_check`` from ``seed`` with ``field`` set to
    ``value`` loads, but its run raises, and its CLI run exits 2, naming the
    field and the instance seed, without a traceback."""
    cfg_path = _write(tmp_path, "cfg.json", dict(
        BALANCE_CFG, seed=seed, instances=2, **{field: value},
    ))
    cfg = load_config(cfg_path)
    assert cfg.params[field] == value
    with pytest.raises(ValidationError) as exc:
        run(cfg, out_dir=tmp_path / "run" / "nested", parallel=int(parallel))
    assert exc.value.field == field
    status = main([
        "balance-check", "--config", str(cfg_path), "--parallel", parallel,
        "--out", str(tmp_path / "out"),
    ])
    assert status == 2
    err = capsys.readouterr().err
    assert f"config error: {field}: instance seed {seed}:" in err
    assert "Traceback" not in err and "Warning" not in err
    # neither run leaves the output directories it made; one that was
    # already there stays
    assert not (tmp_path / "run").exists()
    assert not (tmp_path / "out").exists()
    with pytest.raises(ValidationError):
        run(cfg, out_dir=tmp_path, parallel=int(parallel))
    assert (tmp_path / "cfg.json").exists()


class TestConfigErrors:
    """A bad config exits 2 (not 1, the code of a failed check) and names the
    dotted field; valid configs keep their hash."""

    @pytest.mark.parametrize(
        "base,changes,field",
        [
            (DET_CFG, {"schedule": {"kind": "deepseek_sign", "u": -1}}, "schedule.u"),
            (DET_CFG, {"iterations": "abc"}, "iterations"),
            (BALANCE_CFG, {"instances": 0}, "instances"),
            (DET_CFG, {"seed": True}, "seed"),
            (DET_CFG, {"seed": -1}, "seed"),
            (DET_CFG, {"seed": 2**64}, "seed"),
            (DET_CFG, {"iterations": 2.7}, "iterations"),
            (MOMENT_CFG, {"distributions": [{"type": "beta", "a": 0.5, "b": 3.0},
                                            {"type": "beta", "a": 2.0, "b": 2.0}]},
             "distributions.0"),
            (MOMENT_CFG, {"bias": [0.0, 0.0, 0.0]}, "bias"),
            (DET_CFG, {"dims": {"T": 16, "E": 1, "K": 1}}, "dims.E"),
            (DET_CFG, {"dims": {"T": 16, "E": 4, "K": 1, "L": 4}}, "dims.L"),
            # the dual step has no zero-sum projection to switch on
            (DET_CFG, {"zero_sum": True}, "zero_sum"),
            (REGRET_CFG, {"kappa": 2.0}, "kappa"),
            (MOMENT_CFG, _first_distribution({"type": "beta", "a": "2.5", "b": 3.0}),
             "distributions.0.a"),
            (MOMENT_CFG, _first_distribution({"type": "beta", "a": True, "b": 3.0}),
             "distributions.0.a"),
            (MOMENT_CFG, _first_distribution({"type": "uniform", "lo": False, "hi": 0.9}),
             "distributions.0.lo"),
            (MOMENT_CFG, _first_distribution(dict(MIXTURE, weights="1")),
             "distributions.0.weights"),
            (MOMENT_CFG, _first_distribution({"type": "beta", "a": "nan", "b": 3.0}),
             "distributions.0.a"),
            (MOMENT_CFG, _first_distribution({"type": "beta", "a": 1e400, "b": 3.0}),
             "distributions.0.a"),
            # the cdf's continued fraction needs more than 10,000 terms
            (MOMENT_CFG, _first_distribution({"type": "beta", "a": 1e12, "b": 1e12}),
             "distributions.0"),
            # ln B(a, b) overflows
            (MOMENT_CFG, _first_distribution({"type": "beta", "a": 1e306, "b": 1.0}),
             "distributions.0"),
            (MOMENT_CFG, _first_distribution(dict(MIXTURE, components="ab")),
             "distributions.0.components"),
            (MOMENT_CFG, _first_distribution(dict(MIXTURE, components=[1, 2])),
             "distributions.0.components.0"),
            (MOMENT_CFG, {"K": 2}, "K"),
            # T = 1: |g|^2 is a constant, so its z-score is rounding noise
            (MOMENT_CFG, {"T": 1}, "T"),
            (REGRET_CFG, {"K": 2}, "K"),
            # K = E: every pi is 1 and the finite difference is rounding noise
            (HESSIAN_CFG, {"K": 2}, "K"),
            (MOMENT_CFG, _first_distribution({"type": "uniform", "lo": 0.0, "hi": 5e-324}),
             "distributions.0"),
            # 16 K T max(1, u T n) = 16 * 8 * 1e308 * 8 * 5 overflows
            (DET_CFG, {"dims": {"T": 8, "E": 2, "K": 1},
                       "schedule": {"kind": "constant", "u": 1e308}, "iterations": 5},
             "schedule.u"),
            (DET_CFG, {"schedule": {"kind": "deepseek_sign", "u": 1e306},
                       "iterations": 10**4}, "schedule.u"),
            (COMPARE_CFG, {"u": 1e307}, "u"),
            # 2 u T n = 1.3e308 is finite, but the Lagrangian is not
            (DET_CFG, {"dims": {"T": 64, "E": 2, "K": 1},
                       "schedule": {"kind": "constant", "u": 2e305}, "iterations": 5},
             "schedule.u"),
            # integers no double holds
            (DET_CFG, {"iterations": 10**400}, "schedule.u"),
            (COMPARE_CFG, {"iterations": 10**400}, "u"),
            (DET_CFG, {"dims": {"T": 10**400, "E": 4, "K": 1}}, "schedule.u"),
            (COMPARE_CFG, {"dims": {"T": 10**400, "E": 4, "K": 1}}, "u"),
            # the overflow rule admits these, but no (iterations, E) float64
            # column can be shaped
            (DET_CFG, {"dims": {"T": 8, "E": 2, "K": 1},
                       "schedule": {"kind": "constant", "u": 1e-300}, "iterations": 10**30},
             "iterations"),
            (COMPARE_CFG, {"dims": {"T": 8, "E": 2, "K": 1}, "u": 1e-300,
                           "iterations": 10**30}, "iterations"),
            (COMPARE_CFG, {"u": 0}, "u"),
            # theorem 3 assumes u < ubar
            (BALANCE_CFG, {"u_fraction": 1.0}, "u_fraction"),
            (BALANCE_CFG, {"u_fraction": 1e308}, "u_fraction"),
            # no checkpoint is <= rounds, so no verdict would check one
            (REGRET_CFG, {"rounds": 50}, "checkpoints"),
            # the ratio rule reads them in the given order
            (REGRET_CFG, {"rounds": 50, "checkpoints": [50, 10]}, "checkpoints"),
            (REGRET_CFG, {"checkpoints": []}, "checkpoints"),
        ],
        ids=["negative_u", "string_iterations", "zero_instances", "bool_seed",
             "negative_seed", "seed_past_64_bits",
             "float_iterations", "beta_shape_below_one", "bias_length_mismatch",
             "single_expert", "unknown_dims_key", "unknown_zero_sum_key",
             "kappa_above_one",
             "string_beta_shape", "bool_beta_shape", "bool_uniform_bound",
             "string_weights", "nan_string_beta_shape", "overflowing_beta_shape",
             "beta_cdf_too_many_terms", "beta_ln_b_overflows",
             "string_components", "number_components", "moment_k_equals_e",
             "moment_single_token", "regret_k_equals_e", "hessian_k_equals_e", "nan_pdf_mass",
             "overflowing_constant_step", "overflowing_sign_step",
             "overflowing_compare_step", "overflowing_lagrangian",
             "huge_iterations", "huge_compare_iterations", "huge_token_count",
             "huge_compare_token_count",
             "unshapeable_iterations", "unshapeable_compare_iterations", "zero_compare_u",
             "u_fraction_one", "u_fraction_huge", "checkpoints_past_rounds",
             "checkpoints_not_increasing", "no_checkpoints"],
    )
    def test_exit_two_names_field(self, tmp_path, capsys, recwarn, base, changes, field):
        _assert_exit_two(tmp_path, capsys, dict(base, **changes), field)
        assert not recwarn.list

    @pytest.mark.parametrize("parallel", ["1", "2"])
    @pytest.mark.parametrize(
        "scale", [1e-300, 50.0, 1e308],
        ids=["degenerate_gaps", "softmax_overflow", "infinite_scores"],
    )
    def test_bad_score_scale_exits_two(self, tmp_path, capsys, recwarn, scale, parallel):
        # The drawn scores decide this, so the config loads; the run names
        # the field and the instance seed, also from a worker process.
        _assert_instance_exits_two(tmp_path, capsys, "score_scale", scale, 1, parallel)
        assert not recwarn.list

    @pytest.mark.parametrize("parallel", ["1", "2"])
    @pytest.mark.parametrize(
        "fraction", [1e-320, 1e-306], ids=["u_underflows", "default_budget_overflows"],
    )
    def test_tiny_u_fraction_exits_two(self, tmp_path, capsys, recwarn, fraction, parallel):
        # u = fraction * ubar, with ubar about 8.49e-6 at seed 3, is 0 or
        # about 8.5e-312; then 2.5 / u, the default budget's step count, is inf
        _assert_instance_exits_two(tmp_path, capsys, "u_fraction", fraction, 3, parallel)
        assert not recwarn.list

    @pytest.mark.parametrize(
        "changes",
        [
            # two replicas that drew the same loads (seeds picked for the
            # block-by-block, expert-by-expert draw order)
            *({"seed": seed, "T": 2, "replicas": 2} for seed in (1, 2, 4, 6)),
            # expert 0 outscores the others on every draw
            {"T": 8, "replicas": 1000, "distributions": [
                {"type": "uniform", "lo": 0.6, "hi": 0.9},
                {"type": "uniform", "lo": 0.1, "hi": 0.4},
                {"type": "uniform", "lo": 0.1, "hi": 0.4},
            ]},
        ],
        ids=["seed1", "seed2", "seed4", "seed6", "disjoint_supports"],
    )
    def test_zero_replica_spread_exits_two(self, tmp_path, capsys, recwarn, changes):
        # The draws decide this, so the config loads; a z-score over a zero
        # spread is undefined, so the run names the field rather than
        # dividing by zero.
        three = {"distributions": [*MOMENT_CFG["distributions"], UNIFORM]}
        cfg_path = _write(tmp_path, "cfg.json", dict(MOMENT_CFG, **three) | changes)
        with pytest.raises(ValidationError) as exc:
            run(load_config(cfg_path), out_dir=tmp_path / "run")
        assert exc.value.field == "replicas"
        status = main([
            "moment-check", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
        ])
        assert status == 2
        err = capsys.readouterr().err
        assert "config error: replicas:" in err
        assert "Traceback" not in err and "Warning" not in err
        assert not recwarn.list
        assert not (tmp_path / "run").exists() and not (tmp_path / "out").exists()

    def test_zero_strong_convexity_exits_two(self, tmp_path, capsys, recwarn):
        # The grid decides this, so the config loads: at seed 14 a grid point
        # puts the uniform expert's whole support below the Beta's, the
        # estimate is mu = 0 and no 1/(mu n) step exists, so the run names
        # kappa, the margin that sets the domain, rather than dividing by zero.
        cfg_path = _write(tmp_path, "cfg.json", dict(
            REGRET_CFG, seed=14, grid_points=20,
            distributions=[{"type": "beta", "a": 2.0, "b": 3.0}, UNIFORM, MIXTURE],
        ))
        with pytest.raises(ValidationError) as exc:
            run(load_config(cfg_path), out_dir=tmp_path / "run" / "nested")
        assert exc.value.field == "kappa"
        status = main([
            "regret-sweep", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
        ])
        assert status == 2
        err = capsys.readouterr().err
        assert "config error: kappa:" in err and "mu must be finite and > 0" in err
        assert "Traceback" not in err and "Warning" not in err
        assert not recwarn.list
        assert not (tmp_path / "run").exists() and not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "kind,key",
        [(k, key) for k, cfg in REQUIRED_ONLY.items() for key in cfg if key != "kind"],
    )
    def test_missing_required_key(self, tmp_path, capsys, kind, key):
        cfg = {k: v for k, v in REQUIRED_ONLY[kind].items() if k != key}
        _assert_exit_two(tmp_path, capsys, cfg, key)

    @pytest.mark.parametrize(
        "kind,key",
        [
            (k, key)
            for k in REQUIRED_ONLY
            for key in [*REQUIRED_ONLY[k], *DEFAULTS[k]]
            if key != "kind"
        ],
    )
    def test_null_rejected(self, tmp_path, capsys, kind, key):
        # only an absent key takes its default
        _assert_exit_two(tmp_path, capsys, dict(REQUIRED_ONLY[kind], **{key: None}), key)

    @pytest.mark.parametrize(
        "kind,name,value",
        [("balance_check", "budget", 100), ("hessian_check", "fd_step", 1e-3),
         ("deterministic_run", "out_dir", "out"), ("deterministic_run", "--seed", 3)],
    )
    def test_removed_setting_exits_two(self, tmp_path, capsys, kind, name, value):
        # The balance budget is derived from u, T and E, and the Hessian
        # check's step is FD_STEP; the output directory has one home, --out,
        # and the seed one, the config's seed, so config_hash is the hash of
        # the file that ran.
        if not name.startswith("--"):
            cfg = dict(REQUIRED_ONLY[kind], **{name: value})
            _assert_exit_two(tmp_path, capsys, cfg, name)
            return
        cfg_path = _write(tmp_path, "cfg.json", REQUIRED_ONLY[kind])
        with pytest.raises(SystemExit) as exc:
            main([
                kind.replace("_", "-"), "--config", str(cfg_path),
                name, str(value), "--out", str(tmp_path / "out"),
            ])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {name} {value}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", list(REQUIRED_ONLY))
    def test_required_keys_take_defaults(self, tmp_path, kind):
        params = load_config(_write(tmp_path, "r.json", REQUIRED_ONLY[kind])).params
        for key, want in DEFAULTS[kind].items():
            got = params[key]
            if isinstance(want, list):
                assert np.asarray(got).dtype == np.asarray(want).dtype
                got = list(got)
            assert got == want and type(got) is type(want), key

    def test_valid_config_hash_unchanged(self, tmp_path):
        # sha256 of the canonical JSON of DET_CFG, as every release computed it
        cfg = load_config(_write(tmp_path, "ok.json", DET_CFG))
        assert cfg.config_hash == "886644c88fbed145"


class TestMain:
    def test_exit_zero_on_pass(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, "cfg.json", DET_CFG)
        status = main([
            "deterministic-run", "--config", str(cfg_path),
            "--out", str(tmp_path / "out"),
        ])
        assert status == 0

    def test_exit_two_on_config_error(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, "cfg.json", dict(DET_CFG, flavor="x"))
        status = main([
            "deterministic-run", "--config", str(cfg_path),
            "--out", str(tmp_path / "out"),
        ])
        assert status == 2
        assert "config error" in capsys.readouterr().err

    def test_exit_two_on_kind_mismatch(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, "cfg.json", DET_CFG)
        status = main([
            "balance-check", "--config", str(cfg_path),
            "--out", str(tmp_path / "out"),
        ])
        assert status == 2

    @pytest.mark.parametrize("parallel", ["0", "-3"])
    def test_exit_two_on_parallel_below_one(self, tmp_path, capsys, parallel):
        cfg_path = _write(tmp_path, "cfg.json", BALANCE_CFG)
        status = main([
            "balance-check", "--config", str(cfg_path),
            "--parallel", parallel, "--out", str(tmp_path / "out"),
        ])
        assert status == 2
        assert "config error: --parallel: must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_exit_three_on_crash(self, tmp_path, capsys, monkeypatch):
        # an exception in a handler is a crash, not a failed check
        def crash(cfg, out):
            raise RuntimeError("planted crash")

        keys = cli._SCHEMA["deterministic_run"][1]
        monkeypatch.setitem(cli._SCHEMA, "deterministic_run", (crash, keys))
        cfg_path = _write(tmp_path, "cfg.json", DET_CFG)
        status = main([
            "deterministic-run", "--config", str(cfg_path),
            "--out", str(tmp_path / "out"),
        ])
        assert status == 3
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert "RuntimeError: planted crash" in err
        # the run leaves a summary that names the crash and has no verdicts
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        cfg = load_config(cfg_path)
        assert summary == {
            "kind": "deterministic_run", "seed": cfg.seed,
            "config_hash": cfg.config_hash, "build": cli.__version__,
            "error": {"type": "RuntimeError", "message": "planted crash"},
        }
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["summary.json"]

    @pytest.mark.parametrize("kind", [k for k in cli.KINDS if k != "balance_check"])
    def test_parallel_only_on_balance_check(self, tmp_path, capsys, kind):
        cfg_path = _write(tmp_path, "cfg.json", REQUIRED_ONLY[kind])
        with pytest.raises(SystemExit) as exc:
            main([
                kind.replace("_", "-"), "--config", str(cfg_path),
                "--parallel", "2", "--out", str(tmp_path / "out"),
            ])
        assert exc.value.code == 2
        assert "unrecognized arguments: --parallel 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "case", ["non_utf8", "huge_integer", "deep_json", "deep_mixture"],
    )
    def test_unreadable_config_exits_two(self, tmp_path, capsys, case):
        # Each of these used to escape load_config as a bare exception.  The
        # mixture is shallow enough for the JSON decoder (two levels per
        # mixture) and too deep for the spec walk (four frames per mixture).
        depth = sys.getrecursionlimit() // 3
        spec = UNIFORM
        for _ in range(depth):
            spec = {"type": "mixture", "components": [spec], "weights": [1.0]}
        text = {
            "non_utf8": b'{"kind": "moment_check", "T": "\xff"}',
            "huge_integer": b'{"kind": "moment_check", "T": ' + b"9" * 5000 + b"}",
            "deep_json": b"[" * 100_000 + b"]" * 100_000,
            "deep_mixture": json.dumps(
                dict(MOMENT_CFG, distributions=[spec, UNIFORM])
            ).encode(),
        }[case]
        if case == "deep_mixture":
            json.loads(text)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(text)
        status = main([
            "moment-check", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
        ])
        assert status == 2
        assert capsys.readouterr().err.startswith(f"config error: {cfg_path}:")
        assert not (tmp_path / "out").exists()

    def test_exit_three_on_crash_while_parsing(self, tmp_path, capsys, monkeypatch):
        # a bug in the parser is a crash too, not a config error
        def crash(*args, **kwargs):
            raise RuntimeError("planted parse crash")

        monkeypatch.setattr(cli, "_parse_keys", crash)
        cfg_path = _write(tmp_path, "cfg.json", DET_CFG)
        status = main([
            "deterministic-run", "--config", str(cfg_path),
            "--out", str(tmp_path / "out"),
        ])
        assert status == 3
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError: planted parse crash" in err
        assert not (tmp_path / "out").exists()


# Eight configs off the benchmark's shapes: a non-integer L (T=50, E=4 and
# T=10, E=3), K > 1 traces and comparisons with odd T and E,
# a three-instance balance check, and one run of each stochastic kind on a
# Beta, a uniform and a mixture expert (the moment check over two replica
# blocks: 600 replicas against MOMENT_BATCH = 512).
PINNED_CONFIGS = {
    "trace_t50_e4": {
        "kind": "deterministic_run", "seed": 4, "dims": {"T": 50, "E": 4, "K": 1},
        "schedule": {"kind": "deepseek_sign", "u": 0.002}, "iterations": 40,
    },
    "trace_t10_e3": {
        "kind": "deterministic_run", "seed": 5, "dims": {"T": 10, "E": 3, "K": 1},
        "schedule": {"kind": "inverse_sqrt_n", "u": 0.05}, "iterations": 30,
    },
    "trace_k3_t37_e7": {
        "kind": "deterministic_run", "seed": 6, "dims": {"T": 37, "E": 7, "K": 3},
        "schedule": {"kind": "inverse_n", "u": 0.5}, "iterations": 25,
    },
    "compare_k2_t37_e7": {
        "kind": "schedule_compare", "seed": 8, "dims": {"T": 37, "E": 7, "K": 2},
        "u": 0.01, "iterations": 25,
    },
    "balance_3_instances": {
        "kind": "balance_check", "seed": 9, "dims": {"T": 16, "E": 4, "K": 1},
        "instances": 3,
    },
    "moment_mixed_e3k1": {
        "kind": "moment_check", "seed": 12,
        "distributions": [*MOMENT_CFG["distributions"], MIXTURE],
        "T": 6, "K": 1, "replicas": 600, "bias": [0.02, -0.01, -0.01],
    },
    "hessian_mixed_e3k1": {
        "kind": "hessian_check", "seed": 13,
        "distributions": [*MOMENT_CFG["distributions"], MIXTURE],
        "K": 1, "directions": 3,
    },
    "regret_mixed_e3k1": {
        "kind": "regret_sweep", "seed": 14,
        "distributions": [*REGRET_CFG["distributions"], MIXTURE],
        "T": 8, "K": 1, "kappa": 0.8, "grid_points": 6, "rounds": 100,
        "replicas": 8, "checkpoints": [10, 100],
    },
}
PINNED_SHA256 = {
    "trace_t50_e4": {
        "trace.csv": "1f8923cdbf12f1531229b533f82bb45a5076f3919d3a62941f69245dfe7b8179",
        "summary.json": "160c4e54d949c5f6272ffcdf025c004938d36bfe94d1004a66ecf6648544533e",
    },
    "trace_t10_e3": {
        "trace.csv": "662b37873c9f403b05345bfbf5c0dd3dc16d40bf3f483a2623f7484c3b4cec1b",
        "summary.json": "9ddbca062f65189925fcf1c01af6e6932a7662dfa22091bb245afb9fc7afee34",
    },
    "trace_k3_t37_e7": {
        "trace.csv": "be162b682c13e3f45a0229d890c8d26bc13a14c3a1d9fecadaa5de2194d91e8e",
        "summary.json": "cafdeee8a707440033e8f41e48d4b518513fba7cc5ad4590bd2021bafc34b754",
    },
    "compare_k2_t37_e7": {
        "schedule_compare.csv":
            "4eae89f6c473ff9a2a99fdddb92382dac0008ad55d8e1af292545529f0449657",
        "summary.json": "50cb3a998d13444ce800aeaf1a6e22ec17cb1a6920e2c31144d00f1019afe094",
    },
    "balance_3_instances": {
        "balance.csv": "18cd3d5d6f81f18282a37297dfaa8a9d08662375b8a8ac4b0d04b71d293dcb4d",
        "summary.json": "071ba540ce0a1ca6b665ededa942d0f51e5e2ecd6c44b1e4bdbbae2714dfbb80",
    },
    "moment_mixed_e3k1": {
        "moments.csv": "b4cfef0a3bf0059fcf6c7ac01a82ac82c384516c7548edc3403b04a621a685f7",
        "summary.json": "3cc0630c4cac2108433e3199ae8a001bcc19c47765934d95bf4b0ed844e8b130",
    },
    "hessian_mixed_e3k1": {
        "hessian.csv": "d372ef46ed36f5b1c40b45e682e00edbd73ade54475ebfafef4e086ae00edcd7",
        "summary.json": "3d1db0629a7f4485aa4ee97729150e6ea7fea48b4e66dfa38e549ab293f43ed9",
    },
    "regret_mixed_e3k1": {
        "regret.csv": "b978255924034e2457ddb3ed0d00ae7a6df0e17206626146f7b783645ec790b1",
        "summary.json": "52b3a0b2a448ca2914a7d8df156fa5eeedddb91ac9635cb2fa4743b22ee07fee",
    },
}


class TestArtifactBytes:
    """Every file a run writes, byte for byte, as the per-row CSV writers of
    earlier releases wrote it (numpy 2.4, IEEE float64): the CSV format and
    the ``.17g`` floats must not drift."""

    @pytest.mark.parametrize("name", list(PINNED_CONFIGS))
    def test_sha256_pinned(self, tmp_path, name):
        cfg_path = _write(tmp_path, "cfg.json", PINNED_CONFIGS[name])
        assert run(load_config(cfg_path), out_dir=tmp_path / "out") == 0
        got = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (tmp_path / "out").iterdir()
        }
        assert got == PINNED_SHA256[name]

    def test_csv_writer_matches_csv_module(self, tmp_path):
        # the writer against csv.writer with every float cell of a numpy
        # column formatted as .17g, on the floats whose text is special
        floats = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, 0.1])
        columns = {
            "n": range(1, 8),
            "value": floats,
            "count": np.arange(7, dtype=np.int64) - 3,
            "flag": np.array([True, False] * 3 + [True]),
            "ratio": [1 / 3, -0.0, 2.5, 1e-300, float("inf"), 7.0, -1.5],
            "ok": [True, False, True, True, False, False, True],
            "seed": [np.int64(2**40), np.int32(-5), 0, 1, 2, 3, 4],
        }
        cli._write_csv(tmp_path / "fast.csv", columns)
        with open(tmp_path / "slow.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            cells = [
                [format(x, ".17g") for x in col.tolist()] if col is floats
                else col.tolist() if isinstance(col, np.ndarray) else col
                for col in columns.values()
            ]
            writer.writerows(zip(*cells))
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()
        with pytest.raises(ValueError):
            cli._write_csv(tmp_path / "short.csv", {"a": range(3), "b": floats})

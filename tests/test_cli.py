import json

import pytest

from alflb.cli import load_config, main, run
from alflb.distributions import BetaScore, MixtureScore, UniformScore
from alflb.errors import ParseError, ValidationError


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


class TestLoadConfig:
    def test_minimal_deterministic_run(self, tmp_path):
        cfg = load_config(_write(tmp_path, "a.json", DET_CFG))
        assert cfg.kind == "deterministic_run"
        assert cfg.seed == 11
        assert cfg.params["dims"].L == 4
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
        return load_config(_write(tmp_path, "spec.json", cfg)).params["dist"].dists[0]

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
            (DET_CFG, {"iterations": 2.7}, "iterations"),
            (MOMENT_CFG, {"distributions": [{"type": "beta", "a": 0.5, "b": 3.0},
                                            {"type": "beta", "a": 2.0, "b": 2.0}]},
             "distributions.0"),
            (MOMENT_CFG, {"bias": [0.0, 0.0, 0.0]}, "bias"),
            (DET_CFG, {"dims": {"T": 16, "E": 1, "K": 1}}, "dims.E"),
            (DET_CFG, {"dims": {"T": 16, "E": 4, "K": 1, "L": 4}}, "dims.L"),
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
            (MOMENT_CFG, _first_distribution(dict(MIXTURE, components="ab")),
             "distributions.0.components"),
            (MOMENT_CFG, _first_distribution(dict(MIXTURE, components=[1, 2])),
             "distributions.0.components.0"),
            (MOMENT_CFG, {"K": 2}, "K"),
            (REGRET_CFG, {"K": 2}, "K"),
            # K = E: every pi is 1 and the finite difference is rounding noise
            (HESSIAN_CFG, {"K": 2}, "K"),
            (MOMENT_CFG, _first_distribution({"type": "uniform", "lo": 0.0, "hi": 5e-324}),
             "distributions"),
        ],
        ids=["negative_u", "string_iterations", "zero_instances", "bool_seed",
             "float_iterations", "beta_shape_below_one", "bias_length_mismatch",
             "single_expert", "unknown_dims_key", "kappa_above_one",
             "string_beta_shape", "bool_beta_shape", "bool_uniform_bound",
             "string_weights", "nan_string_beta_shape", "overflowing_beta_shape",
             "string_components", "number_components", "moment_k_equals_e",
             "regret_k_equals_e", "hessian_k_equals_e", "nan_pdf_mass"],
    )
    def test_exit_two_names_field(self, tmp_path, capsys, base, changes, field):
        cfg_path = _write(tmp_path, "bad.json", dict(base, **changes))
        with pytest.raises(ValidationError) as exc:
            load_config(cfg_path)
        assert exc.value.field == field
        status = main([
            base["kind"].replace("_", "-"), "--config", str(cfg_path),
            "--out", str(tmp_path / "out"),
        ])
        assert status == 2
        assert f"config error: {field}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    def test_seed_override(self, tmp_path):
        cfg_path = _write(tmp_path, "cfg.json", DET_CFG)
        status = main([
            "deterministic-run", "--config", str(cfg_path),
            "--seed", "99", "--out", str(tmp_path / "out"),
        ])
        assert status == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["seed"] == 99

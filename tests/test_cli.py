import concurrent.futures
import csv
import hashlib
import json
import os

import pytest

from alflb.cli import load_config, main, run
from alflb.distributions import BetaScore, MixtureScore, UniformScore
from alflb.errors import ParseError, ValidationError
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
        assert float(rows[1][1]) == pytest.approx(gamma.values.max(axis=1).sum())
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

            def map(self, fn, args):
                return map(fn, args)

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
             "distributions.0"),
        ],
        ids=["negative_u", "string_iterations", "zero_instances", "bool_seed",
             "float_iterations", "beta_shape_below_one", "bias_length_mismatch",
             "single_expert", "unknown_dims_key", "kappa_above_one",
             "string_beta_shape", "bool_beta_shape", "bool_uniform_bound",
             "string_weights", "nan_string_beta_shape", "overflowing_beta_shape",
             "string_components", "number_components", "moment_k_equals_e",
             "regret_k_equals_e", "hessian_k_equals_e", "nan_pdf_mass"],
    )
    def test_exit_two_names_field(self, tmp_path, capsys, recwarn, base, changes, field):
        cfg_path = _write(tmp_path, "bad.json", dict(base, **changes))
        with pytest.raises(ValidationError) as exc:
            load_config(cfg_path)
        assert exc.value.field == field
        status = main([
            base["kind"].replace("_", "-"), "--config", str(cfg_path),
            "--out", str(tmp_path / "out"),
        ])
        assert status == 2
        err = capsys.readouterr().err
        assert f"config error: {field}:" in err
        assert "Warning" not in err
        assert not recwarn.list
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

    @pytest.mark.parametrize("parallel", ["0", "-3"])
    def test_exit_two_on_parallel_below_one(self, tmp_path, capsys, parallel):
        cfg_path = _write(tmp_path, "cfg.json", DET_CFG)
        status = main([
            "deterministic-run", "--config", str(cfg_path),
            "--parallel", parallel, "--out", str(tmp_path / "out"),
        ])
        assert status == 2
        assert "config error: --parallel: must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_exit_three_on_crash(self, tmp_path, capsys):
        # a valid config whose dual step overflows: a crash, not a failed check
        cfg = {
            "kind": "deterministic_run",
            "dims": {"T": 8, "E": 2, "K": 1},
            "schedule": {"kind": "constant", "u": 1e308},
            "iterations": 5,
        }
        cfg_path = _write(tmp_path, "cfg.json", cfg)
        status = main([
            "deterministic-run", "--config", str(cfg_path),
            "--out", str(tmp_path / "out"),
        ])
        assert status == 3
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert "InvalidRange: bias entries must be finite" in err

    def test_seed_override(self, tmp_path):
        cfg_path = _write(tmp_path, "cfg.json", DET_CFG)
        status = main([
            "deterministic-run", "--config", str(cfg_path),
            "--seed", "99", "--out", str(tmp_path / "out"),
        ])
        assert status == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["seed"] == 99


# Five configs off the benchmark's shapes: a non-integer L (T=50, E=4 and
# T=10, E=3 under zero_sum), K > 1 traces and comparisons with odd T and E,
# and a three-instance balance check.
PINNED_CONFIGS = {
    "trace_t50_e4": {
        "kind": "deterministic_run", "seed": 4, "dims": {"T": 50, "E": 4, "K": 1},
        "schedule": {"kind": "deepseek_sign", "u": 0.002}, "iterations": 40,
    },
    "trace_t10_e3_zero_sum": {
        "kind": "deterministic_run", "seed": 5, "dims": {"T": 10, "E": 3, "K": 1},
        "schedule": {"kind": "inverse_sqrt_n", "u": 0.05}, "iterations": 30,
        "zero_sum": True,
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
}
PINNED_SHA256 = {
    "trace_t50_e4": {
        "trace.csv": "8aa47891a16cf2b4a9b862b76d8f56bd4592a97c43c40aeccde8ee9039c229c0",
        "summary.json": "5349aef7937d784a38be5d2eeef9f2f10d2cb408a6e02f94311689b048762e8b",
    },
    "trace_t10_e3_zero_sum": {
        "trace.csv": "97ff3d2818e12d74fbab9992a0e6354563672a3bc23beeb40095b06964030650",
        "summary.json": "4f6496186fb09049c8d44087fd70d7db472f37e97a28afa5afb50eacabea2f88",
    },
    "trace_k3_t37_e7": {
        "trace.csv": "614bf8febfb3f764bcd06821d27060dbd718580e32f30d192fc3b15de258d11d",
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

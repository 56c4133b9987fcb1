"""Experiment configuration, orchestration and result emission.

Configs are strict JSON: unknown keys are rejected anywhere, since a typo in
a balancing constant would silently invalidate a theorem check.  Every run
writes one CSV (through ``_write_csv``, the only code that knows the format)
plus a JSON summary carrying a reproducibility block (seed, config hash,
build id) and per-checker verdicts.  The process exits 0 when every enabled
checker passed, 1 when one failed, 2 on a config error and 3 on a crash.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import hashlib
import json
import math
import os
import sys
import traceback
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np

from . import __version__
from .balancer import ScheduleKind, StepSchedule
from .core import BiasVector, ProblemDims, RandomSource
from .deterministic import (
    audit_trace,
    check_balance_convergence,
    iterate,
    simulate_fixed_scores,
    ubar,
)
from .distributions import AffinityDistributionSet, BetaScore, MixtureScore, UniformScore
from .errors import InvalidRange, ParseError, ValidationError
from .router import RawScoreMatrix, softmax_affinities
from .stochastic import (
    check_gradient_moments,
    check_kappa,
    edge_weights_quadrature,
    expected_loss_minimizer,
    hessian_fd_errors,
    regret_experiment,
    strong_convexity_estimate,
)

KINDS = (
    "deterministic_run",
    "balance_check",
    "moment_check",
    "hessian_check",
    "regret_sweep",
    "schedule_compare",
)

_SCHEDULE_NAMES = {k.value: k for k in ScheduleKind}

# Allowed keys per experiment kind (beyond the common ones).
_COMMON_KEYS = {"kind", "seed", "out_dir"}
_KIND_KEYS = {
    "deterministic_run": {"dims", "schedule", "iterations", "zero_sum"},
    "balance_check": {"dims", "u_fraction", "budget", "instances", "score_scale"},
    "moment_check": {"distributions", "T", "K", "replicas", "bias"},
    "hessian_check": {"distributions", "K", "bias", "directions", "fd_step"},
    "regret_sweep": {
        "distributions", "T", "K", "rounds", "replicas", "kappa",
        "grid_points", "checkpoints",
    },
    "schedule_compare": {"dims", "u", "iterations"},
}
# Constructor and parameter keys per distribution type.
_DISTRIBUTION_TYPES = {
    "beta": (BetaScore, ("a", "b")),
    "uniform": (UniformScore, ("lo", "hi")),
    "mixture": (MixtureScore, ("components", "weights")),
}


@dataclass
class ExperimentConfig:
    kind: str
    seed: int
    raw: dict
    out_dir: Path | None = None
    params: dict = field(default_factory=dict)

    @property
    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _need(cfg: dict, key: str, path: str = ""):
    if key not in cfg:
        raise ValidationError(path + key, "missing")
    return cfg[key]


def _integer(value, field: str, minimum: int | None = 1) -> int:
    """A JSON integer >= ``minimum`` (if given); bools, floats and strings
    are rejected, not coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(field, f"must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(field, f"must be >= {minimum}, got {value}")
    return value


def _real(value, field: str, positive: bool = False) -> float:
    """A finite JSON number, optionally > 0."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
        if math.isfinite(x):
            if positive and not x > 0:
                raise ValidationError(field, f"must be > 0, got {value}")
            return x
    raise ValidationError(field, f"must be a finite number, got {value!r}")


def _boolean(value, field: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(field, f"must be true or false, got {value!r}")
    return value


def _object(value, field: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(field, "must be a JSON object")
    return value


def _only_keys(d: dict, allowed, path: str = "") -> None:
    extra = set(d) - set(allowed)
    if extra:
        raise ValidationError(path + sorted(extra)[0], "unknown key")


def _in_range(field: str, check, *args):
    """Apply a range rule the library owns, as a ValidationError on ``field``."""
    try:
        return check(*args)
    except InvalidRange as exc:
        raise ValidationError(field, str(exc)) from exc


def _parse_dims(d) -> ProblemDims:
    d = _object(d, "dims")
    _only_keys(d, ("T", "E", "K"), "dims.")
    T, E, K = (
        _integer(_need(d, key, "dims."), f"dims.{key}", minimum=None)
        for key in ("T", "E", "K")
    )
    try:
        return ProblemDims(T=T, E=E, K=K)
    except InvalidRange as exc:
        raise ValidationError(f"dims.{exc.field}", str(exc)) from exc


def _parse_schedule(d) -> StepSchedule:
    d = _object(d, "schedule")
    _only_keys(d, ("kind", "u"), "schedule.")
    name = _need(d, "kind", "schedule.")
    if not isinstance(name, str) or name not in _SCHEDULE_NAMES:
        raise ValidationError("schedule.kind", f"unknown schedule {name!r}")
    u = _real(_need(d, "u", "schedule."), "schedule.u")
    return _in_range("schedule.u", StepSchedule, _SCHEDULE_NAMES[name], u)


def _list(value, field: str, what: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(field, f"must be a list of {what}")
    return value


def _parse_distribution(spec, path: str):
    """One Beta, uniform or mixture score distribution; a mixture's
    components are specs themselves."""
    spec = _object(spec, path)
    kind = spec.get("type")
    if not isinstance(kind, str) or kind not in _DISTRIBUTION_TYPES:
        raise ValidationError(f"{path}.type", f"unknown distribution type {kind!r}")
    build, keys = _DISTRIBUTION_TYPES[kind]
    _only_keys(spec, ("type", *keys), path + ".")
    values = [_need(spec, key, path + ".") for key in keys]
    if kind == "mixture":
        components, weights = values
        args = (
            tuple(
                _parse_distribution(c, f"{path}.components.{j}")
                for j, c in enumerate(_list(components, f"{path}.components", "specs"))
            ),
            tuple(
                _real(w, f"{path}.weights.{j}")
                for j, w in enumerate(_list(weights, f"{path}.weights", "numbers"))
            ),
        )
    else:
        args = [_real(v, f"{path}.{key}") for v, key in zip(values, keys)]
    return _in_range(path, build, *args)


def _parse_distributions(specs) -> AffinityDistributionSet:
    specs = _list(specs, "distributions", "distribution specs")
    dists = tuple(
        _parse_distribution(spec, f"distributions.{i}") for i, spec in enumerate(specs)
    )
    return _in_range("distributions", AffinityDistributionSet, dists)


def _parse_bias(raw: dict, E: int) -> np.ndarray:
    bias = raw.get("bias", [0.0] * E)
    if not isinstance(bias, list) or len(bias) != E:
        raise ValidationError("bias", f"must be a list of {E} numbers")
    return np.array(
        [_real(b, f"bias.{k}") for k, b in enumerate(bias)], dtype=np.float64
    )


def load_config(path) -> ExperimentConfig:
    """Parse and strictly validate a JSON experiment config."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ValidationError("<root>", "config must be a JSON object")
    kind = raw.get("kind")
    if kind not in KINDS:
        raise ValidationError("kind", f"must be one of {KINDS}, got {kind!r}")
    _only_keys(raw, _COMMON_KEYS | _KIND_KEYS[kind])
    seed = _integer(raw.get("seed", 0), "seed", minimum=0)
    if seed >= 2**64:
        raise ValidationError("seed", "must be a 64-bit unsigned integer")

    params: dict = {}
    if kind in ("deterministic_run", "balance_check", "schedule_compare"):
        params["dims"] = _parse_dims(_need(raw, "dims"))
    if kind == "deterministic_run":
        params["schedule"] = _parse_schedule(_need(raw, "schedule"))
        params["iterations"] = _integer(_need(raw, "iterations"), "iterations")
        params["zero_sum"] = _boolean(raw.get("zero_sum", False), "zero_sum")
    elif kind == "balance_check":
        if params["dims"].K != 1:
            raise ValidationError("dims.K", "balance_check requires K=1")
        if not params["dims"].balanced:
            raise ValidationError("dims", "balance_check requires E to divide K*T")
        params["u_fraction"] = _real(
            raw.get("u_fraction", 0.9), "u_fraction", positive=True
        )
        budget = raw.get("budget")
        params["budget"] = None if budget is None else _integer(budget, "budget")
        params["instances"] = _integer(raw.get("instances", 1), "instances")
        params["score_scale"] = _real(
            raw.get("score_scale", 1.0), "score_scale", positive=True
        )
    elif kind == "schedule_compare":
        params["u"] = _real(_need(raw, "u"), "u")
        _in_range("u", StepSchedule, ScheduleKind.CONSTANT, params["u"])
        params["iterations"] = _integer(_need(raw, "iterations"), "iterations")
    elif kind in ("moment_check", "hessian_check", "regret_sweep"):
        params["dist"] = _parse_distributions(_need(raw, "distributions"))
        E = params["dist"].E
        # With K = E every expert is selected: every gradient is 0 and pi is
        # 1 whatever the bias, so the moment z-scores, the strong-convexity
        # estimate and the Hessian check are all 0/0.
        params["K"] = _integer(_need(raw, "K"), "K")
        if params["K"] >= E:
            raise ValidationError("K", f"must be <= {E - 1} for {E} distributions")
        if kind == "moment_check":
            params["T"] = _integer(_need(raw, "T"), "T")
            params["replicas"] = _integer(
                raw.get("replicas", 10_000), "replicas", minimum=2
            )
            params["bias"] = _parse_bias(raw, E)
        elif kind == "hessian_check":
            params["bias"] = _parse_bias(raw, E)
            params["directions"] = _integer(raw.get("directions", 20), "directions")
            params["fd_step"] = _real(raw.get("fd_step", 1e-3), "fd_step", positive=True)
        else:
            params["T"] = _integer(_need(raw, "T"), "T")
            params["rounds"] = _integer(raw.get("rounds", 10_000), "rounds")
            params["replicas"] = _integer(raw.get("replicas", 32), "replicas")
            kappa = _real(raw.get("kappa", 0.1), "kappa")
            params["kappa"] = _in_range("kappa", check_kappa, kappa)
            params["grid_points"] = _integer(raw.get("grid_points", 200), "grid_points")
            checkpoints = _list(
                raw.get("checkpoints", [100, 1000, 10_000]), "checkpoints", "integers"
            )
            params["checkpoints"] = [
                _integer(c, f"checkpoints.{i}") for i, c in enumerate(checkpoints)
            ]

    out_dir = raw.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ValidationError("out_dir", "must be a path string")
    out_dir = Path(out_dir) if out_dir is not None else None
    return ExperimentConfig(kind=kind, seed=seed, raw=raw, out_dir=out_dir, params=params)


# ---------------------------------------------------------------------------
# Experiment handlers: each returns (verdicts, summary_extra) and writes CSVs
# ---------------------------------------------------------------------------

def _write_csv(path: Path, columns: dict) -> None:
    """A header row of the column names, then one row per index of the
    equal-length columns: numpy float columns as ``.17g``, every other cell
    as ``csv`` writes it."""
    cells = []
    for col in columns.values():
        if isinstance(col, np.ndarray):
            is_float, col = col.dtype.kind == "f", col.tolist()
            if is_float:
                col = [format(x, ".17g") for x in col]
        cells.append(col)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(zip(*cells, strict=True))


def _seeded_affinities(dims: ProblemDims, seed: int, scale: float = 1.0):
    rng = RandomSource(seed, stream=1).generator()
    raw = RawScoreMatrix(scale * rng.standard_normal((dims.T, dims.E)))
    return softmax_affinities(raw)


def _run_deterministic(cfg: ExperimentConfig, out: Path):
    dims: ProblemDims = cfg.params["dims"]
    sched: StepSchedule = cfg.params["schedule"]
    gamma = _seeded_affinities(dims, cfg.seed)
    trace = simulate_fixed_scores(
        gamma, sched, cfg.params["iterations"], K=dims.K,
        zero_sum=cfg.params["zero_sum"],
    )
    n = len(trace.lagrangian)
    row = trace.switches[:, 0]
    _write_csv(out / "trace.csv", {
        "n": range(1, n + 1),
        "lagrangian": trace.lagrangian,
        "sum_benefit": np.bincount(row, trace.benefit, minlength=n),
        "sum_abs_imbalance": np.abs(trace.loads - trace.L).sum(axis=1),
        "num_switches": np.bincount(row, minlength=n),
        "max_load": trace.loads.max(axis=1),
        "min_load": trace.loads.min(axis=1),
        "tie_flag": trace.tie.astype(np.int64),
    })
    verdicts, extra = {}, {}
    if dims.K == 1:
        audit = audit_trace(trace)
        residuals = audit.identity_residual
        verdicts["theorem1"] = bool(np.all(residuals <= 1e-9 * audit.identity_scale))
        extra["max_identity_residual"] = float(residuals.max()) if len(residuals) else 0.0
        if sched.kind is ScheduleKind.DEEPSEEK_SIGN:
            verdicts["theorem2"] = audit.switch_violations == 0
            extra["switches_audited"] = audit.switches_audited
    return verdicts, extra


def _balance_one(seed: int, dims_tuple: tuple[int, int, int], score_scale: float,
                 u_fraction: float, budget):
    dims = ProblemDims(*dims_tuple)
    gamma = _seeded_affinities(dims, seed, score_scale)
    u_bar = ubar(gamma)
    u = u_fraction * u_bar
    if budget is None:
        budget = max(10 * dims.T * dims.E, math.ceil(2.5 / u) + 100)
    report = check_balance_convergence(gamma, u, budget=int(budget))
    ok = report.converged and report.stayed and report.load_step_ok
    return {
        "seed": seed,
        "u": u,
        "ubar": u_bar,
        "converged": report.converged,
        "stayed": report.stayed,
        "load_step_ok": report.load_step_ok,
        "max_load_step": report.max_load_step,
        "iterations_run": report.iterations_run,
        "any_tie": report.any_tie,
        "pass": ok,
    }


def _run_balance(cfg: ExperimentConfig, out: Path, parallel: int = 1):
    dims: ProblemDims = cfg.params["dims"]
    instances = cfg.params["instances"]
    seeds = [cfg.seed + i for i in range(instances)]
    args = [
        (s, (dims.T, dims.E, dims.K), cfg.params["score_scale"],
         cfg.params["u_fraction"], cfg.params["budget"])
        for s in seeds
    ]
    workers = min(parallel, instances, os.cpu_count() or 1)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_balance_one_star, args))
    else:
        rows = [_balance_one(*a) for a in args]
    _write_csv(out / "balance.csv", {key: [r[key] for r in rows] for key in rows[0]})
    verdicts = {"theorem3": all(r["pass"] for r in rows)}
    return verdicts, {"instances": instances, "failures": [r["seed"] for r in rows if not r["pass"]]}


def _balance_one_star(a):
    return _balance_one(*a)


def _run_moment(cfg: ExperimentConfig, out: Path):
    dist: AffinityDistributionSet = cfg.params["dist"]
    p = BiasVector(cfg.params["bias"])
    rng = RandomSource(cfg.seed, stream=2).generator()
    report = check_gradient_moments(
        dist, p, cfg.params["K"], cfg.params["T"], cfg.params["replicas"], rng
    )
    _write_csv(out / "moments.csv", {
        "expert": range(dist.E),
        "pi": report.pi,
        "expected_mean": report.expected_mean,
        "empirical_mean": report.empirical_mean,
        "mean_z": report.mean_z,
    })
    verdicts = {
        "mean_unbiased": bool(np.abs(report.mean_z).max() <= 4.0),
        "variance_formula": abs(report.var_z) <= 4.0,
        "second_moment_formula": abs(report.second_moment_z) <= 4.0,
    }
    extra = {
        "max_abs_z": report.max_abs_z,
        "var_z": report.var_z,
        "second_moment_z": report.second_moment_z,
    }
    return verdicts, extra


def _run_hessian(cfg: ExperimentConfig, out: Path):
    dist: AffinityDistributionSet = cfg.params["dist"]
    K = cfg.params["K"]
    p = BiasVector(cfg.params["bias"])
    rng = RandomSource(cfg.seed, stream=3).generator()
    weights = edge_weights_quadrature(dist, p, K)
    rel_errors = hessian_fd_errors(
        dist, p, K, weights, rng, cfg.params["directions"], cfg.params["fd_step"]
    )
    _write_csv(out / "hessian.csv", {
        "direction": range(len(rel_errors)), "relative_error": rel_errors,
    })
    verdicts = {"hessian_identity": bool(np.all(rel_errors <= 1e-3))}
    return verdicts, {"max_relative_error": float(rel_errors.max())}


def _run_regret(cfg: ExperimentConfig, out: Path):
    dist: AffinityDistributionSet = cfg.params["dist"]
    T, K = cfg.params["T"], cfg.params["K"]
    E = dist.E
    L = K * T / E
    kappa = cfg.params["kappa"]
    rng = RandomSource(cfg.seed, stream=4).generator()
    sc = strong_convexity_estimate(dist, K, kappa, T, cfg.params["grid_points"], rng)
    p_star = expected_loss_minimizer(dist, K, T, L)
    acct = regret_experiment(
        dist, T, K, sc.mu, p_star, cfg.params["rounds"], cfg.params["replicas"],
        rng, kappa=kappa,
    )
    _write_csv(out / "regret.csv", {
        "n": range(1, acct.rounds + 1),
        "mean_regret": acct.mean_cum_regret,
        "bound": acct.bound,
        "diam_p": acct.mean_diam,
        "s_n": acct.s_n_proxy,
    })
    checkpoints = [c for c in cfg.params["checkpoints"] if c <= acct.rounds]
    cp_ok = {
        str(c): bool(acct.mean_cum_regret[c - 1] <= acct.bound[c - 1])
        for c in checkpoints
    }
    ratios = [
        acct.mean_cum_regret[c - 1] / (1.0 + math.log(c)) for c in checkpoints
    ]
    nonincreasing = all(b <= a * (1.0 + 1e-9) for a, b in zip(ratios, ratios[1:]))
    verdicts = {
        "regret_bound_checkpoints": all(cp_ok.values()),
        "regret_ratio_nonincreasing": nonincreasing,
    }
    extra = {
        "mu_hat": sc.mu,
        "c_hat": sc.c_hat,
        "sigma2": acct.sigma2,
        "p_star": [float(v) for v in p_star.values],
        "checkpoint_verdicts": cp_ok,
        "diam_violation_rounds": acct.diam_violations,
    }
    return verdicts, extra


def _run_schedule_compare(cfg: ExperimentConfig, out: Path):
    dims: ProblemDims = cfg.params["dims"]
    gamma = _seeded_affinities(dims, cfg.seed)
    L = dims.target_load
    kinds = [ScheduleKind.DEEPSEEK_SIGN, ScheduleKind.INVERSE_N, ScheduleKind.INVERSE_SQRT_N]
    iterations = cfg.params["iterations"]
    columns = {"n": range(1, iterations + 1)}
    for k in kinds:
        steps = iterate(gamma, StepSchedule(kind=k, u=cfg.params["u"]), dims.K)
        loads = np.array([a for _, _, _, _, a, _ in islice(steps, iterations)])
        dev = np.abs(loads - L).mean(axis=1)
        columns[f"imbalance_{k.value}"] = dev
        columns[f"imbalance_norm_{k.value}"] = dev / L
    _write_csv(out / "schedule_compare.csv", columns)
    return {}, {"schedules": [k.value for k in kinds]}


_HANDLERS = {
    "deterministic_run": _run_deterministic,
    "moment_check": _run_moment,
    "hessian_check": _run_hessian,
    "regret_sweep": _run_regret,
    "schedule_compare": _run_schedule_compare,
}


def run(cfg: ExperimentConfig, out_dir=None, parallel: int = 1) -> int:
    """Execute one experiment; write artifacts; return the exit status."""
    out = Path(out_dir) if out_dir is not None else (cfg.out_dir or Path("."))
    out.mkdir(parents=True, exist_ok=True)
    if cfg.kind == "balance_check":
        verdicts, extra = _run_balance(cfg, out, parallel=parallel)
    else:
        verdicts, extra = _HANDLERS[cfg.kind](cfg, out)
    summary = {
        "kind": cfg.kind,
        "seed": cfg.seed,
        "config_hash": cfg.config_hash,
        "build": __version__,
        "verdicts": {k: bool(v) for k, v in verdicts.items()},
        **extra,
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0 if all(verdicts.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="alflb",
        description="Load-balancing primal-dual simulator and verification lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        sp = sub.add_parser(kind.replace("_", "-"), help=f"run a {kind} experiment")
        sp.add_argument("--config", required=True, help="path to a JSON config")
        sp.add_argument("--seed", type=int, default=None, help="override config seed")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--parallel", type=int, default=1,
                        help="fan independent instances over N processes")
        sp.set_defaults(kind=kind)
    args = parser.parse_args(argv)
    if args.parallel < 1:
        print(f"config error: --parallel: must be >= 1, got {args.parallel}",
              file=sys.stderr)
        return 2

    try:
        cfg = load_config(args.config)
    except (ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if cfg.kind != args.kind:
        print(
            f"config error: kind: config says {cfg.kind!r}, "
            f"subcommand is {args.kind!r}",
            file=sys.stderr,
        )
        return 2
    if args.seed is not None:
        if not 0 <= args.seed < 2**64:
            print("config error: seed: must be a 64-bit unsigned integer",
                  file=sys.stderr)
            return 2
        cfg.raw["seed"] = args.seed
        cfg.seed = args.seed
    try:
        return run(cfg, out_dir=args.out, parallel=args.parallel)
    except Exception:  # 1 means a check failed; a crash must not look like one
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Experiment configuration, orchestration and result emission.

Configs are strict JSON: unknown keys are rejected anywhere, since a typo in
a balancing constant would silently invalidate a theorem check.  Each kind's
keys, with their parsers and defaults, are declared once, in ``_SCHEMA``.
Every run writes one CSV (through ``_write_csv``, the only code that knows the
format) plus a JSON summary carrying a reproducibility block (seed, config
hash, build id) and per-checker verdicts.  The process exits 0 when every
enabled checker passed, 1 when one failed, 2 on a config error and 3 on a
crash.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import math
import os
import shutil
import sys
import traceback
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .balancer import ScheduleKind, StepSchedule, check_overflow_bound
from .core import ProblemDims, RandomSource
from .deterministic import (
    audit_trace,
    check_balance_convergence,
    iterate,
    simulate_fixed_scores,
    ubar,
)
from .distributions import AffinityDistributionSet, BetaScore, MixtureScore, UniformScore
from .errors import ConfigError, InvalidRange, NoConvergence, ParseError, ValidationError
from .router import RawScoreMatrix, softmax_affinities
from .stochastic import (
    check_gradient_moments,
    check_kappa,
    edge_weights_quadrature,
    expected_loss_minimizer,
    hessian_fd_errors,
    hessian_identity_holds,
    regret_experiment,
    strong_convexity_estimate,
)

_SCHEDULE_NAMES = {k.value: k for k in ScheduleKind}
# The default of a config key that must be given.
_REQUIRED = object()


@dataclass
class ExperimentConfig:
    kind: str
    seed: int
    raw: dict
    params: dict = field(default_factory=dict)

    @property
    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _parse_keys(d: dict, keys: dict, path: str = "", read=()) -> dict:
    """The JSON object ``d`` parsed against the key table ``keys``: each key
    maps to ``(parse, default)``, and its value goes to ``parse(value,
    dotted field)``.  Only an absent key takes its default, so an explicit
    null goes to the parser too.  Keys in neither ``keys`` nor ``read`` (the
    ones the caller reads itself) are rejected."""
    extra = set(d) - {*keys, *read}
    if extra:
        raise ValidationError(path + sorted(extra)[0], "unknown key")
    out = {}
    for key, (parse, default) in keys.items():
        if key in d:
            out[key] = parse(d[key], path + key)
        elif default is _REQUIRED:
            raise ValidationError(path + key, "missing")
        else:
            out[key] = default
    return out


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


def _object(value, field: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(field, "must be a JSON object")
    return value


def _list(value, field: str, what: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(field, f"must be a list of {what}")
    return value


def _reals(value, field: str) -> tuple[float, ...]:
    return tuple(
        _real(x, f"{field}.{i}") for i, x in enumerate(_list(value, field, "numbers"))
    )


def _integers(value, field: str) -> tuple[int, ...]:
    return tuple(
        _integer(x, f"{field}.{i}") for i, x in enumerate(_list(value, field, "integers"))
    )


def _in_range(field: str, check, *args):
    """Apply a range rule the library owns, as a ValidationError on ``field``.
    ``NoConvergence`` counts as one: ``BetaScore`` raises it for shapes whose
    cdf needs too many continued-fraction terms."""
    try:
        return check(*args)
    except (InvalidRange, NoConvergence) as exc:
        raise ValidationError(field, str(exc)) from exc


def _u_fraction(value, field: str) -> float:
    """u as a fraction of ubar, in (0, 1): theorem 3 assumes u < ubar."""
    x = _real(value, field, positive=True)
    if not x < 1.0:
        raise ValidationError(field, f"must be < 1 (theorem 3 needs u < ubar), got {value}")
    return x


def _schedule_kind(name, field: str) -> ScheduleKind:
    if not isinstance(name, str) or name not in _SCHEDULE_NAMES:
        raise ValidationError(field, f"unknown schedule {name!r}")
    return _SCHEDULE_NAMES[name]


_DIMS_KEYS = dict.fromkeys(("T", "E", "K"), (partial(_integer, minimum=None), _REQUIRED))
_SCHEDULE_KEYS = {"kind": (_schedule_kind, _REQUIRED), "u": (_real, _REQUIRED)}


def _parse_dims(d, field: str) -> ProblemDims:
    dims = _parse_keys(_object(d, field), _DIMS_KEYS, field + ".")
    try:
        return ProblemDims(**dims)
    except InvalidRange as exc:
        raise ValidationError(f"{field}.{exc.field}", str(exc)) from exc


def _parse_schedule(d, field: str) -> StepSchedule:
    schedule = _parse_keys(_object(d, field), _SCHEDULE_KEYS, field + ".")
    return _in_range(f"{field}.u", StepSchedule, *schedule.values())


def _specs(value, field: str) -> tuple:
    return tuple(
        _parse_distribution(spec, f"{field}.{i}")
        for i, spec in enumerate(_list(value, field, "distribution specs"))
    )


# Constructor and key table per distribution type; a mixture's components
# are specs themselves.
_DISTRIBUTION_TYPES = {
    "beta": (BetaScore, {"a": (_real, _REQUIRED), "b": (_real, _REQUIRED)}),
    "uniform": (UniformScore, {"lo": (_real, _REQUIRED), "hi": (_real, _REQUIRED)}),
    "mixture": (MixtureScore, {
        "components": (_specs, _REQUIRED), "weights": (_reals, _REQUIRED),
    }),
}


def _parse_distribution(spec, path: str):
    """One Beta, uniform or mixture score distribution."""
    spec = _object(spec, path)
    kind = spec.get("type")
    if not isinstance(kind, str) or kind not in _DISTRIBUTION_TYPES:
        raise ValidationError(f"{path}.type", f"unknown distribution type {kind!r}")
    build, keys = _DISTRIBUTION_TYPES[kind]
    args = _parse_keys(spec, keys, path + ".", read=("type",))
    return _in_range(path, build, *args.values())


def _parse_distributions(value, field: str) -> AffinityDistributionSet:
    return _in_range(field, AffinityDistributionSet, _specs(value, field))


def load_config(path) -> ExperimentConfig:
    """Parse and strictly validate a JSON experiment config: its kind's keys
    from ``_SCHEMA``, then the rules that join two keys.  A file that cannot
    be read or decoded, or whose specs nest past the recursion limit, raises
    ``ParseError`` naming the path."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # not UTF-8, an integer past Python's digit limit, or nested too deep
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError("<root>", "config must be a JSON object")
    kind = raw.get("kind")
    if kind not in KINDS:
        raise ValidationError("kind", f"must be one of {KINDS}, got {kind!r}")
    try:
        params = _parse_keys(raw, _SCHEMA[kind][1], read=("kind", "seed"))
    except RecursionError as exc:  # mixture specs nested too deep
        raise ParseError(f"{path}: {exc}") from exc
    seed = _integer(raw.get("seed", 0), "seed", minimum=0)
    if seed >= 2**64:
        raise ValidationError("seed", "must be a 64-bit unsigned integer")

    dims = params.get("dims")
    if kind == "balance_check":
        if dims.K != 1:
            raise ValidationError("dims.K", "balance_check requires K=1")
        if dims.T % dims.E:
            raise ValidationError("dims", "balance_check requires E to divide K*T")
    elif kind in ("deterministic_run", "schedule_compare"):
        u_field, u = (("schedule.u", params["schedule"].u) if kind == "deterministic_run"
                      else ("u", params["u"]))
        iterations = params["iterations"]
        _in_range(u_field, check_overflow_bound, u, dims.K, dims.T, iterations)
        # the most rows of an (iterations, E) float64 column numpy can address
        most = np.iinfo(np.intp).max // (8 * dims.E)
        if iterations > most:
            raise ValidationError("iterations", f"must be <= {most} for E = {dims.E}")
    else:
        E = params["distributions"].E
        # With K = E every expert is selected: every gradient is 0 and pi is
        # 1 whatever the bias, so the moment z-scores, the strong-convexity
        # estimate and the Hessian check are all 0/0.
        if params["K"] >= E:
            raise ValidationError("K", f"must be <= {E - 1} for {E} distributions")
        if "bias" in params:
            bias = (0.0,) * E if params["bias"] is None else params["bias"]
            if len(bias) != E:
                raise ValidationError("bias", f"must be a list of {E} numbers")
            params["bias"] = np.array(bias, dtype=np.float64)
        if kind == "regret_sweep":  # the ratio rule reads the checkpoints in order
            cps = list(params["checkpoints"])
            if not (cps and cps[0] <= params["rounds"] and cps == sorted(set(cps))):
                raise ValidationError(
                    "checkpoints", f"must increase strictly from one <= rounds: {cps}"
                )
    return ExperimentConfig(kind=kind, seed=seed, raw=raw, params=params)


# ---------------------------------------------------------------------------
# Experiment handlers: each returns (verdicts, summary_extra) and writes CSVs
# ---------------------------------------------------------------------------

def _write_csv(path: Path, columns: dict) -> None:
    """A header row of the column names, then one row per index of the
    equal-length columns, CRLF-ended as ``csv.writer`` ends them: numpy float
    columns as ``.17g``, every other cell as ``str``.  Names and cells are
    numbers, bools or plain names, which ``csv`` would not quote either."""
    cells, formats = [], []
    for col in columns.values():
        is_float = isinstance(col, np.ndarray) and col.dtype.kind == "f"
        formats.append("%.17g" if is_float else "%s")
        cells.append(col.tolist() if isinstance(col, np.ndarray) else col)
    row = ",".join(formats) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\r\n")
        fh.writelines(row % cell for cell in zip(*cells, strict=True))


def _seeded_affinities(dims: ProblemDims, seed: int, scale: float = 1.0):
    draw = RandomSource(seed, stream=1).generator().standard_normal((dims.T, dims.E))
    with np.errstate(over="ignore"):  # RawScoreMatrix rejects an inf score
        draw *= scale
    raw = RawScoreMatrix(draw)
    del draw  # raw holds a copy; free the draw before the softmax
    return softmax_affinities(raw)


def _run_deterministic(cfg: ExperimentConfig, out: Path):
    dims: ProblemDims = cfg.params["dims"]
    sched: StepSchedule = cfg.params["schedule"]
    gamma = _seeded_affinities(dims, cfg.seed)
    trace = simulate_fixed_scores(gamma, sched, cfg.params["iterations"], K=dims.K)
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
        verdicts["theorem1"] = audit.identity_holds
        extra["max_identity_residual"] = float(residuals.max()) if len(residuals) else 0.0
        if sched.kind is ScheduleKind.DEEPSEEK_SIGN:
            verdicts["theorem2"] = audit.switches_hold
            extra["switches_audited"] = audit.switches_audited
    return verdicts, extra


def _balance_one(seed: int, dims: ProblemDims, score_scale: float, u_fraction: float):
    try:
        gamma = _seeded_affinities(dims, seed, score_scale)
        u_bar = ubar(gamma)
    except InvalidRange as exc:
        # the drawn scores decide this, so it cannot be caught at parse time
        raise ValidationError("score_scale", f"instance seed {seed}: {exc}") from None
    u = u_fraction * u_bar
    try:
        report = check_balance_convergence(gamma, u)
    except InvalidRange as exc:
        # u underflows to 0 or 2.5 / u, the default budget's step count, overflows
        raise ValidationError("u_fraction", f"instance seed {seed}: {exc}") from None
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
        "pass": report.passed,
    }


def _run_balance(cfg: ExperimentConfig, out: Path, parallel: int = 1):
    dims: ProblemDims = cfg.params["dims"]
    instances = cfg.params["instances"]
    one = partial(_balance_one, dims=dims, score_scale=cfg.params["score_scale"],
                  u_fraction=cfg.params["u_fraction"])
    seeds = range(cfg.seed, cfg.seed + instances)
    workers = min(parallel, instances, os.cpu_count() or 1)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(one, seeds))
    else:
        rows = list(map(one, seeds))
    _write_csv(out / "balance.csv", {key: [r[key] for r in rows] for key in rows[0]})
    verdicts = {"theorem3": all(r["pass"] for r in rows)}
    return verdicts, {"instances": instances, "failures": [r["seed"] for r in rows if not r["pass"]]}


def _run_moment(cfg: ExperimentConfig, out: Path):
    dist: AffinityDistributionSet = cfg.params["distributions"]
    rng = RandomSource(cfg.seed, stream=2).generator()
    try:
        report = check_gradient_moments(
            dist, cfg.params["bias"], cfg.params["K"], cfg.params["T"],
            cfg.params["replicas"], rng,
        )
    except InvalidRange as exc:
        if exc.field != "replicas":
            raise
        raise ValidationError("replicas", str(exc)) from exc
    _write_csv(out / "moments.csv", {
        "expert": range(dist.E),
        "pi": report.pi,
        "expected_mean": report.expected_mean,
        "empirical_mean": report.empirical_mean,
        "mean_z": report.mean_z,
    })
    verdicts = {
        "mean_unbiased": report.mean_unbiased,
        "variance_formula": report.variance_formula,
        "second_moment_formula": report.second_moment_formula,
    }
    extra = {
        "max_abs_z": report.max_abs_z,
        "var_z": report.var_z,
        "second_moment_z": report.second_moment_z,
    }
    return verdicts, extra


def _run_hessian(cfg: ExperimentConfig, out: Path):
    dist: AffinityDistributionSet = cfg.params["distributions"]
    K = cfg.params["K"]
    p = cfg.params["bias"]
    rng = RandomSource(cfg.seed, stream=3).generator()
    weights = edge_weights_quadrature(dist, p, K)
    rel_errors = hessian_fd_errors(dist, p, K, weights, rng, cfg.params["directions"])
    _write_csv(out / "hessian.csv", {
        "direction": range(len(rel_errors)), "relative_error": rel_errors,
    })
    verdicts = {"hessian_identity": hessian_identity_holds(rel_errors)}
    return verdicts, {"max_relative_error": float(rel_errors.max())}


def _run_regret(cfg: ExperimentConfig, out: Path):
    dist: AffinityDistributionSet = cfg.params["distributions"]
    T, K = cfg.params["T"], cfg.params["K"]
    kappa = cfg.params["kappa"]
    rng = RandomSource(cfg.seed, stream=4).generator()
    sc = strong_convexity_estimate(dist, K, kappa, T, cfg.params["grid_points"], rng)
    p_star = expected_loss_minimizer(dist, K, T)
    try:
        acct = regret_experiment(
            dist, T, K, sc.mu, p_star, cfg.params["rounds"], cfg.params["replicas"],
            rng, kappa=kappa,
        )
    except InvalidRange as exc:
        if exc.field != "mu":
            raise
        # the grid found a zero curvature weight in the domain kappa allows
        raise ValidationError(
            "kappa", f"the bias domain is not strongly convex: {exc}"
        ) from exc
    _write_csv(out / "regret.csv", {
        "n": range(1, acct.rounds + 1),
        "mean_regret": acct.mean_cum_regret,
        "bound": acct.bound,
        "diam_p": acct.mean_diam,
        "s_n": acct.s_n_proxy,
    })
    within, nonincreasing = acct.checkpoint_verdicts(cfg.params["checkpoints"])
    verdicts = {
        "regret_bound_checkpoints": all(within.values()),
        "regret_ratio_nonincreasing": nonincreasing,
    }
    extra = {
        "mu_hat": sc.mu,
        "c_hat": sc.c_hat,
        "sigma2": acct.sigma2,
        "p_star": p_star.tolist(),
        "checkpoint_verdicts": {str(n): ok for n, ok in within.items()},
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
        blocks = iterate(
            gamma, StepSchedule(kind=k, u=cfg.params["u"]), dims.K, iterations=iterations
        )
        loads = np.concatenate([loads for _, _, _, loads, _ in blocks])
        dev = np.abs(loads - L).mean(axis=1)
        columns[f"imbalance_{k.value}"] = dev
        columns[f"imbalance_norm_{k.value}"] = dev / L
    _write_csv(out / "schedule_compare.csv", columns)
    return {}, {"schedules": [k.value for k in kinds]}


# Each experiment kind: its handler, and its keys beyond "kind" and "seed" as
# a key table for _parse_keys.  An absent bias stays None here:
# load_config fills it with zeros once it knows E.
_SCHEMA = {
    "deterministic_run": (_run_deterministic, {
        "dims": (_parse_dims, _REQUIRED),
        "schedule": (_parse_schedule, _REQUIRED),
        "iterations": (_integer, _REQUIRED),
    }),
    "balance_check": (_run_balance, {
        "dims": (_parse_dims, _REQUIRED),
        "u_fraction": (_u_fraction, 0.9),
        "instances": (_integer, 1),
        "score_scale": (partial(_real, positive=True), 1.0),
    }),
    "moment_check": (_run_moment, {
        "distributions": (_parse_distributions, _REQUIRED),
        # with T = 1, |g|^2 is the constant K(1-L)^2 + (E-K)L^2
        "T": (partial(_integer, minimum=2), _REQUIRED),
        "K": (_integer, _REQUIRED),
        "replicas": (partial(_integer, minimum=2), 10_000),
        "bias": (_reals, None),
    }),
    "hessian_check": (_run_hessian, {
        "distributions": (_parse_distributions, _REQUIRED),
        "K": (_integer, _REQUIRED),
        "bias": (_reals, None),
        "directions": (_integer, 20),
    }),
    "regret_sweep": (_run_regret, {
        "distributions": (_parse_distributions, _REQUIRED),
        "T": (_integer, _REQUIRED),
        "K": (_integer, _REQUIRED),
        "rounds": (_integer, 10_000),
        "replicas": (_integer, 32),
        "kappa": (lambda v, f: _in_range(f, check_kappa, _real(v, f)), 0.1),
        "grid_points": (_integer, 200),
        "checkpoints": (_integers, (100, 1000, 10_000)),
    }),
    "schedule_compare": (_run_schedule_compare, {
        "dims": (_parse_dims, _REQUIRED),
        "u": (partial(_real, positive=True), _REQUIRED),
        "iterations": (_integer, _REQUIRED),
    }),
}
KINDS = tuple(_SCHEMA)


def run(cfg: ExperimentConfig, out_dir=None, parallel: int = 1) -> int:
    """Execute one experiment; write its artifacts to ``out_dir``, or to the
    working directory when it is None; return the exit status.

    A config that fails on its drawn data raises ``ValidationError`` and
    leaves no output directory, or parent of it, that this run made.  Any
    other exception is a crash: the run writes a ``summary.json`` that says
    so, with the exception's ``error`` type and message in place of
    ``verdicts``, and re-raises.
    """
    out = Path(out_dir or ".")
    made = next((d for d in (*reversed(out.parents), out) if not d.exists()), None)
    out.mkdir(parents=True, exist_ok=True)
    handler = _SCHEMA[cfg.kind][0]
    summary = {
        "kind": cfg.kind,
        "seed": cfg.seed,
        "config_hash": cfg.config_hash,
        "build": __version__,
    }
    try:
        if cfg.kind == "balance_check":
            verdicts, extra = handler(cfg, out, parallel=parallel)
        else:
            verdicts, extra = handler(cfg, out)
    except ValidationError:
        if made is not None:
            shutil.rmtree(made)
        raise
    except Exception as exc:
        summary["error"] = {"type": type(exc).__name__, "message": str(exc)}
        _write_summary(out, summary)
        raise
    summary["verdicts"] = {k: bool(v) for k, v in verdicts.items()}
    _write_summary(out, {**summary, **extra})
    return 0 if all(verdicts.values()) else 1


def _write_summary(out: Path, summary: dict) -> None:
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="alflb",
        description="Load-balancing primal-dual simulator and verification lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        sp = sub.add_parser(kind.replace("_", "-"), help=f"run a {kind} experiment")
        sp.add_argument("--config", required=True, help="path to a JSON config")
        sp.add_argument("--out", default=None, help="output directory")
        if kind == "balance_check":
            sp.add_argument("--parallel", type=int,
                            help="fan the instances over N processes")
        sp.set_defaults(kind=kind, parallel=1)
    args = parser.parse_args(argv)

    try:
        if args.parallel < 1:
            raise ValidationError("--parallel", f"must be >= 1, got {args.parallel}")
        cfg = load_config(args.config)
        if cfg.kind != args.kind:
            raise ValidationError(
                "kind", f"config says {cfg.kind!r}, subcommand is {args.kind!r}"
            )
        return run(cfg, out_dir=args.out, parallel=args.parallel)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # 1 means a check failed; a crash must not look like one
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())

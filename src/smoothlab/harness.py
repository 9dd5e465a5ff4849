"""Reproducible experiment runner over the simulation modules.

An experiment is (kind, params, trials, seed).  Trial i always draws from
RngStream(seed, i), so results are a pure function of the config and never
depend on scheduling: running with a process pool of any width produces the
same bytes as running inline.  Each run directory holds

    config.json     the fully resolved configuration
    metrics.jsonl   one JSON object per trial, in trial order
    summary.json    aggregate statistics, recomputable via summarize()
    raw files       per-kind traces (see the kind sections below)

Kinds and their per-trial metrics and raw files:

    coupling                 contained, failed_round, n_contained_rounds
                             traces.jsonl (one line per completed trial)
    discrepancy              max_inf, final_inf, final_d2_sq, failed,
                             failed_round, blown_up, phi_cross_round, t_done
                             trace_NNNN.csv + run_NNNN.json
    discrepancy-lowerbound   the discrepancy metrics plus ok, which flags
                             final_d2_sq >= T/20 against the slab opponent
                             trace_NNNN.csv + run_NNNN.json
    learning                 regret, cum_loss, best_loss
                             ledger_NNNN.csv + game_NNNN.json
    dispersion               total, split, bound, w, within_bound, passed
                             points_NNNN.jsonl + combined reports.csv

A trial that raises is recorded as {"trial": i, "error": "..."} in
metrics.jsonl (with no raw files) and the run continues; summary.json counts
and lists the error trials.  summarize() reads only persisted files, so the
emitted summary always equals a later recomputation byte for byte.
"""

from __future__ import annotations

import json
import math
import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coupling import (
    CouplingConfig,
    containment_bound,
    couple_adaptive,
    default_k,
    full_domain_adversary,
    last_value_adversary,
    stationary_set_adversary,
    traces_from_jsonl,
    traces_to_jsonl,
    window_set_adversary,
    verify_marginals,
)
from .discrepancy import (
    PotentialConfig,
    SelfBalancingConfig,
    adaptive_shell_adversary,
    run_discrepancy,
    shell_adversary,
    slab_lowerbound_adversary,
    trace_header_json,
    trace_to_csv,
    uniform_ball_adversary,
)
from .dispersion import (
    check_dispersed,
    default_window_width,
    densest_window_adversary,
    dispersion_bound,
    fixed_interval_adversary,
    generate_discontinuities,
    iid_uniform_adversary,
    report_csv,
    sample_to_jsonl,
)
from .domain import FiniteDomain, RngStream, ValidationError, min_support_size
from .learning import (
    ThresholdUnionClass,
    build_cover,
    constant_label_adversary,
    mistake_tree_adversary,
    run_learning_game,
    stationary_smooth_adversary,
)
from .stats import bootstrap_ratio_ci, one_sided_bound_check, wilson_interval

EXPERIMENT_KINDS = (
    "coupling",
    "discrepancy",
    "discrepancy-lowerbound",
    "learning",
    "dispersion",
)

ENV_OUT_DIR = "SMOOTHLAB_OUT_DIR"

# summarize() adds chi-square marginal diagnostics to coupling summaries only
# when at least this many traces were persisted; below that the per-cell
# counts are too thin for stable p-values.
MARGINAL_MIN_TRACES = 10_000


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved experiment: kind, kind parameters, trials, seed."""

    kind: str
    params: dict
    trials: int
    seed: int

    def __post_init__(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ValidationError(
                f"unknown experiment kind {self.kind!r}; expected one of {EXPERIMENT_KINDS}"
            )
        if not isinstance(self.trials, int) or self.trials < 1:
            raise ValidationError(f"trials must be a positive integer, got {self.trials!r}")
        if not isinstance(self.seed, int) or self.seed < 0 or self.seed >= 2**64:
            raise ValidationError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")

    def to_json(self) -> str:
        payload = {
            "kind": self.kind,
            "params": self.params,
            "seed": self.seed,
            "trials": self.trials,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def make_config(kind: str, params: dict, trials: int, seed: int) -> ExperimentConfig:
    """Validate and resolve every default, then freeze the config.

    Resolution fills in derived parameters (replica counts, cover widths,
    window widths) so config.json records exactly what the trials will use.
    All validation of the underlying modules runs here, before any trial.
    """
    resolved = _resolve_params(kind, params)
    return ExperimentConfig(kind=kind, params=resolved, trials=trials, seed=seed)


def _require(params: dict, key: str, caster, kind: str):
    if key not in params:
        raise ValidationError(f"{kind} experiment requires parameter {key!r}")
    try:
        return caster(params[key])
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad value for {key!r}: {params[key]!r} ({exc})") from exc


def _check_keys(params: dict, allowed: set[str], kind: str) -> None:
    unknown = sorted(set(params) - allowed)
    if unknown:
        raise ValidationError(
            f"unknown parameter(s) for {kind}: {unknown}; allowed: {sorted(allowed)}"
        )


def _choice(params: dict, key: str, default: str, options: tuple[str, ...]) -> str:
    value = params.get(key, default)
    if value not in options:
        raise ValidationError(f"{key} must be one of {options}, got {value!r}")
    return value


def _resolve_params(kind: str, params: dict) -> dict:
    if not isinstance(params, dict):
        raise ValidationError(f"params must be a dict, got {type(params).__name__}")
    if kind == "coupling":
        return _resolve_coupling(params)
    if kind == "discrepancy":
        return _resolve_discrepancy(params)
    if kind == "discrepancy-lowerbound":
        return _resolve_lowerbound(params)
    if kind == "learning":
        return _resolve_learning(params)
    if kind == "dispersion":
        return _resolve_dispersion(params)
    raise ValidationError(f"unknown experiment kind {kind!r}")


COUPLING_ADVERSARIES = ("stationary", "window", "last-value", "full-domain")


def _resolve_coupling(params: dict) -> dict:
    _check_keys(params, {"n", "sigma", "T", "k", "adversary", "set_size"}, "coupling")
    n = _require(params, "n", int, "coupling")
    sigma = _require(params, "sigma", float, "coupling")
    T = _require(params, "T", int, "coupling")
    adversary = _choice(params, "adversary", "window", COUPLING_ADVERSARIES)
    k = int(params.get("k", default_k(T, sigma)))
    CouplingConfig(T=T, k=k)
    domain = FiniteDomain(n)
    floor = min_support_size(sigma, n)
    out = {"n": n, "sigma": sigma, "T": T, "k": k, "adversary": adversary}
    if adversary == "stationary":
        set_size = int(params.get("set_size", floor))
        if not (floor <= set_size <= n):
            raise ValidationError(
                f"set_size must lie in [{floor}, {n}] for sigma={sigma}, got {set_size}"
            )
        out["set_size"] = set_size
    elif "set_size" in params:
        raise ValidationError("set_size only applies to the stationary adversary")
    _coupling_adversary(out, domain)
    return out


def _coupling_adversary(params: dict, domain: FiniteDomain):
    name = params["adversary"]
    if name == "stationary":
        return stationary_set_adversary(domain, tuple(range(1, params["set_size"] + 1)))
    if name == "window":
        return window_set_adversary(domain, params["sigma"])
    if name == "last-value":
        return last_value_adversary(domain, params["sigma"])
    return full_domain_adversary(domain)


DISCREPANCY_ALGORITHMS = ("potential", "selfbalancing", "random-sign")
DISCREPANCY_ADVERSARIES = ("uniform-ball", "shell", "adaptive-shell")


def _resolve_discrepancy(params: dict) -> dict:
    _check_keys(
        params,
        {"algorithm", "n", "T", "adversary", "sigma", "inner", "delta", "M"},
        "discrepancy",
    )
    algorithm = _choice(params, "algorithm", "potential", DISCREPANCY_ALGORITHMS)
    n = _require(params, "n", int, "discrepancy")
    T = _require(params, "T", int, "discrepancy")
    adversary = _choice(params, "adversary", "uniform-ball", DISCREPANCY_ADVERSARIES)
    sigma = float(params.get("sigma", 1.0))
    out = {"algorithm": algorithm, "n": n, "T": T, "adversary": adversary, "sigma": sigma}
    if adversary == "shell":
        inner = params.get("inner")
        if inner is not None:
            out["inner"] = float(inner)
    elif "inner" in params:
        raise ValidationError("inner only applies to the shell adversary")
    adv = _discrepancy_adversary(out)
    if algorithm == "potential":
        out["M"] = int(params.get("M", 1024))
        PotentialConfig.default(n, T, adv.sigma, M=out["M"])
    elif "M" in params:
        raise ValidationError("M only applies to the potential algorithm")
    if algorithm == "selfbalancing":
        out["delta"] = float(params.get("delta", 0.1))
        SelfBalancingConfig.default(n, T, adv.sigma, delta=out["delta"])
    elif "delta" in params:
        raise ValidationError("delta only applies to the selfbalancing algorithm")
    return out


def _discrepancy_adversary(params: dict):
    name = params["adversary"]
    n = params["n"]
    if name == "uniform-ball":
        return uniform_ball_adversary(n)
    if name == "shell":
        return shell_adversary(n, params["sigma"], params.get("inner"))
    return adaptive_shell_adversary(n, params["sigma"])


def _resolve_lowerbound(params: dict) -> dict:
    _check_keys(params, {"algorithm", "n", "T", "delta", "M"}, "discrepancy-lowerbound")
    algorithm = _choice(params, "algorithm", "random-sign", DISCREPANCY_ALGORITHMS)
    n = _require(params, "n", int, "discrepancy-lowerbound")
    T = _require(params, "T", int, "discrepancy-lowerbound")
    out = {"algorithm": algorithm, "n": n, "T": T}
    adv = slab_lowerbound_adversary(n, T)
    if algorithm == "potential":
        out["M"] = int(params.get("M", 1024))
        PotentialConfig.default(n, T, adv.sigma, M=out["M"])
    elif "M" in params:
        raise ValidationError("M only applies to the potential algorithm")
    if algorithm == "selfbalancing":
        out["delta"] = float(params.get("delta", 0.1))
        SelfBalancingConfig.default(n, T, adv.sigma, delta=out["delta"])
    elif "delta" in params:
        raise ValidationError("delta only applies to the selfbalancing algorithm")
    return out


LEARNERS = ("hedge-on-cover", "ftl-on-cover")
LEARNING_ADVERSARIES = ("stationary-smooth", "mistake-tree", "realizable")


def _resolve_learning(params: dict) -> dict:
    _check_keys(
        params,
        {"m", "sigma", "d", "T", "beta", "learner", "adversary", "flip"},
        "learning",
    )
    d = _require(params, "d", int, "learning")
    T = _require(params, "T", int, "learning")
    if T < 1:
        raise ValidationError(f"T must be >= 1, got {T}")
    if "m" in params:
        m = int(params["m"])
    elif "sigma" in params:
        m = int(round(1.0 / float(params["sigma"])))
    else:
        raise ValidationError("learning experiment requires m or sigma")
    cls = ThresholdUnionClass(m, d)
    learner = _choice(params, "learner", "hedge-on-cover", LEARNERS)
    adversary = _choice(params, "adversary", "stationary-smooth", LEARNING_ADVERSARIES)
    beta = float(params.get("beta", cls.sigma * math.sqrt(d) / math.sqrt(T)))
    build_cover(cls, beta)
    out = {
        "m": m,
        "d": d,
        "sigma": cls.sigma,
        "T": T,
        "beta": beta,
        "learner": learner,
        "adversary": adversary,
    }
    if adversary == "stationary-smooth":
        flip = float(params.get("flip", 0.25))
        if not (0.0 <= flip <= 0.5):
            raise ValidationError(f"flip must lie in [0, 0.5], got {flip!r}")
        out["flip"] = flip
    elif "flip" in params:
        raise ValidationError("flip only applies to the stationary-smooth adversary")
    return out


def _learning_adversary(params: dict, cls: ThresholdUnionClass):
    name = params["adversary"]
    if name == "stationary-smooth":
        return stationary_smooth_adversary(cls, flip=params["flip"])
    if name == "mistake-tree":
        return mistake_tree_adversary(cls)
    return constant_label_adversary(cls)


DISPERSION_ADVERSARIES = ("iid-uniform", "fixed-interval", "densest-window")


def _resolve_dispersion(params: dict) -> dict:
    _check_keys(
        params,
        {"T", "ell", "sigma", "adversary", "alpha", "delta", "w", "k", "lo"},
        "dispersion",
    )
    T = _require(params, "T", int, "dispersion")
    ell = _require(params, "ell", int, "dispersion")
    sigma = _require(params, "sigma", float, "dispersion")
    adversary = _choice(params, "adversary", "iid-uniform", DISPERSION_ADVERSARIES)
    alpha = float(params.get("alpha", 0.5))
    delta = float(params.get("delta", 0.05))
    w = float(params.get("w", default_window_width(T, ell, sigma, alpha)))
    dispersion_bound(T, ell, sigma, w, delta)
    out = {
        "T": T,
        "ell": ell,
        "sigma": sigma,
        "adversary": adversary,
        "alpha": alpha,
        "delta": delta,
        "w": w,
    }
    if "k" in params:
        out["k"] = float(params["k"])
    if adversary == "fixed-interval":
        out["lo"] = float(params.get("lo", 0.0))
    elif "lo" in params:
        raise ValidationError("lo only applies to the fixed-interval adversary")
    _dispersion_adversary(out)
    return out


def _dispersion_adversary(params: dict):
    name = params["adversary"]
    if name == "iid-uniform":
        return iid_uniform_adversary()
    if name == "fixed-interval":
        return fixed_interval_adversary(params["sigma"], lo=params["lo"])
    return densest_window_adversary(params["sigma"])


def _trial_coupling(params: dict, seed: int, index: int, keep_raw: bool):
    domain = FiniteDomain(params["n"])
    adv = _coupling_adversary(params, domain)
    cfg = CouplingConfig(T=params["T"], k=params["k"])
    trace = couple_adaptive(adv, cfg, RngStream(seed=seed, stream_id=index))
    missed = np.flatnonzero(~trace.contained_rounds)
    metrics = {
        "contained": bool(trace.contained),
        "failed_round": int(missed[0]) + 1 if missed.size else -1,
        "n_contained_rounds": int(trace.contained_rounds.sum()),
    }
    raw = {"traces.jsonl": traces_to_jsonl([trace])} if keep_raw else {}
    return metrics, raw


def _discrepancy_metrics(trace) -> dict:
    return {
        "max_inf": float(trace.max_inf),
        "final_inf": float(np.abs(trace.d_final).max()),
        "final_d2_sq": float(trace.final_two_norm_sq),
        "failed": bool(trace.failed),
        "failed_round": int(trace.failed_round),
        "blown_up": bool(trace.blown_up),
        "phi_cross_round": int(trace.phi_cross_round),
        "t_done": int(trace.t_done),
    }


def _run_balancing(params: dict, adv, seed: int, index: int):
    n, T = params["n"], params["T"]
    algorithm = params["algorithm"]
    potential_cfg = None
    selfbal_cfg = None
    if algorithm == "potential":
        potential_cfg = PotentialConfig.default(n, T, adv.sigma, M=params["M"])
    elif algorithm == "selfbalancing":
        selfbal_cfg = SelfBalancingConfig.default(n, T, adv.sigma, delta=params["delta"])
    return run_discrepancy(
        algorithm,
        adv,
        T,
        RngStream(seed=seed, stream_id=index),
        potential_cfg=potential_cfg,
        selfbal_cfg=selfbal_cfg,
    )


def _trial_discrepancy(params: dict, seed: int, index: int, keep_raw: bool):
    adv = _discrepancy_adversary(params)
    trace = _run_balancing(params, adv, seed, index)
    metrics = _discrepancy_metrics(trace)
    raw = {}
    if keep_raw:
        raw[f"trace_{index:04d}.csv"] = trace_to_csv(trace)
        raw[f"run_{index:04d}.json"] = trace_header_json(trace) + "\n"
    return metrics, raw


def _trial_lowerbound(params: dict, seed: int, index: int, keep_raw: bool):
    adv = slab_lowerbound_adversary(params["n"], params["T"])
    trace = _run_balancing(params, adv, seed, index)
    metrics = _discrepancy_metrics(trace)
    metrics["ok"] = bool(metrics["final_d2_sq"] >= params["T"] / 20.0)
    raw = {}
    if keep_raw:
        raw[f"trace_{index:04d}.csv"] = trace_to_csv(trace)
        raw[f"run_{index:04d}.json"] = trace_header_json(trace) + "\n"
    return metrics, raw


def _trial_learning(params: dict, seed: int, index: int, keep_raw: bool):
    cls = ThresholdUnionClass(params["m"], params["d"])
    cover = build_cover(cls, params["beta"])
    adv = _learning_adversary(params, cls)
    ledger = run_learning_game(
        params["learner"], adv, cover, params["T"], RngStream(seed=seed, stream_id=index)
    )
    metrics = {
        "regret": int(ledger.regret),
        "cum_loss": int(ledger.cum_loss),
        "best_loss": int(ledger.best_loss),
    }
    raw = {}
    if keep_raw:
        raw[f"ledger_{index:04d}.csv"] = ledger.to_csv()
        raw[f"game_{index:04d}.json"] = ledger.config_json() + "\n"
    return metrics, raw


def _trial_dispersion(params: dict, seed: int, index: int, keep_raw: bool):
    adv = _dispersion_adversary(params)
    sample = generate_discontinuities(
        adv, params["T"], params["ell"], params["sigma"], RngStream(seed=seed, stream_id=index)
    )
    passed, report = check_dispersed(
        sample,
        w=params["w"],
        k=params.get("k"),
        alpha=params["alpha"],
        delta=params["delta"],
    )
    metrics = {
        "total": int(report.total),
        "split": int(report.split),
        "bound": float(report.bound),
        "w": float(report.w),
        "within_bound": bool(report.total <= report.bound),
        "passed": bool(passed),
    }
    raw = {}
    if keep_raw:
        raw[f"points_{index:04d}.jsonl"] = sample_to_jsonl(sample)
        raw["reports.csv"] = report_csv(report)
    return metrics, raw


_TRIAL_FNS = {
    "coupling": _trial_coupling,
    "discrepancy": _trial_discrepancy,
    "discrepancy-lowerbound": _trial_lowerbound,
    "learning": _trial_learning,
    "dispersion": _trial_dispersion,
}


def _run_single_trial(job: tuple) -> tuple[dict, dict]:
    """Execute one trial; exceptions become an error record, never a crash.

    Module-level so process pools can pickle it; the job tuple carries only
    plain values for the same reason.
    """
    kind, params, seed, index, keep_raw = job
    try:
        return _TRIAL_FNS[kind](params, seed, index, keep_raw)
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}, {}


def _merge_parts(name: str, parts: list[str]) -> str:
    """Combine per-trial fragments of a shared file, in trial order.

    CSV fragments each carry the header; the merged file keeps only the first.
    JSONL fragments concatenate directly.
    """
    if len(parts) == 1:
        return parts[0]
    if name.endswith(".csv"):
        header, _, first_body = parts[0].partition("\n")
        bodies = [first_body] + [p.partition("\n")[2] for p in parts[1:]]
        return header + "\n" + "".join(bodies)
    return "".join(parts)


# Every file run_experiment writes.  A reused run directory is cleared of
# these first, so no raw file of an earlier config reaches summarize(); any
# other file in the directory is left alone.
_OWNED_FILE = re.compile(
    r"config\.json|metrics\.jsonl|summary\.json|traces\.jsonl|reports\.csv"
    r"|trace_\d{4,}\.csv|run_\d{4,}\.json|ledger_\d{4,}\.csv|game_\d{4,}\.json"
    r"|points_\d{4,}\.jsonl"
)


def _clear_owned_files(run_dir: Path) -> None:
    for path in run_dir.iterdir():
        if _OWNED_FILE.fullmatch(path.name) and path.is_file():
            path.unlink()


@dataclass(frozen=True)
class RunResult:
    """Everything a finished run produced, plus where it lives on disk."""

    config: ExperimentConfig
    run_dir: str
    metrics: list
    summary: dict


def run_experiment(
    cfg: ExperimentConfig,
    out_dir: str | Path,
    parallelism: int = 1,
    write_traces: bool = True,
) -> RunResult:
    """Run every trial, persist the run directory, and summarize it.

    Trial i draws from RngStream(cfg.seed, i), so the persisted bytes are
    identical for any parallelism degree.  Files are always written by the
    parent process in trial order.  When ``out_dir`` is reused, the files an
    earlier run wrote there are removed first; other files are kept.
    """
    if parallelism < 1:
        raise ValidationError(f"parallelism must be >= 1, got {parallelism}")
    params = _resolve_params(cfg.kind, cfg.params)
    run_dir = Path(out_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    _clear_owned_files(run_dir)
    (run_dir / "config.json").write_text(
        ExperimentConfig(cfg.kind, params, cfg.trials, cfg.seed).to_json()
    )

    jobs = [(cfg.kind, params, cfg.seed, i, write_traces) for i in range(cfg.trials)]
    if parallelism == 1 or cfg.trials == 1:
        results = [_run_single_trial(job) for job in jobs]
    else:
        chunk = max(1, cfg.trials // (parallelism * 4))
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            results = list(pool.map(_run_single_trial, jobs, chunksize=chunk))

    rows = []
    lines = []
    for i, (metrics, _) in enumerate(results):
        row = {"trial": i, **metrics}
        rows.append(row)
        lines.append(json.dumps(row, sort_keys=True))
    (run_dir / "metrics.jsonl").write_text("\n".join(lines) + "\n")

    if write_traces:
        parts: dict[str, list[str]] = {}
        for _, raw in results:
            for name in sorted(raw):
                parts.setdefault(name, []).append(raw[name])
        for name in sorted(parts):
            (run_dir / name).write_text(_merge_parts(name, parts[name]))

    summary = summarize(run_dir)
    (run_dir / "summary.json").write_text(summary_to_json(summary))
    return RunResult(
        config=ExperimentConfig(cfg.kind, params, cfg.trials, cfg.seed),
        run_dir=str(run_dir),
        metrics=rows,
        summary=summary,
    )


def summary_to_json(summary: dict) -> str:
    return json.dumps(summary, sort_keys=True, indent=2) + "\n"


def _read_metrics(run_dir: Path) -> list[dict]:
    path = run_dir / "metrics.jsonl"
    if not path.is_file():
        raise ValidationError(f"no metrics.jsonl in {run_dir}")
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def summarize(run_dir: str | Path) -> dict:
    """Aggregate statistics for a run, computed from persisted files only.

    Numeric metrics get mean, standard deviation (ddof=1, zero for a single
    trial), median, min, and max; boolean metrics get a count, rate, and
    Wilson interval at three standard errors.  Coupling runs additionally
    report the containment-failure rate, and chi-square marginal diagnostics
    when at least MARGINAL_MIN_TRACES traces were persisted.
    """
    run_dir = Path(run_dir)
    cfg_path = run_dir / "config.json"
    if not cfg_path.is_file():
        raise ValidationError(f"no config.json in {run_dir}")
    cfg = json.loads(cfg_path.read_text())
    rows = _read_metrics(run_dir)
    good = [r for r in rows if "error" not in r]

    keys = sorted({k for r in good for k in r} - {"trial"})
    metrics: dict[str, dict] = {}
    for key in keys:
        values = [r[key] for r in good if key in r]
        if values and all(isinstance(v, bool) for v in values):
            count = sum(values)
            lo, hi = wilson_interval(count, len(values), z=3.0)
            metrics[key] = {
                "count": count,
                "n": len(values),
                "rate": count / len(values),
                "ci_low": lo,
                "ci_high": hi,
            }
        else:
            arr = np.asarray([float(v) for v in values])
            metrics[key] = {
                "mean": float(arr.mean()),
                "std": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
                "median": float(np.median(arr)),
                "min": float(arr.min()),
                "max": float(arr.max()),
                "n": int(arr.size),
            }

    summary = {
        "kind": cfg["kind"],
        "seed": cfg["seed"],
        "trials": cfg["trials"],
        "completed": len(good),
        "errors": len(rows) - len(good),
        "error_trials": [r["trial"] for r in rows if "error" in r],
        "metrics": metrics,
    }

    if cfg["kind"] == "coupling" and good:
        failures = sum(0 if r["contained"] else 1 for r in good)
        lo, hi = wilson_interval(failures, len(good), z=3.0)
        summary["containment_failure"] = {
            "count": failures,
            "n": len(good),
            "rate": failures / len(good),
            "ci_low": lo,
            "ci_high": hi,
        }
        traces_path = run_dir / "traces.jsonl"
        if traces_path.is_file():
            text = traces_path.read_text()
            n_lines = sum(1 for line in text.splitlines() if line.strip())
            if n_lines >= MARGINAL_MIN_TRACES:
                traces = traces_from_jsonl(text, cfg["params"]["n"], cfg["params"]["sigma"])
                report = verify_marginals(traces, n_pairs=20, pair_seed=0)
                summary["marginals"] = {
                    "n_traces": report.n_traces,
                    "min_cell_pvalue": float(report.cell_pvalues.min()),
                    "min_pair_pvalue": min(report.pair_pvalues),
                    "min_homogeneity_pvalue": (
                        min(report.homogeneity_pvalues) if report.homogeneity_pvalues else None
                    ),
                    "passed": report.passed(),
                }
    return summary


def compare_runs(
    run_a: str | Path,
    run_b: str | Path,
    metric: str,
    seed: int = 0,
    n_resamples: int = 10_000,
) -> dict:
    """Head-to-head comparison of one metric across two runs.

    Reports both medians, their ratio (exactly 1.0 when the medians are
    equal), and a seeded percentile bootstrap interval on the ratio, so the
    comparison itself is reproducible.
    """
    values = []
    for run_dir in (Path(run_a), Path(run_b)):
        rows = [r for r in _read_metrics(run_dir) if "error" not in r]
        available = sorted({k for r in rows for k in r} - {"trial"})
        vals = [float(r[metric]) for r in rows if metric in r]
        if not vals:
            raise ValidationError(
                f"metric {metric!r} absent from {run_dir}; available: {available}"
            )
        values.append(np.asarray(vals))
    a, b = values
    median_a = float(np.median(a))
    median_b = float(np.median(b))
    if median_b == 0.0:
        raise ValidationError(f"median of {metric!r} in run B is zero; ratio undefined")
    ci_low, ci_high = bootstrap_ratio_ci(
        a, b, RngStream(seed=seed, stream_id=0), n_resamples=n_resamples
    )
    return {
        "metric": metric,
        "n_a": int(a.size),
        "n_b": int(b.size),
        "median_a": median_a,
        "median_b": median_b,
        "ratio": median_a / median_b,
        "ci_low": ci_low,
        "ci_high": ci_high,
        "n_resamples": n_resamples,
        "seed": seed,
    }


def assert_report(kind: str, params: dict, summary: dict) -> list[str]:
    """Acceptance-style checks for a finished run; returns failure messages.

    coupling: containment-failure rate at most T(1-sigma)^k plus three
    binomial standard errors.  discrepancy: no trial failed or blew up.
    discrepancy-lowerbound: final squared length at least T/20 in at least
    99 percent of trials.  learning: mean regret below the smoothed-regret
    ceiling, or above the mistake-tree floor when that adversary is playing.
    dispersion: total window count within the bound in at least 95 percent
    of trials.  Any errored trial fails every kind.
    """
    failures: list[str] = []
    if summary["errors"]:
        failures.append(f"{summary['errors']} trial(s) errored: {summary['error_trials']}")
    if not summary["completed"]:
        failures.append("no completed trials")
        return failures
    metrics = summary["metrics"]
    if kind == "coupling":
        fail = summary["containment_failure"]
        bound = containment_bound(params["T"], params["sigma"], params["k"])
        check = one_sided_bound_check(fail["count"], fail["n"], min(bound, 1.0), z=3.0)
        if not check.passed:
            failures.append(
                f"containment failure rate {check.rate:.6g} exceeds "
                f"{check.bound:.6g} + 3 stderr ({check.threshold:.6g})"
            )
    elif kind == "discrepancy":
        if metrics["failed"]["count"]:
            failures.append(f"{metrics['failed']['count']} run(s) declared Failure")
        if metrics["blown_up"]["count"]:
            failures.append(f"{metrics['blown_up']['count']} run(s) blew up the potential")
    elif kind == "discrepancy-lowerbound":
        rate = metrics["ok"]["rate"]
        if rate < 0.99:
            failures.append(f"squared-length growth rate {rate:.4f} below 0.99")
    elif kind == "learning":
        mean_regret = metrics["regret"]["mean"]
        T, d, sigma = params["T"], params["d"], params["sigma"]
        if params["adversary"] == "mistake-tree":
            floor = 0.1 * math.sqrt(d * T * math.log2(1.0 / (sigma * d)))
            if mean_regret < floor:
                failures.append(f"mean regret {mean_regret:.3f} below floor {floor:.3f}")
        else:
            ceiling = 5.0 * math.sqrt(T * d * math.log(T / (d * sigma)))
            if mean_regret > ceiling:
                failures.append(f"mean regret {mean_regret:.3f} above ceiling {ceiling:.3f}")
    elif kind == "dispersion":
        rate = metrics["within_bound"]["rate"]
        if rate < 0.95:
            failures.append(f"within-bound rate {rate:.4f} below 0.95")
    return failures


def default_run_dir(kind: str, seed: int, base: str | None = None) -> str:
    """Deterministic run directory under the base output directory.

    The base comes from the SMOOTHLAB_OUT_DIR environment variable when not
    given, falling back to ./runs.  No timestamps: rerunning the same config
    lands in the same place and reproduces the same bytes.
    """
    if base is None:
        base = os.environ.get(ENV_OUT_DIR, "runs")
    return os.path.join(base, f"{kind}-seed{seed}")

"""Reproducible experiment runner over the simulation modules.

An experiment is (kind, params, trials, seed).  Trial i always draws from
RngStream(seed, i), so results are a pure function of the config and never
depend on scheduling: running with a process pool of any width produces the
same bytes as running inline.  Each run directory holds

    config.json     the fully resolved configuration
    metrics.jsonl   one JSON object per trial, in trial order
    summary.json    aggregate statistics, recomputable via summarize()
    raw files       per-kind traces

``KINDS`` is the registry of experiment kinds: each KindSpec names the
kind's parameters, choices, game builder, raw files and acceptance check.

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
from typing import Callable

import numpy as np

from .coupling import (
    MARGINAL_MIN_TRACES,
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
    RandomSign,
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
    split_ceiling,
)
from .domain import FiniteDomain, RngStream, ValidationError, min_support_size
from .learning import (
    LEARNERS,
    ThresholdUnionClass,
    build_cover,
    constant_label_adversary,
    mistake_tree_adversary,
    run_learning_game,
    stationary_smooth_adversary,
)
from .stats import bootstrap_ratio_ci, one_sided_bound_check, wilson_interval

ENV_OUT_DIR = "SMOOTHLAB_OUT_DIR"


@dataclass(frozen=True)
class KindSpec:
    """Everything the harness knows about one experiment kind.

    ``resolve(kind, params)`` validates the parameters and returns them with
    every default filled in; unknown parameter names are rejected against
    ``params`` before it runs.  ``options`` maps each choice parameter to its
    table of accepted values.  ``game(params)`` builds every object a trial
    plays from resolved parameters; make_config calls it once, so every check
    those constructors make runs before any trial.  It returns
    ``play(rng, keep_raw)``, which plays one trial on the RngStream ``rng``
    and returns the trial's metrics and, when ``keep_raw``, the contents of
    ``raw_files`` in order, where NNNN in a name stands for the trial index.
    ``summary_hook(run_dir, config, completed_rows)`` returns extra summary
    blocks, and ``check(params, summary)`` the kind's ``--assert`` failures.

    Option factories and game builders look module names up when called,
    so rebinding a name on this module reaches every trial.
    """

    command: str
    params: tuple[str, ...]
    resolve: Callable[[str, dict], dict]
    options: dict[str, dict[str, Callable]]
    game: Callable[[dict], Callable[[RngStream, bool], tuple[dict, tuple[str, ...]]]]
    raw_files: tuple[str, ...]
    check: Callable[[dict, dict], list[str]]
    summary_hook: Callable[[Path, dict, list[dict]], dict] | None = None


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
        if not _is_int(self.trials) or self.trials < 1:
            raise ValidationError(f"trials must be a positive integer, got {self.trials!r}")
        if not _is_int(self.seed) or self.seed < 0 or self.seed >= 2**64:
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
    It then builds the kind's game once, so all validation of the underlying
    modules runs here, before any trial.
    """
    resolved = _resolve_params(kind, params)
    return ExperimentConfig(kind=kind, params=resolved, trials=trials, seed=seed)


def _is_int(value) -> bool:
    """An int that is not a bool, which would otherwise pass as 1 or 0."""
    return isinstance(value, int) and not isinstance(value, bool)


def _integer(value) -> int:
    """int(value) for an integral number or numeral; a bool or a fraction is refused."""
    number = int(value)
    if isinstance(value, bool) or (not isinstance(value, str) and number != value):
        raise ValueError("not an integer")
    return number


def _positive(value) -> int:
    """_integer(value) for a size, which must be at least 1."""
    number = _integer(value)
    if number < 1:
        raise ValueError("not a positive integer")
    return number


def _real(value) -> float:
    """float(value) for a number or numeral; a bool is refused."""
    if isinstance(value, bool):
        raise ValueError("not a real number")
    return float(value)


_REQUIRED = object()


def _param(params: dict, key: str, caster, kind: str, default=_REQUIRED):
    """caster(params[key]), or caster(default) when the key is absent.

    A missing required key, or a value the caster rejects, raises
    ValidationError.
    """
    if key not in params and default is _REQUIRED:
        raise ValidationError(f"{kind} experiment requires parameter {key!r}")
    value = params.get(key, default)
    try:
        return caster(value)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ValidationError(f"bad value for {key!r}: {value!r} ({exc})") from exc


def _check_keys(params: dict, allowed, kind: str) -> None:
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise ValidationError(
            f"unknown parameter(s) for {kind}: {unknown}; allowed: {sorted(allowed)}"
        )


def _choice(params: dict, key: str, default: str, table: dict) -> str:
    value = params.get(key, default)
    if not isinstance(value, str) or value not in table:
        raise ValidationError(f"{key} must be one of {tuple(table)}, got {value!r}")
    return value


def _applies(params: dict, out: dict, key: str, field: str, value: str) -> bool:
    """Whether ``key`` belongs to the resolved choice out[field] == value.

    A ``key`` given alongside any other choice is rejected.
    """
    if out[field] == value:
        return True
    if key in params:
        raise ValidationError(f"{key} only applies to the {value} {field}")
    return False


def _resolve_params(kind: str, params: dict) -> dict:
    if not isinstance(params, dict):
        raise ValidationError(f"params must be a dict, got {type(params).__name__}")
    spec = KINDS.get(kind)
    if spec is None:
        raise ValidationError(f"unknown experiment kind {kind!r}")
    _check_keys(params, spec.params, kind)
    resolved = spec.resolve(kind, params)
    spec.game(resolved)
    return resolved


# adversary -> factory(params, domain)
_COUPLING_ADVERSARIES = {
    "stationary": lambda p, domain: stationary_set_adversary(
        domain, tuple(range(1, p["set_size"] + 1))
    ),
    "window": lambda p, domain: window_set_adversary(domain, p["sigma"]),
    "last-value": lambda p, domain: last_value_adversary(domain, p["sigma"]),
    "full-domain": lambda p, domain: full_domain_adversary(domain),
}


def _resolve_coupling(kind: str, params: dict) -> dict:
    n = _param(params, "n", _positive, kind)
    sigma = _param(params, "sigma", _real, kind)
    T = _param(params, "T", _positive, kind)
    adversary = _choice(params, "adversary", "window", _COUPLING_ADVERSARIES)
    k = _param(params, "k", _positive, kind, default_k(T, sigma))
    floor = min_support_size(sigma, n)
    out = {"n": n, "sigma": sigma, "T": T, "k": k, "adversary": adversary}
    if _applies(params, out, "set_size", "adversary", "stationary"):
        set_size = _param(params, "set_size", _positive, kind, floor)
        if not (floor <= set_size <= n):
            raise ValidationError(
                f"set_size must lie in [{floor}, {n}] for sigma={sigma}, got {set_size}"
            )
        out["set_size"] = set_size
    return out


def _coupling_game(params: dict):
    adv = _COUPLING_ADVERSARIES[params["adversary"]](params, FiniteDomain(params["n"]))
    cfg = CouplingConfig(T=params["T"], k=params["k"])

    def play(rng: RngStream, keep_raw: bool):
        trace = couple_adaptive(adv, cfg, rng)
        missed = np.flatnonzero(~trace.contained_rounds)
        metrics = {
            "contained": bool(trace.contained),
            "failed_round": int(missed[0]) + 1 if missed.size else -1,
            "n_contained_rounds": int(trace.contained_rounds.sum()),
        }
        return metrics, (traces_to_jsonl([trace]),) if keep_raw else ()

    return play


def _summarize_coupling(run_dir: Path, cfg: dict, good: list[dict]) -> dict:
    """The containment-failure rate, plus chi-square marginal diagnostics when at
    least MARGINAL_MIN_TRACES traces were persisted; traces.jsonl is always checked."""
    failures = sum(0 if r["contained"] else 1 for r in good)
    extra = {"containment_failure": _rate_block(failures, len(good))}
    traces_path = run_dir / "traces.jsonl"
    if traces_path.is_file():
        n = cfg["params"]["n"]
        X, Z = traces_from_jsonl(traces_path.read_text(), n)
        if X.shape[0] >= MARGINAL_MIN_TRACES:
            report = verify_marginals(X, Z, n, n_pairs=20, pair_seed=0)
            extra["marginals"] = {
                "n_traces": report.n_traces,
                "min_cell_pvalue": float(report.cell_pvalues.min()),
                "min_pair_pvalue": min(report.pair_pvalues),
                "min_homogeneity_pvalue": (
                    min(report.homogeneity_pvalues) if report.homogeneity_pvalues else None
                ),
                "passed": report.passed(),
            }
    return extra


def _check_coupling(params: dict, summary: dict) -> list[str]:
    """Containment-failure rate at most T(1-sigma)^k plus three binomial stderrs."""
    fail = summary["containment_failure"]
    bound = containment_bound(params["T"], params["sigma"], params["k"])
    check = one_sided_bound_check(fail["count"], fail["n"], min(bound, 1.0), z=3.0)
    if check.passed:
        return []
    return [
        f"containment failure rate {check.rate:.6g} exceeds "
        f"{check.bound:.6g} + 3 stderr ({check.threshold:.6g})"
    ]


# algorithm -> factory(params, adversary sigma) of the sign rule run_discrepancy plays
_ALGORITHMS = {
    "potential": lambda p, sigma: PotentialConfig.default(p["n"], p["T"], sigma, M=p["M"]),
    "selfbalancing": lambda p, sigma: SelfBalancingConfig.default(
        p["n"], p["T"], sigma, delta=p["delta"]
    ),
    "random-sign": lambda p, sigma: RandomSign(),
}

# adversary -> factory(params)
_VECTOR_ADVERSARIES = {
    "uniform-ball": lambda p: uniform_ball_adversary(p["n"]),
    "shell": lambda p: shell_adversary(p["n"], p["sigma"], p.get("inner")),
    "adaptive-shell": lambda p: adaptive_shell_adversary(p["n"], p["sigma"]),
}


def _resolve_balancing(kind: str, params: dict, algorithm: str) -> dict:
    """Resolve a discrepancy kind's sign rule, n and T, then M or delta."""
    out = {
        "algorithm": _choice(params, "algorithm", algorithm, _ALGORITHMS),
        "n": _param(params, "n", _positive, kind),
        "T": _param(params, "T", _positive, kind),
    }
    for key, owner, default, cast in (
        ("M", "potential", 1024, _integer),
        ("delta", "selfbalancing", 0.1, _real),
    ):
        if _applies(params, out, key, "algorithm", owner):
            out[key] = _param(params, key, cast, kind, default)
    return out


def _resolve_discrepancy(kind: str, params: dict) -> dict:
    out = _resolve_balancing(kind, params, "potential")
    out["adversary"] = _choice(params, "adversary", "uniform-ball", _VECTOR_ADVERSARIES)
    out["sigma"] = _param(params, "sigma", _real, kind, 1.0)
    if _applies(params, out, "inner", "adversary", "shell") and "inner" in params:
        out["inner"] = _param(params, "inner", _real, kind)
    return out


def _balancing_game(params: dict, adv, ok_floor=None):
    """A balancing game against ``adv``, with the sign rule its sigma sizes.

    ``ok_floor`` adds the ok metric, final_d2_sq >= ok_floor.
    """
    rule = _ALGORITHMS[params["algorithm"]](params, adv.sigma)

    def play(rng: RngStream, keep_raw: bool):
        trace = run_discrepancy(rule, adv, params["T"], rng)
        metrics = {
            "max_inf": float(trace.max_inf),
            "final_inf": float(np.abs(trace.d_final).max()),
            "final_d2_sq": float(trace.final_two_norm_sq),
            "failed": bool(trace.failed),
            "failed_round": int(trace.failed_round),
            "blown_up": bool(trace.blown_up),
            "phi_cross_round": int(trace.phi_cross_round),
            "t_done": int(trace.t_done),
        }
        if ok_floor is not None:
            metrics["ok"] = bool(metrics["final_d2_sq"] >= ok_floor)
        return metrics, (trace_to_csv(trace), trace_header_json(trace) + "\n") if keep_raw else ()

    return play


def _discrepancy_game(params: dict):
    adv = _VECTOR_ADVERSARIES[params["adversary"]](params)
    if adv.sigma != params["sigma"]:
        raise ValidationError(
            f"bad value for 'sigma': {params['sigma']!r} "
            f"(the {adv.name} adversary is {adv.sigma!r}-smooth)"
        )
    return _balancing_game(params, adv)


def _check_discrepancy(params: dict, summary: dict) -> list[str]:
    """No trial declared Failure or blew up the potential."""
    metrics = summary["metrics"]
    failures = []
    if metrics["failed"]["count"]:
        failures.append(f"{metrics['failed']['count']} run(s) declared Failure")
    if metrics["blown_up"]["count"]:
        failures.append(f"{metrics['blown_up']['count']} run(s) blew up the potential")
    return failures


# adversary -> factory(params, hypothesis class)
_LEARNING_ADVERSARIES = {
    "stationary-smooth": lambda p, cls: stationary_smooth_adversary(cls, flip=p["flip"]),
    "mistake-tree": lambda p, cls: mistake_tree_adversary(cls),
    "realizable": lambda p, cls: constant_label_adversary(cls),
}


def _resolve_learning(kind: str, params: dict) -> dict:
    d = _param(params, "d", _positive, kind)
    T = _param(params, "T", _positive, kind)
    if "sigma" in params:
        m = _param(params, "sigma", lambda s: round(1.0 / _real(s)), kind)
        if "m" in params and _param(params, "m", _positive, kind) != m:
            raise ValidationError(
                f"m={params['m']!r} and sigma={params['sigma']!r} disagree: "
                f"m must equal round(1/sigma) = {m}"
            )
    elif "m" in params:
        m = _param(params, "m", _positive, kind)
    else:
        raise ValidationError(f"{kind} experiment requires m or sigma")
    cls = ThresholdUnionClass(m, d)
    learner = _choice(params, "learner", "hedge-on-cover", LEARNERS)
    adversary = _choice(params, "adversary", "stationary-smooth", _LEARNING_ADVERSARIES)
    beta = _param(params, "beta", _real, kind, cls.sigma * math.sqrt(d) / math.sqrt(T))
    out = {
        "m": m,
        "d": d,
        "sigma": cls.sigma,
        "T": T,
        "beta": beta,
        "learner": learner,
        "adversary": adversary,
    }
    if _applies(params, out, "flip", "adversary", "stationary-smooth"):
        out["flip"] = _param(params, "flip", _real, kind, 0.25)
    return out


def _learning_game(params: dict):
    cls = ThresholdUnionClass(params["m"], params["d"])
    cover = build_cover(cls, params["beta"])
    adv = _LEARNING_ADVERSARIES[params["adversary"]](params, cls)

    def play(rng: RngStream, keep_raw: bool):
        ledger = run_learning_game(params["learner"], adv, cover, params["T"], rng)
        metrics = {
            "regret": int(ledger.regret),
            "cum_loss": int(ledger.cum_loss),
            "best_loss": int(ledger.best_loss),
        }
        return metrics, (ledger.to_csv(), ledger.config_json() + "\n") if keep_raw else ()

    return play


def _check_learning(params: dict, summary: dict) -> list[str]:
    """Mean regret below the smoothed-regret ceiling, or above the
    mistake-tree floor when that adversary is playing."""
    mean_regret = summary["metrics"]["regret"]["mean"]
    T, d, sigma = params["T"], params["d"], params["sigma"]
    if params["adversary"] == "mistake-tree":
        floor = 0.1 * math.sqrt(d * T * math.log2(1.0 / (sigma * d)))
        if mean_regret < floor:
            return [f"mean regret {mean_regret:.3f} below floor {floor:.3f}"]
    else:
        ceiling = 5.0 * math.sqrt(T * d * math.log(T / (d * sigma)))
        if mean_regret > ceiling:
            return [f"mean regret {mean_regret:.3f} above ceiling {ceiling:.3f}"]
    return []


# adversary -> factory(params)
_INTERVAL_ADVERSARIES = {
    "iid-uniform": lambda p: iid_uniform_adversary(),
    "fixed-interval": lambda p: fixed_interval_adversary(p["sigma"], lo=p["lo"]),
    "densest-window": lambda p: densest_window_adversary(p["sigma"]),
}


def _resolve_dispersion(kind: str, params: dict) -> dict:
    T = _param(params, "T", _positive, kind)
    ell = _param(params, "ell", _positive, kind)
    sigma = _param(params, "sigma", _real, kind)
    adversary = _choice(params, "adversary", "iid-uniform", _INTERVAL_ADVERSARIES)
    alpha = _param(params, "alpha", _real, kind, 0.5)
    delta = _param(params, "delta", _real, kind, 0.05)
    w = _param(params, "w", _real, kind, default_window_width(T, ell, sigma, alpha))
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
        out["k"] = _param(params, "k", _real, kind)
    if _applies(params, out, "lo", "adversary", "fixed-interval"):
        out["lo"] = _param(params, "lo", _real, kind, 0.0)
    return out


def _dispersion_game(params: dict):
    T, ell, sigma = params["T"], params["ell"], params["sigma"]
    bound = dispersion_bound(T, ell, sigma, params["w"], params["delta"])
    split_ceiling(params.get("k"), bound)
    adv = _INTERVAL_ADVERSARIES[params["adversary"]](params)

    def play(rng: RngStream, keep_raw: bool):
        sample = generate_discontinuities(adv, T, ell, sigma, rng)
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
        return metrics, (sample_to_jsonl(sample), report_csv(report)) if keep_raw else ()

    return play


def _min_rate(metric: str, floor: float, label: str):
    """A check that the boolean ``metric`` holds in at least ``floor`` of trials."""

    def check(params: dict, summary: dict) -> list[str]:
        rate = summary["metrics"][metric]["rate"]
        return [f"{label} rate {rate:.4f} below {floor}"] if rate < floor else []

    return check


_BALANCING_PARAMS = ("algorithm", "n", "T", "delta", "M")

KINDS: dict[str, KindSpec] = {
    "coupling": KindSpec(
        command="coupling",
        params=("n", "sigma", "T", "k", "adversary", "set_size"),
        resolve=_resolve_coupling,
        options={"adversary": _COUPLING_ADVERSARIES},
        game=_coupling_game,
        raw_files=("traces.jsonl",),
        check=_check_coupling,
        summary_hook=_summarize_coupling,
    ),
    "discrepancy": KindSpec(
        command="discrepancy",
        params=(*_BALANCING_PARAMS, "adversary", "sigma", "inner"),
        resolve=_resolve_discrepancy,
        options={"algorithm": _ALGORITHMS, "adversary": _VECTOR_ADVERSARIES},
        game=_discrepancy_game,
        raw_files=("trace_NNNN.csv", "run_NNNN.json"),
        check=_check_discrepancy,
    ),
    # The thin-slab opponent is fixed: no adversary choice.
    "discrepancy-lowerbound": KindSpec(
        command="discrepancy-lb",
        params=_BALANCING_PARAMS,
        resolve=lambda kind, params: _resolve_balancing(kind, params, "random-sign"),
        options={"algorithm": _ALGORITHMS},
        game=lambda params: _balancing_game(
            params,
            slab_lowerbound_adversary(params["n"], params["T"]),
            ok_floor=params["T"] / 20.0,
        ),
        raw_files=("trace_NNNN.csv", "run_NNNN.json"),
        # Final squared length at least T/20 in at least 99 percent of trials.
        check=_min_rate("ok", 0.99, "squared-length growth"),
    ),
    "learning": KindSpec(
        command="learning",
        params=("m", "sigma", "d", "T", "beta", "learner", "adversary", "flip"),
        resolve=_resolve_learning,
        options={"learner": LEARNERS, "adversary": _LEARNING_ADVERSARIES},
        game=_learning_game,
        raw_files=("ledger_NNNN.csv", "game_NNNN.json"),
        check=_check_learning,
    ),
    "dispersion": KindSpec(
        command="dispersion",
        params=("T", "ell", "sigma", "adversary", "alpha", "delta", "w", "k", "lo"),
        resolve=_resolve_dispersion,
        options={"adversary": _INTERVAL_ADVERSARIES},
        game=_dispersion_game,
        raw_files=("points_NNNN.jsonl", "reports.csv"),
        # Total window count within the bound in at least 95 percent of trials.
        check=_min_rate("within_bound", 0.95, "within-bound"),
    ),
}

EXPERIMENT_KINDS = tuple(KINDS)


def _run_single_trial(job: tuple) -> tuple[dict, dict]:
    """Execute one trial; exceptions become an error record, never a crash.

    Module-level so process pools can pickle it; the job tuple carries only
    plain values for the same reason.
    """
    kind, params, seed, index, keep_raw = job
    spec = KINDS[kind]
    try:
        metrics, contents = spec.game(params)(RngStream(seed=seed, stream_id=index), keep_raw)
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}, {}
    names = (name.replace("NNNN", f"{index:04d}") for name in spec.raw_files)
    return metrics, dict(zip(names, contents))


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
    "|".join(
        re.escape(name).replace("NNNN", r"\d{4,}")
        for name in sorted(
            {"config.json", "metrics.jsonl", "summary.json"}.union(
                *(spec.raw_files for spec in KINDS.values())
            )
        )
    )
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
    resolved = ExperimentConfig(
        cfg.kind, _resolve_params(cfg.kind, cfg.params), cfg.trials, cfg.seed
    )
    run_dir = Path(out_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    _clear_owned_files(run_dir)
    (run_dir / "config.json").write_text(resolved.to_json())

    jobs = [(cfg.kind, resolved.params, cfg.seed, i, write_traces) for i in range(cfg.trials)]
    if parallelism == 1 or cfg.trials == 1:
        results = [_run_single_trial(job) for job in jobs]
    else:
        # A forked pool starts every worker up front, so cap it at the trials.
        workers = min(parallelism, cfg.trials)
        chunk = max(1, cfg.trials // (parallelism * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
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
        config=resolved,
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


def _rate_block(count: int, n: int) -> dict:
    """count of n, its rate and the rate's Wilson interval at three standard errors."""
    lo, hi = wilson_interval(count, n, z=3.0)
    return {"count": count, "n": n, "rate": count / n, "ci_low": lo, "ci_high": hi}


def summarize(run_dir: str | Path) -> dict:
    """Aggregate statistics for a run, computed from persisted files only.

    Numeric metrics get mean, standard deviation (ddof=1, zero for a single
    trial), median, min, and max; boolean metrics get a count, rate, and
    Wilson interval at three standard errors.  When any trial completed,
    the kind's ``summary_hook`` adds its own blocks.
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
            metrics[key] = _rate_block(sum(values), len(values))
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
    spec = KINDS.get(cfg["kind"])
    if good and spec is not None and spec.summary_hook is not None:
        summary.update(spec.summary_hook(run_dir, cfg, good))
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

    Any errored trial, or a run with no completed trial, fails every kind;
    otherwise the kind's own check applies (see each KindSpec's ``check``).
    """
    failures: list[str] = []
    if summary["errors"]:
        failures.append(f"{summary['errors']} trial(s) errored: {summary['error_trials']}")
    if not summary["completed"]:
        failures.append("no completed trials")
        return failures
    return failures + KINDS[kind].check(params, summary)


def default_run_dir(kind: str, seed: int, base: str | None = None) -> str:
    """Deterministic run directory under the base output directory.

    The base comes from the SMOOTHLAB_OUT_DIR environment variable when not
    given, falling back to ./runs.  No timestamps: rerunning the same config
    lands in the same place and reproduces the same bytes.
    """
    if base is None:
        base = os.environ.get(ENV_OUT_DIR, "runs")
    return os.path.join(base, f"{kind}-seed{seed}")

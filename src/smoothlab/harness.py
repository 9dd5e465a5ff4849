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
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .coupling import (
    MARGINAL_MIN_TRACES,
    CouplingConfig,
    containment_bound,
    containment_flags,
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
from .stats import (
    binomial_stderr,
    bootstrap_ratio_ci,
    median,
    one_sided_bound_check,
    wilson_interval,
)

ENV_OUT_DIR = "SMOOTHLAB_OUT_DIR"


@dataclass(frozen=True)
class KindSpec:
    """Everything the harness knows about one experiment kind.

    ``resolve(kind, params)`` validates the parameters and returns them with
    every default filled in; unknown parameter names are rejected against
    ``params`` before it runs.  ``options`` maps each choice parameter to its
    table of accepted values.  ``game(params)`` builds every object a trial
    plays from resolved parameters; an ExperimentConfig calls it once when it
    is built, so every check those constructors make runs before any trial.
    It returns ``play(rng)``, which plays one trial on the RngStream ``rng``
    and returns the trial's metrics and the contents of ``raw_files`` in
    order, where NNNN in a name stands for the trial index.
    ``summary_hook(run_dir, config, columns, completed)`` returns extra summary
    blocks from the metric columns ``_read_metrics`` returns: one list per key,
    one entry per completed row in trial order, ``_ABSENT`` where that row
    lacks the key.  ``check(params, summary)`` returns the kind's ``--assert``
    failures.

    Option factories and game builders look module names up when called,
    so rebinding a name on this module reaches every trial.
    """

    command: str
    params: tuple[str, ...]
    resolve: Callable[[str, dict], dict]
    options: dict[str, dict[str, Callable]]
    game: Callable[[dict], Callable[[RngStream], tuple[dict, tuple[str, ...]]]]
    raw_files: tuple[str, ...]
    check: Callable[[dict, dict], list[str]]
    summary_hook: Callable[[Path, dict, dict[str, list], int], dict] | None = None


class _ResolvedParams(dict):
    """A config's resolved params: a dict that refuses every change, so the
    params a config checked are the params its trials play."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("the params of a built ExperimentConfig are read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        # The default reduction refills the dict through __setitem__.
        return (type(self), (dict(self),))


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved experiment: kind, kind parameters, trials, seed.

    Building one validates ``params`` and resolves every default (replica
    counts, cover widths, window widths), so ``params`` and config.json hold
    exactly what the trials will use.  It then builds the kind's game once,
    so all validation of the underlying modules runs here, before any trial.
    The resolved ``params`` are read-only.
    """

    kind: str
    params: dict
    trials: int
    seed: int

    def __post_init__(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ValidationError(
                f"unknown experiment kind {self.kind!r}; expected one of {EXPERIMENT_KINDS}"
            )
        if not isinstance(self.params, dict):
            raise ValidationError(f"params must be a dict, got {type(self.params).__name__}")
        spec = KINDS[self.kind]
        _check_keys(self.params, spec.params, self.kind)
        resolved = spec.resolve(self.kind, self.params)
        spec.game(resolved)
        object.__setattr__(self, "params", _ResolvedParams(resolved))  # the dataclass is frozen
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
    """``ExperimentConfig(kind, params, trials, seed)``: the resolved, checked config."""
    return ExperimentConfig(kind=kind, params=params, trials=trials, seed=seed)


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

    def play(rng: RngStream):
        trace = couple_adaptive(adv, cfg, rng.generator())
        # Plain list operations: three numpy reductions cost more at these sizes.
        rounds = trace.contained_rounds.tolist()
        contained = all(rounds)
        metrics = {
            "contained": contained,
            "failed_round": -1 if contained else rounds.index(False) + 1,
            "n_contained_rounds": sum(rounds),
        }
        return metrics, (traces_to_jsonl([trace]),)

    return play


def _summarize_coupling(
    run_dir: Path, cfg: dict, columns: dict[str, list], completed: int
) -> dict:
    """The containment-failure rate, plus chi-square marginal diagnostics when at
    least MARGINAL_MIN_TRACES traces were persisted.  Every completed trial's
    metrics row must hold its containment flag, and traces.jsonl must exist
    and hold one trace per completed trial whose containment agrees with it."""
    contained = columns.get("contained", [_ABSENT] * completed)
    if _ABSENT in contained:
        trial = columns["trial"][contained.index(_ABSENT)]
        raise ValidationError(f"trial {trial} in metrics.jsonl has no 'contained' flag")
    expected = np.fromiter(contained, dtype=bool, count=completed)
    failures = completed - int(np.count_nonzero(expected))
    extra = {"containment_failure": _rate_block(failures, completed)}
    n = cfg["params"]["n"]
    with _open_run_file(run_dir, "traces.jsonl") as lines:
        X, Z = traces_from_jsonl(lines, n)
    if X.shape[0] != completed:
        raise ValidationError(
            f"traces.jsonl holds {X.shape[0]} traces for {completed} completed trials"
        )
    bad = containment_flags(X, Z) != expected
    if bad.any():
        i = int(bad.argmax())
        raise ValidationError(
            f"trace {i + 1} contradicts the containment flag of trial {columns['trial'][i]} "
            "in metrics.jsonl"
        )
    if X.shape[0] >= MARGINAL_MIN_TRACES:
        report = verify_marginals(X, Z, n, n_pairs=20, pair_seed=0)
        extra["marginals"] = {
            "n_traces": report.n_traces,
            "min_cell_pvalue": float(report.cell_pvalues.min()),
            "min_pair_pvalue": min(report.pair_pvalues) if report.pair_pvalues else None,
            "min_homogeneity_pvalue": (
                min(report.homogeneity_pvalues) if report.homogeneity_pvalues else None
            ),
            "passed": report.passed(),
        }
    return extra


def _check_coupling(params: dict, summary: dict) -> list[str]:
    """Containment-failure rate at most T(1-sigma)^k plus three binomial stderrs,
    and within three binomial stderrs of the exact rate q = 1 - (1 - p)^T, on
    both sides.

    Every adversary in the table plays sets of one size s, its first set's.  A
    round fails exactly when none of its k replicas hits its set, which has
    probability p = (1 - s/n)^k in every round whatever the set, so q is exact;
    at s = n it is 0, and any failure fails.
    """
    fail = summary["containment_failure"]
    T, n = params["T"], params["n"]
    bound = containment_bound(T, params["sigma"], params["k"])
    check = one_sided_bound_check(fail["count"], fail["n"], min(bound, 1.0), z=3.0)
    failures = []
    if not check.passed:
        failures.append(
            f"containment failure rate {check.rate:.6g} exceeds "
            f"{check.bound:.6g} + 3 stderr ({check.threshold:.6g})"
        )
    adv = _COUPLING_ADVERSARIES[params["adversary"]](params, FiniteDomain(n))
    s = adv.rule(np.empty(0, dtype=np.int64)).size
    q = -math.expm1(T * math.log1p(-((1.0 - s / n) ** params["k"])))
    band = 3.0 * binomial_stderr(q, fail["n"])
    if abs(check.rate - q) > band:
        failures.append(
            f"containment failure rate {check.rate:.6g} lies more than 3 stderr "
            f"({band:.6g}) from the exact {q:.6g}"
        )
    return failures


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

    def play(rng: RngStream):
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
        return metrics, (trace_to_csv(trace), trace_header_json(trace) + "\n")

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

    def play(rng: RngStream):
        ledger = run_learning_game(params["learner"], adv, cover, params["T"], rng)
        metrics = {
            "regret": int(ledger.regret),
            "cum_loss": int(ledger.cum_loss),
            "best_loss": int(ledger.best_loss),
        }
        return metrics, (ledger.to_csv(), ledger.config_json() + "\n")

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

    def play(rng: RngStream):
        sample = generate_discontinuities(adv, T, ell, sigma, rng.generator())
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
        return metrics, (sample_to_jsonl(sample), report_csv(report))

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
    kind, params, seed, index = job
    spec = KINDS[kind]
    try:
        metrics, contents = spec.game(params)(RngStream(seed=seed, stream_id=index))
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}, {}
    names = (name.replace("NNNN", f"{index:04d}") for name in spec.raw_files)
    return metrics, dict(zip(names, contents))


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
    """A finished run's resolved config and summary, plus where it lives on disk."""

    config: ExperimentConfig
    run_dir: str
    summary: dict


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path, parallelism: int = 1) -> RunResult:
    """Run every trial, persist the run directory, and summarize it.

    Trial i draws from RngStream(cfg.seed, i), so the persisted bytes are
    identical for any parallelism degree.  Each trial's ``play(rng)`` returns
    its metrics and the contents of every raw file the kind names; the
    parent process writes them all, trial by trial in trial order, as each
    result arrives: a shared raw file stays open for the run and takes each
    trial's part (a CSV part without its header after the first), and a
    per-trial file is written and closed at once.  An interrupted run leaves
    a partial metrics.jsonl and raw files, and no summary.json.  When
    ``out_dir`` is reused, the files an earlier run wrote there are removed
    first; other files are kept.  ``cfg`` is run as given: its params were
    resolved and its game checked when it was built.
    """
    if parallelism < 1:
        raise ValidationError(f"parallelism must be >= 1, got {parallelism}")
    run_dir = Path(out_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    _clear_owned_files(run_dir)
    (run_dir / "config.json").write_text(cfg.to_json())

    raw_files = KINDS[cfg.kind].raw_files
    jobs = ((cfg.kind, cfg.params, cfg.seed, i) for i in range(cfg.trials))
    with ExitStack() as stack:
        if parallelism == 1 or cfg.trials == 1:
            results = map(_run_single_trial, jobs)
        else:
            from concurrent.futures import ProcessPoolExecutor

            # A forked pool starts every worker up front, so cap it at the trials.
            workers = min(parallelism, cfg.trials)
            chunk = max(1, cfg.trials // (parallelism * 4))
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            results = pool.map(_run_single_trial, jobs, chunksize=chunk)
        metrics_file = stack.enter_context(open(run_dir / "metrics.jsonl", "w"))
        shared = {}
        for i, (metrics, raw) in enumerate(results):
            metrics_file.write(json.dumps({"trial": i, **metrics}, sort_keys=True) + "\n")
            for name, text in raw.items():
                if name in shared:
                    shared[name].write(text.partition("\n")[2] if name.endswith(".csv") else text)
                elif name in raw_files:  # no NNNN in the name: one file for every trial
                    shared[name] = stack.enter_context(open(run_dir / name, "w"))
                    shared[name].write(text)
                else:
                    (run_dir / name).write_text(text)

    summary = summarize(run_dir)
    (run_dir / "summary.json").write_text(summary_to_json(summary))
    return RunResult(config=cfg, run_dir=str(run_dir), summary=summary)


def summary_to_json(summary: dict) -> str:
    return json.dumps(summary, sort_keys=True, indent=2) + "\n"


def _open_run_file(run_dir: Path, name: str):
    """The file ``name`` of a run directory, open for reading; ValidationError when
    the directory has none."""
    path = run_dir / name
    if not path.is_file():
        raise ValidationError(f"no {name} in {run_dir}")
    return open(path)


# A column's entry for a completed row that lacks the column's key.
_ABSENT = object()


def _read_metrics(run_dir: Path) -> tuple[dict[str, list], list, int]:
    """metrics.jsonl in one streaming pass, as columns: each key's values over
    the completed rows in trial order, with _ABSENT where a row lacks the key;
    the trials of the error rows; and the number of completed rows.  No row
    outlives the pass.  A non-blank line that is not a JSON object with an
    integer "trial" raises ValidationError naming its line number."""
    columns: dict[str, list] = {}
    error_trials = []
    completed = 0
    with _open_run_file(run_dir, "metrics.jsonl") as lines:
        for number, line in enumerate(lines, 1):
            if not line.strip():
                continue
            row = json.loads(line)
            if not isinstance(row, dict) or not _is_int(row.get("trial")):
                raise ValidationError(
                    f"metrics.jsonl line {number} is not a JSON object with an integer 'trial'"
                )
            if "error" in row:
                error_trials.append(row["trial"])
                continue
            for key, value in row.items():
                column = columns.get(key)
                if column is None:
                    column = columns[key] = [_ABSENT] * completed
                column.append(value)
            completed += 1
            if len(row) < len(columns):
                for column in columns.values():
                    if len(column) < completed:
                        column.append(_ABSENT)
    return columns, error_trials, completed


def _present(column: list) -> list:
    """A column's values, without the _ABSENT entries of rows that lack its key."""
    return [v for v in column if v is not _ABSENT]


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
    with _open_run_file(run_dir, "config.json") as config_file:
        cfg = json.load(config_file)
    columns, error_trials, completed = _read_metrics(run_dir)

    metrics: dict[str, dict] = {}
    for key in sorted(columns.keys() - {"trial"}):
        values = _present(columns[key])
        if all(isinstance(v, bool) for v in values):
            metrics[key] = _rate_block(sum(values), len(values))
        else:
            arr = np.asarray([float(v) for v in values])
            metrics[key] = {
                "mean": float(arr.mean()),
                "std": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
                "median": median(arr),
                "min": float(arr.min()),
                "max": float(arr.max()),
                "n": int(arr.size),
            }

    summary = {
        "kind": cfg["kind"],
        "seed": cfg["seed"],
        "trials": cfg["trials"],
        "completed": completed,
        "errors": len(error_trials),
        "error_trials": error_trials,
        "metrics": metrics,
    }
    spec = KINDS.get(cfg["kind"])
    if completed and spec is not None and spec.summary_hook is not None:
        summary.update(spec.summary_hook(run_dir, cfg, columns, completed))
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
        columns = _read_metrics(run_dir)[0]
        vals = [float(v) for v in _present(columns.get(metric, []))]
        if not vals:
            available = sorted(columns.keys() - {"trial"})
            raise ValidationError(
                f"metric {metric!r} absent from {run_dir}; available: {available}"
            )
        values.append(np.asarray(vals))
    a, b = values
    median_a = median(a)
    median_b = median(b)
    if median_b == 0.0:
        raise ValidationError(f"median of {metric!r} in run B is zero; ratio undefined")
    ci_low, ci_high = bootstrap_ratio_ci(
        a, b, RngStream(seed=seed, stream_id=0).generator(), n_resamples=n_resamples
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

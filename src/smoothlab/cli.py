"""Command-line front end for the experiment harness.

One subcommand per experiment kind (``harness.KINDS`` names each kind's
command), plus compare.  Run subcommands read an optional JSON config file
and accept flag overrides; compare reads two finished run directories.
Exit codes: 0 success, 1 configuration error, 2 failed acceptance check
(--assert, or a ratio limit on compare).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .domain import ValidationError
from .harness import (
    KINDS,
    assert_report,
    compare_runs,
    default_run_dir,
    make_config,
    run_experiment,
)


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad usage as a config error (exit 1, not 2)."""

    def error(self, message: str):
        raise ValidationError(message)


def _add_run_options(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON file with params, trials, and seed")
    sp.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one experiment parameter (value parsed as JSON, else string)",
    )
    sp.add_argument("--trials", type=int, help="number of trials (default 1)")
    sp.add_argument("--seed", type=int, help="base seed; trial i uses stream i (default 0)")
    sp.add_argument("--out-dir", help="run directory (default derived from SMOOTHLAB_OUT_DIR)")
    sp.add_argument("--parallelism", type=int, default=1, help="worker processes (default 1)")
    sp.add_argument(
        "--assert",
        dest="check",
        action="store_true",
        help="run the kind's acceptance check; exit 2 on failure",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="smoothlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    for kind, spec in KINDS.items():
        sp = sub.add_parser(spec.command, help=f"run a {kind} experiment")
        _add_run_options(sp)
        sp.set_defaults(func=_cmd_run, kind=kind)

    cp = sub.add_parser("compare", help="compare one metric across two runs")
    cp.add_argument("run_a")
    cp.add_argument("run_b")
    cp.add_argument("--metric", required=True)
    cp.add_argument("--seed", type=int, default=0, help="bootstrap seed (default 0)")
    cp.add_argument("--resamples", type=int, default=10_000)
    cp.add_argument("--min-ratio", type=float, help="exit 2 if the ratio falls below this")
    cp.add_argument("--max-ratio", type=float, help="exit 2 if the ratio exceeds this")
    cp.set_defaults(func=_cmd_compare)
    return parser


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _load_config_file(path: str | None, kind: str) -> dict:
    if path is None:
        return {}
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValidationError(f"config file {path} must hold a JSON object")
    allowed = {"kind", "params", "trials", "seed"}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ValidationError(f"unknown config key(s) {unknown}; allowed: {sorted(allowed)}")
    if "kind" in data and data["kind"] != kind:
        raise ValidationError(f"config file is for kind {data['kind']!r}, command wants {kind!r}")
    if not isinstance(data.get("params", {}), dict):
        raise ValidationError(
            f"config file {path}: params must be a JSON object, got {data['params']!r}"
        )
    return data


def _cmd_run(args: argparse.Namespace) -> int:
    file_cfg = _load_config_file(args.config, args.kind)
    params = dict(file_cfg.get("params", {}))
    for item in args.param:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ValidationError(f"--param needs KEY=VALUE, got {item!r}")
        params[key] = _parse_value(value)
    trials = args.trials if args.trials is not None else file_cfg.get("trials", 1)
    seed = args.seed if args.seed is not None else file_cfg.get("seed", 0)
    cfg = make_config(args.kind, params, trials, seed)
    out_dir = args.out_dir if args.out_dir is not None else default_run_dir(args.kind, seed)
    result = run_experiment(cfg, out_dir, parallelism=args.parallelism)
    print(
        f"[{cfg.kind}] trials={cfg.trials} completed={result.summary['completed']} "
        f"errors={result.summary['errors']} out={result.run_dir}"
    )
    if args.check:
        failures = assert_report(cfg.kind, cfg.params, result.summary)
        for message in failures:
            print(f"[ASSERT FAIL] {message}")
        if failures:
            return 2
        print("[ASSERT OK]")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    report = compare_runs(
        args.run_a, args.run_b, args.metric, seed=args.seed, n_resamples=args.resamples
    )
    print(json.dumps(report, sort_keys=True, indent=2))
    failures = []
    if args.min_ratio is not None and report["ratio"] < args.min_ratio:
        failures.append(f"ratio {report['ratio']:.6g} below --min-ratio {args.min_ratio:.6g}")
    if args.max_ratio is not None and report["ratio"] > args.max_ratio:
        failures.append(f"ratio {report['ratio']:.6g} above --max-ratio {args.max_ratio:.6g}")
    for message in failures:
        print(f"[ASSERT FAIL] {message}")
    return 2 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line interface: run, sweep, bound, oracle, selftest."""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import adversarial, harness, selftest
from .env import derive_stream


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="path to an INI experiment file")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--format", default=None, choices=list(harness.RENDERERS))
    p.add_argument("--replicas", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--assert-bounds", action="store_true",
                   help="exit nonzero when mean + 2 SEM exceeds any asserted overlay")


def _load_config(args) -> dict:
    config = harness.parse_config(args.config)
    if args.replicas is not None:
        config["replicas"] = args.replicas
    if args.seed is not None:
        config["seed"] = args.seed
    if args.out is not None:
        config["output"]["dir"] = args.out
    if args.format is not None:
        config["output"]["format"] = args.format
    return config


def _emit_report(report, config, suffix: str = "") -> Path:
    out = config["output"]
    fmt = out["format"]
    path = Path(out["dir"]) / f"{out['basename']}{suffix}.{fmt}"
    return harness.emit(report, fmt, path)


def cmd_run(args) -> int:
    config = _load_config(args)
    report = harness.run_experiment(config)
    path = _emit_report(report, config)
    print(f"{config['policy']} on {config['env_kind']}: "
          f"mean terminal regret {report.mean_terminal:.4f} "
          f"(sem {report.sem_terminal:.4f}) -> {path}")
    print(f"  content sha256 {report.content_digest()}")
    for name, value in sorted(report.overlays.items()):
        print(f"  overlay {name} = {value:.4f}")
    if args.assert_bounds:
        violated = harness.assert_bounds(report)
        if violated:
            print(f"BOUND VIOLATED: {', '.join(violated)}", file=sys.stderr)
            return 1
    return 0


def cmd_sweep(args) -> int:
    config = _load_config(args)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    reports = harness.sweep(config, args.param, values)
    failed = False
    for value, report in zip(values, reports):
        path = _emit_report(report, config, suffix=f"_{args.param.split('.')[-1]}_{value}")
        print(f"{args.param}={value}: mean terminal regret {report.mean_terminal:.4f} "
              f"-> {path}")
        print(f"  content sha256 {report.content_digest()}")
        if args.assert_bounds and harness.assert_bounds(report):
            failed = True
    return 1 if failed else 0


def cmd_bound(args) -> int:
    params = {}
    for item in args.params:
        key, _, value = item.partition("=")
        try:  # gaps and means are lists, even of one entry
            params[key] = ([float(v) for v in value.split(":")] if key in ("gaps", "means")
                           else float(value))
        except ValueError:
            raise harness.ConfigError(f"bound {args.name!r}: {key} = {value!r} is not a "
                                      f"number") from None
    value = harness.bound(args.name, **params)
    print(f"{args.name}: {value!r}")
    return 0


def cmd_oracle(args) -> int:
    """Monte Carlo cumulative loss against the exact path-enumeration oracle."""
    n, K, reps = args.horizon, 2, args.replicas
    if reps < 2:  # one replica has no standard error to measure z with
        raise harness.ConfigError(f"--replicas must be at least 2, got {reps}")
    if not 1 <= n <= math.log(adversarial.MAX_PATHS, K):  # K**n itself may be vast
        raise harness.ConfigError(f"--horizon must be at least 1, and its {K}^n action paths "
                                  f"at most {adversarial.MAX_PATHS}, got {n}")
    losses = derive_stream(args.seed, 0).random((n, K))
    exact_loss, exact_regret = adversarial.exact_expectation_oracle(
        lambda: adversarial.Exp3State(K, n=n), losses)
    totals = harness.exp3_cumulative_losses(losses, args.seed, range(1, reps + 1))
    mc = totals.mean()
    sem = totals.std(ddof=1) / np.sqrt(reps)
    z = abs(mc - exact_loss) / max(sem, 1e-12)
    print(f"exact expected loss {exact_loss:.6f}, exact pseudo-regret {exact_regret:.6f}")
    print(f"monte carlo {mc:.6f} +/- {sem:.6f} ({reps} replicas), z = {z:.2f}")
    if z > 3.0:
        print("ORACLE MISMATCH (|z| > 3)", file=sys.stderr)
        return 1
    return 0


def cmd_selftest(args) -> int:
    results = selftest.run_selftest(args.seed)
    failed = False
    for name, passed, detail in results:
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
        failed |= not passed
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="banditlab",
        description="Bandit simulations with theorem-bound overlays.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    _add_common(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a grid over one config parameter")
    _add_common(p_sweep)
    p_sweep.add_argument("--param", required=True,
                         help="dotted parameter, e.g. experiment.horizon")
    p_sweep.add_argument("--values", required=True, help="comma-separated grid")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_bound = sub.add_parser("bound", help="evaluate a theorem bound")
    p_bound.add_argument("name", choices=sorted(harness.BOUNDS))
    p_bound.add_argument("params", nargs="*", metavar="key=value",
                         help="bound parameters; lists use ':' separators")
    p_bound.set_defaults(fn=cmd_bound)

    p_oracle = sub.add_parser("oracle", help="exact-expectation check on a tiny instance")
    p_oracle.add_argument("--horizon", type=int, default=6)
    p_oracle.add_argument("--replicas", type=int, default=4000)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.set_defaults(fn=cmd_oracle)

    p_self = sub.add_parser("selftest", help="run the property suites")
    p_self.add_argument("--seed", type=int, default=selftest.SELFTEST_SEED)
    p_self.set_defaults(fn=cmd_selftest)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except harness.ConfigError as exc:
        print(f"banditlab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

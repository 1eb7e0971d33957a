"""Command-line front end.

Subcommands: gen-config, schedule, contours, simulate, rates, oracle-check,
packing. All but gen-config and oracle-check read a JSON config file (see
gen-config for a working template); each subcommand takes only the flags it
reads, and flags override the file where noted. Exit codes: 0 on success, 1
when an oracle self-check fails, 2 on configuration errors and unknown flags.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from .core import ConfigError, ProblemConfig, _check_seed_label, theoretical_rate
from .estimators import ESTIMATOR_NAMES
from .harness import (
    ExperimentPlan,
    GroundTruthSpec,
    _check_sample_count,
    _check_writable,
    _csv,
    _outputs,
    _run_cells,
    config_to_dict,
    format_number,
    load_config,
    oracle_checks,
    run_convergence,
)
from .schedules import contour_points, multilevel_schedule
from .synth import ground_truth_seed

__all__ = ["cli_main", "main"]

_DEFAULT_TEMPLATE_SEED = 20260819

# Most points per contour that contours --samples may ask for. A call draws
# two contours; at the cap it takes about 1.4 s and 100 MB of peak RSS on a
# 2-vCPU host, and both grow linearly with --samples.
_MAX_CONTOUR_SAMPLES = 10**5


def _template_config() -> dict[str, Any]:
    # A ready-to-run output-rate-limited instance: theoretical squared-error
    # exponent 0.5, flat-in/steep-out ground truth so the staircase's
    # advantage over the uniform baseline shows at the largest n.
    cfg = ProblemConfig(
        p=0.5, q=0.5, alpha=0.4, beta=0.9, beta_prime=0.1, gamma=0.0,
        gamma_prime=0.5, B=1.0, sigma=0.1, c0=1.0, d_in=256, d_out=512,
        seed=_DEFAULT_TEMPLATE_SEED,
    )
    gt = GroundTruthSpec(kind="random", params={"taper_in": 0.3, "taper_out": 2.0})
    return config_to_dict(cfg, gt, n_list=[2**k for k in range(10, 17)], trials=20)


def _sig12(v: float) -> float:
    # Schedule/contour geometry is exact in closed form but computed through
    # logs; 12 significant digits absorb that round-off in the CSVs without
    # touching the full-precision objects.
    if v == 0.0 or not math.isfinite(v):
        return v
    return round(v, 11 - math.floor(math.log10(abs(v))))


def _emit(text: str, out: str | None) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise ConfigError(f"--out {out!r} cannot be written: {exc.strerror}") from None


def _print_table(args: argparse.Namespace, doc: dict[str, Any], key: str,
                 header: Sequence[str], rows: Sequence[Sequence[Any]],
                 number: Callable[[Any], str] = format_number) -> int:
    # The CSV prints each row through number; --format json sets doc[key] to
    # the same rows, keyed by the header, at full precision.
    if args.format == "json":
        doc[key] = [dict(zip(header, row)) for row in rows]
        _emit(json.dumps(doc, indent=2), args.out)
    else:
        _emit(_csv(header, rows, number), args.out)
    return 0


def _sig12_number(v: float) -> str:
    return format_number(_sig12(v))


def _parse_n_list(raw: str) -> list[int]:
    try:
        values = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"--n-list must be comma-separated integers, got {raw!r}") from exc
    if not values:
        raise ConfigError("--n-list is empty")
    return values


def _resolve_n(args: argparse.Namespace, extras: dict[str, Any]) -> int:
    if args.n is not None:
        n, source = args.n, "--n"
    elif extras.get("n_list"):
        n, source = max(extras["n_list"]), "the maximum of n_list"
    else:
        raise ConfigError("no sample count: pass --n or put n_list in the config")
    _check_sample_count(n, source)
    return n


def _load(args: argparse.Namespace) -> tuple[Any, ...]:
    """load_config(args.config), once no file the command writes (for rates, three) is it.

    Any other command's --out is then opened, so a path that cannot be
    written is refused before the work; rates' plan opens its three files.
    """
    out = args.out and Path(args.out)
    if out and out.name:  # a nameless --out is refused when it is opened
        written = _outputs(args.out) if args.command == "rates" else (out,)
        if Path(args.config).resolve() in [p.resolve() for p in written]:
            raise ConfigError(f"--out {args.out} would overwrite the config file {args.config}")
    loaded = load_config(args.config)
    if args.out is not None and args.command != "rates":
        _check_writable(args.out, (Path(args.out),))
    return loaded


def _estimator_list(arg: str) -> tuple[str, ...]:
    return ESTIMATOR_NAMES if arg == "all" else (arg,)


def _cmd_gen_config(args: argparse.Namespace) -> int:
    _emit(json.dumps(_template_config(), indent=2) + "\n", args.out)
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    cfg, _, _, extras = _load(args)
    n = _resolve_n(args, extras)
    sched = multilevel_schedule(cfg, n)
    eta1, eta2, u = theoretical_rate(cfg)
    doc = {"n": n, "eta1": eta1, "eta2": eta2, "u": u,
           "special_case": sched.special_case, "clamped": sched.clamped}
    rows = [(i, lv.x, lv.y, lv.lam, lv.row_start, lv.row_end)
            for i, lv in enumerate(sched.levels)]
    return _print_table(args, doc, "levels", ("level", "x", "y", "lambda", "row_start", "row_end"),
                        rows, _sig12_number)


def _cmd_contours(args: argparse.Namespace) -> int:
    cfg, _, _, extras = _load(args)
    n = _resolve_n(args, extras)
    if not 2 <= args.samples <= _MAX_CONTOUR_SAMPLES:
        raise ConfigError(f"--samples must be from 2 to {_MAX_CONTOUR_SAMPLES}, "
                          f"got {args.samples}")
    eta1, eta2, _ = theoretical_rate(cfg)
    sched = multilevel_schedule(cfg, n)
    x_hi = 2.0 * max(lv.x for lv in sched.levels)
    x_lo = min(0.5, min(lv.x for lv in sched.levels))
    rows = [(kind, x, y)
            for kind, level_c in (("variance", float(n) ** eta2), ("bias", float(n) ** eta1))
            for x, y in contour_points(kind, level_c, cfg, (x_lo, x_hi), args.samples)]
    return _print_table(args, {"n": n}, "points", ("kind", "x", "y"), rows, _sig12_number)


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg, gt, _, extras = _load(args)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    n = _resolve_n(args, extras)
    _check_seed_label(args.trial, "--trial")
    # The one cell runs in a pinned worker, as rates runs it, so its errors
    # match the rates runs CSV bit for bit.
    (records,), _ = _run_cells(cfg, gt, _estimator_list(args.estimator), (n,), (args.trial,), 1)
    eta1, eta2, u = theoretical_rate(cfg)
    doc = {
        "n": n,
        "trial": args.trial,
        "seed": cfg.seed,
        "theoretical": {"eta1": eta1, "eta2": eta2, "u": u},
        "results": [
            {"estimator": r.estimator, "error_sq": r.error_sq,
             "elapsed_ms": round(r.elapsed_ms, 3)}
            for r in records
        ],
    }
    _emit(json.dumps(doc, indent=2), args.out)
    return 0


def _report_progress(done: int, total: int, seconds: float) -> None:
    sys.stderr.write(f"trial {done}/{total} done, {seconds:.2f} s\n")


def _cmd_rates(args: argparse.Namespace) -> int:
    cfg, gt, _, extras = _load(args)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out is None:
        raise ConfigError("rates requires --out for the summary CSV")
    n_list = _parse_n_list(args.n_list) if args.n_list is not None else extras.get("n_list")
    if not n_list:
        raise ConfigError("no sample counts: pass --n-list or put n_list in the config")
    trials = args.trials if args.trials is not None else extras.get("trials", 10)
    plan = ExperimentPlan(
        cfg=cfg,
        n_list=tuple(n_list),
        trials=trials,
        estimators=_estimator_list(args.estimator),
        ground_truth=gt,
        workers=args.workers,
        out=args.out,
    )
    report = run_convergence(plan, _report_progress)
    for fit in report.fits:
        sys.stdout.write(
            f"{fit.estimator}: slope {fit.slope:+.4f} (target {-report.theoretical_eta1:+.4f}, "
            f"r^2 {fit.r_squared:.4f})\n"
        )
    sys.stdout.write(f"done in {report.total_seconds:.1f}s\n")
    return 0


def _cmd_oracle_check(args: argparse.Namespace) -> int:
    _check_seed_label(args.seed, "--seed")
    t0 = time.perf_counter()
    results = oracle_checks(args.seed)
    ok = True
    for name, passed, detail in results:
        ok = ok and passed
        sys.stdout.write(f"{'PASS' if passed else 'FAIL'} {name}: {detail}\n")
    sys.stdout.write(f"{len(results)} suites in {time.perf_counter() - t0:.2f}s\n")
    return 0 if ok else 1


def _cmd_packing(args: argparse.Namespace) -> int:
    cfg, gt, _, _ = _load(args)
    if gt.kind == "packing":
        params = dict(gt.params)
    else:
        # Small default block fitting any grid with d_in >= 8, d_out >= 8.
        params = {"m1": 4, "m2": 0, "K": 8, "eps": 0.01}
        if cfg.d_in < 8 or cfg.d_out < 8:  # the config names no m1 or K to blame
            raise ConfigError(f"d_in={cfg.d_in} and d_out={cfg.d_out} do not hold the default "
                              "packing block m1=4, K=8, which needs d_in >= 8 and d_out >= 8: "
                              "give a packing ground_truth that fits, or a larger grid")
    if args.seed is not None:  # the flag's pattern replaces the config's
        if args.seed < 0:  # named here, not as a ground_truth.params.seed the file lacks
            raise ConfigError(f"--seed must be an integer >= 0, got {args.seed}")
        params.pop("omega", None)
        params["seed"] = args.seed
    elif "omega" not in params:
        params.setdefault("seed", ground_truth_seed(cfg))
    spec = GroundTruthSpec(kind="packing", params=params)
    op = spec.build(cfg)
    rows = [(int(j) + 1, int(i) + 1, float(op.m[j, i])) for j, i in zip(*np.nonzero(op.m))]
    return _print_table(args, {"params": params}, "entries", ("row", "col", "value"), rows)


def _build_parser() -> argparse.ArgumentParser:
    def flag(*names: str, **kwargs: Any) -> argparse.ArgumentParser:
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*names, **kwargs)
        return parent

    config = flag("--config", required=True, help="JSON config file")
    out = flag("--out", help="output path (stdout when omitted)")
    seed = flag("--seed", type=int, help="override the config seed")
    fmt = flag("--format", choices=("csv", "json"), default="csv",
               help="output format (default csv)")

    parser = argparse.ArgumentParser(
        prog="opridge",
        description="Spectral simulator for frequency-scheduled ridge operator learning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("gen-config", parents=[out],
                   help="write a ready-to-run config template")

    p = sub.add_parser("schedule", parents=[config, out, fmt],
                       help="emit the multilevel schedule for one sample count")
    p.add_argument("--n", type=int, help="sample count (default: max of config n_list)")

    p = sub.add_parser("contours", parents=[config, out, fmt],
                       help="emit bias/variance contour points for one sample count")
    p.add_argument("--n", type=int, help="sample count (default: max of config n_list)")
    p.add_argument("--samples", type=int, default=129, help="points per contour")

    p = sub.add_parser("simulate", parents=[config, seed, out],
                       help="one dataset, one fit per estimator, JSON summary")
    p.add_argument("--n", type=int, help="sample count (default: max of config n_list)")
    p.add_argument("--trial", type=int, default=0, help="trial index for the sub-seed")
    p.add_argument("--estimator", choices=ESTIMATOR_NAMES + ("all",), default="all")

    p = sub.add_parser("rates", parents=[config, seed, out],
                       help="full convergence sweep: summary CSV, runs CSV, JSON report")
    p.add_argument("--trials", type=int, help="trials per sample count")
    p.add_argument("--n-list", help="comma-separated sample counts")
    p.add_argument("--estimator", choices=ESTIMATOR_NAMES + ("all",), default="all")
    p.add_argument("--workers", type=int, default=1, help="worker processes")

    p = sub.add_parser("oracle-check",
                       help="run the closed-form oracle suites; nonzero exit on failure")
    p.add_argument("--seed", type=int, default=_DEFAULT_TEMPLATE_SEED,
                   help=f"seed of the suites' draws (default {_DEFAULT_TEMPLATE_SEED})")

    p = sub.add_parser("packing", parents=[config, out, fmt],
                       help="emit a packing-family instance on the config grid")
    p.add_argument("--seed", type=int, help="seed of the sign pattern, not of the config "
                   "(default: ground_truth.params.seed, else derived from the config seed)")
    return parser


_COMMANDS = {
    "gen-config": _cmd_gen_config,
    "schedule": _cmd_schedule,
    "contours": _cmd_contours,
    "simulate": _cmd_simulate,
    "rates": _cmd_rates,
    "oracle-check": _cmd_oracle_check,
    "packing": _cmd_packing,
}


def cli_main(argv: Sequence[str] | None = None) -> int:
    """Entry point returning the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()

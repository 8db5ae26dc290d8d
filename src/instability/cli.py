"""Command-line front end.

Subcommands: monotone, yield, cost, battery, sweep, regularize, verify.
States and channels are read from JSON files (see serialize module for the
schemas); outputs are JSON or CSV written to --output or stdout.  Runs are
deterministic for a fixed seed and inputs.  Exit codes: 1 parse errors,
2 validation errors, 3 solver failures, 4 budget refusals.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from . import optimize as op
from . import tasks as tk
from .divergences import in_dpi_region
from .errors import BudgetError, InstabilityError, ParseError, SolverError, ValidationError
from .serialize import channel_from_json, dump_json, load_json_file, state_from_json

log = logging.getLogger("instability")

SWEEP_EVAL_BUDGET = 10_000


def _configure_logging():
    level = os.environ.get("INSTABILITY_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level not in levels:
        raise ValidationError(f"INSTABILITY_LOG must be one of {sorted(levels)}")
    logging.basicConfig(level=levels[level], format="%(levelname)s %(name)s: %(message)s")


def _load_state(path: str) -> np.ndarray:
    return state_from_json(load_json_file(path))


def _load_channel(path: str):
    return channel_from_json(load_json_file(path))


def _emit(text: str, output: str | None):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(data, output: str | None):
    _emit(dump_json(data), output)


def _emit_result(res, fields: dict, output: str | None):
    """A result record as JSON: its value, interval and method at the top
    level, beside the command's own fields."""
    record = {"value": res.value, "interval": res.interval, "method": res.method}
    _emit_json({**fields, **record}, output)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_monotone(args) -> int:
    rho = _load_state(args.state)
    channel = _load_channel(args.channel)
    res = op.m_lambda(rho, args.alpha, args.z, args.lam, channel)
    _emit_result(
        res,
        {
            "alpha": args.alpha,
            "z": args.z,
            "lambda": args.lam,
            "residual": res.residual,
            "iterations": res.iterations,
            "sigma_star": res.sigma_star,
        },
        args.output,
    )
    return 0


def cmd_yield(args) -> int:
    rho = _load_state(args.state)
    channel = _load_channel(args.channel)
    _emit_report(tk.one_shot_yield(rho, channel, args.eps), args.output)
    return 0


def cmd_cost(args) -> int:
    rho = _load_state(args.state)
    channel = _load_channel(args.channel)
    if not 0.0 <= args.eps <= 1.0:
        raise ValidationError(f"epsilon {args.eps} outside [0, 1]")
    if args.eps > 0:
        if args.delta is None:
            raise ValidationError("eps > 0 cost needs --delta in (0, eps)")
        report = tk.one_shot_cost_eps(rho, channel, args.eps, args.delta)
    else:
        report = tk.one_shot_cost_exact(rho, channel)
    _emit_report(report, args.output)
    return 0


def cmd_battery(args) -> int:
    rho = _load_state(args.state)
    channel = _load_channel(args.channel)
    _emit_report(tk.battery_yield(rho, channel, args.eps), args.output)
    return 0


def _emit_report(report: tk.TaskReport, output: str | None) -> None:
    """Emit a task report after re-checking its witness residuals (defense
    in depth)."""
    for key in ("covariance", "composite_membership"):
        value = report.residuals.get(key)
        if value is not None and value > 1e-9:
            raise SolverError(f"witness failed re-verification: {key} = {value:.3e}")
    out_err = report.residuals.get("output_accuracy")
    if out_err is not None and out_err > report.epsilon + 1e-8:
        raise SolverError(f"witness output misses the target by {out_err:.3e}")
    fields = ("quantity", "epsilon", "witness", "residuals")
    _emit_result(report, {k: getattr(report, k) for k in fields}, output)


def _sweep_point(payload):
    """One sweep row; the payload (state, channel, alpha, z, lambda) pickles."""
    state, channel, alpha, z, lam = payload
    if not in_dpi_region(alpha, z):
        return (alpha, z, lam, None, None, "outside_dpi", None)
    res = op.m_lambda(np.asarray(state), alpha, z, lam, channel)
    return (alpha, z, lam, res.value, res.residual, res.method, res.iterations)


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise ParseError(f"{flag} must be comma-separated numbers, got {text!r}") from exc


def cmd_sweep(args) -> int:
    rho = _load_state(args.state)
    channel = _load_channel(args.channel)
    alphas = _parse_floats(args.alphas, "--alphas")
    zs = _parse_floats(args.zs, "--zs")
    lams = _parse_floats(args.lambdas, "--lambdas")
    points = [(a, z, x) for a in alphas for z in zs for x in lams]
    if len(points) > SWEEP_EVAL_BUDGET:
        raise BudgetError(
            f"sweep has {len(points)} evaluations, budget is {SWEEP_EVAL_BUDGET}"
        )
    payloads = [(rho, channel, a, z, x) for a, z, x in points]
    if args.workers > 1 and len(payloads) > 8:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            rows = list(pool.map(_sweep_point, payloads, chunksize=8))
    else:
        rows = [_sweep_point(p) for p in payloads]
    lines = ["alpha,z,lambda,value,residual,method,iterations"]
    for a, z, x, value, residual, method, iters in rows:
        cells = [f"{a:.12g}", f"{z:.12g}", f"{x:.12g}"]
        cells.append("" if value is None else f"{value:.12g}")
        cells.append("" if residual is None else f"{residual:.3e}")
        cells.append(method)
        cells.append("" if iters is None else str(iters))
        lines.append(",".join(cells))
    _emit("\n".join(lines), args.output)
    return 0


def cmd_regularize(args) -> int:
    rho = _load_state(args.state)
    channel = _load_channel(args.channel)
    rows = tk.regularize_sweep(rho, channel, args.eps, args.nmax)
    diag = tk.sweep_diagnostics(rows, args.eps)
    log.info("regularize diagnostics: %s", diag)
    _emit(tk.sweep_csv(rows), args.output)
    return 0


def cmd_verify(args) -> int:
    from .verification import run_checks

    names = args.suites.split(",") if args.suites else None
    results = run_checks(args.seed, names)
    passed = sum(r.passed for r in results)
    for r in results:
        marker = "PASS" if r.passed else "FAIL"
        print(f"[{marker}] {r.name}: worst {r.worst:.3e} (tol {r.tolerance:.0e})")
    print(f"{passed}/{len(results)} suites passed (seed {args.seed})")
    if passed != len(results):
        raise SolverError("verification suites failed")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="instability",
        description="Resource theory of instability: monotones and one-shot tasks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, state=True):
        if state:
            p.add_argument("--state", required=True, help="state JSON file")
        p.add_argument("--channel", required=True, help="channel JSON file")
        p.add_argument("--output", default=None, help="output path (default stdout)")

    p = sub.add_parser("monotone", help="evaluate an additive monotone")
    add_io(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--z", type=float, default=1.0)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.set_defaults(func=cmd_monotone)

    p = sub.add_parser("yield", help="one-shot distillable currency")
    add_io(p)
    p.add_argument("--eps", type=float, default=0.0)
    p.set_defaults(func=cmd_yield)

    p = sub.add_parser("cost", help="one-shot dilution cost (exact or interval)")
    add_io(p)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--delta", type=float, default=None)
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("battery", help="battery-assisted yield")
    add_io(p)
    p.add_argument("--eps", type=float, default=0.0)
    p.set_defaults(func=cmd_battery)

    p = sub.add_parser("sweep", help="monotone surface over an (alpha,z,lambda) grid")
    add_io(p)
    p.add_argument("--alphas", required=True, help="comma-separated alpha values")
    p.add_argument("--zs", required=True, help="comma-separated z values")
    p.add_argument("--lambdas", default="0", help="comma-separated lambda values")
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("regularize", help="multi-copy yield/cost rate table")
    add_io(p)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--nmax", type=int, default=4)
    p.set_defaults(func=cmd_regularize)

    p = sub.add_parser("verify", help="run the property-verification suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--suites", default=None, help="comma-separated suite names")
    p.set_defaults(func=cmd_verify)

    return parser


def _emit_error(kind: str, exc: Exception) -> None:
    import json

    print(json.dumps({"error": {"kind": kind, "message": str(exc)}}), file=sys.stderr)


def main(argv=None) -> int:
    try:
        _configure_logging()
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ParseError as exc:
        _emit_error("parse", exc)
        return 1
    except ValidationError as exc:
        _emit_error("validation", exc)
        return 2
    except SolverError as exc:
        _emit_error("solver", exc)
        return 3
    except BudgetError as exc:
        _emit_error("budget", exc)
        return 4
    except InstabilityError as exc:  # pragma: no cover - catch-all
        _emit_error("internal", exc)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())

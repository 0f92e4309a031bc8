"""Command-line front end.

Subcommands cover geometry factors, forward variances, exclusion bounds and
curves, repetition counts, the built-in scenario table, the stochastic
oracle and estimator calibration.  Grids/sweeps are emitted as CSV, single
structured results as JSON.  Exit codes: 0 success, 2 configuration error,
3 numerical failure, which includes an array too large to allocate.

Each ``_cmd_*`` handler returns its result and writes nothing: a dict is
JSON, a ``(rows, header)`` pair CSV.  ``run`` alone writes, through
``_emit``: it renders every output in full, then writes files before
stdout, so a failing command writes nothing to stdout.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import core, dynamics, geometry, inference, oracles
from .scenarios import SCENARIOS

def _fmt(x, digits):
    return f"{x:.{digits}g}" if isinstance(x, float) else str(x)


def _check_finite(obj, key=None):
    """FloatingPointError naming the first NaN or infinity, which JSON lacks."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            _check_finite(v, k)
    elif isinstance(obj, float) and not math.isfinite(obj):
        raise FloatingPointError(f"{key} is {obj!r}, not a finite number")


def render(result) -> str:
    """The whole text of a result: sorted, indented JSON for a dict (NaN
    and infinity refused), CSV for a ``(rows, header)`` pair.

    CSV is RFC-4180 style with LF endings, floats to 9 significant digits,
    so the output is both byte-stable across runs and lossless enough to
    reload for analysis.
    """
    if isinstance(result, dict):
        _check_finite(result)
        return json.dumps(result, indent=2, sort_keys=True) + "\n"
    rows, header = result
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(x, 9) for x in row] for row in rows)
    return text.getvalue()


def _aligned(rows, header, widths=(12, 12, 6, 6, 14, 7, 7)) -> str:
    """table1's text table: padded columns, floats to 3 digits."""
    line = "".join(h.ljust(w) for h, w in zip(header, widths))
    lines = [line, "-" * len(line)] + [
        "".join(_fmt(x, 3).ljust(w) for x, w in zip(row, widths))
        for row in rows]
    return "\n".join(lines) + "\n"


def _parse_grid(text: str, linear: bool) -> np.ndarray:
    try:
        lo, hi, pts = text.split(":")
        lo, hi, pts = float(lo), float(hi), int(pts)
    except ValueError as exc:
        raise core.SpecError(
            f"grid must be min:max:points, got {text!r}"
        ) from exc
    if not (lo < hi and pts >= 2 and math.isfinite(lo) and math.isfinite(hi)):
        raise core.SpecError(
            f"grid requires finite min < max and points >= 2, got {text!r}")
    if linear:
        return np.linspace(lo, hi, pts)
    if lo <= 0:
        raise core.SpecError("log-spaced grid requires positive min")
    return np.geomspace(lo, hi, pts)


def _resolve(args):
    """Spec, mode, working rc and lambda_min from --scenario or --spec,
    overridden by --mode, --rc-m and --lambda-min-hz where given."""
    name, path = args.scenario, args.spec
    if name:
        sc = SCENARIOS[name]
        spec, mode, rc, lambda_min = sc.spec, sc.mode, sc.rc, sc.lambda_min
    elif path:
        spec = core.load_spec(path)
        mode, rc, lambda_min = None, None, None
    else:
        raise core.SpecError("either --scenario or --spec is required")

    mode = getattr(args, "mode", None) or mode or (
        "mzi" if isinstance(spec.geometry, core.MziGeometry)
        else "swi_echo" if spec.protocol.echo else "swi_plain")
    if getattr(args, "rc_m", None) is not None:
        rc = args.rc_m
    if rc is None and hasattr(args, "rc_m"):
        raise core.SpecError(f"{args.command} requires --rc-m (or a scenario)")
    if getattr(args, "lambda_min_hz", None) is not None:
        lambda_min = args.lambda_min_hz

    violations = core.validate(spec)
    if violations:
        raise core.SpecError("; ".join(violations))
    return spec, mode, rc, lambda_min


def _cmd_geometry(args):
    spec, _, _, _ = _resolve(args)
    grid = _parse_grid(args.rc, args.linear)
    if isinstance(spec.geometry, core.MziGeometry):
        overlaps = geometry.overlap_mzi(spec.geometry)
    else:
        overlaps = geometry.overlap_swi(spec.geometry)
    closed = geometry.f_closed(spec.geometry, grid)
    rows = []
    for rc, f_p, f_s in zip(grid, closed.f_p, closed.f_s):
        quad = geometry.f_quadrature(overlaps, rc)
        rows.append((rc, f_p, f_s, quad.f_p, quad.f_s))
    return rows, ["rc_m", "f_p", "f_s", "f_p_quadrature", "f_s_quadrature"]


def _point(args, rc):
    """The CSL point at --lambda-hz and the working rc."""
    if args.lambda_hz is None:
        raise core.SpecError(f"{args.command} requires --lambda-hz")
    return core.CslPoint(lam=args.lambda_hz, rc=rc)


def _cmd_variance(args):
    spec, _, rc, _ = _resolve(args)
    point = _point(args, rc)
    moments = dynamics.phase_variance(spec, point)
    return {
        "sigma_phi_sq": moments.variance,
        "xi_t_sq": spec.state.n_atoms * moments.variance,
        "visibility": dynamics.visibility(spec, point),
        "valid": moments.valid,
    }


def _cmd_bound(args):
    spec, mode, rc, _ = _resolve(args)
    lam = inference.lambda_bound(spec, rc, mode, fp_cap_one=args.fp_cap_one)
    return {"lambda_bound_hz": lam, "rc_m": rc, "mode": mode}


def _cmd_curve(args):
    spec, mode, _, _ = _resolve(args)
    grid = _parse_grid(args.rc, args.linear)
    curve = inference.exclusion_curve(spec, mode, grid,
                                      fp_cap_one=args.fp_cap_one)
    return (list(zip(curve.rc.tolist(), curve.lambda_bound.tolist())),
            ["rc_m", "lambda_bound_hz"])


def _cmd_repetitions(args):
    spec, mode, rc, lambda_min = _resolve(args)
    est = inference.repetitions(spec, rc, mode, lambda_min=lambda_min,
                                delta=args.delta, fp_cap_one=args.fp_cap_one)
    return {
        "fisher_info": est.fisher_info,
        "k": est.k,
        "k_1_5": est.k_inflated,
        "delta": est.delta,
        "lambda_min_hz": est.lambda_min,
        "mode": mode,
        "rc_m": rc,
    }


def _cmd_table1(args):
    rows = [(name, sc.spec.state.n_atoms, sc.spec.state.xi0,
             sc.spec.protocol.t, est.lambda_min, est.k, est.k_inflated)
            for name, sc, est in inference.table1(
                delta=args.delta, fp_cap_one=not args.no_fp_cap)]
    return rows, ["scenario", "N", "xi0", "t_s", "lambda_min_hz", "k",
                  "k_1_5"]


def _cmd_simulate(args):
    spec, _, rc, _ = _resolve(args)
    point = _point(args, rc)
    analytic = dynamics.phase_variance(spec, point).variance
    mc = oracles.sde_sample(spec, point, n_traj=args.n_traj,
                            n_steps=args.n_steps, seed=args.seed)
    return {
        "analytic_variance": analytic,
        "mc_variance": mc.variance,
        "mc_stderr": mc.stderr_variance,
        "z_score": (mc.variance - analytic) / mc.stderr_variance,
        "euler_bias": mc.euler_bias,
    }


def _cmd_calibrate(args):
    spec, mode, rc, lambda_min = _resolve(args)
    if lambda_min is None:
        raise core.SpecError(
            "calibrate requires --lambda-min-hz (or a scenario)")
    core._check_positive("lambda_min", lambda_min)
    k = args.k
    if k is None:
        k = inference.repetitions(spec, rc, mode, lambda_min=lambda_min,
                                  delta=args.delta,
                                  fp_cap_one=args.fp_cap_one).k
    res = inference.calibrate_estimator(
        spec, rc, mode, lambda_true=lambda_min, k=k, seed=args.seed,
        n_meta=args.n_meta, fp_cap_one=args.fp_cap_one)
    return {
        "lambda_hat_mean_hz": res.lambda_hat_mean,
        "lambda_hat_spread_hz": res.lambda_hat_spread,
        "spread_stderr_hz": res.spread_stderr,
        "cr_floor_hz": res.cr_floor,
        "relative_spread": res.lambda_hat_spread / lambda_min,
        "k": res.k,
        "n_meta": res.n_meta,
    }


def _cmd_scenarios(args):
    return {name: {"mode": sc.mode, "rc_m": sc.rc,
                   "lambda_min_hz": sc.lambda_min,
                   "spec": core.spec_to_dict(sc.spec)}
            for name, sc in SCENARIOS.items()}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cslbec",
        description="Collapse-model exclusion bounds from two-mode BEC "
                    "interferometry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--scenario", choices=sorted(SCENARIOS))
        source.add_argument("--spec", help="experiment spec JSON file")
        p.add_argument("--out", help="output file (default: stdout)")

    def add_rc(p):
        p.add_argument("--rc-m", type=float, dest="rc_m")

    def add_point(p):
        p.add_argument("--lambda-hz", type=float, dest="lambda_hz")
        add_rc(p)

    def add_grid(p):
        p.add_argument("--rc", required=True, help="grid as min:max:points")
        p.add_argument("--linear", action="store_true")

    def add_mode(p):
        p.add_argument("--mode", choices=inference.MODES)
        p.add_argument("--fp-cap-one", action="store_true",
                       help="set f_P = 1 (MZI plateau value)")

    def add_delta(p):
        p.add_argument("--delta", type=float, default=0.1)

    def add_lambda_min(p):
        p.add_argument("--lambda-min-hz", type=float, dest="lambda_min_hz")

    def add_seed(p):
        p.add_argument("--seed", type=int, default=42)

    def command(name, func, summary, *adders):
        p = sub.add_parser(name, help=summary)
        for add in adders:
            add(p)
        p.set_defaults(func=func)
        return p

    command("geometry", _cmd_geometry, "geometry factors on an rc grid",
            add_common, add_grid)
    command("variance", _cmd_variance, "forward phase variance at a point",
            add_common, add_point)
    command("bound", _cmd_bound, "exclusion bound lambda(rc)",
            add_common, add_rc, add_mode)
    command("curve", _cmd_curve, "exclusion curve over an rc grid",
            add_common, add_mode, add_grid)
    command("repetitions", _cmd_repetitions,
            "required measurement repetitions",
            add_common, add_rc, add_mode, add_delta, add_lambda_min)
    p = command("table1", _cmd_table1, "repetition counts for all scenarios",
                add_delta)
    p.add_argument("--no-fp-cap", action="store_true",
                   help="use closed-form f_P instead of the plateau cap")
    p.add_argument("--csv", help="also write the table as CSV")
    p = command("simulate", _cmd_simulate, "stochastic oracle vs analytics",
                add_common, add_point, add_seed)
    p.add_argument("--n-traj", type=int, default=10_000)
    p.add_argument("--n-steps", type=int, default=10_000)
    p = command("calibrate", _cmd_calibrate,
                "Monte Carlo estimator calibration",
                add_common, add_rc, add_mode, add_lambda_min, add_seed)
    size = p.add_mutually_exclusive_group()
    size.add_argument("--k", type=int)
    add_delta(size)
    p.add_argument("--n-meta", type=int, default=500)
    p = command("scenarios", _cmd_scenarios, "list built-in scenarios")
    p.add_argument("--out")
    return parser


def _emit(args) -> None:
    """Run the command's handler and write its output: every text is
    rendered before anything is written, and files go before stdout."""
    result = args.func(args)
    if args.command == "table1":
        outputs = [(args.csv, render(result))] if args.csv else []
        outputs.append((None, _aligned(*result)))
    else:
        outputs = [(args.out, render(result))]
    for path, text in outputs:
        if path is None:
            sys.stdout.write(text)
        else:
            with open(path, "w", newline="", encoding="utf-8") as f:
                f.write(text)


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _emit(args)
        return 0
    except (core.SpecError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (geometry.QuadratureError, oracles.PositivityError,
            ArithmeticError, MemoryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

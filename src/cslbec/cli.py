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
import collections
import csv
import io
import json
import math
import sys

from . import core, dynamics, geometry, inference, oracles
from .scenarios import SCENARIOS

# the layers load numpy on first use, so a scalar command never does
np = core._lazy_numpy()


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
    """Spec, working rc and lambda_min from --scenario or --spec,
    overridden by --rc-m and --lambda-min-hz where given."""
    name, path = args.scenario, args.spec
    if name:
        sc = SCENARIOS[name]
        spec, rc, lambda_min = sc.spec, sc.rc, sc.lambda_min
    elif path:
        spec, rc, lambda_min = core.load_spec(path), None, None
    else:
        raise core.SpecError("either --scenario or --spec is required")

    if getattr(args, "rc_m", None) is not None:
        rc = args.rc_m
    if rc is None and hasattr(args, "rc_m"):
        raise core.SpecError(f"{args.command} requires --rc-m (or a scenario)")
    if getattr(args, "lambda_min_hz", None) is not None:
        lambda_min = args.lambda_min_hz
    core._soft_warnings(spec)
    return spec, rc, lambda_min


def _cmd_geometry(args):
    spec, _, _ = _resolve(args)
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
    spec, rc, _ = _resolve(args)
    point = _point(args, rc)
    moments = dynamics.phase_variance(spec, point)
    return {
        "sigma_phi_sq": moments.variance,
        "xi_t_sq": spec.state.n_atoms * moments.variance,
        "visibility": dynamics.visibility(spec, point),
        "valid": moments.valid,
    }


def _cmd_bound(args):
    spec, rc, _ = _resolve(args)
    lam = inference.lambda_bound(spec, rc, spec.mode,
                                 fp_cap_one=args.fp_cap_one)
    return {"lambda_bound_hz": lam, "rc_m": rc, "mode": spec.mode}


def _cmd_curve(args):
    spec, _, _ = _resolve(args)
    grid = _parse_grid(args.rc, args.linear)
    curve = inference.exclusion_curve(spec, spec.mode, grid,
                                      fp_cap_one=args.fp_cap_one)
    return (list(zip(curve.rc.tolist(), curve.lambda_bound.tolist())),
            ["rc_m", "lambda_bound_hz"])


def _cmd_repetitions(args):
    spec, rc, lambda_min = _resolve(args)
    est = inference.repetitions(spec, rc, spec.mode, lambda_min=lambda_min,
                                delta=args.delta, fp_cap_one=args.fp_cap_one)
    return {
        "fisher_info": est.fisher_info,
        "k": est.k,
        "k_1_5": est.k_inflated,
        "delta": est.delta,
        "lambda_min_hz": est.lambda_min,
        "mode": spec.mode,
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
    spec, rc, _ = _resolve(args)
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
    spec, rc, lambda_min = _resolve(args)
    if lambda_min is None:
        raise core.SpecError(
            "calibrate requires --lambda-min-hz (or a scenario)")
    core._check_positive("lambda_min", lambda_min)
    k = args.k
    if k is None:
        # only k sizes the run, so only k may refuse it
        split = inference.variance_split(spec, rc, spec.mode,
                                         fp_cap_one=args.fp_cap_one)
        core._check_positive("delta", args.delta)
        k = inference._repetition_count("k", split.sigma_conv_sq, split,
                                        lambda_min, args.delta)
    res = inference.calibrate_estimator(
        spec, rc, spec.mode, lambda_true=lambda_min, k=k, seed=args.seed,
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


# Each flag once: (flag, the subcommands that take it, its exclusion group,
# argparse keywords, help with the unit, the range and the default).  The
# flags of one subcommand that share a group exclude each other.
_READS_SPEC = "geometry variance bound curve repetitions simulate calibrate"
_OPTIONS = [
    ("--scenario", _READS_SPEC, "source", dict(choices=sorted(SCENARIOS)),
     "built-in scenario (listed by 'cslbec scenarios'); it sets the spec, "
     "the working r_C and lambda_min. One of --scenario and --spec is "
     "required"),
    ("--spec", _READS_SPEC, "source", {},
     "experiment spec JSON file (keys in the README); it sets no working "
     "r_C and no lambda_min"),
    ("--rc", "geometry curve", None, dict(required=True),
     "r_C grid in m as min:max:points, with finite 0 < min < max and "
     "points >= 2; required"),
    ("--linear", "geometry curve", None, dict(action="store_true"),
     "space the --rc grid linearly (default: log-spaced)"),
    ("--lambda-hz", "variance simulate", None, dict(type=float),
     "CSL rate lambda in Hz, referenced to 1 u: finite and >= 0; required"),
    ("--rc-m", "variance bound repetitions simulate calibrate", None,
     dict(type=float),
     "localization length r_C in m: finite and > 0 (default: the "
     "scenario's working r_C; required with --spec)"),
    ("--fp-cap-one", "bound curve repetitions calibrate", None,
     dict(action="store_true"),
     "set f_P = 1, the MZI plateau value, at every r_C, for a single well "
     "too; the swi_echo mode reads no f_P and ignores the flag (default: "
     "the closed-form f_P)"),
    ("--no-fp-cap", "table1", None, dict(action="store_true"),
     "use the closed-form f_P on the MZI rows (default: f_P = 1 there)"),
    ("--lambda-min-hz", "repetitions calibrate", None, dict(type=float),
     "target rate lambda_min in Hz: finite and > 0; calibrate also draws "
     "its counts at this rate (default: the scenario's; with --spec, "
     "repetitions takes the spec's own bound and calibrate needs the "
     "flag)"),
    ("--k", "calibrate", "size", dict(type=int),
     "repetitions per meta-repetition: an int from 100 to about 4e25 "
     "(default: the k that repetitions gives at --delta)"),
    ("--delta", "repetitions table1 calibrate", "size",
     dict(type=float, default=0.1),
     "relative precision of the lambda_min estimate, which sets k: finite "
     "and > 0 (default: %(default)s)"),
    ("--n-traj", "simulate", None, dict(type=int, default=10_000),
     "SDE trajectories: an int >= 1000 (default: %(default)s)"),
    ("--n-steps", "simulate", None, dict(type=int, default=10_000),
     "Euler-Maruyama steps per trajectory: an int >= 1000 "
     "(default: %(default)s)"),
    ("--n-meta", "calibrate", None, dict(type=int, default=500),
     "meta-repetitions, one lambda estimate each: an int >= 2 "
     "(default: %(default)s)"),
    ("--seed", "simulate calibrate", None, dict(type=int, default=42),
     "Monte Carlo seed: an int in [0, 2**64) (default: %(default)s)"),
    ("--out", _READS_SPEC + " scenarios", None, {},
     "write the output to this file (default: stdout); a failing command "
     "creates no file"),
    ("--csv", "table1", None, {},
     "also write the table as CSV to this file, before the table reaches "
     "stdout"),
]

_EXIT_CODES = """
exit codes: 0 success; 2 configuration error (a bad flag, spec file or
value); 3 numerical failure (an overflow, a result that is not a finite
number, or an array too large to allocate)"""

# subcommand: (handler, summary, epilog naming its output and units)
_COMMANDS = {
    "geometry": (_cmd_geometry, "geometry factors f_P, f_S on an r_C grid",
                 """\
output: CSV (9 significant digits), one row per r_C, with columns
  rc_m                  localization length r_C (m)
  f_p, f_s              closed-form geometry factors f_P and f_S
  f_p_quadrature        f_P by quadrature
  f_s_quadrature        f_S by quadrature"""),
    "variance": (_cmd_variance, "forward phase variance at a CSL point",
                 """\
output: JSON object with keys
  sigma_phi_sq          phase variance sigma_phi^2 at (lambda, r_C) (rad^2)
  xi_t_sq               squeezing parameter xi_t^2 = N sigma_phi^2
  visibility            fringe visibility exp(-Gamma_P t/2) exp(-gamma t)
  valid                 true while sigma_phi <= pi/3, where the model
                        holds"""),
    "bound": (_cmd_bound, "exclusion bound lambda(r_C) at one r_C", """\
output: JSON object with keys
  lambda_bound_hz       the largest lambda the observed xi_t allows (Hz)
  rc_m                  localization length r_C (m)
  mode                  inference mode the spec sets: mzi, swi_echo or
                        swi_plain"""),
    "curve": (_cmd_curve, "exclusion curve lambda(r_C) over an r_C grid", """\
output: CSV (9 significant digits), one row per r_C, with columns
  rc_m                  localization length r_C (m)
  lambda_bound_hz       exclusion bound (Hz); nan where bound fails"""),
    "repetitions": (_cmd_repetitions, "repetitions needed to resolve a "
                    "target rate", """\
output: JSON object with keys
  fisher_info           Fisher information of one run at lambda_min (1/Hz^2)
  k                     repetitions that resolve lambda_min to delta
  k_1_5                 k with the conventional variance raised by 50%
  delta                 relative precision
  lambda_min_hz         target rate lambda_min (Hz)
  mode                  inference mode the spec sets: mzi, swi_echo or
                        swi_plain
  rc_m                  localization length r_C (m)"""),
    "table1": (_cmd_table1, "repetition counts for all built-in scenarios",
               """\
output: an aligned text table on stdout, and the same table as CSV with
--csv, one row per scenario, with columns
  scenario              built-in scenario name
  N                     atom number
  xi0                   initial squeezing parameter xi_0
  t_s                   interrogation time (s)
  lambda_min_hz         target rate lambda_min (Hz)
  k                     repetitions that resolve lambda_min to delta
  k_1_5                 k with the conventional variance raised by 50%"""),
    "simulate": (_cmd_simulate, "stochastic oracle against the closed form",
                 """\
output: JSON object with keys
  analytic_variance     closed-form phase variance (rad^2)
  mc_variance           Euler-Maruyama sample variance (rad^2)
  mc_stderr             standard error of mc_variance (rad^2)
  z_score               (mc_variance - analytic_variance) / mc_stderr
  euler_bias            exact Euler-Maruyama error of mc_variance (rad^2)"""),
    "calibrate": (_cmd_calibrate, "Monte Carlo estimator spread vs the "
                  "Cramer-Rao floor", """\
output: JSON object with keys
  lambda_hat_mean_hz    mean of the lambda estimates (Hz)
  lambda_hat_spread_hz  their standard deviation (Hz)
  spread_stderr_hz      standard error of that spread (Hz)
  cr_floor_hz           Cramer-Rao floor on the spread (Hz)
  relative_spread       lambda_hat_spread_hz / lambda_min
  k                     repetitions per meta-repetition
  n_meta                meta-repetitions"""),
    "scenarios": (_cmd_scenarios, "list the built-in scenarios", """\
output: JSON object keyed by scenario name; each entry has keys
  mode                  inference mode its spec sets
  rc_m                  working localization length r_C (m)
  lambda_min_hz         target rate lambda_min (Hz)
  spec                  the full spec, in the spec-file format"""),
}


def _build_parser():
    raw = argparse.RawDescriptionHelpFormatter
    parser = argparse.ArgumentParser(
        prog="cslbec", allow_abbrev=False,
        description="Collapse-model exclusion bounds from two-mode BEC "
                    "interferometry.\n'cslbec COMMAND --help' names a "
                    "command's options, output and units.",
        epilog=_EXIT_CODES, formatter_class=raw)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, summary, epilog) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary, description=summary,
                           epilog=epilog + "\n" + _EXIT_CODES,
                           formatter_class=raw, allow_abbrev=False)
        p.set_defaults(func=func)
        options = [(flag, group, kwargs, text)
                   for flag, commands, group, kwargs, text in _OPTIONS
                   if name in commands.split()]
        shared = collections.Counter(group for _, group, _, _ in options)
        groups = {group: p.add_mutually_exclusive_group()
                  for group, n in shared.items() if group and n > 1}
        for flag, group, kwargs, text in options:
            groups.get(group, p).add_argument(flag, help=text, **kwargs)
    return parser


def _emit(args) -> None:
    """Run the command's handler and write its output: every text is
    rendered before anything is written, and files go before stdout."""
    result = args.func(args)
    if args.command == "table1":
        outputs = [(args.csv, render(result))] if args.csv is not None else []
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, MemoryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

"""The three benchmark workloads: inputs from a seed, operations, gates.

Each workload builds its inputs from the seed and hands out the
operations of one pass.  An operation is timed as a whole; its check
runs afterwards and returns the deterministic observations, which the
harness compares with ``reference.json``, and the problems the physics
gates found.

Program calls go through module attributes (``inference.exclusion_curve``
...), never through names imported into this file, so that the tracer's
wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import select
import subprocess
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SCENARIO_ORDER = ("rb-mzi", "rb-swi", "cs-mzi", "rb-swi-echo")
# Table I of the paper, as pinned by acceptance criterion 1.
PAPER_K = {"rb-mzi": 2086, "rb-swi": 3381, "cs-mzi": 1033,
           "rb-swi-echo": 3065}
PAPER_K15 = {"rb-mzi": 3775, "rb-swi": 6423, "cs-mzi": 1692,
             "rb-swi-echo": 5771}
K_REL = 0.03          # criterion 1
QUAD_REL = 1e-6       # criterion 2, with pytest.approx's 1e-12 floor
QUAD_ABS = 1e-12
OPT_RC_REL = 1e-4     # criterion 2
BOUND_REL = 1e-9      # criterion 6
CONTRAST_ABS = 1e-3   # criterion 5
TRACE_ABS = 1e-9      # criterion 5
GROWTH_REL = 0.05     # criterion 5
JSON_REL = 1e-12      # CLI JSON values against the recorded ones
DICKE_REL = 1e-6      # Dicke phase variance against the recorded one
# Monte Carlo gates sit at 5 sigma.  A 3 sigma gate fails by chance for
# 0.27 % of seeds, so over 44 seeded samples (say 22 runs with 2 checks
# each) one false failure would have a chance of about 11 %.
MC_SIGMA = 5.0
CALL_TIMEOUT_S = 120.0

CLI_LAUNCH = "import sys; from cslbec.cli import main; main()"


def program_env() -> dict:
    """Environment of every program process: this checkout, one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


@dataclass
class Completed:
    """A finished program process, with its own peak resident memory."""

    returncode: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int


def run_process(cmd: list, workdir: Path) -> Completed:
    """Run ``cmd`` to completion and collect its own resource usage.

    The child is reaped with ``wait4`` so that its peak RSS is its own,
    not the maximum over every child so far.  Output goes through files,
    so no pipe can fill while the parent waits.
    """
    out_path, err_path = workdir / "stdout.bin", workdir / "stderr.bin"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, cwd=workdir, env=program_env(),
                                stdout=out, stderr=err)
    pidfd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], CALL_TIMEOUT_S)
        if not ready:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if not ready:
        raise subprocess.TimeoutExpired(cmd, CALL_TIMEOUT_S)
    return Completed(proc.returncode, out_path.read_bytes(),
                     err_path.read_bytes(), usage.ru_maxrss)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Op:
    """One timed operation and the check of its result."""

    key: str        # stable across seeds; indexes reference.json
    kind: str       # groups operations for the workload metrics
    run: object     # run(tracer) -> result; tracer is None when untraced
    check: object   # check(result) -> (observations or None, problems)
    rel: float = 0.0  # tolerance of the observations against the reference
    size: int = 1     # work items (points, calls) for throughput metrics
    measure: object = None  # measure(result) -> {counter: number}, optional


def compare(observed, recorded, rel: float, path: str = "") -> list:
    """Problems where ``observed`` departs from ``recorded``.

    Numbers agree within ``rel`` relatively, everything else exactly.
    Keys the recording lacks are ignored, so outputs may gain fields.
    """
    if isinstance(recorded, dict):
        if not isinstance(observed, dict):
            return [f"{path}: expected an object"]
        out = []
        for k, v in recorded.items():
            if k in observed:
                out.extend(compare(observed[k], v, rel, f"{path}/{k}"))
            else:
                out.append(f"{path}/{k}: missing")
        return out
    if isinstance(recorded, list):
        if not isinstance(observed, list) or len(observed) != len(recorded):
            return [f"{path}: expected a list of {len(recorded)}"]
        out = []
        for i, (a, b) in enumerate(zip(observed, recorded)):
            out.extend(compare(a, b, rel, f"{path}[{i}]"))
        return out
    if (isinstance(recorded, (int, float)) and not isinstance(recorded, bool)
            and isinstance(observed, (int, float))
            and not isinstance(observed, bool)):
        if abs(observed - recorded) <= rel * abs(recorded):
            return []
        return [f"{path}: {observed!r} != {recorded!r} (rel {rel:g})"]
    if observed != recorded:
        return [f"{path}: {observed!r} != {recorded!r}"]
    return []


def _close(a, b, rel, abs_tol=0.0) -> bool:
    return abs(a - b) <= max(rel * abs(b), abs_tol)


def _pass_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}/{index}")


def _z_problems(label, z) -> list:
    if not abs(z) <= MC_SIGMA:
        return [f"{label}: z = {z:.3g} beyond {MC_SIGMA:g} sigma"]
    return []


def _calibration_problems(mean, spread, stderr, cr_floor, lam_true,
                          n_meta) -> list:
    """Spread at the Cramer-Rao floor, mean at the true rate, 5 sigma."""
    problems = _z_problems("calibration spread",
                           (spread - cr_floor) / stderr)
    problems += _z_problems("calibration mean", (mean - lam_true)
                            / (spread / math.sqrt(n_meta)))
    return problems


def _table1_problems(name, k, k15) -> list:
    problems = []
    if not _close(k, PAPER_K[name], K_REL):
        problems.append(f"{name}: k = {k} vs Table I {PAPER_K[name]}")
    if not _close(k15, PAPER_K15[name], K_REL):
        problems.append(f"{name}: k_1.5 = {k15} vs Table I "
                        f"{PAPER_K15[name]}")
    return problems


# --- cli-session ------------------------------------------------------------

class CliSession:
    """Cold ``cslbec`` processes, one after another, in a seeded order."""

    name = "cli-session"
    in_process = False

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        from cslbec import core
        from cslbec.scenarios import SCENARIOS

        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.rc_swi = SCENARIOS["rb-swi"].rc
        self.lambda_min = {n: sc.lambda_min for n, sc in SCENARIOS.items()}
        self.files = {"{table1.csv}": workdir / "table1.csv"}
        for name in ("rb-mzi", "rb-swi", "rb-swi-echo"):
            path = workdir / f"spec-{name}.json"
            with open(path, "w", encoding="utf-8") as f:
                json.dump(core.spec_to_dict(SCENARIOS[name].spec), f)
            self.files[f"{{spec:{name}}}"] = path

    def _calls(self, rng: random.Random) -> list:
        """(argv, check kind, scenario) of one pass.

        Braced arguments are placeholders for files in the work directory,
        so that the reference keys do not depend on where it lives.
        """
        sim = ["simulate", "--scenario", "rb-swi", "--lambda-hz", "1e-10",
               "--n-traj", "2000", "--n-steps", "1000",
               "--seed", str(rng.randrange(2 ** 31))]
        echo_curve = ["curve", "--spec", "{spec:rb-swi-echo}",
                      "--rc", "1e-8:1e-5:100"]
        if self.smoke:
            return [(["scenarios"], "json", None),
                    (["bound", "--scenario", "rb-mzi", "--fp-cap-one"],
                     "json", None),
                    (echo_curve, "csv", None),
                    (sim, "simulate", None)]
        calls = [(["scenarios"], "json", None),
                 (["table1", "--csv", "{table1.csv}"], "table1", None)]
        for name in SCENARIO_ORDER:
            cap = ["--fp-cap-one"] if name.endswith("mzi") else []
            calls.append((["bound", "--scenario", name] + cap, "json", None))
            calls.append((["repetitions", "--scenario", name] + cap,
                          "repetitions", name))
        calls += [
            (["variance", "--scenario", "rb-swi", "--lambda-hz", "1e-10"],
             "json", None),
            (["curve", "--scenario", "rb-swi-echo",
              "--rc", "1e-9:1e-3:200"], "csv", None),
            (["geometry", "--scenario", "rb-swi", "--rc", "1e-9:1e-3:50"],
             "csv", None),
            (["geometry", "--scenario", "rb-mzi", "--rc", "1e-9:1e-3:50"],
             "csv", None),
            (["calibrate", "--scenario", "rb-mzi", "--fp-cap-one",
              "--n-meta", "500", "--seed", str(rng.randrange(2 ** 31))],
             "calibrate", "rb-mzi"),
            (sim, "simulate", None),
            (["bound", "--spec", "{spec:rb-mzi}", "--rc-m", "1e-6",
              "--fp-cap-one"], "json", None),
            (["repetitions", "--spec", "{spec:rb-swi}",
              "--rc-m", repr(self.rc_swi), "--lambda-min-hz", "1e-10"],
             "json", None),
            (echo_curve, "csv", None),
        ]
        return calls

    def pass_ops(self, index: int) -> list:
        rng = _pass_rng(self.seed, index)
        calls = self._calls(rng)
        rng.shuffle(calls)
        ops = []
        for argv, kind, scenario in calls:
            seeded = kind in ("simulate", "calibrate")
            ops.append(Op(key=" ".join(argv[:-2] if seeded else argv),
                          kind=kind, run=self._runner(argv, kind),
                          check=self._checker(kind, scenario),
                          rel=JSON_REL, measure=self._measure))
        return ops

    def _runner(self, argv, kind):
        args = [str(self.files.get(a, a)) for a in argv]
        table_csv = self.files["{table1.csv}"]
        spans = self.workdir / "spans.json"

        def run(tracer):
            table_csv.unlink(missing_ok=True)
            if tracer is None:
                cmd = [sys.executable, "-c", CLI_LAUNCH] + args
            else:
                spans.unlink(missing_ok=True)
                cmd = [sys.executable, str(BENCH / "bootstrap.py"),
                       str(spans)] + args
            proc = run_process(cmd, self.workdir)
            if tracer is not None and spans.exists():
                with open(spans, encoding="utf-8") as f:
                    tracer.absorb(json.load(f), " ".join(argv))
            csv = table_csv.read_bytes() if kind == "table1" else b""
            return proc, csv

        return run

    def _checker(self, kind, scenario):
        def check(result):
            proc, csv = result
            if proc.returncode != 0:
                tail = proc.stderr.decode(errors="replace").strip()[-300:]
                return None, [f"exit {proc.returncode}: {tail}"]
            if kind == "csv":
                return {"sha256": sha256(proc.stdout)}, []
            if kind == "table1":
                return {"stdout_sha256": sha256(proc.stdout),
                        "csv_sha256": sha256(csv)}, []
            out = json.loads(proc.stdout)
            if kind == "repetitions":
                return out, _table1_problems(scenario, out["k"],
                                             out["k_1_5"])
            if kind == "simulate":
                return None, _z_problems("simulate", out["z_score"])
            if kind == "calibrate":
                return None, _calibration_problems(
                    out["lambda_hat_mean_hz"], out["lambda_hat_spread_hz"],
                    out["spread_stderr_hz"], out["cr_floor_hz"],
                    self.lambda_min[scenario], out["n_meta"])
            return out, []

        return check

    @staticmethod
    def _measure(result) -> dict:
        proc, csv = result
        return {"emit_bytes": len(proc.stdout) + len(csv),
                "maxrss_kb": proc.maxrss_kb}


# --- design-sweep -----------------------------------------------------------

class DesignSweep:
    """Warm in-process design sweeps: curves, quadrature, k, calibration."""

    name = "design-sweep"
    in_process = True

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        import numpy as np
        from cslbec import core
        from cslbec.scenarios import SCENARIOS

        self.seed = seed
        self.scenarios = SCENARIOS
        self.curve_grid = np.geomspace(1e-9, 1e-3,
                                       1_000 if smoke else 100_000)
        self.quad_grid = np.geomspace(1e-9, 1e-3, 5 if smoke else 50)
        # the two geometries of acceptance criterion 2
        self.quad_geometries = (
            ("mzi", core.MziGeometry(delta_x=10e-6, w_x=100e-9)),
            ("swi", core.SwiGeometry(x0=0.5e-6)),
        )
        points = 9 if smoke else 257
        self.lambda_grids = {}
        for name in SCENARIO_ORDER:
            lam = SCENARIOS[name].lambda_min
            grid = np.geomspace(lam / 10.0, lam * 10.0, points).tolist()
            grid[points // 2] = lam
            self.lambda_grids[name] = grid
        self.n_meta = 200 if smoke else 2000

    def pass_ops(self, index: int) -> list:
        rng = _pass_rng(self.seed, index)
        ops = []
        for name in SCENARIO_ORDER:
            for cap in (False, True):
                ops.append(self._curve_op(name, cap))
        for label, geom in self.quad_geometries:
            ops.append(self._quad_op(label, geom))
        # one operation for all k grids: with 15 operations per pass the
        # pooled median falls inside one kind, not between two
        ops.append(self._repetitions_op())
        for name in SCENARIO_ORDER:
            ops.append(self._calibrate_op(name, rng.randrange(2 ** 31)))
        return ops

    def _curve_op(self, name, cap):
        from cslbec import inference
        import numpy as np

        sc = self.scenarios[name]
        grid = self.curve_grid

        def run(tracer):
            return inference.exclusion_curve(sc.spec, sc.mode, grid,
                                             fp_cap_one=cap)

        def check(curve):
            lam = curve.lambda_bound
            finite = lam[np.isfinite(lam)]
            obs = {"bounded": int(finite.size),
                   "min": float(finite.min()),
                   "mean_log10": float(np.mean(np.log10(finite)))}
            problems = []
            # criterion 6: the curve minimum sits in the target decade
            if not sc.lambda_min / 3.0 < obs["min"] < 3.0 * sc.lambda_min:
                problems.append(f"{name}: curve minimum {obs['min']:.3g} "
                                f"outside the decade of {sc.lambda_min:g}")
            return obs, problems

        cap_label = " fp-cap-one" if cap else ""
        return Op(key=f"curve {name}{cap_label} {grid.size}", kind="curve",
                  run=run, check=check, rel=BOUND_REL, size=grid.size)

    def _quad_op(self, label, geom):
        from cslbec import geometry

        grid = self.quad_grid

        def run(tracer):
            make = (geometry.overlap_mzi if label == "mzi"
                    else geometry.overlap_swi)
            overlaps = make(geom)
            quads = [geometry.f_quadrature(overlaps, rc) for rc in grid]
            rc_star = geometry.optimal_rc(geom) if label == "swi" else None
            return quads, rc_star

        def check(result):
            quads, rc_star = result
            problems = []
            for rc, quad in zip(grid, quads):
                closed = geometry.f_closed(geom, rc)
                if not _close(quad.f_p, closed.f_p, QUAD_REL, QUAD_ABS):
                    problems.append(f"{label} f_p at rc={rc:g}")
                if closed.f_s > 0.0 and not _close(quad.f_s, closed.f_s,
                                                   QUAD_REL, QUAD_ABS):
                    problems.append(f"{label} f_s at rc={rc:g}")
            if rc_star is not None and not _close(
                    rc_star, math.sqrt(2.0 / 3.0) * geom.x0, OPT_RC_REL):
                problems.append(f"optimal rc {rc_star:g}")
            return None, problems

        return Op(key=f"quadrature {label} {grid.size}", kind="quadrature",
                  run=run, check=check, size=grid.size)

    def _repetitions_op(self):
        from cslbec import inference

        grids = self.lambda_grids

        def run(tracer):
            out = {}
            for name in SCENARIO_ORDER:
                sc = self.scenarios[name]
                cap = sc.mode == "mzi"  # Table I's f_P = 1 plateau for MZI
                out[name] = [inference.repetitions(
                    sc.spec, sc.rc, sc.mode, lambda_min=lam, delta=0.1,
                    fp_cap_one=cap) for lam in grids[name]]
            return out

        def check(estimates):
            problems = []
            for name, row in estimates.items():
                middle = row[len(row) // 2]
                problems += _table1_problems(name, middle.k,
                                             middle.k_inflated)
            return ({name: [e.k for e in row]
                     for name, row in estimates.items()}, problems)

        size = sum(len(g) for g in grids.values())
        return Op(key=f"repetitions {size}", kind="repetitions", run=run,
                  check=check, rel=K_REL, size=size)

    def _calibrate_op(self, name, seed):
        from cslbec import inference

        sc = self.scenarios[name]
        cap = sc.mode == "mzi"
        n_meta = self.n_meta

        def run(tracer):
            return inference.calibrate_estimator(
                sc.spec, sc.rc, sc.mode, lambda_true=sc.lambda_min,
                k=PAPER_K[name], seed=seed, n_meta=n_meta, fp_cap_one=cap)

        def check(res):
            return None, _calibration_problems(
                res.lambda_hat_mean, res.lambda_hat_spread,
                res.spread_stderr, res.cr_floor, sc.lambda_min, n_meta)

        return Op(key=f"calibrate {name} {n_meta}", kind="calibrate",
                  run=run, check=check)


# --- oracle-check -----------------------------------------------------------

class OracleCheck:
    """Warm in-process oracle certification: SDE sampler and Dicke ME."""

    name = "oracle-check"
    in_process = True

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        from cslbec import core
        from cslbec.scenarios import SCENARIOS

        self.seed = seed
        sc = SCENARIOS["rb-swi"]
        self.sde_spec = sc.spec
        self.sde_point = core.CslPoint(lam=1e-10, rc=sc.rc)
        self.n_traj = 2_000 if smoke else 50_000
        self.n_steps = 1_000 if smoke else 2_000
        self.deph_n = 10 if smoke else 40
        self.deph_steps = 200 if smoke else 1_000
        # eps/hbar * t / n_steps = 0.5, the documented step limit
        self.diff_n = 40 if smoke else 100

    def pass_ops(self, index: int) -> list:
        rng = _pass_rng(self.seed, index)
        return [self._sde_op(rng.randrange(2 ** 31)),
                self._dephasing_op(),
                self._diffusion_op()]

    def _sde_op(self, seed):
        from cslbec import dynamics, oracles

        spec, point = self.sde_spec, self.sde_point
        n_traj, n_steps = self.n_traj, self.n_steps

        def run(tracer):
            with warnings.catch_warnings():
                # the working point trips the dispersion-step advisory
                warnings.simplefilter("ignore", UserWarning)
                mc = oracles.sde_sample(spec, point, n_traj=n_traj,
                                        n_steps=n_steps, seed=seed)
            return mc, dynamics.phase_variance(spec, point).variance

        def check(result):
            mc, closed = result
            return None, _z_problems(
                "sde", (mc.variance - closed) / mc.stderr_variance)

        return Op(key=f"sde {n_traj}x{n_steps}", kind="sde", run=run,
                  check=check, size=n_traj * n_steps)

    def _dephasing_op(self):
        from cslbec import dynamics, oracles
        import numpy as np

        n, steps = self.deph_n, self.deph_steps

        def run(tracer):
            initial = oracles.coherent_spin_state(n)
            state = oracles.dicke_evolve(
                n, dynamics.Rates(gamma_p=0.2, gamma_s=0.0), zeta=0.0,
                epsilon_over_hbar=0.0, initial=initial, t=1.0,
                n_steps=steps)
            return state, oracles.dicke_phase_variance(state)

        def check(result):
            state, moments = result
            jx, jy, _ = oracles.spin_operators(n)
            contrast = abs(np.trace((jx + 1j * jy) @ state.rho)) / (n / 2.0)
            problems = []
            if abs(contrast - math.exp(-0.1)) > CONTRAST_ABS:
                problems.append(f"contrast {contrast:.6f}")
            if abs(np.trace(state.rho) - 1.0) > TRACE_ABS:
                problems.append("trace drift")
            return {"phase_variance": moments.variance}, problems

        return Op(key=f"dicke dephasing {n}x{steps}", kind="dicke-dephasing",
                  run=run, check=check, rel=DICKE_REL, size=steps)

    def _diffusion_op(self):
        from cslbec import dynamics, oracles
        import numpy as np

        n, gamma_s = self.diff_n, 1e-3

        def run(tracer):
            initial = oracles.coherent_spin_state(n)
            state = oracles.dicke_evolve(
                n, dynamics.Rates(gamma_p=0.0, gamma_s=gamma_s), zeta=0.0,
                epsilon_over_hbar=100.0, initial=initial, t=1.0,
                n_steps=200)
            return initial, state

        def check(result):
            initial, state = result
            _, _, jz = oracles.spin_operators(n)

            def var_n(rho):
                return 4.0 * np.real(np.trace(jz @ jz @ rho)
                                     - np.trace(jz @ rho) ** 2)

            growth = var_n(state.rho) - var_n(initial.rho)
            problems = []
            if not _close(growth, n ** 2 * gamma_s / 2.0, GROWTH_REL):
                problems.append(f"diffusion growth {growth:.6g}")
            if abs(np.trace(state.rho) - 1.0) > TRACE_ABS:
                problems.append("trace drift")
            return None, problems

        return Op(key=f"dicke diffusion {n}x200", kind="dicke-diffusion",
                  run=run, check=check, size=200)


WORKLOADS = {w.name: w for w in (CliSession, DesignSweep, OracleCheck)}

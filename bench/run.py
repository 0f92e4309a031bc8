"""cslbec benchmark harness.

Run one workload and print every metric, then the result as one JSON line:

    python3 bench/run.py --workload design-sweep --seed 1 --seconds 36 \
        --trace 0 [--out results.json]

Other modes:

    python3 bench/run.py --smoke              # every workload, minimal size
    python3 bench/run.py --compare OLD NEW    # deltas between result files
    python3 bench/run.py --record             # rewrite reference.json

The harness imports the package from ``src/`` of the checkout it lives in
and refuses to run without it.  See bench/README.md for the workloads,
the metrics and how the trace is taken.
"""

import os

# Single-threaded baseline for this process and every program process;
# set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (imports cslbec only when a workload is built)
from tracer import LAYERS, Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
WORK = ROOT / ".bench_work"

SETUP_PROBES = 3
IMPORTTIME_PROBES = 3
# self time of these layers should dominate the traced pass
TARGET_LAYERS = {
    "cli-session": ("import",),
    "design-sweep": ("inference", "geometry", "dynamics"),
    "oracle-check": ("oracles",),
}
# per-layer function metrics: <module>.<function>.calls and .self_s
LAYER_FUNCTIONS = (
    "cli.run", "core.load_spec", "core.validate",
    "geometry.f_closed", "geometry.optimal_rc", "geometry.f_quadrature",
    "dynamics.rates", "dynamics.phase_variance",
    "dynamics.count_distribution",
    "inference.variance_split", "inference.lambda_bound",
    "inference.repetitions", "inference.calibrate_estimator",
    "inference.exclusion_curve",
    "oracles.sde_sample", "oracles.dicke_evolve",
    "oracles.dicke_phase_variance",
)


# --- environment --------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((SRC / "cslbec").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import importlib.metadata
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "threads": {v: os.environ[v] for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# --- probes in fresh processes ----------------------------------------------

def setup_probe(workload: str, seed: int) -> None:
    """Fresh-process body of one set-up: import, then build the inputs."""
    import cslbec  # noqa: F401

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        workloads.WORKLOADS[workload](seed, False, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(workload: str, seed: int, probes: int) -> list:
    """Wall times of fresh ``import cslbec`` plus input generation."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=workloads.program_env(), check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def measure_importtime(probes: int) -> dict:
    """Cumulative import times from ``python -X importtime``, in s."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import cslbec.cli"]
    samples = {"cslbec.import_s": [], "geometry.import_s": [],
               "numpy.import_s": []}
    for _ in range(probes):
        proc = subprocess.run(cmd, env=workloads.program_env(), capture_output=True,
                              text=True, check=True, timeout=120)
        rows = []
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if not cumulative.strip().isdigit():
                continue
            depth = len(name) - len(name.lstrip())
            rows.append((depth, name.strip(), int(cumulative) * 1e-6))
        top = min(d for d, _, _ in rows)
        samples["cslbec.import_s"].append(sum(
            c for d, n, c in rows
            if d == top and (n == "cslbec" or n.startswith("cslbec."))))
        cum = {n: c for _, n, c in rows}
        samples["geometry.import_s"].append(cum.get("cslbec.geometry", 0.0))
        samples["numpy.import_s"].append(cum.get("numpy", 0.0))
    return {k: (statistics.median(v), len(v)) for k, v in samples.items()}


# --- passes -------------------------------------------------------------------

def run_op(op, tracer, reference: dict, index: int) -> dict:
    """Time one operation, then check it; failures keep their time."""
    if tracer is not None:
        tracer.op = f"{index}:{op.key}"
    t0 = time.perf_counter()
    try:
        result = op.run(tracer)
    except Exception as exc:  # a failed operation is counted, not fatal
        seconds = time.perf_counter() - t0
        return {"key": op.key, "kind": op.kind, "seconds": seconds,
                "size": op.size, "ok": False,
                "problems": [f"{type(exc).__name__}: {exc}"]}
    seconds = time.perf_counter() - t0
    record = {"key": op.key, "kind": op.kind, "seconds": seconds,
              "size": op.size}
    try:
        observed, problems = op.check(result)
        if observed is not None:
            if op.key in reference:
                problems = problems + workloads.compare(
                    observed, reference[op.key], op.rel, op.key)
            else:
                problems = problems + [f"no reference for {op.key!r}"]
        if op.measure is not None:
            record.update(op.measure(result))
    except Exception as exc:  # a check that cannot run is a failure
        problems = [f"check {type(exc).__name__}: {exc}"]
        observed = None
    record["ok"] = not problems
    record["problems"] = problems
    record["observed"] = observed
    return record


def run_passes(workload, budget_s: float, tracer, first: int,
               reference: dict) -> list:
    """Whole passes until the next one would end after ``budget_s``."""
    passes = []
    start = time.perf_counter()
    index = first
    while True:
        ops = workload.pass_ops(index)
        t0 = time.perf_counter()
        records = [run_op(op, tracer, reference, index) for op in ops]
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.region(wall)
        passes.append({"index": index, "wall": wall, "ops": records})
        index += 1
        typical = statistics.median(p["wall"] for p in passes)
        if time.perf_counter() - start + typical > budget_s:
            return passes


def _warm_up(name: str, seed: int, workdir: Path) -> None:
    """One minimal pass, untimed, so lazy set-up is done before timing."""
    warm = workloads.WORKLOADS[name](seed, True, workdir)
    for op in warm.pass_ops(0):
        op.run(None)


# --- metrics ------------------------------------------------------------------

def _metric(value, unit, better, n):
    return {"value": value, "unit": unit, "better": better, "n": n}


def _tail(samples: list):
    """Highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None, None
    ordered = sorted(samples)
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end_metrics(name, passes, setup_times, peak_rss_mb,
                       rss_samples) -> dict:
    ops = [r for p in passes for r in p["ops"]]
    walls = [p["wall"] for p in passes]
    seconds = [r["seconds"] for r in ops]
    failed = sum(1 for r in ops if not r["ok"])
    m = {
        "setup_s": _metric(statistics.median(setup_times), "s", "lower",
                           len(setup_times)),
        "pass_s": _metric(statistics.median(walls), "s", "lower",
                          len(walls)),
        "op_p50_s": _metric(statistics.median(seconds), "s", "lower",
                            len(seconds)),
        "peak_rss_mb": _metric(peak_rss_mb, "MB", "lower", rss_samples),
        "fail_rate": _metric(failed / len(ops), "ratio", "lower", len(ops)),
    }

    def by_kind(*kinds):
        return [r for r in ops if r["kind"] in kinds]

    def rate(records):
        return _metric(sum(r["size"] for r in records)
                       / sum(r["seconds"] for r in records),
                       "1/s", "higher", len(records))

    if name == "cli-session":
        m["cli_call_p50_s"] = _metric(statistics.median(seconds), "s",
                                      "lower", len(seconds))
        value, pct = _tail(seconds)
        if value is not None:
            m["cli_call_tail_s"] = _metric(value, "s", "lower", len(seconds))
            m["cli_call_tail_s"]["percentile"] = pct
    elif name == "design-sweep":
        m["sweep_s"] = _metric(statistics.median(walls), "s", "lower",
                               len(walls))
        m["curve_points_per_s"] = rate(by_kind("curve"))
        m["quad_points_per_s"] = rate(by_kind("quadrature"))
    elif name == "oracle-check":
        for metric, kind in (("sde_check_s", "sde"),
                             ("dicke_check_s", "dicke-diffusion")):
            times = [r["seconds"] for r in by_kind(kind)]
            m[metric] = _metric(statistics.median(times), "s", "lower",
                                len(times))
    return m


def per_layer_metrics(name, tracer, untraced, traced, importtime) -> dict:
    n = len(traced)
    stats = tracer.stats
    counts = tracer.counts
    m = {}
    for key, (value, probes) in importtime.items():
        m[key] = _metric(value, "s", "lower", probes)

    def calls_self(prefix, stat):
        calls, _, self_s = stats.get(stat, (0, 0.0, 0.0))
        m[f"{prefix}.calls"] = _metric(calls / n, "count", "lower", n)
        m[f"{prefix}.self_s"] = _metric(self_s / n, "s", "lower", n)

    calls_self("import", "import")
    for fn in LAYER_FUNCTIONS:
        calls_self(fn, fn)
    for layer in LAYERS:
        total = sum(v[2] for k, v in stats.items()
                    if k.startswith(layer + "."))
        m[f"{layer}.self_s"] = _metric(total / n, "s", "lower", n)
    m["harness.self_s"] = _metric(stats["harness"][2] / n, "s", "lower", n)

    emitted = sum(r.get("emit_bytes", 0) for p in traced for r in p["ops"])
    m["cli.emit_bytes"] = _metric(emitted / n, "byte", "lower", n)

    points = counts.get("inference.exclusion_curve.points", 0)
    bounded = counts.get("inference.exclusion_curve.bounded", 0)
    m["inference.exclusion_curve.points"] = _metric(
        points / n, "count", "higher", n)
    m["inference.exclusion_curve.bounded_ratio"] = _metric(
        bounded / points if points else 0.0, "ratio", "higher", n)
    m["oracles.sde_sample.normals"] = _metric(
        counts.get("oracles.sde_sample.normals", 0) / n, "count", "lower", n)
    sde_self = stats.get("oracles.sde_sample", (0, 0.0, 0.0))[2]
    steps = counts.get("oracles.sde_sample.traj_steps", 0)
    m["oracles.sde_sample.traj_steps_per_s"] = _metric(
        steps / sde_self if sde_self else 0.0, "1/s", "higher", n)
    for key, unit in (("rk4_steps", "count"), ("flops", "flop"),
                      ("bytes", "byte")):
        m[f"oracles.dicke_evolve.{key}"] = _metric(
            counts.get(f"oracles.dicke_evolve.{key}", 0) / n, unit,
            "lower", n)

    traced_wall = sum(p["wall"] for p in traced)
    accounted = sum(v[2] for v in stats.values())
    target = sum(v[2] for k, v in stats.items()
                 if k.split(".")[0] in TARGET_LAYERS[name])
    m["trace.overhead_ratio"] = _metric(
        statistics.median(p["wall"] for p in traced)
        / statistics.median(p["wall"] for p in untraced),
        "ratio", "lower", n)
    m["trace.accounted_share"] = _metric(accounted / traced_wall, "ratio",
                                         "higher", n)
    m["trace.target_share"] = _metric(target / traced_wall, "ratio",
                                      "higher", n)
    return m


# --- one workload -----------------------------------------------------------

def _remove_if_empty(path: Path) -> None:
    try:
        path.rmdir()
    except OSError:  # absent, or still in use by another run
        pass


def _load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as f:
        return json.load(f)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    setup_probes = 1 if smoke else SETUP_PROBES
    importtime_probes = 1 if smoke else IMPORTTIME_PROBES
    reference = _load_reference().get(name, {})
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        setup_times = importtime = None
        if trace:
            importtime = measure_importtime(importtime_probes)
        else:
            setup_times = measure_setup(name, seed, setup_probes)
        workload = workloads.WORKLOADS[name](seed, smoke, workdir)
        if workload.in_process:
            _warm_up(name, seed, workdir)
        untraced_s = seconds / 2.0 if trace else seconds
        passes = run_passes(workload, untraced_s, None, 0, reference)
        traced = []
        if trace:
            tr = Tracer()
            if workload.in_process:
                tr.install()
            try:
                traced = run_passes(workload, seconds - untraced_s, tr,
                                    len(passes), reference)
            finally:
                tr.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _remove_if_empty(WORK)

    everything = passes + traced
    ops = [r for p in everything for r in p["ops"]]
    failed = [r for r in ops if not r["ok"]]
    result = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "smoke": smoke,
        "correct": not failed, "attempted": len(ops), "failed": len(failed),
        "environment": environment(),
        "failures": [{"key": r["key"], "problems": r["problems"]}
                     for r in failed],
        "passes": [{"index": p["index"], "wall": p["wall"],
                    "ops": [{k: v for k, v in r.items() if k != "observed"}
                            for r in p["ops"]]}
                   for p in everything],
    }
    if trace:
        result["metrics"] = per_layer_metrics(name, tr, passes, traced,
                                              importtime)
        result["spans"] = [list(s) for s in tr.spans]
    else:
        calls_kb = [r["maxrss_kb"] for p in passes for r in p["ops"]
                    if "maxrss_kb" in r]
        if calls_kb:
            # the typical cold call: the largest one's peak varies by
            # several MB from run to run with the kernel's page handling
            peak_kb = statistics.median(calls_kb)
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["metrics"] = end_to_end_metrics(
            name, passes, setup_times, peak_kb / 1024.0, max(len(calls_kb), 1))
    return result


# --- output -------------------------------------------------------------------

def print_summary(result: dict) -> None:
    status = "correct" if result["correct"] else "INCORRECT"
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  {status}: {result['failed']} failed "
          f"of {result['attempted']} operations")
    env = result["environment"]
    print(f"  {env['cpu_model']}, nproc {env['nproc']}, python "
          f"{env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"{env['blas']}, commit {env['git_commit']}")
    for name, m in result["metrics"].items():
        extra = f"  p{m['percentile']:.1f}" if "percentile" in m else ""
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']:6s} "
              f"n={m['n']}{extra}")
    for failure in result["failures"]:
        print(f"  FAILED {failure['key']}: {'; '.join(failure['problems'])}")


def result_line(result: dict) -> str:
    """Last stdout line: the metrics BENCHMARK.json names, no others."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    names = spec["per_layer"] if result["trace"] else spec["end_to_end"]
    metrics = {}
    for entry in names:
        m = result["metrics"][entry["name"]]
        metrics[entry["name"]] = {"value": m["value"], "unit": m["unit"]}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def write_result(result: dict, path: Path) -> None:
    """Merge the result into ``path`` under ``<workload>/trace<0|1>``."""
    data = {"runs": {}}
    if path.exists():
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    data["runs"][f"{result['workload']}/trace{result['trace']}"] = result
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=1)


def compare_results(old_path: Path, new_path: Path) -> int:
    with open(old_path, encoding="utf-8") as f:
        old = json.load(f)["runs"]
    with open(new_path, encoding="utf-8") as f:
        new = json.load(f)["runs"]
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        bounds = {e["name"]: e["bound"]
                  for e in json.load(f)["end_to_end"]}
    for run in sorted(set(old) | set(new)):
        if run not in old or run not in new:
            print(f"{run}: only in {'new' if run in new else 'old'}")
            continue
        print(f"{run}: seed {old[run]['seed']} -> {new[run]['seed']}, "
              f"failed {old[run]['failed']} -> {new[run]['failed']}")
        om, nm = old[run]["metrics"], new[run]["metrics"]
        for metric in sorted(set(om) | set(nm)):
            if metric not in om or metric not in nm:
                print(f"  {metric:42s} only in "
                      f"{'new' if metric in nm else 'old'}")
                continue
            a, b = om[metric]["value"], nm[metric]["value"]
            delta = (b - a) / abs(a) if a else math.inf if b else 0.0
            worse = delta > 0 if nm[metric]["better"] == "lower" else delta < 0
            verdict = ""
            if metric in bounds and worse:
                verdict = ("  WORSE beyond bound" if abs(delta) > bounds[metric]
                           else "  worse within bound")
            print(f"  {metric:42s} {a:>12.6g} -> {b:>12.6g} "
                  f"{nm[metric]['unit']:6s} {delta:+8.1%}{verdict}")
    return 0


# --- record and smoke -------------------------------------------------------

def record_reference() -> int:
    """Record the deterministic outputs of pass 0, full and smoke size."""
    WORK.mkdir(exist_ok=True)
    reference = {}
    for name, cls in workloads.WORKLOADS.items():
        observed = {}
        for smoke in (False, True):
            workdir = Path(tempfile.mkdtemp(dir=WORK))
            try:
                for op in cls(0, smoke, workdir).pass_ops(0):
                    rec = run_op(op, None, {}, 0)
                    problems = [p for p in rec["problems"]
                                if not p.startswith("no reference")]
                    if problems:
                        print(f"{op.key}: {problems}", file=sys.stderr)
                        return 1
                    if rec["observed"] is not None:
                        observed[op.key] = rec["observed"]
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
        reference[name] = dict(sorted(observed.items()))
    with open(REFERENCE, "w", encoding="utf-8") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def smoke(seed: int) -> int:
    ok = True
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result = run_workload(name, seed, 0.0, trace, smoke=True)
            print_summary(result)
            print(result_line(result))
            ok = ok and result["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="merge the full result into this JSON file")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("OLD", "NEW"))
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return compare_results(*args.compare)
    if not (SRC / "cslbec" / "__init__.py").is_file():
        print(f"error: no cslbec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.record:
        return record_reference()
    if args.smoke:
        return smoke(args.seed)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print_summary(result)
    if args.out:
        write_result(result, args.out)
    print(result_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

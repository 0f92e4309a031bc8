"""In-memory span tracer for the cslbec benchmark.

The tracer replaces every binding of the public functions of the cslbec
modules with a timing wrapper: the module attribute itself, and every
name another module imported from it (``inference.f_closed``,
``oracles.rates``, the package re-exports ...).  Nested calls therefore
nest, and a function's self time is its duration minus the time of the
traced calls it made.  Time spent outside any traced call is the
harness's own, charged to the root frame ``harness``.

Functions called about 1e5 times per pass (``AGGREGATED``) only update
their call count and summed times; every other call also stores a span
``(id, parent, op, name, start, end)``.  Spans stay in memory and are
written out with the result.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "core", "geometry", "dynamics", "inference", "oracles")

AGGREGATED = frozenset({
    "geometry.f_closed",
    "inference.lambda_bound",
    "inference.variance_split",
})


def _public_functions(module):
    """Functions defined in ``module`` under a public name."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out[name] = obj
    return out


def _sde_counts(args, kwargs, result, originals):
    bound = originals["sde_signature"].bind(*args, **kwargs)
    spec, point = bound.arguments["spec"], bound.arguments["point"]
    n_traj, n_steps = bound.arguments["n_traj"], bound.arguments["n_steps"]
    r = originals["rates"](point, spec.species, spec.geometry)
    channels = int(r.gamma_p > 0.0) + int(r.gamma_s > 0.0)
    return {
        # initial (phi, n) draws plus one draw per active channel and step
        "normals": n_traj * (2 + channels * n_steps),
        "traj_steps": n_traj * n_steps,
    }


def _dicke_counts(args, kwargs, result, originals):
    bound = originals["dicke_signature"].bind(*args, **kwargs)
    n_steps = bound.arguments["n_steps"]
    dim = bound.arguments["n_atoms"] + 1
    # each RK4 stage does 5 dense complex matmuls, only when Gamma_S > 0
    matmuls = 4 * 5 * n_steps if bound.arguments["r"].gamma_s > 0.0 else 0
    return {
        "rk4_steps": n_steps,
        "flops": matmuls * 8 * dim ** 3,
        "bytes": matmuls * 3 * 16 * dim ** 2,
    }


def _curve_counts(args, kwargs, result, originals):
    lam = result.lambda_bound
    numpy = sys.modules["numpy"]
    return {
        "points": int(lam.size),
        "bounded": int(numpy.count_nonzero(numpy.isfinite(lam))),
    }


_COUNTERS = {
    "oracles.sde_sample": _sde_counts,
    "oracles.dicke_evolve": _dicke_counts,
    "inference.exclusion_curve": _curve_counts,
}


class Tracer:
    """Wraps the cslbec public functions and accumulates their timings."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts = defaultdict(int)
        self.spans = []
        self.op = None
        self._next_id = 1
        self._stack = [[0.0, 0]]  # root frame: child time, span id 0
        self._patched = []
        self._originals = {}

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every public function of loaded modules."""
        import cslbec  # noqa: F401  (the package must be loaded first)
        import cslbec.cli  # noqa: F401

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"cslbec.{layer}"]
            for name, fn in _public_functions(module).items():
                wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        dynamics = sys.modules["cslbec.dynamics"]
        oracles = sys.modules["cslbec.oracles"]
        self._originals = {
            "rates": dynamics.rates,
            "sde_signature": inspect.signature(oracles.sde_sample),
            "dicke_signature": inspect.signature(oracles.dicke_evolve),
        }
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "cslbec" and not mod_name.startswith("cslbec."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, name, fn):
        stats = self.stats[name]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        keep = name not in AGGREGATED
        counter = _COUNTERS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            frame = [0.0, span_id]
            parent = stack[-1]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if keep:
                    spans.append((span_id, parent[1], tracer.op, name, t0, t1))
            if counter is not None:
                for key, value in counter(args, kwargs, result,
                                          tracer._originals).items():
                    tracer.counts[f"{name}.{key}"] += value
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- recording -----------------------------------------------------------

    def record(self, name: str, t0: float, t1: float) -> None:
        """Add a span measured outside a wrapper, e.g. the package import."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        parent[0] += t1 - t0
        stats = self.stats[name]
        stats[0] += 1
        stats[1] += t1 - t0
        stats[2] += t1 - t0
        self.spans.append((span_id, parent[1], self.op, name, t0, t1))

    def region(self, wall: float) -> None:
        """Close a traced region of the given wall time.

        Whatever the traced calls inside it did not cover is the harness's
        own self time.
        """
        root = self._stack[0]
        harness = self.stats["harness"]
        harness[0] += 1
        harness[1] += wall
        harness[2] += wall - root[0]
        root[0] = 0.0

    def absorb(self, snapshot: dict, op) -> None:
        """Merge a snapshot taken in another process (a traced cold call)."""
        offset = self._next_id
        for name, (calls, total, self_s) in snapshot["stats"].items():
            if name == "harness":
                # the child's whole region is covered time for this
                # process; only the child's own harness time is added
                self._stack[0][0] += total
                self.stats[name][2] += self_s
                continue
            stats = self.stats[name]
            stats[0] += calls
            stats[1] += total
            stats[2] += self_s
        for key, value in snapshot["counts"].items():
            self.counts[key] += value
        for span_id, parent, _, name, t0, t1 in snapshot["spans"]:
            parent = self._stack[-1][1] if parent is None else parent + offset
            self.spans.append((span_id + offset, parent, op, name, t0, t1))
        self._next_id += 1 + max((s[0] for s in snapshot["spans"]),
                                 default=0)

    def snapshot(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items() if v[0]},
            "counts": dict(self.counts),
            "spans": [list(s) for s in self.spans],
        }

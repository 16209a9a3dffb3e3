"""Per-layer tracing of becfocus from outside the package.

``install`` replaces the module attributes that callers look up (for
example ``becfocus.sweep.calibrate_xi``, which ``run_single`` calls) with
timing wrappers.  A wrapper records a span (name, start, end, parent span,
the sweep point's ``run_id``) or, for functions called thousands of times,
only adds to counters on the innermost open span.  Spans stay in memory and
are written out when the run ends.

Pool workers are forked from the traced process, so they inherit the
wrappers and the open parent spans; a worker appends its finished spans to
a file of its own after each sweep point, and ``Tracer.collect`` merges
those files into the parent's list.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import time
import warnings
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("optics", "variational", "deposition", "gpe", "sweep", "cli",
          "benchmark")


class Tracer:
    def __init__(self, spill_dir):
        self.spill_dir = Path(spill_dir)
        self.root_pid = self.pid = os.getpid()
        self.spans = []  # finished spans of this process
        self.stack = []  # open spans, outermost first
        self.seq = 0
        self.ground_states = []  # (field, trap, a_s, species) to check

    def _adopt(self):
        """In a forked worker keep the parent's open spans as ancestors and
        drop the copies of its finished ones."""
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.spans, self.seq, self.ground_states = [], 0, []

    def begin(self, name: str, **attrs) -> dict:
        self._adopt()
        self.seq += 1
        span = {"id": f"{self.pid}.{self.seq}",
                "parent": self.stack[-1]["id"] if self.stack else None,
                "name": name, "pid": self.pid, "run_id": None, "counts": {},
                "first": len(self.spans), **attrs}
        self.stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def end(self, span: dict, **attrs):
        span["end"] = time.perf_counter()
        self.stack.pop()
        span.update(attrs)
        if attrs.get("run_id"):  # a sweep point: label everything below it
            for child in self.spans[span["first"]:]:
                child["run_id"] = attrs["run_id"]
        self.spans.append(span)
        if self.pid != self.root_pid and (
                not self.stack or self.stack[-1]["pid"] != self.pid):
            self._spill()

    def add(self, key: str, value=1):
        """Add to a counter of the innermost open span."""
        if self.stack:
            counts = self.stack[-1]["counts"]
            counts[key] = counts.get(key, 0) + value

    def _spill(self):
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        with open(self.spill_dir / f"worker-{self.pid}.jsonl", "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(_plain(span)) + "\n")
        self.spans = []

    def collect(self) -> list:
        """Every finished span: this process's and the pool workers'."""
        spans = [_plain(s) for s in self.spans]
        for path in sorted(self.spill_dir.glob("worker-*.jsonl")):
            with open(path) as fh:
                spans += [json.loads(line) for line in fh]
        return spans


def _plain(span: dict) -> dict:
    return {k: v for k, v in span.items() if k not in ("first", "last_t")}


# ---------------------------------------------------------------------------
# wrappers


def _wrap_span(tracer, owner, attr, name, before=None, after=None):
    """Record a span around ``owner.attr``.  ``before(arguments)`` and
    ``after(arguments, result)`` return extra span attributes."""
    orig = getattr(owner, attr)
    sig = inspect.signature(orig)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        span = tracer.begin(name, **(before(bound.arguments) if before else {}))
        try:
            result = orig(*args, **kwargs)
        except BaseException as exc:
            tracer.end(span, error=type(exc).__name__)
            raise
        tracer.end(span, **(after(bound.arguments, result) if after else {}))
        return result

    setattr(owner, attr, wrapper)


def _wrap_count(tracer, owner, attr, key, timed=False):
    """Count calls of ``owner.attr`` (and their time) on the open span."""
    orig = getattr(owner, attr)

    if timed:
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = orig(*args, **kwargs)
            tracer.add(key)
            tracer.add(key + "_s", time.perf_counter() - t0)
            return result
    else:
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            tracer.add(key)
            return orig(*args, **kwargs)

    setattr(owner, attr, wrapper)


def install(spill_dir) -> Tracer:
    """Wrap the package's public entry points where their callers look them
    up, and return the tracer that records them."""
    from becfocus import benchmark, cli, gpe, optics, sweep, variational

    tr = Tracer(spill_dir)

    def samples_cuts(a):
        return {"samples": (len(a["x"]) + len(a["y"])) * a["n_times"]}

    def samples_map(a):
        return {"samples": len(a["x"]) * len(a["y"]) * a["n_times"]}

    def point_id(_a, result):
        return {"run_id": result[0]["run_id"]}

    def keep_ground_state(a, result):
        tr.ground_states.append(
            (result, a["trap"], a["a_s_initial"], a["species"]))
        return {}

    _wrap_span(tr, cli, "main", "cli.main")
    for mod in (cli, sweep):
        _wrap_span(tr, mod, "run_sweep", "sweep.run_sweep")
    _wrap_span(tr, sweep, "run_single", "sweep.run_single", after=point_id)
    for mod in (sweep, benchmark):
        _wrap_span(tr, mod, "calibrate_xi", "optics.calibrate_xi")
        _wrap_span(tr, mod, "integrate", "variational.integrate")
    _wrap_span(tr, sweep, "width_vs_z", "variational.width_vs_z")
    _wrap_span(tr, sweep, "deposit_cuts", "deposition.deposit_cuts",
               before=samples_cuts)
    _wrap_span(tr, sweep, "deposit_from_trajectory", "deposition.deposit_map",
               before=samples_map)
    _wrap_span(tr, sweep, "instantaneous_profile",
               "deposition.instantaneous_profile")
    _wrap_span(tr, benchmark, "reduced_scale_comparison",
               "benchmark.reduced_scale_comparison")
    _wrap_span(tr, benchmark, "ground_state_imaginary_time",
               "gpe.ground_state", after=keep_ground_state)
    _wrap_count(tr, optics, "classical_trajectory", "ray_solves", timed=True)
    _wrap_count(tr, variational, "rhs_second_order", "rhs_evals")
    _wrap_gpe_solver(tr, gpe.GpeSolver)
    return tr


def _wrap_gpe_solver(tr: Tracer, solver_cls):
    evolve = solver_cls.evolve
    step = solver_cls.step_real_time

    @functools.wraps(evolve)
    def traced_evolve(self, *args, **kwargs):
        span = tr.begin("gpe.evolve")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            try:
                result = evolve(self, *args, **kwargs)
            finally:
                escapes = sum("grid escape" in str(w.message) for w in caught)
                tr.end(span, grid_escape_warnings=escapes)
        return result

    @functools.wraps(step)
    def traced_step(self, field, dt):
        t0 = time.perf_counter()
        result = step(self, field, dt)
        tr.add("steps")
        tr.add("steps_s", time.perf_counter() - t0)
        if tr.stack:  # a retry starts again from the same time
            top = tr.stack[-1]
            if top.get("last_t") == field.t:
                tr.add("steps_rejected")
            top["last_t"] = field.t
        return result

    solver_cls.evolve = traced_evolve
    solver_cls.step_real_time = traced_step


# ---------------------------------------------------------------------------
# analysis


def self_times(spans: list) -> dict:
    """Wall-clock self time of every span, by span id.

    Each instant goes to the spans open at that instant that have no open
    child, shared equally among them (pool workers run concurrently).  So
    the self times of all spans add up to the outermost span's duration.
    """
    ids = {s["id"] for s in spans}
    parent = {s["id"]: s["parent"] if s["parent"] in ids else None
              for s in spans}
    cuts = sorted({s["start"] for s in spans} | {s["end"] for s in spans})
    out = dict.fromkeys(ids, 0.0)
    for a, b in zip(cuts, cuts[1:]):
        mid = 0.5 * (a + b)
        live = {s["id"] for s in spans if s["start"] <= mid < s["end"]}
        leaves = live - {parent[i] for i in live}
        for i in leaves:
            out[i] += (b - a) / len(leaves)
    return out


def ground_state_residual(field, trap, a_s, species) -> float:
    """||H psi - mu psi|| / (|mu| ||psi||) of a trapped ground state."""
    from becfocus.constants import HBAR, interaction_strength
    from becfocus.gpe import trap_potential
    psi = field.psi
    kinetic = HBAR**2 * field.grid.k_squared() / (2.0 * species.mass)
    local = trap_potential(field.grid, species, trap)(0.0) \
        + interaction_strength(a_s, species) * np.abs(psi) ** 2
    h_psi = np.fft.ifftn(kinetic * np.fft.fftn(psi)) + local * psi
    mu = np.vdot(psi, h_psi).real / np.vdot(psi, psi).real
    return float(np.linalg.norm(h_psi - mu * psi)
                 / (abs(mu) * np.linalg.norm(psi)))


def layer_metrics(spans: list, wall_s: float, workers: int, kicks: int,
                  residuals: list) -> dict:
    """The per-layer metrics of one traced repetition (without
    ``trace.overhead_frac``, which needs the untraced repetitions)."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    own = self_times(spans)

    def dur(s):
        return s["end"] - s["start"]

    def total(name):
        return sum(dur(s) for s in by_name[name])

    def count(name, key):
        return sum(s["counts"].get(key, 0) for s in by_name[name])

    def self_of(prefix):
        return sum(own[s["id"]] for s in spans if s["name"].startswith(prefix))

    def ratio(num, den):
        return num / den if den else 0.0

    cal = by_name["optics.calibrate_xi"]
    integ = by_name["variational.integrate"]
    points = by_name["sweep.run_single"]
    sweeps = by_name["sweep.run_sweep"]
    rays = count("optics.calibrate_xi", "ray_solves")
    steps = count("gpe.evolve", "steps")
    m = {
        "optics.calibrate_xi.calls": len(cal),
        "optics.calibrate_xi.s": total("optics.calibrate_xi"),
        "optics.ray_solves": rays,
        "optics.ray_solve.ms": 1e3 * ratio(
            count("optics.calibrate_xi", "ray_solves_s"), rays),
        "optics.calibrations_per_kick": ratio(len(cal), kicks),
        "variational.integrate.calls": len(integ),
        "variational.integrate.s": total("variational.integrate"),
        "variational.rhs_evals": count("variational.integrate", "rhs_evals"),
        "variational.width_vs_z.s": total("variational.width_vs_z"),
        "variational.collapsed_frac": ratio(
            sum(s.get("error") == "CollapseDetected" for s in integ),
            len(integ)),
        "deposition.deposit_cuts.s": total("deposition.deposit_cuts"),
        "deposition.deposit_map.s": total("deposition.deposit_map"),
        "deposition.instantaneous_profile.s":
            total("deposition.instantaneous_profile"),
        "deposition.cut_samples_per_s": ratio(
            sum(s["samples"] for s in by_name["deposition.deposit_cuts"]),
            total("deposition.deposit_cuts")),
        "deposition.map_samples_per_s": ratio(
            sum(s["samples"] for s in by_name["deposition.deposit_map"]),
            total("deposition.deposit_map")),
        "gpe.ground_state.s": total("gpe.ground_state"),
        "gpe.ground_state.residual": max(residuals, default=0.0),
        "gpe.evolve.s": total("gpe.evolve"),
        "gpe.steps_attempted": steps,
        "gpe.steps_rejected": count("gpe.evolve", "steps_rejected"),
        "gpe.step.ms": 1e3 * ratio(count("gpe.evolve", "steps_s"), steps),
        "gpe.grid_escape_warnings": sum(
            s.get("grid_escape_warnings", 0) for s in by_name["gpe.evolve"]),
        "sweep.run_single.s_p50": statistics.median(
            [dur(s) for s in points]) if points else 0.0,
        "sweep.run_single.self_s": self_of("sweep.run_single"),
        "sweep.pool_start_s": (min(p["start"] for p in points)
                               - min(s["start"] for s in sweeps))
        if points and sweeps else 0.0,
        "sweep.worker_busy_frac": ratio(
            sum(dur(s) for s in points),
            workers * sum(dur(s) for s in sweeps)),
        "trace.wall_s": wall_s,
    }
    layer_self = {layer: self_of(layer + ".") for layer in LAYERS}
    for layer in LAYERS[:-1]:
        m[f"{layer}.self_s"] = layer_self[layer]
    # the benchmark layer has this one span
    m["benchmark.reduced_scale_comparison.self_s"] = layer_self["benchmark"]
    m["trace.self_sum_gap_frac"] = abs(
        sum(layer_self.values()) - wall_s) / wall_s
    return m

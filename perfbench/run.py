"""Benchmark of becfocus: one workload per call, end-to-end or per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a source checkout (the package is imported from
src/).  Each repetition runs in a fresh process (runner.py), one at a time.
Repetitions continue for about --seconds seconds, at least two of them.
Every repetition's outputs are checked (checks.py).  The last line printed
is one JSON object with the keys correct, attempted, failed and metrics:

- --trace 0: the end-to-end metrics of BENCHMARK.json, each the median over
  the repetitions; setup_s also takes in set-up-only probes.
- --trace 1: repetitions alternate untraced and traced; the metrics are the
  per-layer metrics of BENCHMARK.json (median over the traced
  repetitions), with trace.overhead_frac the traced against the untraced
  median wall time.

Other modes:
    --self-check   fast versions of all workloads: checks that every metric
                   of BENCHMARK.json is emitted and that corrupted outputs
                   are counted as failed.  Exit code 0 when both hold.
    --record       one repetition; its outputs become the reference for
                   this seed's inputs in perfbench/reference/.

Results, spans and per-repetition files go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 9
BUDGET_S = 170.0  # the whole command must end within 180 s

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, pool_workers  # noqa: E402


class BenchError(RuntimeError):
    pass


def thread_settings(workload: str) -> dict:
    """BLAS/OpenMP threads per process, so that all processes together use
    at most the cores this process may run on."""
    nproc = len(os.sched_getaffinity(0))
    workers = pool_workers(workload)
    return {"nproc": nproc, "processes": workers,
            "threads_per_process": max(1, nproc // workers)}


def environment(workload: str) -> dict:
    """Machine, library and thread settings recorded with every result."""
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '')} {blas.get('version', '')}",
            "machine": platform.machine(), "cpu": cpu,
            **thread_settings(workload)}


def child_env(workload: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    threads = str(thread_settings(workload)["threads_per_process"])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


class Session:
    """Repetitions of one workload, with their shared deadline and files."""

    def __init__(self, workload, seed, fast=False):
        self.workload, self.seed, self.fast = workload, seed, fast
        self.started = time.perf_counter()
        self.dir = OUT / f"{workload}-seed{seed}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.env = child_env(workload)
        self.count = 0

    def remaining(self) -> float:
        return BUDGET_S - (time.perf_counter() - self.started)

    def rep(self, trace=False, setup_only=False) -> dict:
        self.count += 1
        result = self.dir / f"rep-{self.count}.json"
        cmd = [sys.executable, str(HERE / "runner.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--result", str(result)]
        if trace:
            cmd += ["--spans", str(self.dir / f"spans-{self.count}.json")]
        if setup_only:
            cmd.append("--setup-only")
        if self.fast:
            cmd.append("--fast")
        launched = time.perf_counter()
        proc = subprocess.Popen(cmd + ["--launched", repr(launched)],
                                cwd=ROOT, env=self.env, stdout=sys.stderr,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            code = None
        if code != 0:
            try:  # the runner's session holds its pool workers too
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            raise BenchError("repetition exceeded the time budget"
                             if code is None else
                             f"runner exited with code {code}")
        with open(result) as fh:
            rep = json.load(fh)
        rep["traced"] = trace
        return rep


def measure(session: Session, seconds: float, trace: bool) -> list:
    """Repetitions for about ``seconds`` (at least two); with ``trace`` they
    alternate untraced and traced, starting untraced."""
    reps = []
    t0 = time.perf_counter()
    while True:
        rep_t0 = time.perf_counter()
        reps.append(session.rep(trace=trace and len(reps) % 2 == 1))
        took = time.perf_counter() - rep_t0
        elapsed = time.perf_counter() - t0
        if len(reps) >= 2 and (elapsed + took > seconds
                               or took + 10.0 > session.remaining()):
            return reps


def check_reps(session: Session, reps: list):
    """(attempted, failures, whether a recorded reference was compared)."""
    from checks import check, find_reference, load_reference
    reference = load_reference(session.workload)
    attempted, failures = 0, []
    for rep in reps:
        n, fails = check(session.workload, rep["inputs"], rep["outputs"],
                         reference)
        attempted += n
        failures += fails
    recorded = find_reference(reference, reps[0]["inputs"]) is not None
    return attempted, failures, recorded


def e2e_metrics(reps: list, probes: list) -> dict:
    plain = [r for r in reps if not r["traced"]]
    return {
        "setup_s": statistics.median(
            [r["setup_s"] for r in plain + probes]),
        "wall_s": statistics.median([r["wall_s"] for r in plain]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in plain]),
    }


def layer_metrics(reps: list) -> dict:
    traced = [r["layers"] for r in reps if r["traced"]]
    out = {k: statistics.median([t[k] for t in traced]) for k in traced[0]}
    plain_wall = statistics.median([r["wall_s"] for r in reps
                                    if not r["traced"]])
    out["trace.overhead_frac"] = out["trace.wall_s"] / plain_wall - 1.0
    return out


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def result_line(spec: dict, metrics: dict, trace: bool, attempted: int,
                failed: int) -> dict:
    names = spec["per_layer" if trace else "end_to_end"]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]],
                                    "unit": m["unit"]} for m in names}}


def run_benchmark(args) -> int:
    spec = load_spec()
    session = Session(args.workload, args.seed)
    env = environment(args.workload)
    print("env " + json.dumps(env, sort_keys=True))
    probes = [session.rep(setup_only=True) for _ in range(SETUP_PROBES)]
    reps = measure(session, args.seconds, bool(args.trace))
    attempted, failures, recorded = check_reps(session, reps)
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    metrics = e2e_metrics(reps, probes)
    if args.trace:
        metrics.update(layer_metrics(reps))
    for i, rep in enumerate(reps, 1):
        print(f"rep {i}: traced={int(rep['traced'])} "
              f"setup_s={rep['setup_s']:.4f} wall_s={rep['wall_s']:.4f} "
              f"peak_rss_mb={rep['peak_rss_mb']:.1f}")
    failed = len(failures)
    print(f"{args.workload} seed={args.seed}: "
          + " ".join(f"{k}={metrics[k]:.6g}" for k in
                     ("setup_s", "wall_s", "peak_rss_mb"))
          + f" failed_frac={failed / attempted:.6g} ({failed}/{attempted})"
          + f" reference={'recorded' if recorded else 'invariants only'}")
    line = result_line(spec, metrics, bool(args.trace), attempted, failed)
    with open(session.dir / "result.json", "w") as fh:
        json.dump({"env": env, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "reps": reps, "probes": probes, "failures": failures,
                   "result": line}, fh, indent=1)
    print(json.dumps(line))
    return 0


def record(args) -> int:
    from checks import check, save_reference
    session = Session(args.workload, args.seed)
    rep = session.rep()
    _, failures = check(args.workload, rep["inputs"], rep["outputs"],
                        {"tolerances": {}, "runs": []})
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    save_reference(args.workload, rep["inputs"], rep["outputs"])
    print(f"recorded {args.workload} seed {args.seed} "
          f"(wall_s {rep['wall_s']:.3f})")
    return 0


def corruptions(workload: str, outputs: dict) -> list:
    """(what, outputs) pairs that the check must count as one failure."""
    from checks import GPE_N0
    out = []
    if workload == "gpe_reduced":
        bad = copy.deepcopy(outputs)
        bad["n_end_gpe"] = GPE_N0 - 6.0 * (GPE_N0 - bad["n_end_gpe"])
        out.append(("six-fold atom loss", bad))
        bad = copy.deepcopy(outputs)
        bad["rel_diff"] = 0.2
        out.append(("rel_diff beyond check 10's bound", bad))
        return out
    bad = copy.deepcopy(outputs)
    bad["rows"][0]["loss_fraction"] *= 0.5
    out.append(("halved loss fraction", bad))
    bad = copy.deepcopy(outputs)
    bad["rows"][-1]["fwhm_x_m"] = -1.0
    out.append(("negative FWHM", bad))
    bad = copy.deepcopy(outputs)
    del bad["rows"][-1]
    out.append(("missing row", bad))
    return out


def self_check() -> int:
    """Fast runs of every workload, checked for complete metrics and for a
    correctness gate that counts corrupted outputs."""
    from checks import check, load_reference
    spec = load_spec()
    problems = []
    for workload in WORKLOADS:
        session = Session(workload, 0, fast=True)
        probes = [session.rep(setup_only=True)]
        reps = [session.rep(), session.rep(trace=True)]
        for trace, metrics in ((False, e2e_metrics(reps, probes)),
                               (True, layer_metrics(reps))):
            kind = "per_layer" if trace else "end_to_end"
            want = {m["name"] for m in spec[kind]}
            if set(metrics) != want:
                problems.append(f"{workload} {kind}: differs from "
                                f"BENCHMARK.json by "
                                f"{sorted(want ^ set(metrics))}")
        layers = reps[1]["layers"]
        if layers["trace.self_sum_gap_frac"] > 1e-3:
            problems.append(f"{workload}: layer self times do not add up")
        outputs = reps[0]["outputs"]
        inputs = reps[0]["inputs"]
        ref = {"tolerances": load_reference(workload)["tolerances"],
               "runs": [{"inputs": inputs, "outputs": outputs}]}
        _, fails = check(workload, inputs, outputs, ref)
        if fails:
            problems.append(f"{workload}: clean outputs failed {fails}")
        for what, bad in corruptions(workload, outputs):
            _, fails = check(workload, inputs, bad, ref)
            if len(fails) != 1:
                problems.append(f"{workload}: {what} gave {len(fails)} "
                                f"failures, expected 1")
        print(f"{workload}: fast run checked")
    for p in problems:
        print(f"self-check: {p}", file=sys.stderr)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "becfocus" / "__init__.py").is_file():
        print(f"becfocus sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.self_check:
            return self_check()
        if args.workload is None:
            ap.error("--workload is required")
        return record(args) if args.record else run_benchmark(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

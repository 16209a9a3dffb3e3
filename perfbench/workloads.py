"""The benchmark's workloads: inputs drawn from a seed, and one execution.

Seed 0 gives the default inputs exactly.  For the sweeps, any other seed
jitters them by a few percent, which keeps the cost of a run (and so the
timing spread across seeds) small while still giving every seed its own
outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import tempfile

WORKLOADS = ("fig4_serial", "kick_scan_parallel", "gpe_reduced")

FIG4_A_S_A0 = (-1.0, 1.0, 5.0, 10.0, 50.0, 100.0)
FIG4_POWER = (0.5, 1.0, 2.0, 4.0)
KICKS_HBAR_K = (0, 2, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128)
POOL_WORKERS = 2
GPE_A_S_A0 = 10.0
GPE_GRID = (64, 32, 32)

# the self-check's fast mode: same code paths, a fraction of the work
FAST_DEPOSIT = {"nx": 201, "ny": 41, "n_times": 1600,
                "map_nx": 31, "map_ny": 15, "map_n_times": 120}
FAST_GPE_GRID = (32, 16, 16)


def draw_inputs(workload: str, seed: int, fast: bool = False) -> dict:
    """The config handed to the program for (workload, seed)."""
    rng = random.Random(seed)

    def jitter(value, rel, digits):
        if seed == 0:
            return float(value)
        return round(value * (1.0 + rng.uniform(-rel, rel)), digits)

    if workload == "fig4_serial":
        a_s = [jitter(a, 0.02, 3) for a in FIG4_A_S_A0]
        power = [jitter(p, 0.02, 4) for p in FIG4_POWER]
        cfg = {"sweep": {"a_s_a0": a_s, "power": power,
                         "kicks_hbar_k": [0.0]},
               "loss_multiplier": 6.0}
        if fast:
            cfg["sweep"].update(a_s_a0=a_s[::3], power=power[1:2])
            cfg["deposit"] = dict(FAST_DEPOSIT)
        return {"config": cfg}
    if workload == "kick_scan_parallel":
        # kick 0 may only move up; the others move by up to half a recoil
        kicks = [round(k + (0.0 if seed == 0 else
                            rng.uniform(0.0 if k == 0 else -0.5, 0.5)), 2)
                 for k in KICKS_HBAR_K]
        cfg = {"sweep": {"a_s_a0": [-1.0], "power": [1.0],
                         "kicks_hbar_k": kicks},
               "workers": POOL_WORKERS}
        if fast:
            cfg["sweep"]["kicks_hbar_k"] = kicks[:2]
            cfg["deposit"] = dict(FAST_DEPOSIT)
        return {"config": cfg}
    if workload == "gpe_reduced":
        # The same inputs for every seed: the ground state's cost depends on
        # a_s (10.1 s at 0 a0, 15.4 s at 5 a0, 13.6 s at 20 a0), and machine
        # drift alone already spreads this workload's wall_s by 5-7 %.
        return {"a_s_a0": GPE_A_S_A0,
                "grid_shape": list(FAST_GPE_GRID if fast else GPE_GRID)}
    raise ValueError(f"unknown workload {workload!r}")


def expected_run_ids(inputs: dict) -> list:
    """run_id of every sweep point, in the documented table order."""
    sw = inputs["config"]["sweep"]
    return [f"as{a:g}_P{p:g}x_k{k:g}"
            for a in sorted(sw["a_s_a0"]) for p in sorted(sw["power"])
            for k in sorted(sw["kicks_hbar_k"])]


def distinct_kicks(workload: str, inputs: dict) -> int:
    if workload == "gpe_reduced":
        return 1
    return len(set(inputs["config"]["sweep"]["kicks_hbar_k"]))


def pool_workers(workload: str) -> int:
    return POOL_WORKERS if workload == "kick_scan_parallel" else 1


class Prepared:
    """A workload whose config is built and validated; ``run`` does the work.

    ``run`` returns the program's outputs as plain JSON data and never
    raises for a failure of the program: the failure is recorded in the
    outputs, where the correctness check counts it.
    """

    def __init__(self, workload: str, inputs: dict, work_root: str):
        self.workload = workload
        self.inputs = inputs
        self.work_dir = None
        if workload == "fig4_serial":
            from becfocus import sweep
            self.cfg = sweep.RunConfig.from_dict(inputs["config"])
        elif workload == "kick_scan_parallel":
            import yaml
            from becfocus import cli, sweep  # noqa: F401  (set-up cost)
            self.work_dir = tempfile.mkdtemp(prefix="kick-", dir=work_root)
            self.cfg_path = os.path.join(self.work_dir, "config.yaml")
            with open(self.cfg_path, "w") as fh:
                yaml.safe_dump(inputs["config"], fh)
            sweep.RunConfig.from_file(self.cfg_path)
        elif workload == "gpe_reduced":
            from becfocus import benchmark, gpe  # noqa: F401  (set-up cost)
            self.a_s_a0 = float(inputs["a_s_a0"])
            self.grid_shape = tuple(inputs["grid_shape"])
            gpe.GridSpec(self.grid_shape, (24e-6, 26e-6, 26e-6))  # validates
        else:
            raise ValueError(f"unknown workload {workload!r}")

    def run(self) -> dict:
        if self.workload == "fig4_serial":
            from becfocus import sweep
            try:
                rows, _ = sweep.run_sweep(self.cfg, out_dir=None,
                                          parallel=False)
            except Exception as exc:  # the check counts every point failed
                return {"exception": f"{type(exc).__name__}: {exc}"}
            return {"rows": json.loads(sweep.rows_to_json(rows))}
        if self.workload == "kick_scan_parallel":
            from becfocus import cli
            out = os.path.join(self.work_dir, "out")
            printed = io.StringIO()
            try:
                with contextlib.redirect_stdout(printed):
                    code = cli.main(["sweep", self.cfg_path, "-o", out])
            except Exception as exc:
                return {"exception": f"{type(exc).__name__}: {exc}"}
            return _read_cli_outputs(out, code, printed.getvalue())
        from becfocus import benchmark
        try:
            res = benchmark.reduced_scale_comparison(
                a_s_a0=self.a_s_a0, grid_shape=self.grid_shape)
        except Exception as exc:
            return {"exception": f"{type(exc).__name__}: {exc}"}
        keys = ("xi", "power_w", "w_var_focus", "w_gpe_focus", "rel_diff",
                "n_end_gpe")
        out = {k: float(res[k]) for k in keys}
        out.update(w_var=[float(v) for v in res["w_var"]],
                   w_gpe=[float(v) for v in res["w_gpe"]])
        return out

    def close(self):
        if self.work_dir:
            shutil.rmtree(self.work_dir, ignore_errors=True)


def _read_cli_outputs(out: str, code: int, printed: str) -> dict:
    """Result tables and per-point artifacts written by ``becfocus sweep``."""
    result = {"exit_code": code}
    try:
        with open(os.path.join(out, "results.json")) as fh:
            rows = json.load(fh)
        with open(os.path.join(out, "results.csv")) as fh:
            table = fh.read()
    except (OSError, ValueError) as exc:
        result["exception"] = f"result tables unreadable: {exc}"
        return result
    result["rows"] = rows
    result["csv_matches_stdout"] = table == printed
    missing = []
    for row in rows:
        names = ["manifest.json", "trajectory.csv"]
        if row.get("error") == "":
            names.append("deposit_n0.csv")
        run_dir = os.path.join(out, str(row.get("run_id")))
        missing += [f"{row.get('run_id')}/{n}" for n in names
                    if not os.path.isfile(os.path.join(run_dir, n))]
    result["missing_artifacts"] = missing
    return result

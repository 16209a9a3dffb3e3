"""Correctness gate for the workloads' outputs.

Every run is checked against invariants that hold for any seed.  For
inputs whose outputs were recorded from the parent program (``reference/``,
looked up by the drawn inputs, not by seed), the outputs must also match
those at the relative tolerances stored with them.
An operation is one sweep point, or the single GPE comparison; ``check``
returns how many were attempted and a message per failed one.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import expected_run_ids

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# columns compared exactly; every other float column within "sweep_rtol"
EXACT_COLUMNS = ("run_id", "model", "a_s_a0", "kick_hbar_k", "collapsed",
                 "error")
# row errors the program reports for a valid point; anything else is a failure
ROW_OUTCOMES = ("", "no-focusing", "NoPeak", "NoHalfCrossing")
GPE_N0 = 1e4  # atoms in the reduced-scale geometry
GPE_MAX_REL_DIFF = 0.10  # acceptance check 10's bound


def load_reference(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return {"tolerances": {}, "runs": []}
    with open(path) as fh:
        return json.load(fh)


def find_reference(reference: dict, inputs: dict):
    return next((run["outputs"] for run in reference["runs"]
                 if run["inputs"] == inputs), None)


def save_reference(workload: str, inputs: dict, outputs: dict):
    ref = load_reference(workload)
    ref["runs"] = [run for run in ref["runs"] if run["inputs"] != inputs]
    ref["runs"].append({"inputs": inputs, "outputs": outputs})
    REFERENCE_DIR.mkdir(exist_ok=True)
    with open(REFERENCE_DIR / f"{workload}.json", "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


def check(workload: str, inputs: dict, outputs: dict, reference: dict):
    """(attempted, failures) for one repetition's outputs."""
    expected = find_reference(reference, inputs)
    tol = reference["tolerances"]
    if workload == "gpe_reduced":
        msgs = _check_gpe(outputs, expected, tol)
        return 1, [f"gpe comparison: {'; '.join(msgs)}"] if msgs else []
    run_ids = expected_run_ids(inputs)
    if "exception" in outputs:
        return len(run_ids), [f"{r}: {outputs['exception']}" for r in run_ids]
    failed = {}
    if outputs.get("exit_code", 0) not in (0, 2):
        failed.update({r: f"exit code {outputs['exit_code']}" for r in run_ids})
    if outputs.get("csv_matches_stdout") is False:
        failed.update({r: "results.csv differs from the printed table"
                       for r in run_ids})
    for item in outputs.get("missing_artifacts", []):
        failed.setdefault(item.split("/")[0], f"missing artifact {item}")
    rows = outputs["rows"]
    got_ids = [row.get("run_id") for row in rows]
    if got_ids != run_ids and set(got_ids) == set(run_ids):
        failed.update({r: "rows out of order" for r in run_ids})
    for r in set(run_ids) ^ set(got_ids):
        failed.setdefault(r, "row missing or unexpected")
    ref_rows = {row["run_id"]: row for row in (expected or {}).get("rows", [])}
    for row in rows:
        rid = row.get("run_id")
        msgs = _row_invariants(row)
        if expected is not None:
            msgs += _row_vs_reference(row, ref_rows.get(rid),
                                      tol["sweep_rtol"])
        if msgs:
            failed.setdefault(rid, "; ".join(msgs))
    return len(run_ids), [f"{r}: {m}" for r, m in sorted(
        failed.items(), key=lambda kv: str(kv[0]))]


def _is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and math.isfinite(v)


def _row_invariants(row: dict) -> list:
    msgs = []
    if row.get("error") not in ROW_OUTCOMES:
        return [f"error {row.get('error')!r}"]
    lf = row.get("loss_fraction")
    if not (_is_num(lf) and 0.0 <= lf <= 1.0):
        msgs.append(f"loss_fraction {lf!r} outside [0, 1]")
    if not isinstance(row.get("collapsed"), bool):
        msgs.append("collapsed is not a boolean")
    for col in ("xi", "power_w"):
        if not (_is_num(row.get(col)) and row[col] > 0):
            msgs.append(f"{col} {row.get(col)!r} not positive")
    if row.get("error") == "":
        for col in ("fwhm_x_m", "fwhm_y_m", "inst_fwhm_x_m"):
            if not (_is_num(row.get(col)) and row[col] > 0):
                msgs.append(f"{col} {row.get(col)!r} not positive")
    return msgs


def _close(a, b, rtol):
    return _is_num(a) and _is_num(b) and abs(a - b) <= rtol * max(abs(a),
                                                                   abs(b))


def _row_vs_reference(row: dict, ref: dict | None, rtol: float) -> list:
    if ref is None:
        return ["no reference row"]
    msgs = []
    for col, want in ref.items():
        got = row.get(col)
        if col in EXACT_COLUMNS or not _is_num(want):
            if got != want:
                msgs.append(f"{col} {got!r} != {want!r}")
        elif not _close(got, want, rtol):
            msgs.append(f"{col} {got!r} != {want!r} (rtol {rtol:g})")
    return msgs


def _check_gpe(out: dict, ref: dict | None, tol: dict) -> list:
    if "exception" in out:
        return [out["exception"]]
    keys = ("xi", "power_w", "w_var_focus", "w_gpe_focus", "rel_diff",
            "n_end_gpe")
    bad = [k for k in keys if not _is_num(out.get(k))]
    if bad:
        return [f"non-numeric {bad}"]
    msgs = []
    if abs(out["rel_diff"]) > GPE_MAX_REL_DIFF:
        msgs.append(f"|rel_diff| {abs(out['rel_diff']):.4f} > "
                    f"{GPE_MAX_REL_DIFF}")
    if not 0.0 < out["n_end_gpe"] <= GPE_N0:
        msgs.append(f"n_end {out['n_end_gpe']!r} outside (0, {GPE_N0:g}]")
    curves = (out.get("w_var") or [], out.get("w_gpe") or [])
    if not curves[0] or len(curves[0]) != len(curves[1]) or not all(
            _is_num(v) and v > 0 for c in curves for v in c):
        msgs.append("width curves empty, unequal or not positive")
    if ref is None:
        return msgs
    for k in ("xi", "power_w"):
        if not _close(out[k], ref[k], tol["gpe_xi_rtol"]):
            msgs.append(f"{k} {out[k]!r} != {ref[k]!r}")
    for k in ("w_var", "w_gpe"):
        if len(out[k]) != len(ref[k]) or not all(
                _close(a, b, tol["gpe_width_rtol"])
                for a, b in zip(out[k], ref[k])):
            msgs.append(f"{k} curve differs from the reference")
    if abs(out["rel_diff"] - ref["rel_diff"]) > tol["gpe_rel_diff_atol"]:
        msgs.append(f"rel_diff {out['rel_diff']!r} != {ref['rel_diff']!r}")
    loss, ref_loss = 1 - out["n_end_gpe"] / GPE_N0, 1 - ref["n_end_gpe"] / GPE_N0
    if not _close(loss, ref_loss, tol["gpe_loss_rtol"]):
        msgs.append(f"atom loss {loss!r} != {ref_loss!r}")
    return msgs

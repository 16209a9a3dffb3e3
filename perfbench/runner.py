"""One repetition of one workload, in a fresh process.

run.py starts this script once per repetition, so the package's caches
(the xi cache, FFT plans) and its imports start cold, as they do for a
user of the CLI.  The script writes one JSON file (--result) holding:

- setup_s: from the moment run.py launched the process (--launched, a
  time.perf_counter() reading; that clock is system-wide on Linux) until
  imports are done and the config is built and validated;
- wall_s: the working call, up to the returned rows or comparison;
- peak_rss_mb: peak resident set (MiB) of the largest process, this one or
  a pool worker it waited for;
- outputs: the program's outputs, for the correctness check;
- layers: with --trace, the per-layer metrics (spans go to --spans).
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import time
from pathlib import Path


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", help="with tracing: where to write the spans")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--fast", action="store_true")
    args = ap.parse_args(argv)

    from workloads import (Prepared, distinct_kicks, draw_inputs,
                           pool_workers)
    inputs = draw_inputs(args.workload, args.seed, fast=args.fast)
    work_dir = Path(args.result).parent
    tracer = None
    if args.spans:
        import tracing
        spill_dir = Path(args.spans).with_suffix(".workers")
        tracer = tracing.install(spill_dir)
    prepared = Prepared(args.workload, inputs, str(work_dir))
    result = {"setup_s": time.perf_counter() - args.launched,
              "inputs": inputs}
    try:
        if not args.setup_only:
            t0 = time.perf_counter()
            outputs = prepared.run()
            result["wall_s"] = time.perf_counter() - t0
            result["peak_rss_mb"] = peak_rss_mb()
            result["outputs"] = outputs
    finally:
        prepared.close()
    if tracer is not None and not args.setup_only:
        spans = tracer.collect()
        residuals = [tracing.ground_state_residual(*g)
                     for g in tracer.ground_states]
        result["layers"] = tracing.layer_metrics(
            spans, result["wall_s"], pool_workers(args.workload),
            distinct_kicks(args.workload, inputs), residuals)
        with open(args.spans, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "spans": spans}, fh)
        shutil.rmtree(spill_dir, ignore_errors=True)
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()

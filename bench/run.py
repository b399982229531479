"""Run one gmtlab benchmark workload and print its metrics.

    python3 bench/run.py --workload lines --seed 1 --seconds 12 --trace 0

Run it from the repository root; it imports gmtlab from `src/` next to
this directory. With `--trace 0` the last line of standard output is one
JSON object holding the end-to-end metrics; with `--trace 1` the same
workload runs with every layer wrapped and the JSON holds the per-layer
metrics instead. Run outputs (CLI output directories, trace dumps and
result files) go to bench/runs/. See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "runs")


def _import_gmtlab() -> None:
    """Import gmtlab from this checkout's src/, or exit with an error."""
    if not os.path.isfile(os.path.join(SRC, "gmtlab", "__init__.py")):
        sys.exit(f"error: no gmtlab package under {SRC}")
    sys.path.insert(0, SRC)
    import gmtlab

    if os.path.dirname(os.path.dirname(os.path.abspath(gmtlab.__file__))) != SRC:
        sys.exit(f"error: gmtlab was imported from {gmtlab.__file__}, not {SRC}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["lines", "spread", "radial", "cli"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    _import_gmtlab()
    import harness
    import tracing
    import workloads

    os.makedirs(RUNS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(RUNS, f"cli-{args.seed}-{os.getpid()}")
    wl = workloads.make(args.workload, args.seed, SRC, workdir)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    t0 = time.perf_counter()
    try:
        res = harness.run_closed_loop(wl, args.seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall = time.perf_counter() - t0

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{wall:.1f} s wall")
    for line in harness.describe(res):
        print(line)
    e2e = harness.end_to_end(res, wl.peak_rss_mb())
    if args.trace:
        # reference only: the gated end-to-end figures come from untraced runs
        for name, (value, unit) in e2e.items():
            print(f"traced {name} = {value} {unit}")
        counted = tracer.self_times().get(tracing.COUNTER_SPAN, (0.0, 0))[0]
        print(f"trace counters took {counted:.3f} s, kept out of the layer self times")
        metrics = tracing.per_layer_values(tracer, wl.layer_metrics(res))
        tracer.dump(os.path.join(RUNS, f"trace-{tag}.json"))
    else:
        metrics = e2e
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value} {unit}")
    if os.path.isdir(workdir):
        shutil.rmtree(workdir)

    result = {
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(RUNS, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(json.dumps(result))
    return 0 if res.correct else 1


if __name__ == "__main__":
    sys.exit(main())

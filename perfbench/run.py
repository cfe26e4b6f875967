"""Benchmark entry point.

Run from the root of a checkout::

    python3 perfbench/run.py --workload decompose-web --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
pipeline, cycling untraced rounds, span rounds (tracing and the layer
wrappers on) and I/O rounds (device calls wrapped), prints a self-time
table per round kind and slot and then the per-layer metrics.  The last line of standard
output is always one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The graphs are the registry's proxies; ``--seed``
drives the query and update streams.  Scratch files live under
``.perfbench_work/`` in the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(workload, seed, seconds, traced, *, overrides=None):
    """Execute one run; returns ``(result_dict, run)``."""
    import metrics
    from workloads import Run, stop_resource_tracker

    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-" % workload, dir=scratch)
    bench = Run(workload, seed, seconds, traced, workdir,
                overrides=overrides)
    try:
        bench.execute()
    finally:
        bench.close()
        stop_resource_tracker()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    if traced:
        values = bench.layer_metrics()
        units = metrics.PER_LAYER
    else:
        values = bench.e2e
        units = metrics.END_TO_END
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics.render(values, units),
    }
    return result, bench


def main(argv=None):
    args = parse_args(argv)
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        sys.exit("no src/repro under %s: run from the root of a checkout"
                 % ROOT)
    sys.path.insert(0, source)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit("unknown workload %r (known: %s)"
                 % (args.workload, ", ".join(workloads.WORKLOADS)))
    result, bench = run(args.workload, args.seed, args.seconds,
                        bool(args.trace))
    print("# %s seed=%d: %d rounds, %d decompositions, %d batches, "
          "%d reads, %d torn, %d diverged"
          % (args.workload, args.seed, bench.rounds, len(bench.results),
             len(bench.applied), bench.ledger.attempted,
             bench.ledger.torn, bench.ledger.diverged), file=sys.stderr)
    if args.trace:
        print(bench.report_tables())
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()

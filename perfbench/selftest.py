"""Tiny-scale self-test of the benchmark.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Checks that every workload ``BENCHMARK.json`` names emits every metric
it names, with its unit, in both modes, and that
the correctness gates reject a perturbed core array, a torn read and a
read whose answer diverges from the replay.  Exits non-zero on failure.
"""

from __future__ import annotations

import numbers
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Small inputs and short phases: the pipeline, not the numbers.
TINY = {
    "decompose-web": {"scale": 0.05},
    "sharded-web": {"scale": 0.05},
    "serve-lj": {"scale": 0.1},
}
TINY_COMMON = {"serve_scale": 0.1, "num_queries": 400, "stream_windows": 4,
               "min_rounds": 3, "read_s": 0.05,
               "write_s": 0.15}


def check(condition, message):
    if not condition:
        raise AssertionError(message)


def check_runs():
    import metrics
    from run import run

    for workload in metrics.MANIFEST["workloads"]:
        name = workload["name"]
        overrides = dict(TINY_COMMON, **TINY[name])
        for traced, table in ((False, metrics.END_TO_END),
                              (True, metrics.PER_LAYER)):
            result, _ = run(name, 7, 1.0, traced, overrides=overrides)
            got = result["metrics"]
            check(set(got) == set(table),
                  "%s trace=%d: metric set differs" % (name, traced))
            for metric, unit in table.items():
                entry = got[metric]
                check(entry["unit"] == unit, "%s: unit" % metric)
                check(isinstance(entry["value"], numbers.Real)
                      and not isinstance(entry["value"], bool),
                      "%s: not a number" % metric)
            for metric in (table if not traced else ()):
                check(got[metric]["value"] > 0,
                      "%s: end-to-end metric is 0" % metric)
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  "%s trace=%d: %r" % (name, traced,
                                       {k: result[k] for k in
                                        ("correct", "attempted", "failed")}))
            print("ok  %-14s trace=%d  %d metrics, %d operations"
                  % (name, traced, len(got), result["attempted"]))


def check_gates():
    from array import array

    from repro.datasets.registry import generate_dataset
    from repro.service.core_service import CoreService
    from repro.storage.graphstore import GraphStorage
    from workloads import ReadLedger, answer, core_mismatches, \
        reference_cores

    edges, n = generate_dataset("lj", 0.1)
    reference = reference_cores(edges, n)
    cores = array("i", reference)
    check(core_mismatches(cores, reference) == 0, "exact cores rejected")
    cores[n // 2] += 1
    check(core_mismatches(cores, reference) == 1,
          "perturbed core array accepted")

    ledger = ReadLedger(1)
    ledger.record(4, 3, 5, 0, 1)
    check(ledger.torn == 1 and ledger.failed == 1, "torn read accepted")

    storage = GraphStorage.from_edges(edges, n)
    service = CoreService.from_storage(storage, engine="numpy")
    queries = [("coreness", 0), ("degeneracy",)]
    exact = ReadLedger(len(queries))
    for number in range(5):
        exact.record(0, 0, 0, number,
                     answer(service, queries[number % len(queries)]))
    exact.replay(service, [], queries)
    check(exact.failed == 0, "reads matching the replay rejected")
    ledger = ReadLedger(len(queries))
    ledger.record(0, 0, 0, 0, answer(service, queries[0]))
    ledger.record(0, 0, 0, 1, answer(service, queries[1]) + 1)
    ledger.record(0, 0, 0, 3, answer(service, queries[1]) + 1)
    check(ledger.failed == 0, "reads rejected before the replay")
    ledger.replay(service, [], queries)
    check(ledger.diverged == 3 and ledger.failed == 3,
          "answers diverging from the replay accepted")
    service.close()
    storage.close()
    print("ok  correctness gates reject perturbed cores, torn and "
          "diverging reads")


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    check_gates()
    check_runs()
    print("selftest passed")


if __name__ == "__main__":
    main()

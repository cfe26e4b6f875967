"""Command line interface: ``repro-core`` / ``python -m repro``.

Subcommands
-----------
``generate``   build a registry dataset proxy as on-disk tables
``convert``    convert a text edge list into on-disk tables
``stats``      print basic statistics of stored tables
``decompose``  run a decomposition algorithm and report its metrics
``maintain``   apply an update stream (``+ u v`` / ``- u v`` lines)
``serve``      drive a CoreService through a zipfian query/update workload
``verify``     audit stored tables (and optionally a core file)
``report``     re-render benchmark result JSONs as tables
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.bench.harness import run_decomposition
from repro.bench.reporting import (
    format_bytes,
    format_count,
    format_seconds,
    format_table,
)
from repro.core.engines import engine_names
from repro.core.maintenance.maintainer import CoreMaintainer
from repro.core.sharded import executor_names
from repro.datasets.io import read_edge_list
from repro.datasets.registry import dataset_names, load_dataset
from repro.errors import ReproError
from repro.storage.graphstore import GraphStorage


def _cmd_generate(args):
    edges_storage = load_dataset(args.dataset, scale=args.scale,
                                 seed=args.seed)
    adjacency = (edges_storage.neighbors(v)
                 for v in range(edges_storage.num_nodes))
    stored = GraphStorage.from_adjacency(adjacency,
                                         edges_storage.num_nodes,
                                         path=args.output)
    print("wrote %s.nodes / %s.edges  (n=%d, m=%d)"
          % (args.output, args.output, stored.num_nodes, stored.num_edges))
    stored.close()
    return 0


def _cmd_convert(args):
    edges = list(read_edge_list(args.edges))
    storage = GraphStorage.from_edges(edges, path=args.output)
    print("wrote %s.nodes / %s.edges  (n=%d, m=%d)"
          % (args.output, args.output, storage.num_nodes,
             storage.num_edges))
    storage.close()
    return 0


def _cmd_stats(args):
    storage = GraphStorage.open(args.graph)
    n, m = storage.num_nodes, storage.num_edges
    density = m / n if n else 0.0
    rows = [
        ("nodes", format_count(n)),
        ("edges", format_count(m)),
        ("density", "%.2f" % density),
    ]
    if args.cores:
        result = run_decomposition("semicore*", storage)
        rows.append(("kmax", str(result.kmax)))
        rows.append(("decomposition time", format_seconds(
            result.elapsed_seconds)))
    print(format_table(("statistic", "value"), rows))
    storage.close()
    return 0


def _cmd_decompose(args):
    if args.executor is not None and args.shards is None \
            and args.algorithm != "emcore":
        raise ReproError("--executor requires --shards (or "
                         "--algorithm emcore)")
    storage = GraphStorage.open(args.graph)
    if args.shards is not None:
        if args.shards < 1:
            raise ReproError("--shards must be >= 1, got %d" % args.shards)
        if args.algorithm != "semicore*":
            raise ReproError(
                "--shards drives per-shard SemiCore* passes; use "
                "--algorithm semicore* (got %r)" % args.algorithm
            )
        from repro.core.sharded import sharded_semi_core_star

        result = sharded_semi_core_star(storage, args.shards,
                                        engine=args.engine,
                                        executor=args.executor)
    else:
        extra = {}
        if args.algorithm == "emcore" and args.executor is not None:
            extra["executor"] = args.executor
        result = run_decomposition(args.algorithm, storage,
                                   engine=args.engine, **extra)
    rows = [
        ("algorithm", result.algorithm),
        ("engine", result.engine),
        ("kmax", str(result.kmax)),
        ("iterations", str(result.iterations)),
        ("node computations", format_count(result.node_computations)),
        ("read I/Os", format_count(result.io.read_ios)),
        ("write I/Os", format_count(result.io.write_ios)),
        ("model memory", format_bytes(result.model_memory_bytes)),
        ("time", format_seconds(result.elapsed_seconds)),
    ]
    if args.shards is not None:
        rows[1:1] = [
            ("shards", str(result.num_shards)),
            ("executor", result.executor),
            ("max shard rows", format_count(result.max_shard_nodes)),
            ("boundary rows", format_count(result.num_boundary)),
            ("arc skew", "%.3f" % result.arc_skew),
            ("halo bytes", format_bytes(result.halo_bytes)),
        ]
    print(format_table(("metric", "value"), rows))
    if args.output:
        with open(args.output, "w", encoding="ascii") as handle:
            for v, c in enumerate(result.cores):
                handle.write("%d\t%d\n" % (v, c))
        print("cores written to %s" % args.output)
    storage.close()
    return 0


def _cmd_maintain(args):
    storage = GraphStorage.open(args.graph, writable=False)
    maintainer = CoreMaintainer.from_storage(storage, engine=args.engine)
    applied = 0
    with open(args.operations, "r", encoding="ascii") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3 or parts[0] not in "+-":
                raise ReproError(
                    "%s:%d: expected '+ u v' or '- u v', got %r"
                    % (args.operations, lineno, line)
                )
            u, v = int(parts[1]), int(parts[2])
            if parts[0] == "+":
                result = maintainer.insert_edge(u, v,
                                                algorithm=args.algorithm)
            else:
                result = maintainer.delete_edge(u, v)
            applied += 1
            if args.verbose:
                print(result.summary())
    print("applied %d operations; kmax is now %d" % (applied,
                                                     maintainer.kmax))
    return 0


def _cmd_serve(args):
    from repro.service import CoreService, DEFAULT_SEGMENT_EVENTS

    if args.batch_size < 1:
        raise ReproError("--batch-size must be positive, got %d"
                         % args.batch_size)
    if args.threads < 0:
        raise ReproError("--threads must be >= 0, got %d" % args.threads)
    if args.cache_capacity < 0:
        raise ReproError("--cache-capacity must be >= 0, got %d"
                         % args.cache_capacity)
    if args.queries < 0 or args.updates < 0:
        raise ReproError("--queries and --updates must be >= 0")
    if args.segment_events is None:
        args.segment_events = DEFAULT_SEGMENT_EVENTS
    elif args.segment_events < 1:
        raise ReproError("--segment-events must be positive, got %d"
                         % args.segment_events)
    storage = GraphStorage.open(args.graph)
    if args.data_dir and os.path.exists(
            os.path.join(args.data_dir, "manifest.json")):
        service = CoreService.open(args.data_dir, storage,
                                   engine=args.engine,
                                   cache_capacity=args.cache_capacity,
                                   segment_events=args.segment_events)
        print("resumed service from %s at epoch %d"
              % (args.data_dir, service.epoch))
    else:
        service = CoreService.from_storage(
            storage, algorithm=args.algorithm, engine=args.engine,
            cache_capacity=args.cache_capacity, data_dir=args.data_dir,
            segment_events=args.segment_events)
    registry = metrics_server = tracer = None
    if args.metrics_port is not None or args.metrics_dump:
        from repro.obs import MetricsRegistry, MetricsServer

        registry = MetricsRegistry()
        service.register_metrics(registry)
        metrics_server = MetricsServer(registry,
                                       port=args.metrics_port or 0)
        metrics_server.start()
        print("serving metrics at %s" % metrics_server.url)
    if args.trace_jsonl:
        from repro.obs import enable_tracing

        tracer = enable_tracing(path=args.trace_jsonl,
                                registry=registry)
    try:
        return _serve_workload(args, service, metrics_server)
    finally:
        if tracer is not None:
            from repro.obs import disable_tracing

            disable_tracing()
            print("wrote %d trace span(s) to %s"
                  % (tracer.spans_recorded, args.trace_jsonl))
        if metrics_server is not None:
            metrics_server.stop()
        service.close()
        storage.close()


def _serve_workload(args, service, metrics_server):
    from repro.service import (
        generate_queries,
        generate_updates,
        in_batches,
        run_concurrent_workload,
        run_mixed_workload,
    )

    kmax = service.degeneracy()
    queries = generate_queries(service.num_nodes, kmax, args.queries,
                               seed=args.seed)
    updates = generate_updates(list(service.graph.edges()),
                               service.num_nodes, args.updates,
                               seed=args.seed)
    batches = in_batches(updates, args.batch_size) if updates else []
    if args.threads:
        metrics = run_concurrent_workload(service, queries, batches,
                                          reader_threads=args.threads)
        rows = [
            ("reader threads", str(metrics["reader_threads"])),
            ("reads", format_count(metrics["reads"])),
            ("updates applied", format_count(metrics["updates"])),
            ("epoch swaps", str(metrics["swaps"])),
            ("torn reads", str(metrics["torn_reads"])),
            ("queries/sec", format_count(int(metrics["qps"]))),
            ("p50 latency", format_seconds(metrics["p50_seconds"])),
            ("p99 latency", format_seconds(metrics["p99_seconds"])),
            ("p99.9 latency", format_seconds(metrics["p999_seconds"])),
            ("kmax", str(service.degeneracy())),
        ]
    else:
        metrics = run_mixed_workload(service, queries, batches)
        rows = [
            ("queries", format_count(metrics["queries"])),
            ("updates applied", format_count(metrics["updates"])),
            ("epoch", str(metrics["epoch"])),
            ("queries/sec", format_count(int(metrics["qps"]))),
            ("p50 latency", format_seconds(metrics["p50_seconds"])),
            ("p99 latency", format_seconds(metrics["p99_seconds"])),
            ("cache hit rate", "%.1f%%" % (100.0 * metrics["hit_rate"])),
            ("read I/Os per 1k queries",
             "%.1f" % metrics["read_ios_per_1k_queries"]),
            ("kmax", str(service.degeneracy())),
        ]
    if service.journal is not None:
        jstats = service.journal.stats()
        rows += [
            ("journal segments", str(jstats["segments"])),
            ("journal events (disk/total)",
             "%d/%d" % (jstats["retained_events"],
                        jstats["total_events"])),
            ("journal size", format_bytes(jstats["disk_bytes"])),
        ]
    sstats = service.stats()
    rows += [
        ("degraded", sstats["degraded"] or "no"),
        ("quarantined batches", format_count(len(sstats["quarantined"]))),
    ]
    print(format_table(("metric", "value"), rows))
    if metrics_server is not None and args.metrics_dump:
        from repro.obs import scrape

        # Scraped over real HTTP from the live endpoint -- the dump is
        # exactly what an external Prometheus scraper would see.
        body = scrape(metrics_server.url)
        with open(args.metrics_dump, "w", encoding="utf-8") as handle:
            handle.write(body)
        print("metrics exposition written to %s" % args.metrics_dump)
    if args.data_dir:
        service.checkpoint()
        jstats = service.journal.stats()
        print("checkpointed to %s at epoch %d (journal: %d segment(s), "
              "%s after compaction)"
              % (args.data_dir, service.epoch, jstats["segments"],
                 format_bytes(jstats["disk_bytes"])))
    return 0


def _cmd_scrub(args):
    import json

    from repro.service import scrub_directory

    report = scrub_directory(args.data_dir, repair=not args.dry_run,
                             force=args.force)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        rows = [
            ("data dir", report["data_dir"]),
            ("openable", "yes" if report["openable"] else "no"),
            ("issues found", format_count(len(report["issues"]))),
            ("repairs applied", format_count(len(report["actions"]))),
            ("segments", format_count(len(report["segments"]))),
        ]
        manifest = report["manifest"]
        if manifest is not None:
            rows += [
                ("epoch", str(manifest["epoch"])),
                ("events applied", format_count(
                    manifest["events_applied"])),
                ("quarantined batches", format_count(
                    len(manifest["quarantined_batches"]))),
            ]
        print(format_table(("metric", "value"), rows))
        for issue in report["issues"]:
            where = issue["file"]
            if issue.get("offset") is not None:
                where += " @%d" % issue["offset"]
            print("issue: %s: %s" % (where, issue["problem"]))
        for action in report["actions"]:
            print("repair: %s" % action)
        if not report["openable"]:
            remaining = report.get("remaining_issues", report["issues"])
            print("directory is NOT openable (%d unrepaired issue(s))"
                  % len(remaining), file=sys.stderr)
    return 0 if report["openable"] else 1


def _cmd_verify(args):
    from repro.core.validate import validate_cores, verify_storage
    from repro.storage.memgraph import MemoryGraph

    storage = GraphStorage.open(args.graph)
    issues = verify_storage(storage)
    for issue in issues:
        print("storage: %s" % issue)
    if args.cores:
        alleged = []
        with open(args.cores, "r", encoding="ascii") as handle:
            for line in handle:
                parts = line.split()
                if parts:
                    alleged.append(int(parts[-1]))
        graph = MemoryGraph.from_storage(storage)
        for issue in validate_cores(graph, alleged):
            print("cores: %s" % issue)
            issues.append(issue)
    if issues:
        print("%d issue(s) found" % len(issues))
        return 1
    print("ok: tables are consistent"
          + (" and the core file is exact" if args.cores else ""))
    storage.close()
    return 0


def _cmd_lint(args):
    import json as _json

    from repro.analysis import (
        RENDERERS,
        all_rules,
        default_config,
        package_root,
        render_stats,
        run_lint,
        stats_figure,
    )
    from repro.analysis.framework import RuleConfig

    if args.list_rules:
        for rule_id, description, checker in all_rules():
            print("%-8s %-20s %s" % (rule_id, checker, description))
        return 0
    config = default_config()
    for rule_id in args.ignore or ():
        config.rules[rule_id] = RuleConfig(enabled=False)
    result = run_lint(args.root or package_root(), config)
    print(RENDERERS[args.format](result))
    if args.stats:
        print()
        print(render_stats(result))
    if args.json_out:
        from repro.analysis import render_json

        with open(args.json_out, "w", encoding="ascii") as handle:
            handle.write(render_json(result))
            handle.write("\n")
    if args.save_stats:
        with open(args.save_stats, "w", encoding="ascii") as handle:
            _json.dump(stats_figure(result), handle, indent=2,
                       sort_keys=True)
            handle.write("\n")
    return result.exit_code


def _cmd_report(args):
    import glob
    import os

    from repro.bench.reporting import load_results

    if args.trend or args.regress:
        return _report_trend(args)
    paths = sorted(glob.glob(os.path.join(args.results, "*.json")))
    if not paths:
        print("no result files under %s" % args.results, file=sys.stderr)
        return 1
    for path in paths:
        if os.path.basename(path) == "BENCH_RESULTS.json":
            continue  # the trajectory; rendered by --trend
        try:
            payload = load_results(path)
        except (OSError, ValueError, UnicodeDecodeError) as exc:
            print("skipping %s: %s" % (path, exc), file=sys.stderr)
            continue
        if not isinstance(payload, dict):
            print("skipping %s: not a result table" % path,
                  file=sys.stderr)
            continue
        rows = payload.get("rows", [])
        if not isinstance(rows, list):
            rows = []
        rows = [row for row in rows if isinstance(row, dict)]
        if not rows:
            continue
        figure = str(payload.get("figure") or os.path.basename(path))
        if args.figure and args.figure.lower() not in figure.lower():
            continue
        # Raw metric fields (saved for collect_results.py) stay out of
        # the rendered table, exactly as the benchmark sink prints it.
        headers = [key for key in rows[0] if not key.startswith("_")]
        print(format_table(
            headers,
            [[row.get(h, "") for h in headers] for row in rows],
            title="== %s (scale %s) ==" % (figure,
                                           payload.get("scale", "?")),
        ))
        summary = _service_summary(rows)
        if summary:
            print(summary)
        print()
    return 0


def _report_trend(args):
    """``repro report --trend [--regress metric:pct]``: the trajectory
    as per-benchmark trend tables, exit 2 on a tripped regression rule."""
    from repro.bench.trend import (
        check_regressions,
        load_trajectory,
        parse_rule,
        render_trend,
    )

    path = args.trajectory or os.path.join(args.results,
                                           "BENCH_RESULTS.json")
    try:
        rules = [parse_rule(text) for text in (args.regress or [])]
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    records = load_trajectory(path)
    if not records:
        # Graceful: an empty/missing trajectory is a state to report,
        # not a crash -- CI jobs that ran no benchmarks still pass.
        print("no benchmark trajectory at %s (run the benchmarks, then "
              "benchmarks/collect_results.py)" % path)
        return 0
    if args.trend:
        print(render_trend(records), end="")
    regressions = check_regressions(records, rules)
    for regression in regressions:
        print("regression: %s" % regression, file=sys.stderr)
    if regressions:
        return 2
    if rules:
        print("no regressions under %d rule(s)" % len(rules))
    return 0


def _service_summary(rows):
    """One-line digest of service-bench rows under a reported table.

    The service throughput benchmark saves raw ``_qps`` / ``_hit_rate``
    metrics per row and the restart benchmark ``_restart_seconds`` /
    ``_journal_disk_bytes``; whenever a reported figure carries either,
    ``repro report`` condenses the serving picture under the table.
    """
    service_rows = [row for row in rows
                    if "_qps" in row or "_hit_rate" in row]
    parts = []
    if service_rows:
        best_qps = max((row.get("_qps", 0.0) for row in service_rows),
                       default=0.0)
        hit_rates = [row["_hit_rate"] for row in service_rows
                     if "_hit_rate" in row]
        parts.append("service: peak %s queries/sec"
                     % format_count(int(best_qps)))
        if hit_rates:
            parts.append("best cache hit rate %.1f%%"
                         % (100.0 * max(hit_rates)))
        io_rows = [row["_read_ios_per_1k_queries"] for row in service_rows
                   if "_read_ios_per_1k_queries" in row]
        if io_rows:
            parts.append("min %.1f read I/Os per 1k queries"
                         % min(io_rows))
    restart_rows = [row for row in rows if "_restart_seconds" in row]
    if restart_rows:
        worst = max(row["_restart_seconds"] for row in restart_rows)
        parts.append("restart: worst %s" % format_seconds(worst))
        journal_bytes = [row["_journal_disk_bytes"] for row in restart_rows
                         if "_journal_disk_bytes" in row]
        if journal_bytes:
            parts.append("journal dir <= %s"
                         % format_bytes(max(journal_bytes)))
        replayed = [row["_events_replayed"] for row in restart_rows
                    if "_events_replayed" in row]
        if replayed:
            parts.append("<= %s events replayed"
                         % format_count(int(max(replayed))))
    if not parts:
        return None
    return "   " + ", ".join(parts)


def build_parser():
    """Construct the argparse parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro-core",
        description="Semi-external k-core decomposition toolkit "
                    "(ICDE 2016 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="build a registry dataset proxy")
    p.add_argument("--dataset", required=True, choices=dataset_names())
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", required=True,
                   help="path prefix for the .nodes/.edges tables")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("convert", help="convert a text edge list")
    p.add_argument("--edges", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("stats", help="print graph statistics")
    p.add_argument("--graph", required=True)
    p.add_argument("--cores", action="store_true",
                   help="also run SemiCore* and report kmax")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("decompose", help="run a decomposition algorithm")
    p.add_argument("--graph", required=True)
    p.add_argument("--algorithm", default="semicore*",
                   choices=["semicore", "semicore+", "semicore*",
                            "emcore", "imcore", "distributed"])
    p.add_argument("--engine", default=None, choices=engine_names(),
                   help="execution engine for any decomposition algorithm "
                        "(default: the reference python engine)")
    p.add_argument("--shards", type=int, default=None,
                   help="split the node range into this many shards and "
                        "run per-shard SemiCore* passes with boundary "
                        "exchange (semicore* only)")
    p.add_argument("--executor", default=None, choices=executor_names(),
                   help="how shard passes run (with --shards, or the "
                        "EM-Core partition phase; default serial)")
    p.add_argument("--output", help="write per-node core numbers here")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("maintain", help="apply an edge update stream")
    p.add_argument("--graph", required=True)
    p.add_argument("--operations", required=True,
                   help="file of '+ u v' / '- u v' lines")
    p.add_argument("--algorithm", default="star",
                   choices=["star", "two-phase"])
    p.add_argument("--engine", default=None, choices=engine_names(),
                   help="execution engine for the maintenance kernels "
                        "(default: the reference python engine)")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_maintain)

    p = sub.add_parser("serve",
                       help="serve core-index queries over a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--queries", type=int, default=2000,
                   help="number of zipfian queries to run")
    p.add_argument("--updates", type=int, default=0,
                   help="number of edge update events to interleave")
    p.add_argument("--batch-size", type=int, default=32,
                   help="events per applied update batch")
    p.add_argument("--algorithm", default="semicore*",
                   choices=["semicore", "semicore+", "semicore*",
                            "emcore", "imcore"],
                   help="decomposition algorithm seeding the index")
    p.add_argument("--engine", default=None, choices=engine_names(),
                   help="execution engine for seeding and maintenance")
    p.add_argument("--cache-capacity", type=int, default=4096,
                   help="query cache entries (0 disables the cache)")
    p.add_argument("--data-dir",
                   help="journal + checkpoint directory (resumed when it "
                        "already holds a manifest)")
    p.add_argument("--segment-events", type=int, default=None,
                   help="events per journal segment before rotation "
                        "(checkpoints also rotate; sealed segments "
                        "covered by a checkpoint are compacted away)")
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed (same seed, same stream)")
    p.add_argument("--threads", type=int, default=0,
                   help="reader threads racing the update writer "
                        "(0 = single-threaded interleaved workload)")
    p.add_argument("--metrics-port", type=int, default=None,
                   help="serve a Prometheus /metrics endpoint on this "
                        "port while the workload runs (0 picks a free "
                        "port; the bound URL is printed)")
    p.add_argument("--metrics-dump", metavar="PATH", default=None,
                   help="after the workload, scrape the live /metrics "
                        "endpoint over HTTP and write the exposition "
                        "text here (implies a metrics endpoint)")
    p.add_argument("--trace-jsonl", metavar="PATH", default=None,
                   help="record phase-attributed spans (apply stages, "
                        "maintenance passes) as JSONL here")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("scrub",
                       help="verify and repair a service data directory")
    p.add_argument("--data-dir", required=True,
                   help="service directory (manifest + journal) to scrub")
    p.add_argument("--dry-run", action="store_true",
                   help="diagnose only; do not touch anything on disk")
    p.add_argument("--force", action="store_true",
                   help="allow lossy repairs (truncating acknowledged "
                        "events at a checksum-damage point)")
    p.add_argument("--json", action="store_true",
                   help="print the full machine-readable report")
    p.set_defaults(func=_cmd_scrub)

    p = sub.add_parser("verify", help="audit stored graph tables")
    p.add_argument("--graph", required=True)
    p.add_argument("--cores",
                   help="also validate a core file written by decompose")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("lint",
                       help="statically check the codebase's enforced "
                            "invariants (I/O charging, lock discipline, "
                            "engine parity, ...)")
    p.add_argument("--root", default=None,
                   help="package directory to scan (default: the "
                        "installed repro package)")
    p.add_argument("--format", choices=("text", "json", "github"),
                   default="text",
                   help="finding output format (github emits workflow-"
                        "command annotations for inline PR comments)")
    p.add_argument("--ignore", metavar="RULE", action="append",
                   help="disable a rule id for this run (repeatable)")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule table and exit")
    p.add_argument("--stats", action="store_true",
                   help="append a summary (rules run, files scanned, "
                        "findings, suppressions)")
    p.add_argument("--json-out", metavar="PATH",
                   help="also write the JSON findings document to PATH "
                        "(CI artifact)")
    p.add_argument("--save-stats", metavar="PATH",
                   help="write the run summary as a figure record PATH "
                        "for benchmarks/collect_results.py")
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser("report", help="print saved benchmark results")
    p.add_argument("--results", default="benchmarks/results",
                   help="directory of result JSON files")
    p.add_argument("--figure", help="only figures whose name contains this")
    p.add_argument("--trend", action="store_true",
                   help="render per-benchmark trend tables (sparklines "
                        "across revisions) from the BENCH_RESULTS.json "
                        "trajectory instead of the per-figure tables")
    p.add_argument("--regress", metavar="METRIC:PCT", action="append",
                   help="exit 2 when METRIC worsened by more than PCT "
                        "percent between the last two revisions of any "
                        "benchmark series (repeatable; throughput-like "
                        "metrics regress by dropping, everything else "
                        "by rising)")
    p.add_argument("--trajectory", default=None,
                   help="trajectory file for --trend/--regress "
                        "(default: <results>/BENCH_RESULTS.json)")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None):
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

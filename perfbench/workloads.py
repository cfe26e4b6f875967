"""The measured pipeline and its three workloads.

Every workload runs the same pipeline, so every run reports the same
metric set (see ``DESIGN.md`` for why and for the layer map):

* **set-up**: build and open the on-disk tables from the generated
  edges and seed a journaled ``CoreService``;
* then rounds, until ``--seconds`` have passed, of four slots:

  1. one more set-up into a scratch directory, timed and thrown away
     (``setup_s`` is the median over every set-up of the run);
  2. one cold (``drop_caches()``) SemiCore* decomposition, unsharded or
     sharded;
  3. an idle read slot: one reader thread, closed loop, nothing writes;
  4. a loaded write slot: the main thread applies a seeded update stream
     (windows of events, each followed by its inverses) in small
     journaled batches (closed loop) while one reader thread
     sends the query mix open loop at a fixed rate, each read timed from
     its due time;
* last, one cold decomposition in a fresh child process, whose peak RSS
  is ``peak_rss_mb``: this process holds the generated edge lists and
  the set-up's high-water mark, which would hide the decomposition's.
  It runs, after the reference cores, beside the read replay below.

Interleaving the slots spreads every metric over the whole run, so a
phase of a faster or slower machine moves all metrics alike instead of
skewing the one measured during it.  Workloads differ in the decomposed
graph, the decomposition mode and the slot lengths.

Correctness is checked off the timed path: cores against
``networkx.core_number`` (computed once, in a child process), reads
against a single-threaded replay at the epoch each read observed, and
the service against ``CoreService.verify()``.
"""

from __future__ import annotations

import contextlib
import gc
import multiprocessing
import os
import shutil
import threading
import time
from array import array
from concurrent.futures import ProcessPoolExecutor
from statistics import median

import numpy as np

from repro.core.sharded import PersistentShardExecutor, sharded_semi_core_star
from repro.core.semicore_star import semi_core_star
from repro.datasets.registry import generate_dataset
from repro.errors import ReproError
from repro.service.core_service import CoreService
from repro.service.workload import generate_queries, generate_updates, \
    in_batches
from repro.storage.graphstore import GraphStorage

from layers import LAYERS, LayerTimer, Tracing, format_table, \
    self_time_by_layer

_perf = time.perf_counter

#: Settings shared by every workload (see DESIGN.md for the reasons).
#: The service always serves the lj proxy: the serving slots are the
#: same control on every workload, and serve-lj gives them most of the
#: run.  ``--seed`` drives the query and update streams.
COMMON = {
    "serve_dataset": "lj",
    "serve_scale": 1.0,
    "block_size": 4096,
    "engine": "numpy",
    "min_rounds": 3,
    "batch_size": 1,
    "read_rate": 500.0,
    "num_queries": 50000,
    "stream_window": 50,
    "stream_windows": 40,
    "max_depth": 8,
}

#: Per-workload inputs.  A run repeats rounds of one set-up, one
#: decomposition, a ``read_s`` idle read slot and a ``write_s`` loaded
#: write slot until ``--seconds`` have passed, so every metric samples
#: the whole run.
WORKLOADS = {
    "decompose-web": {
        "dataset": "clueweb", "scale": 2.0, "shards": 0,
        "read_s": 0.3, "write_s": 2.5,
    },
    "sharded-web": {
        "dataset": "clueweb", "scale": 2.0, "shards": 8,
        "read_s": 0.6, "write_s": 3.0,
    },
    "serve-lj": {
        "dataset": "lj", "scale": 1.0, "shards": 0,
        "read_s": 0.3, "write_s": 0.6,
    },
}

QUERY_KINDS = ("coreness", "coreness_many", "members", "subgraph", "top",
               "histogram", "degeneracy")


# ----------------------------------------------------------------------
# inputs and reference answers
# ----------------------------------------------------------------------

def make_inputs(dataset, scale, serve_dataset, serve_scale):
    """Generate both graphs; returns ``(graph, serve_graph)``.

    Runs in a child process.  Each graph is ``(edges, num_nodes)``.
    Both graphs are the proxies exactly as the registry defines them
    (default seeds): across seeded graphs the sharded exchange rounds,
    the maintenance cost per event and with them the timings spread
    wider than any bound the benchmark may set (DESIGN.md).
    """
    return (generate_dataset(dataset, scale),
            generate_dataset(serve_dataset, serve_scale))


def reference_cores(edges, n):
    """``networkx.core_number`` of the graph as ``array("i")`` bytes."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edges)
    graph.remove_edges_from(list(nx.selfloop_edges(graph)))
    core = nx.core_number(graph)
    return array("i", (core[v] for v in range(n))).tobytes()


def child_pool():
    """A pool that runs each task in a fresh spawned child, one at a
    time; the children have exited when the ``with`` block ends."""
    return ProcessPoolExecutor(
        max_workers=1, mp_context=multiprocessing.get_context("spawn"),
        max_tasks_per_child=1)


def in_child(fn, *args):
    """``fn(*args)`` in a spawned child that has exited on return."""
    with child_pool() as pool:
        return pool.submit(fn, *args).result()


def stop_resource_tracker():
    """Stop and reap multiprocessing's resource tracker process.

    The spawned children and the persistent executor's shared memory
    start it; left alone it outlives the run until the interpreter
    exits.  It is restarted on demand.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def decompose(storage, spec, frame=lambda name: contextlib.nullcontext()):
    """One cold decomposition; returns ``(result, executor or None)``."""
    storage.drop_caches()
    if spec["shards"]:
        executor = PersistentShardExecutor(
            processes=max(1, min(2, os.cpu_count() or 1)))
        with frame("core.sharded.decompose"):
            result = sharded_semi_core_star(
                storage, spec["shards"], engine=spec["engine"],
                executor=executor)
        return result, executor
    with frame("core.engines.decompose"):
        return semi_core_star(storage, engine=spec["engine"]), None


def peak_rss_kib():
    """This process's peak resident set size in KiB (Linux ``VmHWM``).

    Unlike ``ru_maxrss``, which a spawned child inherits from the
    process that forked it, ``VmHWM`` starts afresh at ``exec``.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def decomposition_memory(prefix, spec):
    """Open the tables at ``prefix`` and decompose them once.

    Runs in a fresh spawned child.  Returns the child's peak RSS in KiB
    before and after the decomposition, and the cores as
    ``array("i")`` bytes.  Pool workers of the sharded mode are separate
    processes and not counted; their shared segments are
    ``storage.shm.bytes``.
    """
    storage = GraphStorage.open(prefix, block_size=spec["block_size"])
    before = peak_rss_kib()
    result, _ = decompose(storage, spec)
    after = peak_rss_kib()
    storage.close()
    return before, after, array("i", result.cores).tobytes()


def core_mismatches(cores, reference):
    """Nodes whose core number differs from the reference (0 = exact)."""
    got = np.frombuffer(array("i", cores).tobytes(), dtype=np.int32)
    want = np.frombuffer(reference, dtype=np.int32)
    if got.shape != want.shape:
        return max(len(got), len(want))
    return int(np.count_nonzero(got != want))


# ----------------------------------------------------------------------
# reads and the read ledger
# ----------------------------------------------------------------------

def answer(target, query):
    """One query through the public read API of a service or a view."""
    kind = query[0]
    if kind == "coreness":
        return target.coreness(query[1])
    if kind == "coreness_many":
        return target.coreness_many(query[1])
    if kind == "members":
        return target.kcore_members(query[1])
    if kind == "subgraph":
        return target.kcore_subgraph(query[1])
    if kind == "top":
        return target.top_k(query[1])
    if kind == "histogram":
        return target.core_histogram()
    if kind == "degeneracy":
        return target.degeneracy()
    raise ValueError("unknown query kind %r" % (kind,))


def digest(value):
    """A hash of one answer; answers themselves are never kept."""
    if isinstance(value, dict):
        return hash(tuple(value.items()))
    if isinstance(value, list):
        return hash(tuple(value))
    return hash(value)


_MASK = (1 << 64) - 1


class ReadLedger:
    """Folds every read into one digest per observed epoch.

    Reads are numbered in the order the query list is walked; the reads
    that observed one epoch are kept as runs of those numbers plus a
    digest folded over ``(query, answer)``.  A read fails when its
    epoch lies outside the window of service epochs sampled around it
    (a torn read); after :meth:`replay`, every read of an epoch whose
    digest differs from the single-threaded replay's fails too.  Memory
    is per epoch, not per read.
    """

    def __init__(self, num_queries):
        self.num_queries = num_queries
        self.epochs = {}  # epoch -> [runs, digest, reads]
        self.attempted = 0
        self.failed = 0
        self.torn = 0
        self.diverged = 0

    def record(self, epoch_lo, epoch, epoch_hi, number, value):
        self.attempted += 1
        if not epoch_lo <= epoch <= epoch_hi:
            self.torn += 1
            self.failed += 1
            return
        qidx = number % self.num_queries
        entry = self.epochs.get(epoch)
        if entry is None:
            entry = self.epochs[epoch] = [[[number, number + 1]], 0, 0]
        else:
            last = entry[0][-1]
            if last[1] == number:
                last[1] += 1
            else:
                entry[0].append([number, number + 1])
        entry[1] = (entry[1] + hash((qidx, digest(value)))) & _MASK
        entry[2] += 1

    def replay(self, service, batches, queries):
        """Fold the same reads against ``service`` replaying ``batches``
        one at a time from the recorded epoch 0; count what differs."""
        base = service.epoch
        pending = dict(self.epochs)
        for step in range(len(batches) + 1):
            if step:
                service.apply(batches[step - 1])
            entry = pending.pop(base + step, None)
            if entry is None:
                continue
            answers = {}  # query -> digest, computed once per epoch
            folded = 0
            for start, stop in entry[0]:
                for number in range(start, stop):
                    qidx = number % self.num_queries
                    query = queries[qidx]
                    h = answers.get(query)
                    if h is None:
                        h = answers[query] = digest(answer(service, query))
                    folded = (folded + hash((qidx, h))) & _MASK
            if folded != entry[1]:
                self.diverged += entry[2]
                self.failed += entry[2]
        for entry in pending.values():
            self.diverged += entry[2]
            self.failed += entry[2]


def there_and_back(windows):
    """Each window of events followed by its inverses in reverse order.

    Every window starts and ends at the proxy, so the served graph never
    strays more than one window's edits from it.  A stream that never
    turns back randomizes the graph, so an event's cost would follow how
    far into the stream a run got, i.e. the machine's speed (DESIGN.md).
    """
    flip = {"+": "-", "-": "+"}
    stream = []
    for events in windows:
        stream += events
        stream += [(flip[sign], u, v) for sign, u, v in reversed(events)]
    return stream


def percentile(values, fraction):
    """Nearest-rank percentile (0.0 for no values)."""
    if not len(values):
        return 0.0
    ranked = sorted(values)
    return ranked[min(len(ranked) - 1, int(fraction * len(ranked)))]


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------

#: Latency sample buffers are allocated once at a fixed size, so the
#: benchmark's own memory does not follow the program's throughput.
READ_CAPACITY = 1 << 20
SLOT_CAPACITY = 1 << 16

_EMPTY_ROW = (0, 0.0, 0.0, 0)


def _samples(capacity):
    return array("d", bytes(8 * capacity))


#: Round kinds of a traced run, cycled: untraced rounds give the
#: overhead baseline, span rounds time the layers, I/O rounds time the
#: device calls (layers.py says why they are apart).
TRACED_MODES = ("plain", "spans", "io")


class Run:
    """One benchmark run of one workload; fills ``e2e`` and ``layer``."""

    def __init__(self, name, seed, seconds, traced, workdir, *,
                 overrides=None):
        self.name = name
        self.spec = dict(COMMON)
        self.spec.update(WORKLOADS[name])
        self.spec.update(overrides or {})
        self.seed = seed
        self.seconds = float(seconds)
        self.traced = traced
        self.workdir = workdir
        self.timer = LayerTimer()
        self.attempted = 0
        self.failed = 0
        self.e2e = {}
        self.layer = {}
        self.ledger = None
        self.tables = {mode: {"decompose": {}, "read": {}, "write": {}}
                       for mode in TRACED_MODES[1:]}
        self._closers = []
        self.setup_times = []
        # decompose slots
        self.results = []
        self.decompose_times = {mode: [] for mode in TRACED_MODES}
        self.forks = self.respawns = 0
        # read slots
        self.reads = _samples(READ_CAPACITY)
        self.read_kinds = array("b", bytes(READ_CAPACITY))
        self.num_reads = 0
        self.read_position = 0
        self.read_cache = [0, 0]  # hits, lookups
        # write slots
        self.loaded = _samples(SLOT_CAPACITY)
        self.lateness = _samples(SLOT_CAPACITY)
        self.num_loaded = 0
        self.backlog = 0
        self.applies = {mode: _samples(SLOT_CAPACITY)
                        for mode in TRACED_MODES}
        self.num_applies = dict.fromkeys(TRACED_MODES, 0)
        self.traced_events = 0
        self.write_seconds = 0.0
        self.applied = []
        self.write_cache = [0, 0]

    # -- helpers ------------------------------------------------------
    def _frame(self, on, name):
        return self.timer.frame(name) if on else contextlib.nullcontext()

    def _traced_slot(self, mode, slot):
        """Fold the layer frames of one traced slot into its table."""
        if mode == "plain":
            return contextlib.nullcontext()
        return _SlotTable(self.timer, self.tables[mode][slot])

    def close(self):
        while self._closers:
            self._closers.pop()()

    # -- pipeline -----------------------------------------------------
    def execute(self):
        spec = self.spec
        self.graph, self.serve_graph = in_child(
            make_inputs, spec["dataset"], spec["scale"],
            spec["serve_dataset"], spec["serve_scale"])
        # The edge lists stay alive for the per-round set-ups.  A program
        # fed from files never holds them, so keep the garbage collector
        # from walking their ~400K pairs on every full collection, which
        # stalled loaded reads by ~30 ms once per write slot.
        gc.freeze()
        storage, service = self.setup()
        edges, n = self.serve_graph
        self.queries = generate_queries(
            n, service.degeneracy(), spec["num_queries"],
            seed=self.seed, max_depth=spec["max_depth"])
        self.batches = in_batches(there_and_back(
            generate_updates(edges, n, spec["stream_window"],
                             seed="%d-updates-%d" % (self.seed, k))
            for k in range(spec["stream_windows"])), spec["batch_size"])
        self.ledger = ReadLedger(len(self.queries))
        self.fsyncs0 = service.journal.fsyncs
        self.retired0 = service.stats()["snapshot"]["retired"]
        deadline = _perf() + self.seconds
        rounds = 0
        while rounds < spec["min_rounds"] or _perf() < deadline:
            mode = TRACED_MODES[rounds % 3] if self.traced else "plain"
            self.setup_slot(rounds)
            with Tracing(self.timer, io=mode == "io") \
                    if mode != "plain" else contextlib.nullcontext():
                self.decompose_slot(storage, mode)
                self.read_slot(service, mode)
                self.write_slot(service, mode)
            rounds += 1
        self.rounds = rounds
        # The checks are off the timed path.  Two spawned children, one
        # after the other, compute the reference cores and measure the
        # memory slot on the second core while this process replays
        # the service.
        with child_pool() as pool:
            reference = pool.submit(reference_cores, *self.graph)
            memory = pool.submit(
                decomposition_memory,
                os.path.join(self.workdir, "setup", "graph"), self.spec)
            self.check_service(service)
            self.check_cores(reference.result(), memory.result())
        self.summarize(service)

    def _setup_once(self, root):
        """Build and open both graphs' tables and seed the service.

        Returns ``(seconds, closers)``; ``closers[0]`` is the decomposed
        graph's storage and ``closers[-1]`` the service.
        """
        block_size = self.spec["block_size"]
        os.makedirs(root)
        opened = []
        started = _perf()
        for graph, name in ((self.graph, "graph"),
                            (self.serve_graph, "served")):
            prefix = os.path.join(root, name)
            storage = GraphStorage.from_edges(graph[0], graph[1],
                                              path=prefix,
                                              block_size=block_size)
            storage.close()
            opened.append(GraphStorage.open(prefix, block_size=block_size))
        opened.append(CoreService.from_storage(
            opened[1], engine=self.spec["engine"],
            data_dir=os.path.join(root, "service")))
        return _perf() - started, opened

    def setup(self):
        """The set-up whose tables and service the rounds use."""
        seconds, opened = self._setup_once(os.path.join(self.workdir,
                                                        "setup"))
        self.setup_times.append(seconds)
        self._closers.extend(item.close for item in opened)
        return opened[0], opened[-1]

    def setup_slot(self, number):
        """One more set-up, timed and thrown away."""
        root = os.path.join(self.workdir, "setup%d" % number)
        seconds, opened = self._setup_once(root)
        self.setup_times.append(seconds)
        for item in reversed(opened):
            item.close()
        shutil.rmtree(root)

    # -- slots --------------------------------------------------------
    def decompose_slot(self, storage, mode):
        """One cold decomposition; its cores are checked at the end."""
        with self._traced_slot(mode, "decompose"):
            started = _perf()
            result, executor = decompose(
                storage, self.spec,
                lambda name: self._frame(mode != "plain", name))
            elapsed = _perf() - started
        self.decompose_times[mode].append(elapsed)
        self.results.append(result)
        if executor is not None:
            self.forks += executor.pool_forks
            self.respawns += executor.respawns

    def check_cores(self, reference, memory):
        """Every decomposition's cores against ``networkx``, and the
        memory slot's peak RSS (a fresh child's, see
        :func:`decomposition_memory`)."""
        before, after, cores = memory
        self.e2e["peak_rss_mb"] = after / 1024.0
        self.layer["core.decompose_rss_growth_mb"] = \
            (after - before) / 1024.0
        for got in [r.cores for r in self.results] + [array("i", cores)]:
            self.attempted += 1
            if core_mismatches(got, reference):
                self.failed += 1

    def read_slot(self, service, mode):
        """Closed-loop reads from one thread while nothing writes."""
        queries = self.queries
        n = len(queries)
        ledger = self.ledger
        reads, kinds = self.reads, self.read_kinds
        kind_index = {kind: k for k, kind in enumerate(QUERY_KINDS)}
        cache = service.cache_stats
        hits, lookups = cache.hits, cache.lookups
        seconds = self.spec["read_s"]
        plain = mode == "plain"

        def reader():
            i = self.read_position
            j = self.num_reads
            stop = _perf() + seconds
            frame = (lambda: self.timer.frame("service.core_service.read")) \
                if mode == "spans" else contextlib.nullcontext
            while True:
                started = _perf()
                if started >= stop:
                    break
                qidx = i % n
                query = queries[qidx]
                epoch_lo = service.epoch
                with frame(), service.read_view() as view:
                    value = answer(view, query)
                    epoch = view.epoch
                done = _perf()
                if plain and j < READ_CAPACITY:
                    reads[j] = done - started
                    kinds[j] = kind_index[query[0]]
                    j += 1
                ledger.record(epoch_lo, epoch, service.epoch, i, value)
                i += 1
            self.read_position = i
            self.num_reads = j

        with self._traced_slot(mode, "read"):
            thread = threading.Thread(target=reader)
            thread.start()
            thread.join()
        if plain:
            self.read_cache[0] += cache.hits - hits
            self.read_cache[1] += cache.lookups - lookups

    def write_slot(self, service, mode):
        """Closed-loop journaled batches against an open-loop reader."""
        spec = self.spec
        rate = spec["read_rate"]
        queries = self.queries
        n = len(queries)
        ledger = self.ledger
        cache = service.cache_stats
        hits, lookups = cache.hits, cache.lookups
        plain = mode == "plain"
        started = _perf()
        stop = started + spec["write_s"]
        offset = self.read_position

        def reader():
            i = 0
            j = self.num_loaded
            while True:
                due = started + i / rate
                if due >= stop:
                    break
                now = _perf()
                if now < due:
                    time.sleep(due - now)
                    now = _perf()
                elif now > stop + 1.0:
                    # Too far behind to catch up: count what is left.
                    self.backlog += int((stop - due) * rate) + 1
                    break
                qidx = (offset + i) % n
                query = queries[qidx]
                epoch_lo = service.epoch
                with service.read_view() as view:
                    value = answer(view, query)
                    epoch = view.epoch
                if plain and j < SLOT_CAPACITY:
                    self.loaded[j] = _perf() - due
                    self.lateness[j] = now - due
                    j += 1
                ledger.record(epoch_lo, epoch, service.epoch, offset + i,
                              value)
                i += 1
            self.num_loaded = j
            self.read_position = offset + i

        latencies = self.applies[mode]
        count = self.num_applies[mode]
        thread = threading.Thread(target=reader)
        with self._traced_slot(mode, "write"):
            thread.start()
            try:
                while _perf() < stop:
                    batch = self.batches[len(self.applied)
                                         % len(self.batches)]
                    t0 = _perf()
                    try:
                        service.apply(batch)
                    except ReproError:
                        self.attempted += 1
                        self.failed += 1
                        break
                    elapsed = _perf() - t0
                    self.attempted += 1
                    self.applied.append(batch)
                    if count < SLOT_CAPACITY:
                        latencies[count] = elapsed
                        count += 1
                    if mode == "spans":
                        self.traced_events += len(batch)
                ended = _perf()
            finally:
                thread.join()
        self.num_applies[mode] = count
        if plain:
            self.write_seconds += ended - started
            self.write_cache[0] += cache.hits - hits
            self.write_cache[1] += cache.lookups - lookups

    # -- checks and summaries ----------------------------------------
    def check_service(self, service):
        """The service gate: verify(), no quarantine, replayed reads."""
        self.attempted += 1
        if not service.verify() or service.quarantined_batches:
            self.failed += 1
        edges, n = self.serve_graph
        replay_storage = GraphStorage.from_edges(
            edges, n, block_size=self.spec["block_size"])
        replay = CoreService.from_storage(replay_storage,
                                          engine=self.spec["engine"])
        try:
            self.ledger.replay(replay, self.applied, self.queries)
        finally:
            replay.close()
            replay_storage.close()
        self.attempted += self.ledger.attempted
        self.failed += self.ledger.failed

    def summarize(self, service):
        e2e, lay = self.e2e, self.layer
        results = self.results
        plain = self.decompose_times["plain"]
        e2e["setup_s"] = median(self.setup_times)
        e2e["decompose_s"] = median(plain)
        e2e["decompose_read_ios"] = median(r.io.read_ios for r in results)
        reads = self.reads[:self.num_reads]
        kinds = self.read_kinds[:self.num_reads]
        e2e["read_p99_us"] = 1e6 * percentile(reads, 0.99)
        loaded = self.loaded[:self.num_loaded]
        # The mean weighs every stall behind a write; the p99 rests on a
        # few dozen of them and swings more than any bound (DESIGN.md).
        e2e["loaded_read_mean_us"] = 1e6 * sum(loaded) / len(loaded)
        applies = self.applies["plain"][:self.num_applies["plain"]]
        # These swing more from run to run than any end-to-end bound
        # allows here (DESIGN.md), so they are per-layer figures.
        lay["service.apply_p99_ms"] = 1e3 * percentile(applies, 0.99)
        lay["service.read_qps"] = len(reads) / sum(reads)
        lay["service.ingest_eps"] = \
            self.spec["batch_size"] * len(applies) / self.write_seconds
        lay["service.read_p50_us"] = 1e6 * percentile(reads, 0.50)
        lay["service.loaded_read_p50_us"] = 1e6 * percentile(loaded, 0.50)
        lay["service.loaded_read_p99_us"] = 1e6 * percentile(loaded, 0.99)
        lay["service.apply_p50_ms"] = 1e3 * percentile(applies, 0.50)

        last = results[-1]
        lay["storage.blockio.bytes_read"] = median(r.io.bytes_read
                                                   for r in results)
        lay["storage.blockio.write_ios"] = median(r.io.write_ios
                                                  for r in results)
        lay["core.iterations"] = median(r.iterations for r in results)
        lay["core.node_computations"] = median(r.node_computations
                                               for r in results)
        lay["core.model_memory_bytes"] = median(r.model_memory_bytes
                                                for r in results)
        lay["storage.shards.halo_bytes"] = getattr(last, "halo_bytes", 0)
        lay["storage.shards.boundary_fraction"] = getattr(
            last, "boundary_fraction", 0.0)
        lay["storage.shards.arc_skew"] = getattr(last, "arc_skew", 0.0)
        lay["core.sharded.rounds"] = \
            last.iterations if self.spec["shards"] else 0
        lay["core.sharded.pool_forks"] = self.forks / len(results)
        lay["core.sharded.respawns"] = self.respawns / len(results)
        for k, kind in enumerate(QUERY_KINDS):
            lay["service.read.%s_p50_us" % kind] = 1e6 * percentile(
                array("d", (v for v, t in zip(reads, kinds) if t == k)),
                0.50)
        lay["service.cache.hit_rate"] = self.read_cache[0] / \
            max(1, self.read_cache[1])
        lay["service.cache.hit_rate_loaded"] = self.write_cache[0] / \
            max(1, self.write_cache[1])
        lay["loadgen.lateness_p99_ms"] = 1e3 * percentile(
            self.lateness[:self.num_loaded], 0.99)
        lay["loadgen.backlog"] = self.backlog
        batches = max(1, len(self.applied))
        lay["service.journal.fsyncs"] = \
            (service.journal.fsyncs - self.fsyncs0) / batches
        lay["service.snapshot.retired"] = \
            service.stats()["snapshot"]["retired"] - self.retired0
        history = service.maintainer.history
        events = max(1, len(history))
        lay["core.maintenance.computations_per_event"] = sum(
            r.node_computations for r in history) / events
        lay["core.maintenance.candidates_per_event"] = sum(
            r.candidate_nodes for r in history) / events
        if self.traced:
            self.summarize_traced()

    def summarize_traced(self):
        lay = self.layer
        times = self.decompose_times
        spans = self.tables["spans"]["decompose"]
        io = self.tables["io"]["decompose"]
        per_spans = 1.0 / len(times["spans"])
        per_io = 1.0 / len(times["io"])

        def value(name, column=1):
            return spans.get(name, _EMPTY_ROW)[column] * per_spans

        # Device calls are timed in I/O rounds only; the CSR build's
        # child time there is the reads it issues.
        read_at = io.get("storage.blockio.read_at", _EMPTY_ROW)
        csr = io.get("storage.csr.build", _EMPTY_ROW)
        read_at_s = read_at[1] * per_io
        csr_reads_s = (csr[1] - csr[2]) * per_io
        lay["storage.blockio.read_at_calls"] = read_at[0] * per_io
        lay["storage.blockio.read_at_s"] = read_at_s
        lay["storage.csr.build_s"] = value("storage.csr.build") - csr_reads_s
        if self.spec["shards"]:
            # The kernel runs in the pool workers: executor_run_s.
            lay["core.engines.kernel_s"] = 0.0
        else:
            lay["core.engines.kernel_s"] = \
                self_time_by_layer(spans)["core.engines"][1] * per_spans \
                - (read_at_s - csr_reads_s)
        lay["storage.shards.build_s"] = value("storage.shards.build")
        lay["core.sharded.round_s"] = value("sharded.round")
        lay["core.sharded.gather_s"] = value("sharded.gather")
        lay["core.sharded.scatter_s"] = value("sharded.scatter")
        lay["core.sharded.executor_run_s"] = value(
            "core.sharded.executor_run")
        shm = spans.get("storage.shm.attach", _EMPTY_ROW)
        lay["storage.shm.bytes"] = shm[3] / shm[0] if shm[0] else 0
        lay["trace.overhead_decompose_pct"] = 100.0 * (
            median(times["spans"]) / median(times["plain"]) - 1.0)

        table = self.tables["spans"]["write"]
        count = self.num_applies["spans"]
        per = 1.0 / max(1, count)
        for metric, name in (("service.apply_s", "service.apply"),
                             ("service.validate_s", "service.validate"),
                             ("service.maintain_s", "service.maintain"),
                             ("service.snapshot_advance_s",
                              "service.snapshot_advance"),
                             ("service.publish_s", "service.publish"),
                             ("service.journal_append_s",
                              "service.journal_append")):
            lay[metric] = table.get(name, _EMPTY_ROW)[1] * per
        checkpoint = table.get("service.checkpoint", _EMPTY_ROW)
        lay["service.checkpoints"] = checkpoint[0]
        lay["service.checkpoint_s"] = \
            checkpoint[1] / checkpoint[0] if checkpoint[0] else 0.0
        journal = table.get("service.journal.append", _EMPTY_ROW)
        lay["service.journal.bytes_per_event"] = \
            journal[3] / self.traced_events if self.traced_events else 0.0
        # Means, not medians: the apply p50 sits where cheap and
        # expensive events meet, so a median ratio says nothing here.
        traced_applies = self.applies["spans"][:count]
        plain_applies = self.applies["plain"][:self.num_applies["plain"]]
        lay["trace.overhead_apply_pct"] = 100.0 * (
            (sum(traced_applies) / len(traced_applies))
            / (sum(plain_applies) / len(plain_applies)) - 1.0)

    # -- output -------------------------------------------------------
    def layer_metrics(self):
        """Every per-layer metric (0 where this run bypasses the layer).

        Self time per layer comes from span rounds, except the device
        layer's, which only I/O rounds time (span rounds count it in the
        callers' self time).
        """
        folded = dict.fromkeys(LAYERS, 0.0)
        for mode, tables in self.tables.items():
            for table in tables.values():
                for layer, (_, self_s) in self_time_by_layer(table).items():
                    if (layer == "storage.blockio") == (mode == "io"):
                        folded[layer] = folded.get(layer, 0.0) + self_s
        out = dict(self.layer)
        for layer in LAYERS:
            out["layer.%s.self_s" % layer] = folded[layer]
        return out

    def report_tables(self):
        titles = {
            "spans": "%s: %s slots of span rounds (device reads count in "
                     "the caller's self time)",
            "io": "%s: %s slots of I/O rounds (device calls and CSR build "
                  "only)",
        }
        return "\n".join(
            format_table(table, titles[mode] % (self.name, slot))
            for mode, tables in self.tables.items()
            for slot, table in tables.items())


class _SlotTable:
    """Adds the frames recorded while active into ``table``."""

    def __init__(self, timer, table):
        self._timer = timer
        self._table = table

    def __enter__(self):
        self._before = self._timer.snapshot()
        return self

    def __exit__(self, exc_type, exc, tb):
        delta = LayerTimer.delta(self._timer.snapshot(), self._before)
        for name, row in delta.items():
            acc = self._table.setdefault(name, [0, 0.0, 0.0, 0])
            for i in range(4):
                acc[i] += row[i]
        return False

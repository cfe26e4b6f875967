"""Sharded SemiCore*: per-shard sweeps with boundary-estimate exchange.

:func:`sharded_semi_core_star` decomposes a graph whose ``core[]`` array
is not allowed to be resident all at once.  It splits the node id space
into contiguous range shards (:class:`~repro.storage.shards.\
ShardedGraphStorage`), keeps every core estimate in per-shard *estimate
tables* on counting block devices, and iterates rounds of per-shard
SemiCore* passes until the global fixpoint:

1. **Gather** -- for every shard, read its owned estimates and resolve
   its halo rows' estimates from the owning shards' estimate tables
   (the boundary-estimate exchange; all reads use round-start values,
   so rounds are Jacobi *across* shards and Gauss-Seidel *within* one).
2. **Pass** -- run a SemiCore* sweep per shard with the halo estimates
   frozen, through a :class:`ShardExecutor` (``serial`` in the driving
   process or ``persistent`` forked workers) and any registered
   engine's ``"shard-pass"`` kernel (``python`` and ``numpy`` ship).
3. **Scatter** -- write each shard's new owned estimates back to its
   estimate table; stop once no estimate moved anywhere.

Correctness follows the locality property (Theorem 4.1) exactly as in
Montresor et al.'s message-passing formulation (``core/distributed.py``):
estimates start at the degrees, every LocalCore application is monotone
and keeps each estimate an upper bound on the true core number, and the
only fixpoint reachable from above is the core numbers themselves -- so
the result is bit-identical to :func:`~repro.core.semicore_star.\
semi_core_star` however the graph is sharded.  The round structure with
bounded per-shard state follows Gao et al. ("K-Core Decomposition on
Super Large Graphs with Limited Resources", PAPERS.md).

Memory model
------------
A pass touches one shard: its ``core``/``cnt`` arrays, gathered halo
estimates and adjacency buffer.  ``model_memory_bytes`` of the returned
result is the *largest per-shard working set* -- ``O(max shard)``, not
``O(n)`` -- because the full estimate vector only ever lives in the
estimate tables (external storage in the I/O model) and the final cores
array is assembled by streaming those tables into the result object.

One task shape
--------------
Every decomposition keeps its exchange state in one shared round plan
(:class:`_SharedRoundPlan`, a :mod:`repro.storage.shm` segment): the
estimate tables, plus a halo slot and an output slot per shard.  A task
is just ``(shard index, engine name)``.  The pass reads its round-start
estimates and the gathered halo raw from the plan and writes its owned
cores back raw, so only counters travel in the result.  The driver does
all charged gather/scatter I/O against the plan's counting devices; a
pass starts from dropped device caches, reads only its own shard's
devices, and charges its I/O to a scratch counter that the driver folds
into the shared ``IOStats``.  The raw slot traffic is transport, never
modelled I/O.  Under those rules both executors give identical cores,
rounds, computation counts *and* ``IOStats`` -- asserted by
``tests/test_sharded.py``.

Executor contract
-----------------
An executor is a :class:`ShardExecutor` (in practice one of the two
shipped classes or a subclass).  ``run(fn, tasks)`` returns the results
*in task order*; ``attach_plan(plan)`` is called once before the first
round and ``close()`` after the last; ``processes``, ``respawns``,
``pool_forks`` and ``shm_bytes`` are its counters
(:func:`register_executor_metrics`).  The ``persistent`` executor forks
its workers at the first ``run`` -- after the driver has published the
shards and the plan -- so they inherit both through fork, once per
decomposition.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as _queue
import time
from array import array
from bisect import bisect_right

from repro.core.engines import DEFAULT_ENGINE, engine_implementation
from repro.core.result import DecompositionResult
from repro.core.semicore_star import converge_star
from repro.errors import ExecutorError, GraphError, ReproError
from repro.obs.trace import span
from repro.storage.blockio import DEFAULT_BLOCK_SIZE, IOStats
from repro.storage.shards import ShardedGraphStorage
from repro.storage.shm import SharedMemoryBlockDevice, SharedMemorySegment

#: ``cnt`` sentinel that keeps halo rows permanently satisfied: a frozen
#: row can lose at most one support per adjacency entry of its shard, so
#: any value far above ``num_arcs`` can never drop below its estimate.
_FROZEN_SENTINEL = 1 << 40

ESTIMATE_ENTRY_SIZE = 4
_ESTIMATE_TYPECODE = "i"


# ----------------------------------------------------------------------
# shard-pass kernels (registered as "shard-pass" in the engine registry)
# ----------------------------------------------------------------------

def shard_pass_python(graph, *, initial_cores, frozen_from):
    """Reference per-shard SemiCore* sweep with frozen halo rows.

    ``graph`` is one shard's local table (owned rows first, then halo
    rows), ``initial_cores`` the current estimates for every local row.
    Rows at local id >= ``frozen_from`` are boundary estimates: they are
    read like any neighbour but never recomputed.  Returns ``(cores,
    node_computations, sweep_iterations, model_memory_bytes)`` with
    ``cores`` covering every local row (the halo suffix unchanged).
    """
    n = graph.num_nodes
    if len(initial_cores) != n:
        raise GraphError(
            "initial_cores has %d entries, expected %d"
            % (len(initial_cores), n)
        )
    if not 0 <= frozen_from <= n:
        raise GraphError(
            "frozen_from %d out of range [0, %d]" % (frozen_from, n)
        )
    core = array(_ESTIMATE_TYPECODE, initial_cores)
    cnt = array("q", bytes(8 * n))
    for v in range(frozen_from, n):
        cnt[v] = _FROZEN_SENTINEL
    stats = converge_star(graph, core, cnt, range(frozen_from))
    # core ('i') + cnt ('q') arrays plus the adjacency buffer.
    model_memory = 12 * n + 8 * stats.max_degree_seen
    return core, stats.computations, stats.iterations, model_memory


# ----------------------------------------------------------------------
# executors
# ----------------------------------------------------------------------

class ShardExecutor:
    """The shard-executor contract shared by the shipped executors.

    ``run(fn, tasks)`` returns ``[fn(task) for task in tasks]`` in task
    order.  ``attach_plan(plan)`` records the driver's shared round plan
    before the first round; ``close()`` releases what ``run`` acquired
    and detaches the plan.  ``name`` labels the results; the other
    class attributes are the counters :func:`register_executor_metrics`
    exports.
    """

    name = "abstract"
    #: Worker processes a round runs on (0 = the driving process).
    processes = 0
    #: Workers found dead mid-round (each fails its attempt).
    respawns = 0
    #: Full worker-pool spawns.
    pool_forks = 0
    #: Bytes of the attached shared round plan (0 when detached).
    shm_bytes = 0

    def run(self, fn, tasks):
        raise NotImplementedError

    def attach_plan(self, plan):
        self.shm_bytes = plan.total_bytes

    def close(self):
        self.shm_bytes = 0


class SerialShardExecutor(ShardExecutor):
    """Run shard passes one after another in the driving process."""

    name = "serial"

    def run(self, fn, tasks):
        return [fn(task) for task in tasks]


def _persistent_worker(task_queue, result_queue):
    """Loop of one persistent worker process.

    Fetches ``(seq, index, fn, task)`` messages until a ``None`` retire
    token (or a closed queue) arrives.  Results and worker exceptions
    travel back tagged with the round sequence number so the driver can
    discard stale replies after a round retry.
    """
    while True:
        try:
            message = task_queue.get()
        except (EOFError, OSError):  # pragma: no cover - parent died
            return
        if message is None:
            return
        seq, index, fn, task = message
        try:
            result = fn(task)
        except Exception as exc:
            try:
                result_queue.put((seq, index, False, exc))
            except Exception as transport_exc:
                # pragma: no cover - unpicklable worker error
                result_queue.put((seq, index, False, RuntimeError(
                    "%r (error transport failed: %r)"
                    % (exc, transport_exc))))
        else:
            result_queue.put((seq, index, True, result))


class PersistentShardExecutor(ShardExecutor):
    """A fork-once worker pool driven by task queues over shared memory.

    Workers are forked lazily on the first round -- after the driver has
    published the active shards and the shared round plan -- and then
    reused for *every* subsequent round: rounds are plain queue
    messages, two tiny pickles per shard.  ``pool_forks`` counts full
    pool spawns (exactly 1 per decomposition on the healthy path;
    asserted by the bench smoke run) and ``shm_bytes`` the bytes of the
    attached shared round plan.

    Fault tolerance: a dead worker (``respawns`` counts them) or a hung
    round (``task_timeout`` with every worker alive) fails the attempt,
    and a failed attempt always tears the whole pool down; the retry
    forks a fresh one after exponential backoff
    (``retry_backoff * 2**attempt``) while the plan stays attached.  So
    no pass of a failed attempt outlives it: none can write its output
    slot once the driver has moved on to the next round.  After
    ``max_retries`` failed attempts the typed
    :class:`~repro.errors.ExecutorError` propagates.  Retried rounds
    are bit-identical because shard passes are pure functions of the
    round-start estimate tables, and stale replies are discarded by
    their sequence tag.
    """

    name = "persistent"

    #: seconds between dead-worker polls while waiting on a round.
    _POLL_INTERVAL = 0.05

    def __init__(self, processes=None, *, task_timeout=120.0,
                 max_retries=2, retry_backoff=0.05):
        if processes is not None and processes < 1:
            raise ReproError(
                "processes must be >= 1, got %d" % processes
            )
        if task_timeout is not None and task_timeout <= 0:
            raise ReproError(
                "task_timeout must be positive, got %r" % (task_timeout,)
            )
        if max_retries < 0:
            raise ReproError(
                "max_retries must be >= 0, got %d" % max_retries
            )
        if retry_backoff < 0:
            raise ReproError(
                "retry_backoff must be >= 0, got %r" % (retry_backoff,)
            )
        self.processes = processes or os.cpu_count() or 1
        self.task_timeout = task_timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.respawns = 0
        self.pool_forks = 0
        self.shm_bytes = 0
        self._workers = []
        self._context = None
        self._task_queue = None
        self._result_queue = None
        self._seq = 0

    def attach_plan(self, plan):
        """Record the driver's shared round plan.

        Workers receive the plan through fork inheritance of the module
        globals, not through this call, so a pool forked before the plan
        existed (e.g. by an EMCore run on a caller-owned executor) is
        retired here; the next ``run`` forks one that sees it.
        """
        self._teardown()
        self.shm_bytes = plan.total_bytes

    def run(self, fn, tasks):
        if not tasks:
            return []
        attempt = 0
        while True:
            self._ensure_pool(len(tasks))
            try:
                return self._run_once(fn, tasks)
            except ExecutorError:
                self._teardown()
                if attempt >= self.max_retries:
                    raise
                time.sleep(self.retry_backoff * (2 ** attempt))
                attempt += 1

    def _ensure_pool(self, num_tasks):
        if self._workers:
            return
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            raise ReproError(
                "the persistent executor needs the fork start method; "
                "use executor='serial' on this platform"
            ) from None
        self._context = context
        self._task_queue = context.Queue()
        self._result_queue = context.Queue()
        self._workers = [
            self._spawn()
            for _ in range(max(1, min(self.processes, num_tasks)))
        ]
        self.pool_forks += 1

    def _spawn(self):
        worker = self._context.Process(
            target=_persistent_worker,
            args=(self._task_queue, self._result_queue),
            daemon=True,
        )
        worker.start()
        return worker

    def _run_once(self, fn, tasks):
        self._seq += 1
        seq = self._seq
        for index, task in enumerate(tasks):
            self._task_queue.put((seq, index, fn, task))
        results = [None] * len(tasks)
        received = 0
        deadline = (time.monotonic() + self.task_timeout
                    if self.task_timeout is not None else None)
        while received < len(tasks):
            try:
                message = self._result_queue.get(
                    timeout=self._POLL_INTERVAL)
            except _queue.Empty:
                message = None
            if message is not None:
                mseq, index, ok, payload = message
                if mseq != seq:
                    continue  # stale reply from a retried round
                if not ok:
                    raise payload
                if results[index] is None:
                    results[index] = payload
                    received += 1
                continue
            lost = [w.pid for w in self._workers if not w.is_alive()]
            if lost:
                self.respawns += len(lost)
                raise ExecutorError(
                    "persistent shard-pass worker died mid-round (lost "
                    "pid%s %s); pool torn down"
                    % ("s" if len(lost) != 1 else "",
                       ", ".join(map(str, lost))))
            if deadline is not None and time.monotonic() > deadline:
                raise ExecutorError(
                    "persistent shard-pass round exceeded "
                    "task_timeout=%.1fs with %d task%s outstanding; "
                    "pool torn down"
                    % (self.task_timeout, len(tasks) - received,
                       "s" if len(tasks) - received != 1 else ""))
        return results

    def _teardown(self):
        """Retire the pool and drop the queues (the next run re-forks)."""
        for worker in self._workers:
            worker.terminate()
        for worker in self._workers:
            worker.join()
        self._workers = []
        for q in (self._task_queue, self._result_queue):
            if q is not None:
                q.cancel_join_thread()
                q.close()
        self._task_queue = None
        self._result_queue = None
        self._context = None

    def close(self):
        """Retire the pool and detach the plan (reuse re-forks)."""
        self._teardown()
        super().close()


EXECUTORS = {
    SerialShardExecutor.name: SerialShardExecutor,
    PersistentShardExecutor.name: PersistentShardExecutor,
}


def executor_names():
    """All executor names, sorted."""
    return sorted(EXECUTORS)


def register_executor_metrics(executor, registry):
    """Pull-mode views of an executor's counters on ``registry``.

    ``executor`` is a resolved :class:`ShardExecutor`.  Returns
    ``registry``.
    """
    registry.counter(
        "repro_executor_respawns",
        "Shard-pass workers found dead mid-round (the pool is "
        "re-forked)."
    ).set_function(lambda: executor.respawns)
    registry.gauge(
        "repro_executor_processes",
        "Configured worker processes (0 = in-process serial)."
    ).set_function(lambda: executor.processes)
    registry.counter(
        "repro_executor_pool_forks",
        "Full worker-pool spawns (the persistent executor forks exactly "
        "once per decomposition)."
    ).set_function(lambda: executor.pool_forks)
    registry.gauge(
        "repro_shm_bytes",
        "Bytes of the shared-memory round plan currently attached "
        "(0 outside a sharded decomposition)."
    ).set_function(lambda: executor.shm_bytes)
    return registry


def get_executor(executor):
    """Resolve an executor spec: None (serial), a name, or an executor.

    Executor objects must be :class:`ShardExecutor` instances -- one of
    the shipped classes or a subclass.
    """
    if executor is None:
        executor = SerialShardExecutor.name
    if isinstance(executor, str):
        try:
            return EXECUTORS[executor.lower()]()
        except KeyError:
            raise ReproError(
                "unknown executor %r (known: %s)"
                % (executor, ", ".join(executor_names()))
            ) from None
    if isinstance(executor, ShardExecutor):
        return executor
    raise ReproError(
        "executor must be one of %s or a ShardExecutor instance; got %r"
        % (", ".join(executor_names()), executor)
    )


# ----------------------------------------------------------------------
# the shared round plan (estimate tables in one shm segment)
# ----------------------------------------------------------------------

class _SharedRoundPlan:
    """Shared-memory layout of one decomposition's exchange state.

    One segment holds, per shard, three regions: the *estimate table*
    (backing a counting :class:`~repro.storage.shm.
    SharedMemoryBlockDevice`, charged by the same block rules as every
    other device), a *halo slot* the driver fills raw with the gathered
    boundary estimates, and an *output slot* the pass fills raw with its
    owned cores.  The raw slots are transport, never modelled I/O --
    that is what keeps the counters identical across executors.

    The driver owns the plan: it is created before the first round,
    inherited by persistent workers through fork, and closed (detached
    *and* unlinked) when the driver leaves its ``with`` block, whether
    the decomposition succeeds or dies -- no ``/dev/shm`` entry outlives
    the call.
    """

    def __init__(self, sharded, block_size, stats):
        offsets = []
        cursor = 0
        for shard in sharded.shards:
            owned_bytes = shard.num_owned * ESTIMATE_ENTRY_SIZE
            halo_bytes = shard.num_boundary * ESTIMATE_ENTRY_SIZE
            offsets.append((cursor, cursor + owned_bytes,
                            cursor + owned_bytes + halo_bytes))
            cursor += 2 * owned_bytes + halo_bytes
        self.total_bytes = max(1, cursor)
        self.segment = SharedMemorySegment(self.total_bytes)
        self._regions = offsets
        self.devices = [
            SharedMemoryBlockDevice(
                self.segment, offsets[i][0],
                shard.num_owned * ESTIMATE_ENTRY_SIZE,
                block_size=block_size, stats=stats,
            )
            for i, shard in enumerate(sharded.shards)
        ]

    # -- driver side ---------------------------------------------------
    def write_halo(self, index, values):
        """Publish a shard's gathered halo estimates (raw transport)."""
        data = values.tobytes()
        start = self._regions[index][1]
        self.segment.buf[start:start + len(data)] = data

    def read_cores(self, index, count):
        """Collect a shard's pass result from its output slot."""
        start = self._regions[index][2]
        size = count * ESTIMATE_ENTRY_SIZE
        cores = array(_ESTIMATE_TYPECODE)
        cores.frombytes(bytes(self.segment.buf[start:start + size]))
        return cores

    # -- pass side (in-process or fork-inherited object) ---------------
    def read_pass_input(self, index, count):
        """A shard's round-start owned estimates followed by its halo
        estimates -- adjacent regions, so one raw read of ``count``
        local rows."""
        start = self._regions[index][0]
        size = count * ESTIMATE_ENTRY_SIZE
        return bytes(self.segment.buf[start:start + size])

    def write_cores(self, index, cores):
        """Store a pass's owned cores into the output slot."""
        data = cores.tobytes()
        start = self._regions[index][2]
        self.segment.buf[start:start + len(data)] = data

    def close(self):
        for device in self.devices:
            device.close()
        self.segment.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False


# ----------------------------------------------------------------------
# the per-shard task (module level so it pickles into workers)
# ----------------------------------------------------------------------

#: Shards of the round being executed; set by the driver before
#: ``executor.run`` so forked workers inherit it.
_ACTIVE_SHARDS = None

#: Shared round plan of the running decomposition; inherited the same
#: way.
_ACTIVE_PLAN = None


def _run_shard_pass_shared(task):
    """Run one shard pass; the unit of work executors schedule.

    ``task`` is ``(shard_index, engine)``.  The pass starts cold (device
    caches dropped), touches only the shard's own devices, and charges
    its I/O to a scratch counter so the driver can apply one combined
    delta whatever process ran it.  Estimates and halo values come raw
    from the round plan and the owned cores go back the same way.
    Returns ``(computations, sweep_iterations, model_memory_bytes,
    io_counts)``.
    """
    index, engine = task
    shard = _ACTIVE_SHARDS[index]
    plan = _ACTIVE_PLAN
    initial = array(_ESTIMATE_TYPECODE)
    initial.frombytes(plan.read_pass_input(index, shard.num_local))
    graph = shard.graph
    kernel = engine_implementation(engine, "shard-pass")
    scratch = IOStats()
    devices = (graph.node_device, graph.edge_device)
    saved = [dev.stats for dev in devices]
    for dev in devices:
        dev.stats = scratch
    graph.drop_caches()
    try:
        cores, computations, sweeps, memory = kernel(
            graph, initial_cores=initial, frozen_from=shard.num_owned
        )
    finally:
        for dev, stats in zip(devices, saved):
            dev.stats = stats
    plan.write_cores(index,
                     array(_ESTIMATE_TYPECODE, cores[:shard.num_owned]))
    io_counts = (scratch.read_ios, scratch.write_ios,
                 scratch.bytes_read, scratch.bytes_written)
    return computations, sweeps, memory, io_counts


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------

def sharded_semi_core_star(graph, num_shards, *, engine=None,
                           executor=None, path=None, trace_changes=False):
    """Decompose ``graph`` with ``num_shards`` node-range shards.

    ``engine`` selects the per-shard pass kernel through the engine
    registry (``"shard-pass"``; default the reference python kernel),
    ``executor`` how the passes run (``"serial"`` default,
    ``"persistent"``, or a :class:`ShardExecutor` instance).  ``path``
    makes the shard tables file-backed.

    Returns a :class:`DecompositionResult` whose cores are bit-identical
    to :func:`~repro.core.semicore_star.semi_core_star`, whose
    ``iterations`` counts exchange rounds (including the final round
    that confirms the fixpoint), and whose ``model_memory_bytes`` is the
    largest per-shard working set.  Extra attributes: ``num_shards``,
    ``executor`` (the resolved name), ``max_shard_nodes``,
    ``num_boundary``, ``arc_skew``, ``max_owned_arcs``, ``halo_bytes``,
    ``boundary_fraction`` and ``pool_forks``.
    """
    global _ACTIVE_SHARDS, _ACTIVE_PLAN
    started = time.perf_counter()
    engine_name = (engine or DEFAULT_ENGINE).lower()
    # Resolve early so unknown engines/kernels fail before any build I/O.
    engine_implementation(engine_name, "shard-pass")
    exec_obj = get_executor(executor)

    shared = getattr(graph, "io_stats", None)
    stats = shared if shared is not None else IOStats()
    snapshot = stats.snapshot()
    block_size = getattr(graph, "block_size", DEFAULT_BLOCK_SIZE)

    rounds = 0
    computations = 0
    peak_memory = 0
    changes = [] if trace_changes else None
    with ShardedGraphStorage.from_storage(
            graph, num_shards, path=path, stats=stats) as sharded, \
            _SharedRoundPlan(sharded, block_size, stats) as plan:
        estimates = plan.devices
        try:
            exec_obj.attach_plan(plan)
            # Round 0: the degree upper bounds, streamed shard by shard.
            for shard, device in zip(sharded.shards, estimates):
                degrees = shard.graph.read_degrees()[:shard.num_owned]
                device.write_at(0, degrees.tobytes())

            boundary_cache = [shard.boundary_ids()
                              for shard in sharded.shards]
            tasks = [(shard.index, engine_name) for shard in sharded.shards]
            _ACTIVE_SHARDS = sharded.shards
            _ACTIVE_PLAN = plan
            while True:
                rounds += 1
                with span("sharded.round", io=stats, round=rounds,
                          shards=len(sharded.shards)) as round_span:
                    round_start = []
                    with span("sharded.gather", io=stats, round=rounds):
                        for shard, device, boundary in zip(
                                sharded.shards, estimates, boundary_cache):
                            round_start.append(
                                _read_estimates(device, shard.num_owned))
                            plan.write_halo(shard.index, _gather_boundary(
                                boundary, sharded.bounds, estimates))
                    results = exec_obj.run(_run_shard_pass_shared, tasks)
                    changed = 0
                    with span("sharded.scatter", io=stats, round=rounds):
                        for shard, device, owned, outcome in zip(
                                sharded.shards, estimates, round_start,
                                results):
                            comps, _, memory, io_counts = outcome
                            cores = plan.read_cores(shard.index,
                                                    shard.num_owned)
                            _apply_io(stats, io_counts)
                            computations += comps
                            local_state = memory + \
                                12 * shard.num_local + 4 * shard.num_owned
                            if local_state > peak_memory:
                                peak_memory = local_state
                            if cores != owned:
                                changed += sum(1 for a, b
                                               in zip(cores, owned)
                                               if a != b)
                                device.write_at(0, cores.tobytes())
                    round_span.annotate(changed=changed)
                if trace_changes:
                    changes.append(changed)
                if not changed:
                    break

            cores = array(_ESTIMATE_TYPECODE)
            for shard, device in zip(sharded.shards, estimates):
                cores.extend(_read_estimates(device, shard.num_owned))
        finally:
            _ACTIVE_SHARDS = None
            _ACTIVE_PLAN = None
            exec_obj.close()

    elapsed = time.perf_counter() - started
    result = DecompositionResult(
        algorithm="ShardedSemiCore*",
        cores=cores,
        iterations=rounds,
        node_computations=computations,
        io=stats.delta_since(snapshot),
        elapsed_seconds=elapsed,
        model_memory_bytes=peak_memory,
        per_iteration_changes=changes,
        engine=engine_name,
    )
    result.num_shards = sharded.num_shards
    result.executor = exec_obj.name
    result.max_shard_nodes = sharded.max_shard_nodes
    result.num_boundary = sharded.num_boundary
    result.arc_skew = sharded.arc_skew
    result.max_owned_arcs = sharded.max_owned_arcs
    result.halo_bytes = sharded.halo_bytes
    result.boundary_fraction = sharded.boundary_fraction
    result.pool_forks = exec_obj.pool_forks
    return result


# ----------------------------------------------------------------------
# estimate-table plumbing
# ----------------------------------------------------------------------

def _read_estimates(device, count):
    """One shard's owned estimates as an array (sequential read)."""
    values = array(_ESTIMATE_TYPECODE)
    if count:
        values.frombytes(device.read_at(0, count * ESTIMATE_ENTRY_SIZE))
    return values


def _gather_boundary(boundary_ids, bounds, estimates):
    """Resolve halo estimates from the owning shards' estimate tables.

    ``boundary_ids`` is sorted; maximal runs of *consecutive* ids inside
    one owner become a single ranged ``read_at`` (decoded in one
    ``frombytes``) instead of per-id point reads.  The block charges are
    unchanged by construction: a run of consecutive ids is a contiguous
    byte range, so the ranged read touches exactly the blocks the point
    reads touched, each charged once thanks to the one-block cache, and
    gaps between runs never pull in blocks the point reads skipped.
    ``tests/test_sharded.py`` asserts the counter parity against the
    point-read reference.
    """
    values = array(_ESTIMATE_TYPECODE)
    count = len(boundary_ids)
    owner = 0
    i = 0
    while i < count:
        g = int(boundary_ids[i])
        if not bounds[owner] <= g < bounds[owner + 1]:
            owner = bisect_right(bounds, g) - 1
        limit = bounds[owner + 1]
        j = i + 1
        expected = g + 1
        while j < count and expected < limit and \
                boundary_ids[j] == expected:
            j += 1
            expected += 1
        data = estimates[owner].read_at(
            (g - bounds[owner]) * ESTIMATE_ENTRY_SIZE,
            (j - i) * ESTIMATE_ENTRY_SIZE,
        )
        values.frombytes(data)
        i = j
    return values


def _apply_io(stats, io_counts):
    """Fold a pass's scratch I/O counters into the shared stats."""
    read_ios, write_ios, bytes_read, bytes_written = io_counts
    stats.read_ios += read_ios
    stats.write_ios += write_ios
    stats.bytes_read += bytes_read
    stats.bytes_written += bytes_written

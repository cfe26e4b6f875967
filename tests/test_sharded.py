"""Tests for sharded SemiCore* (:mod:`repro.core.sharded`).

The acceptance contract: bit-identical cores to ``semi_core_star`` for
every shard count, engine and executor; identical ``IOStats`` totals
between the serial and persistent executors; and a per-shard
``model_memory_bytes`` bounded by the largest shard rather than the
whole graph.
"""

import pytest
from hypothesis import given, settings

from repro.core.engines import available_engines, register_engine
from repro.core.semicore_star import semi_core_star
from repro.core.sharded import (
    PersistentShardExecutor,
    SerialShardExecutor,
    executor_names,
    get_executor,
    sharded_semi_core_star,
)
from repro.datasets.generators import (
    paper_example_graph,
    path_graph,
    social_graph,
)
from repro.datasets.registry import dataset_names, load_dataset
from repro.errors import ReproError
from repro.storage.graphstore import GraphStorage

from tests.conftest import graph_edges

requires_numpy = pytest.mark.skipif("numpy" not in available_engines(),
                                    reason="numpy engine unavailable")

ENGINES = [engine for engine in ("python", "numpy")
           if engine in available_engines()]


def shard_counts(n):
    """The contract's shard-count set: {1, 2, 3, 7, n}."""
    return sorted({1, 2, 3, 7, max(1, n)})


def reference_cores(edges, n):
    return list(semi_core_star(GraphStorage.from_edges(edges, n)).cores)


EXECUTOR_NAMES = ("serial", "persistent")


class TestParity:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("executor", EXECUTOR_NAMES)
    def test_paper_graph_all_shard_counts(self, engine, executor):
        edges, n = paper_example_graph()
        expected = [3, 3, 3, 3, 2, 2, 2, 2, 1]
        for num_shards in shard_counts(n):
            storage = GraphStorage.from_edges(edges, n)
            result = sharded_semi_core_star(storage, num_shards,
                                            engine=engine,
                                            executor=executor)
            assert list(result.cores) == expected, (num_shards, engine)
            assert result.algorithm == "ShardedSemiCore*"
            assert result.engine == engine
            assert result.executor == executor
            assert result.num_shards == num_shards

    @pytest.mark.parametrize("engine", ENGINES)
    @given(graph_edges(max_nodes=20))
    @settings(max_examples=25, deadline=None)
    def test_hypothesis_graphs_every_shard_count(self, engine, graph):
        edges, n = graph
        expected = reference_cores(edges, n)
        for num_shards in shard_counts(n):
            storage = GraphStorage.from_edges(edges, n)
            result = sharded_semi_core_star(storage, num_shards,
                                            engine=engine)
            assert list(result.cores) == expected, (num_shards, engine)

    @pytest.mark.parametrize("dataset", dataset_names())
    def test_dataset_proxies_both_engines_both_executors(self, dataset):
        storage = load_dataset(dataset, scale=0.04)
        expected = list(semi_core_star(storage).cores)
        n = storage.num_nodes
        num_shards = min(3, max(1, n))
        for engine in ENGINES:
            for executor in EXECUTOR_NAMES:
                graph = load_dataset(dataset, scale=0.04)
                result = sharded_semi_core_star(graph, num_shards,
                                                engine=engine,
                                                executor=executor)
                assert list(result.cores) == expected, (dataset, engine,
                                                        executor)

    def test_file_backed_shards(self, tmp_path):
        edges, n = social_graph(150, 2, 8, seed=2)
        expected = reference_cores(edges, n)
        for executor in EXECUTOR_NAMES:
            storage = GraphStorage.from_edges(
                edges, n, path=str(tmp_path / ("g_" + executor)))
            result = sharded_semi_core_star(
                storage, 4, executor=executor,
                path=str(tmp_path / ("shards_" + executor)))
            assert list(result.cores) == expected


class TestExecutorContract:
    def test_all_executors_identical(self):
        """Cores, rounds, computations and IOStats must all agree."""
        for seed, num_shards in ((1, 2), (5, 4), (9, 7)):
            edges, n = social_graph(300, 2, 8, seed=seed)
            runs = {}
            for executor in EXECUTOR_NAMES:
                storage = GraphStorage.from_edges(edges, n)
                runs[executor] = sharded_semi_core_star(
                    storage, num_shards, executor=executor)
            serial = runs["serial"]
            for executor in EXECUTOR_NAMES[1:]:
                other = runs[executor]
                assert list(serial.cores) == list(other.cores), executor
                assert serial.iterations == other.iterations
                assert serial.node_computations == \
                    other.node_computations
                assert serial.io == other.io  # the full IOStats totals

    @requires_numpy
    def test_executor_identity_under_numpy_engine(self):
        edges, n = social_graph(200, 2, 6, seed=3)
        runs = {}
        for executor in EXECUTOR_NAMES:
            storage = GraphStorage.from_edges(edges, n)
            runs[executor] = sharded_semi_core_star(
                storage, 3, engine="numpy", executor=executor)
        serial, persistent = runs["serial"], runs["persistent"]
        assert list(serial.cores) == list(persistent.cores)
        assert serial.iterations == persistent.iterations
        assert serial.node_computations == persistent.node_computations
        assert serial.io == persistent.io

    def test_unknown_executor_rejected(self, paper_storage):
        with pytest.raises(ReproError, match="unknown executor"):
            sharded_semi_core_star(paper_storage, 2, executor="quantum")

    def test_executor_names_and_registry(self):
        assert executor_names() == ["persistent", "serial"]
        assert isinstance(get_executor(None), SerialShardExecutor)
        assert isinstance(get_executor("Serial"), SerialShardExecutor)
        assert isinstance(get_executor("persistent"),
                          PersistentShardExecutor)

    def test_custom_executor_object(self, paper_graph):
        edges, n = paper_graph

        class Recording(SerialShardExecutor):
            name = "recording"
            calls = 0

            def run(self, fn, tasks):
                Recording.calls += 1
                return super().run(fn, tasks)

        storage = GraphStorage.from_edges(edges, n)
        result = sharded_semi_core_star(storage, 2,
                                        executor=Recording())
        assert Recording.calls == result.iterations
        assert result.executor == "recording"

    def test_object_without_run_rejected(self, paper_storage):
        with pytest.raises(ReproError, match="ShardExecutor"):
            get_executor(object())

        # Executors must be ShardExecutor instances, not duck types.
        class RunOnly:
            def run(self, fn, tasks):
                return [fn(task) for task in tasks]

        with pytest.raises(ReproError, match="ShardExecutor"):
            sharded_semi_core_star(paper_storage, 2, executor=RunOnly())

    def test_worker_crash_propagates_cleanly(self, paper_graph):
        """A failing shard pass surfaces its error; no hang, no leak."""
        edges, n = paper_graph

        def crashing_pass(graph, *, initial_cores, frozen_from):
            raise ValueError("shard pass boom")

        register_engine("crashy", "failure-injection test double",
                        lambda: {"shard-pass": crashing_pass})
        import repro.core.sharded as sharded_module

        try:
            for executor in EXECUTOR_NAMES:
                storage = GraphStorage.from_edges(edges, n)
                with pytest.raises(ValueError, match="shard pass boom"):
                    sharded_semi_core_star(storage, 2, engine="crashy",
                                           executor=executor)
                assert sharded_module._ACTIVE_SHARDS is None
                assert sharded_module._ACTIVE_PLAN is None
            # The driver is reusable after a crashed run.
            storage = GraphStorage.from_edges(edges, n)
            result = sharded_semi_core_star(storage, 2)
            assert result.kmax == 3
        finally:
            from repro.core.engines import _REGISTRY
            _REGISTRY.pop("crashy", None)

    def test_unknown_engine_rejected_before_build(self, paper_storage):
        with pytest.raises(ReproError, match="unknown engine"):
            sharded_semi_core_star(paper_storage, 2, engine="fortran")

    def test_invalid_process_count_rejected(self):
        for processes in (0, -3):
            with pytest.raises(ReproError, match="processes"):
                PersistentShardExecutor(processes=processes)
        # None resolves to the machine's CPU count, never to 0.
        assert PersistentShardExecutor().processes >= 1
        assert PersistentShardExecutor(processes=3).processes == 3

    @pytest.mark.parametrize("name", ["multiprocessing", ""])
    def test_removed_and_empty_names_rejected(self, paper_storage, name):
        with pytest.raises(ReproError, match="unknown executor"):
            sharded_semi_core_star(paper_storage, 2, executor=name)

    @pytest.mark.parametrize("spec", [
        42, 1.5, b"serial", ["serial"], SerialShardExecutor,
    ], ids=["int", "float", "bytes", "list", "class-not-instance"])
    def test_non_executor_specs_rejected(self, spec):
        with pytest.raises(ReproError, match="ShardExecutor"):
            get_executor(spec)


class TestSerialExecutor:
    def test_runs_in_the_driving_process_in_task_order(self):
        import os

        executor = SerialShardExecutor()
        assert executor.run(lambda task: (task, os.getpid()),
                            [3, 1, 2]) == \
            [(3, os.getpid()), (1, os.getpid()), (2, os.getpid())]
        assert executor.run(lambda task: task, []) == []

    def test_counters_and_plan_gauge(self, paper_graph):
        from repro.obs import MetricsRegistry
        from repro.core.sharded import register_executor_metrics

        edges, n = paper_graph
        attached = []

        class Watched(SerialShardExecutor):
            def attach_plan(self, plan):
                super().attach_plan(plan)
                attached.append(self.shm_bytes)

        executor = Watched()
        registry = MetricsRegistry()
        register_executor_metrics(executor, registry)
        result = sharded_semi_core_star(GraphStorage.from_edges(edges, n),
                                        3, executor=executor)
        # Serial runs use the shared round plan too.
        assert len(attached) == 1 and attached[0] > 0
        assert result.pool_forks == 0
        body = registry.render_prometheus()
        assert "repro_executor_processes 0" in body
        assert "repro_executor_pool_forks 0" in body
        assert "repro_executor_respawns 0" in body
        assert "repro_shm_bytes 0" in body  # detached by the driver

    def test_shared_pass_charges_a_scratch_counter(self):
        """A pass leaves the shared IOStats untouched, reports its own
        I/O, and restores the shard devices' counters."""
        import repro.core.sharded as sharded_module
        from repro.core.sharded import _SharedRoundPlan
        from repro.storage.blockio import IOStats
        from repro.storage.shards import ShardedGraphStorage

        edges, n = social_graph(90, 2, 5, seed=2)
        stats = IOStats()
        storage = GraphStorage.from_edges(edges, n)
        with ShardedGraphStorage.from_storage(
                storage, 3, stats=stats) as sharded, \
                _SharedRoundPlan(sharded, 4096, stats) as plan:
            shard = sharded.shards[1]
            degrees = shard.graph.read_degrees()
            plan.devices[1].write_at(
                0, degrees[:shard.num_owned].tobytes())
            plan.write_halo(1, degrees[shard.num_owned:])
            before = stats.snapshot()
            sharded_module._ACTIVE_SHARDS = sharded.shards
            sharded_module._ACTIVE_PLAN = plan
            try:
                computations, sweeps, memory, io_counts = \
                    sharded_module._run_shard_pass_shared((1, "python"))
            finally:
                sharded_module._ACTIVE_SHARDS = None
                sharded_module._ACTIVE_PLAN = None
            assert stats.delta_since(before) == IOStats()
            assert io_counts[0] > 0  # a cold pass reads its shard
            assert computations > 0 and sweeps >= 1 and memory > 0
            assert shard.graph.node_device.stats is stats
            assert shard.graph.edge_device.stats is stats
            cores = plan.read_cores(1, shard.num_owned)
            assert len(cores) == shard.num_owned
            # Estimates only ever move down from the degree bound.
            assert all(0 <= c <= d for c, d in zip(cores, degrees))


class TestSharedRoundPlan:
    def _sharded(self, num_shards=3, seed=5):
        from repro.storage.blockio import IOStats
        from repro.storage.shards import ShardedGraphStorage

        edges, n = social_graph(80, 2, 5, seed=seed)
        stats = IOStats()
        sharded = ShardedGraphStorage.from_storage(
            GraphStorage.from_edges(edges, n), num_shards, stats=stats)
        return sharded, stats

    def test_regions_sized_per_shard(self):
        from repro.core.sharded import ESTIMATE_ENTRY_SIZE, _SharedRoundPlan

        sharded, stats = self._sharded()
        with sharded, _SharedRoundPlan(sharded, 4096, stats) as plan:
            expected = sum(
                (2 * s.num_owned + s.num_boundary) * ESTIMATE_ENTRY_SIZE
                for s in sharded.shards)
            assert plan.total_bytes == expected
            assert plan.segment.size == expected
            assert len(plan.devices) == sharded.num_shards
            for device in plan.devices:
                assert device.stats is stats
                assert device.size == 0

    def test_pass_input_is_owned_estimates_then_halo(self):
        from array import array

        from repro.core.sharded import _SharedRoundPlan

        sharded, stats = self._sharded()
        with sharded, _SharedRoundPlan(sharded, 4096, stats) as plan:
            for shard, device in zip(sharded.shards, plan.devices):
                owned = array("i", range(100, 100 + shard.num_owned))
                halo = array("i", range(7, 7 + shard.num_boundary))
                device.write_at(0, owned.tobytes())
                plan.write_halo(shard.index, halo)
            for shard in sharded.shards:
                got = array("i")
                got.frombytes(plan.read_pass_input(shard.index,
                                                   shard.num_local))
                assert list(got) == \
                    list(range(100, 100 + shard.num_owned)) + \
                    list(range(7, 7 + shard.num_boundary))

    def test_output_slots_roundtrip_per_shard(self):
        from array import array

        from repro.core.sharded import _SharedRoundPlan

        sharded, stats = self._sharded()
        with sharded, _SharedRoundPlan(sharded, 4096, stats) as plan:
            for shard in sharded.shards:
                plan.write_cores(shard.index, array(
                    "i", [shard.index] * shard.num_owned))
            for shard in sharded.shards:
                assert list(plan.read_cores(shard.index,
                                            shard.num_owned)) == \
                    [shard.index] * shard.num_owned

    def test_raw_slot_traffic_is_never_charged(self):
        from array import array

        from repro.core.sharded import _SharedRoundPlan
        from repro.storage.blockio import IOStats

        sharded, stats = self._sharded()
        with sharded, _SharedRoundPlan(sharded, 4096, stats) as plan:
            before = stats.snapshot()
            for shard in sharded.shards:
                plan.write_halo(shard.index,
                                array("i", [1] * shard.num_boundary))
                plan.read_pass_input(shard.index, shard.num_owned)
                plan.write_cores(shard.index,
                                 array("i", [2] * shard.num_owned))
                plan.read_cores(shard.index, shard.num_owned)
            assert stats.delta_since(before) == IOStats()
            # The estimate tables themselves are charged devices.
            plan.devices[0].write_at(0, b"\x00" * 4)
            assert stats.delta_since(before).write_ios == 1

    def test_close_unlinks_the_segment_even_on_error(self):
        import os

        from repro.core.sharded import _SharedRoundPlan

        sharded, stats = self._sharded()
        with sharded:
            with pytest.raises(RuntimeError):
                with _SharedRoundPlan(sharded, 4096, stats) as plan:
                    name = plan.segment.name
                    assert os.path.exists(os.path.join("/dev/shm", name))
                    raise RuntimeError("round failed")
            assert not os.path.exists(os.path.join("/dev/shm", name))
            assert all(device.closed for device in plan.devices)

    def test_empty_graph_plan_holds_one_byte(self):
        from repro.core.sharded import _SharedRoundPlan
        from repro.storage.blockio import IOStats
        from repro.storage.shards import ShardedGraphStorage

        stats = IOStats()
        with ShardedGraphStorage.from_storage(
                GraphStorage.from_edges([], 0), 2, stats=stats) as sharded, \
                _SharedRoundPlan(sharded, 4096, stats) as plan:
            assert plan.total_bytes == 1
            assert [d.size for d in plan.devices] == [0, 0]


class TestPersistentExecutor:
    def test_forks_exactly_once_per_decomposition(self):
        """Bench-smoke acceptance: one pool spawn, however many rounds."""
        edges, n = social_graph(200, 2, 6, seed=4)
        executor = PersistentShardExecutor(processes=2)
        storage = GraphStorage.from_edges(edges, n)
        result = sharded_semi_core_star(storage, 3, executor=executor)
        assert result.iterations > 1
        assert result.pool_forks == 1
        assert executor.pool_forks == 1
        assert executor.respawns == 0

    def test_reusable_after_close_re_forks(self):
        """The driver closes the pool each run; reuse must re-fork."""
        executor = PersistentShardExecutor(processes=2)
        edges, n = social_graph(120, 2, 6, seed=6)
        expected = reference_cores(edges, n)
        for run in (1, 2):
            storage = GraphStorage.from_edges(edges, n)
            result = sharded_semi_core_star(storage, 3,
                                            executor=executor)
            assert list(result.cores) == expected
            assert executor.pool_forks == run

    def test_shm_bytes_metric_tracks_the_plan(self):
        from repro.obs import MetricsRegistry
        from repro.core.sharded import register_executor_metrics

        executor = PersistentShardExecutor(processes=2)
        registry = MetricsRegistry()
        register_executor_metrics(executor, registry)
        body = registry.render_prometheus()
        assert "repro_executor_pool_forks 0" in body
        assert "repro_shm_bytes 0" in body
        edges, n = social_graph(120, 2, 6, seed=6)
        storage = GraphStorage.from_edges(edges, n)
        sharded_semi_core_star(storage, 3, executor=executor)
        body = registry.render_prometheus()
        assert "repro_executor_pool_forks 1" in body
        # The plan is detached when the driver closes the executor.
        assert "repro_shm_bytes 0" in body

    def test_invalid_tuning_rejected(self):
        with pytest.raises(ReproError, match="processes"):
            PersistentShardExecutor(processes=0)
        with pytest.raises(ReproError, match="task_timeout"):
            PersistentShardExecutor(task_timeout=0.0)

    def test_results_come_back_in_task_order(self):
        executor = PersistentShardExecutor(processes=2)
        try:
            tasks = [9, 2, 7, 4, 0, 5, 1, 8, 3, 6]
            assert executor.run(abs, [-t for t in tasks]) == tasks
            assert executor.run(abs, []) == []
            assert executor.pool_forks == 1
        finally:
            executor.close()

    def test_empty_round_forks_nothing(self):
        executor = PersistentShardExecutor(processes=2)
        assert executor.run(abs, []) == []
        assert executor.pool_forks == 0
        executor.close()  # closing an unforked executor is a no-op
        assert executor.pool_forks == 0

    def test_pool_never_larger_than_the_round(self):
        executor = PersistentShardExecutor(processes=4)
        try:
            assert executor.run(abs, [-1, -2]) == [1, 2]
            assert len(executor._workers) == 2
        finally:
            executor.close()
        assert executor._workers == []

    def test_task_exception_propagates_and_the_pool_survives(self):
        executor = PersistentShardExecutor(processes=2)
        try:
            with pytest.raises(ValueError, match="invalid literal"):
                executor.run(int, ["1", "x", "3"])
            # Not an executor fault: no respawn, no re-fork, and stale
            # replies of the failed round are discarded.
            assert executor.run(int, ["4", "5", "6"]) == [4, 5, 6]
            assert executor.pool_forks == 1
            assert executor.respawns == 0
        finally:
            executor.close()

    def test_pool_forked_before_the_plan_is_re_forked(self, paper_graph):
        """A pool an EMCore run left open predates the round plan; the
        driver's attach_plan retires it so the passes see the plan."""
        from repro.core.emcore import em_core

        edges, n = paper_graph
        executor = PersistentShardExecutor(processes=2)
        try:
            em_core(GraphStorage.from_edges(edges, n), partition_arcs=8,
                    executor=executor)
            assert executor.pool_forks == 1
            result = sharded_semi_core_star(
                GraphStorage.from_edges(edges, n), 3, executor=executor)
            assert list(result.cores) == [3, 3, 3, 3, 2, 2, 2, 2, 1]
            assert executor.pool_forks == 2
        finally:
            executor.close()


class TestGatherVectorization:
    def _reference_gather(self, boundary_ids, bounds, estimates):
        """The pre-vectorization per-id gather: one read per row."""
        from array import array
        from bisect import bisect_right

        from repro.core.sharded import (
            ESTIMATE_ENTRY_SIZE,
            _ESTIMATE_TYPECODE,
        )

        values = array(_ESTIMATE_TYPECODE)
        for g in boundary_ids:
            owner = bisect_right(bounds, int(g)) - 1
            data = estimates[owner].read_at(
                (int(g) - bounds[owner]) * ESTIMATE_ENTRY_SIZE,
                ESTIMATE_ENTRY_SIZE)
            values.frombytes(data)
        return values

    def test_coalesced_gather_matches_per_id_reads(self):
        """Same values AND same charged I/O as the per-id loop."""
        import random
        from array import array

        from repro.core.sharded import (
            ESTIMATE_ENTRY_SIZE,
            _ESTIMATE_TYPECODE,
            _gather_boundary,
        )
        from repro.storage.blockio import IOStats, MemoryBlockDevice
        from repro.storage.shards import shard_bounds

        rng = random.Random(13)
        n, num_shards = 257, 5
        bounds = shard_bounds(n, num_shards)
        table = [rng.randint(0, 99) for _ in range(n)]
        for trial in range(8):
            ids = sorted(rng.sample(range(n),
                                    rng.randint(0, n)))
            runs = {}
            for fn in ("vector", "reference"):
                stats = IOStats()
                devices = []
                for a, b in zip(bounds, bounds[1:]):
                    device = MemoryBlockDevice(stats=stats)
                    device.write_at(0, array(
                        _ESTIMATE_TYPECODE, table[a:b]).tobytes())
                    device.drop_cache()
                    stats.reset()
                    devices.append(device)
                gather = (_gather_boundary if fn == "vector"
                          else self._reference_gather)
                values = gather(array("q", ids), bounds, devices)
                runs[fn] = (list(values), stats.read_ios,
                            stats.bytes_read)
            assert runs["vector"][0] == [table[g] for g in ids], trial
            # The I/O-model metric -- charged block reads -- must match
            # the per-id loop exactly: coalescing may only merge reads
            # of blocks the one-block cache would have served anyway.
            assert runs["vector"][1] == runs["reference"][1], trial
            # Coalesced requests cover whole runs, so the bytes actually
            # requested from the backend can only grow.
            assert runs["vector"][2] >= runs["reference"][2], trial


class TestMemoryBound:
    def test_working_set_bounded_by_largest_shard(self):
        """python-kernel bound: 28 bytes/row of the largest shard plus
        the adjacency buffer."""
        edges, n = social_graph(400, 2, 8, seed=7)
        storage = GraphStorage.from_edges(edges, n)
        max_degree = max(storage.read_degrees())
        result = sharded_semi_core_star(storage, 4)
        assert result.model_memory_bytes <= \
            28 * result.max_shard_nodes + 8 * max_degree

    def test_memory_shrinks_below_unsharded_on_local_graphs(self):
        edges, n = path_graph(2400)
        full = semi_core_star(GraphStorage.from_edges(edges, n))
        result = sharded_semi_core_star(GraphStorage.from_edges(edges, n),
                                        8)
        assert list(result.cores) == list(full.cores)
        assert result.max_shard_nodes < n // 4
        assert result.model_memory_bytes < full.model_memory_bytes

    def test_memory_independent_of_total_size(self):
        """Fixed shard size, growing graph: the working set stays put."""
        small_edges, small_n = path_graph(1200)
        big_edges, big_n = path_graph(2400)
        small = sharded_semi_core_star(
            GraphStorage.from_edges(small_edges, small_n), 4)
        big = sharded_semi_core_star(
            GraphStorage.from_edges(big_edges, big_n), 8)
        assert big.max_shard_nodes == small.max_shard_nodes
        assert big.model_memory_bytes == small.model_memory_bytes

    @requires_numpy
    def test_numpy_working_set_shrinks_too(self):
        edges, n = path_graph(2400)
        full = semi_core_star(GraphStorage.from_edges(edges, n),
                              engine="numpy")
        result = sharded_semi_core_star(GraphStorage.from_edges(edges, n),
                                        8, engine="numpy")
        assert list(result.cores) == list(full.cores)
        assert result.model_memory_bytes < full.model_memory_bytes


class TestResultShape:
    def test_round_trace_and_metadata(self, paper_graph):
        edges, n = paper_graph
        storage = GraphStorage.from_edges(edges, n)
        result = sharded_semi_core_star(storage, 3, trace_changes=True)
        assert result.per_iteration_changes[-1] == 0
        assert len(result.per_iteration_changes) == result.iterations
        assert sum(result.per_iteration_changes) > 0
        assert result.num_boundary > 0
        assert result.max_shard_nodes >= (n + 2) // 3

    def test_single_shard_matches_reference_exactly(self, paper_graph):
        edges, n = paper_graph
        storage = GraphStorage.from_edges(edges, n)
        result = sharded_semi_core_star(storage, 1)
        reference = semi_core_star(GraphStorage.from_edges(edges, n))
        assert list(result.cores) == list(reference.cores)
        assert result.num_boundary == 0
        # One convergence round plus the fixpoint-confirming round.
        assert result.iterations == 2

    def test_empty_graph(self):
        storage = GraphStorage.from_edges([], 0)
        result = sharded_semi_core_star(storage, 2)
        assert len(result.cores) == 0
        assert result.iterations == 1

    def test_layout_statistics_match_the_sharded_storage(self):
        from repro.storage.shards import ShardedGraphStorage

        edges, n = social_graph(150, 2, 6, seed=10)
        result = sharded_semi_core_star(GraphStorage.from_edges(edges, n),
                                        5)
        with ShardedGraphStorage.from_storage(
                GraphStorage.from_edges(edges, n), 5) as sharded:
            assert result.num_shards == sharded.num_shards
            assert result.max_shard_nodes == sharded.max_shard_nodes
            assert result.num_boundary == sharded.num_boundary
            assert result.arc_skew == sharded.arc_skew
            assert result.max_owned_arcs == sharded.max_owned_arcs
            assert result.halo_bytes == sharded.halo_bytes
            assert result.boundary_fraction == sharded.boundary_fraction

    def test_io_accounting_shares_graph_stats(self, paper_graph):
        edges, n = paper_graph
        storage = GraphStorage.from_edges(edges, n)
        before = storage.io_stats.snapshot()
        result = sharded_semi_core_star(storage, 2)
        delta = storage.io_stats.delta_since(before)
        assert result.io == delta
        assert result.io.read_ios > 0
        assert result.io.write_ios > 0  # shard build + estimate tables

"""Tests for node-range sharding (:mod:`repro.storage.shards`)."""

import os
import random

import pytest

from repro.datasets.generators import paper_example_graph, social_graph
from repro.errors import GraphError
from repro.storage.blockio import IOStats
from repro.storage.graphstore import GraphStorage
from repro.storage.shards import ShardedGraphStorage, shard_bounds


def build(edges, n, num_shards, **kwargs):
    storage = GraphStorage.from_edges(edges, n)
    return storage, ShardedGraphStorage.from_storage(storage, num_shards,
                                                     **kwargs)


class TestShardBounds:
    def test_partitions_the_range(self):
        for n in (0, 1, 5, 9, 100):
            for s in (1, 2, 3, 7, max(1, n)):
                bounds = shard_bounds(n, s)
                assert bounds[0] == 0 and bounds[-1] == n
                assert len(bounds) == s + 1
                assert all(a <= b for a, b in zip(bounds, bounds[1:]))

    def test_rejects_non_positive_counts(self):
        with pytest.raises(GraphError, match="num_shards"):
            shard_bounds(10, 0)

    def test_node_ranges_differ_by_at_most_one(self):
        for n in (1, 5, 9, 100, 257):
            for s in (1, 2, 3, 7, n):
                bounds = shard_bounds(n, s)
                sizes = [b - a for a, b in zip(bounds, bounds[1:])]
                assert sum(sizes) == n
                assert max(sizes) - min(sizes) <= 1, (n, s)


class TestLayoutStatistics:
    def test_balance_statistics_properties(self):
        edges, n = social_graph(120, 2, 6, seed=8)
        _, sharded = build(edges, n, 4)
        assert sharded.max_owned_arcs == \
            max(s.num_arcs for s in sharded.shards)
        assert sharded.mean_owned_arcs == pytest.approx(
            sharded.num_arcs / 4)
        assert sharded.arc_skew == pytest.approx(
            sharded.max_owned_arcs / sharded.mean_owned_arcs)
        assert sharded.arc_skew >= 1.0
        assert sharded.halo_bytes > 0
        assert 0.0 < sharded.boundary_fraction
        # Degenerate: no arcs at all.
        _, empty = build([], 0, 3)
        assert empty.arc_skew == 1.0
        assert empty.boundary_fraction == 0.0

    def test_single_shard_has_no_halo(self):
        edges, n = social_graph(120, 2, 6, seed=8)
        storage, sharded = build(edges, n, 1)
        assert sharded.num_boundary == 0
        assert sharded.halo_bytes == 0
        assert sharded.boundary_fraction == 0.0
        assert sharded.arc_skew == pytest.approx(1.0)
        assert sharded.max_owned_arcs == storage.num_arcs

    def test_halo_bytes_count_node_and_boundary_entries(self):
        from repro.storage import layout

        edges, n = social_graph(120, 2, 6, seed=8)
        _, sharded = build(edges, n, 4)
        assert sharded.halo_bytes == sharded.num_boundary * (
            layout.NODE_ENTRY_SIZE + layout.EDGE_ENTRY_SIZE)
        assert sharded.boundary_fraction == pytest.approx(
            sharded.num_boundary / n)


class TestBuildInvariants:
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 7, 9])
    def test_paper_graph_roundtrip(self, num_shards):
        edges, n = paper_example_graph()
        storage, sharded = build(edges, n, num_shards)
        assert sharded.num_nodes == n
        assert sharded.num_arcs == storage.num_arcs
        assert sum(s.num_owned for s in sharded.shards) == n
        for v in range(n):
            assert list(sharded.neighbors(v)) == \
                list(storage.neighbors(v))

    def test_boundary_tables_sorted_and_disjoint(self):
        rng = random.Random(11)
        n = 60
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.08]
        storage, sharded = build(edges, n, 5)
        for shard in sharded.shards:
            ids = list(shard.boundary_ids())
            assert ids == sorted(set(ids))
            assert all(not shard.start <= g < shard.stop for g in ids)
            assert len(ids) == shard.num_boundary
            # Every boundary id really is a cross-shard neighbour.
            seen = set()
            for v in range(shard.start, shard.stop):
                for g in storage.neighbors(v):
                    if not shard.start <= g < shard.stop:
                        seen.add(int(g))
            assert set(ids) == seen

    def test_local_adjacency_remaps_exactly(self):
        rng = random.Random(3)
        n = 40
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.15]
        storage, sharded = build(edges, n, 3)
        for shard in sharded.shards:
            boundary = shard.boundary_ids()
            for v in range(shard.start, shard.stop):
                local = shard.graph.neighbors(v - shard.start)
                back = shard.to_global(local, boundary)
                assert list(back) == list(storage.neighbors(v))
            # Halo rows store no adjacency of their own.
            for k in range(shard.num_boundary):
                assert len(shard.graph.neighbors(shard.num_owned + k)) \
                    == 0

    def test_owned_degrees_preserved(self):
        edges, n = social_graph(120, 2, 6, seed=4)
        storage, sharded = build(edges, n, 4)
        for shard in sharded.shards:
            for v in range(shard.start, shard.stop):
                assert shard.graph.degree(v - shard.start) == \
                    storage.degree(v)

    def test_empty_graph_and_more_shards_than_nodes(self):
        storage, sharded = build([], 0, 3)
        assert sharded.num_arcs == 0
        assert all(s.num_local == 0 for s in sharded.shards)
        edges, n = paper_example_graph()
        _, oversharded = build(edges, n, n)
        assert sum(s.num_owned for s in oversharded.shards) == n
        ref = GraphStorage.from_edges(edges, n)
        for v in range(n):
            assert list(oversharded.neighbors(v)) == \
                list(ref.neighbors(v))


class TestStatsAndDevices:
    def test_single_shared_iostats(self):
        edges, n = paper_example_graph()
        stats = IOStats()
        storage = GraphStorage.from_edges(edges, n)
        sharded = ShardedGraphStorage.from_storage(storage, 3,
                                                   stats=stats)
        assert sharded.io_stats is stats
        for shard in sharded.shards:
            assert shard.graph.node_device.stats is stats
            assert shard.graph.edge_device.stats is stats
            assert shard.boundary_device.stats is stats
        before = stats.read_ios
        sharded.neighbors(0)
        assert stats.read_ios > before

    def test_shard_reads_never_touch_other_shards(self):
        """A per-shard scan must not issue reads on other shards."""
        edges, n = social_graph(90, 2, 5, seed=1)
        storage, sharded = build(edges, n, 3)
        target = sharded.shards[1]

        def explode(*args, **kwargs):
            raise AssertionError("foreign shard device was read")

        for shard in sharded.shards:
            if shard is not target:
                shard.graph.node_device.read_at = explode
                shard.graph.edge_device.read_at = explode
                shard.boundary_device.read_at = explode
        # Full scan + per-node reads of the target shard only.
        for _ in target.graph.iter_adjacency():
            pass
        for v in range(target.num_local):
            target.graph.neighbors(v)

    def test_file_backed_shards(self, tmp_path):
        edges, n = paper_example_graph()
        storage = GraphStorage.from_edges(edges, n)
        prefix = str(tmp_path / "g")
        sharded = ShardedGraphStorage.from_storage(storage, 2,
                                                   path=prefix)
        for i, shard in enumerate(sharded.shards):
            assert shard.path == "%s.shard%d" % (prefix, i)
            for suffix in (".nodes", ".edges", ".boundary"):
                assert os.path.exists(shard.path + suffix)
        for v in range(n):
            assert list(sharded.neighbors(v)) == \
                list(storage.neighbors(v))
        sharded.close()
        # The shard tables are plain GraphStorage tables: reopenable.
        reopened = GraphStorage.open(sharded.shards[0].path)
        assert reopened.num_nodes == sharded.shards[0].num_local
        reopened.close()

    def test_max_shard_nodes_and_boundary_totals(self):
        edges, n = social_graph(100, 2, 6, seed=9)
        _, sharded = build(edges, n, 4)
        assert sharded.max_shard_nodes == \
            max(s.num_local for s in sharded.shards)
        assert sharded.num_boundary == \
            sum(s.num_boundary for s in sharded.shards)

    def test_shard_of_and_range_check(self):
        edges, n = paper_example_graph()
        _, sharded = build(edges, n, 3)
        for v in range(n):
            shard = sharded.shard_of(v)
            assert shard.start <= v < shard.stop
        with pytest.raises(GraphError):
            sharded.shard_of(n)
        with pytest.raises(GraphError):
            sharded.shard_of(-1)

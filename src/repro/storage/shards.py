"""Node-range sharding of a stored graph.

:class:`ShardedGraphStorage` splits a :class:`~repro.storage.GraphStorage`
into ``num_shards`` contiguous node-range shards, the partitioning step of
the sharded decomposition driver (:mod:`repro.core.sharded`).  The layout
follows Gao et al. ("K-Core Decomposition on Super Large Graphs with
Limited Resources", PAPERS.md): partition the node id space, keep each
partition's state bounded, and exchange boundary estimates between
passes.

Each shard is itself a :class:`GraphStorage` -- a per-shard node/edge
block-device pair -- so the whole I/O model carries over unchanged: the
one-block read cache, the :meth:`~repro.storage.GraphStorage.\
iter_adjacency_chunks` scan protocol, and the CSR snapshot fast path all
work per shard exactly as they do on the unsharded tables.  Every shard
device shares one :class:`~repro.storage.blockio.IOStats`, so
``sharded.io_stats`` reports the combined figure.

Shard layout
------------
Shard ``i`` owns the contiguous global id range ``[bounds[i],
bounds[i+1])``; the fenceposts split the id range evenly
(:func:`shard_bounds`).  Its local tables hold ``num_owned +
num_boundary`` nodes:

* local ids ``[0, num_owned)`` are the owned nodes (global id minus
  ``start``), each storing its full adjacency -- intra-shard neighbours
  remapped to owned local ids, cross-shard neighbours remapped to *halo*
  local ids;
* local ids ``[num_owned, num_owned + num_boundary)`` are halo rows:
  one per distinct cross-shard neighbour, with an empty adjacency.

The cross-shard edges are therefore materialized inside the shard's own
edge table, and the *boundary table* (a third per-shard device) records
the sorted global ids behind the halo rows.  A shard pass reads only the
shard's three devices; resolving a halo row's current core estimate is
the driver's boundary-exchange step, not the pass's.

Invariants (asserted by ``tests/test_shards.py``):

* the owned ranges partition ``[0, num_nodes)``;
* boundary ids are strictly ascending and never fall in the owned range;
* remapping a shard's local adjacency through the boundary table
  reproduces the source graph's adjacency exactly;
* the sum of owned degrees over all shards equals ``num_arcs``.
"""

from __future__ import annotations

import os
from array import array
from bisect import bisect_right

from repro.errors import GraphError
from repro.storage import layout
from repro.storage.blockio import (
    DEFAULT_BLOCK_SIZE,
    FileBlockDevice,
    IOStats,
    MemoryBlockDevice,
)
from repro.storage.graphstore import GraphStorage

BOUNDARY_SUFFIX = ".boundary"


def shard_bounds(num_nodes, num_shards):
    """Even contiguous node-range split: ``num_shards + 1`` fenceposts."""
    if num_shards < 1:
        raise GraphError("num_shards must be >= 1, got %d" % num_shards)
    return [i * num_nodes // num_shards for i in range(num_shards + 1)]


class Shard:
    """One contiguous node-range shard of a sharded graph."""

    __slots__ = ("index", "start", "stop", "graph", "boundary_device",
                 "path")

    def __init__(self, index, start, stop, graph, boundary_device,
                 path=None):
        self.index = index
        self.start = start
        self.stop = stop
        self.graph = graph
        self.boundary_device = boundary_device
        self.path = path

    @property
    def num_owned(self):
        """Number of nodes this shard owns (its global id range)."""
        return self.stop - self.start

    @property
    def num_boundary(self):
        """Number of halo rows (distinct cross-shard neighbours)."""
        return self.graph.num_nodes - self.num_owned

    @property
    def num_local(self):
        """Total local rows: owned plus halo."""
        return self.graph.num_nodes

    @property
    def num_arcs(self):
        """Adjacency entries stored in this shard (owned rows only)."""
        return self.graph.num_arcs

    def boundary_ids(self):
        """Sorted global ids of the halo rows (one sequential read)."""
        count = self.num_boundary
        ids = array(layout.EDGE_TYPECODE)
        if count:
            data = self.boundary_device.read_at(
                layout.HEADER_SIZE, count * layout.EDGE_ENTRY_SIZE
            )
            ids.frombytes(data)
        return ids

    def to_global(self, local_ids, boundary=None):
        """Map local ids (owned or halo) back to global ids."""
        if boundary is None:
            boundary = self.boundary_ids()
        owned = self.num_owned
        out = array(layout.EDGE_TYPECODE)
        for v in local_ids:
            if v < owned:
                out.append(self.start + v)
            else:
                out.append(boundary[v - owned])
        return out

    def close(self):
        """Close the shard's three backing devices."""
        self.graph.close()
        self.boundary_device.close()

    def __repr__(self):
        return "Shard(%d, [%d, %d), halo=%d)" % (
            self.index, self.start, self.stop, self.num_boundary
        )


class ShardedGraphStorage:
    """A graph split into contiguous node-range shards."""

    def __init__(self, shards, num_nodes, num_arcs, stats, bounds):
        self.shards = list(shards)
        self.num_nodes = num_nodes
        self.num_arcs = num_arcs
        self._stats = stats
        self.bounds = list(bounds)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_storage(cls, storage, num_shards, *, path=None,
                     block_size=None, stats=None):
        """Split ``storage`` into ``num_shards`` node-range shards.

        The source graph is read with one sequential scan (charged to its
        own accounting); each shard's tables are written through devices
        sharing one ``stats`` instance (fresh by default -- the sharded
        decomposition driver passes the source's so one figure covers the
        whole pipeline).  ``path`` selects file-backed shards written to
        ``<path>.shard<i>.nodes/.edges/.boundary``; the default keeps
        them in counting memory devices.

        Only one shard's staging state is resident at a time, so the
        build itself respects the ``O(max shard)`` memory bound of the
        sharded decomposition.
        """
        stats = stats if stats is not None else IOStats()
        if block_size is None:
            block_size = getattr(storage, "block_size", DEFAULT_BLOCK_SIZE)
        n = storage.num_nodes
        bounds = shard_bounds(n, num_shards)
        shards = []
        num_arcs = 0
        for index in range(num_shards):
            start, stop = bounds[index], bounds[index + 1]
            shard = _build_shard(storage, index, start, stop, path,
                                 block_size, stats)
            num_arcs += shard.num_arcs
            shards.append(shard)
        return cls(shards, n, num_arcs, stats, bounds)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_shards(self):
        return len(self.shards)

    @property
    def num_edges(self):
        """Number of undirected edges (half the adjacency entries)."""
        return self.num_arcs // 2

    @property
    def io_stats(self):
        """Combined I/O counters of every shard device."""
        return self._stats

    @property
    def max_shard_nodes(self):
        """Largest per-shard row count (owned + halo) -- the memory unit."""
        return max((s.num_local for s in self.shards), default=0)

    @property
    def num_boundary(self):
        """Total halo rows over all shards (cross-shard edge endpoints)."""
        return sum(s.num_boundary for s in self.shards)

    @property
    def max_owned_arcs(self):
        """Largest per-shard owned adjacency count (the slowest pass)."""
        return max((s.num_arcs for s in self.shards), default=0)

    @property
    def mean_owned_arcs(self):
        """Average per-shard owned adjacency count (``m / p``)."""
        if not self.shards:
            return 0.0
        return self.num_arcs / len(self.shards)

    @property
    def arc_skew(self):
        """``max / mean`` owned arcs: 1.0 is a perfectly balanced split."""
        mean = self.mean_owned_arcs
        if mean == 0:
            return 1.0
        return self.max_owned_arcs / mean

    @property
    def halo_bytes(self):
        """Bytes spent on halo state over all shards.

        Each halo row costs a node-table entry (empty adjacency) plus
        one boundary-table entry recording its global id.
        """
        per_row = layout.NODE_ENTRY_SIZE + layout.EDGE_ENTRY_SIZE
        return self.num_boundary * per_row

    @property
    def boundary_fraction(self):
        """Halo rows per owned node -- the cross-shard coupling measure."""
        if self.num_nodes == 0:
            return 0.0
        return self.num_boundary / self.num_nodes

    def shard_of(self, v):
        """The shard owning global node ``v``."""
        if not 0 <= v < self.num_nodes:
            raise GraphError(
                "node %d out of range [0, %d)" % (v, self.num_nodes)
            )
        return self.shards[bisect_right(self.bounds, v) - 1]

    def neighbors(self, v):
        """Global-id adjacency of ``v``, served from its shard only."""
        shard = self.shard_of(v)
        local = shard.graph.neighbors(v - shard.start)
        return shard.to_global(local)

    def close(self):
        """Close every shard's devices."""
        for shard in self.shards:
            shard.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def __repr__(self):
        return "ShardedGraphStorage(n=%d, m=%d, shards=%d)" % (
            self.num_nodes, self.num_edges, self.num_shards
        )


# ----------------------------------------------------------------------
# internals
# ----------------------------------------------------------------------

def _build_shard(storage, index, start, stop, path, block_size, stats):
    """Stage and write one shard from a range scan of the source."""
    rows = []
    boundary_set = set()
    for _, nbrs in storage.iter_adjacency(start, stop):
        rows.append(nbrs)
        for g in nbrs:
            if not start <= g < stop:
                boundary_set.add(int(g))
    boundary = sorted(boundary_set)
    owned = stop - start
    halo_base = owned
    halo_of = {g: halo_base + k for k, g in enumerate(boundary)}

    def local_rows():
        for nbrs in rows:
            yield array(layout.EDGE_TYPECODE,
                        (int(g) - start if start <= g < stop
                         else halo_of[int(g)] for g in nbrs))
        for _ in boundary:
            yield ()

    shard_path = None
    if path is not None:
        shard_path = "%s.shard%d" % (os.fspath(path), index)
    graph = GraphStorage.from_adjacency(
        local_rows(), owned + len(boundary), path=shard_path,
        block_size=block_size, stats=stats,
    )
    boundary_device = _boundary_device(shard_path, block_size, stats)
    boundary_device.write_at(0, layout.pack_header(
        layout.TABLE_BOUNDARY, len(boundary), owned))
    if boundary:
        boundary_device.write_at(
            layout.HEADER_SIZE,
            array(layout.EDGE_TYPECODE, boundary).tobytes(),
        )
    return Shard(index, start, stop, graph, boundary_device,
                 path=shard_path)


def _boundary_device(shard_path, block_size, stats):
    if shard_path is None:
        return MemoryBlockDevice(block_size=block_size, stats=stats)
    return FileBlockDevice(shard_path + BOUNDARY_SUFFIX, "w+",
                           block_size=block_size, stats=stats)

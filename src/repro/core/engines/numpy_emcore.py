"""NumPy-vectorized EMCore kernel (the ``numpy`` engine's Algorithm 2).

The reference EMCore spends its time in two heap-driven peels --
:func:`~repro.core.emcore._peel_with_support` over dict-of-list
subgraphs -- executed once per partition during partitioning and once
per loaded partition union per round.  This module keeps the reference's
*round structure* byte for byte (the same partitions, the same greedy
``[kl, ku]`` selection, the same write-back and merge decisions) while
replacing every peel and every adjacency materialization with array
kernels:

* the partitioning pass decodes the graph once into a
  :class:`~repro.storage.csr.CSRGraph` snapshot (the identical
  sequential-scan reads of the reference's ``iter_adjacency`` pass) and
  derives partition boundaries with ``searchsorted`` over the degree
  prefix sums -- the same greedy "flush when the next adjacency would
  overflow ``partition_arcs``" rule;
* partitions serialize through
  :mod:`repro.storage.partition_codec` -- byte-identical payloads, so
  the write-I/O figures match the reference block for block, and reads
  decode via ``np.frombuffer`` into CSR slices with no per-edge Python
  objects;
* :func:`_peel_values` is a bin-bucket peel with level jumps: it
  produces the same generalized peel values as the reference's lazy-heap
  peel because those values are unique (the largest ``k`` such that the
  node survives at level ``k`` does not depend on tie-breaking).

Exactness of the observable counters follows from determinism: peel
values are unique, so the finalized sets, deposits, refreshed upper
bounds, partition contents and merge decisions -- and therefore
``iterations``, ``node_computations`` and every read/write I/O --
evolve identically to the reference run.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.engines.numpy_engine import _as_core_array
from repro.core.result import DecompositionResult, io_delta, io_snapshot
from repro.core.sharded import get_executor
from repro.errors import GraphError
from repro.storage.csr import CSRGraph
from repro.storage.partition import PartitionStore
from repro.storage.partition_codec import (
    RECORD_OVERHEAD,
    decode_csr,
    encode_csr,
)

__all__ = ["em_core_numpy"]


def _gather_rows(indptr, indices, rows):
    """Concatenate the adjacency slices of ``rows``.

    Returns ``(flat, counts)`` where ``flat`` holds the neighbour ids of
    every listed row laid out row after row and ``counts`` the per-row
    lengths.
    """
    counts = indptr[rows + 1] - indptr[rows]
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=indices.dtype), counts
    starts = np.zeros(len(rows), dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    positions = np.arange(total, dtype=np.int64) + \
        np.repeat(indptr[rows] - starts, counts)
    return indices[positions], counts


def _peel_values(indptr, indices, eff):
    """Vectorized generalized peel over a local-id CSR subgraph.

    ``eff`` holds each node's starting effective degree (decrementable
    local degree plus immortal support) and is consumed in place.  The
    returned value of a node is the level at which it peels away -- the
    unique largest ``k`` such that the node survives peeling at ``k`` --
    matching the reference lazy-heap peel.  Levels jump straight to the
    minimum surviving effective degree, so sparse level ranges (large
    immortal supports) cost nothing.
    """
    p = indptr.size - 1
    value = np.zeros(p, dtype=np.int64)
    alive = np.ones(p, dtype=bool)
    remaining = p
    level = 0
    empty = np.zeros(0, dtype=np.int64)
    while remaining:
        floor = int(eff[alive].min())
        if floor > level:
            level = floor
        frontier = np.flatnonzero(alive & (eff <= level))
        while frontier.size:
            value[frontier] = level
            alive[frontier] = False
            remaining -= int(frontier.size)
            nbr, _ = _gather_rows(indptr, indices, frontier)
            live = nbr[alive[nbr]] if nbr.size else empty
            if live.size:
                eff -= np.bincount(live, minlength=p)
                touched = np.unique(live)
                frontier = touched[eff[touched] <= level]
            else:
                frontier = empty
    return value


class _Renumber:
    """Reusable global->local id mapping (sparse reset between uses)."""

    def __init__(self, n):
        self._loc = np.full(n, -1, dtype=np.int64)

    def induce(self, nodes, indptr, indices):
        """Local CSR of the subgraph induced by ``nodes``.

        Returns ``(local_indptr, local_indices, local_degrees)`` where
        entries of ``indices`` outside ``nodes`` are dropped (they are
        the peel's immortal support, accounted by the caller).
        """
        p = len(nodes)
        loc = self._loc
        loc[nodes] = np.arange(p, dtype=np.int64)
        mapped = loc[indices]
        keep = mapped >= 0
        row = np.repeat(np.arange(p, dtype=np.int64), np.diff(indptr))
        local_deg = np.bincount(row[keep], minlength=p)
        local_indptr = np.zeros(p + 1, dtype=np.int64)
        np.cumsum(local_deg, out=local_indptr[1:])
        local_indices = mapped[keep]
        loc[nodes] = -1
        return local_indptr, local_indices, local_deg


def _partition_ub_task_numpy(task):
    """Executor task: pseudo-peel one partition from its CSR slices.

    ``task`` is ``(part, sub_indptr, sub_indices, part_degrees)``.
    ``part`` is sorted ascending, so a ``searchsorted`` rebuild of the
    local id mapping reproduces :meth:`_Renumber.induce` exactly without
    the O(n) scratch array -- the task stays a pure, picklable function
    of its slices (deposits are all zero during partitioning), which is
    what lets any shard executor run it in a worker process.
    """
    part, sub_indptr, sub_indices, part_degrees = task
    mapped = np.searchsorted(part, sub_indices)
    in_range = mapped < len(part)
    keep = np.zeros(len(sub_indices), dtype=bool)
    keep[in_range] = part[mapped[in_range]] == sub_indices[in_range]
    row = np.repeat(np.arange(len(part), dtype=np.int64),
                    np.diff(sub_indptr))
    local_deg = np.bincount(row[keep], minlength=len(part))
    l_indptr = np.zeros(len(part) + 1, dtype=np.int64)
    np.cumsum(local_deg, out=l_indptr[1:])
    external = part_degrees - local_deg
    return _peel_values(l_indptr, mapped[keep], local_deg + external)


def em_core_numpy(storage, *, memory_budget_bytes=None, partition_arcs=None,
                  merge_partitions=True, executor=None):
    """Vectorized Algorithm 2 with reference-identical semantics."""
    started = time.perf_counter()
    snapshot = io_snapshot(storage)
    n = storage.num_nodes
    num_arcs = storage.num_arcs
    if partition_arcs is None:
        partition_arcs = max(1024, num_arcs // 64)
    if memory_budget_bytes is None:
        memory_budget_bytes = max(1 << 16, num_arcs)

    core = np.full(n, -1, dtype=np.int64)
    deposit = np.zeros(n, dtype=np.int64)
    ub = np.zeros(n, dtype=np.int64)
    renumber = _Renumber(n)

    store = PartitionStore(block_size=storage.block_size,
                           stats=getattr(storage, "io_stats", None))
    metas = {}
    computations = 0

    # ------------------------------------------------------------------
    # Partitioning pass: one CSR snapshot (the identical sequential-scan
    # reads of the reference pass), greedy contiguous ranges, local ubs.
    # ------------------------------------------------------------------
    csr = CSRGraph.from_graph(storage)
    snapshot_bytes = csr.model_memory_bytes()
    g_indptr = csr.indptr
    g_indices = csr.indices.astype(np.int64)
    degrees = csr.degrees()
    core[degrees == 0] = 0
    nonzero = np.flatnonzero(degrees)

    # Upper-bound pseudo-peels drain through the shard executor in
    # waves of one task per worker (deposits are all zero here, so the
    # tasks are pure functions of their CSR slices); partitions are
    # still written in scan order, keeping pids and metas identical to
    # the serial run.
    exec_obj = get_executor(executor)
    owns_executor = executor is None or isinstance(executor, str)
    wave = max(1, exec_obj.processes)
    pending_ubs = []  # (pid, size, part, sub_indptr, sub_indices)

    def drain_ubs():
        nonlocal computations
        if not pending_ubs:
            return
        batch = pending_ubs[:]
        del pending_ubs[:]
        results = exec_obj.run(
            _partition_ub_task_numpy,
            [(part, sub_indptr, sub_indices, degrees[part])
             for _, _, part, sub_indptr, sub_indices in batch])
        for (pid, size, part, _, _), values in zip(batch, results):
            computations += len(part)
            ub[part] = values
            metas[pid] = {
                "bytes": size,
                "max_ub": int(values.max()),
                "nodes": len(part),
            }

    bounds = np.zeros(len(nonzero) + 1, dtype=np.int64)
    np.cumsum(degrees[nonzero], out=bounds[1:])
    start = 0
    try:
        while start < len(nonzero):
            # Largest prefix whose total adjacency fits partition_arcs;
            # a single oversized adjacency forms its own partition --
            # exactly the reference's "flush before the overflowing
            # node" rule.
            stop = int(np.searchsorted(bounds,
                                       bounds[start] + partition_arcs,
                                       side="right")) - 1
            stop = min(max(stop, start + 1), len(nonzero))
            part = nonzero[start:stop]
            start = stop

            sub_indptr = np.zeros(len(part) + 1, dtype=np.int64)
            np.cumsum(degrees[part], out=sub_indptr[1:])
            # Members are a contiguous id range (zero-degree nodes
            # between them hold no arcs), so their payload is one
            # snapshot slice.
            sub_indices = g_indices[g_indptr[part[0]]:g_indptr[part[-1] + 1]]

            pid, size = store.write_bytes(encode_csr(part, sub_indptr,
                                                     sub_indices))
            pending_ubs.append((pid, size, part, sub_indptr, sub_indices))
            if len(pending_ubs) >= wave:
                drain_ubs()
        drain_ubs()
    finally:
        if owns_executor:
            exec_obj.close()

    # ------------------------------------------------------------------
    # Top-down range computation (identical round structure).
    # ------------------------------------------------------------------
    rounds = 0
    peak_loaded = 0
    while metas:
        rounds += 1
        groups = {}
        for pid, meta in metas.items():
            groups.setdefault(meta["max_ub"], []).append(pid)
        ordered = sorted(groups.items(), reverse=True)
        ku = ordered[0][0]

        selected = []
        loaded_bytes = 0
        kl = 1
        for bound, pids in ordered:
            group_bytes = sum(metas[p]["bytes"] for p in pids)
            if selected and loaded_bytes + group_bytes > memory_budget_bytes:
                kl = bound + 1
                break
            selected.extend(pids)
            loaded_bytes += group_bytes
        kl = max(1, min(kl, ku))
        exhaustive = len(selected) == len(metas)
        peak_loaded = max(peak_loaded, loaded_bytes)

        chunks = []
        mem_nodes_parts = []
        mem_deg_parts = []
        mem_idx_parts = []
        for pid in selected:
            nodes_p, indptr_p, indices_p = decode_csr(store.read_bytes(pid))
            chunks.append((pid, nodes_p, indptr_p, indices_p))
            alive_rows = np.flatnonzero(core[nodes_p] < 0)
            if len(alive_rows) == len(nodes_p):
                mem_nodes_parts.append(nodes_p)
                mem_deg_parts.append(np.diff(indptr_p))
                mem_idx_parts.append(indices_p)
            elif alive_rows.size:
                flat, counts = _gather_rows(indptr_p, indices_p, alive_rows)
                mem_nodes_parts.append(nodes_p[alive_rows])
                mem_deg_parts.append(counts)
                mem_idx_parts.append(flat)

        mem_nodes = (np.concatenate(mem_nodes_parts) if mem_nodes_parts
                     else np.zeros(0, dtype=np.int64))
        mem_deg = (np.concatenate(mem_deg_parts) if mem_deg_parts
                   else np.zeros(0, dtype=np.int64))
        mem_indices = (np.concatenate(mem_idx_parts) if mem_idx_parts
                       else np.zeros(0, dtype=np.int64))
        mem_indptr = np.zeros(len(mem_nodes) + 1, dtype=np.int64)
        np.cumsum(mem_deg, out=mem_indptr[1:])

        if len(mem_nodes):
            l_indptr, l_indices, _ = renumber.induce(
                mem_nodes, mem_indptr, mem_indices)
            local_deg = np.diff(l_indptr)
            values = _peel_values(l_indptr, l_indices,
                                  local_deg + deposit[mem_nodes])
            computations += len(mem_nodes)

            if exhaustive:
                fin_rows = np.arange(len(mem_nodes), dtype=np.int64)
            else:
                fin_rows = np.flatnonzero(values >= kl)
            core[mem_nodes[fin_rows]] = values[fin_rows]
            nbr_fin, _ = _gather_rows(mem_indptr, mem_indices, fin_rows)
            alive_nbr = nbr_fin[core[nbr_fin] < 0] if nbr_fin.size else nbr_fin
            if alive_nbr.size:
                deposit += np.bincount(alive_nbr, minlength=n)

        # Write back shrunken partitions, refreshing upper bounds.
        survivors_small = []
        cap = kl - 1
        for pid, nodes_p, indptr_p, indices_p in chunks:
            rem_rows = np.flatnonzero(core[nodes_p] < 0)
            if rem_rows.size == 0:
                store.delete(pid)
                metas.pop(pid)
                continue
            rem_nodes = nodes_p[rem_rows]
            flat, counts = _gather_rows(indptr_p, indices_p, rem_rows)
            keep = core[flat] < 0
            row = np.repeat(np.arange(len(rem_rows), dtype=np.int64), counts)
            f_deg = np.bincount(row[keep], minlength=len(rem_rows))
            f_indices = flat[keep]
            f_indptr = np.zeros(len(rem_rows) + 1, dtype=np.int64)
            np.cumsum(f_deg, out=f_indptr[1:])

            l_indptr, l_indices, local_deg = renumber.induce(
                rem_nodes, f_indptr, f_indices)
            external = f_deg - local_deg
            refreshed = _peel_values(l_indptr, l_indices,
                                     local_deg + external +
                                     deposit[rem_nodes])
            computations += len(rem_nodes)

            bound = np.minimum(np.minimum(ub[rem_nodes], cap), refreshed)
            zero = bound <= 0
            core[rem_nodes[zero]] = 0
            kept_rows = np.flatnonzero(~zero)
            if kept_rows.size == 0:
                store.delete(pid)
                metas.pop(pid)
                continue
            kept_nodes = rem_nodes[kept_rows]
            ub[kept_nodes] = bound[kept_rows]
            kept_flat, kept_counts = _gather_rows(f_indptr, f_indices,
                                                  kept_rows)
            # Re-filtering on core < 0 drops exactly the entries this
            # partition just finalized to zero.
            keep2 = core[kept_flat] < 0
            krow = np.repeat(np.arange(len(kept_rows), dtype=np.int64),
                             kept_counts)
            k_deg = np.bincount(krow[keep2], minlength=len(kept_rows))
            k_indptr = np.zeros(len(kept_rows) + 1, dtype=np.int64)
            np.cumsum(k_deg, out=k_indptr[1:])
            size = store.rewrite_bytes(
                pid, encode_csr(kept_nodes, k_indptr, kept_flat[keep2]))
            metas[pid] = {
                "bytes": size,
                "max_ub": int(ub[kept_nodes].max()),
                "nodes": len(kept_nodes),
            }
            if merge_partitions and size < partition_arcs * 2:
                survivors_small.append(pid)

        if merge_partitions and len(survivors_small) > 1:
            _merge_small_partitions(store, metas, survivors_small,
                                    partition_arcs, ub)

    unknown = np.flatnonzero(core < 0)
    if unknown.size:
        raise GraphError(
            "EMCore left %d nodes unfinalized (first: %d)"
            % (int(unknown.size), int(unknown[0]))
        )

    elapsed = time.perf_counter() - started
    # Honest engine memory: the loaded-partition peak and O(n) arrays of
    # the reference, plus the CSR snapshot this engine holds while
    # partitioning.
    model_memory = peak_loaded + 12 * n + snapshot_bytes
    return DecompositionResult(
        algorithm="EMCore",
        cores=_as_core_array(core),
        iterations=rounds,
        node_computations=computations,
        io=io_delta(storage, snapshot),
        elapsed_seconds=elapsed,
        model_memory_bytes=model_memory,
        engine="numpy",
    )


def _merge_small_partitions(store, metas, small_pids, partition_arcs, ub):
    """Greedy repack of small partitions (reference merge, CSR payloads)."""
    small_pids = [pid for pid in small_pids if pid in metas]
    if len(small_pids) < 2:
        return

    def flush(bucket):
        nodes = np.concatenate([c[0] for c in bucket])
        indices = np.concatenate([c[2] for c in bucket])
        degs = np.concatenate([np.diff(c[1]) for c in bucket])
        indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
        np.cumsum(degs, out=indptr[1:])
        pid, size = store.write_bytes(encode_csr(nodes, indptr, indices))
        metas[pid] = {
            "bytes": size,
            "max_ub": int(ub[nodes].max()),
            "nodes": len(nodes),
        }

    bucket = []
    bucket_words = 0
    for pid in small_pids:
        chunk = decode_csr(store.read_bytes(pid))
        store.delete(pid)
        metas.pop(pid)
        words = int(chunk[1][-1]) + RECORD_OVERHEAD * len(chunk[0])
        if bucket and bucket_words + words > partition_arcs:
            flush(bucket)
            bucket = []
            bucket_words = 0
        bucket.append(chunk)
        bucket_words += words
    if bucket:
        flush(bucket)

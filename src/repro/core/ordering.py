"""Degeneracy orderings and the classic k-core applications.

The paper's introduction motivates core decomposition through its
downstream uses: clique finding, dense subgraph discovery, graph
colouring.  This module implements the standard reductions, all driven
by the peeling order that IMCore already produces:

* :func:`degeneracy_ordering` -- the smallest-degree-last elimination
  order; every node has at most ``kmax`` later neighbours.
* :func:`greedy_coloring` -- colouring along that order needs at most
  ``kmax + 1`` colours.
* :func:`clique_number_upper_bound` -- the clique number is at most
  ``kmax + 1``.
* :func:`densest_core` -- the core level maximising average degree, the
  standard peeling 1/2-approximation of the densest subgraph.
"""

from __future__ import annotations

from repro.core.imcore import bin_sort_core, _load_adjacency
from repro.core.kcore import k_core_nodes


def degeneracy_ordering(graph):
    """Return ``(order, cores)``: the peeling order and core numbers.

    ``order`` lists the nodes in removal order; when node ``order[i]`` is
    peeled, at most ``cores[order[i]] <= kmax`` of its neighbours remain,
    which is the property the applications below exploit.
    """
    n = graph.num_nodes
    offsets, targets = _load_adjacency(graph)
    degree = [offsets[v + 1] - offsets[v] for v in range(n)]
    cores, _ = bin_sort_core(offsets, targets, n)

    # Recover the removal order: sort by (core, original peel sequence).
    # Peeling again with a deterministic bucket queue keeps it exact.
    removed = [False] * n
    remaining = list(degree)
    buckets = {}
    for v in range(n):
        buckets.setdefault(remaining[v], set()).add(v)
    order = []
    current = 0
    for _ in range(n):
        while current not in buckets or not buckets[current]:
            buckets.pop(current, None)
            current += 1
            if current > n:
                raise AssertionError("peeling ran out of nodes")
        v = min(buckets[current])
        buckets[current].discard(v)
        removed[v] = True
        order.append(v)
        for j in range(offsets[v], offsets[v + 1]):
            u = targets[j]
            if not removed[u]:
                buckets[remaining[u]].discard(u)
                remaining[u] -= 1
                buckets.setdefault(remaining[u], set()).add(u)
                if remaining[u] < current:
                    current = remaining[u]
    return order, cores


def greedy_coloring(graph, order=None):
    """Colour the graph along a degeneracy ordering.

    Returns a list of colour ids; uses at most ``degeneracy + 1``
    colours, the classic bound from Matula and Beck.
    """
    if order is None:
        order, _ = degeneracy_ordering(graph)
    colors = [-1] * graph.num_nodes
    # Colour in *reverse* peel order so each node sees <= kmax coloured
    # neighbours when its turn comes.
    for v in reversed(order):
        taken = {colors[u] for u in graph.neighbors(v) if colors[u] >= 0}
        color = 0
        while color in taken:
            color += 1
        colors[v] = color
    return colors


def clique_number_upper_bound(cores):
    """Every clique of size ``q`` lives inside the (q-1)-core."""
    return (max(cores) + 1) if len(cores) else 0


def densest_core(graph, cores=None):
    """The core level with the highest average degree.

    Returns ``(k, nodes, density)`` where density is ``|E|/|V|`` of the
    k-core.  Peeling is the standard 1/2-approximation of the densest
    subgraph problem (Charikar), and scanning the core levels gives its
    best suffix.
    """
    if cores is None:
        _, cores = degeneracy_ordering(graph)
    kmax = max(cores) if len(cores) else 0
    best = (0, list(range(graph.num_nodes)), 0.0)
    for k in range(1, kmax + 1):
        member_list = k_core_nodes(cores, k)
        members = set(member_list)
        if not members:
            continue
        internal = 0
        for v in member_list:
            for u in graph.neighbors(v):
                if u > v and u in members:
                    internal += 1
        density = internal / len(members)
        if density > best[2]:
            best = (k, sorted(members), density)
    return best

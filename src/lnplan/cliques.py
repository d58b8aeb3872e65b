"""Enumeration of one-vertex-per-partition cliques in a partitioned graph.

Depth-first search over partitions ordered by ascending alive count
(`consistency.search_order`; `build_graph` keeps it in the graph's `order`).
The candidate set is a bitset intersection of the chosen vertices' search
rows (`ConsistencyGraph.search_rows`), which hold each vertex's edges toward
the partitions bound after it, and each partition's vertices are drawn from
its pool (`ConsistencyGraph.pools`). A graph without search rows, static or
hand-built, is searched over its derived adjacency; a built graph's is never
read here. Output is a lazy stream; each clique is reported as a vertex-id
tuple ordered by partition index, and the emission order is deterministic
for a fixed graph. The search runs in one generator frame over an explicit
per-depth stack, so a clique costs one resumption of it, whatever k is. A
successor generator keys the ground actions it has built by these tuples,
so a clique it has seen in an earlier state costs it one lookup
(`successors`).

A graph's elements on three or more variables (`ConsistencyGraph.wide`) are
decided in the search: each one's check narrows the pool of its last
partition in that order, at the depth where its other partitions are bound.
The checks only prune, so the cliques that remain come in the same order.
"""

from __future__ import annotations

from typing import Callable, Iterator

from .consistency import ConsistencyGraph, search_order


def iter_cliques(graph: ConsistencyGraph) -> Iterator[tuple[int, ...]]:
    """All k-cliques of the graph that its wide elements allow, each exactly once."""
    k, pools = graph.k, graph.pools
    if graph.empty or 0 in pools:
        return
    if k == 0:
        yield ()
        return
    n = graph.n_objects
    order = graph.order or search_order(graph.alive)
    partition_masks = [pools[p] << (p * n) for p in order]
    chosen = [0] * k
    full = (1 << (k * n)) - 1
    checks: list[tuple[Callable, ...]] = [()] * k
    for partitions, narrowing in graph.wide:
        depth = max(map(order.index, partitions))
        checks[depth] += (narrowing(order[depth], n),)
    rows = graph.adjacency if graph.search_rows is None else graph.search_rows
    # one frame for the whole search: per depth, the candidates it was
    # entered with and the vertices of its pool not tried yet
    top = k - 1
    cands, untried = [0] * k, [0] * k
    depth, candidates = 0, full
    while True:
        pool = candidates & partition_masks[depth]
        for narrow in checks[depth]:
            if not pool:
                break
            pool = narrow(chosen, pool)
        if depth == top:
            p = order[top]
            while pool:
                low = pool & -pool
                pool ^= low
                chosen[p] = low.bit_length() - 1
                yield tuple(chosen)
            depth -= 1
        else:
            cands[depth], untried[depth] = candidates, pool
        # the next vertex to try, at the deepest depth that has one left
        # whose row leaves candidates for the depth below it
        while True:
            if depth < 0:
                return
            pool = untried[depth]
            if not pool:
                depth -= 1
                continue
            low = pool & -pool
            untried[depth] = pool ^ low
            v = low.bit_length() - 1
            chosen[order[depth]] = v
            candidates = cands[depth] & rows[v]
            if candidates:
                depth += 1
                break

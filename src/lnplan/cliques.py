"""Enumeration of one-vertex-per-partition cliques in a partitioned graph.

Depth-first search over partitions ordered by ascending alive count
(`consistency.search_order`). The candidate set is a bitset intersection of
the chosen vertices' search rows (`ConsistencyGraph.search_rows`), which
hold each vertex's edges toward the partitions bound after it, and each
partition's vertices are drawn from its pool (`ConsistencyGraph.pools`). A
graph without search rows, static or hand-built, is searched over its
derived adjacency; a built graph's is never read here. Output is a lazy
stream; each clique is reported as a vertex-id tuple ordered by partition
index, and the emission order is deterministic for a fixed graph.

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
    k = graph.k
    if graph.empty or any(mask == 0 for mask in graph.pools):
        return
    if k == 0:
        yield ()
        return
    n = graph.n_objects
    order = search_order(graph.alive)
    partition_masks = [graph.pools[p] << (p * n) for p in order]
    chosen = [0] * k
    full = (1 << (k * n)) - 1
    checks: list[list[Callable]] = [[] for _ in order]
    for partitions, narrowing in graph.wide:
        depth = max(map(order.index, partitions))
        checks[depth].append(narrowing(order[depth], n))
    rows = graph.adjacency if graph.search_rows is None else graph.search_rows
    yield from _extend(0, full, order, partition_masks, rows, chosen, checks)


def _extend(depth: int, candidates: int, order: list[int], partition_masks: list[int],
            rows: list[int], chosen: list[int],
            checks: list[list[Callable]]) -> Iterator[tuple[int, ...]]:
    # module-level rather than a closure, which would keep the graph in a
    # reference cycle after the enumeration
    pool = candidates & partition_masks[depth]
    for narrow in checks[depth]:
        if not pool:
            return
        pool = narrow(chosen, pool)
    last = depth + 1 == len(order)
    while pool:
        low = pool & -pool
        pool ^= low
        v = low.bit_length() - 1
        chosen[order[depth]] = v
        if last:
            yield tuple(chosen)
        else:
            narrowed = candidates & rows[v]
            if narrowed:
                yield from _extend(depth + 1, narrowed, order, partition_masks,
                                   rows, chosen, checks)

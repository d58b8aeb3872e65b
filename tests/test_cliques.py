import itertools
import random

from lnplan.cliques import iter_cliques
from lnplan.consistency import ConsistencyGraph, search_order
from lnplan.model import ActionSchema, Object, Variable


def make_graph(k, objects_per_partition, edges, alive=None):
    """Hand-built partitioned graph; edges as ((p1, o1), (p2, o2)) pairs, p1 < p2."""
    params = tuple(Variable(f"?v{i}") for i in range(k))
    schema = ActionSchema("g", params)
    objects = tuple(Object(f"o{i}") for i in range(objects_per_partition))
    n = objects_per_partition
    rows = {pair: [0] * n for pair in itertools.combinations(range(k), 2)}
    for (p1, o1), (p2, o2) in edges:
        rows[p1, p2][o1] |= 1 << o2
    everything = (1 << n) - 1
    graph = ConsistencyGraph(
        schema=schema,
        objects=objects,
        alive=[0] * k,
        parts=[(p1, p2, everything, everything, r) for (p1, p2), r in rows.items()],
    )
    if alive is None:
        alive = {(p, o) for p in range(k) for o in range(n)}
    for p, o in alive:
        graph.alive[p] |= 1 << o
    return graph


def brute_cliques(graph):
    """Filter all vertex tuples by pairwise adjacency."""
    pools = [[graph.vertex_id(p, o) for o in graph.iter_alive(p)] for p in range(graph.k)]
    out = set()
    for combo in itertools.product(*pools):
        if all(
            graph.has_edge(v, w) for v, w in itertools.combinations(combo, 2)
        ):
            out.add(combo)
    return out


def test_complete_bipartite_two_by_two():
    edges = [((0, a), (1, b)) for a in range(2) for b in range(2)]
    graph = make_graph(2, 2, edges)
    assert len(list(iter_cliques(graph))) == 4


def test_empty_partition_yields_nothing():
    graph = make_graph(3, 2, [], alive={(0, 0), (1, 0)})  # partition 2 empty
    assert list(iter_cliques(graph)) == []


def test_single_partition_yields_vertices():
    graph = make_graph(1, 3, [], alive={(0, 0), (0, 2)})
    assert list(iter_cliques(graph)) == [(0,), (2,)]


def test_random_graphs_match_brute_force():
    rng = random.Random(31)
    for _ in range(200):
        k = rng.randint(1, 4)
        n = rng.randint(1, 5)
        edges = []
        for p1 in range(k):
            for p2 in range(p1 + 1, k):
                for o1 in range(n):
                    for o2 in range(n):
                        if rng.random() < 0.55:
                            edges.append(((p1, o1), (p2, o2)))
        alive = {(p, o) for p in range(k) for o in range(n) if rng.random() < 0.85}
        graph = make_graph(k, n, edges, alive)
        got = set(iter_cliques(graph))
        assert got == brute_cliques(graph)
        # each clique is reported once, ordered by partition
        listed = list(iter_cliques(graph))
        assert len(listed) == len(got)


def test_each_clique_vertex_belongs_to_its_partition():
    rng = random.Random(77)
    for _ in range(50):
        k, n = rng.randint(2, 4), rng.randint(2, 4)
        edges = [
            ((p1, o1), (p2, o2))
            for p1 in range(k)
            for p2 in range(p1 + 1, k)
            for o1 in range(n)
            for o2 in range(n)
            if rng.random() < 0.7
        ]
        graph = make_graph(k, n, edges)
        for clique in iter_cliques(graph):
            for p, v in enumerate(clique):
                assert p * n <= v < (p + 1) * n


def test_result_set_stable_across_partition_orderings():
    # the size-based branch order is an internal detail: permuting partition
    # sizes by padding must not change the clique set
    rng = random.Random(5)
    edges = []
    k, n = 3, 4
    for p1 in range(k):
        for p2 in range(p1 + 1, k):
            for o1 in range(n):
                for o2 in range(n):
                    if rng.random() < 0.6:
                        edges.append(((p1, o1), (p2, o2)))
    # uneven aliveness forces a non-trivial branch order
    alive_a = {(0, o) for o in range(4)} | {(1, o) for o in range(2)} | {(2, o) for o in range(3)}
    alive_b = {(0, o) for o in range(4)} | {(1, o) for o in range(4)} | {(2, o) for o in range(4)}
    g_a = make_graph(k, n, edges, alive_a)
    g_b = make_graph(k, n, edges, alive_b)
    assert set(iter_cliques(g_a)) <= set(iter_cliques(g_b))
    assert set(iter_cliques(g_a)) == brute_cliques(g_a)


def test_enumeration_is_lazy():
    edges = [((0, a), (1, b)) for a in range(3) for b in range(3)]
    graph = make_graph(2, 3, edges)
    stream = iter_cliques(graph)
    first = next(stream)
    assert first in brute_cliques(graph)
    rest = list(stream)
    assert len(rest) == 8
    # the search has gone no further than the first clique when it is out
    calls = []
    graph.wide = (((0, 1), lambda last, n: lambda chosen, pool: calls.append(1) or pool),)
    stream = iter_cliques(graph)
    next(stream)
    assert len(calls) == 1
    assert len(list(stream)) == 8 and len(calls) == 3


def reference_cliques(graph):
    """The clique search as one recursive generator per depth, which the
    single-frame search must match clique for clique, in order."""
    k = graph.k
    if graph.empty or any(mask == 0 for mask in graph.pools):
        return
    if k == 0:
        yield ()
        return
    n = graph.n_objects
    order = search_order(graph.alive)
    partition_masks = [graph.pools[p] << (p * n) for p in order]
    checks = [[] for _ in order]
    for partitions, narrowing in graph.wide:
        depth = max(map(order.index, partitions))
        checks[depth].append(narrowing(order[depth], n))
    rows = graph.adjacency if graph.search_rows is None else graph.search_rows
    yield from _extend(0, (1 << (k * n)) - 1, order, partition_masks, rows, [0] * k, checks)


def _extend(depth, candidates, order, partition_masks, rows, chosen, checks):
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


def _random_wide(rng, k, n):
    """A check on a random set of partitions that keeps a random share of
    their object tuples, in the shape of `ConsistencyGraph.wide`."""
    partitions = tuple(sorted(rng.sample(range(k), rng.randint(1, k))))
    kept = {combo for combo in itertools.product(range(n), repeat=len(partitions))
            if rng.random() < 0.7}

    def narrowing(last, n):
        def check(chosen, pool):
            for v in range(last * n, (last + 1) * n):
                held = tuple(v - last * n if p == last else chosen[p] - p * n
                             for p in partitions)
                if pool >> v & 1 and held not in kept:
                    pool ^= 1 << v
            return pool
        return check

    return partitions, narrowing


def test_emission_order_matches_the_recursive_search():
    rng = random.Random(2024)
    pruned = 0
    for trial in range(400):
        k, n = rng.randint(1, 5), rng.randint(1, 5)
        edges = [((p1, o1), (p2, o2))
                 for p1 in range(k) for p2 in range(p1 + 1, k)
                 for o1 in range(n) for o2 in range(n) if rng.random() < 0.6]
        alive = {(p, o) for p in range(k) for o in range(n) if rng.random() < 0.85}
        graph = make_graph(k, n, edges, alive)
        if trial % 2:
            graph.search_rows = graph.adjacency
            graph.pools = [mask & rng.getrandbits(n) | mask & 1 for mask in graph.alive]
        plain = list(iter_cliques(graph))
        assert plain == list(reference_cliques(graph))
        graph.wide = tuple(_random_wide(rng, k, n) for _ in range(rng.randint(1, 3)))
        checked = list(iter_cliques(graph))
        assert checked == list(reference_cliques(graph))
        assert set(checked) <= set(plain)
        pruned += len(checked) < len(plain)
    assert pruned > 50

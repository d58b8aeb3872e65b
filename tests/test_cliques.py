import itertools
import random

from lnplan.cliques import iter_cliques
from lnplan.consistency import ConsistencyGraph
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

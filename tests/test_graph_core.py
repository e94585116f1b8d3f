"""Graph model, girth, cycles, s-arcs, and coverage predicates."""

import itertools
import random

import pytest

from cubicsym import (
    Graph,
    GraphConstructionError,
    build_graph,
    canonical_form,
    catalog_graph,
    catalog_names,
    cycles_of_length,
    enumerate_cubic,
    every_3_arc_in_cycle,
    every_edge_in_cycle,
    girth,
    s_arcs,
)
from cubicsym.graph import edge_components, is_bridge

from conftest import (distance_profiles, random_cubic, random_graph,
                      reference_bridges, reference_edge_components,
                      reference_is_connected, s_arc_count)


def k4():
    return build_graph(4, list(itertools.combinations(range(4), 2)))


def path(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


# ---------------------------------------------------------------------------
# construction

def test_single_vertex_graph_is_acyclic():
    g = build_graph(1, [])
    assert g.n == 1 and g.m == 0
    assert girth(g) is None


def test_k4_all_degrees_three():
    g = k4()
    assert all(g.degree(v) == 3 for v in range(4))


def test_hexagonal_k33_is_isomorphic_to_catalog_k33():
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
                        (0, 3), (1, 4), (2, 5)])
    assert canonical_form(g) == canonical_form(catalog_graph("k33"))


@pytest.mark.parametrize(
    "n,edges,fragment",
    [
        (3, [(1, 1)], "loop"),
        (3, [(0, 5)], "range"),
        (3, [(0, 1), (1, 0)], "duplicate"),
    ],
)
def test_construction_errors_name_the_pair(n, edges, fragment):
    with pytest.raises(GraphConstructionError) as err:
        build_graph(n, edges)
    assert fragment in str(err.value)


def test_adjacency_is_sorted_and_symmetric(rng):
    for _ in range(20):
        g = random_graph(9, 0.4, rng)
        for u in range(g.n):
            assert list(g.adj[u]) == sorted(g.adj[u])
            for w in g.adj[u]:
                assert u in g.adj[w]
                assert u != w


def test_from_bits_reads_ascending_rows():
    # relabelling builds ascending rows and the bitmasks of the same sets
    g = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]).relabel([1, 2, 3, 0])
    assert g.adj == ((1, 2), (0, 2, 3), (0, 1, 3), (1, 2))
    assert g.adj_bits == (0b0110, 0b1101, 0b1011, 0b0110)
    assert g == build_graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    assert build_graph(0, []).relabel([]).n == 0


def test_relabel_matches_sorted_row_construction(rng):
    graphs = [catalog_graph(name) for name in ("petersen", "heawood", "pappus")]
    graphs += [random_graph(n, 0.3, rng) for n in (0, 1, 7, 40)]
    for g in graphs:
        for _ in range(5):
            images = list(range(g.n))
            rng.shuffle(images)
            adj = [[] for _ in range(g.n)]
            for u in range(g.n):
                adj[images[u]] = sorted(images[w] for w in g.adj[u])
            ref = Graph(g.n, adj)
            h = g.relabel(images)
            assert (h.n, h.adj, h.adj_bits) == (ref.n, ref.adj, ref.adj_bits)


# ---------------------------------------------------------------------------
# girth

def test_girth_examples():
    assert [girth(cycle(k)) for k in range(3, 13)] == list(range(3, 13))
    assert girth(catalog_graph("k33")) == 4
    assert girth(catalog_graph("petersen")) == 5
    assert girth(catalog_graph("heawood")) == 6
    assert girth(catalog_graph("tutte_coxeter")) == 8
    assert girth(path(5)) is None
    assert girth(build_graph(0, [])) is None


def _theta(*lengths):
    """Two hubs 0 and 1 joined by internally disjoint paths of the given
    lengths; its cycles have the sums of two lengths."""
    edges, top = [], 2
    for length in lengths:
        chain = [0] + list(range(top, top + length - 1)) + [1]
        top += length - 1
        edges += zip(chain, chain[1:])
    return build_graph(top, edges)


def _union(*graphs):
    edges, shift = [], 0
    for g in graphs:
        edges += [(u + shift, w + shift) for u, w in g.edges()]
        shift += g.n
    return build_graph(shift, edges)


@pytest.mark.parametrize("graph, expected", [
    # a 5- and a 6-cycle both first fall short of a tree at layer 3 from
    # their vertices; only the odd one has an edge inside layer 2
    (_union(cycle(6), cycle(5)), 5),
    (_union(cycle(6), cycle(7)), 6),
    (_theta(2, 3, 3), 5),  # cycles 5, 5, 6
    (_theta(3, 3, 4), 6),  # cycles 6, 7, 7
    (_theta(1, 3, 4), 4),  # cycles 4, 5, 7
])
def test_girth_separates_odd_from_even(graph, expected):
    assert girth(graph) == expected


def test_girth_agrees_with_cycle_enumeration(rng):
    graphs = [random_graph(10, 0.25, rng) for _ in range(30)]
    graphs += [g for n in range(4, 11, 2) for g in enumerate_cubic(n)]
    graphs += [catalog_graph(name) for name in catalog_names()
               if not name.endswith("(...)")]
    for g in graphs:
        length = girth(g)
        if length is None:
            for size in range(3, g.n + 1):
                assert not cycles_of_length(g, size)
        else:
            assert cycles_of_length(g, length)
            for shorter in range(3, length):
                assert not cycles_of_length(g, shorter)


def test_distance_profiles_histogram_counts_each_row(rng):
    graphs = [random_graph(9, 0.2, rng) for _ in range(20)] + [path(5)]
    for g in graphs:
        dists, profiles = distance_profiles(g)
        for v in range(g.n):
            assert dists[v][v] == 0
            counts = {}
            for d in dists[v]:
                counts[d] = counts.get(d, 0) + 1
            assert profiles[v] == tuple(sorted(counts.items()))
    assert distance_profiles(path(5))[0][1] == [1, 0, 1, 2, 3]


# ---------------------------------------------------------------------------
# cycle enumeration

def test_cycle_counts():
    assert len(cycles_of_length(cycle(6), 6)) == 1
    assert len(cycles_of_length(k4(), 3)) == 4


def least_rotation_or_reflection(seq):
    return min(s[r:] + s[:r] for s in (seq, seq[::-1]) for r in range(len(s)))


def brute_force_cycles(g, length):
    """Independent oracle: scan all vertex subsets and cyclic orders."""
    found = set()
    for subset in itertools.combinations(range(g.n), length):
        first = subset[0]
        rest = subset[1:]
        for order in itertools.permutations(rest):
            seq = (first,) + order
            if all(g.has_edge(seq[i], seq[(i + 1) % length])
                   for i in range(length)):
                found.add(least_rotation_or_reflection(seq))
    return found


def test_petersen_pentagons_against_brute_force():
    g = catalog_graph("petersen")
    expected = brute_force_cycles(g, 5)
    assert len(expected) == 12
    assert set(cycles_of_length(g, 5)) == expected


def test_cycles_against_brute_force_random(rng):
    for _ in range(10):
        g = random_graph(8, 0.35, rng)
        for length in (3, 4, 5):
            assert set(cycles_of_length(g, length)) == brute_force_cycles(g, length)


def test_no_duplicate_cycles_up_to_rotation_reflection():
    for name in ("petersen", "heawood", "pappus"):
        g = catalog_graph(name)
        seqs = cycles_of_length(g, girth(g))
        # canonical representatives are unique per cycle
        assert len(seqs) == len(set(seqs))
        for vs in seqs:
            g_len = len(vs)
            variants = set()
            for seq in (vs, vs[::-1]):
                for r in range(g_len):
                    variants.add(seq[r:] + seq[:r])
            assert min(variants) == vs


# ---------------------------------------------------------------------------
# s-arcs

def test_s_arc_counts():
    assert s_arc_count(k4(), 1) == 12  # 2|E|
    assert s_arc_count(catalog_graph("heawood"), 4) == 336  # 14 * 3 * 2^3
    assert s_arc_count(cycle(5), 3) == 10


def test_cubic_s_arc_identity_and_enumeration(rng):
    for _ in range(5):
        g = random_cubic(10, rng, connected=True)
        for s in range(1, 7):
            count = s_arc_count(g, s)
            assert count == 10 * 3 * 2 ** (s - 1)
            assert count == sum(1 for _ in s_arcs(g, s))


def test_s_arcs_are_valid():
    g = catalog_graph("petersen")
    for arc in s_arcs(g, 3):
        for i in range(3):
            assert g.has_edge(arc[i], arc[i + 1])
        for i in range(2):
            assert arc[i] != arc[i + 2]


# ---------------------------------------------------------------------------
# coverage predicates

def test_coverage_examples():
    heawood = catalog_graph("heawood")
    assert every_3_arc_in_cycle(heawood, 6)
    lam = catalog_graph("fig5_lambda")
    assert every_3_arc_in_cycle(lam, 6) is False
    assert every_edge_in_cycle(path(7), 6) is False


def test_fig5_lambda_coverage_split():
    lam = catalog_graph("fig5_lambda")
    assert every_edge_in_cycle(lam, 6)
    assert not every_3_arc_in_cycle(lam, 6)


# ---------------------------------------------------------------------------
# reachability: connectivity, edge-subset components and the bridge test

def _bridges(g):
    return {e for e in g.edges() if is_bridge(g.adj_bits, *e)}


def test_bridges(rng):
    g = build_graph(7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3),
                        (5, 6)])
    assert _bridges(g) == {(2, 3), (5, 6)}
    assert _bridges(catalog_graph("petersen")) == set()


def _reachability_grid():
    """Seeded G(n, p) graphs for n <= 30 from sparse to dense, the graphs
    on 0, 1 and 2 vertices, and the census to 10."""
    rng = random.Random(3101)
    graphs = [build_graph(n, []) for n in (0, 1, 2)] + [build_graph(2, [(0, 1)])]
    graphs += [random_graph(n, p, rng) for n in range(31)
               for p in (0.03, 0.08, 0.15, 0.3, 0.6) for _ in range(2)]
    graphs += [g for n in (4, 6, 8, 10) for g in enumerate_cubic(n)]
    return graphs


def test_reachability_matches_the_dfs_references():
    # the bitmask walk against the three traversals it replaced: the stack
    # DFS of connectivity, the incident-list DFS of edge-subset components
    # (on every edge and on every other one) and the lowpoint DFS of the
    # bridges, asked of every edge in both directions
    graphs = _reachability_grid()
    for g in graphs:
        assert g.is_connected() == reference_is_connected(g)
        for edges in (g.edges(), g.edges()[::2]):
            assert edge_components(g.n, edges) == reference_edge_components(g.n, edges)
        bridges = reference_bridges(g)
        for u, w in g.edges():
            assert is_bridge(g.adj_bits, u, w) == is_bridge(g.adj_bits, w, u) \
                == ((u, w) in bridges)
    # forests, isolated vertices and disconnected graphs all occur
    assert sum(g.m and len(reference_bridges(g)) == g.m for g in graphs) > 20
    assert sum(g.m and any(not row for row in g.adj) for g in graphs) > 20
    assert sum(not g.is_connected() for g in graphs) > 100


def test_edge_components_numbered_by_least_vertex():
    # two triangles, 5-1-6 and 2-3-4, and the untouched vertices 0 and 7
    edges = [(2, 3), (3, 4), (2, 4), (5, 6), (1, 5), (1, 6)]
    assert edge_components(8, edges) == [-1, 0, 1, 1, 1, 0, 0, -1]
    assert edge_components(3, []) == [-1, -1, -1]

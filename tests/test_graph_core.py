"""Graph model, girth, cycles, s-arcs, and coverage predicates."""

import itertools

import pytest

from cubicsym import (
    CycleSeq,
    GraphConstructionError,
    build_graph,
    canonical_form,
    catalog_graph,
    cycles_of_length,
    every_3_arc_in_cycle,
    every_edge_in_cycle,
    girth,
    s_arc_count,
    s_arcs,
)
from cubicsym.graph import bridges, edge_components

from conftest import random_cubic, random_graph


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
    assert girth(g).acyclic


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


# ---------------------------------------------------------------------------
# girth

def test_girth_examples():
    assert girth(catalog_graph("petersen")).length == 5
    assert girth(catalog_graph("heawood")).length == 6
    assert girth(path(5)).acyclic


def test_girth_witness_is_a_shortest_cycle():
    for name in ("k4", "k33", "petersen", "heawood", "fig5_lambda"):
        res = girth(catalog_graph(name))
        assert res.witness is not None
        assert res.witness.length == res.length


def test_girth_agrees_with_cycle_enumeration(rng):
    for _ in range(30):
        g = random_graph(10, 0.25, rng)
        res = girth(g)
        if res.acyclic:
            for length in range(3, 11):
                assert not cycles_of_length(g, length)
        else:
            assert cycles_of_length(g, res.length)
            for length in range(3, res.length):
                assert not cycles_of_length(g, length)


# ---------------------------------------------------------------------------
# cycle enumeration

def test_cycle_counts():
    assert len(cycles_of_length(cycle(6), 6)) == 1
    assert len(cycles_of_length(k4(), 3)) == 4


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
                found.add(CycleSeq.from_vertices(g, seq))
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
        seqs = cycles_of_length(g, girth(g).length)
        # canonical representatives are unique per cycle
        assert len(seqs) == len(set(seqs))
        for c in seqs:
            vs = c.vertices
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
# bridges helper

def test_bridges(rng):
    g = build_graph(7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3),
                        (5, 6)])
    assert bridges(g) == {(2, 3), (5, 6)}
    assert bridges(catalog_graph("petersen")) == set()


def test_edge_components_numbered_by_least_vertex():
    # two triangles, 5-1-6 and 2-3-4, and the untouched vertices 0 and 7
    edges = [(2, 3), (3, 4), (2, 4), (5, 6), (1, 5), (1, 6)]
    assert edge_components(8, edges) == [-1, 0, 1, 1, 1, 0, 0, -1]
    assert edge_components(3, []) == [-1, -1, -1]

"""Permutations, group closure, orbits, and stabilizers."""

import itertools
import random

import pytest

from cubicsym import (
    Action,
    GroupTooLargeError,
    automorphism_group,
    catalog_graph,
    catalog_names,
    close_generators,
    cycle_notation,
    enumerate_cubic,
    orbits,
    stabilizer,
)

from cubicsym.enumeration import _edge_pair_reps

from conftest import FIXED_CATALOG, random_cubic, random_relabel


def test_non_bijection_rejected():
    with pytest.raises(ValueError):
        close_generators([(0, 0, 1)])
    with pytest.raises(ValueError):
        close_generators([(0, 1, 3)])


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        close_generators([(1, 0), (0, 2, 1)])
    with pytest.raises(ValueError):
        close_generators([(1, 0)], degree=3)


def test_cycle_notation():
    assert cycle_notation((1, 2, 0, 4, 3)) == "(0 1 2)(3 4)"
    assert cycle_notation((0, 3, 2, 1)) == "(1 3)"
    assert cycle_notation((0, 1, 2)) == "()"
    assert cycle_notation(()) == "()"


# ---------------------------------------------------------------------------
# closure

def test_empty_generating_set_gives_trivial_group():
    g = close_generators([], degree=5)
    assert g.order == 1


def test_symmetric_group_closure():
    g = close_generators([(1, 0, 2, 3), (1, 2, 3, 0)])
    assert g.order == 24
    assert g.elements == tuple(itertools.permutations(range(4)))


def test_close_generators_accepts_lists():
    g = close_generators([[1, 0, 2, 3], [1, 2, 3, 0]])
    assert g.generators == ((1, 0, 2, 3), (1, 2, 3, 0))
    assert g.elements == close_generators([(1, 0, 2, 3), (1, 2, 3, 0)]).elements


def test_closure_cap_raises():
    gens = [(1, 0, 2, 3, 4, 5, 6, 7), (1, 2, 3, 4, 5, 6, 7, 0)]
    with pytest.raises(GroupTooLargeError) as err:
        close_generators(gens, cap=100)
    assert "100" in str(err.value)


def test_closure_of_petersen_generators_has_order_120():
    group = automorphism_group(catalog_graph("petersen"))
    regen = close_generators(group.generators, degree=10)
    assert regen.order == 120
    assert regen.elements == group.elements  # deterministic ordering


def test_closure_skips_redundant_generators():
    group = automorphism_group(catalog_graph("petersen"))
    padded = [tuple(range(10))] + list(group.elements[1:]) * 2
    regen = close_generators(padded, degree=10)
    assert regen.elements == group.elements
    assert regen.generators == tuple(padded)


def test_elements_are_sorted_lexicographically():
    group = automorphism_group(catalog_graph("k33"))
    assert list(group.elements) == sorted(group.elements)


def test_identity_comes_first_in_groups_and_stabilizers():
    graphs = [g for n in range(4, 11, 2) for g in enumerate_cubic(n)]
    graphs += [catalog_graph(name) for name in FIXED_CATALOG]
    for g in graphs:
        ident = tuple(range(g.n))
        group = automorphism_group(g)
        assert group.elements[0] == ident
        for pts in ((0,), (g.n - 1,), (0, 1), g.adj[0], (g.n - 1, 0, g.n // 2)):
            stab = stabilizer(group, pts)
            assert stab.elements[0] == ident
            assert all(p[v] == v for p in stab.elements for v in pts)


# ---------------------------------------------------------------------------
# orbits

def test_trivial_group_gives_singleton_orbits():
    k4 = catalog_graph("k4")
    trivial = close_generators([], degree=4)
    assert orbits(trivial.generators, Action.VERTICES, k4) == ((0,), (1,), (2,), (3,))


def test_petersen_has_one_edge_orbit():
    g = catalog_graph("petersen")
    assert len(orbits(automorphism_group(g).generators, Action.EDGES, g)) == 1


def test_truncated_icosahedron_edge_orbits_30_and_60():
    g = catalog_graph("truncated_icosahedron")
    orbs = orbits(automorphism_group(g).generators, Action.EDGES, g)
    sizes = sorted(len(o) for o in orbs)
    assert sizes == [30, 60]
    assert sum(sizes) == g.m == 90


def test_orbit_blocks_are_a_partition_closed_under_generators(rng):
    g = random_cubic(12, rng, connected=True)
    group = automorphism_group(g)
    blocks = orbits(group.generators, Action.VERTICES, g)
    seen = [v for b in blocks for v in b]
    assert sorted(seen) == list(range(g.n))
    for block in blocks:
        s = set(block)
        for gen in group.generators:
            assert {gen[v] for v in s} == s


def _edge_pair_reps_by_elements(graph, group):
    """Reference: the least pair of each orbit, found by applying every
    group element to each new representative."""
    seen = set()
    reps = []
    for e1, e2 in itertools.combinations(graph.edges(), 2):
        if frozenset((e1, e2)) in seen:
            continue
        reps.append((e1, e2))
        for p in group.elements:
            f1 = tuple(sorted((p[e1[0]], p[e1[1]])))
            f2 = tuple(sorted((p[e2[0]], p[e2[1]])))
            seen.add(frozenset((f1, f2)))
    return reps


def test_edge_pair_orbits_match_the_element_walk():
    # the census's edge-pair walk, on each graph and a seeded relabelling
    graphs = [g for n in range(4, 11, 2) for g in enumerate_cubic(n)]
    graphs += [catalog_graph(name) for name in catalog_names()
               if not name.endswith("(...)")]
    rng = random.Random(2929)
    for g in graphs + [random_relabel(g, rng) for g in graphs]:
        group = automorphism_group(g)
        assert _edge_pair_reps(g, group.generators) == (
            _edge_pair_reps_by_elements(g, group))


# ---------------------------------------------------------------------------
# stabilizers

def test_petersen_vertex_stabilizer_order_12():
    g = catalog_graph("petersen")
    group = automorphism_group(g)
    assert stabilizer(group, [0]).order == 12


def test_icosahedron_vertex_stabilizer_order_10():
    from cubicsym.catalog import icosahedron

    g, _ = icosahedron()
    group = automorphism_group(g)
    assert stabilizer(group, [0]).order == 10


def test_orbit_stabilizer_identity_on_catalog_graphs():
    for name in ("k4", "k33", "cube", "petersen", "heawood", "pappus",
                 "desargues", "fig5_lambda", "tutte_coxeter"):
        g = catalog_graph(name)
        group = automorphism_group(g)
        blocks = orbits(group.generators, Action.VERTICES, g)
        for block in blocks:
            v = block[0]
            stab = stabilizer(group, [v])
            assert len(block) * stab.order == group.order


def test_unmaterialized_group_rejected():
    from cubicsym.perm import PermutationGroup

    empty = PermutationGroup(3, (), ())
    with pytest.raises(ValueError):
        stabilizer(empty, [0])

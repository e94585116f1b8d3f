"""Permutations, group closure, orbits, and stabilizers."""

import itertools
import random

import pytest

from cubicsym import (
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

from cubicsym.autgrp import search_generators
from cubicsym.enumeration import _edge_pair_reps
from cubicsym.perm import edge_perms

from conftest import FIXED_CATALOG, random_cubic, random_relabel


def test_non_bijection_rejected():
    with pytest.raises(ValueError):
        close_generators([(0, 0, 1)], 3)
    with pytest.raises(ValueError):
        close_generators([(0, 1, 3)], 3)


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        close_generators([(1, 0), (0, 2, 1)], 2)
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
    assert g == ((0, 1, 2, 3, 4),)


def test_symmetric_group_closure():
    g = close_generators([(1, 0, 2, 3), (1, 2, 3, 0)], 4)
    assert len(g) == 24
    assert g == tuple(itertools.permutations(range(4)))


def test_close_generators_accepts_lists():
    g = close_generators([[1, 0, 2, 3], [1, 2, 3, 0]], 4)
    assert g == close_generators([(1, 0, 2, 3), (1, 2, 3, 0)], 4)


def test_closure_cap_raises():
    gens = [(1, 0, 2, 3, 4, 5, 6, 7), (1, 2, 3, 4, 5, 6, 7, 0)]
    with pytest.raises(GroupTooLargeError) as err:
        close_generators(gens, 8, cap=100)
    assert "100" in str(err.value)


def test_closure_of_petersen_generators_has_order_120():
    g = catalog_graph("petersen")
    group = automorphism_group(g)
    regen = close_generators(search_generators(g), degree=10)
    assert len(regen) == 120
    assert regen == group  # deterministic ordering


def test_closure_skips_redundant_generators():
    group = automorphism_group(catalog_graph("petersen"))
    padded = [tuple(range(10))] + list(group[1:]) * 2
    regen = close_generators(padded, degree=10)
    assert regen == group


def test_elements_are_sorted_lexicographically():
    group = automorphism_group(catalog_graph("k33"))
    assert list(group) == sorted(group)


def test_identity_comes_first_in_groups_and_stabilizers():
    graphs = [g for n in range(4, 11, 2) for g in enumerate_cubic(n)]
    graphs += [catalog_graph(name) for name in FIXED_CATALOG]
    for g in graphs:
        ident = tuple(range(g.n))
        group = automorphism_group(g)
        assert group[0] == ident
        for pts in ((0,), (g.n - 1,), (0, 1), g.adj[0], (g.n - 1, 0, g.n // 2)):
            stab = stabilizer(group, pts)
            assert stab[0] == ident
            assert all(p[v] == v for p in stab for v in pts)


# ---------------------------------------------------------------------------
# orbits

def _edge_orbits(g):
    edges = g.edges()
    return orbits(edge_perms(search_generators(g), edges), edges)


def test_trivial_group_gives_singleton_orbits():
    singletons = ((0,), (1,), (2,), (3,))
    assert orbits([], range(4)) == singletons
    assert orbits(close_generators([], degree=4), range(4)) == singletons


def test_orbit_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        orbits([(1, 0, 2)], range(2))
    with pytest.raises(ValueError):
        orbits([(1, 0), (0, 1, 2)], [(0, 1), (1, 2)])


def test_petersen_has_one_edge_orbit():
    assert len(_edge_orbits(catalog_graph("petersen"))) == 1


def test_truncated_icosahedron_edge_orbits_30_and_60():
    g = catalog_graph("truncated_icosahedron")
    orbs = _edge_orbits(g)
    sizes = sorted(len(o) for o in orbs)
    assert sizes == [30, 60]
    assert sum(sizes) == g.m == 90


def test_orbit_blocks_are_a_partition_closed_under_generators(rng):
    g = random_cubic(12, rng, connected=True)
    gens = search_generators(g)
    blocks = orbits(gens, range(g.n))
    seen = [v for b in blocks for v in b]
    assert sorted(seen) == list(range(g.n))
    for block in blocks:
        s = set(block)
        for gen in gens:
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
        for p in group:
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
        assert _edge_pair_reps(g, search_generators(g)) == (
            _edge_pair_reps_by_elements(g, group))


# ---------------------------------------------------------------------------
# stabilizers

def test_petersen_vertex_stabilizer_order_12():
    g = catalog_graph("petersen")
    group = automorphism_group(g)
    assert len(stabilizer(group, [0])) == 12


def test_icosahedron_vertex_stabilizer_order_10():
    from cubicsym.catalog import icosahedron

    g, _ = icosahedron()
    group = automorphism_group(g)
    assert len(stabilizer(group, [0])) == 10


def test_orbit_stabilizer_identity_on_catalog_graphs():
    for name in ("k4", "k33", "cube", "petersen", "heawood", "pappus",
                 "desargues", "fig5_lambda", "tutte_coxeter"):
        g = catalog_graph(name)
        group = automorphism_group(g)
        blocks = orbits(search_generators(g), range(g.n))
        for block in blocks:
            v = block[0]
            stab = stabilizer(group, [v])
            assert len(block) * len(stab) == len(group)


def test_unmaterialized_group_rejected():
    # the empty tuple holds no identity; a point past the degree is no vertex
    with pytest.raises(ValueError):
        stabilizer((), [0])
    with pytest.raises(ValueError):
        stabilizer(close_generators([], degree=3), [3])

"""Permutations, group closure, orbits, and stabilizers."""

import itertools

import pytest

from cubicsym import (
    Action,
    GroupTooLargeError,
    Permutation,
    automorphism_group,
    catalog_graph,
    catalog_names,
    close_generators,
    enumerate_cubic,
    orbits,
    stabilizer,
)

from conftest import random_cubic


def test_identity_and_inverse_laws(rng):
    for _ in range(20):
        images = list(range(7))
        rng.shuffle(images)
        p = Permutation(tuple(images))
        ident = Permutation.identity(7)
        assert ident * p == p
        assert p * ident == p
        assert p * p.inverse() == ident
        assert p.inverse() * p == ident


def test_cycle_application():
    p = Permutation.from_cycles(3, [(0, 1, 2)])
    assert p.apply(2) == 0
    assert (p * p).apply(2) == 1


def test_composition_order():
    p = Permutation.from_cycles(3, [(0, 1)])
    q = Permutation.from_cycles(3, [(1, 2)])
    # (p * q)(x) = p(q(x)): q sends 1 to 2, then p fixes 2
    assert (p * q).apply(1) == 2


def test_non_bijection_rejected():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        Permutation((0, 1)) * Permutation((0, 1, 2))


def test_cycle_notation():
    p = Permutation.from_cycles(5, [(0, 1, 2), (3, 4)])
    assert p.cycle_notation() == "(0 1 2)(3 4)"
    assert Permutation.identity(3).cycle_notation() == "()"


# ---------------------------------------------------------------------------
# closure

def test_empty_generating_set_gives_trivial_group():
    g = close_generators([], degree=5)
    assert g.order == 1


def test_symmetric_group_closure():
    g = close_generators(
        [Permutation.from_cycles(4, [(0, 1)]), Permutation.from_cycles(4, [(0, 1, 2, 3)])]
    )
    assert g.order == 24


def test_closure_cap_raises():
    gens = [
        Permutation.from_cycles(8, [(0, 1)]),
        Permutation.from_cycles(8, [tuple(range(8))]),
    ]
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
    padded = [Permutation.identity(10)] + list(group.non_identity()) * 2
    regen = close_generators(padded, degree=10)
    assert regen.elements == group.elements
    assert regen.generators == tuple(padded)


def test_elements_are_sorted_lexicographically():
    group = automorphism_group(catalog_graph("k33"))
    images = [p.images for p in group.elements]
    assert images == sorted(images)


# ---------------------------------------------------------------------------
# orbits

def test_trivial_group_gives_singleton_orbits():
    k4 = catalog_graph("k4")
    trivial = close_generators([], degree=4)
    assert orbits(trivial, Action.VERTICES, k4) == ((0,), (1,), (2,), (3,))


def test_petersen_has_one_edge_orbit():
    g = catalog_graph("petersen")
    assert len(orbits(automorphism_group(g), Action.EDGES, g)) == 1


def test_truncated_icosahedron_edge_orbits_30_and_60():
    g = catalog_graph("truncated_icosahedron")
    orbs = orbits(automorphism_group(g), Action.EDGES, g)
    sizes = sorted(len(o) for o in orbs)
    assert sizes == [30, 60]
    assert sum(sizes) == g.m == 90


def test_orbit_blocks_are_a_partition_closed_under_generators(rng):
    g = random_cubic(12, rng, connected=True)
    group = automorphism_group(g)
    blocks = orbits(group, Action.VERTICES, g)
    seen = [v for b in blocks for v in b]
    assert sorted(seen) == list(range(g.n))
    for block in blocks:
        s = set(block)
        for gen in group.generators:
            assert {gen.images[v] for v in s} == s


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
            f1 = tuple(sorted((p.images[e1[0]], p.images[e1[1]])))
            f2 = tuple(sorted((p.images[e2[0]], p.images[e2[1]])))
            seen.add(frozenset((f1, f2)))
    return reps


def test_edge_pair_orbits_match_the_element_walk():
    graphs = [g for n in range(4, 11, 2) for g in enumerate_cubic(n)]
    graphs += [catalog_graph(name) for name in catalog_names()
               if not name.endswith("(...)")]
    for g in graphs:
        group = automorphism_group(g)
        blocks = orbits(group, Action.EDGE_PAIRS, g)
        pairs = list(itertools.combinations(g.edges(), 2))
        assert sorted(p for b in blocks for p in b) == pairs
        assert [b[0] for b in blocks] == _edge_pair_reps_by_elements(g, group)


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
        blocks = orbits(group, Action.VERTICES, g)
        for block in blocks:
            v = block[0]
            stab = stabilizer(group, [v])
            assert len(block) * stab.order == group.order


def test_unmaterialized_group_rejected():
    from cubicsym.perm import PermutationGroup

    empty = PermutationGroup(3, (), ())
    with pytest.raises(ValueError):
        stabilizer(empty, [0])

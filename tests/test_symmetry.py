"""Transitivity profiles (with their edge orbits and stabilizer classes),
consistent cycles, and the local fixity condition."""

import pytest

from cubicsym import (
    automorphism_group,
    build_graph,
    catalog_graph,
    consistent_cycles,
    distinguishing_cost,
    encode_graph6,
    enumerate_cubic,
    girth,
    local_action_order,
    local_fixity_check,
    transitivity_profile,
)
from cubicsym.catalog import _lcf, complete_graph, icosahedron

import conftest
from conftest import FIXED_CATALOG, random_graph, s_arc_count


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


# ---------------------------------------------------------------------------
# transitivity profile

def test_heawood_is_4_arc_regular():
    p = transitivity_profile(catalog_graph("heawood"))
    assert p.vertex_transitive and p.arc_transitive
    assert p.max_s == 4 and p.s_regular_at_max


def test_fig5_lambda_not_vertex_transitive():
    p = transitivity_profile(catalog_graph("fig5_lambda"))
    assert not p.vertex_transitive


def test_cycle_graph_profile():
    p = transitivity_profile(cycle(6))
    assert p.vertex_transitive and p.arc_transitive
    assert p.edge_orbit_count == 1


def test_tutte_coxeter_is_5_arc_regular():
    p = transitivity_profile(catalog_graph("tutte_coxeter"))
    assert p.max_s == 5 and p.s_regular_at_max


def test_s_regularity_order_identity():
    for name in ("k33", "petersen", "heawood", "pappus", "desargues"):
        g = catalog_graph(name)
        p = transitivity_profile(g)
        if p.s_regular_at_max:
            assert len(automorphism_group(g)) == s_arc_count(g, p.max_s)


def test_arc_transitive_implies_vertex_and_edge_transitive():
    for name in ("k4", "petersen", "heawood", "cube"):
        p = transitivity_profile(catalog_graph(name))
        assert p.arc_transitive
        assert p.vertex_transitive and p.edge_transitive


def test_disconnected_input_rejected():
    g = build_graph(6, [(0, 1), (2, 3), (4, 5)])
    with pytest.raises(ValueError):
        transitivity_profile(g)


# ---------------------------------------------------------------------------
# edge orbits in the profile

def test_truncated_icosahedron_orbit_structure():
    profile = transitivity_profile(catalog_graph("truncated_icosahedron"))
    kinds = sorted(t.kind for t in profile.edge_orbit_tags)
    assert kinds == ["disjoint-cycles", "perfect-matching"]
    cyc = profile.orbit_with_tag("disjoint-cycles")
    match = profile.orbit_with_tag("perfect-matching")
    assert len(match) == 30
    assert len(cyc) == 60
    tag = profile.edge_orbit_tags[profile.edge_orbits.index(cyc)]
    assert tag.profile == (5,) * 12
    assert profile.findings == ()


def test_petersen_single_orbit():
    profile = transitivity_profile(catalog_graph("petersen"))
    assert len(profile.edge_orbits) == 1


def test_edge_orbits_partition_the_edge_set():
    for name in ("petersen", "heawood", "fig5_lambda", "truncated_k4",
                 "prism(5)"):
        g = catalog_graph(name)
        profile = transitivity_profile(g)
        seen = [e for orb in profile.edge_orbits for e in orb]
        assert sorted(seen) == sorted(g.edges())
        assert len(seen) == len(set(seen))
        # matching tags really cover every vertex exactly once
        for orb, tag in zip(profile.edge_orbits, profile.edge_orbit_tags):
            if tag.kind == "perfect-matching":
                touched = [v for e in orb for v in e]
                assert sorted(touched) == list(range(g.n))


def test_moebius_ladder_orbits():
    profile = transitivity_profile(catalog_graph("moebius(5)"))
    assert len(profile.edge_orbits) == 2
    kinds = sorted(t.kind for t in profile.edge_orbit_tags)
    assert kinds == ["disjoint-cycles", "perfect-matching"]
    cyc_tag = next(t for t in profile.edge_orbit_tags
                   if t.kind == "disjoint-cycles")
    assert cyc_tag.profile == (10,)


# ---------------------------------------------------------------------------
# stabilizer class in the profile

def test_truncated_icosahedron_is_rigid():
    p = transitivity_profile(catalog_graph("truncated_icosahedron"))
    assert p.vertex_stabilizer_order == 2 and p.stabilizer_class == "rigid"


def test_fig5_lambda_not_vertex_transitive_class():
    p = transitivity_profile(catalog_graph("fig5_lambda"))
    assert p.stabilizer_class == "not-vertex-transitive"


def test_arc_transitive_graphs_are_flexible_by_order():
    p = transitivity_profile(catalog_graph("petersen"))
    assert p.vertex_stabilizer_order == 12 and p.stabilizer_class == "flexible"


def test_f26a_is_arc_regular_by_order():
    g = _lcf(26, [-7, 7], 13)  # F26A, the smallest 1-arc-regular cubic graph
    assert len(automorphism_group(g)) == 78
    p = transitivity_profile(g)
    assert p.vertex_stabilizer_order == 3 and p.stabilizer_class == "arc-regular"
    assert girth(g) == 6
    assert len(consistent_cycles(g, 6)) == 13
    cost = distinguishing_cost(g)
    assert (cost.kind, cost.cost, cost.witness) == ("cost", 2, (0, 2))


def test_stabilizer_order_times_n_is_group_order_for_vt():
    for name in ("k4", "cube", "petersen", "heawood", "moebius(5)", "prism(6)"):
        g = catalog_graph(name)
        p = transitivity_profile(g)
        if p.stabilizer_class != "not-vertex-transitive":
            assert p.vertex_stabilizer_order * g.n == len(automorphism_group(g))


# ---------------------------------------------------------------------------
# the profile on edge cases and the small census

def test_order_0_graph_has_the_trivial_stabilizer():
    p = transitivity_profile(build_graph(0, []))
    assert p.vertex_stabilizer_order == 1
    assert p.vertex_transitive and p.stabilizer_class == "grr"
    assert p.edge_orbits == () and p.max_s == 0 and p.findings == ()


def test_order_1_graph_is_a_grr():
    p = transitivity_profile(build_graph(1, []))
    assert p.vertex_stabilizer_order == 1 and p.stabilizer_class == "grr"
    assert p.edge_orbit_count == 0 and not p.arc_transitive


def test_profile_on_the_census_to_12():
    vertex_transitive = 0
    for n in range(4, 13, 2):
        for g in enumerate_cubic(n):
            p = transitivity_profile(g)
            seen = [e for orb in p.edge_orbits for e in orb]
            assert sorted(seen) == list(g.edges())
            assert len(p.edge_orbit_tags) == p.edge_orbit_count
            if p.vertex_transitive:
                vertex_transitive += 1
                order = len(automorphism_group(g))
                assert p.vertex_stabilizer_order * g.n == order
    assert vertex_transitive > 0


# ---------------------------------------------------------------------------
# local action

def test_icosahedron_local_action_order_10():
    g, _ = icosahedron()
    assert local_action_order(g, 0) == 10


def test_k4_local_action_order_6():
    assert local_action_order(catalog_graph("k4"), 0) == 6


def test_cycle_local_action_order_2():
    assert local_action_order(cycle(6), 0) == 2


# ---------------------------------------------------------------------------
# consistent cycles

def test_heawood_has_consistent_6_cycles():
    assert consistent_cycles(catalog_graph("heawood"), 6)


def test_petersen_has_consistent_5_cycles():
    assert consistent_cycles(catalog_graph("petersen"), 5)


def test_witnesses_rotate_the_stored_sequence():
    for name, length in (("petersen", 5), ("heawood", 6), ("pappus", 6)):
        g = catalog_graph(name)
        group_images = set(automorphism_group(g))
        for cyc, witness in consistent_cycles(g, length):
            assert witness in group_images
            for i in range(len(cyc)):
                assert witness[cyc[i]] == cyc[(i + 1) % len(cyc)]


def _consistent_cycle_grid(rng):
    """(graph, lengths): the census to 12 at its girth and lengths 3 to 8;
    the fixed catalog, gp(8,3), gp(13,5), K5 and 150 seeded connected
    G(n, p) with n <= 10, each at its girth and lengths 3 to min(n, 8)."""
    cases = [(g, {girth(g), *range(3, 9)})
             for n in range(4, 13, 2) for g in enumerate_cubic(n)]
    graphs = [catalog_graph(name) for name in FIXED_CATALOG]
    graphs += [catalog_graph("gp(8,3)"), catalog_graph("gp(13,5)"),
               complete_graph(5)]
    randoms = []
    while len(randoms) < 150:
        g = random_graph(rng.randrange(3, 11), rng.choice((0.3, 0.4, 0.5)), rng)
        if g.is_connected() and girth(g) is not None:
            randoms.append(g)
    graphs += randoms
    cases += [(g, {girth(g), *range(3, min(g.n, 8) + 1)}) for g in graphs]
    return cases


def test_consistent_cycles_match_the_listing_reference(rng):
    found = 0
    for g, lengths in _consistent_cycle_grid(rng):
        for length in sorted(lengths):
            pairs = consistent_cycles(g, length)
            assert pairs == conftest.consistent_cycles(g, length), \
                (encode_graph6(g), length)
            found += len(pairs)
    assert found > 400


def test_asymmetric_graph_has_no_consistent_cycles():
    target = None
    for g in enumerate_cubic(12):
        if len(automorphism_group(g)) == 1:
            target = g
            break
    assert target is not None
    assert consistent_cycles(target, girth(target)) == ()


# ---------------------------------------------------------------------------
# local fixity

def test_icosahedron_fixity_on_every_edge():
    g, _ = icosahedron()
    assert all(local_fixity_check(g, e) for e in g.edges())


def test_k4_fixity():
    assert local_fixity_check(catalog_graph("k4"), (0, 1))


def test_k33_fixity_matches_exhaustive_filter():
    # the closed neighborhood of any K_{3,3} edge is the whole vertex set,
    # so only the identity fixes it pointwise; decided by the group filter
    g = catalog_graph("k33")
    u, w = 0, 3
    fixed = {u, w} | set(g.adj[u]) | set(g.adj[w])
    assert fixed == set(range(6))
    expected = all(
        p == tuple(range(6))
        for p in automorphism_group(g)
        if all(p[v] == v for v in fixed)
    )
    assert expected is True
    assert local_fixity_check(g, (u, w)) is expected


def test_fixity_non_edge_rejected():
    with pytest.raises(ValueError):
        local_fixity_check(catalog_graph("petersen"), (0, 2))

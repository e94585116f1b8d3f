"""Transitivity profiles, edge orbits, stabilizer classes, consistent
cycles, and the local fixity condition."""

import pytest

from cubicsym import (
    automorphism_group,
    build_graph,
    catalog_graph,
    consistent_cycles,
    consistent_girth_cycles,
    distinguishing_cost,
    edge_orbit_summary,
    enumerate_cubic,
    girth,
    local_action_order,
    local_fixity_check,
    s_arc_count,
    stabilizer_class,
    transitivity_profile,
)
from cubicsym.catalog import _lcf, icosahedron


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
            assert automorphism_group(g).order == s_arc_count(g, p.max_s)


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
# edge orbit summary

def test_truncated_icosahedron_orbit_structure():
    summary = edge_orbit_summary(catalog_graph("truncated_icosahedron"))
    kinds = sorted(t.kind for t in summary.tags)
    assert kinds == ["disjoint-cycles", "perfect-matching"]
    cyc = summary.orbit_with_tag("disjoint-cycles")
    match = summary.orbit_with_tag("perfect-matching")
    assert len(match) == 30
    assert len(cyc) == 60
    tag = summary.tags[summary.orbits.index(cyc)]
    assert tag.profile == (5,) * 12
    assert summary.findings == ()


def test_petersen_single_orbit():
    summary = edge_orbit_summary(catalog_graph("petersen"))
    assert len(summary.orbits) == 1


def test_edge_orbits_partition_the_edge_set():
    for name in ("petersen", "heawood", "fig5_lambda", "truncated_k4",
                 "prism(5)"):
        g = catalog_graph(name)
        summary = edge_orbit_summary(g)
        seen = [e for orb in summary.orbits for e in orb]
        assert sorted(seen) == sorted(g.edges())
        assert len(seen) == len(set(seen))
        # matching tags really cover every vertex exactly once
        for orb, tag in zip(summary.orbits, summary.tags):
            if tag.kind == "perfect-matching":
                touched = [v for e in orb for v in e]
                assert sorted(touched) == list(range(g.n))


def test_moebius_ladder_orbits():
    summary = edge_orbit_summary(catalog_graph("moebius(5)"))
    assert len(summary.orbits) == 2
    kinds = sorted(t.kind for t in summary.tags)
    assert kinds == ["disjoint-cycles", "perfect-matching"]
    cyc_tag = next(t for t in summary.tags if t.kind == "disjoint-cycles")
    assert cyc_tag.profile == (10,)


# ---------------------------------------------------------------------------
# stabilizer class

def test_truncated_icosahedron_is_rigid():
    sc = stabilizer_class(catalog_graph("truncated_icosahedron"))
    assert sc.vertex_stabilizer_order == 2 and sc.kind == "rigid"


def test_fig5_lambda_not_vertex_transitive_class():
    sc = stabilizer_class(catalog_graph("fig5_lambda"))
    assert sc.kind == "not-vertex-transitive"


def test_arc_transitive_graphs_are_flexible_by_order():
    sc = stabilizer_class(catalog_graph("petersen"))
    assert sc.vertex_stabilizer_order == 12 and sc.kind == "flexible"


def test_f26a_is_arc_regular_by_order():
    g = _lcf(26, [-7, 7], 13)  # F26A, the smallest 1-arc-regular cubic graph
    assert automorphism_group(g).order == 78
    sc = stabilizer_class(g)
    assert sc.vertex_stabilizer_order == 3 and sc.kind == "arc-regular"
    assert girth(g) == 6
    assert len(consistent_girth_cycles(g)) == 13
    cost = distinguishing_cost(g)
    assert (cost.kind, cost.cost, cost.witness) == ("cost", 2, (0, 2))


def test_stabilizer_order_times_n_is_group_order_for_vt():
    for name in ("k4", "cube", "petersen", "heawood", "moebius(5)", "prism(6)"):
        g = catalog_graph(name)
        sc = stabilizer_class(g)
        if sc.kind != "not-vertex-transitive":
            assert sc.vertex_stabilizer_order * g.n == automorphism_group(g).order


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
        group_images = set(automorphism_group(g).elements)
        for cyc, witness in consistent_cycles(g, length):
            assert witness in group_images
            vs = cyc.vertices
            for i in range(len(vs)):
                assert witness[vs[i]] == vs[(i + 1) % len(vs)]


def test_asymmetric_graph_has_no_consistent_cycles():
    target = None
    for g in enumerate_cubic(12):
        if automorphism_group(g).order == 1:
            target = g
            break
    assert target is not None
    assert consistent_girth_cycles(target) == ()


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
        for p in automorphism_group(g).elements
        if all(p[v] == v for v in fixed)
    )
    assert expected is True
    assert local_fixity_check(g, (u, w)) is expected


def test_fixity_non_edge_rejected():
    with pytest.raises(ValueError):
        local_fixity_check(catalog_graph("petersen"), (0, 2))

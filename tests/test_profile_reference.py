"""The stabilizer chain of `transitivity_profile` against the counting
reference in conftest: vertex-transitivity from the vertex orbits, and
s-arc-transitivity and s-regularity from the number of s-arcs."""

import random

import pytest

import conftest
from conftest import FIXED_CATALOG
from cubicsym import (build_graph, catalog_graph, decode_graph6, encode_graph6,
                      enumerate_cubic_graph6, symmetry, transitivity_profile)
from cubicsym.catalog import (complete_bipartite, complete_graph, cycle_graph,
                              moebius_ladder, prism)


def _random_connected(n, rng):
    """A random spanning tree plus each other pair with one probability."""
    p = rng.choice((0.1, 0.3, 0.5, 0.8))
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    edges |= {(u, w) for u in range(n) for w in range(u + 1, n)
              if rng.random() < p}
    return build_graph(n, sorted(edges))


def _star(k):
    return build_graph(k + 1, [(0, i) for i in range(1, k + 1)])


def _wheel(k):
    rim = [(i, i % k + 1) for i in range(1, k + 1)]
    return build_graph(k + 1, [(0, i) for i in range(1, k + 1)] + rim)


def _grid():
    graphs = [decode_graph6(s) for n in range(4, 15, 2)
              for s in enumerate_cubic_graph6(n)]
    graphs += [catalog_graph(name) for name in FIXED_CATALOG]
    graphs += [cycle_graph(k) for k in range(3, 13)]
    graphs += [prism(k) for k in range(3, 13)]
    graphs += [moebius_ladder(k) for k in range(3, 13)]
    graphs += [complete_graph(n) for n in range(8)]  # K0 to K7
    graphs += [complete_bipartite(a, b) for a in range(1, 5) for b in range(a, 5)]
    graphs += [build_graph(n, [(i, i + 1) for i in range(n - 1)])
               for n in range(2, 9)]  # paths
    graphs += [_star(k) for k in range(2, 8)]
    graphs += [_wheel(k) for k in range(3, 9)]
    rng = random.Random(1919)
    graphs += [_random_connected(rng.randint(1, 10), rng) for _ in range(400)]
    return graphs


GRID = _grid()


@pytest.fixture(scope="module")
def reference():
    return [conftest.transitivity_fields(g) for g in GRID]


def _fields(profile):
    return (profile.vertex_transitive, profile.max_s, profile.s_regular_at_max,
            profile.vertex_stabilizer_order)


def test_grid_covers_every_s_both_regularities_and_the_smallest_orders(reference):
    assert len(GRID) > 1000
    assert all(g.is_connected() for g in GRID)
    assert {0, 1, 2, 3, 4, 5, 7} == {s for _, s, _, _ in reference}
    assert {True, False} == {regular for _, s, regular, _ in reference if s >= 1}
    assert {True, False} == {vt for vt, _, _, _ in reference}
    assert {0, 1} <= {g.n for g in GRID}


def test_profile_matches_the_counting_reference(reference, monkeypatch):
    # and reads vertex-transitivity off |G_0|, not off the vertex orbits
    calls = []
    real = symmetry.orbits

    def counted(perms, points):
        calls.append(points)
        return real(perms, points)

    monkeypatch.setattr(symmetry, "orbits", counted)
    for g, expected in zip(GRID, reference):
        assert _fields(transitivity_profile(g)) == expected, encode_graph6(g)
    # one edge call per graph, and no vertex call, which reads range(n)
    assert len(calls) == len(GRID)
    assert not any(isinstance(points, range) for points in calls)

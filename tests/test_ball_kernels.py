"""The bitmask kernels of a census scan against the per-root references in
conftest: `girth`, the vertex-transitivity prefilter, the one pass that
reads both, the pruning of `cycles_of_length` from BFS balls, and the
edge-at-a-time graph6 decoder."""

import random

import conftest
from conftest import FIXED_CATALOG, distance_profiles, random_graph
from cubicsym import (balls, build_graph, catalog_graph, cycles_of_length,
                      decode_graph6, encode_graph6, enumerate_cubic_graph6,
                      girth)
from cubicsym.catalog import (complete_graph, cycle_graph, edgeless_graph,
                              generalized_petersen, moebius_ladder, path_ladder,
                              prism)
from cubicsym.claims import Record
from cubicsym.graph import edge_components, girth_and_histograms


def _random_forest(n, rng):
    """Each vertex after the first joins an earlier one or stays a root."""
    join = rng.choice((0.5, 0.8, 1.0))
    return build_graph(n, [(rng.randrange(v), v) for v in range(1, n)
                           if rng.random() < join])


def _grid():
    graphs = [conftest.decode_graph6(s) for n in range(4, 13, 2)
              for s in enumerate_cubic_graph6(n)]
    graphs += [catalog_graph(name) for name in FIXED_CATALOG]
    graphs += [prism(k) for k in range(3, 16)]
    graphs += [moebius_ladder(k) for k in range(3, 16)]
    graphs += [path_ladder(k) for k in range(2, 16)]
    graphs += [cycle_graph(k) for k in range(3, 31)]
    graphs += [generalized_petersen(n, k) for n in range(3, 16)
               for k in range(1, n) if 2 * k != n]
    graphs += [complete_graph(n) for n in range(10)]
    graphs += [edgeless_graph(n) for n in range(10)]
    rng = random.Random(1717)
    for _ in range(2400):
        n = rng.randrange(15)
        if rng.random() < 0.25:
            graphs.append(_random_forest(n, rng))
        else:
            graphs.append(random_graph(n, rng.choice((0.1, 0.2, 0.3, 0.5, 0.8)), rng))
    return graphs


GRID = _grid()


def _cycle_rank(g):
    """Independent cycles: m - n + the number of components."""
    comp = edge_components(g.n, g.edges())
    return g.m - g.n + max(comp, default=-1) + 1 + comp.count(-1)


# the cycle search grows exponentially with the length on dense graphs, so
# it takes the graphs of maximum degree 3 or of cycle rank at most 10
CYCLE_GRID = [g for g in GRID
              if max(map(len, g.adj), default=0) <= 3 or _cycle_rank(g) <= 10]


def _cycle_lengths(g):
    return range(3, min(g.n + 2, 12) + 1)


def test_grid_covers_forests_disconnected_graphs_and_isolated_vertices():
    assert len(GRID) > 2000
    assert sum(conftest.girth(g) is None and g.m > 0 for g in GRID) > 100
    assert sum(not g.is_connected() for g in GRID) > 500
    assert sum(0 in map(len, g.adj) and g.m > 0 for g in GRID) > 500


def test_cycle_grid_covers_every_kind_and_lengths_past_the_last_radius():
    assert len(CYCLE_GRID) > 2000
    assert sum(max(map(len, g.adj), default=0) > 3 for g in CYCLE_GRID) > 400
    assert sum(conftest.girth(g) is None and g.m > 0 for g in CYCLE_GRID) > 100
    assert sum(not g.is_connected() for g in CYCLE_GRID) > 500
    assert sum(0 in map(len, g.adj) and g.m > 0 for g in CYCLE_GRID) > 500
    # a length above the number of radii reads the last ball, clamped
    assert sum(max(_cycle_lengths(g), default=0) > len(list(balls(g)))
               and girth(g) is not None for g in CYCLE_GRID) > 500


def test_girth_matches_the_bfs_reference():
    for g in GRID:
        assert girth(g) == conftest.girth(g), encode_graph6(g)


def test_histograms_agree_matches_the_distance_histograms():
    for g in GRID:
        assert Record(g).histograms_agree == conftest.histograms_agree(g), \
            encode_graph6(g)


def test_one_ball_pass_gives_the_girth_and_the_histogram_test():
    for g in GRID:
        assert girth_and_histograms(g) == (
            conftest.girth(g), conftest.histograms_agree(g)), encode_graph6(g)


def test_balls_are_the_distance_balls():
    for g in GRID:
        dists = distance_profiles(g)[0]
        grown = list(balls(g))
        assert len(grown) >= 2 and grown[-1] == grown[-2]
        assert all(a != b for a, b in zip(grown, grown[1:-1]))
        for r, ball in enumerate(grown):
            assert ball == [sum(1 << u for u, d in enumerate(row) if 0 <= d <= r)
                            for row in dists]


def test_cycles_of_length_matches_the_distance_reference():
    found = 0
    for g in CYCLE_GRID:
        for length in _cycle_lengths(g):
            cycles = cycles_of_length(g, length)
            assert cycles == conftest.cycles_of_length(g, length), \
                (encode_graph6(g), length)
            found += len(cycles)
    assert found > 50000


def test_decoder_matches_the_column_reference():
    for g in GRID:
        s = encode_graph6(g)
        new, old = decode_graph6(s), conftest.decode_graph6(s)
        assert (new.n, new.adj, new.adj_bits) == (old.n, old.adj, old.adj_bits)
        assert new == g

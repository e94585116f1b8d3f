"""The bitmask kernels of a census scan against the per-root references in
conftest: `girth`, the vertex-transitivity prefilter, the one pass that
reads both, the girth-cycle edge test read off two spheres, the 3-arc
test read off the neighbour bitmasks, and the edge-at-a-time graph6
decoder."""

import itertools
import random
from collections import Counter

import conftest
from conftest import FIXED_CATALOG, distance_profiles, random_graph
from cubicsym import (balls, build_graph, catalog_graph, decode_graph6,
                      encode_graph6, enumerate_cubic_graph6,
                      every_3_arc_in_6_cycle, every_edge_in_girth_cycle, girth)
from cubicsym.catalog import (complete_bipartite, complete_graph, cycle_graph,
                              edgeless_graph, generalized_petersen,
                              moebius_ladder, path_ladder, prism)
from cubicsym.autgrp import canonical_class
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
    # each record read twice: computed, then from its memo, where a
    # forest's None girth is encoded too
    for g in GRID:
        record = Record(*canonical_class(g))
        for _ in range(2):
            assert record.histograms_agree == conftest.histograms_agree(g), \
                encode_graph6(g)
            assert record.girth == conftest.girth(g), encode_graph6(g)


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


def test_3_arc_test_matches_the_cycle_listing_reference():
    graphs = CYCLE_GRID + [catalog_graph(name) for name in FIXED_CATALOG]
    graphs += [conftest.decode_graph6(s) for s in enumerate_cubic_graph6(14)]
    answers = Counter()
    for g in graphs:
        answer = every_3_arc_in_6_cycle(g)
        assert answer == conftest.every_3_arc_in_cycle(g, 6), encode_graph6(g)
        answers[answer, g.is_connected()] += 1
    # both answers, on connected and disconnected graphs alike
    assert min(answers.values()) > 20 and len(answers) == 4
    assert every_3_arc_in_6_cycle(edgeless_graph(0))
    assert every_3_arc_in_6_cycle(edgeless_graph(5))
    # each 3-arc of K6 lies on a 6-cycle except those that close a triangle
    assert not every_3_arc_in_6_cycle(complete_graph(6))


def _union(*parts):
    """The disjoint union of the graphs ``parts``, numbered in turn."""
    edges, n = [], 0
    for g in parts:
        edges += [(u + n, w + n) for u, w in g.edges()]
        n += g.n
    return build_graph(n, edges)


def _girth_cycle_grid():
    graphs = [decode_graph6(s) for n in range(4, 17, 2)
              for s in enumerate_cubic_graph6(n)]
    graphs += [catalog_graph(name) for name in FIXED_CATALOG]
    small = [complete_graph(3), complete_graph(4), catalog_graph("k33")]
    small += [cycle_graph(k) for k in range(3, 31)]
    small += [path_ladder(k) for k in range(2, 16)]
    small += [complete_bipartite(a, b) for a in range(1, 6) for b in range(a, 6)]
    graphs += small
    graphs += [_union(g, h) for g, h in zip(small, small[7:] + small[:7])]
    graphs += [_union(g, g, edgeless_graph(2)) for g in small]
    rng = random.Random(3301)
    for _ in range(2000):
        n = rng.randrange(3, 31)
        graphs.append(random_graph(n, rng.choice((0.05, 0.1, 0.2, 0.3, 0.45, 0.6)), rng))
    return [g for g in graphs if girth(g) is not None]


def test_girth_cycle_edge_test_matches_the_cycle_listing():
    kinds = Counter()
    for g in _girth_cycle_grid():
        length = girth(g)
        found = every_edge_in_girth_cycle(g, length)
        assert found == conftest.every_edge_in_cycle(g, length), encode_graph6(g)
        kind = (g.is_connected(), g.is_regular(3))
        kinds[length % 2, found, kind] += 1
    # odd and even girths, each both ways, on connected cubic graphs,
    # connected irregular ones and disconnected ones
    for parity, found, kind in itertools.product(
            (0, 1), (False, True), ((True, True), (True, False), (False, False))):
        assert kinds[parity, found, kind] >= 10, (parity, found, kind)


def test_girth_cycle_edge_test_on_forests():
    # a forest has no girth; whatever length is asked, an edgeless graph
    # has every edge on such a cycle and a forest with an edge has not
    forests = [edgeless_graph(n) for n in range(6)]
    forests += [build_graph(n, [(i, i + 1) for i in range(n - 1)])
                for n in range(2, 9)]
    for g, length in itertools.product(forests, range(3, 9)):
        assert every_edge_in_girth_cycle(g, length) is (g.m == 0)
        assert conftest.every_edge_in_cycle(g, length) is (g.m == 0)


def test_decoder_matches_the_column_reference():
    for g in GRID:
        s = encode_graph6(g)
        new, old = decode_graph6(s), conftest.decode_graph6(s)
        assert (new.n, new.adj, new.adj_bits) == (old.n, old.adj, old.adj_bits)
        assert new == g

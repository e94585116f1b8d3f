"""Isomorph-free generation: counts, seeds, determinism, filtering."""

import hashlib
import itertools
import random
from math import factorial
from types import SimpleNamespace

import pytest

from cubicsym import (
    EnumerationRangeError,
    KNOWN_COUNTS,
    build_graph,
    canonical_form,
    catalog_graph,
    decode_graph6,
    enumerate_cubic,
    enumerate_cubic_graph6,
    filtered_enumeration,
    irreducible_seeds,
    is_isomorphic,
)
from cubicsym import autgrp, enumeration
from cubicsym.autgrp import automorphism_group, canonical_labeling
from cubicsym.graph import is_bridge
from cubicsym.perm import close_generators, edge_perms, orbits

import conftest
from conftest import (enumerate_cubic_bruteforce, insert_on_edges,
                      labelled_connected_cubic, random_cubic, reduce_edge,
                      reducible_edges)

# sha256 of the sorted census strings for n = 4..14, each followed by "\n"
CENSUS_14_SHA256 = "a15f9f8d58825ea761f6fcbee24a06f72074973a9be7bcfff1559f9b934d0b63"


def test_counts_match_bruteforce_oracle():
    for n in (4, 6, 8, 10):
        gen = enumerate_cubic_graph6(n)
        oracle = enumerate_cubic_bruteforce(n)
        assert tuple(gen) == tuple(oracle)
        assert len(gen) == KNOWN_COUNTS[n]


def test_count_at_12_matches_published_census():
    assert len(enumerate_cubic_graph6(12)) == KNOWN_COUNTS[12]


def test_count_at_14_matches_published_census():
    assert len(enumerate_cubic_graph6(14)) == KNOWN_COUNTS[14]


@pytest.mark.parametrize("n", range(4, 15, 2))
def test_census_satisfies_the_mass_formula(n):
    # every labelled connected cubic graph is counted once, so a missing
    # class is seen even when a duplicate keeps the class count right
    labelled = sum(factorial(n) // len(automorphism_group(decode_graph6(g6)))
                   for g6 in enumerate_cubic_graph6(n))
    assert labelled == labelled_connected_cubic(n)


@pytest.fixture(scope="module")
def census_build():
    """The census to 14 built once, at jobs 1, from an empty level cache,
    each level kept with its strings and generators, and with its work
    counted: the canonical searches (each with the order of the parent
    whose expansion ran it, None outside one), the group closures, the
    children scored and built, and each tie decision of the walk with its
    answer by the block rule.
    The level cache and the counted functions are restored afterwards."""
    built = SimpleNamespace(searched=[], closures=[], decisions=[],
                            counts={"children": 0, "built": 0})
    parent = [None]
    search, close = autgrp._ir_search, autgrp.close_generators
    expand = enumeration._expand_parent
    accept, survivor = enumeration._accept_child, enumeration._survivor
    walk = enumeration._same_edge_orbit

    def counting_search(graph):
        built.searched.append((parent[0], graph.n))
        return search(graph)

    def counting_close(*args, **kwargs):
        built.closures.append(args)
        return close(*args, **kwargs)

    def expanding(parent_class):
        parent[0] = decode_graph6(parent_class[0]).n
        try:
            return expand(parent_class)
        finally:
            parent[0] = None

    def counting_accept(*args):
        built.counts["children"] += 1
        return accept(*args)

    def counting_survivor(*args):
        kept = survivor(*args)
        built.counts["built"] += kept is not None
        return kept

    def recording_walk(child, target, inserted):
        # the walk has searched the child, so its generators are memoized
        answer = walk(child, target, inserted)
        edges = child.edges()
        edge_orbits = orbits(edge_perms(autgrp.search_generators(child), edges), edges)
        block = next(b for b in edge_orbits if target in b)
        built.decisions.append((answer, inserted in block))
        return answer

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(autgrp, "_ir_search", counting_search)
        mp.setattr(autgrp, "close_generators", counting_close)
        mp.setattr(enumeration, "_expand_parent", expanding)
        mp.setattr(enumeration, "_accept_child", counting_accept)
        mp.setattr(enumeration, "_survivor", counting_survivor)
        mp.setattr(enumeration, "_same_edge_orbit", recording_walk)
        mp.setattr(enumeration, "_LEVEL_CACHE", {})
        built.levels = {n: enumeration._level(n, 1) for n in range(4, 15, 2)}
    return built


@pytest.fixture(scope="module")
def census_at_2_jobs():
    """The census to 14 built afresh at jobs 2, where the pool forks 2
    workers even on one core: order -> (strings, generators), each level
    kept as it is built.  The level cache is restored afterwards."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "_LEVEL_CACHE", {})
        mp.setattr(enumeration.os, "cpu_count", lambda: 2)
        return {n: enumeration._level(n, 2) for n in range(4, 15, 2)}


@pytest.mark.parametrize("jobs", [1, 2])
def test_carried_generators_generate_each_group(request, jobs):
    # the generators a class carries to its expansion act on its string's
    # graph and generate its whole group: the elements a fresh search
    # closes to, and the mass formula over the orders they close to
    levels = (request.getfixturevalue("census_build").levels if jobs == 1
              else request.getfixturevalue("census_at_2_jobs"))
    for n, (strings, carried) in levels.items():
        labelled = 0
        for g6, gens in zip(strings, carried):
            group = close_generators(gens, n)
            assert group == automorphism_group(decode_graph6(g6))
            labelled += factorial(n) // len(group)
        assert labelled == labelled_connected_cubic(n)


def test_carried_generators_are_identical_across_jobs(census_build, census_at_2_jobs):
    assert census_build.levels == census_at_2_jobs


def test_the_dodecahedron_class_carries_its_group():
    # the top order's classes carry generators like every other order's:
    # they act on the string's graph and close to its 120 elements
    top = catalog_graph("dodecahedron")
    assert top.n == enumeration.MAX_ORDER
    g6, gens = autgrp.canonical_class(top)
    assert g6 == canonical_form(top).decode("ascii")
    group = close_generators(gens, top.n)
    assert len(group) == 120
    graph = decode_graph6(g6)
    assert all(graph.has_edge(g[u], g[v]) for g in gens for u, v in graph.edges())


def test_census_searches_each_class_once_and_closes_no_group(census_build):
    # a parent is expanded with the generators its own acceptance search
    # found, so a search inside `_expand_parent` is always of a child, and
    # the orbits are read off generators with no group closed
    searched = census_build.searched
    assert census_build.closures == []
    assert all(m == n + 2 for n, m in searched if n is not None)
    # 802 when each parent was searched again before its expansion
    assert len(searched) == 690


def test_census_to_14_is_byte_identical():
    strings = sorted(g6 for n in range(4, 15, 2) for g6 in enumerate_cubic_graph6(n))
    text = "".join(g6 + "\n" for g6 in strings)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == CENSUS_14_SHA256


def test_streams_are_connected_cubic_and_canonical():
    for g in enumerate_cubic(10):
        assert g.is_cubic() and g.is_connected()
    for g6 in enumerate_cubic_graph6(10):
        # emitted strings are the canonical labelings of themselves
        assert canonical_form(decode_graph6(g6)).decode("ascii") == g6


def test_isomorph_freeness_full_check():
    for n in (8, 10, 12):
        forms = [canonical_form(g) for g in enumerate_cubic(n)]
        assert len(forms) == len(set(forms))


def test_determinism_and_jobs_invariance():
    a = enumerate_cubic_graph6(10, jobs=1)
    from cubicsym.enumeration import _LEVEL_CACHE

    _LEVEL_CACHE.clear()
    b = enumerate_cubic_graph6(10, jobs=2)
    assert a == b


def test_every_built_level_keeps_its_strings_and_generators(monkeypatch):
    # a level is built once per process and keeps its classes' generators
    # after the level above is built from it: the claims' group readers
    # adopt them
    expected = {n: enumerate_cubic_graph6(n) for n in (4, 6, 8, 10)}
    monkeypatch.setattr(enumeration, "_LEVEL_CACHE", {})
    assert enumerate_cubic_graph6(10) == expected[10]
    cache = enumeration._LEVEL_CACHE
    assert sorted(cache) == [4, 6, 8, 10]
    for n, (strings, generators) in cache.items():
        assert strings == expected[n]
        assert len(generators) == KNOWN_COUNTS[n]
        assert all(isinstance(gens, tuple) for gens in generators)
    assert {n: enumerate_cubic_graph6(n) for n in (4, 6, 8, 10)} == expected


class _SerialContext:
    """Stands in for the fork context: records each pool size and maps
    in-process, so no worker is ever started."""

    def __init__(self):
        self.sizes = []

    def Pool(self, size):
        self.sizes.append(size)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, func, items, chunksize=1):
        assert chunksize >= 1
        return [func(x) for x in items]


def test_pool_size_is_bounded_by_parents_and_cores(monkeypatch):
    expected = enumerate_cubic_graph6(10)
    ctx = _SerialContext()
    monkeypatch.setattr(enumeration, "get_context", lambda method: ctx)
    monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(enumeration, "_LEVEL_CACHE", {})
    assert enumerate_cubic_graph6(10, jobs=10**6) == expected
    # one parent at n = 6 runs serially; 2 parents at n = 8, 5 at n = 10
    assert ctx.sizes == [2, 4]


def test_range_errors():
    with pytest.raises(EnumerationRangeError):
        enumerate_cubic_graph6(7)
    with pytest.raises(EnumerationRangeError):
        enumerate_cubic_graph6(2)
    with pytest.raises(EnumerationRangeError):
        enumerate_cubic_graph6(22)


# ---------------------------------------------------------------------------
# reduction / insertion machinery

def test_insert_then_reduce_round_trip():
    g = catalog_graph("k33")
    edges = g.edges()
    child = insert_on_edges(g, edges[0], edges[4])
    assert child.n == 8 and child.is_cubic()
    inserted = (6, 7)
    assert inserted in [tuple(sorted(e)) for e in child.edges()]
    back = reduce_edge(child, inserted)
    assert back == g  # labels are preserved by construction


def _reference_insert(graph, e1, e2):
    """The edge-list construction through `build_graph`."""
    n = graph.n
    (a, b), (c, d) = e1, e2
    cut = {frozenset(e1), frozenset(e2)}
    edges = [e for e in graph.edges() if frozenset(e) not in cut]
    edges += [(a, n), (b, n), (c, n + 1), (d, n + 1), (n, n + 1)]
    return build_graph(n + 2, edges)


def test_insert_on_edges_matches_edge_list_construction():
    # every ordered pair of distinct edges, each edge either way round
    for n in range(4, 11, 2):
        for parent in enumerate_cubic(n):
            edges = parent.edges()
            for e1, e2 in itertools.permutations(edges, 2):
                for pair in itertools.product((e1, e1[::-1]), (e2, e2[::-1])):
                    child = insert_on_edges(parent, *pair)
                    ref = _reference_insert(parent, *pair)
                    assert (child.n, child.adj, child.adj_bits) == (
                        ref.n, ref.adj, ref.adj_bits)


def test_reducible_edges_of_petersen_all():
    g = catalog_graph("petersen")
    assert len(reducible_edges(g)) == 15  # triangle-free, 3-connected


def _cycle_edges(cycle):
    return {tuple(sorted(e)) for e in zip(cycle, cycle[1:] + cycle[:1])}


def _brute_short_cycle_key(g, edge):
    return tuple(
        -sum(edge in _cycle_edges(c)
             for c in conftest.cycles_of_length(g, length))
        for length in (3, 4, 5)
    )


def _stage_1_key(g, u, v):
    return enumeration._short_cycle_key(g.adj, g.adj_bits, u, v)


def test_short_cycle_key_matches_brute_force(rng):
    graphs = [g for n in (4, 6, 8, 10) for g in enumerate_cubic(n)]
    graphs += [random_cubic(n, rng) for n in (8, 12, 16, 20) for _ in range(3)]
    for g in graphs:
        for u, v in g.edges():
            key = _stage_1_key(g, u, v)
            assert key == _brute_short_cycle_key(g, (u, v))
            assert key == _stage_1_key(g, v, u)


def _reference_accept(child, inserted):
    """The acceptance rule spelled out: score every reducible edge by
    (short-cycle key, ball score), break ties by canonical image, accept
    iff the inserted edge shares an automorphism orbit with the winner."""
    red = reducible_edges(child)
    balls = enumeration._edge_scores(child, red)
    score = {e: (_stage_1_key(child, *e), balls[e]) for e in red}
    best = min(score.values())
    label = canonical_labeling(child)
    target = min(
        (e for e in red if score[e] == best),
        key=lambda e: tuple(sorted((label[e[0]], label[e[1]]))),
    )
    edges = child.edges()  # the edge orbits under every element of the group
    for block in orbits(edge_perms(automorphism_group(child), edges), edges):
        if target in block:
            return canonical_form(child).decode("ascii") if inserted in block else None


def test_accept_child_matches_reference_rule(census_build):
    for n in (4, 6, 8, 10):
        for g6, generators in zip(*census_build.levels[n]):
            parent = decode_graph6(g6)
            ranked_edges = enumeration._ranked_edges(parent)
            for e1, e2 in enumeration._edge_pair_reps(parent, generators):
                child = insert_on_edges(parent, e1, e2)
                inserted = (child.n - 2, child.n - 1)
                accepted = enumeration._accept_child(parent, ranked_edges, e1, e2)
                assert (accepted and accepted[0]) == (
                    _reference_accept(child, inserted)
                )


def test_tie_test_walk_matches_the_block_rule(census_build):
    # at every tie decision of the census to 14, the walk of the target's
    # orbit answers as membership of the inserted edge in the target's
    # block of the child's edge orbits
    for answer, in_block in census_build.decisions:
        assert answer == in_block
    decisions = [answer for answer, _ in census_build.decisions]
    assert len(decisions) == 394 and 0 < sum(decisions) < 394


def _heawood_pair_joined_by_a_bridge():
    """Two Heawood copies, each with one edge x-y replaced by the path
    x-z-y, and the two new vertices z joined: cubic on 30 vertices, with
    no 3-, 4- or 5-cycle and one bridge."""
    heawood = catalog_graph("heawood")
    x, y = heawood.edges()[0]
    edges = []
    for offset in (0, 15):
        edges += [(u + offset, w + offset) for u, w in heawood.edges()
                  if (u, w) != (x, y)]
        edges += [(x + offset, 14 + offset), (y + offset, 14 + offset)]
    edges.append((14, 29))
    return build_graph(30, edges), (14, 29)


def _reduction(graph, edge):
    """The parent that contracting the edge gives, and the two edges of it
    whose insertion gives the graph back, relabelled, with the edge as
    the inserted one."""
    keep = [x for x in range(graph.n) if x not in edge]
    e1, e2 = (tuple(keep.index(x) for x in graph.adj[w] if x not in edge)
              for w in edge)
    return reduce_edge(graph, edge), e1, e2


def test_accept_child_never_ranks_a_bridge(monkeypatch):
    # every edge ties at stage 1 on no short cycle, so only the bridge
    # check keeps the bridge out of the ball score
    graph, bridge = _heawood_pair_joined_by_a_bridge()
    assert graph.is_cubic()
    assert [e for e in graph.edges() if is_bridge(graph.adj_bits, *e)] == [bridge]
    ranked = []
    scores = enumeration._edge_scores

    def recording(child, edges):
        ranked.extend(edges)
        return scores(child, edges)

    monkeypatch.setattr(enumeration, "_edge_scores", recording)
    ranked_any = False
    for e in reducible_edges(graph):
        parent, e1, e2 = _reduction(graph, e)
        # the child is the graph relabelled, and its bridge the bridge's image
        child = insert_on_edges(parent, e1, e2)
        (child_bridge,) = [f for f in child.edges() if is_bridge(child.adj_bits, *f)]
        ranked.clear()
        enumeration._accept_child(parent, enumeration._ranked_edges(parent), e1, e2)
        assert child_bridge not in ranked
        ranked_any |= bool(ranked)
    assert ranked_any


def test_census_to_14_builds_only_the_children_stage_1_keeps(census_build):
    # a child is built only when no reducible edge beats its inserted edge
    # at stage 1; the rule fixes which children those are, whatever the
    # order in which the edges are scanned
    assert census_build.counts == {"children": 5539, "built": 837}


@pytest.fixture(scope="module")
def stage_1_parents():
    """The census parents to order 12, and 40 seeded random connected
    cubic parents of orders 8 to 30."""
    parents = [decode_graph6(g6) for n in range(4, 13, 2)
               for g6 in enumerate_cubic_graph6(n)]
    rng = random.Random(2727)
    parents += [random_cubic(8 + 2 * (i % 12), rng, connected=True)
                for i in range(40)]
    return parents


def _locally_reducible(graph, u, v):
    """Reducibility of the edge uv but for the bridge test, spelled out."""
    a, b = (x for x in graph.adj[u] if x != v)
    c, d = (x for x in graph.adj[v] if x != u)
    return not graph.has_edge(a, b) and not graph.has_edge(c, d) and {a, b} != {c, d}


def test_far_parent_edges_keep_their_key_and_local_reducibility(stage_1_parents):
    # on every edge pair ab, cd of every parent: a parent edge with no
    # endpoint in the closed neighbourhoods of a, b, c and d
    far = 0
    for parent in stage_1_parents:
        before = {e: (_stage_1_key(parent, *e),
                      _locally_reducible(parent, *e)) for e in parent.edges()}
        for e1, e2 in itertools.combinations(parent.edges(), 2):
            child = insert_on_edges(parent, e1, e2)
            near = {x for v in e1 + e2 for x in parent.adj[v] + (v,)}
            for p, q in parent.edges():
                if p not in near and q not in near:
                    far += 1
                    assert before[(p, q)] == (_stage_1_key(child, p, q),
                                              _locally_reducible(child, p, q))
    assert far > 100_000


def test_stage_1_read_off_the_parent_is_the_rule_on_the_child(stage_1_parents):
    # the rule on the built child: rejected iff a reducible edge beats the
    # inserted edge's key, else every reducible edge tied with it is kept
    rejected = kept = 0
    for parent in stage_1_parents:
        ranked_edges = enumeration._ranked_edges(parent)
        for e1, e2 in itertools.combinations(parent.edges(), 2):
            child = insert_on_edges(parent, e1, e2)
            key = _stage_1_key(child, parent.n, parent.n + 1)
            red = reducible_edges(child)
            survivor = enumeration._survivor(parent, ranked_edges, e1, e2)
            if any(_stage_1_key(child, *e) < key for e in red):
                assert survivor is None
                rejected += 1
                continue
            assert survivor is not None
            built, tied = survivor
            assert (built.adj, built.adj_bits) == (child.adj, child.adj_bits)
            assert tied[0] == (parent.n, parent.n + 1)
            assert sorted(tied) == [e for e in red
                                    if _stage_1_key(child, *e) == key]
            kept += 1
    assert rejected > 20_000 and kept > 3_000


def _sign(a, b):
    return (a > b) - (a < b)


def _assert_same_order(score, graph, edges):
    """``score`` ranks every pair of the edges as the distance reference."""
    new, old = score(graph, edges), conftest.edge_scores(graph, edges)
    for e, f in itertools.combinations(edges, 2):
        assert _sign(new[e], new[f]) == _sign(old[e], old[f]), (e, f)


def test_stage_2_orders_edges_as_the_distance_reference(monkeypatch):
    score = enumeration._edge_scores
    calls = []

    def checked(child, edges):
        calls.append(len(edges))
        _assert_same_order(score, child, edges)
        return score(child, edges)

    monkeypatch.setattr(enumeration, "_edge_scores", checked)
    monkeypatch.setattr(enumeration, "_LEVEL_CACHE", {})
    for n in range(4, 13, 2):
        assert len(enumerate_cubic_graph6(n)) == KNOWN_COUNTS[n]
    assert len(calls) > 50 and max(calls) > 5
    # every reducible edge of random connected cubic graphs, at once
    rng = random.Random(1818)
    off_short_cycles = 0
    for i in range(40):
        g = random_cubic(8 + 2 * (i % 12), rng, connected=True)
        edges = reducible_edges(g)
        off_short_cycles += sum(_stage_1_key(g, *e)
                                == enumeration._NO_SHORT_CYCLE for e in edges)
        _assert_same_order(score, g, edges)
    assert off_short_cycles > 100


def test_reduction_yields_connected_cubic(rng):
    for g in enumerate_cubic(10):
        for e in reducible_edges(g):
            h = reduce_edge(g, e)
            assert h.is_cubic() and h.is_connected()


# ---------------------------------------------------------------------------
# irreducible seeds

def test_seeds_match_oracle_irreducibles():
    for n in (6, 8, 10):
        oracle = enumerate_cubic_bruteforce(n)
        irr = tuple(
            sorted(
                g6 for g6 in oracle if not reducible_edges(decode_graph6(g6))
            )
        )
        assert irr == tuple(g6 for g6, _ in irreducible_seeds(n))


def test_seed_structure():
    # order 8: the two-diamond necklace; order 10: two subdivided K4s
    # joined by a bridge
    assert len(irreducible_seeds(6)) == 0
    assert len(irreducible_seeds(8)) == 1
    assert len(irreducible_seeds(10)) == 1
    g = decode_graph6(irreducible_seeds(8)[0][0])
    assert g.is_cubic() and g.is_connected()
    assert not reducible_edges(g)


# ---------------------------------------------------------------------------
# filtered enumeration

def test_girth5_consistent_coverage_filter_yields_petersen():
    hits = list(
        filtered_enumeration(
            10,
            ["girth=5", "consistent-girth-cycle", "every-edge-in-girth-cycle"],
        )
    )
    assert len(hits) == 1
    assert is_isomorphic(decode_graph6(hits[0]), catalog_graph("petersen"))


def test_girth4_filter_subset_of_k33_cube():
    allowed = {canonical_form(catalog_graph("k33")),
               canonical_form(catalog_graph("cube"))}
    for n in (6, 8, 10, 12):
        for g6 in filtered_enumeration(
            n, ["girth=4", "consistent-girth-cycle", "every-edge-in-girth-cycle"]
        ):
            assert canonical_form(decode_graph6(g6)) in allowed


def test_edge_orbit_and_transitivity_predicates():
    hits = list(filtered_enumeration(8, ["vertex-transitive", "edge-orbits=2"]))
    for g6 in hits:
        from cubicsym import transitivity_profile

        p = transitivity_profile(decode_graph6(g6))
        assert p.vertex_transitive and p.edge_orbit_count == 2
    assert hits  # the cube-order prism and Moebius ladder land here


def test_filtered_enumeration_yields_the_census_strings():
    for n in (4, 6, 8, 10):
        assert list(filtered_enumeration(n, [])) == list(enumerate_cubic_graph6(n))


def test_unknown_predicate_rejected():
    with pytest.raises(ValueError):
        list(filtered_enumeration(8, ["chromatic=3"]))

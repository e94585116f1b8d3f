"""The orbit-pruned search against the unpruned search it replaced.

`reference_search` is the search before automorphism pruning: it visits
every leaf whose code prefix is not already beaten and keeps every
automorphism that an equal-code leaf yields, so the group is read off
the leaves with no closure.  It starts from the engine's root, the
vertices grouped by their ball sizes, which `reference_root` reads off
BFS distances.  It refines with `reference_refine`, the
dense-signature refinement that the incremental `_refine_cells`
replaced, so the engine is compared with the old refinement end to end.
`reference_reduce` is the greedy generator reduction of that version,
which `reduced_generators` keeps for `analyze`; on larger groups it is
compared with the closure-based reduction that its level walk replaced
(`conftest.reduced_generators`).  Canonical forms,
labelings, sorted element tuples and reduced generators must all agree,
and the orbits read from the search's own generators, which every orbit
question reads, must equal those read from the reduced set and from
every element of the group.
"""

import hashlib
import random
from typing import Dict, List, Sequence, Set, Tuple

import pytest

from cubicsym import (
    automorphism_group,
    build_graph,
    catalog_graph,
    decode_graph6,
    encode_graph6,
    enumerate_cubic,
)
from cubicsym import autgrp
from cubicsym.autgrp import (_refine_cells, canonical_form, canonical_labeling,
                             reduced_generators)
from cubicsym import enumeration
from cubicsym.distinguishing import distinguishing_cost
from cubicsym.enumeration import _edge_pair_reps
from cubicsym.graph import girth
from cubicsym.symmetry import consistent_cycles, transitivity_profile
from cubicsym.perm import close_generators, edge_perms, orbits

from cubicsym.catalog import complete_bipartite, complete_graph
from cubicsym.perm import cycle_notation

from conftest import (FIXED_CATALOG, distance_profiles, random_graph,
                      random_relabel)
from conftest import reduced_generators as closure_reduced_generators


def reference_refine(
    adj_bits: Sequence[int], cells: List[Tuple[int, ...]]
) -> List[Tuple[int, ...]]:
    """The dense-signature refinement: every pass counts each vertex of
    every non-singleton cell against a bitmask of every cell."""
    while True:
        if all(len(c) == 1 for c in cells):
            return cells
        masks = [sum(1 << v for v in c) for c in cells]
        changed = False
        new_cells: List[Tuple[int, ...]] = []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            groups: Dict[tuple, List[int]] = {}
            for v in cell:
                av = adj_bits[v]
                sig = tuple((av & m).bit_count() for m in masks)
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for sig in sorted(groups, reverse=True):
                    new_cells.append(tuple(groups[sig]))
        cells = new_cells
        if not changed:
            return cells


def reference_leaves(graph, cells, bound):
    """Every leaf below the cell list `cells`, depth first, as (code,
    position -> vertex), with no automorphism pruning: a node is cut only
    when its code prefix exceeds `bound()`, the best code so far (None
    for none), which is read again at every node."""
    adj_bits = graph.adj_bits
    cells = reference_refine(adj_bits, cells)
    items = []
    for j, c in enumerate(cells):
        if len(c) != 1:
            break
        av = adj_bits[c[0]]
        colbits = 0
        for i in range(j):
            colbits = (colbits << 1) | ((av >> cells[i][0]) & 1)
        items.append(colbits)
    best_code = bound()
    if best_code is not None and items > best_code[: len(items)]:
        return
    if len(items) == len(cells):
        yield items, [c[0] for c in cells]
        return
    sizes = [len(c) for c in cells]
    target_size = min(s for s in sizes if s > 1)
    ci = sizes.index(target_size)
    for v in cells[ci]:
        yield from reference_leaves(graph, child_cells(cells, ci, v), bound)


def reference_root(graph) -> List[Tuple[int, ...]]:
    """The vertices grouped by (|B_0(v)|, ..., |B_3(v)|), counted from BFS
    distances, the cells in ascending order of that vector."""
    vectors = [tuple(sum(0 <= d <= r for d in row) for r in range(4))
               for row in distance_profiles(graph)[0]]
    return [tuple(v for v, x in enumerate(vectors) if x == vector)
            for vector in sorted(set(vectors))]


def reference_search(graph):
    n = graph.n
    best: List = [None, None]  # code, position -> vertex
    auts: Set[Tuple[int, ...]] = {tuple(range(n))}
    for items, posv in reference_leaves(
            graph, reference_root(graph), lambda: best[0]):
        if best[0] is None or items < best[0]:
            best = [items, posv]
        elif items == best[0]:
            images = [0] * n
            for p in range(n):
                images[posv[p]] = best[1][p]
            assert sorted(images) == list(range(n))
            auts.add(tuple(images))
    return tuple(best[0]), best[1], tuple(sorted(auts))


def reference_reduce(degree: int, elements) -> Tuple[Tuple[int, ...], ...]:
    gens: List[Tuple[int, ...]] = []
    closed = {tuple(range(degree))}
    for p in elements:
        if p in closed:
            continue
        gens.append(p)
        closed.add(p)
        queue = list(closed)
        while queue:
            q = queue.pop()
            for g in gens:
                r = tuple(g[x] for x in q)  # g after q
                if r not in closed:
                    closed.add(r)
                    queue.append(r)
        if len(closed) == len(elements):
            break
    return tuple(gens) if gens else (tuple(range(degree)),)


def assert_same_search(graph) -> None:
    _, posv, elements = reference_search(graph)
    group = automorphism_group(graph)
    assert group == elements
    assert reduced_generators(group) == reference_reduce(graph.n, elements)
    label = [0] * graph.n
    for p, v in enumerate(posv):
        label[v] = p
    assert canonical_labeling(graph) == tuple(label)
    canon = encode_graph6(graph.relabel(label)).encode("ascii")
    assert canonical_form(graph) == canon


# an order-10 cubic graph (|Aut| = 6) in a labelling whose search finds
# automorphisms that do not fix the path of a later node: pruning there
# with every found automorphism, not only those fixing the path, loses half
# of the group
OFF_PATH_G6 = "I?cuDPQX?"


def test_census_to_12_matches_unpruned_search():
    census = [g for n in (4, 6, 8, 10, 12) for g in enumerate_cubic(n)]
    assert len(census) == 112
    for g in census + [decode_graph6(OFF_PATH_G6)]:
        assert_same_search(g)


@pytest.mark.parametrize("name", FIXED_CATALOG)
def test_catalog_graph_matches_unpruned_search(name):
    g = catalog_graph(name)
    relabelled = random_relabel(g, random.Random(name))
    for h in (g, relabelled):
        assert_same_search(h)


def _differential_grid():
    graphs = [g for n in (4, 6, 8, 10, 12) for g in enumerate_cubic(n)]
    graphs.append(decode_graph6(OFF_PATH_G6))
    for name in FIXED_CATALOG:
        g = catalog_graph(name)
        graphs += [g, random_relabel(g, random.Random(name))]
    return graphs


def _vertex_and_edge_orbits(g, perms):
    edges = g.edges()
    return orbits(perms, range(g.n)), orbits(edge_perms(perms, edges), edges)


def test_orbits_of_the_search_generators_equal_the_reduced_ones():
    kept = 0
    for g in _differential_grid():
        gens = autgrp.search_generators(g)
        reduced = reduced_generators(automorphism_group(g))
        kept += bool(gens) and tuple(gens) != reduced
        assert _vertex_and_edge_orbits(g, gens) == _vertex_and_edge_orbits(g, reduced), (
            encode_graph6(g))
        assert _edge_pair_reps(g, gens) == _edge_pair_reps(g, reduced), (
            encode_graph6(g))
    # an asymmetric graph's search gives no generators, so it is not counted:
    # the two generating sets differ on some graph that has a symmetry
    assert kept > 0


def test_orbits_of_the_search_generators_equal_those_of_the_whole_group():
    # every orbit question reads the search's generators, and every
    # stabilizer question the group they close to: the two must agree
    graphs = [g for n in (4, 6, 8, 10) for g in enumerate_cubic(n)]
    graphs += [catalog_graph(name) for name in FIXED_CATALOG]
    rng = random.Random(3535)
    symmetric = 0
    for g in graphs + [random_relabel(g, rng) for g in graphs]:
        group = automorphism_group(g)
        gens = autgrp.search_generators(g)
        assert close_generators(gens, g.n) == group, encode_graph6(g)
        assert _vertex_and_edge_orbits(g, gens) == _vertex_and_edge_orbits(g, group), (
            encode_graph6(g))
        symmetric += len(group) > 1
    assert len(graphs) == 42 and symmetric == 84  # every group here moves a point


# the census to 12 (`assert_same_search`) holds no group of order above 48;
# these reach 5,040 and span up to six levels of the stabilizer chain
LARGE_GROUPS = (["k7", "k44", "tutte_coxeter", "desargues", "gp(12,5)"]
                + [f"{family}({k})" for family in ("prism", "moebius")
                   for k in range(3, 9)])


@pytest.mark.parametrize("name", LARGE_GROUPS)
def test_level_walk_matches_the_closure_on_large_groups(name):
    complete = {"k7": lambda: complete_graph(7),
                "k44": lambda: complete_bipartite(4, 4)}
    g = complete[name]() if name in complete else catalog_graph(name)
    for h in (g, random_relabel(g, random.Random(name))):
        group = automorphism_group(h)
        assert reduced_generators(group) == closure_reduced_generators(group)


def test_reduced_generators_of_k9():
    # 9! elements, too many for the closure reference: one transposition
    # per level, the deepest level first
    reduced = reduced_generators(automorphism_group(complete_graph(9)))
    assert list(map(cycle_notation, reduced)) == [
        f"({k} {k + 1})" for k in range(7, -1, -1)]


def _group_readouts(g):
    """Everything the claims read off a graph's memo entry and group."""
    group = automorphism_group(g)
    return (canonical_form(g), group,
            _vertex_and_edge_orbits(g, autgrp.search_generators(g)),
            transitivity_profile(g), distinguishing_cost(g),
            consistent_cycles(g, girth(g)))


def test_adopted_census_generators_read_like_a_fresh_search(monkeypatch):
    # a graph decoded from a class's string, the census's or a fixed catalog
    # graph's (`canonical_class`), is memoized with the class's generators
    # and no search; every readout must equal that of a fresh search of the
    # same graph, and the adopted code must pack to the string
    classes = [c for n in (4, 6, 8, 10, 12) for c in zip(*enumeration._level(n, 1))]
    classes += [autgrp.canonical_class(catalog_graph(name))
                for name in FIXED_CATALOG]
    searched = []
    search = autgrp._ir_search
    monkeypatch.setattr(autgrp, "_ir_search",
                        lambda g: searched.append(g) or search(g))
    for g6, gens in classes:
        adopted = decode_graph6(g6)
        autgrp.adopt(adopted, gens)
        code = autgrp._memo[1].code
        readouts = _group_readouts(adopted)
        assert searched == [], g6
        fresh = decode_graph6(g6)
        assert autgrp._ir_search(fresh).code == code, g6
        assert readouts == _group_readouts(fresh), g6
        assert readouts[0] == g6.encode("ascii")
        searched.clear()
    assert len(classes) == 112 + len(FIXED_CATALOG)


# ---------------------------------------------------------------------------
# the incremental refinement against the dense one, cell list by cell list


def random_cells(n: int, rng: random.Random) -> List[Tuple[int, ...]]:
    """A random ordered cell list: shuffled vertices cut into pieces."""
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), rng.randrange(min(n, 5))))
    bounds = [0] + cuts + [n]
    return [tuple(order[a:b]) for a, b in zip(bounds, bounds[1:])]


def cell_weights(adj, cells) -> List[int]:
    """The weight of every vertex under `cells`, as `_refine_cells`
    documents it: B ** (n - p), B = 2 ** shift above every degree."""
    shift = max(map(len, adj)).bit_length()
    weight = [0] * len(adj)
    p = 0
    for cell in cells:
        for v in cell:
            weight[v] = 1 << shift * (len(adj) - p)
        p += len(cell)
    return weight


def child_cells(cells, ci: int, v: int) -> List[Tuple[int, ...]]:
    """`cells` with `v` individualized in front of the rest of cell ci."""
    rest = tuple(x for x in cells[ci] if x != v)
    return cells[:ci] + [(v,), rest] + cells[ci + 1 :]


def refine_child(adj, cells, weight, ci: int, v: int) -> List[Tuple[int, ...]]:
    """The search's child of equitable `cells` that cuts `v` out of cell
    ci: `weight`, theirs, gets the rest of the cell moved one position on
    and ends holding the child's; only the rest's neighbors are checked."""
    shift = max(map(len, adj)).bit_length()
    child = child_cells(cells, ci, v)
    for x in child[ci + 1]:
        weight[x] = weight[v] >> shift
    check = {w for x in child[ci + 1] for w in adj[x]}
    return _refine_cells(adj, child, weight, check)


def split_equitable(graph, rng: random.Random):
    """An equitable cell list, one of its non-singleton cells and a vertex
    of it, and that cell cut in two with the cell's neighbors: the seed
    that vouches for the cut."""
    cells = reference_refine(graph.adj_bits, random_cells(graph.n, rng))
    wide = [i for i, c in enumerate(cells) if len(c) > 1]
    if not wide:
        return None
    ci = rng.choice(wide)
    cell = list(cells[ci])
    rng.shuffle(cell)
    cut = rng.randrange(1, len(cell))
    cut_cells = cells[:ci] + [tuple(cell[:cut]), tuple(cell[cut:])] + cells[ci + 1 :]
    return (cells, ci, cell[0], cut_cells,
            {w for v in cell for w in graph.adj[v]})


def refinement_graphs():
    rng = random.Random(7)
    graphs = [g for n in (4, 6, 8, 10) for g in enumerate_cubic(n)]
    graphs += [catalog_graph(name) for name in FIXED_CATALOG]
    # degree 8: counts reach 8, so the base must be 16 (see the next test)
    star = [(0, i) for i in range(1, 9)]
    graphs += [complete_bipartite(1, 8), build_graph(11, star + [(9, 10)])]
    graphs.append(complete_graph(9))
    for n in (6, 9, 12):
        for p in (0.15, 0.3, 0.6):
            g = random_graph(n, p, rng)
            graphs.append(build_graph(n + 2, g.edges()))  # two isolated
    return graphs


def test_refinement_matches_dense_refinement():
    rng = random.Random(2014)
    for g in refinement_graphs():
        for _ in range(12):
            cells = random_cells(g.n, rng)
            assert _refine_cells(g.adj, list(cells)) == reference_refine(
                g.adj_bits, list(cells)
            )
            split = split_equitable(g, rng)
            if split is None:
                continue
            cells, ci, v, cut_cells, seed = split
            expected = reference_refine(g.adj_bits, list(cut_cells))
            assert _refine_cells(g.adj, list(cut_cells)) == expected
            assert _refine_cells(g.adj, list(cut_cells), check=seed) == expected
            child = reference_refine(g.adj_bits, child_cells(cells, ci, v))
            weight = cell_weights(g.adj, cells)
            assert refine_child(g.adj, cells, weight, ci, v) == child
            if len(child) < g.n:
                assert weight == cell_weights(g.adj, child)


def test_base_exceeds_a_count_of_8():
    # the centre 0 has all 8 neighbors in the second cell, and 9 one
    # neighbor in the singleton before it: base 8 would give them one
    # signature, 8 * 8 ** e == 1 * 8 ** (e + 1)
    g = build_graph(11, [(0, i) for i in range(1, 9)] + [(9, 10)])
    cells = [(10,), tuple(range(1, 9)), (0, 9)]
    expected = [(10,), tuple(range(1, 9)), (9,), (0,)]
    assert reference_refine(g.adj_bits, list(cells)) == expected
    assert _refine_cells(g.adj, list(cells)) == expected


def check_seeded_refinement(monkeypatch) -> List[int]:
    """Make every seeded `_refine_cells` call of the search assert that it
    equals the refinement of its cell list from scratch and ends with the
    weights of its own partition; the list the calls' cell counts go to."""
    refine_cells = autgrp._refine_cells
    seeded = []

    def checked(adj, cells, weight=None, check=None, **kwargs):
        out = refine_cells(adj, cells, weight, check, **kwargs)
        if check is not None:
            assert out == refine_cells(adj, list(cells))
            if len(out) < len(adj):
                assert weight == cell_weights(adj, out)
            seeded.append(len(cells))
        return out

    monkeypatch.setattr(autgrp, "_refine_cells", checked)
    return seeded


def test_seeded_refinement_equals_unseeded_at_every_node(monkeypatch):
    # every non-root node is refined from its parent's equitable partition
    # and weights, checking only the vertices whose signature can change;
    # it must equal the refinement of its cell list from scratch, and end
    # with the weights of its own partition
    census = [g for n in (4, 6, 8, 10) for g in enumerate_cubic(n)]
    seeded = check_seeded_refinement(monkeypatch)
    for g in census:
        autgrp._ir_search(g)
    # one per refined non-root node of these searches
    assert len(seeded) == 249


def test_seeded_refinement_equals_unseeded_on_random_graphs(monkeypatch):
    # unlike the census to 10, random graphs have nodes where the first
    # pass must split a cell holding no neighbor of the first vertex of
    # the rest, so a `check` missing any of the rest's neighbors fails here
    rng = random.Random(2929)
    graphs = [random_graph(rng.randrange(4, 13), rng.choice((0.2, 0.3, 0.5)), rng)
              for _ in range(200)]
    seeded = check_seeded_refinement(monkeypatch)
    for g in graphs:
        autgrp._ir_search(g)
    assert seeded


def test_refinement_work_is_pinned(monkeypatch):
    # a deterministic tripwire on the refinement work of the census to 12:
    # `_refine_cells` calls, one per root and one per child, which alone
    # passes a `check`
    census = [g for n in (4, 6, 8, 10, 12) for g in enumerate_cubic(n)]
    counts = {"root": 0, "child": 0}
    refine_cells = autgrp._refine_cells

    def counting(adj, cells, weight=None, check=None, **kwargs):
        counts["root" if check is None else "child"] += 1
        return refine_cells(adj, cells, weight, check, **kwargs)

    monkeypatch.setattr(autgrp, "_refine_cells", counting)
    for g in census:
        autgrp._ir_search(g)
    assert counts == {"root": 112, "child": 817}


# sha256 of the search outputs (code, position_vertex, generator images),
# one repr per line, over the census to n = 12 and the fixed catalog, each
# graph in two relabellings: it pins the order the search explores in, not
# only the canonical forms it reaches
SEARCH_PIN_SHA256 = "8c774d8cdb1e2e7cb82505d2f964524f56af8532fcf41a063070c64cb99abb8a"


def test_search_outputs_are_pinned():
    graphs = [g for n in (4, 6, 8, 10, 12) for g in enumerate_cubic(n)]
    graphs += [catalog_graph(name) for name in FIXED_CATALOG]
    rng = random.Random(20240811)
    lines = []
    for g in graphs:
        for _ in range(2):
            h = random_relabel(g, rng)
            res = autgrp._ir_search(h)
            images = list(res.generators)
            lines.append(repr((res.code, res.position_vertex, images)))
    assert len(lines) == 254
    digest = hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()
    assert digest == SEARCH_PIN_SHA256

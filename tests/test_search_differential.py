"""The orbit-pruned search against the unpruned search it replaced.

`reference_search` is the search before automorphism pruning: it visits
every leaf whose code prefix is not already beaten and keeps every
automorphism that an equal-code leaf yields, so the group is read off
the leaves with no closure.  It refines with `reference_refine`, the
dense-signature refinement that the incremental `_refine_cells`
replaced, so the engine is compared with the old refinement end to end.
`reference_reduce` is the greedy generator reduction of that version.
Canonical forms, labelings, sorted element lists, reduced generators and
partial-map witnesses must all agree.
"""

import hashlib
import random
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from cubicsym import (
    Permutation,
    automorphism_group,
    build_graph,
    catalog_graph,
    cycles_of_length,
    decode_graph6,
    encode_graph6,
    enumerate_cubic,
    extend_partial_map,
    girth,
)
from cubicsym import autgrp
from cubicsym.autgrp import (
    _SearchResult,
    _refine_cells,
    canonical_data,
    canonical_form,
    cells_from_coloring,
)

from cubicsym.catalog import complete_bipartite, complete_graph

from conftest import random_graph, random_relabel

FIXED_CATALOG = (
    "k4", "k33", "cube", "petersen", "dodecahedron", "desargues", "heawood",
    "pappus", "tutte_coxeter", "icosahedron", "base_graph", "omega18",
    "fig5_lambda", "truncated_k4", "truncated_icosahedron",
)


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


def reference_search(graph, initial_cells: Sequence[Tuple[int, ...]]):
    n = graph.n
    adj_bits = graph.adj_bits
    init_color = [0] * n
    for ci, cell in enumerate(initial_cells):
        for v in cell:
            init_color[v] = ci

    best_code: Optional[List[tuple]] = None
    best_posv: Optional[List[int]] = None
    auts: Dict[Tuple[int, ...], Permutation] = {}

    def rec(cells: List[Tuple[int, ...]], items: List[tuple]) -> None:
        nonlocal best_code, best_posv
        cells = reference_refine(adj_bits, cells)
        t = 0
        for c in cells:
            if len(c) != 1:
                break
            t += 1
        if t > len(items):
            items = list(items)
            for j in range(len(items), t):
                vj = cells[j][0]
                av = adj_bits[vj]
                colbits = 0
                for i in range(j):
                    colbits = (colbits << 1) | ((av >> cells[i][0]) & 1)
                items.append((init_color[vj], colbits))
        if best_code is not None and items > best_code[: len(items)]:
            return
        if t == len(cells):
            posv = [c[0] for c in cells]
            if best_code is None or items < best_code:
                best_code = items
                best_posv = posv
            elif items == best_code:
                images = [0] * n
                for p in range(n):
                    images[posv[p]] = best_posv[p]
                perm = Permutation(tuple(images))
                auts.setdefault(perm.images, perm)
            return
        sizes = [len(c) for c in cells]
        target_size = min(s for s in sizes if s > 1)
        ci = sizes.index(target_size)
        cell = cells[ci]
        for v in cell:
            rest = tuple(x for x in cell if x != v)
            child = cells[:ci] + [(v,), rest] + cells[ci + 1 :]
            rec(child, items)

    rec(list(initial_cells), [])
    ident = Permutation.identity(n)
    auts.setdefault(ident.images, ident)
    return tuple(best_code), best_posv, tuple(auts[k] for k in sorted(auts))


def reference_reduce(degree: int, elements) -> Tuple[Permutation, ...]:
    gens: List[Permutation] = []
    closed = {Permutation.identity(degree).images}
    for p in elements:
        if p.images in closed:
            continue
        gens.append(p)
        closed.add(p.images)
        queue = [Permutation(im) for im in list(closed)]
        while queue:
            q = queue.pop()
            for g in gens:
                r = g * q
                if r.images not in closed:
                    closed.add(r.images)
                    queue.append(r)
        if len(closed) == len(elements):
            break
    return tuple(gens) if gens else (Permutation.identity(degree),)


def assert_same_search(graph, coloring=None) -> None:
    if coloring is None:
        cells = (tuple(range(graph.n)),)
    else:
        cells = cells_from_coloring(graph.n, coloring)
    _, posv, elements = reference_search(graph, cells)
    group = automorphism_group(graph, coloring)
    assert group.elements == elements
    assert group.generators == reference_reduce(graph.n, elements)
    if coloring is None:
        label = [0] * graph.n
        for p, v in enumerate(posv):
            label[v] = p
        canon = encode_graph6(graph.relabel(label)).encode("ascii")
        data = canonical_data(graph)
        assert canonical_form(graph) == data.canonical_g6 == canon
        assert data.labeling.images == tuple(label)
        assert data.group == group


def partial_maps(graph, count: int) -> List[Dict[int, int]]:
    """Single-vertex maps from vertex 0 and one-step rotations of the
    first few girth cycles: the maps the consistent-cycle code asks for."""
    maps = [{0: v} for v in range(min(graph.n, count))]
    length = girth(graph)
    for cyc in cycles_of_length(graph, length)[:count]:
        vs = cyc.vertices
        maps.append({vs[i]: vs[(i + 1) % len(vs)] for i in range(len(vs))})
    return maps


def assert_same_witnesses(graph, count: int, monkeypatch) -> None:
    maps = partial_maps(graph, count)
    pruned = [extend_partial_map(graph, m) for m in maps]
    with monkeypatch.context() as patch:
        patch.setattr(
            autgrp,
            "_ir_search",
            lambda g, cells: _SearchResult(*reference_search(g, cells)[:2], []),
        )
        unpruned = [extend_partial_map(graph, m) for m in maps]
    assert pruned == unpruned


# an order-10 cubic graph (|Aut| = 6) in a labelling whose search finds
# automorphisms that do not fix the path of a later node: pruning there
# with every found automorphism, not only those fixing the path, loses half
# of the group
OFF_PATH_G6 = "I?cuDPQX?"


def test_census_to_12_matches_unpruned_search(monkeypatch):
    census = [g for n in (4, 6, 8, 10, 12) for g in enumerate_cubic(n)]
    assert len(census) == 112
    for g in census + [decode_graph6(OFF_PATH_G6)]:
        assert_same_search(g)
        assert_same_search(g, tuple(v % 2 for v in range(g.n)))
        assert_same_witnesses(g, 2, monkeypatch)


@pytest.mark.parametrize("name", FIXED_CATALOG)
def test_catalog_graph_matches_unpruned_search(name, monkeypatch):
    g = catalog_graph(name)
    relabelled = random_relabel(g, random.Random(name))
    for h in (g, relabelled):
        assert_same_search(h)
        assert_same_search(h, tuple(v % 2 for v in range(h.n)))
    assert_same_witnesses(g, 4, monkeypatch)
    assert_same_witnesses(relabelled, 4, monkeypatch)


# ---------------------------------------------------------------------------
# the incremental refinement against the dense one, cell list by cell list


def random_cells(n: int, rng: random.Random) -> List[Tuple[int, ...]]:
    """A random ordered cell list: shuffled vertices cut into pieces."""
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, n), rng.randrange(min(n, 5))))
    bounds = [0] + cuts + [n]
    return [tuple(order[a:b]) for a, b in zip(bounds, bounds[1:])]


def split_equitable(graph, rng: random.Random):
    """An equitable cell list with one non-singleton cell cut in two, and
    the neighbors of that cell: the seed the search passes a child."""
    cells = reference_refine(graph.adj_bits, random_cells(graph.n, rng))
    wide = [i for i, c in enumerate(cells) if len(c) > 1]
    if not wide:
        return None
    ci = rng.choice(wide)
    cell = list(cells[ci])
    rng.shuffle(cell)
    cut = rng.randrange(1, len(cell))
    cells[ci : ci + 1] = [tuple(cell[:cut]), tuple(cell[cut:])]
    return cells, {w for v in cell for w in graph.adj[v]}


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
            cells, seed = split
            expected = reference_refine(g.adj_bits, list(cells))
            assert _refine_cells(g.adj, list(cells)) == expected
            assert _refine_cells(g.adj, list(cells), seed) == expected


def test_base_exceeds_a_count_of_8():
    # the centre 0 has all 8 neighbors in the second cell, and 9 one
    # neighbor in the singleton before it: base 8 would give them one
    # signature, 8 * 8 ** e == 1 * 8 ** (e + 1)
    g = build_graph(11, [(0, i) for i in range(1, 9)] + [(9, 10)])
    cells = [(10,), tuple(range(1, 9)), (0, 9)]
    expected = [(10,), tuple(range(1, 9)), (9,), (0,)]
    assert reference_refine(g.adj_bits, list(cells)) == expected
    assert _refine_cells(g.adj, list(cells)) == expected


def test_seeded_refinement_equals_unseeded_at_every_node(monkeypatch):
    refine = autgrp._refine_cells
    seeded = []

    def checked(adj, cells, check=None):
        out = refine(adj, cells, check)
        if check is not None:
            assert out == refine(adj, cells)
            seeded.append(len(cells))
        return out

    census = [g for n in (4, 6, 8, 10) for g in enumerate_cubic(n)]
    monkeypatch.setattr(autgrp, "_refine_cells", checked)
    for g in census:
        autgrp._search_with_coloring(g, None)
        autgrp._search_with_coloring(g, tuple(v % 2 for v in range(g.n)))
    assert len(seeded) == 394  # one per non-root node of these searches


# sha256 of the search outputs (code, position_vertex, generator images),
# one repr per line, over the census to n = 12 and the fixed catalog, each
# graph in two relabellings, uncoloured and `v % 2`-coloured: recorded with
# the dense-signature refinement, so it pins the order the search explores
# in, not only the canonical forms it reaches
SEARCH_PIN_SHA256 = "76926795aac7fc4b815e2be669a8ab16ae969431c2abde8a9be62686036348ff"


def test_search_outputs_are_pinned():
    graphs = [g for n in (4, 6, 8, 10, 12) for g in enumerate_cubic(n)]
    graphs += [catalog_graph(name) for name in FIXED_CATALOG]
    rng = random.Random(20240811)
    lines = []
    for g in graphs:
        for _ in range(2):
            h = random_relabel(g, rng)
            for coloring in (None, tuple(v % 2 for v in range(h.n))):
                res = autgrp._search_with_coloring(h, coloring)
                images = [p.images for p in res.generators]
                lines.append(repr((res.code, res.position_vertex, images)))
    assert len(lines) == 508
    digest = hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()
    assert digest == SEARCH_PIN_SHA256

"""The orbit-pruned search against the unpruned search it replaced.

`reference_search` is the search before automorphism pruning: it visits
every leaf whose code prefix is not already beaten and keeps every
automorphism that an equal-code leaf yields, so the group is read off
the leaves with no closure.  `reference_reduce` is the greedy generator
reduction of that version.  Canonical forms, labelings, sorted element
lists, reduced generators and partial-map witnesses must all agree.
"""

import random
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from cubicsym import (
    Permutation,
    automorphism_group,
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

from conftest import random_relabel

FIXED_CATALOG = (
    "k4", "k33", "cube", "petersen", "dodecahedron", "desargues", "heawood",
    "pappus", "tutte_coxeter", "icosahedron", "base_graph", "omega18",
    "fig5_lambda", "truncated_k4", "truncated_icosahedron",
)


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
        cells = _refine_cells(adj_bits, cells)
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
    length = girth(graph).length
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

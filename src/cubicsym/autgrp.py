"""Colored-graph refinement and individualization-refinement search.

One search engine backs four operations: equitable refinement, canonical
forms (and hence isomorphism tests), full automorphism groups (optionally
color-preserving), and extension of partial vertex maps to automorphisms.

The canonical form is the lexicographically smallest leaf code of the
refinement tree, taken at the first leaf reaching it in depth-first
order.  Every other leaf with that code yields an automorphism, and the
search prunes with them (McKay & Piperno, "Practical graph isomorphism,
II", 2014): below a node, a child in the orbit of an explored child
under the found automorphisms that fix the node's path roots an image of
an explored subtree, so it is skipped.  An equal-code leaf also unwinds
the search to the node where its path leaves the best leaf's: the
automorphism it gives maps the best path's child there onto its own, so
the rest of that child's subtree is skipped.  Pruned subtrees hold no earlier
minimum leaf, so the canonical leaf is the one the full tree gives, and
the found automorphisms generate the whole group, which is materialized
by closing them.

Refinement is incremental, yet it gives the fragments, in the same order,
that counting every vertex against every cell gives.  A vertex weighs B ** (n - p), where p is
the position at which its cell starts and B is a power of two above
every degree; the sum of its neighbors' weights is its count vector
against the cells, read as base-B digits with the first cell highest, so
integer order is count-vector order and fragments keep their order.  A
pass re-splits only the cells that hold a neighbor of a vertex whose
weight the previous pass changed, and a child of a search node, whose
parent partition is equitable, starts from the neighbors of the cell
it splits.  The leaf code is compared with the best one item by item,
so a node stops at the first item that exceeds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .graph import Graph
from .graph6 import encode_graph6
from .perm import (
    DEFAULT_GROUP_CAP,
    Permutation,
    PermutationGroup,
    close_generators,
    extend_closure,
)

VertexColoring = Sequence[int]


@dataclass(frozen=True)
class OrderedPartition:
    """Ordered sequence of disjoint vertex cells covering [0, n)."""

    cells: Tuple[Tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return sum(len(c) for c in self.cells)

    def is_discrete(self) -> bool:
        return all(len(c) == 1 for c in self.cells)

    def is_equitable(self, graph: Graph) -> bool:
        masks = [sum(1 << v for v in c) for c in self.cells]
        for cell in self.cells:
            for mask in masks:
                counts = {(graph.adj_bits[v] & mask).bit_count() for v in cell}
                if len(counts) > 1:
                    return False
        return True


def cells_from_coloring(n: int, colors: VertexColoring) -> Tuple[Tuple[int, ...], ...]:
    if len(colors) != n:
        raise ValueError("coloring length must equal vertex count")
    if n == 0:
        return ()
    k = max(colors) + 1
    if sorted(set(colors)) != list(range(k)):
        raise ValueError("color indices must form a contiguous range from 0")
    cells: List[List[int]] = [[] for _ in range(k)]
    for v, c in enumerate(colors):
        cells[c].append(v)
    return tuple(tuple(c) for c in cells)


def _refine_cells(
    adj: Sequence[Sequence[int]],
    cells: List[Tuple[int, ...]],
    check: Optional[Set[int]] = None,
) -> List[Tuple[int, ...]]:
    """Coarsest equitable refinement of an ordered cell list.

    Signature of a vertex: its neighbor counts against every cell, in
    cell order.  Fragments replace their parent cell in place, ordered by
    descending signature, so a vertex individualized in a cubic graph is
    followed by its neighbors before the rest (the distance partition).
    The signature is a function of cell positions only, never of raw
    vertex ids, which keeps the search tree automorphism-closed.

    The count vector is read as one integer: a vertex weighs B ** (n - p),
    where p is the position at which its cell starts and B = 2 ** shift
    exceeds every degree, and the signature is the sum of the neighbors'
    weights.  Its base-B digits are the counts, the first cell's highest,
    so integers order as the count vectors do.  Each pass splits every
    cell by the partition the pass began with, and only then gives the
    moved fragments (all but the first of a split cell) their new weights.
    A signature changes only if a neighbor's weight does, so a pass
    re-splits only the cells holding a neighbor of a moved vertex; the
    others cannot split.  `check`, when given, is that vertex set for the
    first pass: the caller vouches that no cell avoiding it can split.
    """
    n = len(adj)
    if len(cells) == n:
        return cells
    shift = max(map(len, adj)).bit_length()
    weight = [0] * n
    p = n  # n - (start position of the cell)
    for cell in cells:
        w = 1 << shift * p
        for v in cell:
            weight[v] = w
        p -= len(cell)
    if check is None:
        check = set(range(n))
    while True:
        new_cells: List[Tuple[int, ...]] = []
        moved: List[Tuple[List[int], int]] = []  # fragment, its new weight
        for cell in cells:
            if len(cell) == 1 or check.isdisjoint(cell):
                new_cells.append(cell)
                continue
            groups: Dict[int, List[int]] = {}
            for v in cell:
                sig = sum(map(weight.__getitem__, adj[v]))
                if sig in groups:
                    groups[sig].append(v)
                else:
                    groups[sig] = [v]
            if len(groups) == 1:
                new_cells.append(cell)
                continue
            w = weight[cell[0]]
            for k, sig in enumerate(sorted(groups, reverse=True)):
                fragment = groups[sig]
                if k:
                    moved.append((fragment, w))
                new_cells.append(tuple(fragment))
                w >>= shift * len(fragment)
        if not moved or len(new_cells) == n:
            return new_cells
        cells = new_cells
        check = set()
        for fragment, w in moved:
            for v in fragment:
                weight[v] = w
                check.update(adj[v])


def refine_coloring(graph: Graph, colors: VertexColoring) -> OrderedPartition:
    """Coarsest equitable partition refining the given coloring."""
    cells = list(cells_from_coloring(graph.n, colors))
    return OrderedPartition(tuple(_refine_cells(graph.adj, cells)))


class _SearchResult:
    __slots__ = ("code", "position_vertex", "generators")

    def __init__(self, code, position_vertex, generators):
        self.code = code
        self.position_vertex = position_vertex  # canonical position -> vertex
        self.generators = generators  # automorphisms from equal-code leaves


def _ir_search(graph: Graph, initial_cells: Sequence[Tuple[int, ...]]) -> _SearchResult:
    """Explore the refinement tree with orbit pruning; return the minimum
    leaf code, the first leaf reaching it, and generators of the group."""
    n = graph.n
    adj = graph.adj
    init_color = [0] * n
    for ci, cell in enumerate(initial_cells):
        for v in cell:
            init_color[v] = ci
    # vertex -> position in the discrete prefix of the current path; an
    # entry left by another path is told apart by `cells[i][0] != w`
    pos = [0] * n

    best_code: Optional[List[tuple]] = None
    best_posv: Optional[List[int]] = None
    best_path: Tuple[int, ...] = ()
    gens: List[Tuple[int, ...]] = []

    def rec(
        cells: List[Tuple[int, ...]],
        items: List[tuple],
        path: Tuple[int, ...],
        check: Optional[Set[int]],
    ) -> Optional[int]:
        """Explore below a node; a depth to unwind to, or None."""
        nonlocal best_code, best_posv, best_path
        cells = _refine_cells(adj, cells, check)
        # the parent's discrete prefix is a prefix of this one
        k = len(items)
        t = k
        while t < len(cells) and len(cells[t]) == 1:
            t += 1
        # the parent's items never exceed the best code's prefix: they are
        # either equal to it (a tie, compared on below) or less
        tie = best_code is not None and items == best_code[:k]
        if t > k:
            items = list(items)
            for j in range(k, t):
                vj = cells[j][0]
                pos[vj] = j
                colbits = 0
                for w in adj[vj]:
                    i = pos[w]
                    if i < j and cells[i][0] == w:
                        colbits |= 1 << (j - 1 - i)
                item = (init_color[vj], colbits)
                if tie:
                    ref = best_code[j]
                    if item > ref:
                        return None
                    tie = item == ref
                items.append(item)
        if t == len(cells):  # discrete partition: a leaf
            posv = [c[0] for c in cells]
            if not tie:
                best_code = items
                best_posv = posv
                best_path = path
            else:
                assert best_posv is not None
                images = [0] * n
                for p in range(n):
                    images[posv[p]] = best_posv[p]
                gens.append(tuple(images))
                # its inverse fixes the paths' common prefix and maps the
                # best path's next child onto this one's: unwind to there
                d = 0
                while path[d] == best_path[d]:
                    d += 1
                return d
            return None
        sizes = [len(c) for c in cells]
        target_size = min(s for s in sizes if s > 1)
        ci = sizes.index(target_size)
        cell = cells[ci]
        # this partition is equitable, so in a child only the cells holding
        # a neighbor of the split cell can split on the first pass
        seed: Set[int] = set()
        for x in cell:
            seed.update(adj[x])
        # children in one orbit of the found automorphisms fixing the path
        # root isomorphic subtrees with equal leaf codes: explore one each
        done: Set[int] = set()
        for v in cell:
            if v in done:
                continue
            rest = tuple(x for x in cell if x != v)
            child = cells[:ci] + [(v,), rest] + cells[ci + 1 :]
            back = rec(child, items, path + (v,), seed)
            if back is not None and back < len(path):
                return back
            done.add(v)
            fixing = [g for g in gens if all(g[x] == x for x in path)]
            stack = list(done)
            while stack:
                x = stack.pop()
                for g in fixing:
                    if g[x] not in done:
                        done.add(g[x])
                        stack.append(g[x])
        return None

    rec(list(initial_cells), [], (), None)
    assert best_code is not None and best_posv is not None
    return _SearchResult(tuple(best_code), best_posv, [Permutation(g) for g in gens])


def _reduce_generators(
    degree: int, elements: Sequence[Permutation]
) -> Tuple[Permutation, ...]:
    """Greedy small generating set for a materialized element list."""
    gens: List[Permutation] = []
    lookups: List = []
    closed = {tuple(range(degree))}
    for p in elements:
        if p.images in closed:
            continue
        gens.append(p)
        lookups.append(p.images.__getitem__)
        extend_closure(closed, lookups, len(elements))
        if len(closed) == len(elements):
            break
    return tuple(gens) if gens else (Permutation.identity(degree),)


def _search_with_coloring(
    graph: Graph, coloring: Optional[VertexColoring]
) -> _SearchResult:
    if graph.n == 0:
        return _SearchResult((), [], [])
    if coloring is None:
        cells: Tuple[Tuple[int, ...], ...] = (tuple(range(graph.n)),)
    else:
        cells = cells_from_coloring(graph.n, coloring)
    return _ir_search(graph, cells)


# One memo for the last uncolored graph, by identity: its search and, closed
# on first request, its group.  `analyze` and the claims ask one graph for
# its canonical form and then, often more than once, for its group.
_memo: list = [None, None, None]  # graph, search result, group or None


def _uniform(graph: Graph) -> list:
    if _memo[0] is not graph:
        _memo[:] = [graph, _search_with_coloring(graph, None), None]
    return _memo


def automorphism_group(
    graph: Graph,
    coloring: Optional[VertexColoring] = None,
    cap: int = DEFAULT_GROUP_CAP,
) -> PermutationGroup:
    """Full group of adjacency-preserving bijections, optionally required
    to preserve an initial coloring; materialized, deterministic."""
    if coloring is not None or cap != DEFAULT_GROUP_CAP:
        return _closed_group(graph.n, _search_with_coloring(graph, coloring), cap)
    memo = _uniform(graph)
    if memo[2] is None:
        memo[2] = _closed_group(graph.n, memo[1])
    return memo[2]


def _closed_group(
    n: int, res: _SearchResult, cap: int = DEFAULT_GROUP_CAP
) -> PermutationGroup:
    """Close the found generators (the cap fires during the closure) and
    reduce the sorted element list to the greedy generating set."""
    elements = close_generators(res.generators, n, cap).elements
    return PermutationGroup(n, _reduce_generators(n, elements), elements)


def _labeling(graph: Graph) -> Tuple[int, ...]:
    """Vertex -> canonical position, from the memoized search."""
    label = [0] * graph.n
    for p, v in enumerate(_uniform(graph)[1].position_vertex):
        label[v] = p
    return tuple(label)


def canonical_form(graph: Graph) -> bytes:
    """Relabeling-invariant byte form: graph6 of the canonical labeling."""
    return encode_graph6(graph.relabel(_labeling(graph))).encode("ascii")


@dataclass(frozen=True)
class CanonicalData:
    group: PermutationGroup
    canonical_g6: bytes
    labeling: Permutation  # vertex -> canonical position


def canonical_data(graph: Graph) -> CanonicalData:
    """Group, canonical form, and canonical labeling from a single search."""
    label = _labeling(graph)
    return CanonicalData(
        automorphism_group(graph),
        encode_graph6(graph.relabel(label)).encode("ascii"),
        Permutation(label),
    )


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.m != h.m:
        return False
    return canonical_form(g) == canonical_form(h)


def extend_partial_map(
    graph: Graph, partial: Mapping[int, int]
) -> Optional[Permutation]:
    """Some automorphism agreeing with the partial vertex map, or None.

    Sources and targets are individualized with matching colors and the
    two colored canonical forms are compared; equal codes compose the two
    canonical labelings into a witness.  The witness is deterministic.
    """
    n = graph.n
    sources = sorted(partial)
    targets = [partial[s] for s in sources]
    if len(set(targets)) != len(targets):
        raise ValueError("partial map must be injective")
    for x in sources + targets:
        if not 0 <= x < n:
            raise ValueError("partial map endpoint outside vertex range")
    colors_a = [0] * n
    colors_b = [0] * n
    for i, (s, t) in enumerate(zip(sources, targets), start=1):
        colors_a[s] = i
        colors_b[t] = i
    # recompact to contiguous ranges (color 0 is absent for full maps, and
    # then for both sides at once, so the shift stays aligned)
    colors_a = _compact(colors_a)
    colors_b = _compact(colors_b)
    res_a = _search_with_coloring(graph, tuple(colors_a))
    res_b = _search_with_coloring(graph, tuple(colors_b))
    if res_a.code != res_b.code:
        return None
    images = [0] * n
    for p in range(n):
        images[res_a.position_vertex[p]] = res_b.position_vertex[p]
    perm = Permutation(tuple(images))
    for s, t in zip(sources, targets):
        assert perm.images[s] == t
    return perm


def _compact(colors: List[int]) -> List[int]:
    present = sorted(set(colors))
    remap = {c: i for i, c in enumerate(present)}
    return [remap[c] for c in colors]

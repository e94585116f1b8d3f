"""Equitable refinement and individualization-refinement search.

One search engine backs three operations: equitable refinement, canonical
forms (and hence isomorphism tests), and full automorphism groups.
Partial vertex maps are extended to automorphisms, and distinguishing
sets are tested, by filtering the materialized group, not by a search.

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
by closing them.  An automorphism stays a plain image tuple from the leaf
that finds it through the closure to the group's sorted element list.

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

from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .graph import Graph
from .graph6 import encode_graph6
from .perm import (
    DEFAULT_GROUP_CAP,
    Images,
    PermutationGroup,
    close_generators,
    extend_closure,
)


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


class _SearchResult:
    __slots__ = ("code", "position_vertex", "generators")

    def __init__(self, code, position_vertex, generators):
        self.code = code
        self.position_vertex = position_vertex  # canonical position -> vertex
        self.generators = generators  # image tuples from equal-code leaves


def _ir_search(graph: Graph) -> _SearchResult:
    """Explore the refinement tree with orbit pruning; return the minimum
    leaf code, the first leaf reaching it, and generators of the group."""
    n = graph.n
    if n == 0:
        return _SearchResult((), [], [])
    adj = graph.adj
    # vertex -> position in the discrete prefix of the current path; an
    # entry left by another path is told apart by `cells[i][0] != w`
    pos = [0] * n

    best_code: Optional[List[int]] = None
    best_posv: Optional[List[int]] = None
    best_path: Tuple[int, ...] = ()
    gens: List[Tuple[int, ...]] = []

    def rec(
        cells: List[Tuple[int, ...]],
        items: List[int],
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
                item = 0
                for w in adj[vj]:
                    i = pos[w]
                    if i < j and cells[i][0] == w:
                        item |= 1 << (j - 1 - i)
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
        # root isomorphic subtrees with equal leaf codes: explore one each.
        # `done` stays closed under `fixing`, so it is closed again from
        # all of it only when a fixing generator is new, else from v alone
        done: Set[int] = set()
        fixing: List[Tuple[int, ...]] = []
        seen = 0  # generators already sorted into `fixing` or not
        for v in cell:
            if v in done:
                continue
            rest = tuple(x for x in cell if x != v)
            child = cells[:ci] + [(v,), rest] + cells[ci + 1 :]
            back = rec(child, items, path + (v,), seed)
            if back is not None and back < len(path):
                return back
            done.add(v)
            new = [g for g in gens[seen:] if all(g[x] == x for x in path)]
            seen = len(gens)
            fixing += new
            stack = list(done) if new else [v]
            while stack:
                x = stack.pop()
                for g in fixing:
                    if g[x] not in done:
                        done.add(g[x])
                        stack.append(g[x])
        return None

    rec([tuple(range(n))], [], (), None)
    assert best_code is not None and best_posv is not None
    return _SearchResult(tuple(best_code), best_posv, gens)


def reduced_generators(group: PermutationGroup) -> Tuple[Images, ...]:
    """The greedy generating set of the sorted element list: each element
    not yet generated by the earlier picks is picked; the identity alone
    for a trivial group.  ``analyze`` prints it; the group itself keeps
    the search's generators."""
    degree, elements = group.degree, group.elements
    gens: List[Images] = []
    closed = {tuple(range(degree))}
    for p in elements:
        if p in closed:
            continue
        gens.append(p)
        extend_closure(closed, [g.__getitem__ for g in gens], len(elements))
        if len(closed) == len(elements):
            break
    return tuple(gens) if gens else (tuple(range(degree)),)


# One memo for the last graph, by identity: its search and, closed on first
# request, its group.  `analyze` and the claims ask one graph for
# its canonical form and then, often more than once, for its group.
_memo: list = [None, None, None]  # graph, search result, group or None


def _memoized(graph: Graph) -> list:
    if _memo[0] is not graph:
        _memo[:] = [graph, _ir_search(graph), None]
    return _memo


def automorphism_group(graph: Graph) -> PermutationGroup:
    """Full group of adjacency-preserving bijections; materialized,
    deterministic.  The group is the closure of the search's generators
    (the cap fires during the closure), and keeps them as its generating
    set, the identity alone when the search found none;
    ``reduced_generators`` gives the greedy set of the element list."""
    memo = _memoized(graph)
    if memo[2] is None:
        gens = memo[1].generators or [tuple(range(graph.n))]
        memo[2] = close_generators(gens, graph.n, DEFAULT_GROUP_CAP)
    return memo[2]


def canonical_labeling(graph: Graph) -> Tuple[int, ...]:
    """Vertex -> canonical position, from the memoized search."""
    label = [0] * graph.n
    for p, v in enumerate(_memoized(graph)[1].position_vertex):
        label[v] = p
    return tuple(label)


def canonical_form(graph: Graph) -> bytes:
    """Relabeling-invariant byte form: graph6 of the canonical labeling."""
    return encode_graph6(graph.relabel(canonical_labeling(graph))).encode("ascii")


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.m != h.m:
        return False
    return canonical_form(g) == canonical_form(h)


def extend_partial_map(graph: Graph, partial: Mapping[int, int]) -> Optional[Images]:
    """The least automorphism (by image sequence) agreeing with the partial
    vertex map, or None.

    Filters the memoized group's sorted element list one pair at a time,
    so it materializes the group and raises GroupTooLargeError above the
    cap, as `automorphism_group` does.
    """
    n = graph.n
    sources = sorted(partial)
    targets = [partial[s] for s in sources]
    if len(set(targets)) != len(targets):
        raise ValueError("partial map must be injective")
    for x in sources + targets:
        if not 0 <= x < n:
            raise ValueError("partial map endpoint outside vertex range")
    keep = automorphism_group(graph).elements
    for s, t in zip(sources, targets):
        keep = [p for p in keep if p[s] == t]
    return keep[0] if keep else None

"""Equitable refinement and individualization-refinement search.

One search engine backs three operations: equitable refinement, canonical
forms (and hence isomorphism tests), and full automorphism groups.
Distinguishing sets are tested, and consistent cycles read, off the
materialized group, not by a search.

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

The root is split by a vertex invariant before it is refined: its cells
group the vertices by their ball sizes |B_r(v)|, r = 0..3, read off
``graph.balls``, in ascending order of that vector.  An automorphism keeps
every ball size and the cell order reads no vertex id, so the tree stays
closed under the automorphisms and under relabeling.  A vertex-transitive
graph keeps a one-cell root; most others get a smaller target cell there.

Refinement is incremental, yet it gives the fragments, in the same order,
that counting every vertex against every cell gives.  A vertex weighs B ** (n - p), where p is
the position at which its cell starts and B is a power of two above
every degree; the sum of its neighbors' weights is its count vector
against the cells, read as base-B digits with the first cell highest, so
integer order is count-vector order and fragments keep their order.  A
pass re-splits only the cells that hold a neighbor of a vertex whose
weight the previous pass changed.  A child starts from its node's
equitable partition and weights.  The leaf code is compared with the best
one item by item, so a node stops at the first item that exceeds it.

Item j of a leaf code is the bitmask of the earlier positions adjacent to
position j, position 0 at its top bit: column j of the adjacency matrix
relabelled to the leaf's order, which graph6 packs in that bit order.  So
the canonical string is packed straight from the best leaf code, with no
relabelled graph built.
"""

from __future__ import annotations

from itertools import groupby, islice
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .graph import Graph, balls
from .graph6 import _encode_columns
from .perm import (
    DEFAULT_GROUP_CAP,
    Images,
    PermutationGroup,
    close_generators,
    extend_closure,
)


def _cell_weights(cells: List[Tuple[int, ...]], shift: int) -> List[int]:
    """Every vertex's weight B ** (n - p) under `cells` (`_refine_cells`)."""
    weight = [0] * sum(map(len, cells))
    p = len(weight)  # n - (start position of the cell)
    for cell in cells:
        for v in cell:
            weight[v] = 1 << shift * p
        p -= len(cell)
    return weight


def _refine_cells(adj: Sequence[Sequence[int]], cells: List[Tuple[int, ...]],
                  weight: Optional[List[int]] = None,
                  check: Optional[Set[int]] = None, *,
                  shift: Optional[int] = None) -> List[Tuple[int, ...]]:
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
    others cannot split.  A caller may pass `weight`, those of `cells`, to
    update to the result's, `shift`, a constant of the graph that a search
    computes once, and `check`, the vertex set of a first pass: it must
    cover every vertex with a neighbor whose weight changed since the
    cells were last equitable.
    """
    n = len(adj)
    if len(cells) == n:
        return cells
    if shift is None:
        shift = max(map(len, adj)).bit_length()
    if weight is None:
        weight = _cell_weights(cells, shift)
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


class _SearchResult(NamedTuple):
    code: Tuple[int, ...]
    position_vertex: List[int]  # canonical position -> vertex
    generators: List[Images]  # image tuples from equal-code leaves


def _ir_search(graph: Graph) -> _SearchResult:
    """Explore the refinement tree with orbit pruning; return the minimum
    leaf code, the first leaf reaching it, and generators of the group."""
    n = graph.n
    if n == 0:
        return _SearchResult((), [], [])
    adj = graph.adj
    shift = max(map(len, adj)).bit_length()
    # vertex -> position in the discrete prefix of the current path; an
    # entry left by another path is told apart by `cells[i][0] != w`
    pos = [0] * n

    best_code: Optional[List[int]] = None
    best_posv: Optional[List[int]] = None
    best_path: Tuple[int, ...] = ()
    gens: List[Tuple[int, ...]] = []

    def rec(cells: List[Tuple[int, ...]], weight: List[int], items: List[int],
            path: Tuple[int, ...]) -> Optional[int]:
        """Explore below an equitable node; a depth to unwind to, or None."""
        nonlocal best_code, best_posv, best_path
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
            # v keeps its weight, the rest of its cell moves one position
            # on: only the rest's neighbors change signature
            rest = tuple(x for x in cell if x != v)
            child_weight = weight[:]
            check: Set[int] = set()
            for x in rest:
                child_weight[x] = weight[v] >> shift
                check.update(adj[x])
            child = _refine_cells(adj, cells[:ci] + [(v,), rest] + cells[ci + 1 :],
                                  child_weight, check, shift=shift)
            back = rec(child, child_weight, items, path + (v,))
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

    # the root: vertices grouped by (|B_0(v)|, ..., |B_3(v)|), ascending
    sizes = [map(int.bit_count, ball) for ball in islice(balls(graph), 4)]
    vector = list(zip(*sizes)).__getitem__
    root = [tuple(c) for _, c in groupby(sorted(range(n), key=vector), vector)]
    weight = _cell_weights(root, shift)
    rec(_refine_cells(adj, root, weight, shift=shift), weight, [], ())
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


def search_generators(graph: Graph) -> List[Images]:
    """The memoized search's generators, closed into no group: image
    tuples that generate the automorphism group, none for a trivial one."""
    return _memoized(graph)[1].generators


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
    """Relabeling-invariant byte form: graph6 of the canonical labeling,
    packed from the best leaf code, whose item j is column j of the
    canonical adjacency matrix."""
    return _encode_columns(_memoized(graph)[1].code)


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.m != h.m:
        return False
    return canonical_form(g) == canonical_form(h)


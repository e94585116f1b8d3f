"""Isomorph-free generation of connected cubic graphs, n <= 20.

Generation walks a canonical construction path.  The expansion step picks
two distinct edges of a parent, subdivides each once, and joins the two
new vertices; the reverse step contracts such an edge pair back.  An edge
uv of a connected cubic graph is *reducible* (its contraction yields a
connected simple cubic graph again) iff it is not a bridge, neither
endpoint lies in a triangle avoiding the other, and the endpoints do not
share both remaining neighbors.  A child produced by inserting edge uv is
accepted only when uv lies in the canonical reducible-edge orbit of the
child, so every isomorphism class with a reducible edge is produced
exactly once from its canonical parent.  The canonical orbit is the
argmin of a relabeling-invariant edge score in two stages, compared
lexicographically: first the numbers of 3-, 4- and 5-cycles through the
edge (more first), read off neighbour bitmasks; then the sizes of the
balls about the endpoints, read off ``graph.balls``.  Ties are broken by
canonical labeling and automorphism orbits.  Most children lose at
stage 1 to an edge on more short cycles, which is never a bridge, so
they are rejected before any ball or bridge search.

Graphs with no reducible edge cannot be reached that way and are seeded
directly.  They have a rigid shape: every triangle sits inside a diamond
(K4 minus an edge), every non-bridge edge is a diamond edge or touches a
diamond pole, and the remaining edges are bridges forming a forest.
Contracting diamonds therefore leaves a multigraph on degree-2 "diamond"
nodes and degree-3 plain nodes whose plain-plain edges are bridges; the
seeder enumerates those multigraphs directly, expands them, and keeps
exactly the graphs that pass the direct edge-by-edge irreducibility
check.  The structure argument is cross-validated against a brute-force
oracle in the tests and against the published census counts.
"""

from __future__ import annotations

import itertools
import os
from multiprocessing import get_context
from typing import Collection, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .autgrp import automorphism_group, canonical_form, canonical_labeling
from .graph import Graph, balls, build_graph, bridges
from .graph6 import decode_graph6
from .perm import Action, orbits

MIN_ORDER = 4
MAX_ORDER = 20

# published census of connected cubic graphs by order; used as a
# completeness tripwire for the generator (OEIS A002851)
KNOWN_COUNTS = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85, 14: 509, 16: 4060, 18: 41301,
                20: 510489}

_LEVEL_CACHE: Dict[int, Tuple[str, ...]] = {}


class EnumerationRangeError(ValueError):
    pass


def _check_order(n: int) -> None:
    if n % 2 != 0:
        raise EnumerationRangeError(f"no cubic graphs on an odd order {n}")
    if not MIN_ORDER <= n <= MAX_ORDER:
        raise EnumerationRangeError(
            f"order {n} outside the supported range [{MIN_ORDER}, {MAX_ORDER}]"
        )


# ---------------------------------------------------------------------------
# edge reduction / insertion

def _is_reducible(
    graph: Graph, edge: Tuple[int, int], bridge_set: Collection[Tuple[int, int]]
) -> bool:
    """True iff contracting the edge yields a connected simple cubic graph.

    ``bridge_set`` holds the graph's bridges; it may be left empty for an
    edge known to lie on a cycle, which is never a bridge.
    """
    if edge in bridge_set:
        return False
    u, v = edge
    a, b = (x for x in graph.adj[u] if x != v)
    c, d = (x for x in graph.adj[v] if x != u)
    if graph.has_edge(a, b) or graph.has_edge(c, d):
        return False  # a triangle at one endpoint avoiding the other
    return {a, b} != {c, d}  # else both new edges would coincide


def reducible_edges(graph: Graph) -> List[Tuple[int, int]]:
    """Edges whose contraction yields a connected simple cubic graph."""
    bridge_set = bridges(graph)
    return [e for e in graph.edges() if _is_reducible(graph, e, bridge_set)]


def reduce_edge(graph: Graph, edge: Tuple[int, int]) -> Graph:
    """Contract a reducible edge: drop its endpoints, rejoin the stubs.

    Remaining vertices are renumbered ascending.
    """
    u, v = edge
    a, b = (x for x in graph.adj[u] if x != v)
    c, d = (x for x in graph.adj[v] if x != u)
    keep = [x for x in range(graph.n) if x not in (u, v)]
    index = {x: i for i, x in enumerate(keep)}
    edges = [
        (index[x], index[y])
        for x, y in graph.edges()
        if u not in (x, y) and v not in (x, y)
    ]
    edges.append((index[a], index[b]))
    edges.append((index[c], index[d]))
    return build_graph(graph.n - 2, edges)


def insert_on_edges(
    graph: Graph, e1: Tuple[int, int], e2: Tuple[int, int]
) -> Graph:
    """Subdivide two distinct edges and join the two new vertices.

    The parent's bitmask rows are patched in place of a rebuild: each
    edge's endpoints swap each other for their new vertex.
    """
    if e1 == e2:
        raise ValueError("insertion needs two distinct edges")
    n = graph.n
    bits = list(graph.adj_bits)
    for (a, b), x in ((e1, n), (e2, n + 1)):
        if not (0 <= a < n and 0 <= b < n and (bits[a] >> b) & 1):
            raise ValueError(f"({a}, {b}) is not an edge")
        bits[a] ^= (1 << b) | (1 << x)
        bits[b] ^= (1 << a) | (1 << x)
    (a, b), (c, d) = e1, e2
    bits.append((1 << a) | (1 << b) | (1 << n + 1))
    bits.append((1 << c) | (1 << d) | (1 << n))
    return Graph.from_bits(bits)


# ---------------------------------------------------------------------------
# relabeling-invariant edge score, in two stages

_NO_SHORT_CYCLE = (0, 0, 0)


def _short_cycle_key(graph: Graph, u: int, v: int) -> Tuple[int, int, int]:
    """Stage 1: the negated numbers of 3-, 4- and 5-cycles through the
    edge uv, so that edges on more short cycles sort first.

    With x a neighbour of v and y a neighbour of u off the edge, the
    cycles are u-v-x-u (x = y), u-v-x-y-u (x ~ y) and u-v-x-z-y-u (z a
    common neighbour of x and y other than u and v), each counted once.
    """
    bits = graph.adj_bits
    out_u = bits[u] & ~(1 << v)
    out_v = bits[v] & ~(1 << u)
    off_edge = ~((1 << u) | (1 << v))
    c4 = c5 = 0
    for x in graph.adj[v]:
        if x == u:
            continue
        bx = bits[x]
        c4 += (bx & out_u).bit_count()
        for y in graph.adj[u]:
            if y != v and y != x:
                c5 += (bx & bits[y] & off_edge).bit_count()
    return (-(out_u & out_v).bit_count(), -c4, -c5)


def _edge_scores(
    graph: Graph, edges: Sequence[Tuple[int, int]]
) -> Dict[Tuple[int, int], tuple]:
    """Stage 2: ball sizes about the endpoints, jointly, then one by one.

    For uv, ``joint`` holds -|B_r(u) & B_r(v)| and -|B_r(u) | B_r(v)| for
    r = 0, 1, ...; as u ~ v, these count the w with d(u, w) + d(v, w) <= 2r
    and <= 2r + 1, and sorted lists of those sums first differ where such a
    count does, the larger count giving the lesser list.  The endpoints'
    ball sizes order like their distance histograms, which first differ at
    the same radius; in a connected child neither runs out first.
    """
    layers = list(balls(graph))
    scores = {}
    for u, v in edges:
        joint = []
        for ball in layers:
            joint += (-(ball[u] & ball[v]).bit_count(),
                      -(ball[u] | ball[v]).bit_count())
        first, second = sorted([ball[w].bit_count() for ball in layers]
                               for w in (u, v))
        scores[(u, v)] = (tuple(joint), first, second)
    return scores


# ---------------------------------------------------------------------------
# canonical construction path acceptance

def _accept_child(child: Graph, inserted: Tuple[int, int]) -> Optional[str]:
    """Canonical graph6 of the child if the inserted edge sits in the
    canonical reduction orbit, else None.

    The canonical reduction edge minimizes (short-cycle key, ball score,
    canonical image) over the reducible edges; the inserted edge is
    always reducible (its contraction gives back the parent).  An edge
    whose key beats the inserted edge's lies on a short cycle, so it is
    no bridge, and the first reducible one rejects the child.  The bridge
    DFS runs only for a tie on no short cycle, and the ball score only
    ranks the reducible edges tied with the inserted edge at stage 1.
    """
    key = _short_cycle_key(child, *inserted)
    bridge_set: Optional[Set[Tuple[int, int]]] = None
    tied = [inserted]
    for e in child.edges():
        if e == inserted:
            continue
        other = _short_cycle_key(child, *e)
        if other > key:
            continue
        if other == _NO_SHORT_CYCLE and bridge_set is None:
            bridge_set = bridges(child)  # a tie on no short cycle
        if not _is_reducible(child, e, bridge_set or ()):
            continue
        if other < key:
            return None
        tied.append(e)
    if len(tied) > 1:
        scores = _edge_scores(child, tied)
        best = min(scores.values())
        if scores[inserted] != best:
            return None
        tied = [e for e in tied if scores[e] == best]
    if len(tied) == 1:
        return canonical_form(child).decode("ascii")
    label = canonical_labeling(child)

    def image(e: Tuple[int, int]) -> Tuple[int, int]:
        x, y = label[e[0]], label[e[1]]
        return (x, y) if x < y else (y, x)

    target = min(tied, key=image)
    group = automorphism_group(child)
    block = next(b for b in orbits(group, Action.EDGES, child) if target in b)
    return canonical_form(child).decode("ascii") if inserted in block else None


def _edge_pair_reps(graph: Graph) -> List[Tuple[Tuple[int, int], Tuple[int, int]]]:
    """Unordered pairs of distinct edges, one per automorphism orbit."""
    group = automorphism_group(graph)
    return [b[0] for b in orbits(group, Action.EDGE_PAIRS, graph)]


def _expand_parent(parent_g6: str) -> List[str]:
    """All accepted children of one parent, as canonical graph6 strings."""
    parent = decode_graph6(parent_g6)
    out = []
    for e1, e2 in _edge_pair_reps(parent):
        child = insert_on_edges(parent, e1, e2)
        inserted = (child.n - 2, child.n - 1)
        accepted = _accept_child(child, inserted)
        if accepted is not None:
            out.append(accepted)
    return out


# ---------------------------------------------------------------------------
# irreducible seeds

def _structure_multigraphs(k: int, f: int) -> Iterator[Dict[Tuple[int, int], int]]:
    """Degree-exact multigraphs on k degree-2 nodes ("diamond") and f
    degree-3 nodes ("plain"), without loops; plain-plain entries at most 1
    (a doubled plain-plain edge would be a multi-edge of the expansion).
    Connectivity and the bridge-forest property of plain-plain edges are
    not enforced here; the expanded graphs are filtered directly."""
    total = k + f
    rem = [2] * k + [3] * f
    mult: Dict[Tuple[int, int], int] = {}

    def rec(i: int) -> Iterator[Dict[Tuple[int, int], int]]:
        if i == total:
            yield dict(mult)
            return
        if rem[i] == 0:
            yield from rec(i + 1)
            return

        def place(j: int, need: int) -> Iterator[Dict[Tuple[int, int], int]]:
            if need == 0:
                yield from rec(i + 1)
                return
            if j == total:
                return
            cap = min(rem[j], need)
            if i >= k and j >= k:
                cap = min(cap, 1)
            for take in range(cap, -1, -1):
                if take:
                    mult[(i, j)] = take
                    rem[i] -= take
                    rem[j] -= take
                yield from place(j + 1, need - take)
                if take:
                    rem[i] += take
                    rem[j] += take
                    del mult[(i, j)]

        yield from place(i + 1, rem[i])

    yield from rec(0)


def _expand_structure(k: int, f: int, mult: Dict[Tuple[int, int], int]) -> Graph:
    """Replace diamond nodes by diamonds; attach slot edges in order."""
    # diamond d occupies 4d..4d+3: poles 4d, 4d+1; centrals 4d+2, 4d+3
    edges: List[Tuple[int, int]] = []
    attach: List[List[int]] = []
    for d in range(k):
        base = 4 * d
        p, s, q, r = base, base + 1, base + 2, base + 3
        edges += [(p, q), (p, r), (s, q), (s, r), (q, r)]
        attach.append([p, s])
    for j in range(f):
        v = 4 * k + j
        attach.append([v, v, v])
    for (i, j) in sorted(mult):
        for _ in range(mult[(i, j)]):
            edges.append((attach[i].pop(0), attach[j].pop(0)))
    return build_graph(4 * k + f, edges)


def irreducible_seeds(n: int) -> Tuple[str, ...]:
    """Connected cubic graphs on n vertices with no reducible edge, as
    sorted canonical graph6 strings.  K4 (order 4) is the generation base
    and is not produced here."""
    if n % 2 or n < 6:
        return ()
    found: Set[str] = set()
    for k in range(1, n // 4 + 1):
        f = n - 4 * k
        if f > max(2 * k - 2, 0):
            # plain-plain bridges form a forest: 3f <= 2(f-1) + 2k
            continue
        for mult in _structure_multigraphs(k, f):
            g = _expand_structure(k, f, mult)
            if not g.is_connected():
                continue
            if reducible_edges(g):
                continue
            found.add(canonical_form(g).decode("ascii"))
    return tuple(sorted(found))


# ---------------------------------------------------------------------------
# the generator

def _build_level(n: int, jobs: int) -> Tuple[str, ...]:
    if n == MIN_ORDER:
        k4 = build_graph(4, list(itertools.combinations(range(4), 2)))
        return (canonical_form(k4).decode("ascii"),)
    parents = _level(n - 2, jobs)
    workers = min(jobs, len(parents), os.cpu_count() or 1)
    if workers > 1:
        ctx = get_context("fork")
        chunk = max(1, len(parents) // (workers * 8))
        with ctx.Pool(workers) as pool:
            results = pool.map(_expand_parent, parents, chunksize=chunk)
    else:
        results = [_expand_parent(p) for p in parents]
    children: List[str] = []
    for lst in results:
        children.extend(lst)
    children.extend(irreducible_seeds(n))
    children.sort()
    for a, b in zip(children, children[1:]):
        if a == b:
            raise AssertionError(f"duplicate class generated at n={n}: {a}")
    return tuple(children)


def _level(n: int, jobs: int) -> Tuple[str, ...]:
    if n not in _LEVEL_CACHE:
        _LEVEL_CACHE[n] = _build_level(n, jobs)
    return _LEVEL_CACHE[n]


def enumerate_cubic_graph6(n: int, jobs: int = 1) -> Tuple[str, ...]:
    """Canonical graph6 strings of all connected cubic graphs of order n,
    exactly one per isomorphism class, sorted (hence deterministic and
    independent of the worker count).  Each level forks at most
    min(jobs, parents, cores) workers."""
    _check_order(n)
    return _level(n, jobs)


def enumerate_cubic(n: int, jobs: int = 1) -> Iterator[Graph]:
    """Stream one canonically labeled representative per isomorphism
    class of connected cubic graphs on n vertices."""
    for g6 in enumerate_cubic_graph6(n, jobs):
        yield decode_graph6(g6)

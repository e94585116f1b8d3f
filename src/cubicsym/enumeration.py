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
stage 1 to an edge on more short cycles, which is never a bridge.

Stage 1 is read off the parent, and a child is built only when it
survives there.  The construction path fixes the accepted set, not the
order of the tests (McKay, "Isomorph-free exhaustive generation", 1998):
a child is rejected at stage 1 iff some reducible edge beats the
inserted one.  Let C be the child of inserting on e1 = ab and e2 = cd,
with new vertices x on e1 and y on e2, and call a parent edge f = pq
*far* when p and q lie outside N[a] | N[b] | N[c] | N[d], the closed
neighbourhoods in the parent.  A far edge keeps its key and its local
reducibility in C:

* p and q keep their neighbours in C, and the only edges among those
  neighbours that C drops are e1 and e2, either of which would put an
  endpoint of e1 or e2 next to p or q; so f's local reducibility stays.
* On a cycle of length <= 5 through f, every edge other than f has an
  endpoint adjacent to p or q, so no such cycle of the parent uses e1 or
  e2.  In C, p and q gain no neighbour, and x and y are adjacent only to
  a, b, c, d and each other.  Every vertex of such a cycle other than p
  and q is adjacent to p or q, except the middle vertex of a 5-cycle; x
  or y could lie there only with a, b, c or d adjacent to p or q, which
  f's position excludes.  So f lies on the same short cycles in C.

Each parent's edges are keyed once.  A child's far edges are read off
them in ascending key order, at no cost per edge, and they reject most
children before any row of the child is patched.  The other edges, the
four split edges among them, are keyed on the patched rows; a survivor
is built once and goes on to stage 2 with the edges that tie with its
inserted edge.  Only a tie on no short cycle needs the bridge test of
each tied edge, on the built child, as a far edge may become a bridge
there.

A class is its canonical string and generators of its automorphism
group.  The search that accepts a child finds them; moved onto the
canonical labeling (``autgrp.canonical_class``) they act on the graph
the string decodes to, and the level cache keeps them next to the string
for the life of the process, for the class's expansion and for the group
readers of ``claims`` (``autgrp.adopt``).  Expanding a class walks the
edge-pair action of them and keeps the least pair of each orbit, one
child per orbit, and the tie test walks the target edge's orbit under
the child's own search generators until it meets the inserted edge, so
the census searches each class once, when it is accepted, and closes no
group.  Orbits depend only on the group, never on which generators give
it, so the children and the strings are those of a fresh search of each
parent.

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
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .autgrp import canonical_class, canonical_labeling, search_generators
from .graph import Graph, balls, build_graph, is_bridge
from .graph6 import decode_graph6
from .perm import Images, edge_perms

MIN_ORDER = 4
MAX_ORDER = 20

# published census of connected cubic graphs by order; used as a
# completeness tripwire for the generator (OEIS A002851)
KNOWN_COUNTS = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85, 14: 509, 16: 4060, 18: 41301,
                20: 510489}

# a class: its canonical graph6 string and image tuples on the canonical
# labeling that generate the automorphism group of the string's graph
Generators = Tuple[Images, ...]
Class = Tuple[str, Generators]

# a level: its sorted strings, and each one's generators
Level = Tuple[Tuple[str, ...], Tuple[Generators, ...]]

_LEVEL_CACHE: Dict[int, Level] = {}


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
# edge reducibility / insertion

Edge = Tuple[int, int]


def _locally_reducible(bits: Sequence[int], u: int, v: int) -> bool:
    """Reducibility of the edge uv of a cubic graph, but for the bridge
    test: neither endpoint lies in a triangle avoiding the other, and the
    endpoints do not share both remaining neighbours.  Read off the
    bitmasks: ``ab``, u's other two neighbours, holds an edge iff its
    lowest vertex is adjacent to the rest of it."""
    ab = bits[u] ^ 1 << v
    cd = bits[v] ^ 1 << u
    return (ab != cd and not bits[(ab & -ab).bit_length() - 1] & ab
            and not bits[(cd & -cd).bit_length() - 1] & cd)


def _insert_bits(graph: Graph, e1: Edge, e2: Edge) -> List[int]:
    """The bitmasks of the graph that inserting on two distinct edges
    gives: each edge's endpoints swap each other for their new vertex, n
    for e1 and n + 1 for e2."""
    n = graph.n
    bits = list(graph.adj_bits)
    for (a, b), x in ((e1, n), (e2, n + 1)):
        bits[a] ^= 1 << b | 1 << x
        bits[b] ^= 1 << a | 1 << x
    (a, b), (c, d) = e1, e2
    bits += (1 << a | 1 << b | 1 << n + 1, 1 << c | 1 << d | 1 << n)
    return bits


def _insert_rows(graph: Graph, e1: Edge, e2: Edge) -> List[Tuple[int, ...]]:
    """The neighbour rows of the same graph, patched from the graph's; the
    new vertices come last, so every row stays ascending."""
    n = graph.n
    rows = list(graph.adj)
    for (a, b), x in ((e1, n), (e2, n + 1)):
        for u, w in ((a, b), (b, a)):
            row = rows[u]
            i = row.index(w)
            rows[u] = row[:i] + row[i + 1 :] + (x,)
    (a, b), (c, d) = e1, e2
    rows += ((min(a, b), max(a, b), n + 1), (min(c, d), max(c, d), n))
    return rows


# ---------------------------------------------------------------------------
# relabeling-invariant edge score, in two stages

_NO_SHORT_CYCLE = (0, 0, 0)


def _short_cycle_key(adj: Sequence[Sequence[int]], bits: Sequence[int],
                     u: int, v: int) -> Tuple[int, int, int]:
    """Stage 1: the negated numbers of 3-, 4- and 5-cycles through the
    edge uv, so that edges on more short cycles sort first.

    With x a neighbour of v and y a neighbour of u off the edge, the
    cycles are u-v-x-u (x = y), u-v-x-y-u (x ~ y) and u-v-x-z-y-u (z a
    common neighbour of x and y other than u and v), each counted once.
    """
    out_u = bits[u] & ~(1 << v)
    out_v = bits[v] & ~(1 << u)
    off_edge = ~((1 << u) | (1 << v))
    c4 = c5 = 0
    for x in adj[v]:
        if x == u:
            continue
        bx = bits[x]
        c4 += (bx & out_u).bit_count()
        for y in adj[u]:
            if y != v and y != x:
                c5 += (bx & bits[y] & off_edge).bit_count()
    return (-(out_u & out_v).bit_count(), -c4, -c5)


def _edge_scores(graph: Graph, edges: Sequence[Edge]) -> Dict[Edge, tuple]:
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

Ranked = List[Tuple[Tuple[int, int, int], Edge, bool]]


def _ranked_edges(graph: Graph) -> Ranked:
    """A parent's edges with their short-cycle keys and local
    reducibility, by ascending key: computed once per parent."""
    bits = graph.adj_bits
    return sorted((_short_cycle_key(graph.adj, bits, u, v), (u, v),
                   _locally_reducible(bits, u, v)) for u, v in graph.edges())


def _survivor(graph: Graph, ranked: Ranked, e1: Edge,
              e2: Edge) -> Optional[Tuple[Graph, List[Edge]]]:
    """Stage 1 of the child that inserting on e1 and e2 gives, read off
    the parent: None if a reducible edge of the child beats the inserted
    edge's key, else the child, built, and the reducible edges tied with
    the inserted edge, that one first.

    The far parent edges (module docstring) keep their keys and local
    reducibility, so they are read off ``ranked`` first; the rows are
    patched only for a child that none of them rejects, and the other
    edges are keyed on them.  An edge beating the inserted one lies on a
    short cycle, so it is no bridge; only a tie on no short cycle needs
    the bridge test of each tied edge, on the built child.
    """
    n = graph.n
    (a, b), (c, d) = e1, e2
    bits = _insert_bits(graph, e1, e2)
    # the inserted edge's key reads the rows of its endpoints alone
    key = _short_cycle_key({n: (a, b, n + 1), n + 1: (c, d, n)}, bits,
                           n, n + 1)
    parent_bits = graph.adj_bits
    # N[a] | N[b] = N(a) | N(b), as a ~ b in the parent; and so for c ~ d
    near = parent_bits[a] | parent_bits[b] | parent_bits[c] | parent_bits[d]
    tied = [(n, n + 1)]
    for other, (p, q), reducible in ranked:
        if other > key:
            break
        if reducible and not (near >> p & 1 or near >> q & 1):
            if other < key:
                return None
            tied.append((p, q))
    rows = _insert_rows(graph, e1, e2)
    split = [(a, n), (b, n), (c, n + 1), (d, n + 1)]
    for p, q in split + [e for _, e, _ in ranked]:
        if not (near >> p & 1 or near >> q & 1) or not bits[p] >> q & 1:
            continue  # a far edge, or e1 or e2, split in the child
        if not _locally_reducible(bits, p, q):
            continue
        other = _short_cycle_key(rows, bits, p, q)
        if other <= key:
            if other < key:
                return None
            tied.append((p, q))
    child = Graph._from_rows(tuple(rows), tuple(bits))
    if key == _NO_SHORT_CYCLE and len(tied) > 1:
        tied = [e for e in tied if not is_bridge(bits, *e)]
    return child, tied


def _accept_child(graph: Graph, ranked: Ranked, e1: Edge,
                  e2: Edge) -> Optional[Class]:
    """The class of the child that inserting on e1 and e2 gives, if the
    inserted edge sits in the canonical reduction orbit, else None.

    The canonical reduction edge minimizes (short-cycle key, ball score,
    canonical image) over the reducible edges; the inserted edge is
    always reducible (its contraction gives back the parent).  Stage 1
    is read off the parent (`_survivor`), and the ball score only ranks
    the reducible edges tied with the inserted edge there.
    """
    survivor = _survivor(graph, ranked, e1, e2)
    if survivor is None:
        return None
    child, tied = survivor
    inserted = tied[0]
    if len(tied) > 1:
        scores = _edge_scores(child, tied)
        best = min(scores.values())
        if scores[inserted] != best:
            return None
        tied = [e for e in tied if scores[e] == best]
    if len(tied) == 1:
        return canonical_class(child)
    label = canonical_labeling(child)

    def image(e: Edge) -> Edge:
        x, y = label[e[0]], label[e[1]]
        return (x, y) if x < y else (y, x)

    target = min(tied, key=image)
    return canonical_class(child) if _same_edge_orbit(child, target, inserted) else None


def _same_edge_orbit(graph: Graph, start: Edge, edge: Edge) -> bool:
    """Whether ``edge`` lies in the orbit of the edge ``start`` under the
    graph's automorphism group, walked from ``start`` under the search's
    generators until it reaches ``edge``."""
    generators = search_generators(graph)
    orbit = [start]
    seen = {start}
    for e in orbit:  # grows while it is scanned
        if e == edge:
            return True
        for g in generators:
            x, y = g[e[0]], g[e[1]]
            f = (x, y) if x < y else (y, x)
            if f not in seen:
                seen.add(f)
                orbit.append(f)
    return False


def _edge_pair_reps(graph: Graph, generators: Generators) -> List[Tuple[Edge, Edge]]:
    """Unordered pairs of distinct edges, one per orbit of the group that
    the generators generate: the least pair of each orbit, ascending.

    Edges are walked as their indices in ``graph.edges()``, which lists
    them in ascending order, each generator mapped once to a permutation
    of the indices.  The pair of indices i < j is marked as i * m + j of
    an m-edge graph, so the pairs are scanned in ascending order and the
    first unmarked one is the least of a new orbit.  Only that pair is
    kept: the census reads nothing else of an orbit."""
    edges = graph.edges()
    if not generators:
        return list(itertools.combinations(edges, 2))
    m = len(edges)
    perms = edge_perms(generators, edges)
    seen = bytearray(m * m)  # entries with i >= j are never read
    reps = []
    for i in range(m - 1):
        row = i * m
        j = seen.find(0, row + i + 1, row + m)
        while j >= 0:
            reps.append((edges[i], edges[j - row]))
            seen[j] = 1
            orbit = [(i, j - row)]
            for x, y in orbit:  # grows while it is scanned
                for p in perms:
                    a, b = p[x], p[y]
                    if a > b:
                        a, b = b, a
                    k = a * m + b
                    if not seen[k]:
                        seen[k] = 1
                        orbit.append((a, b))
            j = seen.find(0, j + 1, row + m)
    return reps


def _expand_parent(parent: Class) -> List[Class]:
    """All accepted children of one class.  The class carries the
    generators of its own acceptance search, so the parent is decoded
    and not searched again.  Its edges are keyed once, and each child's
    stage 1 is read off them: a far edge keeps its key and reducibility
    in the child (module docstring), so a child is built only when no
    reducible edge beats its inserted edge."""
    g6, generators = parent
    graph = decode_graph6(g6)
    ranked = _ranked_edges(graph)
    out = []
    for e1, e2 in _edge_pair_reps(graph, generators):
        accepted = _accept_child(graph, ranked, e1, e2)
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


def irreducible_seeds(n: int) -> Tuple[Class, ...]:
    """Connected cubic graphs on n vertices with no reducible edge, as
    (canonical graph6, generators) classes sorted by string; the
    generators act on the string's graph and generate its group.  K4
    (order 4) is the generation base and is not produced here."""
    if n % 2 or n < 6:
        return ()
    found: Dict[str, Generators] = {}
    for k in range(1, n // 4 + 1):
        f = n - 4 * k
        if f > max(2 * k - 2, 0):
            # plain-plain bridges form a forest: 3f <= 2(f-1) + 2k
            continue
        for mult in _structure_multigraphs(k, f):
            g = _expand_structure(k, f, mult)
            if not g.is_connected():
                continue
            bits = g.adj_bits
            if any(_locally_reducible(bits, u, v) and not is_bridge(bits, u, v)
                   for u, v in g.edges()):
                continue
            g6, gens = canonical_class(g)
            found.setdefault(g6, gens)
    return tuple(sorted(found.items()))


# ---------------------------------------------------------------------------
# the generator

def _build_level(n: int, jobs: int) -> Level:
    if n == MIN_ORDER:
        k4 = build_graph(4, list(itertools.combinations(range(4), 2)))
        children = [canonical_class(k4)]
    else:
        parents = list(zip(*_level(n - 2, jobs)))
        workers = min(jobs, len(parents), os.cpu_count() or 1)
        if workers > 1:
            ctx = get_context("fork")
            chunk = max(1, len(parents) // (workers * 8))
            with ctx.Pool(workers) as pool:
                results = pool.map(_expand_parent, parents, chunksize=chunk)
        else:
            results = [_expand_parent(p) for p in parents]
        children = [c for lst in results for c in lst]
        children.extend(irreducible_seeds(n))
    children.sort()
    for (a, _), (b, _) in zip(children, children[1:]):
        if a == b:
            raise AssertionError(f"duplicate class generated at n={n}: {a}")
    strings, generators = zip(*children)
    return strings, generators


def _level(n: int, jobs: int) -> Level:
    _check_order(n)
    if n not in _LEVEL_CACHE:
        _LEVEL_CACHE[n] = _build_level(n, jobs)
    return _LEVEL_CACHE[n]


def enumerate_cubic_graph6(n: int, jobs: int = 1) -> Tuple[str, ...]:
    """Canonical graph6 strings of all connected cubic graphs of order n,
    exactly one per isomorphism class, sorted (hence deterministic and
    independent of the worker count).  Each level forks at most
    min(jobs, parents, cores) workers."""
    return _level(n, jobs)[0]


def enumerate_cubic(n: int, jobs: int = 1) -> Iterator[Graph]:
    """Stream one canonically labeled representative per isomorphism
    class of connected cubic graphs on n vertices."""
    for g6 in enumerate_cubic_graph6(n, jobs):
        yield decode_graph6(g6)

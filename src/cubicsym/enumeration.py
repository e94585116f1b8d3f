"""Isomorph-free generation of connected cubic graphs, n <= 20.

Generation walks a canonical construction path.  The expansion step picks
two distinct edges of a parent, subdivides each once, and joins the two
new vertices; the reverse step contracts such an edge pair back.  An edge
uv of a connected cubic graph is *reducible* (its contraction yields a
connected simple cubic graph again) iff it is not a bridge, neither
endpoint lies in a triangle avoiding the other, and the endpoints do not
share both remaining neighbors.  A child produced by inserting edge uv is
accepted only when uv lies in the canonical reducible-edge orbit of the
child (argmin of a cheap relabeling-invariant edge score, ties broken by
canonical labeling and automorphism orbits), so every isomorphism class
with a reducible edge is produced exactly once from its canonical parent.

Graphs with no reducible edge cannot be reached that way and are seeded
directly.  They have a rigid shape: every triangle sits inside a diamond
(K4 minus an edge), every non-bridge edge is a diamond edge or touches a
diamond pole, and the remaining edges are bridges forming a forest.
Contracting diamonds therefore leaves a multigraph on degree-2 "diamond"
nodes and degree-3 plain nodes whose plain-plain edges are bridges; the
seeder enumerates those multigraphs directly, expands them, and keeps
exactly the graphs that pass the direct edge-by-edge irreducibility
check.  The structure argument is cross-validated against the brute-force
oracle at small orders and against the published census counts.
"""

from __future__ import annotations

import itertools
from multiprocessing import get_context
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .autgrp import automorphism_group, canonical_data, canonical_form
from .graph import Graph, build_graph, bridges
from .graph6 import decode_graph6

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

def reducible_edges(graph: Graph) -> List[Tuple[int, int]]:
    """Edges whose contraction yields a connected simple cubic graph."""
    bridge_set = bridges(graph)
    out = []
    for u, v in graph.edges():
        if (u, v) in bridge_set:
            continue
        a, b = (x for x in graph.adj[u] if x != v)
        c, d = (x for x in graph.adj[v] if x != u)
        if graph.has_edge(a, b) or graph.has_edge(c, d):
            continue  # a triangle at one endpoint avoiding the other
        if {a, b} == {c, d}:
            continue  # both new edges would coincide
        out.append((u, v))
    return out


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
    """Subdivide two distinct edges and join the two new vertices."""
    if e1 == e2:
        raise ValueError("insertion needs two distinct edges")
    n = graph.n
    u, v = n, n + 1
    a, b = e1
    c, d = e2
    edges = [e for e in graph.edges() if e not in (e1, e2)]
    edges += [(a, u), (b, u), (c, v), (d, v), (u, v)]
    return build_graph(n + 2, edges)


# ---------------------------------------------------------------------------
# cheap relabeling-invariant edge score

def _vertex_profiles(graph: Graph) -> Tuple[List[Tuple[int, ...]], List[List[int]]]:
    n = graph.n
    dists: List[List[int]] = []
    profiles: List[Tuple[int, ...]] = []
    for root in range(n):
        dist = [-1] * n
        dist[root] = 0
        frontier = [root]
        while frontier:
            nxt = []
            for x in frontier:
                dx = dist[x]
                for y in graph.adj[x]:
                    if dist[y] < 0:
                        dist[y] = dx + 1
                        nxt.append(y)
            frontier = nxt
        dists.append(dist)
        hist: Dict[int, int] = {}
        for dv in dist:
            hist[dv] = hist.get(dv, 0) + 1
        profiles.append(tuple(sorted(hist.items())))
    return profiles, dists


def _edge_scores(
    graph: Graph, edges: Sequence[Tuple[int, int]]
) -> Dict[Tuple[int, int], tuple]:
    profiles, dists = _vertex_profiles(graph)
    n = graph.n
    scores = {}
    for u, v in edges:
        du, dv = dists[u], dists[v]
        joint = sorted(du[w] + dv[w] for w in range(n))
        common = (graph.adj_bits[u] & graph.adj_bits[v]).bit_count()
        pair = sorted((profiles[u], profiles[v]))
        scores[(u, v)] = (tuple(joint), common, pair[0], pair[1])
    return scores


# ---------------------------------------------------------------------------
# canonical construction path acceptance

def _accept_child(child: Graph, inserted: Tuple[int, int]) -> Optional[str]:
    """Canonical graph6 of the child if the inserted edge sits in the
    canonical reduction orbit, else None.

    The canonical reduction edge minimizes (cheap score, canonical image);
    the score is relabeling-invariant, so when the argmin score class is a
    single edge no canonical labeling is needed at all, which is the
    common case and keeps rejected children cheap.
    """
    red = reducible_edges(child)
    scores = _edge_scores(child, red)
    best = min(scores.values())
    cls = [e for e in red if scores[e] == best]
    if inserted not in cls:
        return None
    if len(cls) == 1:
        return canonical_form(child).decode("ascii")
    data = canonical_data(child)
    label = data.labeling.images

    def image(e: Tuple[int, int]) -> Tuple[int, int]:
        x, y = label[e[0]], label[e[1]]
        return (x, y) if x < y else (y, x)

    target = min(image(e) for e in cls)
    for p in data.group.elements:
        x, y = p.images[inserted[0]], p.images[inserted[1]]
        if image((x, y)) == target:
            return data.canonical_g6.decode("ascii")
    return None


def _edge_pair_reps(graph: Graph) -> List[Tuple[Tuple[int, int], Tuple[int, int]]]:
    """Unordered pairs of distinct edges, one per automorphism orbit."""
    edges = list(graph.edges())
    pairs = list(itertools.combinations(edges, 2))
    group = automorphism_group(graph)
    if group.order == 1:
        return pairs
    seen: Set[frozenset] = set()
    reps = []
    for e1, e2 in pairs:
        key = frozenset((e1, e2))
        if key in seen:
            continue
        reps.append((e1, e2))
        for p in group.elements:
            f1 = tuple(sorted((p.images[e1[0]], p.images[e1[1]])))
            f2 = tuple(sorted((p.images[e2[0]], p.images[e2[1]])))
            seen.add(frozenset((f1, f2)))
    return reps


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
    if jobs > 1 and len(parents) > 1:
        ctx = get_context("fork")
        chunk = max(1, len(parents) // (jobs * 8))
        with ctx.Pool(jobs) as pool:
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
    independent of the worker count)."""
    _check_order(n)
    return _level(n, jobs)


def enumerate_cubic(n: int, jobs: int = 1) -> Iterator[Graph]:
    """Stream one canonically labeled representative per isomorphism
    class of connected cubic graphs on n vertices."""
    for g6 in enumerate_cubic_graph6(n, jobs):
        yield decode_graph6(g6)


# ---------------------------------------------------------------------------
# independent brute-force oracle

def enumerate_cubic_bruteforce(n: int) -> Tuple[str, ...]:
    """Exhaustive degree-pruned edge-subset generation plus canonical
    dedup; independent of the construction-path generator.

    Two completeness-preserving symmetry cuts keep the labeled search
    small: N(0) = {1, 2, 3} (every cubic graph admits such a labeling),
    and isolated vertices are consumed in ascending index order (names of
    still-isolated vertices are interchangeable, so any labeling can be
    rewritten step by step to respect this).  Feasible for n <= 12."""
    if n % 2 or n < 4:
        raise EnumerationRangeError(f"no cubic graphs on order {n}")
    if n > 12:
        raise EnumerationRangeError("brute-force oracle capped at n = 12")
    if n == 4:
        k4 = build_graph(4, list(itertools.combinations(range(4), 2)))
        return (canonical_form(k4).decode("ascii"),)
    adj: List[Set[int]] = [set() for _ in range(n)]
    deg = [0] * n
    for w in (1, 2, 3):
        adj[0].add(w)
        adj[w].add(0)
        deg[0] += 1
        deg[w] += 1
    out: Set[str] = set()

    def smallest_deficient(after: int) -> int:
        for v in range(after, n):
            if deg[v] < 3:
                return v
        return n

    def rec(v: int, floor: int, fresh: int) -> None:
        if v == n:
            g = Graph(n, [sorted(s) for s in adj])
            if g.is_connected():
                out.add(canonical_form(g).decode("ascii"))
            return
        top = min(n, fresh + 1)
        for w in range(max(v + 1, floor), top):
            if deg[w] >= 3 or w in adj[v]:
                continue
            adj[v].add(w)
            adj[w].add(v)
            deg[v] += 1
            deg[w] += 1
            new_fresh = fresh + 1 if w == fresh else fresh
            if deg[v] == 3:
                rec(smallest_deficient(v + 1), 0, new_fresh)
            else:
                rec(v, w + 1, new_fresh)
            adj[v].discard(w)
            adj[w].discard(v)
            deg[v] -= 1
            deg[w] -= 1

    rec(1, 0, 4)
    return tuple(sorted(out))

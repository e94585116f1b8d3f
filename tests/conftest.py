"""Shared helpers: independent oracles and seeded random graph sources."""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterable, List, Set, Tuple

import pytest

from cubicsym import (EnumerationRangeError, Graph, build_graph, canonical_form,
                      transitivity_profile)
from cubicsym.graph import edge_components

# every catalog graph that takes no parameters
FIXED_CATALOG = (
    "k4", "k33", "cube", "petersen", "dodecahedron", "desargues", "heawood",
    "pappus", "tutte_coxeter", "icosahedron", "base_graph", "omega18",
    "fig5_lambda", "truncated_k4", "truncated_icosahedron",
)


def naive_aut_order(g: Graph) -> int:
    """All-bijections automorphism count; usable up to n ~ 8."""
    edges = set(g.edges())
    count = 0
    for perm in itertools.permutations(range(g.n)):
        ok = True
        for u, w in edges:
            a, b = perm[u], perm[w]
            if (a, b) not in edges and (b, a) not in edges:
                ok = False
                break
        if ok:
            count += 1
    return count


def backtracking_automorphisms(g: Graph) -> List[Tuple[int, ...]]:
    """Independent oracle: every automorphism as an image tuple, found by
    plain backtracking over partial vertex maps with degree and adjacency
    consistency.  No refinement, no canonical forms; usable to n ~ 14 on
    symmetric graphs."""
    n = g.n
    images = [-1] * n
    used = [False] * n
    found: List[Tuple[int, ...]] = []

    def place(v: int) -> None:
        if v == n:
            found.append(tuple(images))
            return
        for w in range(n):
            if used[w] or g.degree(w) != g.degree(v):
                continue
            ok = True
            for x in g.adj[v]:
                if x < v and not g.has_edge(images[x], w):
                    ok = False
                    break
            if ok:
                # mapped earlier non-neighbors must stay non-neighbors
                for x in range(v):
                    if not g.has_edge(x, v) and g.has_edge(images[x], w):
                        ok = False
                        break
            if ok:
                images[v] = w
                used[w] = True
                place(v + 1)
                used[w] = False
                images[v] = -1

    place(0)
    return found


def setwise_trivial(autos: List[Tuple[int, ...]], members: Iterable[int]) -> bool:
    """Whether only the identity among the image tuples preserves the set."""
    s = frozenset(members)
    return sum(frozenset(im[v] for v in s) == s for im in autos) == 1


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [
        (u, w)
        for u in range(n)
        for w in range(u + 1, n)
        if rng.random() < p
    ]
    return build_graph(n, edges)


def random_cubic(n: int, rng: random.Random, connected: bool = False) -> Graph:
    """Rejection-sampled pairing model; uniform-ish over simple cubic graphs."""
    assert n % 2 == 0 and n >= 4
    while True:
        points = list(range(3 * n))
        rng.shuffle(points)
        edges = set()
        ok = True
        for i in range(0, 3 * n, 2):
            u, w = points[i] // 3, points[i + 1] // 3
            if u == w or (min(u, w), max(u, w)) in edges:
                ok = False
                break
            edges.add((min(u, w), max(u, w)))
        if not ok:
            continue
        g = build_graph(n, sorted(edges))
        if connected and not g.is_connected():
            continue
        return g


def random_relabel(g: Graph, rng: random.Random) -> Graph:
    images = list(range(g.n))
    rng.shuffle(images)
    return g.relabel(images)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240811)


# ---------------------------------------------------------------------------
# independent brute-force census oracle

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


# ---------------------------------------------------------------------------
# reference BRBB unique-path check: a depth-first count of the
# black-red-black-black paths, kept to compare the library's matching-based
# count against


def brbb_unique_path_property(graph: Graph) -> bool:
    """The unique-path mechanics behind the cost-2 witness.

    Edges split into the matching orbit (red) and the cycles orbit
    (black).  For every red edge v1-u1 with black 5-cycles C1 (through
    v1) and C2 (through u1): v1-u1 must be the only edge between C1 and
    C2, and for each choice of black neighbor v2 of v1 and black 2-step
    walk u1-u2-u3, the path v2-v1-u1-u2-u3 must be the unique
    black-red-black-black path of length 4 between v2 and u3.
    """
    profile = transitivity_profile(graph)
    red = profile.orbit_with_tag("perfect-matching")
    black_orbit = profile.orbit_with_tag("disjoint-cycles")
    if red is None or black_orbit is None:
        return False
    red_set = set(red)
    black = set(black_orbit)
    cycle_of = edge_components(graph.n, black)  # each vertex's black cycle
    if -1 in cycle_of:  # the black cycles must cover every vertex
        return False
    incident: Dict[int, List[int]] = {}
    for u, w in black:
        incident.setdefault(u, []).append(w)
        incident.setdefault(w, []).append(u)

    def edge_color_is_red(a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in red_set

    for v1, u1 in red:
        c1, c2 = cycle_of[v1], cycle_of[u1]
        between = [
            (a, b)
            for a, b in graph.edges()
            if (cycle_of[a], cycle_of[b]) in ((c1, c2), (c2, c1))
        ]
        if len(between) != 1:
            return False
        for v2 in incident[v1]:
            for u2 in incident[u1]:
                for u3 in incident[u2]:
                    if u3 == u1:
                        continue
                    # v2-v1-u1-u2-u3 is one such path (v1, v2 on one black
                    # cycle, u1, u2, u3 on another), so it must be the only one
                    count = _count_brbb_paths(
                        graph, v2, u3, edge_color_is_red
                    )
                    if count != 1:
                        return False
    return True


def _count_brbb_paths(graph: Graph, start: int, end: int, is_red) -> int:
    pattern = (False, True, False, False)
    count = 0
    stack = [(start, (start,))]
    while stack:
        v, path = stack.pop()
        i = len(path) - 1
        if i == 4:
            if v == end:
                count += 1
            continue
        for w in graph.adj[v]:
            if w in path:
                continue
            if is_red(v, w) == pattern[i]:
                stack.append((w, path + (w,)))
    return count

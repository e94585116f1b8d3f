"""Shared helpers: independent oracles and seeded random graph sources."""

from __future__ import annotations

import itertools
import random
from typing import Iterable, List, Tuple

import pytest

from cubicsym import Graph, build_graph

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

"""Named-graph catalog with frozen edge lists and fixed vertex numbering.

Every entry is explicit literal data (or a deterministic parametric
family), so canonical forms, search witnesses, and report output stay
reproducible across versions.  The icosahedron carries the rotation
system of its polyhedral embedding, as the literal tuple of each
vertex's neighbors in cyclic order; truncating along it gives girth 5,
and arbitrary labelings generally produce girth below 5.

Vertex numbering conventions for the hand-built entries:

* ``heawood``      0..5 outer 6-cycle v_i, 6..11 spoke ends u_i (with the
                   three long chords u_i u_{i+3}), 12..13 the two hub
                   vertices joined to alternating u's.
* ``pappus``       0..5 v-cycle, 6..11 u_i, 12..17 w_i; edges v_i u_i,
                   u_i w_i, w_i u_{i+2}, w_i w_{i+3}.
* ``base_graph``   0..5 v-cycle, 6..11 pendant u_i.
* ``omega18``      base_graph plus chords u_i u_{i+3} plus pendants w_i
                   (12..17, degree 1).
* ``fig5_lambda``  omega18 plus the w-cycle w_i w_{i+1}: cubic, order 18.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .graph import Graph, build_graph
from .truncation import Orders, classic_truncation, generalized_truncation


class CatalogError(ValueError):
    """Unknown catalog name or invalid parameters."""


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    graph: Graph
    rotation: Optional[Orders] = None  # each vertex's neighbors in cyclic order


# ---------------------------------------------------------------------------
# constructors

_ICOSAHEDRON_EDGES = [
    (0, 1), (0, 2), (0, 5), (0, 6), (0, 7), (1, 2), (1, 3), (1, 7), (1, 8),
    (2, 4), (2, 6), (2, 8), (3, 7), (3, 8), (3, 9), (3, 11), (4, 6), (4, 8),
    (4, 9), (4, 10), (5, 6), (5, 7), (5, 10), (5, 11), (6, 10), (7, 11),
    (8, 9), (9, 10), (9, 11), (10, 11),
]

# cyclic neighbor order from the standard (0, +-1, +-phi) coordinates,
# counterclockwise seen from outside; traces the 20 triangular faces
_ICOSAHEDRON_ROTATION = (
    (1, 7, 5, 6, 2), (0, 2, 8, 3, 7), (0, 6, 4, 8, 1), (1, 8, 9, 11, 7),
    (2, 6, 10, 9, 8), (0, 7, 11, 10, 6), (0, 5, 10, 4, 2), (0, 1, 3, 11, 5),
    (1, 2, 4, 9, 3), (3, 8, 4, 10, 11), (4, 6, 5, 11, 9), (3, 9, 10, 5, 7),
)


def complete_graph(n: int) -> Graph:
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    return build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise CatalogError("cycle needs at least 3 vertices")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def edgeless_graph(n: int) -> Graph:
    return build_graph(n, [])


def generalized_petersen(n: int, k: int) -> Graph:
    """GP(n, k): outer n-cycle 0..n-1, inner star polygon n..2n-1."""
    if n < 3 or not (1 <= k < n) or 2 * k == n:
        raise CatalogError(f"invalid generalized Petersen parameters ({n}, {k})")
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    edges += [(n + i, n + ((i + k) % n)) for i in range(n)]
    return build_graph(2 * n, edges)


def prism(k: int) -> Graph:
    """Circular ladder: two k-cycles joined by a perfect matching of rungs."""
    if k < 3:
        raise CatalogError("prism needs k >= 3")
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(k + i, k + ((i + 1) % k)) for i in range(k)]
    edges += [(i, k + i) for i in range(k)]
    return build_graph(2 * k, edges)


def moebius_ladder(k: int) -> Graph:
    """2k-cycle plus the k diameters; moebius(3) is K_{3,3}."""
    if k < 3:
        raise CatalogError("Moebius ladder needs k >= 3")
    n = 2 * k
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, i + k) for i in range(k)]
    return build_graph(n, edges)


def path_ladder(k: int) -> Graph:
    """P_k x K_2: k-rung ladder with degree-2 corners (not cubic)."""
    if k < 2:
        raise CatalogError("path ladder needs k >= 2")
    edges = [(i, i + 1) for i in range(k - 1)]
    edges += [(k + i, k + i + 1) for i in range(k - 1)]
    edges += [(i, k + i) for i in range(k)]
    return build_graph(2 * k, edges)


def _heawood() -> Graph:
    edges = [(i, (i + 1) % 6) for i in range(6)]
    edges += [(i, 6 + i) for i in range(6)]
    edges += [(6 + i, 6 + i + 3) for i in range(3)]
    edges += [(12, 6), (12, 8), (12, 10)]
    edges += [(13, 7), (13, 9), (13, 11)]
    return build_graph(14, edges)


def _pappus() -> Graph:
    edges = [(i, (i + 1) % 6) for i in range(6)]
    edges += [(i, 6 + i) for i in range(6)]
    edges += [(6 + i, 12 + i) for i in range(6)]
    edges += [(12 + i, 6 + ((i + 2) % 6)) for i in range(6)]
    edges += [(12 + i, 12 + i + 3) for i in range(3)]
    return build_graph(18, edges)


def _base_graph() -> Graph:
    edges = [(i, (i + 1) % 6) for i in range(6)]
    edges += [(i, 6 + i) for i in range(6)]
    return build_graph(12, edges)


def _omega18() -> Graph:
    edges = [(i, (i + 1) % 6) for i in range(6)]
    edges += [(i, 6 + i) for i in range(6)]
    edges += [(6 + i, 6 + i + 3) for i in range(3)]
    edges += [(6 + i, 12 + i) for i in range(6)]
    return build_graph(18, edges)


def _fig5_lambda() -> Graph:
    edges = [(i, (i + 1) % 6) for i in range(6)]
    edges += [(i, 6 + i) for i in range(6)]
    edges += [(6 + i, 6 + i + 3) for i in range(3)]
    edges += [(6 + i, 12 + i) for i in range(6)]
    edges += [(12 + i, 12 + ((i + 1) % 6)) for i in range(6)]
    return build_graph(18, edges)


def _lcf(n: int, pattern: Sequence[int], repeats: int) -> Graph:
    """Hamiltonian cycle 0..n-1 plus chords i -> i + pattern[i mod len]."""
    if len(pattern) * repeats != n:
        raise CatalogError("LCF pattern length mismatch")
    edges = {(i, (i + 1) % n) for i in range(n)}
    for i in range(n):
        j = (i + pattern[i % len(pattern)]) % n
        edges.add((min(i, j), max(i, j)))
    return build_graph(n, sorted(edges))


def _tutte_coxeter() -> Graph:
    return _lcf(30, [-13, -9, 7, -7, 9, 13], 5)


def _f26a() -> Graph:
    # the arc-regular graph F26A (Conder & Dobcsanyi 2002)
    return _lcf(26, [-7, 7], 13)


def icosahedron() -> Tuple[Graph, Orders]:
    return build_graph(12, _ICOSAHEDRON_EDGES), _ICOSAHEDRON_ROTATION


# ---------------------------------------------------------------------------
# the catalog proper

_PLAIN: Dict[str, Callable[[], Graph]] = {
    "k4": lambda: complete_graph(4),
    "k33": lambda: complete_bipartite(3, 3),
    "cube": lambda: generalized_petersen(4, 1),
    "petersen": lambda: generalized_petersen(5, 2),
    "dodecahedron": lambda: generalized_petersen(10, 2),
    "desargues": lambda: generalized_petersen(10, 3),
    "heawood": _heawood,
    "pappus": _pappus,
    "tutte_coxeter": _tutte_coxeter,
    "base_graph": _base_graph,
    "omega18": _omega18,
    "fig5_lambda": _fig5_lambda,
    "f26a": _f26a,
}

_PARAMETRIC: Dict[str, Callable[..., Graph]] = {
    "gp": generalized_petersen,
    "prism": prism,
    "moebius": moebius_ladder,
    "path_ladder": path_ladder,
}

_COMPOSITE: Dict[str, Callable[[], CatalogEntry]] = {
    "icosahedron": lambda: CatalogEntry("icosahedron", *icosahedron()),
    "truncated_icosahedron": lambda: CatalogEntry(
        "truncated_icosahedron", generalized_truncation(*icosahedron(), cycle_graph(5))
    ),
    "truncated_k4": lambda: CatalogEntry(
        "truncated_k4", classic_truncation(complete_graph(4))
    ),
}


def catalog_names() -> List[str]:
    names = sorted(_PLAIN) + sorted(_COMPOSITE)
    names += [f"{k}(...)" for k in sorted(_PARAMETRIC)]
    return names


def catalog_build(name: str, *params: int) -> CatalogEntry:
    """Build a named graph; parametric families take integer parameters.

    Accepts ``gp(10,3)``-style names with inline parameters as well as
    separate ``params``.  Hyphens and underscores are interchangeable in
    the base name; a hyphen among the parameters is a minus sign.
    """
    key, paren, rest = name.strip().lower().partition("(")
    key = key.strip().replace("-", "_")
    if paren:
        if not rest.endswith(")"):
            raise CatalogError(f"malformed catalog name {name!r}")
        # `k4()` has no fields, and an empty field is no integer
        fields = rest[:-1].split(",") if rest[:-1].strip() else []
        try:
            params = tuple(map(int, fields))
        except ValueError as exc:
            raise CatalogError(f"non-integer parameter in {name!r}") from exc
    if key in _PLAIN:
        if params:
            raise CatalogError(f"{key} takes no parameters")
        return CatalogEntry(key, _PLAIN[key]())
    if key in _COMPOSITE:
        if params:
            raise CatalogError(f"{key} takes no parameters")
        return _COMPOSITE[key]()
    if key in _PARAMETRIC:
        try:
            return CatalogEntry(
                f"{key}({','.join(map(str, params))})", _PARAMETRIC[key](*params)
            )
        except TypeError as exc:
            raise CatalogError(f"wrong parameter count for {key}") from exc
    raise CatalogError(f"unknown catalog name {name!r}")


def catalog_graph(name: str, *params: int) -> Graph:
    return catalog_build(name, *params).graph

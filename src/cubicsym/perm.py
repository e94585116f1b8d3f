"""Permutations on vertex indices and fully materialized permutation groups.

A permutation of [0, n) is its image tuple: ``p[i]`` is the image of
point i.  A group is the tuple of all its elements, sorted, so the
identity is ``group[0]``, the order is ``len(group)`` and ``group[1:]``
are the elements that move a point.  Groups are materialized whole by
coset enumeration rather than via stabilizer chains; the closure is
capped at DEFAULT_GROUP_CAP = 2^20 elements (K9's 9! = 362,880 still
closes).  Past the cap the failure is an explicit GroupTooLargeError,
never silent degradation.  Orbits need no group: ``orbits(perms,
points)`` reads only the permutations, so a search's generators give
them with no closure.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Sequence, Set, Tuple

DEFAULT_GROUP_CAP = 2**20

Images = Tuple[int, ...]  # a permutation: images[i] is the image of point i
Group = Tuple[Images, ...]  # every element, sorted: the identity first


class GroupTooLargeError(RuntimeError):
    """Closure exceeded the materialization cap."""

    def __init__(self, cap: int):
        super().__init__(f"group too large: closure exceeded cap {cap}")
        self.cap = cap


def cycle_notation(images: Images) -> str:
    """Disjoint cycles of length > 1, each from its least point, or "()"."""
    seen = [False] * len(images)
    parts: List[str] = []
    for start in range(len(images)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        v = images[start]
        while v != start:
            cyc.append(v)
            seen[v] = True
            v = images[v]
        if len(cyc) > 1:
            parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) if parts else "()"


def extend_closure(
    seen: Set[Images], lookups: Sequence[Callable], cap: int
) -> bool:
    """Grow ``seen``, the group H of all but the last generator (as image
    tuples; ``lookups`` holds each generator's ``__getitem__``), to
    the group of all; False once it would outgrow ``cap``.  The new group
    is a union of left cosets x H and g maps x H to (g x) H, so the step
    costs about one product per element, however many generators."""
    base = list(seen)
    reps = [tuple(range(len(base[0])))]
    while reps:
        x = reps.pop()
        for g in lookups:
            y = tuple(map(g, x))
            if y in seen:
                continue
            if len(seen) + len(base) > cap:
                return False
            at = y.__getitem__
            seen.update(tuple(map(at, h)) for h in base)
            reps.append(y)
    return True


def close_generators(
    gens: Iterable[Sequence[int]], degree: int, cap: int = DEFAULT_GROUP_CAP
) -> Group:
    """Materialize the group generated by ``gens``, one generator at a
    time by coset enumeration (see :func:`extend_closure`); no
    generators give the trivial group.

    Each generator is an image sequence, taken as a tuple; it must be a
    bijection on [0, degree).  Exceeding ``cap`` raises GroupTooLargeError.
    """
    gens = tuple(map(tuple, gens))
    ident = tuple(range(degree))
    for g in gens:
        if len(g) != degree:
            raise ValueError("generator degree mismatch")
        if tuple(sorted(g)) != ident:
            raise ValueError("generator is not a bijection on [0, degree)")
    # g * p is tuple(map(g.__getitem__, p))
    lookups: List[Callable] = []
    seen = {ident}
    for gen in gens:
        if gen in seen:  # already generated: costs nothing more
            continue
        lookups.append(gen.__getitem__)
        if not extend_closure(seen, lookups, cap):
            raise GroupTooLargeError(cap)
    return tuple(sorted(seen))


# ---------------------------------------------------------------------------
# orbits


def orbits(perms: Sequence[Sequence[int]], points: Sequence) -> Tuple[tuple, ...]:
    """Orbits of the indices of `points` under the permutations of those
    indices, in order of their least index, each block sorted and read as
    the points at its indices; singletons for no permutations.  Vertex
    orbits are ``orbits(gens, range(n))`` and edge orbits
    ``orbits(edge_perms(gens, edges), edges)``."""
    if any(len(p) != len(points) for p in perms):
        raise ValueError("permutation degree does not match the points")
    if not perms:
        return tuple([(p,) for p in points])
    seen = bytearray(len(points))
    blocks = []
    for start in range(len(points)):
        if seen[start]:
            continue
        seen[start] = 1
        block = [start]
        for x in block:  # grows while it is scanned
            for p in perms:
                y = p[x]
                if not seen[y]:
                    seen[y] = 1
                    block.append(y)
        block.sort()
        blocks.append(tuple(map(points.__getitem__, block)))
    return tuple(blocks)


def edge_perms(generators: Iterable[Images], edges: Sequence[Tuple[int, int]]
               ) -> List[List[int]]:
    """Each generator as the permutation of edge indices it induces on
    ``edges``, an ascending list of a graph's edges (u < w)."""
    index = {e: i for i, e in enumerate(edges)}
    return [[index[(a, b) if a < b else (b, a)]
             for a, b in ((g[u], g[w]) for u, w in edges)] for g in generators]


# ---------------------------------------------------------------------------
# stabilizers


def stabilizer(group: Group, points: Iterable[int]) -> Group:
    """Pointwise stabilizer of the given vertices, by filtering the element
    tuple one point at a time (each pass scans only the survivors)."""
    if not group:
        raise ValueError("a group holds at least the identity")
    keep = group
    for v in points:
        if not 0 <= v < len(group[0]):
            raise ValueError("target vertex outside degree")
        keep = tuple(p for p in keep if p[v] == v)
    return keep

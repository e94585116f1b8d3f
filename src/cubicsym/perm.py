"""Permutations on vertex indices and fully materialized permutation groups.

A permutation of [0, n) is its image tuple: ``p[i]`` is the image of
point i.  Groups are materialized whole by coset enumeration rather than
via stabilizer chains; the closure is capped at DEFAULT_GROUP_CAP = 2^20
elements (K9's 9! = 362,880 still closes).  Past the cap the failure is
an explicit GroupTooLargeError, never silent degradation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, List, Optional, Sequence, Set, Tuple

from .graph import Graph

DEFAULT_GROUP_CAP = 2**20

Images = Tuple[int, ...]  # a permutation: images[i] is the image of point i


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


@dataclass(frozen=True)
class PermutationGroup:
    """Finitely generated group with its element set materialized.

    Elements are image tuples sorted lexicographically, so every
    downstream search over the group is reproducible and the identity is
    ``elements[0]``.
    """

    degree: int
    generators: Tuple[Images, ...]
    elements: Tuple[Images, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


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
    gens: Iterable[Sequence[int]], degree: Optional[int] = None, cap: int = DEFAULT_GROUP_CAP
) -> PermutationGroup:
    """Materialize the group generated by ``gens``, one generator at a
    time by coset enumeration (see :func:`extend_closure`).

    Each generator is an image sequence, taken as a tuple; it must be a
    bijection on [0, degree).  Exceeding ``cap`` raises GroupTooLargeError.
    """
    gens = tuple(map(tuple, gens))
    if degree is None:
        if not gens:
            raise ValueError("degree required for an empty generating set")
        degree = len(gens[0])
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
    return PermutationGroup(degree, gens, tuple(sorted(seen)))


# ---------------------------------------------------------------------------
# group actions


class Action(Enum):
    """Selector for the induced action in :func:`orbits`."""

    VERTICES = "vertices"
    EDGES = "edges"
    EDGE_PAIRS = "edge pairs"  # unordered pairs of distinct edges


def _acted_set(action: Action, host: Graph):
    """The acted-on points in ascending order."""
    if action is Action.VERTICES:
        return range(host.n)
    if action is Action.EDGES:
        return host.edges()
    return itertools.combinations(host.edges(), 2)


def _image_fn(action: Action) -> Callable[[Images, object], object]:
    if action is Action.VERTICES:
        return lambda p, v: p[v]

    def edge_image(p: Images, e):
        a, b = p[e[0]], p[e[1]]
        return (a, b) if a < b else (b, a)
    if action is Action.EDGES:
        return edge_image

    def pair_image(p: Images, pair):
        f, g = edge_image(p, pair[0]), edge_image(p, pair[1])
        return (f, g) if f < g else (g, f)
    return pair_image


def orbits(group: PermutationGroup, action: Action, host: Graph):
    """Orbit partition of the acted-on set; blocks sorted by least member."""
    if group.degree != host.n:
        raise ValueError("group degree does not match host order")
    img = _image_fn(action)
    seen: Set[object] = set()
    blocks = []
    for start in _acted_set(action, host):
        if start in seen:
            continue
        seen.add(start)
        block = [start]
        for x in block:  # grows while it is scanned
            for g in group.generators:
                y = img(g, x)
                if y not in seen:
                    seen.add(y)
                    block.append(y)
        blocks.append(tuple(sorted(block)))
    return tuple(blocks)


# ---------------------------------------------------------------------------
# stabilizers


def stabilizer(group: PermutationGroup, points: Iterable[int]) -> PermutationGroup:
    """Pointwise stabilizer of the given vertices, by filtering the element
    set one point at a time (each pass scans only the survivors)."""
    if not group.elements:
        raise ValueError("group is not materialized")
    keep = group.elements
    for v in points:
        if not 0 <= v < group.degree:
            raise ValueError("target vertex outside degree")
        keep = tuple(p for p in keep if p[v] == v)
    return PermutationGroup(group.degree, keep, keep)

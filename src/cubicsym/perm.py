"""Permutations on vertex indices and fully materialized permutation groups.

The groups encountered here are tiny (at most a few thousand elements),
so the whole element set is materialized by coset enumeration rather
than via stabilizer chains.  A hard cap guards against runaway input; the
failure mode is an explicit error, never silent degradation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, List, Optional, Sequence, Set, Tuple

from .graph import Graph

DEFAULT_GROUP_CAP = 2**20


class GroupTooLargeError(RuntimeError):
    """Closure exceeded the materialization cap."""

    def __init__(self, cap: int):
        super().__init__(f"group too large: closure exceeded cap {cap}")
        self.cap = cap


@dataclass(frozen=True)
class Permutation:
    """Bijection on [0, n); images[i] is the image of point i."""

    images: Tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise ValueError("images do not form a bijection on [0, n)")

    @property
    def degree(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(n)))

    @staticmethod
    def from_cycles(n: int, cycles: Sequence[Sequence[int]]) -> "Permutation":
        images = list(range(n))
        for cycle in cycles:
            for i, v in enumerate(cycle):
                images[v] = cycle[(i + 1) % len(cycle)]
        return Permutation(tuple(images))

    def apply(self, v: int) -> int:
        return self.images[v]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (p * q)(x) = p(q(x))."""
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        oi = other.images
        si = self.images
        return Permutation(tuple(si[oi[x]] for x in range(len(si))))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, v in enumerate(self.images):
            inv[v] = i
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(i == v for i, v in enumerate(self.images))

    def cycle_notation(self) -> str:
        seen = [False] * len(self.images)
        parts: List[str] = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            v = self.images[start]
            while v != start:
                cyc.append(v)
                seen[v] = True
                v = self.images[v]
            if len(cyc) > 1:
                parts.append("(" + " ".join(map(str, cyc)) + ")")
        return "".join(parts) if parts else "()"

    def __repr__(self) -> str:
        return f"Permutation{self.cycle_notation()}"


@dataclass(frozen=True)
class PermutationGroup:
    """Finitely generated group with its element set materialized.

    Elements are stored sorted lexicographically by image sequence so
    every downstream search over the group is reproducible.
    """

    degree: int
    generators: Tuple[Permutation, ...]
    elements: Tuple[Permutation, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def non_identity(self) -> Tuple[Permutation, ...]:
        return tuple(p for p in self.elements if not p.is_identity())


def extend_closure(
    seen: Set[Tuple[int, ...]], lookups: Sequence[Callable], cap: int
) -> bool:
    """Grow ``seen``, the group H of all but the last generator (as image
    tuples; ``lookups`` holds each generator's ``images.__getitem__``), to
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
    gens: Iterable[Permutation], degree: Optional[int] = None, cap: int = DEFAULT_GROUP_CAP
) -> PermutationGroup:
    """Materialize the group generated by ``gens``, one generator at a
    time by coset enumeration (see :func:`extend_closure`).

    Degrees must agree; exceeding ``cap`` raises GroupTooLargeError.
    """
    gens = tuple(gens)
    if degree is None:
        if not gens:
            raise ValueError("degree required for an empty generating set")
        degree = gens[0].degree
    for g in gens:
        if g.degree != degree:
            raise ValueError("generator degree mismatch")
    # image tuples: g * p is tuple(map(g.__getitem__, p))
    lookups: List[Callable] = []
    seen = {tuple(range(degree))}
    for gen in gens:
        if gen.images in seen:  # already generated: costs nothing more
            continue
        lookups.append(gen.images.__getitem__)
        if not extend_closure(seen, lookups, cap):
            raise GroupTooLargeError(cap)
    elements = tuple(Permutation(k) for k in sorted(seen))
    return PermutationGroup(degree, gens, elements)


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


def _image_fn(action: Action) -> Callable[[Permutation, object], object]:
    if action is Action.VERTICES:
        return lambda p, v: p.images[v]

    def edge_image(p: Permutation, e):
        a, b = p.images[e[0]], p.images[e[1]]
        return (a, b) if a < b else (b, a)
    if action is Action.EDGES:
        return edge_image

    def pair_image(p: Permutation, pair):
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
        keep = tuple(p for p in keep if p.images[v] == v)
    return PermutationGroup(group.degree, keep, keep)

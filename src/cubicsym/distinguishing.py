"""Distinguishing numbers, distinguishing sets, and exact 2-distinguishing
cost.

A vertex set is distinguishing when its setwise stabilizer in the full
automorphism group is trivial; the cost is the minimum size of such a
set.  The cost search walks set sizes k = 1, 2, ... and inside each size
enumerates candidate sets in lexicographic order, with the first element
restricted to vertex-orbit minima (any witness can be translated so its
least element is the least element of its orbit, so the restriction
loses nothing and the first witness found is the lexicographically least
overall).  Sets larger than n/2 never need testing: the complement of a
distinguishing set is distinguishing.

Whether a group element preserves a vertex set is one C-level call,
``frozenset(S).issuperset`` of the members' images read by one
``itemgetter``, which the cost search and the distinguishing-set test
share; whether it preserves a coloring is one C-level comparison of the
colors read through it with the coloring.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from operator import eq, itemgetter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .autgrp import automorphism_group
from .graph import Graph
from .perm import Action, orbits

COLOR_CAP = 8  # most colors `distinguishing_number` tries


class ColorCapExceeded(RuntimeError):
    """No coloring with at most COLOR_CAP colors is distinguishing."""

    def __init__(self, cap: int):
        super().__init__(f"distinguishing number exceeds the color cap {cap}")
        self.cap = cap


class SearchBudgetExceeded(RuntimeError):
    """Cost search ran out of its node budget; carries partial progress."""

    def __init__(self, budget: int, exhausted_size: int):
        super().__init__(
            f"distinguishing-cost budget of {budget} candidate sets exhausted; "
            f"sizes up to {exhausted_size} are fully searched"
        )
        self.budget = budget
        self.exhausted_size = exhausted_size


@dataclass(frozen=True)
class CostResult:
    """Outcome of the exact cost search.

    kind is one of "cost", "not-two-distinguishable", "asymmetric".  An
    asymmetric graph has distinguishing number 1; its cost is reported as
    0 with an empty witness by convention, flagged via kind.
    """

    kind: str
    cost: Optional[int] = None
    witness: Tuple[int, ...] = ()

    @property
    def is_cost(self) -> bool:
        return self.kind == "cost"


def is_distinguishing_set(graph: Graph, members: Sequence[int]) -> bool:
    """True iff only the identity preserves the set.

    Filters the memoized group's element list, so it materializes the
    group and raises GroupTooLargeError above the cap, as
    `automorphism_group` does.
    """
    s = frozenset(members)
    if any(not 0 <= v < graph.n for v in s):
        raise ValueError("set member outside vertex range")
    moving = automorphism_group(graph).elements[1:]
    if not s:  # every element preserves the empty set
        return not moving
    return not any(map(s.issuperset, map(_images(tuple(s)), moving)))


def _images(members: Tuple[int, ...]) -> Callable[[Sequence[int]], Tuple[int, ...]]:
    """One C-level call giving an element's images of the members as a
    tuple: a lone member is named twice, since ``itemgetter`` of one key
    returns the bare item."""
    if len(members) == 1:
        members *= 2
    return itemgetter(*members)


def _candidate_sets(
    reps: Sequence[int], n: int, size: int
) -> Iterator[Tuple[int, ...]]:
    for r in reps:
        if size == 1:
            yield (r,)
            continue
        for rest in combinations(range(r + 1, n), size - 1):
            yield (r,) + rest


def distinguishing_cost(graph: Graph, budget: Optional[int] = None) -> CostResult:
    """Exact minimum distinguishing-set size, or the structured outcomes.

    Returns kind "asymmetric" for a trivial group, "cost" with the
    lexicographically least minimal witness, and
    "not-two-distinguishable" when no set of size <= n/2 works (then
    D > 2 by complement symmetry).
    """
    group = automorphism_group(graph)
    if group.order == 1:
        return CostResult("asymmetric", 0, ())
    n = graph.n
    blocks = orbits(group.generators, Action.VERTICES, graph)
    reps = sorted(min(block) for block in blocks)
    # an element preserving a set maps its least member, a rep, into the
    # set: index the non-identity elements by the image of each rep
    moves: Dict[int, Dict[int, List[Tuple[int, ...]]]] = {r: {} for r in reps}
    for p in group.elements[1:]:
        for r in reps:
            moves[r].setdefault(p[r], []).append(p)
    tested = 0
    for size in range(1, n // 2 + 1):
        for cand in _candidate_sets(reps, n, size):
            if budget is not None and tested >= budget:
                raise SearchBudgetExceeded(budget, size - 1)
            tested += 1
            if not _preserved(moves[cand[0]], cand):
                return CostResult("cost", size, cand)
    return CostResult("not-two-distinguishable")


def _preserved(moves: Dict[int, List[Tuple[int, ...]]], cand: Sequence[int]) -> bool:
    """Whether an element of ``moves`` (by image of cand[0]) preserves cand."""
    s, images = frozenset(cand), _images(tuple(cand))
    for w in cand:
        for im in moves.get(w, ()):
            if s.issuperset(images(im)):
                return True
    return False


def distinguishing_number(graph: Graph, cost: Optional[CostResult] = None) -> int:
    """Smallest number of colors in a coloring preserved only by the
    identity.

    D = 1 iff the graph is asymmetric; D = 2 iff a distinguishing set
    exists, which ``cost``, the graph's ``distinguishing_cost`` when the
    caller has it, tells without a second search; beyond that, colorings
    with d <= COLOR_CAP colors are searched as set partitions
    (restricted-growth strings), which enumerates colorings once per
    color-permutation class.  The search starts at the size of the
    largest twin class, as no two twins may share a color.  Raises
    ColorCapExceeded past the cap.
    """
    group = automorphism_group(graph)
    if group.order == 1:
        return 1
    if (cost or distinguishing_cost(graph)).is_cost:
        return 2
    n = graph.n
    moving = group.elements[1:]
    bits = graph.adj_bits
    # twins, equal open or closed neighborhoods (an open one never equals a
    # closed one), are swapped by an automorphism fixing the rest
    twins = Counter([*bits, *(b | 1 << v for v, b in enumerate(bits))])
    for d in range(max(3, *twins.values()), COLOR_CAP + 1):
        if _distinguishing_coloring_exists(n, moving, d):
            return d
    raise ColorCapExceeded(COLOR_CAP)


def _distinguishing_coloring_exists(
    n: int, moving: Sequence, d: int
) -> bool:
    colors = [0] * n

    def rec(v: int, used: int) -> bool:
        if v == n:
            return not _coloring_preserved(moving, colors)
        top = min(used + 1, d)
        for c in range(top):
            colors[v] = c
            if rec(v + 1, max(used, c + 1)):
                return True
        colors[v] = 0
        return False

    return rec(0, 0)


def _coloring_preserved(moving: Sequence[Sequence[int]], colors: List[int]) -> bool:
    """Whether an element of ``moving`` maps the coloring onto itself: the
    colors read through it equal the coloring, compared in C up to the
    first vertex where they differ."""
    color = colors.__getitem__
    for p in moving:
        if all(map(eq, map(color, p), colors)):
            return True
    return False

"""Distinguishing numbers, distinguishing sets, and exact 2-distinguishing
cost.

A vertex set is distinguishing when its setwise stabilizer in the full
automorphism group is trivial; the cost is the minimum size of such a
set.  The cost search walks set sizes k = 1, 2, ... and inside each size
enumerates candidate sets in lexicographic order, with the first element
restricted to vertex-orbit minima, read off the search's generators
(any witness can be translated so its least element is the least
element of its orbit, so the restriction loses nothing and the first
witness found is the lexicographically least overall).  Sets larger
than n/2 never need testing: the complement of a distinguishing set is
distinguishing.

Whether a group element preserves a vertex set is one C-level call,
``frozenset(S).issuperset`` of the members' images read by one
``itemgetter``, which the cost search and the distinguishing-set test
share.  Past 2 the distinguishing number is read off a theorem, with no
coloring searched.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .autgrp import automorphism_group, search_generators
from .graph import Graph
from .perm import orbits


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

    Filters the memoized group's element tuple, so it materializes the
    group and raises GroupTooLargeError above the cap, as
    `automorphism_group` does.
    """
    s = frozenset(members)
    if any(not 0 <= v < graph.n for v in s):
        raise ValueError("set member outside vertex range")
    moving = automorphism_group(graph)[1:]
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
    if len(group) == 1:
        return CostResult("asymmetric", 0, ())
    n = graph.n
    blocks = orbits(search_generators(graph), range(n))
    reps = sorted(min(block) for block in blocks)
    # an element preserving a set maps its least member, a rep, into the
    # set: index the non-identity elements by the image of each rep
    moves: Dict[int, Dict[int, List[Tuple[int, ...]]]] = {r: {} for r in reps}
    for p in group[1:]:
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


def distinguishing_number(
    graph: Graph, cost: Optional[CostResult] = None
) -> Optional[int]:
    """Smallest number of colors in a coloring preserved only by the
    identity, or None when it is more than 2 and no theorem gives it.

    D = 1 iff the graph is asymmetric; D = 2 iff a distinguishing set
    exists, which ``cost``, the graph's ``distinguishing_cost`` when the
    caller has it, tells without a second search.  Beyond that, a
    connected graph of maximum degree Δ has D <= Δ + 1, with equality
    only for K_{Δ+1}, K_{Δ,Δ} and C5 (Collins & Trenk, Electron. J.
    Combin. 13 (2006) R16; Klavžar, Wong & Zhu, J. Algebra 303 (2006)).
    So a connected graph with Δ <= 3 and no distinguishing set has D = 3,
    the exceptions K3, C4 and C5 of Δ = 2 included, save K4 and K3,3,
    which have D = 4: they are the cubic graphs of order at most 6 other
    than the prism, which has a distinguishing set.  A disconnected graph
    or one with Δ >= 4 gets None.
    """
    if len(automorphism_group(graph)) == 1:
        return 1
    if (cost or distinguishing_cost(graph)).is_cost:
        return 2
    if not graph.is_connected() or any(len(row) > 3 for row in graph.adj):
        return None
    return 4 if graph.is_cubic() and graph.n <= 6 else 3

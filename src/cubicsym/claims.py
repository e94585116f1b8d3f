"""Mechanical verification of the classification and cost statements over
the enumerated census.

Each claim is one row of the table ``CLAIMS``: ordered hypothesis steps,
the catalog graphs it allows, names or excludes, one conclusion, and
its source.  One scan tests hypothesis => conclusion on each record of
the source (the census to ``n_max``, or the catalog ``inputs`` of the
``INPUT_CLAIMS``) and reports Pass or a reproducible graph6
counterexample, the failing record's canonical form.  No claim passes
vacuously: an allowed or named graph of an order in range that is no
hypothesis hit fails it, with its canonical form as the counterexample.
Nor does an exclusion go stale: the census holds every graph of each
order in range, so an excluded graph of such an order that never meets
the hypothesis fails a census claim the same way.

Hypothesis steps are keys of the predicate registry ``PREDICATES``,
which ``filtered_enumeration`` (``cubicsym enumerate --predicate``)
shares.  Predicates test a ``Record``: one class, its canonical graph6
string and generators of its group on that labeling, whose girth,
transitivity profile, distinguishing cost and consistent girth
cycle test are each computed at most once, on demand, by the exact
library operations, so a failure is attributable to a single tested
primitive.  The profile carries the edge orbits and the
vertex-stabilizer order too: ``cor33`` reads the order from the
record's profile, and ``brbb_unique_path_property`` (``thm34``) the
matching and cycle orbits.  A census record is a class the census
found, a catalog graph's that of one search (``autgrp.canonical_class``).
A record never searches again: its string is its form, a counterexample
too, and ``autgrp.adopt`` memoizes its generators before each readout
that needs the group.  The claims read only facts no labeling changes.

A record also reads one necessary condition for vertex-transitivity:
every vertex has the same BFS distance histogram, read as equal ball
sizes at every radius from ``graph.balls`` (radius 2 or 3 tells most
census graphs apart).  The predicates whose truth implies
vertex-transitivity (``vertex-transitive``, ``arc-transitive``,
``s-arc-transitive=S`` for S >= 1 and ``s-arc-transitive-of-girth-s+2``)
test it first and build the group only when it holds, so most census
graphs never reach the group.  The girth and this histogram test come
from one pass over the balls, ``graph.girth_and_histograms``, whichever
a predicate reads first.  The ``every-edge-in-girth-cycle`` step reads
the balls too and lists no cycle: ``graph.every_edge_in_girth_cycle``
compares the two endpoints' spheres of radius (girth - 1) // 2.

Every record keeps its readouts in a memo at an index, a ``_Memo``.  A
census string's memo is its order's entry of the per-process ``_FACTS``,
indexed like the order's level in ``enumeration._LEVEL_CACHE``, so it
lasts across scans: one byte per string for the girth and the histogram
test, 0 while unread, and dicts by index for the profile, the cost and
the cycle test of the few strings that reach them.  An entry is filled
only when a predicate or a conclusion first asks for it, so a later
claim decodes only the strings whose asked readouts are not yet there,
and each census graph is profiled at most once per process; the census
memo keeps no graph or record.  A catalog graph's record has a one-slot
memo of its own and is one record per process (``_catalog_record``), so
each catalog graph is searched once, and ``thm34``, ``cor33``, the
inputs and the allowed, named or excluded graphs share its profile.

Claim ids:

* thm41-g4   girth-4 graphs with a consistent girth cycle and every edge
             on a 4-cycle are K_{3,3} or the cube
* thm41-g5   girth-5 analogue: the Petersen graph or the dodecahedron
* thm44-g6   girth 6, consistent 6-cycle, every 3-arc on a 6-cycle:
             Heawood, Pappus, or Desargues
* lem45      s-arc-transitive of girth s+2 (s >= 3) has a consistent
             girth cycle
* lem46      3-arc-transitive of girth 6 has a consistent 6-cycle
* cor49      arc-transitive girth-6 graphs are at most 4-arc-regular,
             with the cost table per regularity level
* cor410     arc-transitive, finite girth, not one of the five named
             exceptions: cost at most 4
* thm34      girth-5 vertex-transitive two-orbit input graphs have
             cost exactly 2 (inputs: the truncated icosahedron)
* cor33      girth-5 vertex-transitive input graphs other than the
             Petersen graph and the dodecahedron have vertex-stabilizer
             order in {1, 2, 4} (inputs: the truncated icosahedron)
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple)

from .autgrp import adopt, canonical_class
from .catalog import catalog_build, catalog_graph
from .distinguishing import CostResult, distinguishing_cost
from .enumeration import (MAX_ORDER, MIN_ORDER, EnumerationRangeError,
                          Generators, _level)
from .graph import (Graph, edge_components, every_3_arc_in_6_cycle,
                    every_edge_in_girth_cycle, girth_and_histograms)
from .graph6 import decode_graph6
from .symmetry import (TransitivityProfile, consistent_cycles,
                       transitivity_profile)


class UnknownClaimError(ValueError):
    pass


class ClaimInputError(ValueError):
    """Inputs given to a claim that scans the census."""


@dataclass
class ClaimReport:
    claim_id: str
    n_range: Tuple[int, int]
    graphs_scanned: int
    hypothesis_hits: List[str] = field(default_factory=list)  # canonical graph6
    verdict: str = "Pass"  # "Pass" | "Fail"
    counterexample: Optional[str] = None
    notes: List[str] = field(default_factory=list)

    def fail(self, form: str, why: str) -> None:
        self.verdict = "Fail"
        self.counterexample = form
        self.notes.append(why)

    def to_dict(self) -> dict:
        return {
            "claim": self.claim_id,
            "n_range": list(self.n_range),
            "graphs_scanned": self.graphs_scanned,
            "hypothesis_hits": list(self.hypothesis_hits),
            "verdict": self.verdict,
            "counterexample": self.counterexample,
            "notes": list(self.notes),
        }

    def summary(self) -> str:
        hits = ", ".join(self.hypothesis_hits) or "none"
        lines = [
            f"claim {self.claim_id}: {self.verdict}",
            f"  range n in [{self.n_range[0]}, {self.n_range[1]}], "
            f"{self.graphs_scanned} graphs scanned",
            f"  hypothesis hits: {hits}",
        ]
        if self.counterexample:
            lines.append(f"  counterexample: {self.counterexample}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


class _Memo:
    """Readouts by index: of one census order's strings, or of one other
    graph at index 0.  ``ball_facts`` holds girth << 1 | histograms agree,
    0 while unread, a forest's girth (None) as 1, which no simple graph
    has: a byte per census string (girth <= 6), a list for another graph,
    whose girth may pass 127.  The dicts hold the readouts that need the
    group."""

    __slots__ = ("ball_facts", "profiles", "costs", "cycle_tests")

    def __init__(self, ball_facts):
        self.ball_facts = ball_facts
        self.profiles: Dict[int, TransitivityProfile] = {}
        self.costs: Dict[int, CostResult] = {}
        self.cycle_tests: Dict[int, bool] = {}


# order -> the memo of its census strings
_FACTS: Dict[int, _Memo] = {}


class Record:
    """One class under test: a canonical graph6 string and generators of
    its group on that labeling, from the census or a catalog graph.

    Each readout is computed on first use, by the library function looked
    up in this module's namespace at call time, and kept in the record's
    memo at its index: its order's memo in ``_FACTS`` for a census string
    (given by ``_census``), else a one-slot memo.  The group readouts adopt
    the generators (``autgrp.adopt``), so no readout searches.
    ``histograms_agree`` is the cheap necessary condition for
    vertex-transitivity that the transitivity predicates test before
    ``profile``, which builds the automorphism group: every vertex's ball
    has the same size at every radius, which is every vertex having the
    same distance histogram, unreached vertices included.  It and the
    girth come from one pass over the balls (``girth_and_histograms``),
    whichever is read first.
    ``has_consistent_girth_cycle`` is what the ``consistent-girth-cycle``
    predicate, ``lem45`` and ``lem46`` ask."""

    def __init__(self, g6: str, generators: Generators,
                 name: Optional[str] = None, memo: Optional[_Memo] = None,
                 index: int = 0):
        self.g6 = g6
        self.generators = generators
        self.name = name
        self._memo = _Memo([0]) if memo is None else memo
        self._index = index

    @cached_property
    def graph(self) -> Graph:
        return decode_graph6(self.g6)

    @property
    def ball_facts(self) -> Tuple[Optional[int], bool]:
        """(girth, histograms agree)."""
        facts, i = self._memo.ball_facts, self._index
        if not facts[i]:
            # an automorphism preserves distances, so a vertex-transitive
            # graph has one BFS distance histogram at every vertex
            length, agree = girth_and_histograms(self.graph)
            facts[i] = (length or 1) << 1 | agree
        length = facts[i] >> 1
        return (None if length == 1 else length), facts[i] & 1 == 1

    @property
    def girth(self) -> Optional[int]:
        return self.ball_facts[0]

    @property
    def histograms_agree(self) -> bool:
        return self.ball_facts[1]

    def _read(self, memo: dict, compute: Callable[[Graph], object]):
        value = memo.get(self._index)
        if value is None:
            adopt(self.graph, self.generators)
            value = memo[self._index] = compute(self.graph)
        return value

    @property
    def profile(self) -> TransitivityProfile:
        return self._read(self._memo.profiles, transitivity_profile)

    @property
    def cost(self) -> CostResult:
        return self._read(self._memo.costs, distinguishing_cost)

    @property
    def has_consistent_girth_cycle(self) -> bool:
        return self._read(self._memo.cycle_tests, lambda graph: (
            self.girth is not None
            and len(consistent_cycles(graph, self.girth)) > 0))


# ---------------------------------------------------------------------------
# predicate registry


class Predicate(NamedTuple):
    rank: int  # cheap tests first in filtered_enumeration
    metavar: str  # name of the "=value" argument, "" for none
    test: Callable[[Record, Optional[int]], bool]


PREDICATES: Dict[str, Predicate] = {
    "girth": Predicate(0, "G", lambda r, v: r.girth == v),
    "cubic-girth": Predicate(0, "G", lambda r, v: (
        r.graph.is_cubic() and r.graph.is_connected() and r.girth == v)),
    "every-edge-in-girth-cycle": Predicate(1, "", lambda r, _: (
        r.girth is not None and every_edge_in_girth_cycle(r.graph, r.girth))),
    "every-3-arc-in-6-cycle": Predicate(
        2, "", lambda r, _: every_3_arc_in_6_cycle(r.graph)),
    "consistent-girth-cycle": Predicate(
        3, "", lambda r, _: r.has_consistent_girth_cycle),
    # on a connected graph, s-arc-transitivity with s >= 1 implies
    # vertex-transitivity, so these entries may test the histograms first
    "vertex-transitive": Predicate(4, "", lambda r, _: (
        r.histograms_agree and r.profile.vertex_transitive)),
    "arc-transitive": Predicate(4, "", lambda r, _: (
        r.histograms_agree and r.profile.arc_transitive)),
    "edge-orbits": Predicate(4, "T", lambda r, v: r.profile.edge_orbit_count == v),
    "s-arc-transitive": Predicate(4, "S", lambda r, v: (
        (v < 1 or r.histograms_agree) and r.profile.max_s >= v)),
    "s-arc-transitive-of-girth-s+2": Predicate(4, "", lambda r, _: (
        r.girth is not None and r.girth >= 5 and r.histograms_agree
        and r.profile.max_s >= r.girth - 2)),
}


def _parse_predicate(spec: str) -> Tuple[str, Optional[int]]:
    name, eq, text = spec.partition("=")
    name = name.strip()
    if name not in PREDICATES:
        raise ValueError(f"unknown predicate {name!r}")
    metavar = PREDICATES[name].metavar
    if metavar and not eq:
        raise ValueError(f"predicate {name!r} needs a value: {name}={metavar}")
    if not metavar and eq:
        raise ValueError(f"predicate {name!r} takes no value")
    try:
        return name, int(text) if eq else None
    except ValueError:
        raise ValueError(f"predicate {name!r} needs an integer value: "
                         f"{name}={metavar}") from None


def _failed_step(record: Record, steps) -> Optional[int]:
    """Index of the first step the record fails, None if it passes all."""
    for i, (name, value) in enumerate(steps):
        if not PREDICATES[name].test(record, value):
            return i
    return None


def _census(orders: Iterable[int], jobs: int) -> Iterator[Record]:
    """One record per census string of each order, in order, sharing the
    order's memo in ``_FACTS`` and carrying the class's generators."""
    for n in orders:
        strings, generators = _level(n, jobs)
        if n not in _FACTS:
            _FACTS[n] = _Memo(bytearray(len(strings)))
        memo = _FACTS[n]
        for index, (g6, gens) in enumerate(zip(strings, generators)):
            yield Record(g6, gens, memo=memo, index=index)


@cache
def _catalog_record(name: str) -> Record:
    """The class of a catalog graph, by its normalized name, kept for the
    process: a claim's input, or an allowed, named or excluded graph,
    searched once."""
    return Record(*canonical_class(catalog_graph(name)), name=name)


def filtered_enumeration(
    n: int, predicates: Sequence[str], jobs: int = 1
) -> Iterator[str]:
    """Stream of the canonical graph6 strings of the census graphs passing
    every predicate, cheap tests first.

    Predicates are keys of ``PREDICATES``, with "=value" where the entry
    has a metavar ("girth=6", "vertex-transitive", "edge-orbits=2").
    """
    steps = sorted(map(_parse_predicate, predicates),
                   key=lambda step: PREDICATES[step[0]].rank)
    for record in _census((n,), jobs):
        if _failed_step(record, steps) is None:
            yield record.g6


# ---------------------------------------------------------------------------
# the claim table

Verdict = Tuple[Optional[str], Optional[str]]  # (failure reason, note)


@dataclass(frozen=True)
class Claim:
    hypothesis: Tuple[str, ...]  # registry specs, tested in this order
    # (record, forms of the allowed and named graphs) -> (failure, note)
    conclusion: Callable[[Record, Dict[str, str]], Verdict]
    allowed: Tuple[str, ...] = ()  # catalog graphs a hit must be one of
    # further catalog graphs that must be hits in range: those the
    # conclusion reads, and the claim's other census hits to n = 20
    named: Tuple[str, ...] = ()
    excluded: Tuple[str, ...] = ()  # catalog graphs left out of the hypothesis
    # catalog graphs scanned when no inputs are given; none: the census
    inputs: Tuple[str, ...] = ()
    # the note printed for an input that fails the step at the same index
    skip_notes: Tuple[str, ...] = ()


def _one_of_allowed(r: Record, forms: Dict[str, str]) -> Verdict:
    if r.g6 in forms.values():
        return None, None
    return f"hypothesis hit is not one of {sorted(forms)}", None


def _lem45(r: Record, _forms) -> Verdict:
    if r.has_consistent_girth_cycle:
        return None, None
    return (f"{r.girth - 2}-arc-transitive, girth {r.girth}, but no "
            "consistent girth cycle"), None


def _lem46(r: Record, _forms) -> Verdict:
    if r.has_consistent_girth_cycle:  # the hypothesis fixes girth 6
        return None, None
    return "3-arc-transitive of girth 6 without a consistent 6-cycle", None


def _cor49(r: Record, forms: Dict[str, str]) -> Verdict:
    s = r.profile.max_s
    if s > 4:
        return (f"arc-transitive girth-6 graph is {s}-arc-transitive (> 4)",
                None)
    if not r.profile.s_regular_at_max:
        return ("arc-transitive girth-6 graph is not s-regular at its "
                f"maximal s = {s}"), None
    cost = r.cost
    if s == 2:
        if cost.is_cost and cost.cost <= 3:
            return None, None
        return f"2-arc-regular: cost {cost.cost} not <= 3", None
    if s == 3 and r.g6 not in (forms["desargues"], forms["pappus"]):
        return ("3-arc-regular girth-6 graph is neither the Desargues nor "
                "the Pappus graph"), None
    if s == 4 and r.g6 != forms["heawood"]:
        return "4-arc-regular girth-6 graph is not the Heawood graph", None
    expected = {1: 2, 3: 3, 4: 5}[s]
    if cost.cost != expected:
        return f"{s}-arc-regular: cost {cost.cost} != {expected}", None
    return None, None


def _cost_text(cost) -> str:
    return str(cost.cost) if cost.is_cost else cost.kind


def _cor410(r: Record, _forms) -> Verdict:
    if r.cost.is_cost and r.cost.cost <= 4:
        return None, None
    return f"arc-transitive non-exception with cost {_cost_text(r.cost)} > 4", None


def _thm34(r: Record, _forms) -> Verdict:
    if r.cost.cost != 2:
        return f"{r.name}: distinguishing cost {_cost_text(r.cost)} != 2", None
    if not brbb_unique_path_property(r.graph, r.profile):
        return f"{r.name}: BRBB unique-path property failed", None
    return None, f"{r.name}: cost 2, BRBB uniqueness holds on every matching edge"


def _cor33(r: Record, _forms) -> Verdict:
    order = r.profile.vertex_stabilizer_order
    if order not in (1, 2, 4):
        return f"{r.name}: vertex stabilizer order {order} not in {{1, 2, 4}}", None
    return None, f"{r.name}: |G_v| = {order}"


_NOT_CUBIC_GIRTH_5 = "not a connected cubic girth-5 graph"

CLAIMS: Dict[str, Claim] = {
    "thm41-g4": Claim(
        ("girth=4", "every-edge-in-girth-cycle", "consistent-girth-cycle"),
        _one_of_allowed, allowed=("k33", "cube")),
    "thm41-g5": Claim(
        ("girth=5", "every-edge-in-girth-cycle", "consistent-girth-cycle"),
        _one_of_allowed, allowed=("petersen", "dodecahedron")),
    "thm44-g6": Claim(
        ("girth=6", "every-3-arc-in-6-cycle", "consistent-girth-cycle"),
        _one_of_allowed, allowed=("heawood", "pappus", "desargues")),
    "lem45": Claim(("s-arc-transitive-of-girth-s+2",), _lem45,
                   named=("petersen", "heawood")),
    "lem46": Claim(("girth=6", "s-arc-transitive=3"), _lem46,
                   named=("heawood", "pappus", "desargues")),
    "cor49": Claim(("girth=6", "arc-transitive"), _cor49,
                   named=("desargues", "pappus", "heawood", "gp(8,3)")),
    "cor410": Claim(("arc-transitive",), _cor410,
                    named=("gp(8,3)", "pappus", "dodecahedron", "desargues"),
                    excluded=("k4", "k33", "cube", "petersen", "heawood")),
    "thm34": Claim(
        ("cubic-girth=5", "vertex-transitive", "edge-orbits=2"), _thm34,
        inputs=("truncated_icosahedron",), skip_notes=(_NOT_CUBIC_GIRTH_5,)
        + ("not vertex-transitive with two edge orbits",) * 2),
    "cor33": Claim(
        ("cubic-girth=5", "vertex-transitive"), _cor33,
        excluded=("petersen", "dodecahedron"), inputs=("truncated_icosahedron",),
        skip_notes=(_NOT_CUBIC_GIRTH_5, "not vertex-transitive")),
}

CLAIM_IDS = tuple(sorted(CLAIMS))

# claims that scan catalog graphs instead of the enumerated census
INPUT_CLAIMS = tuple(key for key, claim in CLAIMS.items() if claim.inputs)


def _scan(claim: Claim, report: ClaimReport,
          records: Iterable[Record]) -> ClaimReport:
    """Test hypothesis => conclusion on every record; stop at a failure.
    Then fail if an allowed or named graph of an order in range is no hit,
    or, on the census, which holds every graph of each order in range, if
    an excluded graph of such an order never meets the hypothesis."""
    steps = [_parse_predicate(spec) for spec in claim.hypothesis]
    forms = {name: _catalog_record(name).g6
             for name in claim.allowed + claim.named}
    excluded = {_catalog_record(name).g6 for name in claim.excluded}
    met = set()  # the excluded forms that meet the hypothesis
    for record in records:
        report.graphs_scanned += 1
        failed = _failed_step(record, steps)
        if failed is not None or record.g6 in excluded:
            if failed is None:
                met.add(record.g6)
            if claim.skip_notes:
                why = ("excluded exception" if failed is None
                       else claim.skip_notes[failed])
                report.notes.append(f"{record.name}: skipped, {why}")
            continue
        report.hypothesis_hits.append(record.g6)
        why, note = claim.conclusion(record, forms)
        if why is not None:
            report.fail(record.g6, why)
            return report
        if note is not None:
            report.notes.append(note)
    low, high = report.n_range
    for name, form in forms.items():
        order = _catalog_record(name).graph.n
        if low <= order <= high and form not in report.hypothesis_hits:
            report.fail(form, f"{name}, of order {order} in the scanned range, "
                        "is not a hypothesis hit")
            return report
    if claim.inputs:  # a sample, not every graph of its orders
        return report
    for name in claim.excluded:
        record = _catalog_record(name)
        order = record.graph.n
        if low <= order <= high and record.g6 not in met:
            report.fail(record.g6, f"{name}, of order {order} in the scanned "
                        "range, does not meet the hypothesis; its exclusion is "
                        "stale")
            return report
    return report


def verify_claim(
    claim_id: str,
    n_max: int = 14,
    jobs: int = 1,
    inputs: Optional[Sequence[str]] = None,
) -> ClaimReport:
    """Test one claim on its source: its inputs, or the census to n_max."""
    key = claim_id.strip().lower()
    if key not in CLAIMS:
        raise UnknownClaimError(
            f"unknown claim {claim_id!r}; known: {', '.join(CLAIM_IDS)}"
        )
    claim = CLAIMS[key]
    if inputs and not claim.inputs:
        raise ClaimInputError(f"claim {key} scans the census and takes no "
                              f"inputs; only {', '.join(INPUT_CLAIMS)} do")
    # the census runs to the even part of n_max; checked before any order
    # is generated, and the error names the n_max given
    if not MIN_ORDER <= n_max - n_max % 2 <= MAX_ORDER:
        raise EnumerationRangeError(f"order {n_max} outside the supported "
                                    f"range [{MIN_ORDER}, {MAX_ORDER}]")
    n_max -= n_max % 2
    if claim.inputs:
        # one record per graph: `truncated-icosahedron` is `truncated_icosahedron`
        names = [catalog_build(name).name for name in inputs or claim.inputs]
        records = list(map(_catalog_record, names))
        orders = [record.graph.n for record in records]
        n_range = (min(orders), max(orders))
    else:
        n_range = (4, n_max)
        records = _census(range(4, n_max + 1, 2), jobs)
    report = ClaimReport(key, n_range, 0)
    oversize = [name for name in claim.allowed
                if _catalog_record(name).graph.n > n_range[1]]
    if oversize:
        report.notes.append(
            "allowed graphs beyond the scanned range: " + ", ".join(oversize)
        )
    return _scan(claim, report, records)


def brbb_unique_path_property(
    graph: Graph, profile: Optional[TransitivityProfile] = None
) -> bool:
    """The unique-path mechanics behind the cost-2 witness.

    Edges split into the matching orbit (red) and the cycles orbit
    (black).  For every red edge v1-u1 with black cycles C1 (through
    v1) and C2 (through u1): v1-u1 must be the only edge between C1 and
    C2, and for each choice of black neighbor v2 of v1 and black 2-step
    walk u1-u2-u3, the path v2-v1-u1-u2-u3 must be the unique
    black-red-black-black path of length 4 between v2 and u3, where
    inside a path "black" means "not red".  ``profile`` is the graph's
    transitivity profile, computed here when not given.
    """
    profile = profile or transitivity_profile(graph)
    red = profile.orbit_with_tag("perfect-matching")
    black = profile.orbit_with_tag("disjoint-cycles")
    if red is None or black is None:
        return False
    cycle_of = edge_components(graph.n, black)  # each vertex's black cycle
    if -1 in cycle_of:  # the black cycles must cover every vertex
        return False
    mate = {a: b for u, w in red for a, b in ((u, w), (w, u))}  # red neighbor
    incident: Dict[int, List[int]] = {}
    for u, w in black:
        incident.setdefault(u, []).append(w)
        incident.setdefault(w, []).append(u)
    # a red edge inside one cycle meets that cycle's black edges here too
    between = Counter(tuple(sorted((cycle_of[a], cycle_of[b])))
                      for a, b in graph.edges())
    for v1, u1 in red:
        if between[tuple(sorted((cycle_of[v1], cycle_of[u1])))] != 1:
            return False
        for v2 in incident[v1]:
            for u2 in incident[u1]:
                for u3 in incident[u2]:
                    if u3 == u1:
                        continue
                    # v2-v1-u1-u2-u3 is one such path v2-a-mate[a]-c-u3, so
                    # it must be the only one; v2 on C1 is neither u3 nor
                    # adjacent to it, so a, c != u3 and c != v2 always hold
                    count = sum(
                        graph.has_edge(c, u3) and u3 not in (mate[a], mate[c])
                        for a in graph.adj[v2] if a != mate[v2]
                        for c in graph.adj[mate[a]] if c != a
                    )
                    if count != 1:
                        return False
    return True

"""Mechanical verification of the classification and cost statements over
the enumerated census.

Each claim is one row of the table ``CLAIMS``: ordered hypothesis steps,
the catalog graphs it allows, names or excludes, and one conclusion.
A single scan tests hypothesis => conclusion for every graph in range
(the census, or supplied inputs for ``INPUT_CLAIMS``) and reports Pass
or a reproducible graph6 counterexample.

Hypothesis steps are keys of the predicate registry ``PREDICATES``,
which ``filtered_enumeration`` (``cubicsym enumerate --predicate``)
shares.  Predicates test a ``Record``: one graph whose canonical form,
girth, transitivity profile and distinguishing cost are each computed
at most once, on demand, by the exact library operations, so a failure
is attributable to a single tested primitive.  Census strings are
canonical graph6 already, so a census record never searches for its
form.

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
* thm34      supplied girth-5 vertex-transitive two-orbit graphs have
             cost exactly 2 (default input: the truncated icosahedron)
* cor33      supplied girth-5 vertex-transitive graphs other than the
             Petersen graph and the dodecahedron have vertex-stabilizer
             order in {1, 2, 4}
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple)

from .autgrp import automorphism_group, canonical_form
from .catalog import catalog_graph
from .distinguishing import distinguishing_cost
from .enumeration import _check_order, enumerate_cubic_graph6
from .graph import (Graph, edge_components, every_3_arc_in_cycle,
                    every_edge_in_cycle, girth)
from .graph6 import decode_graph6
from .perm import stabilizer
from .symmetry import (
    consistent_cycles,
    consistent_girth_cycles,
    edge_orbit_summary,
    transitivity_profile,
)


class UnknownClaimError(ValueError):
    pass


@dataclass
class ClaimReport:
    claim_id: str
    n_range: Tuple[int, int]
    graphs_scanned: int
    hypothesis_hits: List[str] = field(default_factory=list)  # canonical graph6
    verdict: str = "Pass"  # "Pass" | "Fail"
    counterexample: Optional[str] = None
    notes: List[str] = field(default_factory=list)

    def fail(self, graph: Graph, why: str) -> None:
        self.verdict = "Fail"
        self.counterexample = canonical_form(graph).decode("ascii")
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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

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


class Record:
    """One graph under test: a census graph6 string or a named input.

    Every invariant is computed on first use and kept; the library
    functions are looked up in this module's namespace at call time.
    """

    def __init__(self, graph: Optional[Graph] = None, g6: Optional[str] = None,
                 name: Optional[str] = None):
        if graph is not None:
            self.graph = graph
        self.g6 = g6
        self.name = name

    @cached_property
    def graph(self) -> Graph:
        return decode_graph6(self.g6)

    @cached_property
    def form(self) -> bytes:
        # census strings are canonical forms already
        if self.g6 is not None:
            return self.g6.encode("ascii")
        return canonical_form(self.graph)

    @cached_property
    def girth(self) -> Optional[int]:
        return girth(self.graph).length

    @cached_property
    def profile(self):
        return transitivity_profile(self.graph)

    @cached_property
    def cost(self):
        return distinguishing_cost(self.graph)


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
        r.girth is not None and every_edge_in_cycle(r.graph, r.girth))),
    "every-3-arc-in-6-cycle": Predicate(
        2, "", lambda r, _: every_3_arc_in_cycle(r.graph, 6)),
    "consistent-girth-cycle": Predicate(
        3, "", lambda r, _: len(consistent_girth_cycles(r.graph)) > 0),
    "vertex-transitive": Predicate(4, "", lambda r, _: r.profile.vertex_transitive),
    "arc-transitive": Predicate(4, "", lambda r, _: r.profile.arc_transitive),
    "edge-orbits": Predicate(4, "T", lambda r, v: r.profile.edge_orbit_count == v),
    "s-arc-transitive": Predicate(4, "S", lambda r, v: r.profile.max_s >= v),
    "s-arc-transitive-of-girth-s+2": Predicate(4, "", lambda r, _: (
        r.girth is not None and r.girth >= 5 and r.profile.max_s >= r.girth - 2)),
}


def _parse_predicate(spec) -> Tuple[str, Optional[int]]:
    if isinstance(spec, tuple):
        name, value = spec
        name, value = str(name), int(value)
    elif "=" in str(spec):
        name, text = str(spec).split("=", 1)
        name, value = name.strip(), int(text)
    else:
        name, value = str(spec).strip(), None
    if name not in PREDICATES:
        raise ValueError(f"unknown predicate {name!r}")
    metavar = PREDICATES[name].metavar
    if metavar and value is None:
        raise ValueError(f"predicate {name!r} needs a value: {name}={metavar}")
    if not metavar and value is not None:
        raise ValueError(f"predicate {name!r} takes no value")
    return name, value


def _failed_step(record: Record, steps) -> Optional[int]:
    """Index of the first step the record fails, None if it passes all."""
    for i, (name, value) in enumerate(steps):
        if not PREDICATES[name].test(record, value):
            return i
    return None


def filtered_enumeration(
    n: int, predicates: Sequence, jobs: int = 1
) -> Iterator[Graph]:
    """Stream of census graphs passing every predicate, cheap tests first.

    Predicates are keys of ``PREDICATES``, with "=value" where the entry
    has a metavar ("girth=6", "vertex-transitive", "edge-orbits=2"), or
    (name, value) tuples.
    """
    steps = sorted(map(_parse_predicate, predicates),
                   key=lambda step: PREDICATES[step[0]].rank)
    for g6 in enumerate_cubic_graph6(n, jobs):
        record = Record(g6=g6)
        if _failed_step(record, steps) is None:
            yield record.graph


# ---------------------------------------------------------------------------
# the claim table

Verdict = Tuple[Optional[str], Optional[str]]  # (failure reason, note)


@dataclass(frozen=True)
class Claim:
    hypothesis: Tuple[str, ...]  # registry specs, tested in this order
    # (record, forms of the allowed and named graphs) -> (failure, note)
    conclusion: Callable[[Record, Dict[str, bytes]], Verdict]
    allowed: Tuple[str, ...] = ()  # catalog graphs a hit must be one of
    named: Tuple[str, ...] = ()  # further catalog graphs the conclusion names
    excluded: Tuple[str, ...] = ()  # catalog graphs left out of the hypothesis
    # for claims over supplied inputs: the note printed for an input that
    # fails the step at the same index
    skip_notes: Tuple[str, ...] = ()


def _one_of_allowed(r: Record, forms: Dict[str, bytes]) -> Verdict:
    if r.form in forms.values():
        return None, None
    return f"hypothesis hit is not one of {sorted(forms)}", None


def _lem45(r: Record, _forms) -> Verdict:
    if consistent_girth_cycles(r.graph):
        return None, None
    return (f"{r.girth - 2}-arc-transitive, girth {r.girth}, but no "
            "consistent girth cycle"), None


def _lem46(r: Record, _forms) -> Verdict:
    if consistent_cycles(r.graph, 6):
        return None, None
    return "3-arc-transitive of girth 6 without a consistent 6-cycle", None


def _cor49(r: Record, forms: Dict[str, bytes]) -> Verdict:
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
    if s == 3 and r.form not in (forms["desargues"], forms["pappus"]):
        return ("3-arc-regular girth-6 graph is neither the Desargues nor "
                "the Pappus graph"), None
    if s == 4 and r.form != forms["heawood"]:
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
    if not brbb_unique_path_property(r.graph):
        return f"{r.name}: BRBB unique-path property failed", None
    return None, f"{r.name}: cost 2, BRBB uniqueness holds on every matching edge"


def _cor33(r: Record, _forms) -> Verdict:
    order = stabilizer(automorphism_group(r.graph), [0]).order
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
    "lem45": Claim(("s-arc-transitive-of-girth-s+2",), _lem45),
    "lem46": Claim(("girth=6", "s-arc-transitive=3"), _lem46),
    "cor49": Claim(("girth=6", "arc-transitive"), _cor49,
                   named=("desargues", "pappus", "heawood")),
    "cor410": Claim(("arc-transitive",), _cor410,
                    excluded=("k4", "k33", "cube", "petersen", "heawood")),
    "thm34": Claim(
        ("cubic-girth=5", "vertex-transitive", "edge-orbits=2"), _thm34,
        skip_notes=(_NOT_CUBIC_GIRTH_5,)
        + ("not vertex-transitive with two edge orbits",) * 2),
    "cor33": Claim(
        ("cubic-girth=5", "vertex-transitive"), _cor33,
        excluded=("petersen", "dodecahedron"),
        skip_notes=(_NOT_CUBIC_GIRTH_5, "not vertex-transitive")),
}

CLAIM_IDS = tuple(sorted(CLAIMS))

# claims that scan supplied inputs instead of the enumerated census
INPUT_CLAIMS = tuple(key for key, claim in CLAIMS.items() if claim.skip_notes)


def _scan(claim: Claim, report: ClaimReport,
          records: Iterable[Record]) -> ClaimReport:
    """Test hypothesis => conclusion on every record; stop at a failure."""
    steps = [_parse_predicate(spec) for spec in claim.hypothesis]
    forms = {name: canonical_form(catalog_graph(name))
             for name in claim.allowed + claim.named}
    excluded = {canonical_form(catalog_graph(name)) for name in claim.excluded}
    for record in records:
        report.graphs_scanned += 1
        failed = _failed_step(record, steps)
        if failed is not None or record.form in excluded:
            if claim.skip_notes:
                why = ("excluded exception" if failed is None
                       else claim.skip_notes[failed])
                report.notes.append(f"{record.name}: skipped, {why}")
            continue
        report.hypothesis_hits.append(record.form.decode("ascii"))
        why, note = claim.conclusion(record, forms)
        if why is not None:
            report.fail(record.graph, why)
            return report
        if note is not None:
            report.notes.append(note)
    return report


def verify_claim(
    claim_id: str,
    n_max: int = 14,
    jobs: int = 1,
    inputs: Optional[Sequence[Tuple[str, Graph]]] = None,
) -> ClaimReport:
    """Scan the census (or the supplied inputs) and test one claim."""
    key = claim_id.strip().lower()
    if key not in CLAIMS:
        raise UnknownClaimError(
            f"unknown claim {claim_id!r}; known: {', '.join(CLAIM_IDS)}"
        )
    claim = CLAIMS[key]
    if key in INPUT_CLAIMS:
        pairs = inputs or [("truncated_icosahedron",
                            catalog_graph("truncated_icosahedron"))]
        orders = [g.n for _, g in pairs]
        report = ClaimReport(key, (min(orders), max(orders)), 0)
        return _scan(claim, report, (Record(g, name=name) for name, g in pairs))
    n_max -= n_max % 2
    _check_order(n_max)  # before any order is generated
    report = ClaimReport(key, (4, n_max), 0)
    oversize = [name for name in claim.allowed if catalog_graph(name).n > n_max]
    if oversize:
        report.notes.append(
            "allowed graphs beyond the scanned range: " + ", ".join(oversize)
        )
    census = (Record(g6=g6) for n in range(4, n_max + 1, 2)
              for g6 in enumerate_cubic_graph6(n, jobs))
    return _scan(claim, report, census)


def brbb_unique_path_property(graph: Graph) -> bool:
    """The unique-path mechanics behind the cost-2 witness.

    Edges split into the matching orbit (red) and the cycles orbit
    (black).  For every red edge v1-u1 with black 5-cycles C1 (through
    v1) and C2 (through u1): v1-u1 must be the only edge between C1 and
    C2, and for each choice of black neighbor v2 of v1 and black 2-step
    walk u1-u2-u3, the path v2-v1-u1-u2-u3 must be the unique
    black-red-black-black path of length 4 between v2 and u3.
    """
    summary = edge_orbit_summary(graph)
    red = summary.orbit_with_tag("perfect-matching")
    black_orbit = summary.orbit_with_tag("disjoint-cycles")
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
                    expected = (v2, v1, u1, u2, u3)
                    count = _count_brbb_paths(
                        graph, v2, u3, edge_color_is_red
                    )
                    if count != 1:
                        return False
                    if not _is_brbb_path(graph, expected, edge_color_is_red):
                        return False
    return True


def _is_brbb_path(graph: Graph, path, is_red) -> bool:
    if len(set(path)) != 5:
        return False
    pattern = (False, True, False, False)  # black, red, black, black
    for i in range(4):
        if not graph.has_edge(path[i], path[i + 1]):
            return False
        if is_red(path[i], path[i + 1]) != pattern[i]:
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

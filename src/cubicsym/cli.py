"""Command-line front end: analyze, catalog, truncate, quotient,
enumerate, cost, verify.

Exit codes: 0 pass/ok, 1 claim failed, 2 usage error, 3 input parse
error, 4 resource limit (group cap, cost-search budget, search
depth), 5 internal error (any other exception, reported on one
line).
Reports add nothing to the library results; identical inputs produce
byte-identical JSON across runs and worker counts.  All
randomness (seeded labelings) flows from an explicit --seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from .autgrp import automorphism_group, canonical_form, reduced_generators
from .catalog import CatalogEntry, CatalogError, catalog_build, catalog_names, cycle_graph
from .claims import (
    CLAIM_IDS,
    INPUT_CLAIMS,
    PREDICATES,
    ClaimInputError,
    UnknownClaimError,
    filtered_enumeration,
    verify_claim,
)
from .distinguishing import (
    SearchBudgetExceeded,
    distinguishing_cost,
    distinguishing_number,
)
from .enumeration import EnumerationRangeError
from .graph import Graph, girth
from .graph6 import Graph6Error, decode_graph6, encode_graph6, format_edge_list, parse_edge_list
from .perm import GroupTooLargeError, cycle_notation
from .symmetry import consistent_cycles, transitivity_profile
from .truncation import (
    classic_truncation,
    cycle_quotient,
    generalized_truncation,
    require_regular,
    seeded_orders,
)

SCHEMA_VERSION = "cubicsym/report-v2"

EXIT_OK = 0
EXIT_CLAIM_FAILED = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_RESOURCE = 4
EXIT_INTERNAL = 5


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load_entry(args) -> CatalogEntry:
    """The one input graph; only a --catalog entry can carry a rotation."""
    sources = [s for s in ("input", "graph6", "catalog")
               if getattr(args, s, None) is not None]
    if len(sources) != 1:
        raise _CliError(
            "exactly one of --input, --graph6, --catalog is required", EXIT_USAGE
        )
    if args.catalog is not None:
        try:
            return catalog_build(args.catalog)
        except CatalogError as exc:
            raise _CliError(str(exc), EXIT_USAGE) from exc
    if args.graph6 is not None:
        try:
            return CatalogEntry("graph6", decode_graph6(args.graph6))
        except Graph6Error as exc:
            raise _CliError(str(exc), EXIT_PARSE) from exc
    try:
        with open(args.input, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        raise _CliError(f"cannot read {args.input}: {exc}", EXIT_USAGE) from exc
    except UnicodeDecodeError as exc:
        raise _CliError(f"parse failure: non-ASCII byte (byte offset {exc.start})",
                        EXIT_PARSE) from exc
    try:
        if args.format == "edgelist":
            return CatalogEntry(args.input, parse_edge_list(text))
        return CatalogEntry(args.input, decode_graph6(
            text.strip().splitlines()[0] if text.strip() else ""))
    except (Graph6Error, ValueError) as exc:
        raise _CliError(f"parse failure: {exc}", EXIT_PARSE) from exc


def _emit_graph(graph: Graph, fmt: str) -> str:
    if fmt == "edgelist":
        return format_edge_list(graph)
    return encode_graph6(graph) + "\n"


# ---------------------------------------------------------------------------
# analyze

def _analysis_report(graph: Graph) -> dict:
    report: dict = {
        "schema": SCHEMA_VERSION,
        "graph6": encode_graph6(graph),
        "canonical_graph6": canonical_form(graph).decode("ascii"),
        "order": graph.n,
        "size": graph.m,
        "connected": graph.is_connected(),
        "cubic": graph.is_cubic(),
    }
    report["girth"] = girth(graph)  # null for a forest
    group = automorphism_group(graph)
    report["aut_order"] = len(group)
    report["aut_generators"] = [cycle_notation(p)
                                for p in reduced_generators(group)]
    if report["connected"] and graph.n > 0:
        profile = transitivity_profile(graph)
        report["vertex_transitive"] = profile.vertex_transitive
        report["edge_transitive"] = profile.edge_transitive
        report["arc_transitive"] = profile.arc_transitive
        report["max_s"] = profile.max_s
        report["s_regular_at_max"] = profile.s_regular_at_max
        report["edge_orbit_count"] = profile.edge_orbit_count
        report["vertex_stabilizer_order"] = profile.vertex_stabilizer_order
        report["stabilizer_class"] = profile.stabilizer_class
        report["edge_orbits"] = [
            {"size": len(orb), "structure": tag.kind, "profile": list(tag.profile)}
            for orb, tag in zip(profile.edge_orbits, profile.edge_orbit_tags)
        ]
        if profile.findings:
            report["findings"] = list(profile.findings)
        report["consistent_girth_cycles"] = (
            0 if report["girth"] is None
            else len(consistent_cycles(graph, report["girth"])))
    else:
        report["note"] = "symmetry profile requires a connected graph"
    cost = distinguishing_cost(graph)
    report["distinguishing_number"] = distinguishing_number(graph, cost)
    report["distinguishing_cost"] = {
        "kind": cost.kind,
        "cost": cost.cost,
        "witness": list(cost.witness),
    }
    return report


def _format_text_report(report: dict) -> str:
    lines = [f"graph6: {report['graph6']}"]
    lines.append(f"canonical: {report['canonical_graph6']}")
    lines.append(
        f"order {report['order']}, size {report['size']}, "
        f"girth {report['girth'] if report['girth'] is not None else 'acyclic'}"
    )
    lines.append(f"automorphism group order: {report['aut_order']}")
    if "vertex_transitive" in report:
        lines.append(
            f"vertex-transitive: {report['vertex_transitive']}, "
            f"edge-transitive: {report['edge_transitive']}, "
            f"arc-transitive: {report['arc_transitive']} (max s = {report['max_s']}, "
            f"s-regular: {report['s_regular_at_max']})"
        )
        lines.append(
            f"stabilizer: order {report['vertex_stabilizer_order']} "
            f"({report['stabilizer_class']}); edge orbits: "
            f"{report['edge_orbit_count']}"
        )
        for orb in report["edge_orbits"]:
            prof = f" {orb['profile']}" if orb["profile"] else ""
            lines.append(f"  orbit of {orb['size']} edges: {orb['structure']}{prof}")
        lines.append(
            f"consistent girth cycles: {report['consistent_girth_cycles']}"
        )
    number = report["distinguishing_number"]  # null: more than 2
    lines.append(
        f"distinguishing number: {'more than 2' if number is None else number}")
    cost = report["distinguishing_cost"]
    if cost["kind"] == "cost":
        lines.append(
            f"distinguishing cost: {cost['cost']} witness {cost['witness']}"
        )
    else:
        lines.append(f"distinguishing cost: {cost['kind']}")
    return "\n".join(lines) + "\n"


def _cmd_analyze(args) -> int:
    graph = _load_entry(args).graph
    report = _analysis_report(graph)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        sys.stdout.write(_format_text_report(report))
    return EXIT_OK


# ---------------------------------------------------------------------------
# catalog

def _cmd_catalog(args) -> int:
    if args.action == "list":
        if args.name is not None:
            raise _CliError("`catalog list` takes no name", EXIT_USAGE)
        print(f"{'name':24s} {'order':>5s} {'size':>5s} girth")
        for name in catalog_names():
            if name.endswith("(...)"):
                print(f"{name:24s} {'-':>5s} {'-':>5s} parametric")
                continue
            g = catalog_build(name).graph
            length = girth(g)
            gtext = "acyclic" if length is None else str(length)
            print(f"{name:24s} {g.n:5d} {g.m:5d} {gtext}")
        return EXIT_OK
    if args.name is None:
        raise _CliError("`catalog get` needs a catalog name", EXIT_USAGE)
    try:
        entry = catalog_build(args.name)
    except CatalogError as exc:
        raise _CliError(str(exc), EXIT_USAGE) from exc
    sys.stdout.write(_emit_graph(entry.graph, args.format))
    return EXIT_OK


# ---------------------------------------------------------------------------
# truncate / quotient

def _cmd_truncate(args) -> int:
    entry = _load_entry(args)
    if args.labeling == "rotation":
        if entry.rotation is None:
            raise _CliError(
                "--labeling rotation needs a catalog entry with a rotation "
                "system (icosahedron)",
                EXIT_USAGE,
            )
        orders = entry.rotation
    elif args.labeling == "seeded":
        orders = seeded_orders(entry.graph, args.seed)
    else:
        orders = entry.graph.adj
    try:
        if args.classic:
            result = classic_truncation(entry.graph, orders)
        elif args.y_graph6:
            y = decode_graph6(args.y_graph6)
            result = generalized_truncation(entry.graph, orders, y)
        else:
            if args.y_cycle >= 3:  # fail before the K-cycle's K rows of K bits
                require_regular(entry.graph, args.y_cycle)
            y = cycle_graph(args.y_cycle)
            result = generalized_truncation(entry.graph, orders, y)
    except Graph6Error as exc:  # --y-graph6
        raise _CliError(str(exc), EXIT_PARSE) from exc
    except ValueError as exc:
        raise _CliError(str(exc), EXIT_USAGE) from exc
    sys.stdout.write(_emit_graph(result, args.format))
    return EXIT_OK


def _cmd_quotient(args) -> int:
    graph = _load_entry(args).graph
    try:  # a disconnected graph has no symmetry profile
        orbit = transitivity_profile(graph).orbit_with_tag("disjoint-cycles")
        if orbit is None:
            raise ValueError("no disjoint-cycles edge orbit to contract")
        result = cycle_quotient(graph, orbit)
    except ValueError as exc:
        raise _CliError(str(exc), EXIT_USAGE) from exc
    sys.stdout.write(_emit_graph(result, args.format))
    return EXIT_OK


# ---------------------------------------------------------------------------
# enumerate / cost / verify

def _cmd_enumerate(args) -> int:
    try:
        for g6 in filtered_enumeration(args.n, args.predicate or [], args.jobs):
            print(g6)
    except (EnumerationRangeError, ValueError) as exc:
        raise _CliError(str(exc), EXIT_USAGE) from exc
    return EXIT_OK


def _cmd_cost(args) -> int:
    graph = _load_entry(args).graph
    cost = distinguishing_cost(graph, budget=args.budget)
    payload = {
        "schema": SCHEMA_VERSION,
        "graph6": encode_graph6(graph),
        "kind": cost.kind,
        "cost": cost.cost,
        "witness": list(cost.witness),
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif cost.is_cost:
        print(f"distinguishing cost {cost.cost}, witness {list(cost.witness)}")
    else:
        print(cost.kind)
    return EXIT_OK


def _cmd_verify(args) -> int:
    every = args.claim.strip().lower() == "all"
    if every and args.catalog_input:
        raise _CliError("`verify all` takes no --catalog-input; only "
                        f"{', '.join(INPUT_CLAIMS)} do", EXIT_USAGE)
    # one claim after another in this process, so each census scan after
    # the first reads the census facts the earlier ones computed
    try:
        reports = [verify_claim(claim, n_max=args.max_n, jobs=args.jobs,
                                inputs=args.catalog_input)
                   for claim in (CLAIM_IDS if every else (args.claim,))]
    except (UnknownClaimError, ClaimInputError, EnumerationRangeError,
            CatalogError) as exc:
        raise _CliError(str(exc), EXIT_USAGE) from exc
    if args.json:
        payloads = [dict(report.to_dict(), schema=SCHEMA_VERSION)
                    for report in reports]
        print(json.dumps(payloads if every else payloads[0], indent=2,
                         sort_keys=True))
    else:
        print("\n\n".join(report.summary() for report in reports))
    passed = all(report.verdict == "Pass" for report in reports)
    return EXIT_OK if passed else EXIT_CLAIM_FAILED


# ---------------------------------------------------------------------------

def _add_input_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="read the graph from a file")
    p.add_argument("--graph6", help="graph6 string")
    p.add_argument("--catalog", help="catalog name (see `catalog list`)")
    p.add_argument(
        "--format",
        choices=("graph6", "edgelist"),
        default="graph6",
        help="file/output format (default graph6)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one `cubicsym` parser of this process, built on the first call.

    Reuse is safe because a parse keeps its state in the returned
    `Namespace`: the `append` options default to None, and the help width
    is read when help is formatted, not here.  Callers must not mutate the
    returned parser.  Each subcommand's handler is bound here, so a patch
    of a `_cmd_*` function made after the first call is not seen; the
    handlers look up everything else they call at call time.
    """
    parser = argparse.ArgumentParser(
        prog="cubicsym",
        description="Symmetry invariants of finite cubic graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full symmetry report for one graph")
    _add_input_options(p)
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("catalog", help="list or print named graphs")
    p.add_argument("action", choices=("list", "get"))
    p.add_argument("name", nargs="?", help="catalog name for `get`")
    p.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("truncate", help="generalized truncation")
    _add_input_options(p)
    p.add_argument("--classic", action="store_true",
                   help="truncate a cubic graph by a triangle")
    p.add_argument("--y-cycle", type=int, default=5, metavar="K",
                   help="use the K-cycle as Y (default 5)")
    p.add_argument("--y-graph6", help="use this graph6 string as Y")
    p.add_argument("--labeling", choices=("adjacency", "rotation", "seeded"),
                   default="adjacency")
    p.add_argument("--seed", type=int, default=0, help="seed for --labeling seeded")
    p.set_defaults(func=_cmd_truncate)

    p = sub.add_parser("quotient", help="contract the disjoint-cycles edge orbit")
    _add_input_options(p)
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser("enumerate", help="stream connected cubic graphs")
    p.add_argument("n", type=int)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--predicate", action="append", metavar="PRED",
                   help="filter (repeatable), one of: " + ", ".join(
                       f"{name}={pred.metavar}" if pred.metavar else name
                       for name, pred in PREDICATES.items()))
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("cost", help="exact distinguishing cost")
    _add_input_options(p)
    p.add_argument("--budget", type=int, help="candidate-set budget")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("verify", help="verify a classification claim")
    p.add_argument("claim", help=f"one of: {', '.join(CLAIM_IDS)}, or all")
    p.add_argument("--max-n", type=int, default=14,
                   help="largest census order scanned (default 14); its "
                        "even part must lie in [4, 20] for every claim, "
                        "but it bounds only the census scans, not the "
                        f"inputs of {', '.join(INPUT_CLAIMS)}")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--catalog-input", action="append", metavar="NAME",
                   help="verify on catalog graphs in place of the claim's "
                        f"inputs ({', '.join(INPUT_CLAIMS)})")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise _CliError(f"--jobs must be at least 1, got {args.jobs}", EXIT_USAGE)
        budget = getattr(args, "budget", None)
        if budget is not None and budget < 0:
            raise _CliError(f"--budget must be at least 0, got {budget}", EXIT_USAGE)
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    # RecursionError: a search as deep as a large input's order
    except (GroupTooLargeError, SearchBudgetExceeded, RecursionError) as exc:
        print(f"error: resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except BrokenPipeError:
        return EXIT_OK
    except Exception as exc:  # exit 1 must mean only "claim failed"
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

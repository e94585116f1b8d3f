"""Command-line front end: analyze, catalog, truncate, quotient,
enumerate, cost, verify.

Exit codes: 0 pass/ok, 1 claim failed, 2 usage error, 3 input parse
error.  Reports add nothing to the library results; identical inputs
produce byte-identical JSON across runs and worker counts.  All
randomness (seeded labelings) flows from an explicit --seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .autgrp import automorphism_group, canonical_form
from .catalog import CatalogError, catalog_build, catalog_names
from .claims import (
    CLAIM_IDS,
    PREDICATES,
    UnknownClaimError,
    filtered_enumeration,
    verify_claim,
)
from .distinguishing import SearchBudgetExceeded, distinguishing_cost, distinguishing_number
from .enumeration import EnumerationRangeError, enumerate_cubic_graph6
from .graph import Graph, girth
from .graph6 import Graph6Error, decode_graph6, encode_graph6, format_edge_list, parse_edge_list
from .symmetry import (
    consistent_girth_cycles,
    edge_orbit_summary,
    stabilizer_class,
    transitivity_profile,
)
from .truncation import (
    LabelingStrategy,
    classic_truncation,
    cycle_quotient,
    generalized_truncation,
    neighborhood_labeling,
)

SCHEMA_VERSION = "cubicsym/report-v1"

EXIT_OK = 0
EXIT_CLAIM_FAILED = 1
EXIT_USAGE = 2
EXIT_PARSE = 3


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load_graph(args) -> Graph:
    sources = [
        s for s in ("input", "graph6", "catalog") if getattr(args, s, None)
    ]
    if len(sources) != 1:
        raise _CliError(
            "exactly one of --input, --graph6, --catalog is required", EXIT_USAGE
        )
    if args.catalog:
        try:
            return catalog_build(args.catalog).graph
        except CatalogError as exc:
            raise _CliError(str(exc), EXIT_USAGE) from exc
    if args.graph6:
        try:
            return decode_graph6(args.graph6)
        except Graph6Error as exc:
            raise _CliError(str(exc), EXIT_PARSE) from exc
    try:
        with open(args.input, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        raise _CliError(f"cannot read {args.input}: {exc}", EXIT_USAGE) from exc
    fmt = getattr(args, "format", "graph6") or "graph6"
    try:
        if fmt == "graph6":
            return decode_graph6(text.strip().splitlines()[0] if text.strip() else "")
        if fmt == "edgelist":
            return parse_edge_list(text)
    except (Graph6Error, ValueError) as exc:
        raise _CliError(f"parse failure: {exc}", EXIT_PARSE) from exc
    raise _CliError(f"unknown format {fmt!r}", EXIT_USAGE)


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
    res = girth(graph)
    report["girth"] = res.length  # null for a forest
    group = automorphism_group(graph)
    report["aut_order"] = group.order
    report["aut_generators"] = [p.cycle_notation() for p in group.generators]
    if graph.is_connected() and graph.n > 0:
        profile = transitivity_profile(graph)
        report["vertex_transitive"] = profile.vertex_transitive
        report["edge_transitive"] = profile.edge_transitive
        report["arc_transitive"] = profile.arc_transitive
        report["max_s"] = profile.max_s
        report["s_regular_at_max"] = profile.s_regular_at_max
        report["edge_orbit_count"] = profile.edge_orbit_count
        sc = stabilizer_class(graph)
        report["vertex_stabilizer_order"] = sc.vertex_stabilizer_order
        report["stabilizer_class"] = sc.kind
        summary = edge_orbit_summary(graph)
        report["edge_orbits"] = [
            {"size": len(orb), "structure": tag.kind, "profile": list(tag.profile)}
            for orb, tag in zip(summary.orbits, summary.tags)
        ]
        if summary.findings:
            report["findings"] = list(summary.findings)
        report["consistent_girth_cycles"] = (
            0 if res.acyclic else len(consistent_girth_cycles(graph))
        )
    else:
        report["note"] = "symmetry profile requires a connected graph"
    cost = distinguishing_cost(graph)
    number = {"asymmetric": 1, "cost": 2}.get(cost.kind)
    report["distinguishing_number"] = number or distinguishing_number(graph)
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
    lines.append(f"distinguishing number: {report['distinguishing_number']}")
    cost = report["distinguishing_cost"]
    if cost["kind"] == "cost":
        lines.append(
            f"distinguishing cost: {cost['cost']} witness {cost['witness']}"
        )
    else:
        lines.append(f"distinguishing cost: {cost['kind']}")
    return "\n".join(lines) + "\n"


def _cmd_analyze(args) -> int:
    graph = _load_graph(args)
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
        print(f"{'name':24s} {'order':>5s} {'size':>5s} girth")
        for name in catalog_names():
            if name.endswith("(...)"):
                print(f"{name:24s} {'-':>5s} {'-':>5s} parametric")
                continue
            g = catalog_build(name).graph
            res = girth(g)
            gtext = str(res.length) if res.length is not None else "acyclic"
            print(f"{name:24s} {g.n:5d} {g.m:5d} {gtext}")
        return EXIT_OK
    entry = catalog_build(args.name)
    sys.stdout.write(_emit_graph(entry.graph, args.format))
    return EXIT_OK


# ---------------------------------------------------------------------------
# truncate / quotient

def _cmd_truncate(args) -> int:
    graph = _load_graph(args)
    entry = None
    if args.catalog:
        entry = catalog_build(args.catalog)
    if args.labeling == "rotation":
        if entry is None or entry.rotation is None:
            raise _CliError(
                "--labeling rotation needs a catalog entry with a rotation "
                "system (icosahedron)",
                EXIT_USAGE,
            )
        strategy = LabelingStrategy.from_rotation(entry.rotation)
    elif args.labeling == "seeded":
        strategy = LabelingStrategy.seeded(args.seed)
    else:
        strategy = LabelingStrategy.ADJACENCY
    try:
        if args.classic:
            labeling = neighborhood_labeling(graph, strategy)
            result = classic_truncation(graph, labeling)
        else:
            from .catalog import cycle_graph

            y = (
                decode_graph6(args.y_graph6)
                if args.y_graph6
                else cycle_graph(args.y_cycle)
            )
            labeling = neighborhood_labeling(graph, strategy)
            result = generalized_truncation(graph, labeling, y)
    except (ValueError, Graph6Error) as exc:
        raise _CliError(str(exc), EXIT_USAGE) from exc
    sys.stdout.write(_emit_graph(result, args.format))
    return EXIT_OK


def _cmd_quotient(args) -> int:
    graph = _load_graph(args)
    summary = edge_orbit_summary(graph)
    orbit = summary.orbit_with_tag("disjoint-cycles")
    if orbit is None:
        raise _CliError("no disjoint-cycles edge orbit to contract", EXIT_USAGE)
    try:
        result = cycle_quotient(graph, orbit)
    except ValueError as exc:
        raise _CliError(str(exc), EXIT_USAGE) from exc
    sys.stdout.write(_emit_graph(result, args.format))
    return EXIT_OK


# ---------------------------------------------------------------------------
# enumerate / cost / verify

def _cmd_enumerate(args) -> int:
    try:
        preds = args.predicate or []
        if preds:
            for g in filtered_enumeration(args.n, preds, jobs=args.jobs):
                print(encode_graph6(g))
        else:
            for g6 in enumerate_cubic_graph6(args.n, jobs=args.jobs):
                print(g6)
    except (EnumerationRangeError, ValueError) as exc:
        raise _CliError(str(exc), EXIT_USAGE) from exc
    return EXIT_OK


def _cmd_cost(args) -> int:
    graph = _load_graph(args)
    try:
        cost = distinguishing_cost(graph, budget=args.budget)
    except SearchBudgetExceeded as exc:
        raise _CliError(str(exc), EXIT_USAGE) from exc
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
    inputs = None
    if args.catalog_input:
        try:
            entries = [catalog_build(name) for name in args.catalog_input]
        except CatalogError as exc:
            raise _CliError(str(exc), EXIT_USAGE) from exc
        inputs = [(e.name, e.graph) for e in entries]
    try:
        report = verify_claim(args.claim, n_max=args.max_n, jobs=args.jobs,
                              inputs=inputs)
    except (UnknownClaimError, EnumerationRangeError) as exc:
        raise _CliError(str(exc), EXIT_USAGE) from exc
    if args.json:
        payload = dict(report.to_dict())
        payload["schema"] = SCHEMA_VERSION
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(report.summary())
    return EXIT_OK if report.verdict == "Pass" else EXIT_CLAIM_FAILED


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


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("claim", help=f"one of: {', '.join(CLAIM_IDS)}")
    p.add_argument("--max-n", type=int, default=14)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--catalog-input", action="append", metavar="NAME",
                   help="verify on catalog graphs instead of the census "
                        "(thm34/cor33)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end benchmark of cubicsym: the census, the claims and `analyze`.

    python3 perfbench/run.py --workload census --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; the program is imported from ./src.  A
run imports the package and sets up (several times, in forked
processes, for the set-up time), then repeats whole rounds of the
workload's operations until --seconds have passed.  Each round runs in a
process forked from the set-up process, so every round starts with the
caches a user's fresh `cubicsym` process would have.  After the rounds
every output is checked against the independent oracles in oracles.py.
The last line of standard output is one JSON object: correct, attempted,
failed, and the end-to-end metrics (--trace 0) or the per-layer metrics
of the traced run (--trace 1).  See README.md for the workloads and what
each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional

import oracles
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"
PACKAGE = "cubicsym"

CENSUS_ORDERS = (4, 6, 8, 10, 12, 14)
CLAIMS_MAX_N = 14
CLAIM_IDS = ("cor33", "cor410", "cor49", "lem45", "lem46", "thm34",
             "thm41-g4", "thm41-g5", "thm44-g6")
# every fixed catalog graph, then parametric vertex-transitive graphs with
# classical group orders and one that is not vertex-transitive
ANALYZE_INPUTS = (
    "k4", "k33", "cube", "petersen", "dodecahedron", "desargues", "heawood",
    "pappus", "tutte_coxeter", "icosahedron", "base_graph", "omega18",
    "fig5_lambda", "truncated_k4", "truncated_icosahedron",
    "gp(8,3)", "gp(12,5)", "gp(13,5)", "gp(7,2)", "prism(7)", "moebius(5)",
)

TRACED = (
    ("enumeration", "enumerate_cubic_graph6"),
    ("enumeration", "insert_on_edges"),
    ("enumeration", "reducible_edges"),
    ("enumeration", "irreducible_seeds"),
    ("autgrp", "canonical_form"),
    ("autgrp", "canonical_data"),
    ("autgrp", "aut_and_canonical"),
    ("autgrp", "automorphism_group"),
    ("autgrp", "extend_partial_map"),
    ("graph", "girth"),
    ("graph", "bridges"),
    ("graph", "cycles_of_length"),
    ("graph", "every_edge_in_cycle"),
    ("graph", "every_3_arc_in_cycle"),
    ("graph6", "decode_graph6"),
    ("graph6", "encode_graph6"),
    ("perm", "orbits"),
    ("perm", "orbit_of"),
    ("perm", "stabilizer"),
    ("symmetry", "transitivity_profile"),
    ("symmetry", "edge_orbit_summary"),
    ("symmetry", "stabilizer_class"),
    ("symmetry", "consistent_cycles"),
    ("distinguishing", "distinguishing_cost"),
    ("distinguishing", "distinguishing_number"),
    ("claims", "verify_claim"),
    ("cli", "main"),
)

# the machine-speed reference: one automorphism count of the Petersen
# graph by the oracle's backtracking, which took a median of REFERENCE_S
# seconds in a quiet period on the reference box (2 vCPUs, Python 3.11.7)
REFERENCE_GRAPH = oracles.generalized_petersen(5, 2)
REFERENCE_S = 0.0014
BRACKET_PASSES = 3
SAMPLE_INTERVAL_S = 0.1

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "graphs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> Dict[str, str]:
    units: Dict[str, str] = {}
    for module, name in TRACED:
        units[f"{module}.{name}.calls"] = "count"
        units[f"{module}.{name}.self_s"] = "s"
    for module in dict.fromkeys(m for m, _ in TRACED):
        units[f"{module}.self_s"] = "s"
    units["autgrp.automorphism_group.colored_calls"] = "count"
    units["autgrp.searches_per_class"] = "ratio"
    units["enumeration.accept_ratio"] = "ratio"
    units["enumeration.level12_s"] = "s"
    units["enumeration.level14_s"] = "s"
    units["distinguishing.cost_calls_per_graph"] = "ratio"
    for claim in CLAIM_IDS:
        units[f"claims.{claim}_s"] = "s"
    return units


def _run_cli(argv: List[str]) -> dict:
    """One `cubicsym` command line through cli.main, output captured."""
    cli = sys.modules[f"{PACKAGE}.cli"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    if code != 0:
        raise RuntimeError(f"exit {code}: {err.getvalue().strip()[-200:]}")
    return {"stdout": out.getvalue()}


# ---------------------------------------------------------------------------
# workloads

class Census:
    """enumerate_cubic_graph6(n) for each order; one operation per order."""

    setup_samples = 5
    ops = [str(n) for n in CENSUS_ORDERS]

    def setup(self, seed: int) -> None:
        import cubicsym.enumeration  # noqa: F401

    def call(self, op: str):
        enumeration = sys.modules[f"{PACKAGE}.enumeration"]
        return list(enumeration.enumerate_cubic_graph6(int(op)))

    def graphs(self, op: str, out) -> int:
        return len(out)

    def problems(self, op: str, out) -> List[str]:
        return oracles.census_level_problems(int(op), out)


class Claims:
    """`cubicsym verify <id> --max-n 14 --json` for every claim id, with the
    census to n = 14 generated during set-up."""

    setup_samples = 3
    ops = list(CLAIM_IDS)

    def setup(self, seed: int) -> None:
        import cubicsym.cli  # noqa: F401
        from cubicsym.enumeration import enumerate_cubic_graph6

        for n in range(4, CLAIMS_MAX_N + 1, 2):
            enumerate_cubic_graph6(n)

    def call(self, op: str):
        return _run_cli(["verify", op, "--max-n", str(CLAIMS_MAX_N), "--json"])

    def graphs(self, op: str, out) -> int:
        return json.loads(out["stdout"])["graphs_scanned"]

    def problems(self, op: str, out) -> List[str]:
        report = json.loads(out["stdout"])
        if op in oracles.CENSUS_CLAIM_HITS:
            return oracles.census_claim_problems(op, report, CLAIMS_MAX_N)
        return oracles.input_claim_problems(op, report)


class Analyze:
    """`cubicsym analyze --graph6 <g6> --json` on each input, relabelled by
    a permutation drawn from the seed; F26A is kept in its LCF labelling."""

    setup_samples = 5
    ops = list(ANALYZE_INPUTS) + ["f26a"]

    def setup(self, seed: int) -> None:
        import cubicsym.cli  # noqa: F401
        from cubicsym.catalog import catalog_graph

        self.original: Dict[str, oracles.Adjacency] = {"f26a": oracles.f26a()}
        self.g6 = {"f26a": oracles.encode_graph6(self.original["f26a"])}
        for name in ANALYZE_INPUTS:
            adj = [tuple(row) for row in catalog_graph(name).adj]
            images = list(range(len(adj)))
            random.Random(f"{seed}/{name}").shuffle(images)
            self.original[name] = adj
            self.g6[name] = oracles.encode_graph6(oracles.relabel(adj, images))
        self._oracles: Dict[str, oracles.AnalyzeOracle] = {}

    def call(self, op: str):
        return _run_cli(["analyze", "--graph6", self.g6[op], "--json"])

    def graphs(self, op: str, out) -> int:
        return 1

    def problems(self, op: str, out) -> List[str]:
        from cubicsym.autgrp import canonical_form
        from cubicsym.graph import Graph

        report = json.loads(out["stdout"])
        if op not in self._oracles:
            self._oracles[op] = oracles.AnalyzeOracle(
                op, oracles.decode_graph6(self.g6[op]))
        original = self.original[op]
        canon = canonical_form(Graph(len(original), original)).decode("ascii")
        found = self._oracles[op].problems(report, canon)
        if report.get("graph6") != self.g6[op]:
            found.append(f"{op}: report is not about the input graph")
        return found


WORKLOADS: Dict[str, Callable[[], object]] = {
    "census": Census,
    "claims": Claims,
    "analyze": Analyze,
}


# ---------------------------------------------------------------------------
# processes

def _in_child(body: Callable[[], object]) -> object:
    """Run body in a forked process and return its JSON-encoded result."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            data = json.dumps(body()).encode()
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(data)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"child process failed with status {status}")
    return json.loads(data)


def _reference() -> float:
    """Duration of one pass of a fixed pure-Python loop: the machine's
    speed right now.

    The collector is off during the pass: everything the pass allocates is
    freed by its end, so the program's allocation count, and with it the
    moment of its next collection, is the same as if the pass had not run.
    Otherwise a sample taken at a time that varies from round to round
    would move the program's full collections between operations.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        oracles.count_automorphisms(REFERENCE_GRAPH)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class _Stopwatch:
    """Wall and CPU time of one step, scaled to the reference speed.

    The reference loop runs just before and just after the step, and every
    SAMPLE_INTERVAL_S during it from a SIGALRM handler (its time is taken
    out of the step's).  The step's times are multiplied by REFERENCE_S
    over the mean reference duration, so a neighbour that slows the whole
    machine for a while slows the reference as much as the step and
    cancels out.  sample=False keeps the handler out of a traced run,
    where it would land inside the spans.
    """

    def __init__(self, sample: bool = True):
        self.sample = sample

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.refs.append(_reference())
        self.paused += time.perf_counter() - start

    def __enter__(self):
        self.refs = [_reference() for _ in range(BRACKET_PASSES)]
        self.paused = 0.0
        if self.sample:
            self.previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self.rusage = _rusage()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        raw_wall = time.perf_counter() - self.start
        raw_cpu = _rusage() - self.rusage
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self.previous)
        self.raw_wall = raw_wall - self.paused
        self.refs.extend(_reference() for _ in range(BRACKET_PASSES))
        speed = REFERENCE_S / statistics.fmean(self.refs)
        self.wall = self.raw_wall * speed
        self.cpu = max(raw_cpu - self.paused, 0.0) * speed
        return False


def _rusage() -> float:
    """CPU seconds of this process and of its children that have ended."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _timed_setup(workload, seed: int) -> dict:
    with _Stopwatch() as watch:
        sys.path.insert(0, str(ROOT / "src"))
        import cubicsym  # noqa: F401

        workload.setup(seed)
    return {"setup_s": watch.wall, "raw_s": watch.raw_wall}


def _round(workload, tracer: Optional[Tracer]) -> dict:
    ops = []
    layers: Dict[str, float] = {}
    for op in workload.ops:
        if tracer is not None:
            tracer.reset()
        out, error = None, None
        with _Stopwatch(sample=tracer is None) as watch:
            try:
                out = workload.call(op)
            except Exception as exc:  # an operation that raises counts as failed
                error = f"{type(exc).__name__}: {exc}"
        ops.append({"op": op, "seconds": watch.wall, "raw_s": watch.raw_wall,
                    "cpu_s": watch.cpu, "out": out, "error": error})
        if tracer is not None:
            # summed op by op, so the span list holds one operation at a time
            for key, value in tracer.summary().items():
                layers[key] = layers.get(key, 0) + value
    self_usage = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "wall_s": sum(o["seconds"] for o in ops),
        "raw_wall_s": sum(o["raw_s"] for o in ops),
        "cpu_s": sum(o["cpu_s"] for o in ops),
        "peak_rss_mb": max(self_usage.ru_maxrss, kids.ru_maxrss) / 1024.0,
        "ops": ops,
        "layers": layers,
    }


# ---------------------------------------------------------------------------
# metrics

def _layer_metrics(name: str, rnd: dict, graphs: int) -> Dict[str, float]:
    values = {key: 0.0 for key in per_layer_units()}
    values.update(rnd["layers"])
    op_seconds = {o["op"]: o["seconds"] for o in rnd["ops"]}
    if name == "census":
        values["enumeration.level12_s"] = op_seconds["12"]
        values["enumeration.level14_s"] = op_seconds["14"]
        inserted = values["enumeration.insert_on_edges.calls"]
        searches = (values["autgrp.canonical_form.calls"]
                    + values["autgrp.canonical_data.calls"])
        values["enumeration.accept_ratio"] = graphs / inserted if inserted else 0.0
        values["autgrp.searches_per_class"] = searches / graphs if graphs else 0.0
    if name == "claims":
        for claim in CLAIM_IDS:
            values[f"claims.{claim}_s"] = op_seconds[claim]
    cost_calls = values["distinguishing.distinguishing_cost.calls"]
    values["distinguishing.cost_calls_per_graph"] = (
        cost_calls / graphs if graphs else 0.0)
    return values


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]()

    # set-up samples: each forked before the package is imported, so each
    # pays the import and the set-up from cold
    extra = 0 if args.trace else workload.setup_samples - 1
    setups = [_in_child(lambda: _timed_setup(workload, args.seed))
              for _ in range(extra)]
    setups.append(_timed_setup(workload, args.seed))
    setup_s = [s["setup_s"] for s in setups]
    tracer = Tracer(TRACED, PACKAGE) if args.trace else None

    rounds = []
    deadline = time.perf_counter() + args.seconds
    while not rounds or time.perf_counter() < deadline:
        rounds.append(_in_child(lambda: _round(workload, tracer)))

    attempted = failed = 0
    correct = True
    checked: Dict[tuple, List[str]] = {}
    problems: List[str] = []
    graphs_per_round = []
    for rnd in rounds:
        graphs = 0
        for o in rnd["ops"]:
            attempted += 1
            if o["error"] is not None:
                failed += 1
                problems.append(f"{o['op']}: {o['error']}")
                continue
            key = (o["op"], json.dumps(o["out"], sort_keys=True))
            if key not in checked:
                checked[key] = workload.problems(o["op"], o["out"])
            if checked[key]:
                failed += 1
                correct = False
                problems.extend(checked[key])
                continue
            graphs += workload.graphs(o["op"], o["out"])
        graphs_per_round.append(graphs)
        rnd["graphs"] = graphs

    wall = statistics.median(r["wall_s"] for r in rounds)
    if args.trace:
        per_round = [_layer_metrics(args.workload, r, r["graphs"]) for r in rounds]
        units = per_layer_units()
        metrics = {
            key: {"value": statistics.median(v[key] for v in per_round),
                  "unit": unit}
            for key, unit in units.items()
        }
    else:
        values = {
            "wall_s": wall,
            "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
            "graphs_per_s": statistics.median(graphs_per_round) / wall,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}

    RESULTS.mkdir(exist_ok=True)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setups": setups, "problems": sorted(set(problems)),
        "rounds": [{k: v for k, v in r.items() if k not in ("ops", "layers")}
                   | {"op_seconds": {o["op"]: o["seconds"] for o in r["ops"]}}
                   for r in rounds],
        "metrics": metrics,
    }
    out_file = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    for line in sorted(set(problems)):
        print(f"problem: {line}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

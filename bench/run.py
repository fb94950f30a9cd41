"""The hopfgalois benchmark: one workload of the corpus, timed end to end
through `hopfgalois.classify` and through the in-process CLI, with every
answer checked against the hand-written table in corpus.py.

Run from the repository root:

    python3 bench/run.py --workload search|stats|lattice --seed N \
        --seconds S --trace 0|1

A closed loop in one process and one thread: one problem at a time, with
the default node budget and degree cap.  `classify` passes and CLI passes
over every problem of the workload alternate, each in an order drawn from
the seed, while the next pass is expected to end within --seconds.  Before
each pass the package is imported afresh and every problem built once, and
that set-up is timed; so set-up samples spread over the whole run, like
the passes.  Each problem is built again, untimed, just before it is
classified, so no pass inherits the caches of an earlier one.  Every
timed call is reported in reference seconds: its wall time scaled by the
host's speed while it ran, as gauge.py measures it.

--trace 0 prints the end-to-end metrics; --trace 1 adds traced passes
(see spans.py), prints the per-layer metrics and writes every span to
bench/out/ as gzip-compressed JSON lines.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import json
import random
import resource
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

from corpus import WORKLOADS
from gauge import INTERVAL_S, Gauge
from spans import PhaseView, Tracer

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
# Call counts that must repeat exactly between passes, like node counts.
GATED = ("groups.normal_subgroups", "catalog.iso_type")


def load_package():
    """Import hopfgalois afresh from the checkout, with the modules the
    benchmark calls into.  Any copy already loaded is dropped first, so each
    call pays the whole import."""
    for name in [m for m in sys.modules
                 if m == "hopfgalois" or m.startswith("hopfgalois.")]:
        del sys.modules[name]
    hg = importlib.import_module("hopfgalois")
    dsl = importlib.import_module("hopfgalois.dsl")
    cli = importlib.import_module("hopfgalois.cli")
    if Path(hg.__file__).resolve().parent != SRC / "hopfgalois":
        raise ImportError(f"hopfgalois was imported from {hg.__file__}, "
                          f"not from {SRC}")
    return hg, dsl, cli


class Run:
    """One workload's measurements and answer checks."""

    def __init__(self, rows, tracer: Tracer | None):
        self.rows = rows
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.bad_rows: set[int] = set()
        self.gauge = Gauge()
        # Times in reference seconds (see gauge.py), with the raw wall
        # times beside them for the printout.
        self.setups: list[float] = []
        self.classify_passes: list[float] = []
        self.traced_passes: list[float] = []
        self.cli_passes: list[float] = []
        self.raw: dict[str, list[float]] = {"setup": [], "classify": [], "cli": []}
        # Reference seconds per wall second of each traced phase.
        self.factor: dict[object, float] = {}
        self.problem_times: list[list[float]] = [[] for _ in rows]
        self.nodes: list[int | None] = [None] * len(rows)
        self.structures: list[int | None] = [None] * len(rows)
        self.canonical: list[str | None] = [None] * len(rows)
        self.traced_nodes: list[int] = []
        self.traced_structures: list[int] = []

    def fail(self, i: int, path: str, why: str) -> None:
        self.bad_rows.add(i)
        self.failures.append(f"{self.rows[i].label} [{path}]: {why}")

    def same_as_before(self, store: list, i: int, value, path: str, what: str) -> None:
        if store[i] is None:
            store[i] = value
        elif store[i] != value:
            self.fail(i, path, f"{what} drifted from {store[i]!r} to {value!r}")

    def timed(self, fn, *args):
        """Call fn(*args) under the gauge.  Returns (result, wall seconds,
        reference seconds); an exception propagates with the timer disarmed."""
        self.gauge.start()
        try:
            start = perf_counter()
            result = fn(*args)
            elapsed = perf_counter() - start
        finally:
            self.gauge.stop()
        return result, elapsed, self.gauge.scale(elapsed)

    # -- set-up -------------------------------------------------------------

    def set_up(self) -> None:
        """Import the package afresh and build every problem once, timed."""
        _, elapsed, scaled = self.timed(self.load_and_build)
        self.factor[("setup", len(self.setups))] = scaled / elapsed
        self.setups.append(scaled)
        self.raw["setup"].append(elapsed)

    def load_and_build(self) -> None:
        self.hg, self.dsl, self.cli = load_package()
        if self.tracer:
            self.tracer.phase = ("setup", len(self.setups))
            self.tracer.install()
        for i in range(len(self.rows)):
            self.build(i)
        if self.tracer:
            self.tracer.uninstall()

    def build(self, i: int):
        row = self.rows[i]
        if self.tracer:
            self.tracer.problem = row.label
        try:
            return row.build(self.hg, self.dsl)
        except Exception:
            self.fail(i, "build", traceback.format_exc(limit=2).strip())
            return None

    # -- passes ----------------------------------------------------------------

    def classify_pass(self, order, traced: bool) -> None:
        tracer = self.tracer if traced else None
        if tracer:
            tracer.install()
        total = wall = 0.0
        nodes = structures = 0
        for i in order:
            before = len(self.failures)
            result = self.classify_fresh(i, tracer)
            self.evaluated(before)
            if result is None:
                continue
            elapsed, scaled, used, found = result
            total += scaled
            wall += elapsed
            nodes += used
            structures += found
            if not traced:
                self.problem_times[i].append(scaled)
        if tracer:
            tracer.uninstall()
            self.factor[("classify", len(self.traced_passes))] = total / wall if wall else 1.0
            self.traced_passes.append(total)
            self.traced_nodes.append(nodes)
            self.traced_structures.append(structures)
        else:
            self.classify_passes.append(total)
            self.raw["classify"].append(wall)

    def classify_fresh(self, i: int, tracer: Tracer | None):
        """Build problem i and time `classify` on it alone.  Returns
        (seconds, nodes, structures), or None if either step failed; the
        problem is released on return."""
        # Spans of the untimed build go to a phase of their own.
        if tracer:
            tracer.phase = ("build", len(self.traced_passes))
        problem = self.build(i)
        if problem is None:
            self.fail(i, "classify", "problem was not built")
            return None
        gc.collect()
        if tracer:
            tracer.phase = ("classify", len(self.traced_passes))
        try:
            report, elapsed, scaled = self.timed(self.hg.classify, problem)
        except Exception:
            self.fail(i, "classify", traceback.format_exc(limit=2).strip())
            return None
        self.check(i, "classify", (
            report.structure_count, report.minimal_count, Counter(report.types()),
            report.intermediate_count, report.normal_complement_bound))
        self.same_as_before(self.nodes, i, report.nodes_used, "classify", "node count")
        self.same_as_before(self.structures, i, report.structure_count,
                            "classify", "structure count")
        return elapsed, scaled, report.nodes_used, report.structure_count

    def cli_pass(self, order, traced: bool) -> None:
        tracer = self.tracer if traced else None
        if tracer:
            tracer.phase = ("cli", len(self.cli_passes))
            tracer.install()
        total = wall = 0.0
        for i in order:
            if tracer:
                tracer.problem = self.rows[i].label
            before = len(self.failures)
            gc.collect()
            elapsed, scaled = self.cli_one(i)
            total += scaled
            wall += elapsed
            self.evaluated(before)
        if tracer:
            tracer.uninstall()
        self.factor[("cli", len(self.cli_passes))] = total / wall if wall else 1.0
        self.cli_passes.append(total)
        self.raw["cli"].append(wall)

    def cli_one(self, i: int) -> tuple[float, float]:
        """Run one problem through the CLI; return its wall time and its
        time in reference seconds."""
        row = self.rows[i]
        out, err = io.StringIO(), io.StringIO()
        elapsed = scaled = 0.0
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code, elapsed, scaled = self.timed(
                    self.cli.main, ["enumerate", row.expr, *row.flags, "--canonical"])
        except SystemExit as exc:
            code = exc.code
        except Exception:
            self.fail(i, "cli", traceback.format_exc(limit=2).strip())
            return elapsed, scaled
        if code != 0:
            self.fail(i, "cli", f"exit code {code}: {err.getvalue().strip()}")
            return elapsed, scaled
        text = out.getvalue()
        try:
            doc = json.loads(text)
            stats = doc["stats"]
            got = (stats["structure_count"], stats["minimal_count"],
                   Counter(s["type"] for s in doc["structures"]),
                   stats["intermediate_count"], stats["normal_complement_bound"])
        except (ValueError, KeyError, TypeError) as exc:
            self.fail(i, "cli", f"unreadable --canonical output: {exc!r}")
            return elapsed, scaled
        self.check(i, "cli", got)
        self.same_as_before(self.canonical, i, hashlib.sha256(text.encode()).hexdigest(),
                            "cli", "--canonical output digest")
        return elapsed, scaled

    def evaluated(self, failures_before: int) -> None:
        """Count one classify or CLI evaluation, failed if it added failures."""
        self.attempted += 1
        self.failed += len(self.failures) > failures_before

    def check(self, i: int, path: str, got) -> None:
        row = self.rows[i]
        want = (row.structures, row.minimal, row.types, row.intermediate, row.bound)
        if got != want:
            self.fail(i, path, "expected (structures, minimal, types, intermediate, "
                               f"bound) = {want}, got {got}")


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest sample with at least ten samples beyond it, and its
    percentile; the maximum when there are too few samples for that."""
    s = sorted(samples)
    if len(s) <= 10:
        return s[-1], f"max of {len(s)}"
    return s[-11], f"p{100 * (len(s) - 10) / len(s):.0f} of {len(s)}"


def end_to_end(run: Run) -> dict:
    rows = run.rows
    per_problem = [statistics.median(t) for t in run.problem_times if t]
    ok = len(rows) - len(run.bad_rows)
    value, where = tail(run.classify_passes)
    factors = run.gauge.factors
    print(f"times in reference seconds (gauge.py): wall time x host-speed factor, "
          f"sampled every {INTERVAL_S * 1e3:g} ms; factor median "
          f"{statistics.median(factors):.3f}, range {min(factors):.3f}-"
          f"{max(factors):.3f} over {len(factors)} timed calls")
    for name, kind, samples in (("setup_s", "set-ups", run.setups),
                                ("classify_s", "passes", run.classify_passes),
                                ("cli_s", "passes", run.cli_passes)):
        wall = run.raw[name.removesuffix("_s")]
        print(f"{name}: median of {len(samples)} {kind}: "
              + " ".join(f"{s:.4f}" for s in samples)
              + "; wall " + " ".join(f"{s:.4f}" for s in wall))
    print(f"classify_s.tail: {where}")
    print(f"ok_ratio: {ok}/{len(rows)} problems")
    return {
        "setup_s": (statistics.median(run.setups), "s"),
        "classify_s": (statistics.median(run.classify_passes), "s"),
        "classify_s.tail": (value, "s"),
        "classify_geomean_s": (statistics.geometric_mean(per_problem)
                               if per_problem else 0.0, "s"),
        "cli_s": (statistics.median(run.cli_passes), "s"),
        "ok_ratio": (ok / len(rows), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(run: Run) -> dict:
    tracer = run.tracer
    setup = [PhaseView(tracer, ("setup", k)) for k in range(len(run.setups))]
    passes = [PhaseView(tracer, ("classify", k)) for k in range(len(run.traced_passes))]
    clis = [PhaseView(tracer, ("cli", k)) for k in range(len(run.cli_passes))]

    def med(views, fn):
        # Span times are wall times; scale each phase like its calls.
        return statistics.median(fn(v) * run.factor[v.phase] for v in views)

    def count(views, fn):
        return statistics.median_low(fn(v) for v in views)

    def exact(name, values):
        if len(set(values)) > 1:
            run.failures.append(f"{name} differs between traced passes: {values}")
        return values[0] if values else 0

    nodes = exact("engine.nodes", run.traced_nodes)
    structures = exact("engine.structures", run.traced_structures)
    stable = count(passes, lambda v: v.sizes("minimality.g_stable_subgroups"))
    enumerated = count(passes, lambda v: v.sizes("groups.subgroups",
                                                 parent="minimality.g_stable_subgroups"))
    out = {
        "dsl.build_s": (med(setup, lambda v: v.time("dsl.build_text")), "s"),
        "engine.problem_s": (med(setup, lambda v: v.time("engine.ExtensionProblem")), "s"),
        "engine.coset_action_s": (med(passes, lambda v: v.time("engine.coset_action")), "s"),
        "engine.search_s": (med(passes, lambda v: v.time(
            "engine.enumerate_regular_normalized")), "s"),
        "engine.search_self_s": (med(passes, lambda v: v.self_time(
            "engine.enumerate_regular_normalized")), "s"),
        "engine.nodes": (nodes, "count"),
        "engine.structures": (structures, "count"),
        "engine.structures_per_mnode": (structures / nodes * 1e6 if nodes else 0.0,
                                        "1/Mnode"),
        "perms.check_s": (med(passes, lambda v: v.time(
            "perms.is_regular", "perms.is_normalized_by")), "s"),
        "perms.mul_calls": (count(passes, lambda v: v.count("perms.mul")), "count"),
    }
    for name in ("groups.from_permutations", "groups.closure_of", "groups.subgroups",
                 "groups.normal_subgroups", "catalog.iso_type"):
        calls = [v.calls(name) for v in passes]
        out[name + "_s"] = (med(passes, lambda v: v.time(name)), "s")
        out[name + "_calls"] = (exact(name + "_calls", calls) if name in GATED
                                else statistics.median_low(calls), "count")
    out.update({
        "minimality.classify_s": (med(passes, lambda v: v.time("minimality.classify")), "s"),
        "minimality.lattice_s": (med(passes, lambda v: v.time(
            "minimality.g_stable_subgroups")), "s"),
        "minimality.stable_ratio": (stable / enumerated if enumerated else 0.0, "ratio"),
        "minimality.intermediate_s": (med(passes, lambda v: v.time(
            "minimality.intermediate_subgroups")), "s"),
        "minimality.complement_bound_s": (med(passes, lambda v: v.time(
            "minimality.minimal_lower_bound", "minimality.normal_complements")), "s"),
        "minimality.classify_self_s": (med(passes, lambda v: v.self_time(
            "minimality.classify")), "s"),
        "cli.self_s": (med(clis, lambda v: v.self_time("cli.main")), "s"),
        "trace_overhead_ratio": (statistics.median(run.traced_passes)
                                 / statistics.median(run.classify_passes) - 1, "ratio"),
    })
    print(f"per-layer values: median over {len(passes)} traced classify passes, "
          f"{len(clis)} traced CLI passes and {len(setup)} traced set-ups")
    print(f"engine.structures_per_mnode: {structures} structures / {nodes} nodes")
    print(f"minimality.stable_ratio: {stable} G-stable / {enumerated} subgroups of N")
    classify = out["minimality.classify_s"][0]
    if classify:
        for name in ("engine.search_s", "minimality.intermediate_s",
                     "minimality.complement_bound_s", "minimality.lattice_s"):
            print(f"  {name}: {100 * out[name][0] / classify:.1f}% of the classify span")
    if tracer.missing:
        print("absent (0 calls): " + ", ".join(tracer.missing))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hopfgalois" / "__init__.py").is_file():
        print(f"error: no hopfgalois sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    rows = WORKLOADS[args.workload]
    run = Run(rows, Tracer() if args.trace else None)
    rng = random.Random(args.seed)
    print(f"workload {args.workload}: {len(rows)} problems, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")

    passes = [lambda order: run.classify_pass(order, traced=False),
              lambda order: run.cli_pass(order, traced=bool(args.trace))]
    if args.trace:
        passes.insert(1, lambda order: run.classify_pass(order, traced=True))
    last: dict[int, float] = {}
    start = perf_counter()
    try:
        for k in itertools.count():
            kind = k % len(passes)
            if len(last) == len(passes) and \
                    perf_counter() - start + last[kind] > args.seconds:
                break
            pass_start = perf_counter()
            run.set_up()
            passes[kind](rng.sample(range(len(rows)), len(rows)))
            last[kind] = perf_counter() - pass_start
    finally:
        run.gauge.close()

    for i, row in enumerate(rows):
        times = run.problem_times[i]
        median = f"{statistics.median(times):.4f} s" if times else "-"
        print(f"  {row.label:58s} classify {median} ({len(times)} samples)  "
              f"nodes {run.nodes[i]}  structures {run.structures[i]}  "
              f"{'FAIL' if i in run.bad_rows else 'ok'}")
    if args.trace:
        metrics = per_layer(run)
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        run.tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    else:
        metrics = end_to_end(run)
    for line in run.failures:
        print(f"FAIL {line}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

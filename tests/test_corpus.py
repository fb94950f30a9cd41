"""Every row of the benchmark corpus (bench/corpus.py), classified here so
that its hand-written table of expected answers stays tied to the engine,
and the corpus cross-check script (bench/crosscheck.py) and the benchmark
harness (bench/run.py) run as they are.

The corpus module is loaded from its file and only read.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import hopfgalois
from hopfgalois import dsl, g_stable_subgroups, iso_type

from conftest import tuple_sets

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
CORPUS_PATH = BENCH_DIR / "corpus.py"


def _load_corpus():
    spec = importlib.util.spec_from_file_location("bench_corpus", CORPUS_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


ROWS = [(workload, row) for workload, rows in _load_corpus().WORKLOADS.items()
        for row in rows]


@pytest.mark.parametrize("workload,row", ROWS,
                         ids=[f"{w}: {r.label}" for w, r in ROWS])
def test_corpus_row(workload, row):
    report = hopfgalois.classify(row.build(hopfgalois, dsl))
    got = (report.structure_count, report.minimal_count, Counter(report.types()),
           report.intermediate_count, report.normal_complement_bound)
    assert got == (row.structures, row.minimal, row.types, row.intermediate,
                   row.bound), row.source
    # the lattices and types the search supplies, against the independent
    # computations; iso_type searches for an isomorphism to a nonabelian N
    for s in report.structures:
        assert tuple_sets(s.stable_subgroups) == tuple_sets(g_stable_subgroups(s))
        assert s.type_name == iso_type(s.group)


def test_building_a_problem_reads_no_generator_data(monkeypatch):
    # a problem's set-up is its cosets and the core check: G's generators,
    # the image and the blocks are built on first read, inside classify
    generators, asked = hopfgalois.FiniteGroup.generators, []

    def counted(self):
        asked.append(self)
        return generators(self)

    monkeypatch.setattr(hopfgalois.FiniteGroup, "generators", counted)
    for _, row in ROWS:
        problem = row.build(hopfgalois, dsl)
        assert all(group is not problem.group for group in asked), row.label
        assert problem._pairs is problem._image is problem._blocks is None


@pytest.mark.parametrize("workload,nodes", [
    ("search", 2_442), ("stats", 238), ("lattice", 7_557)])
def test_nodes_per_pass(workload, nodes):
    # the search's work per benchmark pass, deterministic; a change that
    # moves it updates these numbers
    assert sum(hopfgalois.classify(row.build(hopfgalois, dsl)).nodes_used
               for w, row in ROWS if w == workload) == nodes


def test_crosscheck_script_passes():
    # the transversal engine, through the public API, agrees with every
    # corpus row of degree <= 8
    run = subprocess.run([sys.executable, str(BENCH_DIR / "crosscheck.py")],
                         cwd=BENCH_DIR.parent, capture_output=True, text=True,
                         timeout=300)
    lines = run.stdout.splitlines()
    assert run.returncode == 0, run.stdout + run.stderr
    assert lines and not any(line.startswith("FAIL") for line in lines)


@pytest.mark.parametrize("workload", ["search", "stats", "lattice"])
def test_benchmark_harness_runs(workload, tmp_path):
    # a short run of each workload, untraced: the harness writes no file,
    # and its last line is the verdict, correct with no failed operation
    run = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"),
                          "--workload", workload, "--seed", "1",
                          "--seconds", "0.3", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    verdict = json.loads(run.stdout.splitlines()[-1])
    assert verdict["correct"] is True and verdict["failed"] == 0, verdict
    assert list(tmp_path.iterdir()) == []

"""Every row of the benchmark corpus (bench/corpus.py), classified here so
that its hand-written table of expected answers stays tied to the engine.

The corpus module is loaded from its file and only read.
"""

from __future__ import annotations

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

import hopfgalois
from hopfgalois import dsl, g_stable_subgroups

CORPUS_PATH = Path(__file__).resolve().parent.parent / "bench" / "corpus.py"


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
    # the lattices the search supplies, against the independent computation
    for v in report.verdicts:
        assert v.stable_subgroups == g_stable_subgroups(v.structure)

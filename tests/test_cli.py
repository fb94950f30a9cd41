import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hopfgalois
from hopfgalois import (ExtensionProblem, NodeBudget, classify,
                        dihedral, enumerate_via_transversal)
from hopfgalois.cli import _parser, main
from hopfgalois.groups import FiniteGroup
from hopfgalois.engine import DEGREE_CAP

from conftest import E24_EXPRS, subgroup_problem


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_s4_human(capsys):
    code, out, err = run(capsys, "enumerate", "S(4)", "--stabilizer-of-point")
    assert code == 0
    assert "structures: 1 (minimal: 1)" in out
    assert "type E(2,2)" in out
    assert err == ""


def test_enumerate_c8_json(capsys):
    code, out, _ = run(capsys, "enumerate", "C(8)", "--galois", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["stats"]["structure_count"] == 6
    assert doc["stats"]["minimal_count"] == 0
    types = sorted(s["type"] for s in doc["structures"])
    assert types == ["C8", "C8", "D4", "D4", "Q8", "Q8"]
    assert "elapsed_s" in doc["engine"]


def test_enumerate_s5_empty_is_success(capsys):
    code, out, _ = run(capsys, "enumerate", "S(5)", "--stabilizer-of-point", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["structures"] == []
    assert doc["stats"]["structure_count"] == 0


def test_enumerate_complement_flag(capsys):
    code, out, _ = run(capsys, "enumerate",
                       "SD(E(3,2), matgrp(3,2,[[[0,1],[-1,0]]]))",
                       "--complement", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["problem"]["degree"] == 9
    assert doc["stats"]["minimal_count"] == 1


def test_exit_code_not_normal_closure(capsys):
    code, out, err = run(capsys, "enumerate", "gens[(0 1 2 3), (1 3)]",
                         "--subgroup", "gens[(0 2)(1 3)]")
    assert code == 2
    assert out == ""
    assert "normal" in err


def test_subgroup_generators_act_on_the_points_of_g(capsys):
    # (0 1 2) lies in S(4) although its text names only three points
    code, out, err = run(capsys, "enumerate", "S(4)", "--subgroup", "gens[(0 1 2)]",
                         "--canonical")
    assert code == 0, err
    problem = json.loads(out)["problem"]
    assert (problem["subgroup_order"], problem["degree"]) == (3, 8)
    code, padded, _ = run(capsys, "enumerate", "S(4)", "--subgroup",
                          "gens[(0 1 2), (3)]", "--canonical")
    assert code == 0
    assert padded.replace(", (3)", "") == out


def test_subgroup_problem_of_the_tests_is_the_flags(capsys):
    # a G' whose text names fewer points than G has, read on G's points
    prob = subgroup_problem("S(4)", "gens[(0 1 2)]")
    report = classify(prob)
    code, out, err = run(capsys, "enumerate", "S(4)", "--subgroup", "gens[(0 1 2)]",
                         "--json")
    assert code == 0, err
    doc = json.loads(out)
    assert prob.degree == doc["problem"]["degree"] == 8
    assert (report.structure_count, report.minimal_count) == (4, 0)
    assert (doc["stats"]["structure_count"], doc["stats"]["minimal_count"]) == (4, 0)
    assert [s.generator_strings() for s in report.structures] == \
        [d["generators"] for d in doc["structures"]]
    assert sorted(s.key() for s in report.structures) == \
        enumerate_via_transversal(prob)


@pytest.mark.parametrize("group,subgroup,message", [
    ("S(4)", "C(2)", "--subgroup takes gens[...], got 'C(2)'"),
    ("S(4)", "gens[(0 4)]", "point 4 out of range for degree 4"),
    ("A(4)", "gens[(0 1)]", "subgroup generators do not lie in the group"),
])
def test_subgroup_errors_name_the_fault(capsys, group, subgroup, message):
    code, out, err = run(capsys, "enumerate", group, "--subgroup", subgroup)
    assert code == 1
    assert out == ""
    assert message in err


def test_exit_code_cap(capsys):
    code, _, err = run(capsys, "enumerate", "C(16)", "--galois",
                       "--degree-cap", "12")
    assert code == 3
    assert "cap" in err


@pytest.mark.parametrize("cap", ["1", "0", "-5"])
def test_degree_cap_below_2_is_a_usage_error(capsys, cap):
    # no extension has degree below 2: a bad argument, not a cap reached
    code, out, err = run(capsys, "enumerate", "C(4)", "--galois", "--degree-cap", cap)
    assert code == 1
    assert out == ""
    assert "--degree-cap must be at least 2" in err
    assert err.endswith(f"got {cap}\n")


def test_exit_code_degree_cap_e24(capsys):
    code, out, err = run(capsys, "enumerate", E24_EXPRS[240], "--complement")
    assert code == 3
    assert out == ""
    assert f"degree {DEGREE_CAP}, got 16" in err
    assert "order" not in err


@pytest.mark.parametrize("argv", [
    ["S(12)", "--galois"],
    # the matrix group's closure passes the order cap
    ["SD(E(7,3), matgrp(7,3,[[[0,0,1],[1,0,0],[0,1,3]],[[1,1,0],[0,1,0],[0,0,1]]]))",
     "--complement"],
    ["gens[(0 1), (0 1 2 3 4 5 6 7 8 9 10 11)]", "--galois"],
])
def test_exit_code_group_order_cap(capsys, argv):
    code, out, err = run(capsys, "enumerate", *argv)
    assert code == 3
    assert out == ""
    assert "cap" in err


def test_exit_code_oversized_semidirect_product_before_its_action(capsys, monkeypatch):
    # |E(2,13)| * 2 = 16,384 passes the order cap; checking the action
    # first would take 8192^2 products of E(2,13), each one raw product and
    # one lookup, so the test stops at the 10,000th
    products = 0
    lookup = FiniteGroup._lookup

    def counted(self, value):
        nonlocal products
        products += 1
        assert products < 10_000, "the action was checked before the order cap"
        return lookup(self, value)

    monkeypatch.setattr(FiniteGroup, "_lookup", counted)
    swap = [[int(j == (1 - i if i < 2 else i)) for j in range(13)] for i in range(13)]
    code, out, err = run(capsys, "enumerate", f"SD(E(2,13), matgrp(2,13,[{swap}]))",
                         "--complement")
    assert code == 3
    assert out == ""
    assert "cap" in err


def test_exit_code_oversized_semidirect_product_before_its_tables(capsys, monkeypatch):
    # each action table of matgrp(2,13,...) looks up all 8,192 elements of
    # E(2,13); the order cap is known before any table is built
    looked_up = 0
    index_of = FiniteGroup.index_of

    def counted(self, value):
        nonlocal looked_up
        looked_up += len(self) == 2 ** 13
        return index_of(self, value)

    monkeypatch.setattr(FiniteGroup, "index_of", counted)
    swap = [[int(j == (1 - i if i < 2 else i)) for j in range(13)] for i in range(13)]
    code, out, err = run(capsys, "enumerate", f"SD(E(2,13), matgrp(2,13,[{swap}]))",
                         "--complement")
    assert code == 3
    assert "cap" in err
    assert looked_up == 0


def test_seed_counts_are_reported_outside_canonical_output(capsys):
    code, out, _ = run(capsys, "enumerate", "E(2,3)", "--galois", "--json")
    assert code == 0
    engine = json.loads(out)["engine"]
    # seven classes of involutions, one class under Aut(E(2,3))
    assert (engine["seeds"], engine["seeds_walked"]) == (7, 1)
    code, out, _ = run(capsys, "enumerate", "E(2,3)", "--galois")
    assert code == 0
    assert "seeds 7 (walked 1)" in out
    # a non-Galois problem finds no maps
    code, out, _ = run(capsys, "enumerate", "S(4)", "--stabilizer-of-point", "--json")
    engine = json.loads(out)["engine"]
    assert engine["seeds"] == engine["seeds_walked"] == 3


def test_walk_counts_are_reported_outside_canonical_output(capsys):
    # the involution of D(5) skips cycle lengths 5 and 10: the 5-seed
    # meets those orbits
    code, out, _ = run(capsys, "enumerate", "D(5)", "--galois", "--json")
    assert code == 0
    engine = json.loads(out)["engine"]
    assert (engine["walks"], engine["walks_skipped"]) == (4, 2)
    code, out, _ = run(capsys, "enumerate", "D(5)", "--galois")
    assert "walks 4 (skipped 2)" in out
    # a 2-group has one prime: nothing is skipped
    code, out, _ = run(capsys, "enumerate", "E(2,3)", "--galois", "--json")
    engine = json.loads(out)["engine"]
    assert (engine["walks"], engine["walks_skipped"]) == (3, 0)


def test_engine_block_of_a_primitive_prime_power_row(capsys):
    # E(3,2) under an irreducible C4 is primitive at degree 9: stage 1
    # walks cycle length 3 alone (both stages took 373 nodes), and each
    # length the route leaves out counts as skipped
    code, out, _ = run(capsys, "enumerate", "SD(E(3,2), matgrp(3,2,[[[0,1],[-1,0]]]))",
                       "--complement", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["stats"]["structure_count"] == doc["stats"]["minimal_count"] == 1
    engine = doc["engine"]
    del engine["elapsed_s"]
    assert engine == {"degree_cap": DEGREE_CAP, "node_budget": 10_000_000,
                      "nodes": 151, "seeds": 3, "seeds_walked": 3,
                      "walks": 2, "walks_skipped": 4}


def test_engine_block_holds_the_budget_counters(capsys):
    report = classify(ExtensionProblem.galois(dihedral(5)))
    counters = NodeBudget().counters()
    assert set(report.engine) == set(counters)
    code, out, _ = run(capsys, "enumerate", "D(5)", "--galois", "--json")
    assert code == 0
    engine = json.loads(out)["engine"]
    assert {k: engine[k] for k in counters} == report.engine
    code, out, _ = run(capsys, "enumerate", "D(5)", "--galois", "--canonical")
    assert code == 0
    assert not set(json.loads(out)["engine"]) & set(counters)


def test_canonical_output_leaves_out_the_seed_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "E(2,3)", "--galois", "--canonical")
    assert code == 0
    assert json.loads(out)["engine"] == {"degree_cap": DEGREE_CAP,
                                         "node_budget": 10_000_000}
    assert run(capsys, "enumerate", "E(2,3)", "--galois", "--canonical")[1] == out


def test_exit_code_budget(capsys, monkeypatch):
    monkeypatch.setenv("HG_NODE_BUDGET", "10")
    code, out, err = run(capsys, "enumerate", "C(8)", "--galois", "--canonical")
    assert code == 3
    assert "budget" in err
    assert out == ""  # no partial report on error


@pytest.mark.parametrize("raw", ["0", "-5", "ten"])
def test_exit_code_budget_not_positive(capsys, monkeypatch, raw):
    # a usage error, not an exhausted search
    monkeypatch.setenv("HG_NODE_BUDGET", raw)
    code, out, err = run(capsys, "enumerate", "C(8)", "--galois")
    assert code == 1
    assert out == ""
    assert "HG_NODE_BUDGET must be a positive integer" in err
    assert "exhausted" not in err


def test_exit_code_malformed_sd_action():
    # SD checks its action's arguments before it reads p and k from them,
    # so a malformed matgrp(...) is a usage error, not a Python traceback
    src = str(Path(hopfgalois.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-m", "hopfgalois", "enumerate",
                          "SD(E(2,2), matgrp())", "--complement"],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 1 and run.stdout == ""
    assert run.stderr.startswith("error: matgrp(p, k, [matrices]) expected")
    assert "Traceback" not in run.stderr


def test_exit_code_syntax_error(capsys):
    code, _, err = run(capsys, "enumerate", "Hol(E(3,2)", "--galois")
    assert code == 1
    assert "line 1" in err


def test_flag_validation(capsys):
    code, _, err = run(capsys, "enumerate", "C(8)")
    assert code == 1 and "exactly one" in err
    code, _, err = run(capsys, "enumerate", "C(8)", "--galois",
                       "--stabilizer-of-point")
    assert code == 1
    code, _, err = run(capsys, "enumerate", "C(8)", "--stabilizer-of-point")
    assert code == 1 and "permutation group" in err


def test_usage_errors_exit_1(capsys):
    code, out, err = run(capsys, "enumerate", "C(8)", "--galois", "--workers", "2")
    assert code == 1
    assert out == ""
    assert "unrecognized arguments" in err
    code, out, err = run(capsys, "enumerate")
    assert code == 1
    assert out == ""
    assert "required" in err


def test_help_exits_0(capsys):
    code, out, _ = run(capsys, "enumerate", "--help")
    assert code == 0
    assert "--galois" in out


def test_one_parser_serves_every_call(capsys):
    # the parser is built once per process: a usage error leaves it usable,
    # and a row run twice after it prints the same bytes
    assert run(capsys, "enumerate", "C(8)", "--galois", "--workers", "2")[:2] == (1, "")
    first, again = (run(capsys, "enumerate", "S(4)", "--stabilizer-of-point",
                        "--canonical") for _ in range(2))
    assert first[0] == 0 and first[1]
    assert first == again
    assert run(capsys, "enumerate", "--help")[0] == 0
    assert _parser() is _parser()


def test_help_names_what_canonical_drops(capsys):
    code, out, _ = run(capsys, "enumerate", "--help")
    assert code == 0
    canonical = " ".join(out.split("--canonical")[-1].split("--degree-cap")[0].split())
    assert "elapsed time" in canonical
    counters = canonical.split("engine counters (")[1].split(")")[0]
    assert counters.split(", ") == list(NodeBudget().counters())


def test_canonical_json_is_byte_stable_across_runs(capsys):
    outputs = set()
    for _ in range(3):
        code, out, _ = run(capsys, "enumerate", "C(8)", "--galois", "--canonical")
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1
    doc = json.loads(outputs.pop())
    assert "elapsed_s" not in doc["engine"]
    assert "nodes" not in doc["engine"]


@pytest.mark.parametrize("row", ["D(5)", "E(2,3)"])
def test_engine_counters_repeat_across_hash_seeds(row):
    # the node count repeats from process to process: stage 2 walks the
    # frozensets of image tuples it forms, whose hashes take no salt
    src = str(Path(hopfgalois.__file__).resolve().parents[1])
    docs = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        run = subprocess.run([sys.executable, "-m", "hopfgalois", "enumerate", row,
                              "--galois", "--json"], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        doc = json.loads(run.stdout)
        del doc["engine"]["elapsed_s"]
        docs.append((doc["engine"], doc["structures"]))
    assert docs[0] == docs[1]
    assert docs[0][0]["nodes"] > 0


def test_catalog_all(capsys):
    code, out, _ = run(capsys, "catalog", "all")
    assert code == 0
    for name in ("example1", "example2", "example3", "example4", "example5",
                 "example6"):
        assert f"fixture {name}: PASS" in out


def test_catalog_single_json(capsys):
    code, out, _ = run(capsys, "catalog", "example1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["fixture"] == "example1" and doc["pass"] is True


def test_catalog_example5_other_group(capsys):
    code, out, _ = run(capsys, "catalog", "example5", "--n", "Q(8)")
    assert code == 0
    assert "conjugation identity" in out


def test_catalog_unknown_fixture(capsys):
    code, _, err = run(capsys, "catalog", "example9")
    assert code == 1
    assert "unknown fixture" in err

"""Command-line interface: enumerate structures, reproduce the example catalog.

Exit codes: 0 success, 2 the pair does not model a normal closure, 3 a size
cap or the search budget was exhausted, 1 anything else (usage error, bad
expression, unknown fixture, expectation mismatch).  Diagnostics go to
stderr; reports go to stdout.  The environment variable HG_NODE_BUDGET, a
positive integer, overrides the search budget; any other value is a usage
error, as is a --degree-cap below 2, the least degree of an extension.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from .dsl import DslError, Gens, build_text, parse
from .engine import (DEGREE_CAP, DEFAULT_NODE_BUDGET, ExtensionProblem, HGStructure,
                     NodeBudget, translation_structure)
from .errors import BudgetExceeded, CapExceeded, NotNormalClosure
from .groups import (FiniteGroup, alternating, are_isomorphic,
                     automorphism_group, holomorph, holomorph_copies,
                     inner_automorphism, symmetric)
from .minimality import (ClassificationReport, classify,
                         intermediate_subgroups, is_minimal,
                         minimal_lower_bound)
from .perms import from_cycles

SCHEMA_VERSION = 1


def _budget_from_env() -> int:
    raw = os.environ.get("HG_NODE_BUDGET")
    if raw is None:
        return DEFAULT_NODE_BUDGET
    try:
        limit = int(raw)
    except ValueError:
        limit = 0  # refused below, with the non-positive values
    if limit < 1:
        raise ValueError(f"HG_NODE_BUDGET must be a positive integer, got {raw!r}")
    return limit


def _problem(built, mode: str, subgroup_text: str | None = None) -> ExtensionProblem:
    """The extension problem on the built group G for one choice of G': mode
    is "galois", "stabilizer_of_point", "complement" or "subgroup", the last
    with the generators text of G'."""
    group = built.group
    if mode == "galois":
        return ExtensionProblem.galois(group)
    if mode == "stabilizer_of_point":
        if group.perm_degree is None:
            raise ValueError("--stabilizer-of-point needs a permutation group "
                             "(S(m), A(m) or gens[...])")
        members = [i for i in range(len(group)) if group.raw(i)[0] == 0]
        return ExtensionProblem(group, group.subgroup(members))
    if mode == "complement":
        if built.complement is None:
            raise ValueError("--complement needs an SD(...) or Hol(...) expression")
        return ExtensionProblem(group, built.complement)
    # --subgroup "gens[...]", read on G's points
    if group.perm_degree is None:
        raise ValueError("--subgroup gens[...] needs a permutation group")
    node = parse(subgroup_text)
    if not isinstance(node, Gens):
        raise ValueError(f"--subgroup takes gens[...], got {subgroup_text!r}")
    try:
        gens = [group.index_of(from_cycles(group.perm_degree, cs))
                for cs in node.perms]
    except KeyError:
        raise ValueError("subgroup generators do not lie in the group")
    return ExtensionProblem(group, group.subgroup(group.closure_of(gens)))


def _structure_document(s: HGStructure) -> dict:
    # |N_B| = |B|: the lattice's orders are the sizes of its blocks
    orders = sorted(len(b) for i, b in enumerate(s.problem.blocks)
                    if s.lattice_bits >> i & 1)
    return {
        "type": s.type_name,
        "generators": s.generator_strings(),
        "minimal": is_minimal(s),
        "subhopf_count": len(orders),
        "stable_subgroup_orders": orders,
    }


def _report_document(expr_text: str, subgroup_desc: str, report: ClassificationReport,
                     *, degree_cap: int, budget_limit: int,
                     elapsed: float | None, canonical: bool = False) -> dict:
    problem = report.problem
    doc = {
        "schema": SCHEMA_VERSION,
        "problem": {
            "group": expr_text,
            "group_order": len(problem.group),
            "subgroup": subgroup_desc,
            "subgroup_order": problem.subgroup.order,
            "degree": problem.degree,
        },
        "structures": [_structure_document(s) for s in report.structures],
        "stats": {
            "structure_count": report.structure_count,
            "minimal_count": report.minimal_count,
            "intermediate_count": report.intermediate_count,
            "normal_complement_bound": report.normal_complement_bound,
        },
        "engine": {
            "degree_cap": degree_cap,
            "node_budget": budget_limit,
        },
    }
    # Nodes and elapsed time measure the engine, not the answer; canonical
    # mode leaves them out so the output is byte-identical across runs.
    if not canonical:
        doc["engine"].update(report.engine)
        if elapsed is not None:
            doc["engine"]["elapsed_s"] = round(elapsed, 6)
    return doc


def _print_json(doc) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _print_human(doc: dict) -> None:
    p = doc["problem"]
    print(f"problem: G = {p['group']} (order {p['group_order']}), "
          f"G' = {p['subgroup']} (order {p['subgroup_order']}), degree {p['degree']}")
    stats = doc["stats"]
    print(f"structures: {stats['structure_count']} (minimal: {stats['minimal_count']})")
    for i, s in enumerate(doc["structures"], start=1):
        flag = "minimal" if s["minimal"] else "not minimal"
        gens = ", ".join(s["generators"])
        print(f"  [{i}] type {s['type']:<12} {flag:<12} "
              f"sub-Hopf count {s['subhopf_count']}  N = <{gens}>")
    print(f"stats: intermediate subgroups {stats['intermediate_count']}, "
          f"normal-complement bound {stats['normal_complement_bound']}")
    eng = doc["engine"]
    elapsed = f", elapsed {eng['elapsed_s']}s" if "elapsed_s" in eng else ""
    print(f"engine: degree cap {eng['degree_cap']}, nodes {eng['nodes']}, "
          f"seeds {eng['seeds']} (walked {eng['seeds_walked']}), "
          f"walks {eng['walks']} (skipped {eng['walks_skipped']}), "
          f"budget {eng['node_budget']}{elapsed}")


def cmd_enumerate(args) -> int:
    budget_limit = _budget_from_env()
    if args.degree_cap < 2:
        raise ValueError("--degree-cap must be at least 2, the least degree "
                         f"of an extension, got {args.degree_cap}")
    built = build_text(args.group)
    chosen = [f for f in ("galois", "stabilizer_of_point", "complement", "subgroup")
              if getattr(args, f)]
    if len(chosen) != 1:
        raise ValueError("exactly one of --galois, --stabilizer-of-point, "
                         "--complement, --subgroup is required")
    mode = chosen[0]
    problem = _problem(built, mode, args.subgroup)
    budget = NodeBudget(budget_limit)
    start = time.perf_counter()
    report = classify(problem, degree_cap=args.degree_cap, budget=budget)
    elapsed = None if args.canonical else time.perf_counter() - start
    subgroup_desc = args.subgroup or mode.replace("_", "-")
    doc = _report_document(args.group, subgroup_desc, report,
                           degree_cap=args.degree_cap, budget_limit=budget_limit,
                           elapsed=elapsed, canonical=args.canonical)
    if args.json or args.canonical:
        _print_json(doc)
    else:
        _print_human(doc)
    return 0


# -- catalog fixtures -----------------------------------------------------
#
# Each fixture runs a classification (or a direct identity suite) and
# compares against stored expected values; any mismatch makes the whole
# command exit nonzero.


def _check(checks: list, name: str, expected, actual) -> None:
    checks.append({"name": name, "expected": expected, "actual": actual,
                   "pass": expected == actual})


def _classify_text(expr: str, mode: str, budget: NodeBudget):
    return classify(_problem(build_text(expr), mode), budget=budget)


def _fixture_example1(budget: NodeBudget, _args) -> list[dict]:
    checks: list[dict] = []
    for expr, mode, n, typ in [("C(2)", "galois", 2, "C2"),
                               ("S(3)", "stabilizer_of_point", 3, "C3"),
                               ("S(4)", "stabilizer_of_point", 4, "E(2,2)")]:
        rep = _classify_text(expr, mode, budget)
        _check(checks, f"{expr} degree {n}: one structure", 1, rep.structure_count)
        _check(checks, f"{expr} degree {n}: one minimal", 1, rep.minimal_count)
        _check(checks, f"{expr} degree {n}: type", [typ], rep.types())
    return checks


def _fixture_example2(budget: NodeBudget, _args) -> list[dict]:
    checks: list[dict] = []
    rep = _classify_text("C(8)", "galois", budget)
    _check(checks, "Galois C8: six structures", 6, rep.structure_count)
    _check(checks, "Galois C8: types 2+2+2", ["C8", "C8", "D4", "D4", "Q8", "Q8"],
           sorted(rep.types()))
    _check(checks, "Galois C8: none minimal", 0, rep.minimal_count)
    rep = _classify_text("D(3)", "galois", budget)
    _check(checks, "Galois D3: no minimal structure", 0, rep.minimal_count)
    _check(checks, "Galois D3: five structures", 5, rep.structure_count)
    _check(checks, "Galois D3: types", ["C6", "C6", "C6", "S3", "S3"],
           sorted(rep.types()))
    return checks


def _fixture_example3(budget: NodeBudget, _args) -> list[dict]:
    # degree-4 problem with dihedral closure group and cyclic normal complement
    checks: list[dict] = []
    rep = _classify_text("gens[(0 1 2 3), (1 3)]", "stabilizer_of_point", budget)
    _check(checks, "almost cyclic degree 4: two structures", 2, rep.structure_count)
    _check(checks, "almost cyclic degree 4: types", ["C4", "E(2,2)"], sorted(rep.types()))
    _check(checks, "almost cyclic degree 4: none minimal", 0, rep.minimal_count)
    return checks


def _fixture_example4(budget: NodeBudget, _args) -> list[dict]:
    checks: list[dict] = []
    cases = [("SD(E(2,2), matgrp(2,2,[[[1,1],[1,0]]]))", 12, "E(2,2)"),
             ("SD(E(2,3), matgrp(2,3,[[[1,1,1],[1,1,0],[1,0,0]]]))", 56, "E(2,3)"),
             ("SD(E(3,2), matgrp(3,2,[[[0,1],[-1,0]]]))", 36, "E(3,2)")]
    for expr, order, typ in cases:
        built = build_text(expr)
        _check(checks, f"{expr}: order", order, len(built.group))
        rep = _classify_text(expr, "complement", budget)
        minimal_types = sorted(s.type_name for s in rep.structures if is_minimal(s))
        _check(checks, f"{expr}: minimal structure of type {typ}",
               True, typ in minimal_types)
    a4 = build_text("SD(E(2,2), matgrp(2,2,[[[1,1],[1,0]]]))").group
    _check(checks, "order-12 case is the alternating group", True,
           are_isomorphic(a4, alternating(4)))
    hol_klein = holomorph(build_text("E(2,2)").group)
    _check(checks, "Hol(E(2,2)) has order 24", 24, len(hol_klein))
    _check(checks, "Hol(E(2,2)) is S4", True, are_isomorphic(hol_klein, symmetric(4)))
    _check(checks, "Hol(C4) has order 8", 8, len(holomorph(build_text("C(4)").group)))
    return checks


def _fixture_example5(_budget: NodeBudget, args) -> list[dict]:
    checks: list[dict] = []
    expr = args.n or "S(3)"
    n = build_text(expr).group
    aut = automorphism_group(n)
    hol, translations, twisted = holomorph_copies(n)
    _check(checks, f"{expr}: translation copy is normal in Hol",
           True, translations.is_normal())
    _check(checks, f"{expr}: twisted copy is normal in Hol", True, twisted.is_normal())
    _check(checks, f"{expr}: copies distinct iff nonabelian",
           not n.is_abelian(), translations != twisted)
    _check(checks, f"{expr}: twisted copy isomorphic to the group", True,
           are_isomorphic(twisted.as_group(), n))
    # exhaustive verification up to order 24; generator triples beyond that
    exhaustive = len(n) <= 24
    xs = range(len(n)) if exhaustive else (0, *n.generators())
    ths = range(len(aut)) if exhaustive else (0, *aut.generators())
    ok = all(_conjugation_identity_holds(n, aut, hol, x, g, th)
             for x in xs for g in xs for th in ths)
    scope = "exhaustively" if exhaustive else "on generators"
    _check(checks, f"{expr}: conjugation identity holds {scope}", True, ok)
    return checks


def _conjugation_identity_holds(n: FiniteGroup, aut: FiniteGroup,
                                hol: FiniteGroup, x: int, g: int, th: int) -> bool:
    """(x,t) (g^-1, conj_g) (t^-1(x^-1), t^-1) == (t(g^-1), conj_{t(g)})."""
    t_table = aut.raw(th)
    th_inv = aut.inv(th)
    t_inv_table = aut.raw(th_inv)
    sigma_g = aut.index_of(inner_automorphism(n, g))
    left = hol.mul(hol.index_of((x, th)),
                   hol.index_of((n.inv(g), sigma_g)))
    left = hol.mul(left, hol.index_of((t_inv_table[n.inv(x)], th_inv)))
    right = hol.index_of((t_table[n.inv(g)],
                          aut.index_of(inner_automorphism(n, t_table[g]))))
    return left == right


def _fixture_example6(_budget: NodeBudget, _args) -> list[dict]:
    # N = E(2,4) under an irreducible H in GL(4,2): its only H-invariant
    # subspaces are 0 and N, so the translation structure is minimal.  No
    # full search: degree 16 is over the default degree cap.
    checks: list[dict] = []
    c5 = "[[0,0,0,1],[1,0,0,1],[0,1,0,1],[0,0,1,1]]"    # x^4+x^3+x^2+x+1
    c15 = "[[0,0,0,1],[1,0,0,1],[0,1,0,0],[0,0,1,0]]"   # x^4+x+1
    frobenius = "[[1,0,1,0],[0,0,1,0],[0,1,0,1],[0,0,0,1]]"
    for mats, order in [(c5, 80), (c15, 240), (f"{c15},{frobenius}", 960)]:
        expr = f"SD(E(2,4), matgrp(2,4,[{mats}]))"
        built = build_text(expr)
        _check(checks, f"{expr}: order", order, len(built.group))
        try:
            problem = ExtensionProblem(built.group, built.complement)
        except NotNormalClosure:
            _check(checks, f"{expr}: complement is core-free", True, False)
            continue
        _check(checks, f"{expr}: complement is core-free", True, True)
        _check(checks, f"{expr}: two intermediate subgroups", 2,
               len(intermediate_subgroups(problem)))
        base = [built.group.index_of((x, 0)) for x in range(16)]
        structure = translation_structure(problem, base)
        _check(checks, f"{expr}: translation structure type", "E(2,4)",
               structure.type_name)
        _check(checks, f"{expr}: translation structure is minimal", True,
               is_minimal(structure))
        _check(checks, f"{expr}: normal-complement bound", 1,
               minimal_lower_bound(problem))
    return checks


_FIXTURES = {
    "example1": _fixture_example1,
    "example2": _fixture_example2,
    "example3": _fixture_example3,
    "example4": _fixture_example4,
    "example5": _fixture_example5,
    "example6": _fixture_example6,
}


def cmd_catalog(args) -> int:
    names = list(_FIXTURES) if args.name == "all" else [args.name]
    for name in names:
        if name not in _FIXTURES:
            print(f"unknown fixture {name!r}; known: {', '.join(_FIXTURES)} or 'all'",
                  file=sys.stderr)
            return 1
    budget = NodeBudget(_budget_from_env())
    all_ok = True
    docs = []
    for name in names:
        checks = _FIXTURES[name](budget, args)
        ok = all(c["pass"] for c in checks)
        all_ok &= ok
        docs.append({"schema": SCHEMA_VERSION, "fixture": name, "pass": ok,
                     "checks": checks})
        if not args.json:
            print(f"fixture {name}: {'PASS' if ok else 'FAIL'}")
            for c in checks:
                mark = "ok " if c["pass"] else "FAIL"
                detail = "" if c["pass"] else \
                    f"  (expected {c['expected']!r}, got {c['actual']!r})"
                print(f"  {mark} {c['name']}{detail}")
    if args.json:
        _print_json(docs if len(docs) > 1 else docs[0])
    return 0 if all_ok else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfgalois",
        description="Enumerate and classify Hopf-Galois structures on "
                    "separable field extensions given group-theoretically.")
    sub = parser.add_subparsers(dest="command", required=True)

    enum = sub.add_parser("enumerate", help="classify one extension problem")
    enum.add_argument("group", help="group expression, e.g. 'S(4)' or 'C(8)'")
    enum.add_argument("--galois", action="store_true",
                      help="G' trivial (the extension is Galois)")
    enum.add_argument("--stabilizer-of-point", action="store_true",
                      dest="stabilizer_of_point",
                      help="G' = stabilizer of point 0 (permutation groups only)")
    enum.add_argument("--complement", action="store_true",
                      help="G' = the acting part tagged by SD(...) or Hol(...)")
    enum.add_argument("--subgroup", metavar="GENS",
                      help="G' generated by the given permutations, e.g. 'gens[(1 3)]'")
    enum.add_argument("--json", action="store_true", help="machine-readable output")
    enum.add_argument("--canonical", action="store_true",
                      help="byte-stable JSON: drops the elapsed time and the "
                           "engine counters (nodes, seeds, seeds_walked, walks, "
                           "walks_skipped)")
    enum.add_argument("--degree-cap", type=int, default=DEGREE_CAP, dest="degree_cap")
    enum.set_defaults(func=cmd_enumerate)

    cat = sub.add_parser("catalog", help="run the named example fixtures")
    cat.add_argument("name", help="example1..example6 or 'all'")
    cat.add_argument("--n", help="group expression for example5 (default S(3))")
    cat.add_argument("--json", action="store_true")
    cat.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its message; exit 2 is reserved for a pair
        # that does not model a normal closure, so a usage error returns 1.
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except NotNormalClosure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CapExceeded, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DslError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

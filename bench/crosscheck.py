"""One-time cross-check of the expected table against the independent
transversal engine.

For every corpus row of degree <= 8, enumerate the structures with
`enumerate_via_transversal` instead of the orbit search, name and judge
them with the package's public API, and compare with the hand-written
row.  Run from the repository root:

    python3 bench/crosscheck.py

Exits 1 if any row disagrees.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hopfgalois as hg  # noqa: E402
from hopfgalois import dsl  # noqa: E402

from corpus import WORKLOADS  # noqa: E402


def main() -> int:
    bad = 0
    for workload, rows in WORKLOADS.items():
        for row in rows:
            problem = row.build(hg, dsl)
            if problem.degree > 8:
                continue
            action = hg.coset_action(problem)
            found = [hg.HGStructure(action, perms)
                     for perms in hg.enumerate_via_transversal(action)]
            got = (len(found), sum(hg.is_minimal(s) for s in found),
                   dict(Counter(s.type_name for s in found)))
            want = (row.structures, row.minimal, row.types)
            ok = got == want
            bad += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {workload:8s} {row.label}: "
                  f"{got[0]} structures, {got[1]} minimal, types {got[2]}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

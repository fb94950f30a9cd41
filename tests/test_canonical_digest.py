"""Byte-identical output as a tier-1 check: the sha256 of
`hopfgalois enumerate <row> --canonical` for every row of the benchmark
corpus (bench/corpus.py, loaded from its file and only read), of four
degree-12 rows, and of `hopfgalois catalog all --json`.

The digests were recorded from the implementation before image tuples became
its only permutation representation.  A change that alters any canonical
output, even by one byte, fails here and names the row; a deliberate change
of output must record new digests and say why.
"""

from __future__ import annotations

import hashlib

import pytest

from hopfgalois.cli import main
from test_corpus import ROWS

CANONICAL_SHA256 = {
    "D(5) --galois":
        "1ffeefdf55c65d2d862bb8acd9cd99521a7b105f74a00b4aa4ae7fd50b321509",
    "C(10) --galois":
        "3505b291375278498560a4db0fee82fe8a14a98ae06df9a2581aa773db074b8d",
    "C(9) --galois":
        "66bfc65e246da90e189b0ac5364fe6bd99728a3cd0afadf6766ded38b2a48fdc",
    "C(3) x C(3) --galois":
        "4e1e8ba763b1e7f210c2ba1cf70d899e0539fe182fd369763f5e32289e94f76a",
    "Hol(C(9)) --complement":
        "9e5385fe212f851928f57347545ebc8942a6fc05121499f3162091b51cfba40f",
    "SD(E(3,2), matgrp(3,2,[[[0,1],[-1,0]]])) --complement":
        "ff7e82c97526d0ee21e8307c11252d23e34b56c8c3c639f526ab55e78fc20538",
    "S(5) --subgroup gens[(0 1), (2 3 4), (2 3)]":
        "b2cb5cdb5b9d61b745ca1aa54c5de0bed24558a3d686c180cc3104c038b3ae33",
    "A(6) --stabilizer-of-point":
        "d6625145b9b4a2575a9687466a5dcb2aed24e8481de5b7f5e1a753ffed40a182",
    "S(5) --stabilizer-of-point":
        "27f499f34eb2e5562ad2259076b12295bbef156fe4ec1578e10f417ab47063c3",
    "A(5) --stabilizer-of-point":
        "b6daa4ed0fd8153cb89d006404d674c0be3b80ae3a17be5a9ad4b3601616df6c",
    "Hol(E(3,2)) --complement":
        "55695bae2bbdb4be94db929478fb325f783dbfc754ee2c904d077ec19c386fbb",
    "E(2,3) --galois":
        "cea4c8fad43e204f8d6dec068173cfa19daa11db35bbf12303210896b2aadffd",
    "D(4) --galois":
        "f8999dc20f82b71eacb1410dd39ca6350a4dac5ae4465fdecda8efe29802caf8",
    "Q(8) --galois":
        "36c92b8d916eca1cd3b7c431cb4f03fb842e0973c53572876e185d9f9ed2e85e",
    "C(2) x C(4) --galois":
        "2ba1320621fcb14630aa9f1c929bbe46d9a51299f91d8e7406d89cd2efe14dab",
    "C(8) --galois":
        "478eae26d5f7a61dc7cbd25a002e66744323b0451dd5b45aedfd955d5c061edb",
    "D(3) --galois":
        "e3cfc1f9faa14b70c87052b1421ab9c4dba2c4ea39c1bf73de7fe4f149dd4ad5",
    "S(4) --stabilizer-of-point":
        "2bc8eb5684a7792ac97e90c5849acdd96e5df63684a6c33802cffec067c68518",
    "gens[(0 1 2 3), (1 3)] --stabilizer-of-point":
        "8332493ace46630d2c50429063dad7138d959263235e679e2bbd9ea78a2ec00b",
    "SD(E(2,2), matgrp(2,2,[[[1,1],[1,0]]])) --complement":
        "c4f8bb7a26f9158788cc811dad9cf15a8f5a2cb5fbf3e02b15d3f1f4f01ad300",
    "SD(E(2,3), matgrp(2,3,[[[1,1,1],[1,1,0],[1,0,0]]])) --complement":
        "04c72c2bf69e0b34c1a5a7f9e218d00ae479f7c9ae5194f78d72b935bb18b34d",
}

# Degree 12, past the corpus (which stops at degree 10); recorded before the
# search pruned on point-0 collisions, the rule that changes the most work here.
DEGREE_12_SHA256 = {
    "C(12) --galois":
        "c5df988015041a9da464fd9210045b1649c5e61c790bf10a3868e66846e0aa13",
    "A(4) --galois":
        "d21fd910ee4699a5473d96ade22a8f1b1f68ea718ab34b78a271ff7ccb7585a7",
    "D(6) --galois":
        "63a1f5de9c8d13c5122f4171c4c37356717b2e41fef45b93b22b228ae9bfc994",
    "S(6) --subgroup gens[(0 1 2 3 4), (0 5)(1 4)]":
        "1d624ceec80b42c1e7c1d242398b353e8bb858e234c1c10922f2f122eea8389e",
}

# re-recorded when the example6 fixture was added: the output before it is
# byte-identical to the previous recording, and example6 is appended last
CATALOG_ALL_JSON_SHA256 = "44425b9bd0efbe3c57edaa7d1dd548bdbf60750c962a2e3a513e573aaab2d6bc"


def _stdout_digest(capsys, argv) -> str:
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("row", [row for _, row in ROWS], ids=lambda row: row.label)
def test_canonical_output_digest(capsys, row):
    argv = ["enumerate", row.expr, *row.flags, "--canonical"]
    assert _stdout_digest(capsys, argv) == CANONICAL_SHA256[row.label]


@pytest.mark.parametrize("label", sorted(DEGREE_12_SHA256))
def test_degree_12_output_digest(capsys, label):
    expr, flag, *rest = label.split(" ", 2)
    argv = ["enumerate", expr, flag, *rest, "--canonical"]
    assert _stdout_digest(capsys, argv) == DEGREE_12_SHA256[label]


def test_catalog_all_json_digest(capsys):
    assert _stdout_digest(capsys, ["catalog", "all", "--json"]) == CATALOG_ALL_JSON_SHA256

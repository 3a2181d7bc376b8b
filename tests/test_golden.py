"""Golden reports: CLI stdout and one quadratic dual, byte for byte.

The `hilbert`, `purity` and `koszul` fixtures under tests/fixtures/golden were
captured from the Fraction-based echelon that the fraction-free integer kernel
replaced; the `nests` and `blowup-validate` fixtures from the general
arrangement lattice that the tabulated partition lattice replaced; the
`deltafin-check` and `nests --d 2` fixtures from the library that still
re-proved every forest morphism and searched for nests with is_nest; the
`strata` report and DOT file from the pairwise cover search, and the
`hilbert` report on a JSON descriptor from the loader before it checked shapes.
The impure-descriptor `hilbert` report (a seeded descriptor whose H^2 has
weight 3) was captured from the rank loop before standard monomials were
counted; it pins `pure: false`, every weight multiset and the
`first_violation` witness.  The full `forests --n 5` report (which pins the
enumeration order), the DOT file of forest 51 at n = 4 and the (3, 3)
functor report were captured from the label-based chains and forests that
the position tables and block bitmasks replaced.  The nest-poset DOT file
at n = 4 (which pins its node numbering), `blowup-validate --n 6`, an order
written in lenient forms (blocks and labels unsorted, singleton and empty
blocks) and `forget-centers` on string labels were captured from the
label-tuple partitions and tabulated lattice that block bitmasks replaced.
The `--selftest` output of every subcommand (its check names and counts) was
captured before the unused names, methods and parameters were deleted.  Any change to exact-rank
arithmetic, the standard-monomial count, the lattice, the level functor,
the forest or nest enumeration, the strata covers, the partitions or the loaders must
reproduce them exactly.
"""

import json
from pathlib import Path

import pytest

from confstrata.cli import main
from confstrata.confcat import strata_poset
from confstrata.koszul import presentation_from_json, presentation_to_json, quadratic_dual

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "fixtures" / "golden"
RATIONAL = "tests/fixtures/koszul_rational_presentation.json"
PAIRS_FIRST = "tests/fixtures/blowup_order_pairs_first_n4.json"
STRING_CHAIN = "tests/fixtures/chain_string_labels.json"
AFFINE_LINE = "tests/fixtures/affine_line_descriptor.json"
IMPURE = "tests/fixtures/impure_descriptor_seed1.json"
LENIENT_ORDER = "tests/fixtures/blowup_order_lenient_n3.json"
STRING_INJECTION = "tests/fixtures/injection_string_labels.json"

REPORTS = [
    ("hilbert_elliptic_n4_deg8.json",
     ["hilbert", "--variety", "elliptic", "--n", "4", "--max-deg", "8"]),
    ("purity_elliptic_n3_deg12.json",
     ["purity", "--variety", "elliptic", "--n", "3", "--max-deg", "12"]),
    ("koszul_exterior6_deg6.json",
     ["koszul", "--presentation", "exterior-6", "--max-deg", "6"]),
    ("koszul_rational_deg6.json",
     ["koszul", "--presentation", RATIONAL, "--max-deg", "6"]),
    ("nests_n4.json", ["nests", "--n", "4"]),
    ("blowup_validate_n5.json", ["blowup-validate", "--n", "5"]),
    ("blowup_validate_n4_d2.json", ["blowup-validate", "--n", "4", "--d", "2"]),
    ("blowup_validate_n4_pairs_first.json",
     ["blowup-validate", "--n", "4", "--order", PAIRS_FIRST]),
    ("nests_n4_d2.json", ["nests", "--n", "4", "--d", "2"]),
    ("deltafin_check_functor_l2_s2_seed1.json",
     ["deltafin-check", "--max-level", "2", "--max-size", "2", "--functor",
      "--samples", "300", "--seed", "1"]),
    ("deltafin_check_functor_l3_s2_uncapped_seed1.json",
     ["deltafin-check", "--max-level", "3", "--max-size", "2", "--functor", "--unsafe-no-cap",
      "--samples", "300", "--seed", "1"]),
    ("deltafin_check_functor_l3_s3_uncapped_seed11.json",
     ["deltafin-check", "--max-level", "3", "--max-size", "3", "--functor",
      "--samples", "300", "--seed", "11", "--unsafe-no-cap"]),
    ("deltafin_check_chain_string_labels.json", ["deltafin-check", "--chain", STRING_CHAIN]),
    ("forests_n5.json", ["forests", "--n", "5"]),
    ("strata_n4.json", ["strata", "--n", "4"]),
    ("hilbert_affine_line_json_n2_deg4.json",
     ["hilbert", "--variety", AFFINE_LINE, "--n", "2", "--max-deg", "4"]),
    ("hilbert_impure_seed1_n3_deg8.json",
     ["hilbert", "--variety", IMPURE, "--n", "3", "--max-deg", "8"]),
    ("blowup_validate_n6.json", ["blowup-validate", "--n", "6"]),
    ("blowup_validate_n3_lenient.json", ["blowup-validate", "--n", "3", "--order", LENIENT_ORDER]),
    ("forget_centers_string_labels.json", ["forget-centers", "--injection", STRING_INJECTION]),
]


@pytest.mark.parametrize("name,argv", REPORTS, ids=[name for name, _ in REPORTS])
def test_report_matches_golden(name, argv, capsys, monkeypatch):
    # the report records an input path as given, so run from the root
    monkeypatch.chdir(ROOT)
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


def test_rational_dual_matches_golden():
    p = presentation_from_json(json.loads((ROOT / RATIONAL).read_text()))
    body = json.dumps(presentation_to_json(quadratic_dual(p)), sort_keys=True, indent=2) + "\n"
    assert body == (GOLDEN / "koszul_rational_dual.json").read_text()


def test_strata_dot_matches_golden():
    assert strata_poset(4).to_dot() == (GOLDEN / "strata_n4.dot").read_text()


def test_forest_dot_matches_golden(tmp_path, capsys):
    dot = tmp_path / "forest.dot"
    assert main(["forests", "--n", "4", "--dot", str(dot), "--index", "51"]) == 0
    capsys.readouterr()
    assert dot.read_text() == (GOLDEN / "forests_n4_index51.dot").read_text()


def test_nest_poset_dot_matches_golden(tmp_path, capsys):
    dot = tmp_path / "nests.dot"
    assert main(["nests", "--n", "4", "--dot", str(dot)]) == 0
    capsys.readouterr()
    assert dot.read_text() == (GOLDEN / "nests_n4.dot").read_text()


SELFTESTS = ["forests", "nests", "strata", "deltafin-check", "blowup-validate", "forget-centers",
             "purity", "hilbert", "koszul"]


@pytest.mark.parametrize("command", SELFTESTS)
def test_selftest_matches_golden(command, capsys):
    assert main([command, "--selftest"]) == 0
    golden = GOLDEN / f"selftest_{command.replace('-', '_')}.txt"
    assert capsys.readouterr().out == golden.read_text()

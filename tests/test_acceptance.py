"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Runnable standalone (python tests/test_acceptance.py) or under pytest
(pytest -s shows the lines).  Every tolerance is exact; the only numeric
guards are the stated runtime caps.
"""

import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from confstrata import checks
from confstrata.confcat import Stratum, stratum_codim, stratum_intersect
from confstrata.finchains import FiniteSet
from confstrata.forests import (
    Forest,
    enumerate_forests,
    from_poset,
    is_forest,
    poset_violations,
    to_poset,
)
from confstrata.koszul import (
    exterior_presentation,
    genus_one_presentation,
    koszul_criterion,
    symmetric_presentation,
)
from confstrata.weights import (
    HypothesisRefusal,
    VarietyDescriptor,
    WeightMultiset,
    affine_line,
    conf2_purity_report,
    elliptic_curve,
    hilbert_series,
    presentation,
    purity_theorem_check,
    thom_relative,
)
from confstrata.wonderful import (
    BlowUpSchedule,
    default_order,
    diagonal,
    diagonal_building_set,
    enumerate_nests,
    first_invalid_prefix,
    is_nest,
    nest_count,
    nest_to_forest,
    validate_li_order,
)


def _verdict(number, name, ok, detail=""):
    line = f"ACCEPTANCE {number} [{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def nests_by_search(n):
    """Nests from the definition: depth-first extension of member lists, each checked by is_nest.

    The library reads nests off forests; this search shares no code with that path.
    """
    bset = diagonal_building_set(n)
    members = sorted(bset.members)
    out = []

    def extend(prefix, start):
        out.append(frozenset(prefix))
        for idx in range(start, len(members)):
            candidate = prefix + [members[idx]]
            if is_nest(bset.lattice, bset, candidate):
                extend(candidate, idx + 1)

    extend([], 0)
    return out


def test_criterion_1_forest_nest_bijection():
    start = time.monotonic()
    ok = True
    counts = []
    for n in range(1, 6):
        forests = enumerate_forests(n)
        searched = nests_by_search(n)
        counts.append(len(forests))
        ok = ok and len(forests) == nest_count(n) == len(searched) == len(set(searched))
        ok = ok and set(enumerate_nests(n)) == set(searched)
        ok = ok and {nest_to_forest(n, nest) for nest in searched} == set(forests)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60
    _verdict(1, "forest/nest bijection n=1..5", ok,
             f"counts {counts}, {elapsed:.1f}s")


def test_criterion_2_poset_round_trip():
    start = time.monotonic()
    ok = True
    checked = 0
    for n in range(1, 5):
        for phi in enumerate_forests(n):
            poset = to_poset(phi)
            ok = ok and not poset_violations(poset.elements, poset.less)
            ok = ok and from_poset(poset) == phi
            checked += 1
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10
    _verdict(2, "poset characterization round-trip, forests on <=4 elements", ok,
             f"{checked} forests, {elapsed:.1f}s")


def test_criterion_3_functoriality():
    start = time.monotonic()
    identities = checks.check_simplicial_identities(3, 3, samples=200, sample_size=4, seed=1)
    functor = checks.check_level_functor(3, 3, pair_samples=1000, seed=1)
    elapsed = time.monotonic() - start
    ok = identities.ok and functor.ok and elapsed < 30
    _verdict(3, "simplicial identities + F/con composition, k<=3 |S|<=3", ok,
             f"{identities.checked}+{functor.checked} checks, {elapsed:.1f}s")


def test_criterion_4_stratum_calculus():
    ok = True
    for n in range(1, 6):
        for phi in enumerate_forests(n):
            ok = ok and stratum_codim(phi) == sum(1 for b in phi.blocks if len(b) > 1)
    pairs = 0
    for n in range(1, 5):
        ground = FiniteSet(range(1, n + 1))
        for phi, psi in itertools.product(enumerate_forests(n), repeat=2):
            pairs += 1
            union = set(phi.blocks) | set(psi.blocks)
            expected = (Stratum(Forest(ground, union))
                        if is_forest(ground, union) else None)
            ok = ok and stratum_intersect(phi, psi) == expected
    _verdict(4, "stratum codimension and intersection law", ok, f"{pairs} pairs")


def test_criterion_5_li_ordering():
    ok = True
    for n in range(2, 6):
        schedule = default_order(diagonal_building_set(n, 1))
        ok = ok and validate_li_order(schedule)
    bad = BlowUpSchedule(
        diagonal_building_set(3, 1),
        [diagonal([1, 2]), diagonal([1, 3]), diagonal([2, 3]), diagonal([1, 2, 3])])
    ok = ok and not validate_li_order(bad)
    ok = ok and first_invalid_prefix(bad) == 3
    _verdict(5, "increasing-dimension blow-up orders prefix-validate, n<=5", ok)


def test_criterion_6_thom_purity_ledger():
    e = elliptic_curve()
    betti = {0: 1, 1: 2, 2: 1}
    ok = True
    for k in range(2, 7):
        expected = (WeightMultiset({k: betti[k - 2]}) if k - 2 in betti
                    else WeightMultiset.empty())
        ok = ok and thom_relative(e, k) == expected
    report = conf2_purity_report(e)
    ok = ok and report.pure and report.weight == 2
    ok = ok and report.relative[2] == WeightMultiset({2: 1})
    ok = ok and report.relative[3] == WeightMultiset({3: 2})
    ok = ok and report.ker_alpha == WeightMultiset({2: 6})
    _verdict(6, "Thom multiplicities and two-point purity ledger (elliptic)", ok)


def test_criterion_7_hilbert_oracle():
    start = time.monotonic()

    def oracle(n, max_deg):
        dims = [0] * (max_deg + 1)
        for r in range(n):
            for combo in itertools.combinations(range(2, n + 1), r):
                count = 1
                for j in combo:
                    count *= j - 1
                if 2 * r <= max_deg:
                    dims[2 * r] += count
        return dims

    line = affine_line()
    ok = hilbert_series(presentation(line, 2), 2).dims() == [1, 0, 1]
    ok = ok and hilbert_series(presentation(line, 3), 4).dims() == [1, 0, 3, 0, 2]
    for n in (2, 3, 4):
        ok = ok and hilbert_series(presentation(line, n), 8).dims() == oracle(n, 8)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120
    _verdict(7, "Hilbert oracle vs distinct-second-index count, n<=4 deg<=8", ok,
             f"{elapsed:.1f}s")


def test_criterion_8_purity_theorem():
    ok = True
    e = elliptic_curve()
    for n in (1, 2, 3):
        ok = ok and purity_theorem_check(e, n, 8).pure
    line = affine_line()
    for n in (1, 2, 3, 4):
        ok = ok and purity_theorem_check(line, n, 8).pure
    corrupted = VarietyDescriptor(
        "corrupted", 1, {0: {0: 1}, 1: {0: 2}, 2: {2: 1}}, True)
    refused = False
    try:
        purity_theorem_check(corrupted, 2, 8)
    except HypothesisRefusal as exc:
        refused = bool(exc.violations)
    ok = ok and refused
    _verdict(8, "purity theorem check (elliptic n<=3, affine n<=4, deg<=8) + refusal", ok)


def test_criterion_9_koszul_criterion():
    ok = True
    genus1 = koszul_criterion(genus_one_presentation(), 10)
    ok = ok and genus1.passed and genus1.product == (1,) + (0,) * 10
    for g in range(1, 5):
        ok = ok and koszul_criterion(symmetric_presentation(g), 10).passed
        ok = ok and koszul_criterion(exterior_presentation(g), 10).passed
    _verdict(9, "Koszul criterion: genus-1 through t^10, symmetric/exterior g<=4", ok)


# in cap, and each ran past 45 s before standard monomials were counted
IN_CAP_GUARDS = [
    (["purity", "--variety", "elliptic", "--n", "6", "--max-deg", "40"],
     lambda result: result["verdict"] == "pure"),
    (["hilbert", "--variety", "elliptic", "--n", "6", "--max-deg", "14"],
     lambda result: result["report"]["pure"]),
]
GUARD_SECONDS = 3.0


def _run_cli(argv, seconds):
    """Run one CLI process; (process, elapsed seconds), or (None, None) if it was killed."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, "-m", "confstrata.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=seconds)
    except subprocess.TimeoutExpired:
        return None, None
    return proc, time.monotonic() - start


def test_criterion_10_in_cap_runtime_guards():
    ok, times = True, []
    for argv, answered in IN_CAP_GUARDS:
        proc, elapsed = _run_cli(argv, GUARD_SECONDS)
        if proc is None:
            ok = False
            times.append(f"{argv[0]} killed")
            continue
        times.append(f"{argv[0]} {elapsed:.2f}s")
        ok = (ok and proc.returncode == 0 and elapsed < GUARD_SECONDS
              and answered(json.loads(proc.stdout)["result"]))
    _verdict(10, f"in-cap elliptic n=6 purity deg 40 and hilbert deg 14 under {GUARD_SECONDS:.0f}s",
             ok, ", ".join(times))


# the largest in-cap chain range: 7,242 chains, 260,511 simplicial identities
CHAIN_GUARD_SECONDS = 6.0


def test_criterion_11_in_cap_chain_guard():
    argv = ["deltafin-check", "--max-level", "3", "--max-size", "4"]
    proc, elapsed = _run_cli(argv, CHAIN_GUARD_SECONDS)
    ok = proc is not None and proc.returncode == 0 and elapsed < CHAIN_GUARD_SECONDS
    checked = json.loads(proc.stdout)["result"]["checks"][0]["checked"] if ok else None
    ok = ok and checked == 260511
    detail = "killed" if proc is None else f"{checked} checks, {elapsed:.2f}s"
    _verdict(11, f"in-cap deltafin-check k<=3 |S|<=4 under {CHAIN_GUARD_SECONDS:.0f}s", ok, detail)


# the in-cap partition commands at the n cap: 5,504 nests, 57-member building set
PARTITION_GUARD_SECONDS = 1.5


def test_criterion_12_in_cap_partition_guards():
    # --count prints the count alone
    guards = [(["nests", "--n", "6", "--count"], lambda out: out == "5504\n"),
              (["blowup-validate", "--n", "6"], lambda out: json.loads(out)["result"]["valid"])]
    ok, times = True, []
    for argv, answered in guards:
        proc, elapsed = _run_cli(argv, PARTITION_GUARD_SECONDS)
        times.append(f"{argv[0]} killed" if proc is None else f"{argv[0]} {elapsed:.2f}s")
        ok = (ok and proc is not None and proc.returncode == 0
              and elapsed < PARTITION_GUARD_SECONDS and answered(proc.stdout) is True)
    _verdict(12, f"in-cap nests n=6 and blowup-validate n=6 under {PARTITION_GUARD_SECONDS}s",
             ok, ", ".join(times))


if __name__ == "__main__":
    failed = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion"):
            try:
                fn()
            except AssertionError:
                failed += 1
    sys.exit(1 if failed else 0)

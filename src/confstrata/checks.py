"""Property suites shared by the CLI selftests and the test suite.

Each check returns a CheckResult with a count of verified instances and a
list of counterexample descriptions (empty iff the check passed).  Chains are
enumerated up to level-wise relabelling; every operation here commutes with
relabelling, so the representatives are exhaustive for their size range.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from . import confcat, finchains, forests, koszul, weights, wonderful
from .finchains import FinChain, SimplexMap, enumerate_chains, face, degeneracy, precompose
from .forests import level_functor_morphism, level_functor_object, morphisms_equivalent


@dataclass
class CheckResult:
    name: str
    checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def merge(self, other: "CheckResult"):
        self.checked += other.checked
        self.failures.extend(other.failures)

    def summary(self) -> str:
        state = "ok" if self.ok else f"{len(self.failures)} failures"
        return f"{self.name}: {self.checked} checks, {state}"


# -- simplicial identities -------------------------------------------------------


def _random_chain(rng: random.Random, max_level: int, max_size: int) -> FinChain:
    k = rng.randint(0, max_level)
    sizes = [rng.randint(1, max_size) for _ in range(k + 1)]
    sets = [finchains.FiniteSet(range(m)) for m in sizes]
    maps = [
        finchains.SetMap(sets[i], sets[i + 1],
                         {x: rng.randrange(sizes[i + 1]) for x in range(sizes[i])})
        for i in range(k)
    ]
    return FinChain(sets, maps)


def check_simplicial_identities(max_level=3, max_size=3, samples=0, sample_size=4, seed=0) -> CheckResult:
    """Exhaustive over representatives in range, plus random larger chains."""
    result = CheckResult(f"simplicial identities (k<={max_level}, |S|<={max_size})")
    chains = list(enumerate_chains(max_level, max_size))
    if samples:
        rng = random.Random(seed)
        chains.extend(_random_chain(rng, max_level, sample_size) for _ in range(samples))
    for chain in chains:
        _identities_on(chain, result)
    return result


def _identities_on(chain: FinChain, result: CheckResult):
    k = chain.level_count

    def record(condition, message):
        result.checked += 1
        if not condition:
            result.failures.append(f"{message} on {chain!r}")

    if k >= 2:
        for i, j in itertools.combinations(range(k + 1), 2):
            record(face(face(chain, j), i) == face(face(chain, i), j - 1),
                   f"d_{i} d_{j} != d_{j - 1} d_{i}")
    for i, j in itertools.product(range(k + 1), repeat=2):
        if i <= j:
            record(degeneracy(degeneracy(chain, j), i) == degeneracy(degeneracy(chain, i), j + 1),
                   f"s_{i} s_{j} != s_{j + 1} s_{i}")
    for j in range(k + 1):
        record(face(degeneracy(chain, j), j) == chain, f"d_{j} s_{j} != id")
        record(face(degeneracy(chain, j), j + 1) == chain, f"d_{j + 1} s_{j} != id")
    for i, j in itertools.product(range(k + 2), range(k + 1)):
        if i < j:
            record(face(degeneracy(chain, j), i) == degeneracy(face(chain, i), j - 1),
                   f"d_{i} s_{j} != s_{j - 1} d_{i}")
        elif i > j + 1 and k >= 1:
            record(face(degeneracy(chain, j), i) == degeneracy(face(chain, i - 1), j),
                   f"d_{i} s_{j} != s_{j} d_{i - 1}")
    result.checked += 1
    if not finchains.validate_chain(chain):
        result.failures.append(f"enumerated chain invalid: {chain!r}")


# -- the level functor and the configuration functor ------------------------------


def _elementary_into(chain: FinChain, allow_degeneracies=True):
    k = chain.level_count
    out = []
    if k >= 1:
        for i in range(k + 1):
            out.append(SimplexMap.face(chain, i))
    if allow_degeneracies:
        for i in range(k + 1):
            out.append(SimplexMap.degeneracy(chain, i))
    return out


def _check_pair(f_sm: SimplexMap, g_sm: SimplexMap, result: CheckResult):
    composite = f_sm.then(g_sm)
    ff = level_functor_morphism(f_sm)
    fg = level_functor_morphism(g_sm)
    fc = level_functor_morphism(composite)
    result.checked += 1
    for sm, mor in ((f_sm, ff), (g_sm, fg), (composite, fc)):
        problems = forests.morphism_violations(mor)
        if problems:
            result.failures.append(f"F of {sm!r} is not a morphism: {problems}")
            return
    left = ff.then(fg)
    if left != fc and not morphisms_equivalent(left, fc):
        result.failures.append(
            f"F composition failed: {f_sm!r} then {g_sm!r}")
        return
    sc = confcat.StratumMap(fc)
    sf = confcat.StratumMap(ff)
    sg = confcat.StratumMap(fg)
    result.checked += 1
    if not confcat.stratum_maps_equivalent(sg.then(sf), sc):
        result.failures.append(
            f"con composition failed: {f_sm!r} then {g_sm!r}")


def check_level_functor(max_level=2, max_size=3, pair_samples=300, seed=0) -> CheckResult:
    """Identity, endpoint, degeneracy, and composition laws of the level functor.

    Composition is exhaustive over pairs of elementary morphisms (faces and
    degeneracies within the size range) and additionally verified on a seeded
    random sample of pairs of arbitrary monotone reindexings.  Composites are
    compared in the quotient category (pullback-forest signatures), not by
    strict block-map equality.  The library trusts its own constructions, so
    this also checks that degeneracies keep the level forest and that every
    face image and composite passes forests.morphism_violations.
    level_functor_morphism, pullback and ForMorphism.signature are memoised
    (lru_cache, 65536 entries each), so each distinct simplex map is checked
    and mapped once and its shared, immutable result reused.
    """
    result = CheckResult(f"level functor (k<={max_level}, |S|<={max_size})")
    chains = list(enumerate_chains(max_level, max_size))
    for chain in chains:
        phi = level_functor_object(chain)
        ident = level_functor_morphism(SimplexMap.identity(chain))
        result.checked += 1
        if not (ident.is_identity() and ident.source == phi):
            result.failures.append(f"identity law failed on {chain!r}")
        for i in range(chain.level_count + 1):
            sm = SimplexMap.degeneracy(chain, i)
            result.checked += 1
            if not level_functor_morphism(sm).is_identity():
                result.failures.append(f"degeneracy {i} not sent to identity on {chain!r}")
            elif level_functor_object(sm.source) != phi:
                result.failures.append(f"degeneracy {i} changed the level forest of {chain!r}")
        for sm in _elementary_into(chain, allow_degeneracies=False):
            mor = level_functor_morphism(sm)
            result.checked += 1
            problems = forests.morphism_violations(mor)
            if problems:
                result.failures.append(f"face into {chain!r} is not a morphism: {problems}")
                continue
            if mor.source != level_functor_object(sm.source) or mor.target != phi:
                result.failures.append(f"endpoint mismatch for face into {chain!r}")
            result.checked += 1
            if len(mor.signature()) != 1:
                result.failures.append(f"ambiguous signature for face into {chain!r}")
    for chain in chains:
        for g_sm in _elementary_into(chain):
            for f_sm in _elementary_into(g_sm.source):
                _check_pair(f_sm, g_sm, result)
    if pair_samples:
        rng = random.Random(seed)
        for _ in range(pair_samples):
            chain = rng.choice(chains)
            l = chain.level_count
            kb = rng.randint(0, max_level)
            delta_g = tuple(sorted(rng.randint(0, l) for _ in range(kb + 1)))
            g_sm = SimplexMap(delta_g, precompose(chain, delta_g), chain)
            ka = rng.randint(0, kb)
            delta_f = tuple(sorted(rng.randint(0, kb) for _ in range(ka + 1)))
            f_sm = SimplexMap(delta_f, precompose(g_sm.source, delta_f), g_sm.source)
            _check_pair(f_sm, g_sm, result)
    return result


# -- forests ----------------------------------------------------------------------


def check_forest_poset_roundtrip(max_n=4) -> CheckResult:
    result = CheckResult(f"forest poset round-trip (n<={max_n})")
    for n in range(1, max_n + 1):
        for phi in forests.enumerate_forests(n):
            poset = forests.to_poset(phi)
            result.checked += 2
            if forests.poset_violations(poset.elements, poset.less):
                result.failures.append(f"poset conditions failed for {phi!r}")
            if forests.from_poset(poset) != phi:
                result.failures.append(f"round-trip failed for {phi!r}")
    return result


def check_forest_nest_bijection(max_n=4) -> CheckResult:
    result = CheckResult(f"forest/nest bijection (n<={max_n})")
    for n in range(1, max_n + 1):
        forests_n = forests.enumerate_forests(n)
        nests_n = wonderful.enumerate_nests(n)
        bset = wonderful.diagonal_building_set(n)
        by_definition = {frozenset(s) for size in range(len(bset.members) + 1)
                         for s in itertools.combinations(bset.members, size)
                         if wonderful.is_nest(bset.lattice, bset, s)}
        result.checked += 1
        if set(nests_n) != by_definition:
            result.failures.append(f"enumerated nests differ from the is_nest subsets at n={n}")
            continue
        if len(forests_n) != len(nests_n):
            result.failures.append(
                f"count mismatch at n={n}: {len(forests_n)} forests vs {len(nests_n)} nests")
            continue
        rebuilt = {wonderful.nest_to_forest(n, nest) for nest in nests_n}
        result.checked += 1
        if rebuilt != set(forests_n):
            result.failures.append(f"bijection is not onto at n={n}")
    return result


# -- strata ------------------------------------------------------------------------


def check_strata(max_n=3) -> CheckResult:
    result = CheckResult(f"stratum calculus (n<={max_n})")
    for n in range(1, max_n + 1):
        all_forests = forests.enumerate_forests(n)
        for phi, psi in itertools.product(all_forests, repeat=2):
            meet = confcat.stratum_intersect(phi, psi)
            reverse = confcat.stratum_intersect(psi, phi)
            result.checked += 1
            if meet != reverse:
                result.failures.append(f"intersection not commutative: {phi!r}, {psi!r}")
            if phi == psi:
                result.checked += 1
                if meet != confcat.Stratum(phi):
                    result.failures.append(f"intersection not idempotent: {phi!r}")
        for phi, psi in itertools.combinations(all_forests, 2):
            if set(phi.blocks) <= set(psi.blocks):
                result.checked += 1
                if not confcat.stratum_codim(phi) < confcat.stratum_codim(psi):
                    result.failures.append(f"codim not strictly monotone: {phi!r} < {psi!r}")
    return result


# -- blow-up orders -----------------------------------------------------------------


def check_li_orders(max_n=4, d=1) -> CheckResult:
    result = CheckResult(f"blow-up prefix validity (n<={max_n})")
    for n in range(2, max_n + 1):
        bset = wonderful.diagonal_building_set(n, d)
        schedule = wonderful.default_order(bset)
        result.checked += 1
        if not wonderful.validate_li_order(schedule):
            result.failures.append(f"default order fails prefix validation at n={n}")
    bad = wonderful.BlowUpSchedule(
        wonderful.diagonal_building_set(3, d),
        [wonderful.diagonal([1, 2]), wonderful.diagonal([1, 3]),
         wonderful.diagonal([2, 3]), wonderful.diagonal([1, 2, 3])],
    )
    result.checked += 1
    if wonderful.first_invalid_prefix(bad) != 3:
        result.failures.append("pairs-first order at n=3 did not fail at prefix 3")
    return result


# -- weights ------------------------------------------------------------------------


def check_weight_pipeline() -> CheckResult:
    result = CheckResult("weight pipeline")

    def expect(condition, message):
        result.checked += 1
        if not condition:
            result.failures.append(message)

    elliptic = weights.elliptic_curve()
    expect(weights.check_pure(elliptic.cohomology, "degree").pure, "elliptic not pure")
    twisted = weights.tate_twist(elliptic.cohomology, 3)
    twice = weights.tate_twist(weights.tate_twist(elliptic.cohomology, 1), 2)
    expect(twisted == twice, "twist additivity failed")
    square = weights.kunneth_power(elliptic, 2)
    expect(square.at(2) == weights.WeightMultiset({2: 6}), "Künneth count failed")
    expect(weights.thom_relative(elliptic, 3) == weights.WeightMultiset({3: 2}),
           "Thom value failed at k=3")
    report = weights.conf2_purity_report(elliptic)
    expect(report.pure and report.weight == 2, "conf2 ledger impure")
    expect(report.ker_alpha == weights.WeightMultiset({2: 6}), "conf2 kernel wrong")
    line = weights.affine_line()
    hs = weights.hilbert_series(weights.presentation(line, 2), 4)
    expect(hs.dims() == [1, 0, 1, 0, 0], "affine line n=2 series wrong")
    try:
        bad = weights.VarietyDescriptor("bad", 1, {0: {0: 1}, 1: {0: 2}}, True)
        weights.purity_theorem_check(bad, 2, 4)
        expect(False, "corrupted descriptor was not refused")
    except weights.HypothesisRefusal:
        expect(True, "")
    return result


# -- koszul -------------------------------------------------------------------------


def check_koszul_fixtures(max_g=3, order=8) -> CheckResult:
    result = CheckResult("koszul criterion fixtures")

    def expect(condition, message):
        result.checked += 1
        if not condition:
            result.failures.append(message)

    verdict = koszul.koszul_criterion(koszul.genus_one_presentation(), order)
    expect(verdict.passed, "genus-1 fixture failed the criterion")
    for g in range(1, max_g + 1):
        expect(koszul.koszul_criterion(koszul.exterior_presentation(g), order).passed,
               f"exterior g={g} failed")
        expect(koszul.koszul_criterion(koszul.symmetric_presentation(g), order).passed,
               f"symmetric g={g} failed")
        p = koszul.exterior_presentation(g)
        dual = koszul.quadratic_dual(p)
        expect(len(p.effective_relations()) + len(dual.relations) == g * g,
               f"dual dimension count failed at g={g}")
    return result


ALL_CHECKS = {
    "forests": lambda: [check_forest_poset_roundtrip(), check_forest_nest_bijection()],
    "nests": lambda: [check_forest_nest_bijection()],
    "strata": lambda: [check_strata()],
    "deltafin-check": lambda: [check_simplicial_identities(2, 3),
                               check_level_functor(2, 3, pair_samples=100)],
    "blowup-validate": lambda: [check_li_orders()],
    "forget-centers": lambda: [check_li_orders(3)],
    "purity": lambda: [check_weight_pipeline()],
    "hilbert": lambda: [check_weight_pipeline()],
    "koszul": lambda: [check_koszul_fixtures()],
}


def run_selftest(command: str) -> list[CheckResult]:
    return ALL_CHECKS[command]()

"""Property suites shared by the CLI selftests and the test suite.

Each check returns a CheckResult with a count of verified instances and a
list of counterexample descriptions (empty iff the check passed).  Chains are
enumerated with exactly one representative per level-wise relabelling class;
every operation here commutes with relabelling, so the representatives are
exhaustive for their size range and no class is checked twice.
"""

from __future__ import annotations

import functools
import gc
import itertools
import random

from . import confcat, finchains, forests, koszul, weights, wonderful


class CheckResult:
    __slots__ = ("name", "checked", "failures")

    def __init__(self, name: str, checked: int = 0, failures=None):
        self.name = name
        self.checked = checked
        self.failures = [] if failures is None else failures

    @property
    def ok(self) -> bool:
        return not self.failures

    def expect(self, condition, message: str):
        self.checked += 1
        if not condition:
            self.failures.append(message)

    def summary(self) -> str:
        state = "ok" if self.ok else f"{len(self.failures)} failures"
        return f"{self.name}: {self.checked} checks, {state}"


# -- simplicial identities -------------------------------------------------------


def _random_chain(rng: random.Random, max_level: int, max_size: int) -> finchains.FinChain:
    k = rng.randint(0, max_level)
    sizes = [rng.randint(1, max_size) for _ in range(k + 1)]
    # labels 0..m-1 are their own positions, and _identities_on checks the tables
    tables = [tuple([rng.randrange(sizes[i + 1]) for _ in range(sizes[i])]) for i in range(k)]
    return finchains._chain(tuple([finchains.FiniteSet(range(m)) for m in sizes]), tuple(tables))


def check_simplicial_identities(max_level=3, max_size=3, samples=0, seed=0) -> CheckResult:
    """Exhaustive over one representative per class in range, plus random chains on sets of <= 4."""
    result = CheckResult(f"simplicial identities (k<={max_level}, |S|<={max_size})")
    chains = list(finchains.enumerate_chains(max_level, max_size))
    if samples:
        rng = random.Random(seed)
        chains.extend(_random_chain(rng, max_level, 4) for _ in range(samples))
    for chain in chains:
        _identities_on(chain, result)
    return result


def _identities_on(chain: finchains.FinChain, result: CheckResult):
    sets, tables = chain.sets, chain.tables
    result.checked += 1  # the tables first: table i has |S_i| entries, each a position in S_{i+1}
    if len(tables) != len(sets) - 1 or any(
            len(table) != len(s) or not set(table) <= set(range(len(t)))
            for s, t, table in zip(sets, sets[1:], tables)):
        result.failures.append(f"enumerated chain invalid: {chain!r}")
        return
    k = chain.level_count
    faces = [finchains.face(chain, i) for i in range(k + 1)] if k >= 1 else []
    degens = [finchains.degeneracy(chain, j) for j in range(k + 1)]

    def record(condition, message):
        result.checked += 1
        if not condition:
            result.failures.append(f"{message} on {chain!r}")

    if k >= 2:
        for i, j in itertools.combinations(range(k + 1), 2):
            record(finchains.face(faces[j], i) == finchains.face(faces[i], j - 1),
                   f"d_{i} d_{j} != d_{j - 1} d_{i}")
    for i, j in itertools.product(range(k + 1), repeat=2):
        if i <= j:
            record(finchains.degeneracy(degens[j], i) == finchains.degeneracy(degens[i], j + 1),
                   f"s_{i} s_{j} != s_{j + 1} s_{i}")
    for j in range(k + 1):
        record(finchains.face(degens[j], j) == chain, f"d_{j} s_{j} != id")
        record(finchains.face(degens[j], j + 1) == chain, f"d_{j + 1} s_{j} != id")
    for i, j in itertools.product(range(k + 2), range(k + 1)):
        if i < j:
            record(finchains.face(degens[j], i) == finchains.degeneracy(faces[i], j - 1),
                   f"d_{i} s_{j} != s_{j - 1} d_{i}")
        elif i > j + 1 and k >= 1:
            record(finchains.face(degens[j], i) == finchains.degeneracy(faces[i - 1], j),
                   f"d_{i} s_{j} != s_{j} d_{i - 1}")


# -- the level functor and the configuration functor ------------------------------


def _deltas(k: int):
    """The deltas of the elementary maps into a level-k chain: faces (none at k = 0) first."""
    faces = [finchains._face_delta(k, i) for i in range(k + 1)] if k else []
    return faces + [finchains._degeneracy_delta(k, i) for i in range(k + 1)]


def _mask(delta) -> int:
    """The image of delta as a bitmask over the levels of its target."""
    return sum(1 << t for t in set(delta))


def _reindexing(delta: tuple, target: finchains.FinChain) -> finchains.SimplexMap:
    return finchains.SimplexMap(delta, finchains.precompose(target, delta), target)


def _pair_fault(violations, factors, ff, fg, fc):
    """(checks made, fault) for F f, F g and F(f then g): the fault is None, the failed step
    ("F composition", or "con factorization": confcat.factors on F(f then g)),
    or the index and problems of the first of the three that is not a morphism."""
    for k, mor in enumerate((ff, fg, fc)):
        if violations(mor):
            return 1, (k, violations(mor))
    # a level forest moved under a degeneracy leaves F f and F g without a composite
    left = ff.then(fg) if ff.target == fg.source else None
    if left is None or left != fc and not forests.morphisms_equivalent(left, fc):
        return 1, "F composition"
    return 2, None if factors(fc) else "con factorization"


def _failure(fault, f_sm: finchains.SimplexMap, g_sm: finchains.SimplexMap) -> str:
    """The failure line of a pair whose fault (see _pair_fault) is not None."""
    if isinstance(fault, str):
        return f"{fault} failed: {f_sm!r} then {g_sm!r}"
    k, problems = fault
    return f"F of {(f_sm, g_sm, f_sm.then(g_sm))[k]!r} is not a morphism: {problems}"


class _Chains:
    """The memo of one check_level_functor call.

    Each distinct chain read is numbered once, by the chain itself; its
    level data is built on first read.  F is kept per (chain number, image
    mask), one object per equal morphism, which the caches of
    morphism_violations, confcat.factors and _pair_fault then find by
    identity.  elementary[k] lists each elementary map g into a level-k chain
    (_deltas) as (delta, image mask, the image mask of f then g per
    elementary map f into its source).
    """

    def __init__(self, max_level: int):
        self.elementary = [[(g, _mask(g), [_mask([g[t] for t in f]) for f in _deltas(len(g) - 1)])
                            for g in _deltas(k)] for k in range(max_level + 2)]
        self.number, self.chains, self.data = {}, [], {}
        self.source_lists, self.images, self.shared = {}, {}, {}
        self.violations = functools.cache(forests.morphism_violations)
        self.factors = functools.cache(confcat.factors)
        self.fault = functools.cache(functools.partial(_pair_fault, self.violations, self.factors))

    def index(self, chain: finchains.FinChain) -> int:
        c = self.number.setdefault(chain, len(self.chains))
        if c == len(self.chains):
            self.chains.append(chain)
        return c

    def level(self, c: int):
        if c not in self.data:
            self.data[c] = forests._LevelData(self.chains[c])
        return self.data[c]

    def level_of(self, chain: finchains.FinChain):
        return self.level(self.index(chain))

    def sources(self, c: int) -> list:
        """The numbers of the sources of the elementary maps into chain c."""
        if c not in self.source_lists:
            chain = self.chains[c]
            self.source_lists[c] = [self.index(finchains.precompose(chain, delta))
                             for delta, _, _ in self.elementary[chain.level_count]]
        return self.source_lists[c]

    def image(self, c: int, mask: int) -> forests.ForMorphism:
        """F of every simplex map into chain c whose delta has this image mask."""
        mor = self.images.get((c, mask))
        if mor is None:
            chain = self.chains[c]
            image = tuple([t for t in range(chain.level_count + 1) if mask >> t & 1])
            mor = forests.image_morphism(chain, image, self.level_of)
            mor = self.images[c, mask] = self.shared.setdefault(mor, mor)
        return mor


def check_level_functor(max_level=2, max_size=3, pair_samples=300, seed=0) -> CheckResult:
    """Identity, endpoint, degeneracy, and composition laws of the level functor.

    Composition is checked on every pair of elementary maps (faces and
    degeneracies) in range and on a seeded sample of pairs of monotone
    reindexings, in the quotient category (morphisms_equivalent: equal
    pullback forests).  Every face image and composite must pass
    forests.morphism_violations, and the map of strata of every lawful face
    image and composite must factor (confcat.factors).  The memo
    (_Chains) lives for this call only; every pair counts its own checks.
    It holds millions of containers, so the cyclic garbage collector, which
    would walk them again and again, is off for the call.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = CheckResult(f"level functor (k<={max_level}, |S|<={max_size})")
        table = _Chains(max_level)
        chains = list(finchains.enumerate_chains(max_level, max_size))
        for chain in chains:
            c, k = table.index(chain), chain.level_count
            phi = table.level(c).forest
            ident = table.image(c, (1 << k + 1) - 1)
            result.expect(ident.is_identity() and ident.source == phi,
                          f"identity law failed on {chain!r}")
            maps = list(zip(table.elementary[k], table.sources(c)))
            faces = k + 1 if k else 0  # the degeneracies come last
            for i, ((_, mask, _), b) in enumerate(maps[faces:]):
                result.checked += 1
                if not table.image(c, mask).is_identity():
                    result.failures.append(f"degeneracy {i} not sent to identity on {chain!r}")
                elif table.level(b).forest != phi:
                    result.failures.append(f"degeneracy {i} changed the level forest of {chain!r}")
            for (_, mask, _), b in maps[:faces]:
                mor = table.image(c, mask)
                result.checked += 1
                problems = table.violations(mor)
                if problems:
                    result.failures.append(f"face into {chain!r} is not a morphism: {problems}")
                    continue
                if mor.source != table.level(b).forest or mor.target != phi:
                    result.failures.append(f"endpoint mismatch for face into {chain!r}")
                result.checked += 1
                if not table.factors(mor):
                    result.failures.append(f"con factorization failed: face into {chain!r}")
        for chain in chains:
            c = table.index(chain)
            for (g_delta, g_mask, composites), b in zip(table.elementary[chain.level_count],
                                                        table.sources(c)):
                fg, source = table.image(c, g_mask), table.chains[b]
                for (f_delta, f_mask, _), mask in zip(table.elementary[source.level_count],
                                                      composites):
                    checked, fault = table.fault(table.image(b, f_mask), fg, table.image(c, mask))
                    result.checked += checked
                    if fault is not None:
                        result.failures.append(_failure(fault, _reindexing(f_delta, source),
                                                        _reindexing(g_delta, chain)))
        if pair_samples:
            rng = random.Random(seed)
            for _ in range(pair_samples):
                chain = rng.choice(chains)
                l = chain.level_count
                kb = rng.randint(0, max_level)
                g = tuple(sorted(rng.randint(0, l) for _ in range(kb + 1)))
                ka = rng.randint(0, kb)
                f = tuple(sorted(rng.randint(0, kb) for _ in range(ka + 1)))
                c, b = table.index(chain), table.index(finchains.precompose(chain, g))
                checked, fault = table.fault(table.image(b, _mask(f)), table.image(c, _mask(g)),
                                             table.image(c, _mask([g[j] for j in f])))
                result.checked += checked
                if fault is not None:
                    result.failures.append(_failure(fault, _reindexing(f, table.chains[b]),
                                                    _reindexing(g, chain)))
        return result
    finally:
        if enabled:
            gc.enable()


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
                if meet != phi:
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
    elliptic = weights.elliptic_curve()
    result.expect(not weights.check_pure(elliptic.cohomology), "elliptic not pure")
    twisted = weights.tate_twist(elliptic.cohomology, 3)
    twice = weights.tate_twist(weights.tate_twist(elliptic.cohomology, 1), 2)
    result.expect(twisted == twice, "twist additivity failed")
    square = weights.kunneth_power(elliptic, 2)
    result.expect(square.at(2) == weights.WeightMultiset({2: 6}), "Künneth count failed")
    result.expect(weights.thom_relative(elliptic, 3) == weights.WeightMultiset({3: 2}),
                  "Thom value failed at k=3")
    report = weights.conf2_purity_report(elliptic)
    result.expect(report.pure and report.weight == 2, "conf2 ledger impure")
    result.expect(report.ker_alpha == weights.WeightMultiset({2: 6}), "conf2 kernel wrong")
    line = weights.affine_line()
    hs = weights.hilbert_series(weights.presentation(line, 2), 4)
    result.expect(hs.dims() == [1, 0, 1, 0, 0], "affine line n=2 series wrong")
    try:
        bad = weights.VarietyDescriptor("bad", 1, {0: {0: 1}, 1: {0: 2}}, True)
        weights.purity_theorem_check(bad, 2, 4)
        result.expect(False, "corrupted descriptor was not refused")
    except weights.HypothesisRefusal:
        result.expect(True, "")
    return result


# -- koszul -------------------------------------------------------------------------


def check_koszul_fixtures(max_g=3, order=8) -> CheckResult:
    result = CheckResult("koszul criterion fixtures")
    verdict = koszul.koszul_criterion(koszul.genus_one_presentation(), order)
    result.expect(verdict.passed, "genus-1 fixture failed the criterion")
    for g in range(1, max_g + 1):
        result.expect(koszul.koszul_criterion(koszul.exterior_presentation(g), order).passed,
                      f"exterior g={g} failed")
        result.expect(koszul.koszul_criterion(koszul.symmetric_presentation(g), order).passed,
                      f"symmetric g={g} failed")
        p = koszul.exterior_presentation(g)
        dual = koszul.quadratic_dual(p)
        result.expect(len(p.effective_relations()) + len(dual.relations) == g * g,
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


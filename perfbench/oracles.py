"""Reference answers for the benchmark, written from the definitions.

Nothing here imports confstrata: every expected value is derived from a
closed form, a literature count or a brute-force enumeration, so a defect in
the library cannot hide in a matching defect in its checker.  Each check
takes the parsed CLI output and returns None when it agrees, or a one-line
description of the first disagreement.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

# Forests on {1..n} (equivalently nests of the diagonal building set):
# 1 for n = 1, twice OEIS A000311 for n >= 2.
FOREST_COUNTS = {1: 1, 2: 2, 3: 8, 4: 52, 5: 472, 6: 5504}


# -- forests, nests, strata --------------------------------------------------------


def laminar_families(n: int):
    """Every family of subsets of {1..n} of size >= 2 that is pairwise nested or disjoint."""
    subsets = [frozenset(c) for k in range(2, n + 1)
               for c in itertools.combinations(range(1, n + 1), k)]
    out = []

    def grow(family, start):
        out.append(frozenset(family))
        for i in range(start, len(subsets)):
            s = subsets[i]
            if all(not (s & t) or s <= t or t <= s for t in family):
                grow(family + [s], i + 1)

    grow([], 0)
    return out


def check_count(payload, n: int):
    count = payload["result"]["count"] if isinstance(payload, dict) else payload
    if count != FOREST_COUNTS[n]:
        return f"count {count} != {FOREST_COUNTS[n]} for n={n}"
    return None


def check_forests(payload, n: int):
    """The full forest list equals the laminar families plus all singletons."""
    forests = payload["result"]["forests"]
    got = set()
    for f in forests:
        if f["ground"] != list(range(1, n + 1)):
            return f"forest ground {f['ground']} != 1..{n}"
        blocks = [frozenset(b) for b in f["blocks"]]
        if any(frozenset((x,)) not in blocks for x in range(1, n + 1)):
            return f"forest {f['blocks']} misses a singleton"
        got.add(frozenset(b for b in blocks if len(b) > 1))
    want = set(laminar_families(n))
    if len(forests) != len(got) or got != want:
        return f"forest list differs from the {len(want)} laminar families on {n} labels"
    return check_count(payload, n)


def check_nests(payload, n: int):
    """A nest of the diagonal building set is a laminar family of diagonals."""
    got = set()
    for nest in payload["result"]["nests"]:
        members = []
        for member in nest:
            if len(member) != 1:
                return f"nest member {member} is not a single diagonal"
            members.append(frozenset(member[0]))
        got.add(frozenset(members))
    if got != set(laminar_families(n)):
        return f"nest list differs from the laminar families on {n} labels"
    return check_count(payload, n)


def check_strata(payload, n: int):
    """Strata are indexed by forests; codimension counts the non-singleton blocks."""
    by_codim = {}
    for family in laminar_families(n):
        key = str(len(family))
        by_codim[key] = by_codim.get(key, 0) + 1
    if payload["result"]["by_codim"] != by_codim:
        return f"by_codim {payload['result']['by_codim']} != {by_codim}"
    return check_count(payload, n)


# -- blow-up orders ------------------------------------------------------------------


def _join(p, q):
    """Finest common coarsening of two partitions given as sets of frozensets."""
    blocks = [set(b) for b in p | q]
    merged = []
    while blocks:
        b = blocks.pop()
        changed = True
        while changed:
            changed = False
            for other in blocks:
                if b & other:
                    b |= other
                    blocks.remove(other)
                    changed = True
                    break
        merged.append(frozenset(b))
    return frozenset(merged)


def _refines(p, q) -> bool:
    return all(any(b <= c for c in q) for b in p)


def is_building_set(members) -> bool:
    """De Concini-Procesi building set of diagonals, from the definition.

    A diagonal Delta_U is the partition with the single non-singleton block U;
    intersections are joins of partitions and codimension is sum(|B| - 1).
    For every intersection s of members, the maximal members below s must be
    transversal (codimensions add up) and intersect exactly in s.
    """
    diagonals = [frozenset([frozenset(u)]) for u in members]
    closure = set(diagonals)
    frontier = list(closure)
    while frontier:
        new = []
        for a in frontier:
            for b in list(closure):
                j = _join(a, b)
                if j not in closure:
                    closure.add(j)
                    new.append(j)
        frontier = new
    codim = lambda p: sum(len(b) - 1 for b in p)
    for s in closure:
        below = [g for g in diagonals if _refines(g, s)]
        factors = [g for g in below if not any(g != h and _refines(g, h) for h in below)]
        if sum(codim(g) for g in factors) != codim(s):
            return False
        joined = frozenset()
        for g in factors:
            joined = _join(joined, g)
        if joined != s:
            return False
    return True


def first_invalid_prefix(order):
    """Length of the shortest prefix of the order that is not a building set."""
    for i in range(1, len(order) + 1):
        if not is_building_set(order[:i]):
            return i
    return None


def default_order(n: int):
    """Diagonals by decreasing codimension, lexicographic ties."""
    subsets = [c for k in range(2, n + 1) for c in itertools.combinations(range(1, n + 1), k)]
    return sorted(subsets, key=lambda u: (-(len(u) - 1), u))


def check_blowup(payload, order):
    result = payload["result"]
    want = first_invalid_prefix(order)
    if result["first_invalid_prefix"] != want or result["valid"] != (want is None):
        return (f"first_invalid_prefix {result['first_invalid_prefix']} "
                f"valid {result['valid']}, expected {want}")
    if result["order"] != [[list(u)] for u in order]:
        return "echoed order differs from the input order"
    return None


def check_forget_centers(payload, source, table):
    """Centers: a diagonal of the image for every source subset of size >= 2."""
    images = [tuple(sorted(table[x] for x in c))
              for k in range(2, len(source) + 1) for c in itertools.combinations(source, k)]
    want = [[list(u)] for u in sorted(images, key=lambda u: (-(len(u) - 1), u))]
    if payload["result"]["centers"] != want:
        return f"centers {payload['result']['centers']} != {want}"
    return None


# -- Hilbert series: Boedigheimer-Cohen-Taylor ------------------------------------------


def _poly_mul(a, b, max_deg):
    out = {}
    for (d1, w1), m1 in a.items():
        for (d2, w2), m2 in b.items():
            if d1 + d2 <= max_deg:
                key = (d1 + d2, w1 + w2)
                out[key] = out.get(key, 0) + m1 * m2
    return out


def bct_series(cohomology, d: int, n: int, max_deg: int):
    """prod_{j<n} (P_X(t, u) + j t^{2d} u^{2d}), weight-refined, truncated at max_deg.

    cohomology maps degree -> {weight: multiplicity}.  This is the Poincare
    series of n points in X x R (Topology 28, 1989), with x_ij of weight 2d.
    Returns one {weight: multiplicity} dict per degree 0..max_deg.
    """
    px = {(deg, w): m for deg, ws in cohomology.items() for w, m in ws.items() if m}
    total = {(0, 0): 1}
    for j in range(n):
        factor = dict(px)
        if j:
            key = (2 * d, 2 * d)
            factor[key] = factor.get(key, 0) + j
        total = _poly_mul(total, factor, max_deg)
    series = [{} for _ in range(max_deg + 1)]
    for (deg, w), m in total.items():
        if m:
            series[deg][w] = m
    return series


def check_hilbert(series_json, cohomology, d, n, max_deg):
    want = bct_series(cohomology, d, n, max_deg)
    if len(series_json) != max_deg + 1:
        return f"series has {len(series_json)} degrees, expected {max_deg + 1}"
    for line, ws in zip(series_json, want):
        got = {int(w): m for w, m in line["weights"].items()}
        if line["dim"] != sum(ws.values()) or got != ws:
            return (f"degree {line['degree']}: dim {line['dim']} weights {got}, "
                    f"expected dim {sum(ws.values())} weights {ws}")
    return None


def check_hilbert_payload(payload, cohomology, d, n, max_deg):
    result = payload["result"]
    problem = check_hilbert(result["report"]["series"], cohomology, d, n, max_deg)
    if problem is None and result["dims"] != [line["dim"] for line in result["report"]["series"]]:
        problem = "dims disagree with the series lines"
    return problem


def check_purity_payload(payload, cohomology, d, n, max_deg):
    """Pure descriptors give a pure answer: every weight equals its degree."""
    result = payload["result"]
    if result["verdict"] != "pure":
        return f"verdict {result['verdict']} for a pure descriptor"
    return check_hilbert(result["purity"]["hilbert"]["series"], cohomology, d, n, max_deg)


# -- Koszul duality ----------------------------------------------------------------------


def word_counts(g: int, allowed, max_deg: int):
    """Words of length 0..max_deg over g letters whose adjacent pairs are all allowed."""
    counts = [1]
    ends = [1] * g
    if max_deg >= 1:
        counts.append(g)
    for _ in range(2, max_deg + 1):
        ends = [sum(ends[i] for i in range(g) if (i, j) in allowed) for j in range(g)]
        counts.append(sum(ends))
    return counts


def koszul_expectation(kind: str, g: int, max_deg: int, forbidden=()):
    """(series, dual_series) for the presentation kinds the generator writes."""
    ks = range(max_deg + 1)
    if kind == "exterior":
        return [comb(g, k) for k in ks], [comb(g + k - 1, k) for k in ks]
    if kind == "symmetric":
        return [comb(g + k - 1, k) for k in ks], [comb(g, k) for k in ks]
    if kind == "monomial":
        pairs = set(itertools.product(range(g), repeat=2))
        forbidden = {tuple(p) for p in forbidden}
        return (word_counts(g, pairs - forbidden, max_deg),
                word_counts(g, forbidden, max_deg))
    raise ValueError(kind)


def check_koszul(payload, kind, g, max_deg, forbidden=()):
    result = payload["result"] if "result" in payload else payload
    series, dual = koszul_expectation(kind, g, max_deg, forbidden)
    if result["series"] != series or result["dual_series"] != dual:
        return (f"series {result['series']} dual {result['dual_series']}, "
                f"expected {series} and {dual}")
    if result["verdict"] != "PASS":
        return f"verdict {result['verdict']} for a Koszul algebra"
    product = [sum(series[i] * dual[k - i] * (-1) ** (k - i) for i in range(k + 1))
               for k in range(max_deg + 1)]
    if [Fraction(c) for c in result["product"]] != product:
        return f"product {result['product']} != {product}"
    return None


# -- chains ------------------------------------------------------------------------------


def check_deltafin(payload):
    """Every simplicial-identity and functor check passes, with zero failures."""
    result = payload["result"]
    for check in result["checks"]:
        if check["failures"] or check["checked"] < 1:
            return f"{check['name']}: {check['checked']} checked, {len(check['failures'])} failures"
    return None if result["passed"] else "deltafin-check did not pass"


def check_chain(payload):
    """A valid chain reports no violations and a forest on its level classes."""
    result = payload["result"]
    if not result["valid"] or result["violations"]:
        return f"valid chain reported {result['violations']}"
    forest = result["level_forest"]
    ground = forest["ground"]
    blocks = [frozenset(map(str, b)) for b in forest["blocks"]]
    if any(frozenset((str(x),)) not in blocks for x in ground):
        return "level forest misses a singleton"
    for a, b in itertools.combinations(blocks, 2):
        if a & b and not (a <= b or b <= a):
            return "level forest has overlapping blocks"
    return None

import itertools
import math
import random
from fractions import Fraction

import pytest

from confstrata.koszul import (
    QuadraticPresentation,
    TruncatedSeries,
    exterior_presentation,
    genus_one_presentation,
    hilbert_of_quadratic,
    koszul_criterion,
    presentation_from_json,
    presentation_to_json,
    quadratic_dual,
    symmetric_presentation,
)
from confstrata.koszul import _word_counts
from confstrata.linalg import Echelon, nullspace, rank

# found by seeded random search; both series verified against the dense oracle below
NON_KOSZUL_RELATIONS = [
    [-1, 0, 1, -1, -1, 1, -1, 0, 1],
    [-1, 1, -1, -1, -1, 0, 0, -1, -1],
    [-1, 1, 0, -1, 1, -1, -1, 1, 1],
]


def non_koszul_presentation():
    return QuadraticPresentation(3, NON_KOSZUL_RELATIONS, "free")


def dense_echelon(rows, ncols):
    """Independent oracle: Gaussian elimination over Fraction on dense rows.

    Sweeps each incoming row left to right, cancelling every nonzero entry
    that sits on an existing pivot and stopping at the first one that does
    not.  Returns (flags, pivot columns): flags[k] says whether row k raised
    the rank.  Shares no code with confstrata.linalg.
    """
    pivots = {}  # column -> nonzero (column, entry) pairs of a row with 1 there
    flags = []
    for sparse in rows:
        row = [0] * ncols
        for c, v in sparse.items():
            row[c] = Fraction(v)
        new = False
        for c in range(ncols):
            if not row[c]:
                continue
            if c not in pivots:
                pivots[c] = [(k, x / row[c]) for k, x in enumerate(row) if x]
                new = True
                break
            factor = row[c]
            for k, x in pivots[c]:
                row[k] -= factor * x
        flags.append(new)
    return flags, sorted(pivots)


def dense_dims(g, relations, N):
    """Independent oracle: rank over all words, no normal-form bookkeeping."""
    rel = [{(i // g, i % g): Fraction(v) for i, v in enumerate(vec) if v} for vec in relations]
    dims = [1, g]
    for n in range(2, N + 1):
        words = list(itertools.product(range(g), repeat=n))
        index = {w: i for i, w in enumerate(words)}
        rows = []
        for pos in range(n - 1):
            for prefix in itertools.product(range(g), repeat=pos):
                for suffix in itertools.product(range(g), repeat=n - 2 - pos):
                    for r in rel:
                        row = {}
                        for (i, j), c in r.items():
                            w = prefix + (i, j) + suffix
                            row[index[w]] = row.get(index[w], 0) + c
                        rows.append(row)
        flags, _ = dense_echelon(rows, len(words))
        dims.append(len(words) - sum(flags))
    return dims


# -- duals -----------------------------------------------------------------------

def test_dual_of_square_zero_is_polynomial():
    p = QuadraticPresentation(1, [[1]], "free")  # x^2 = 0
    dual = quadratic_dual(p)
    assert dual.relations == ()
    assert hilbert_of_quadratic(dual, 5).coefficients == (1, 1, 1, 1, 1, 1)


def test_dual_of_free_line_is_square_zero():
    p = QuadraticPresentation(1, [], "free")
    dual = quadratic_dual(p)
    assert len(dual.relations) == 1
    assert hilbert_of_quadratic(dual, 4).coefficients == (1, 1, 0, 0, 0)


def test_dual_dimension_count():
    rng = random.Random(17)
    for _ in range(20):
        g = rng.randint(1, 3)
        vecs = []
        for _ in range(rng.randint(0, g * g)):
            vecs.append([rng.choice([-1, 0, 1]) for _ in range(g * g)])
        try:
            p = QuadraticPresentation(g, vecs, rng.choice(["free", "graded-commutative"]))
        except ValueError:
            continue
        dual = quadratic_dual(p)
        assert len(p.effective_relations()) + len(dual.relations) == g * g


def test_double_dual_dimensions():
    rng = random.Random(23)
    for _ in range(15):
        g = rng.randint(1, 3)
        vecs = [[rng.choice([-1, 0, 1]) for _ in range(g * g)] for _ in range(rng.randint(0, 2))]
        try:
            p = QuadraticPresentation(g, vecs, "free")
        except ValueError:
            continue
        double = quadratic_dual(quadratic_dual(p))
        assert len(double.relations) == len(p.effective_relations())


def test_dependent_relations_rejected():
    with pytest.raises(ValueError):
        QuadraticPresentation(2, [[1, 0, 0, 0], [2, 0, 0, 0]], "free")


# -- Hilbert series ------------------------------------------------------------------

def test_exterior_two_generators():
    series = hilbert_of_quadratic(exterior_presentation(2), 5)
    assert series.coefficients == (1, 2, 1, 0, 0, 0)


def test_symmetric_one_generator():
    series = hilbert_of_quadratic(QuadraticPresentation(1, [], "free"), 6)
    assert series.coefficients == (1,) * 7


def test_genus_one_series():
    series = hilbert_of_quadratic(genus_one_presentation(), 5)
    assert series.coefficients == (1, 2, 1, 0, 0, 0)


def test_symmetric_series_binomials():
    for g in (2, 3):
        series = hilbert_of_quadratic(symmetric_presentation(g), 6)
        expected = tuple(
            len(list(itertools.combinations_with_replacement(range(g), n))) for n in range(7))
        assert series.coefficients == expected


def test_engine_matches_dense_oracle():
    series = hilbert_of_quadratic(non_koszul_presentation(), 6)
    assert list(series.coefficients) == dense_dims(3, NON_KOSZUL_RELATIONS, 6)
    dual = quadratic_dual(non_koszul_presentation())
    dual_series = hilbert_of_quadratic(dual, 6)
    assert list(dual_series.coefficients) == dense_dims(3, dual.relations, 6)


def test_failed_certificate_keeps_the_normal_form_loop():
    primal = non_koszul_presentation()
    for p in (primal, quadratic_dual(primal)):
        g = p.generator_count
        ech = Echelon()
        for vec in p.effective_relations():
            ech.add({i: v for i, v in enumerate(vec) if v})
        # words that avoid the leading bigrams (the pivots) count the dims only under PBW
        allowed = [[i * g + j not in ech.pivots for j in range(g)] for i in range(g)]
        avoiding = _word_counts(allowed, 4)
        exact = dense_dims(g, p.relations, 4)
        assert avoiding[3] != exact[3]  # the degree-3 certificate fails
        assert list(hilbert_of_quadratic(p, 4).coefficients) == exact


def test_engine_matches_dense_oracle_randomized():
    rng = random.Random(41)
    tried = 0
    while tried < 10:
        g = rng.randint(2, 3)
        vecs = [[rng.choice([-1, 0, 1]) for _ in range(g * g)]
                for _ in range(rng.randint(1, 3))]
        try:
            p = QuadraticPresentation(g, vecs, "free")
        except ValueError:
            continue
        tried += 1
        series = hilbert_of_quadratic(p, 4)
        assert list(series.coefficients) == dense_dims(g, p.relations, 4)


def test_hilbert_cap():
    # the degree cap lives in cli.CAPS; the library refuses only N < 0
    with pytest.raises(ValueError, match=r"^truncation order must be non-negative$"):
        hilbert_of_quadratic(exterior_presentation(2), -1)
    assert hilbert_of_quadratic(exterior_presentation(2), 40).coefficients == (1, 2, 1) + (0,) * 38


# -- the criterion --------------------------------------------------------------------

def test_criterion_symmetric_one_generator():
    verdict = koszul_criterion(QuadraticPresentation(1, [], "free"), 6)
    assert verdict.passed
    assert verdict.dual_series.coefficients == (1, 1, 0, 0, 0, 0, 0)


def test_criterion_genus_one_to_order_ten():
    verdict = koszul_criterion(genus_one_presentation(), 10)
    assert verdict.passed
    assert verdict.product == (1,) + (0,) * 10
    # the dual is a polynomial algebra on two generators
    assert verdict.dual_series.coefficients == tuple(n + 1 for n in range(11))


def test_criterion_symmetric_exterior_pairs():
    for g in range(1, 5):
        assert koszul_criterion(symmetric_presentation(g), 10).passed
        assert koszul_criterion(exterior_presentation(g), 10).passed


def test_criterion_fail_fixture():
    verdict = koszul_criterion(non_koszul_presentation(), 6)
    assert not verdict.passed
    assert verdict.first_discrepancy == (6, 27)
    assert "FAIL" in verdict.note


def test_criterion_needs_order_two():
    with pytest.raises(ValueError):
        koszul_criterion(exterior_presentation(2), 1)


def test_pass_wording_is_guarded():
    verdict = koszul_criterion(exterior_presentation(2), 6)
    assert "necessary condition" in verdict.note
    assert "consistent" in verdict.note


# -- misc ------------------------------------------------------------------------------

def test_truncated_series_requires_unit():
    with pytest.raises(ValueError):
        TruncatedSeries((2, 1))


def test_presentation_json_round_trip():
    p = non_koszul_presentation()
    back = presentation_from_json(presentation_to_json(p))
    assert back.generator_count == p.generator_count
    assert back.relations == p.relations
    assert back.convention == "free"


def test_regrading_note_carried():
    p = genus_one_presentation()
    assert p.regraded_from == 1
    assert quadratic_dual(p).regraded_from == 1


# -- the exact-rank kernel --------------------------------------------------------------

def random_rational_rows(rng, nrows, ncols):
    """Sparse rows with fractional, large, zero, repeated and dependent entries."""
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1:
            rows.append(rng.choice([{}, {rng.randrange(ncols): 0}]))
        elif kind < 0.2 and rows:
            rows.append(dict(rng.choice(rows)))
        elif kind < 0.35 and len(rows) >= 2:
            a, b = rng.sample(rows, 2)
            s, t = Fraction(rng.randint(-9, 9), rng.randint(1, 9)), Fraction(rng.randint(1, 5), 3)
            combo = {c: s * a.get(c, 0) + t * b.get(c, 0) for c in set(a) | set(b)}
            rows.append({c: v for c, v in combo.items() if v})
        else:
            row = {}
            for c in rng.sample(range(ncols), rng.randint(1, min(6, ncols))):
                row[c] = rng.choice([
                    rng.choice([-2, -1, 1, 3]),
                    Fraction(rng.randint(-20, 20) or 1, rng.randint(2, 12)),
                    rng.randint(-10**30, 10**30) or 1,
                    Fraction(rng.randint(1, 10**25), rng.randint(1, 10**20)),
                ])
            rows.append(row)
    return rows


def test_kernel_matches_dense_oracle_on_random_rational_rows():
    rng = random.Random(2024)
    for _ in range(80):
        ncols = rng.randint(1, 12)
        rows = random_rational_rows(rng, rng.randint(0, 16), ncols)
        flags, pivot_cols = dense_echelon(rows, ncols)
        ech = Echelon()
        assert [ech.add(row) for row in rows] == flags
        assert rank(rows) == ech.rank == sum(flags)
        assert sorted(ech.pivots) == pivot_cols
        for lead, row in ech.pivots.items():
            assert all(type(v) is int and v for v in row.values())
            assert lead == min(row) and row[lead] > 0
            assert math.gcd(*row.values()) == 1
        back = ech.back_substitute()
        assert sorted(back) == pivot_cols
        for lead, row in back.items():
            assert row[lead] > 0 and math.gcd(*row.values()) == 1
            assert not (set(row) - {lead}) & set(back)
            # still in the row span: appending it does not raise the rank
            assert dense_echelon(rows + [row], ncols)[0][-1] is False
        vectors = [[row.get(c, 0) for c in range(ncols)] for row in rows]
        null = nullspace(vectors, ncols)
        assert len(null) == ncols - sum(flags)
        for u in null:
            assert all(sum(a * b for a, b in zip(u, v)) == 0 for v in vectors)
        assert all(dense_echelon([dict(enumerate(u)) for u in null], ncols)[0])

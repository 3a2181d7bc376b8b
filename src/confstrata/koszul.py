"""Quadratic algebras, quadratic duals, and the Hilbert-series Koszul test.

A presentation is a relation subspace of the g^2-dimensional quadratic part
of the tensor algebra on g degree-one generators.  Under the
graded-commutative convention the generators are odd, so the effective
relation space also contains every symmetrizer e_i*e_j + e_j*e_i.  The dual
presentation is the annihilator under the monomial pairing.  Hilbert series
count the words that avoid the leading bigrams once a degree-3 check
certifies them as a PBW basis, and run exact normal forms when it does not.
The criterion H_A(t) * H_dual(-t) = 1 is necessary for Koszulness, never
sufficient: a PASS only means "consistent to the checked order".
"""

from __future__ import annotations

import itertools
import reprlib
import sys
from math import lcm

from . import _Value, _fill, linalg

CONVENTIONS = ("graded-commutative", "free")


class TruncatedSeries(_Value):
    """The coefficients of a series truncated at some order, constant term first."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple):
        if coefficients and coefficients[0] != 1:
            raise ValueError("a unital algebra has constant coefficient 1")
        _fill(self, coefficients)

    def order(self) -> int:
        return len(self.coefficients) - 1

    def alternating_product(self, other: "TruncatedSeries"):
        """Coefficients of self(t) * other(-t), truncated to the common order."""
        n = min(self.order(), other.order())
        out = []
        for k in range(n + 1):
            total = 0
            for i in range(k + 1):
                total += self.coefficients[i] * other.coefficients[k - i] * (-1) ** (k - i)
            out.append(total)
        return tuple(out)


def _fraction(value):
    """A coefficient that is not an int, as a Fraction: the one place koszul loads fractions."""
    from fractions import Fraction

    return Fraction(value)


class QuadraticPresentation(_Value):
    """g generators in degree one and a relation subspace of the g^2 monomial basis.

    relations holds linearly independent vectors, coordinates indexed by
    i * g + j for the word e_i e_j.  regraded_from records the original
    cohomological degree when a ring generated in a single degree has been
    regraded to degree one.
    """

    __slots__ = ("generator_count", "relations", "convention", "regraded_from")

    def __init__(self, generator_count, relations=(), convention="graded-commutative",
                 regraded_from=None):
        g = int(generator_count)
        if g < 1:
            raise ValueError("need at least one generator")
        if convention not in CONVENTIONS:
            raise ValueError(f"convention must be one of {CONVENTIONS}")
        vectors = []
        ech = linalg.Echelon()
        for rel in relations:
            vec = tuple(v if type(v) is int else _fraction(v) for v in rel)
            if len(vec) != g * g:
                raise ValueError("relation vector must have g^2 coordinates")
            if not ech.add({i: v for i, v in enumerate(vec) if v}):
                raise ValueError("relation vectors must be linearly independent")
            vectors.append(vec)
        _fill(self, g, tuple(vectors), convention, regraded_from)

    def effective_relations(self):
        """Relation vectors with the commutativity law added under the gc convention.

        Degree-one generators are odd, so graded commutativity contributes
        e_i e_j + e_j e_i for i < j and the squares e_i e_i (the case i = j).
        """
        g = self.generator_count
        vectors = [list(v) for v in self.relations]
        if self.convention == "graded-commutative":
            for i, j in itertools.combinations_with_replacement(range(g), 2):
                vec = [0] * (g * g)
                vec[i * g + j] = vec[j * g + i] = 1
                vectors.append(vec)
        ech = linalg.Echelon()
        independent = []
        for vec in vectors:
            if ech.add({i: v for i, v in enumerate(vec) if v}):
                independent.append(tuple(vec))
        return independent

    def __repr__(self):
        return (f"QuadraticPresentation(g={self.generator_count}, "
                f"{len(self.relations)} relations, {self.convention})")


def quadratic_dual(p: QuadraticPresentation) -> QuadraticPresentation:
    """Annihilator of the effective relation space under the monomial pairing.

    The dual is presented over the free convention; dim R + dim R_dual = g^2.
    """
    g = p.generator_count
    effective = p.effective_relations()
    return QuadraticPresentation(g, linalg.nullspace(effective, g * g), convention="free",
                                 regraded_from=p.regraded_from)


def _word_counts(allowed, N):
    """Words of length 0..N whose adjacent pairs are all allowed, by transfer matrix."""
    counts, ends = [1], [1] * len(allowed)
    for _ in range(N):
        counts.append(sum(ends))
        ends = [sum(e for e, row in zip(ends, allowed) if row[j]) for j in range(len(allowed))]
    return counts


def hilbert_of_quadratic(p: QuadraticPresentation, N: int) -> TruncatedSeries:
    """Graded dimensions of T(V)/<R_eff> up to degree N: certify, then count.

    Degree n is computed as (A_{n-1} tensor V) modulo the image of
    (A_{n-2} tensor R), maintaining normal forms so the next degree can reuse
    them.  Candidates are in lex order, so the degree-2 pivots are the leading
    bigrams of R_eff, and the words avoiding them span every degree.  By
    Bergman's diamond lemma they are a basis, a PBW basis (Priddy 1970;
    Polishchuk-Positselski, Quadratic Algebras, ch. 4), once every overlap
    resolves: exactly when their count equals the degree-3 dimension.  Then
    the transfer-matrix count of those words gives every higher degree.
    Otherwise the loop runs on to degree N, where degree n has up to g^n
    candidates; the caller bounds g and N.
    """
    if N < 0:
        raise ValueError("truncation order must be non-negative")
    g = p.generator_count
    relations = [[(i // g, i % g, v) for i, v in enumerate(linalg.integerize(vec)) if v]
                 for vec in p.effective_relations()]
    dims = [1]
    if N == 0:
        return TruncatedSeries(tuple(dims))
    dims.append(g)
    # Candidate (b, v) of degree n, basis element b of degree n-1 times
    # generator v, has index b * g + v.  nf_prev[index] is its normal form
    # (numerators, denominator): {basis position: integer} over one positive
    # integer.  At degree 1, candidate (unit, v) is basis vector v.
    nf_prev = [({v: 1}, 1) for v in range(g)]
    dim_prev, dim_prev2 = g, 1
    for n in range(2, N + 1):
        ech = linalg.Echelon()
        for u in range(dim_prev2):
            for rel in relations:
                forms = [(coeff, j, nf_prev[u * g + i]) for i, j, coeff in rel]
                den = lcm(*(d for _, _, (_, d) in forms))
                row = {}
                for coeff, j, (nums, d) in forms:
                    scale = coeff * (den // d)
                    for b, num in nums.items():
                        col = b * g + j
                        row[col] = row.get(col, 0) + scale * num
                ech.add(row)
        pivots = ech.back_substitute()
        basis = [idx for idx in range(dim_prev * g) if idx not in pivots]
        if n == 2:  # candidate i * g + j is the word e_i e_j
            words = _word_counts([[i * g + j not in pivots for j in range(g)] for i in range(g)], N)
        elif n == 3 and len(basis) == words[3]:
            return TruncatedSeries(tuple(words))
        basis_pos = {idx: pos for pos, idx in enumerate(basis)}
        nf_cur = []
        for idx in range(dim_prev * g):
            pos = basis_pos.get(idx)
            if pos is not None:
                nf_cur.append(({pos: 1}, 1))
            else:
                row = pivots[idx]
                nf_cur.append(({basis_pos[c]: -v for c, v in row.items() if c != idx}, row[idx]))
        dim_prev2, dim_prev = dim_prev, len(basis)
        nf_prev = nf_cur
        dims.append(len(basis))
    return TruncatedSeries(tuple(dims))


class KoszulVerdict(_Value):
    """The criterion's outcome; first_discrepancy is (k, coefficient) or None."""

    __slots__ = ("passed", "order", "first_discrepancy", "series", "dual_series", "product")

    @property
    def note(self) -> str:
        if self.passed:
            return (f"PASS: H(t) * H_dual(-t) = 1 to order {self.order}; "
                    "necessary condition only, consistent with Koszulness to this order")
        k, value = self.first_discrepancy
        return f"FAIL: product coefficient at t^{k} is {value}, expected {1 if k == 0 else 0}"

    def to_json(self):
        return {
            "verdict": "PASS" if self.passed else "FAIL",
            "order": self.order,
            "series": list(self.series.coefficients),
            "dual_series": list(self.dual_series.coefficients),
            "product": [str(c) for c in self.product],
            "first_discrepancy": (
                [self.first_discrepancy[0], str(self.first_discrepancy[1])]
                if self.first_discrepancy else None),
            "note": self.note,
        }


def koszul_criterion(p: QuadraticPresentation, N: int) -> KoszulVerdict:
    """The numerical test H_A(t) * H_dual(-t) = 1 modulo t^(N+1)."""
    if N < 2:
        raise ValueError("the criterion needs order N >= 2")
    series = hilbert_of_quadratic(p, N)
    dual_series = hilbert_of_quadratic(quadratic_dual(p), N)
    product = series.alternating_product(dual_series)
    first = None
    for k, value in enumerate(product):
        expected = 1 if k == 0 else 0
        if value != expected:
            first = (k, value)
            break
    return KoszulVerdict(first is None, N, first, series, dual_series, product)


# -- JSON -----------------------------------------------------------------------

def presentation_to_json(p: QuadraticPresentation) -> dict:
    return {
        "generators": p.generator_count,
        "convention": p.convention,
        "relations": [[str(v) for v in vec] for vec in p.relations],
        "regraded_from": p.regraded_from,
    }


def _coefficient(value, where: str):
    """A relation coefficient: a JSON number or a numeric string such as "-3/5".

    Building a string's exact value takes work that grows with its decimal
    exponent and with its fractional digits, so the exponent must lie in a
    JSON number's range and the digits within what int() converts.
    """
    if type(value) is int:
        return value
    try:
        mantissa, _, exponent = (value.lower() if type(value) is str else "").partition("e")
        # a fractional part's length, less its underscores and trailing space, bounds its digits
        fraction = mantissa.partition(".")[2]
        digits = len(fraction.rstrip()) - fraction.count("_")
        if (type(value) in (float, str) and abs(int(exponent or 0)) <= sys.float_info.max_10_exp
                and digits <= (sys.get_int_max_str_digits() or digits)):
            return _fraction(value)
    except (ValueError, OverflowError, ZeroDivisionError):
        pass
    raise ValueError(f"{where} must be a number or a numeric string, not {reprlib.repr(value)}")


def presentation_from_json(data) -> QuadraticPresentation:
    """Decode a presentation; a malformed shape raises one ValueError naming the field."""
    if not isinstance(data, dict):
        raise ValueError("presentation JSON must be an object")
    g, raw, regraded = data["generators"], data.get("relations", []), data.get("regraded_from")
    if type(g) is not int:
        raise ValueError(f'"generators" must be an integer, not {reprlib.repr(g)}')
    if regraded is not None and not (type(regraded) is int and regraded > 0):
        raise ValueError('"regraded_from" must be null or a positive integer, '
                         f"not {reprlib.repr(regraded)}")
    if not isinstance(raw, list):
        raise ValueError('"relations" must be a list of coefficient lists, '
                         f"not {reprlib.repr(raw)}")
    relations = []
    for i, vec in enumerate(raw):
        if not isinstance(vec, list):
            raise ValueError(f"relations[{i}] must be a list of coefficients, "
                             f"not {reprlib.repr(vec)}")
        relations.append([_coefficient(v, f"relations[{i}][{j}]") for j, v in enumerate(vec)])
    return QuadraticPresentation(
        g,
        relations,
        data.get("convention", "graded-commutative"),
        regraded,
    )


def genus_one_presentation() -> QuadraticPresentation:
    """Two odd generators with explicit squares: the regraded genus-1 ring."""
    return QuadraticPresentation(2, [[1, 0, 0, 0], [0, 0, 0, 1]], "graded-commutative",
                                 regraded_from=1)


def exterior_presentation(g: int) -> QuadraticPresentation:
    return QuadraticPresentation(g, [], "graded-commutative")


def symmetric_presentation(g: int) -> QuadraticPresentation:
    """Polynomial algebra as a free-convention presentation: commutators only."""
    relations = []
    for i, j in itertools.combinations(range(g), 2):
        vec = [0] * (g * g)
        vec[i * g + j] = 1
        vec[j * g + i] = -1
        relations.append(vec)
    return QuadraticPresentation(g, relations, "free")

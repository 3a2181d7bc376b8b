"""Frobenius-weight bookkeeping for configuration spaces of X x R.

Eigenvalues are abstracted to integer weights with multiplicities.  The
convention throughout: a Tate twist by n raises every weight by 2n.  The
purity pipeline runs from per-variety weight data through the Künneth/Thom
ledger for two points up to the presentation of the cohomology of n points
with its Hilbert series and weight decomposition.  The series counts standard monomials once a
word-length-3 check certifies the quadratic relations as a Groebner basis
(Buchberger's criterion), and falls back to exact ranks when it does not.
"""

from __future__ import annotations

import itertools
import math
import reprlib

from . import _Value, _fill
from .linalg import Echelon


class HypothesisRefusal(Exception):
    """A computation refused because its stated hypotheses do not hold."""

    def __init__(self, reason, violations=()):
        super().__init__(reason)
        self.reason = reason
        self.violations = tuple(violations)

    def to_json(self):
        return {"refused": True, "reason": self.reason,
                "violations": [list(v) for v in self.violations]}


class WeightMultiset(_Value):
    """Weights with multiplicities; entries are merged and sorted."""

    __slots__ = ("entries",)

    def __init__(self, entries=()):
        merged = {}
        for w, m in dict(entries).items() if isinstance(entries, dict) else entries:
            if m <= 0:
                raise ValueError("multiplicities must be positive")
            merged[w] = merged.get(w, 0) + m
        _fill(self, tuple(sorted(merged.items())))

    @classmethod
    def empty(cls):
        return cls(())

    def as_dict(self):
        return dict(self.entries)

    def dim(self) -> int:
        return sum(m for _, m in self.entries)

    def shift(self, dw: int) -> "WeightMultiset":
        return WeightMultiset((w + dw, m) for w, m in self.entries)

    def union(self, other: "WeightMultiset") -> "WeightMultiset":
        return WeightMultiset(self.entries + other.entries)

    def tensor(self, other: "WeightMultiset") -> "WeightMultiset":
        pairs = [(w1 + w2, m1 * m2) for w1, m1 in self.entries for w2, m2 in other.entries]
        return WeightMultiset(pairs)

    def is_pure_of(self, n: int) -> bool:
        return all(w == n for w, _ in self.entries)

    def __bool__(self):
        return bool(self.entries)

    def __repr__(self):
        return f"WeightMultiset({dict(self.entries)!r})"


class WeightedGradedSpace(_Value):
    """Per-degree weight multisets with finite support."""

    __slots__ = ("by_degree",)

    def __init__(self, by_degree=()):
        data = {}
        items = by_degree.items() if isinstance(by_degree, dict) else by_degree
        for degree, ws in items:
            if degree < 0:
                raise ValueError("degrees must be non-negative")
            ws = ws if isinstance(ws, WeightMultiset) else WeightMultiset(ws)
            if ws:
                data[degree] = data.get(degree, WeightMultiset.empty()).union(ws)
        _fill(self, tuple(sorted(data.items())))

    def at(self, degree: int) -> WeightMultiset:
        for deg, ws in self.by_degree:
            if deg == degree:
                return ws
        return WeightMultiset.empty()

    def degrees(self):
        return tuple(deg for deg, _ in self.by_degree)

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    def __repr__(self):
        data = {d: ws.as_dict() for d, ws in self.by_degree}
        return f"WeightedGradedSpace({data!r})"


class PurityReport(_Value):
    __slots__ = ("violations",)

    @property
    def pure(self) -> bool:
        return not self.violations


def check_pure(space: WeightedGradedSpace) -> PurityReport:
    """List every (degree, weight, mult) entry whose weight is not its degree."""
    violations = []
    for degree, ws in space.by_degree:
        for w, m in ws.entries:
            if w != degree:
                violations.append((degree, w, m))
    return PurityReport(tuple(violations))


def tate_twist(space: WeightedGradedSpace, n: int) -> WeightedGradedSpace:
    """Twist by n: every weight moves up by 2n."""
    return WeightedGradedSpace((deg, ws.shift(2 * n)) for deg, ws in space.by_degree)


def tensor(a: WeightedGradedSpace, b: WeightedGradedSpace) -> WeightedGradedSpace:
    """Graded tensor: degrees add, weights add, multiplicities multiply."""
    pieces = []
    for d1, w1 in a.by_degree:
        for d2, w2 in b.by_degree:
            pieces.append((d1 + d2, w1.tensor(w2)))
    return WeightedGradedSpace(pieces)


class VarietyDescriptor(_Value):
    """Weight data of a connected smooth variety of complex dimension d."""

    __slots__ = ("name", "d", "cohomology", "diagonal_class_vanishes")

    def __init__(self, name, d, cohomology, diagonal_class_vanishes=True):
        cohomology = cohomology if isinstance(cohomology, WeightedGradedSpace) else WeightedGradedSpace(cohomology)
        if d < 1:
            raise ValueError("complex dimension must be positive")
        if cohomology.max_degree() > 2 * d:
            raise ValueError("cohomological degrees exceed 2d")
        if cohomology.at(0) != WeightMultiset({0: 1}):
            raise ValueError("H^0 must be one-dimensional of weight 0 (connected variety)")
        _fill(self, str(name), int(d), cohomology, bool(diagonal_class_vanishes))

    def __repr__(self):
        return f"VarietyDescriptor({self.name!r}, d={self.d})"


def elliptic_curve() -> VarietyDescriptor:
    return VarietyDescriptor("elliptic", 1, {0: {0: 1}, 1: {1: 2}, 2: {2: 1}}, True)


def affine_space(d: int) -> VarietyDescriptor:
    return VarietyDescriptor(f"affine_{d}", d, {0: {0: 1}}, True)


def affine_line() -> VarietyDescriptor:
    return affine_space(1)


def projective_line() -> VarietyDescriptor:
    return VarietyDescriptor("P1", 1, {0: {0: 1}, 2: {2: 1}}, True)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def descriptor_from_json(data) -> VarietyDescriptor:
    """Decode a descriptor; a malformed shape raises one ValueError naming the field.

    An optional integer "q" is checked and then ignored: no computation reads it.
    """
    if not isinstance(data, dict):
        raise ValueError("descriptor JSON must be an object")
    name, raw, d, q = data["name"], data["cohomology"], data["d"], data.get("q", 2)
    vanishes = data.get("diagonal_class_vanishes", False)
    if not isinstance(name, str):
        raise ValueError(f'"name" must be a string, not {reprlib.repr(name)}')
    if not isinstance(raw, dict):
        raise ValueError('"cohomology" must be an object mapping degrees to lists')
    for field, value in (("d", d), ("q", q)):
        if not _is_int(value):
            raise ValueError(f'"{field}" must be an integer, not {reprlib.repr(value)}')
    if not isinstance(vanishes, bool):
        raise ValueError('"diagonal_class_vanishes" must be true or false, '
                         f"not {reprlib.repr(vanishes)}")
    cohomology = {}
    for deg, entries in raw.items():
        where = f'cohomology["{reprlib.repr(deg)[1:-1]}"]'
        try:
            degree = int(deg)
        except ValueError:
            raise ValueError(f"{where}: the degree must be an integer")
        if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
            raise ValueError(f'{where} must be a list of {{"weight", "mult"}} objects')
        for i, e in enumerate(entries):
            for key in ("weight", "mult"):
                if not _is_int(e.get(key)):
                    raise ValueError(f'{where}[{i}]["{key}"] must be an integer, '
                                     f"not {reprlib.repr(e.get(key))}")
        cohomology[degree] = WeightMultiset([(e["weight"], e["mult"]) for e in entries])
    return VarietyDescriptor(name, d, cohomology, vanishes)


def kunneth_power(x: VarietyDescriptor, n: int) -> WeightedGradedSpace:
    """The weight data of X^n: the n-fold graded tensor power."""
    if n < 1:
        raise ValueError("Künneth power needs n >= 1")
    out = x.cohomology
    for _ in range(n - 1):
        out = tensor(out, x.cohomology)
    return out


def thom_relative(x: VarietyDescriptor, k: int) -> WeightMultiset:
    """Degree-k relative group of the pair (X^2, two distinct points).

    Thom isomorphism: the cohomology of X in degree k - 2d, twisted by d.
    Empty below degree 2d.
    """
    if k < 2 * x.d:
        return WeightMultiset.empty()
    return x.cohomology.at(k - 2 * x.d).shift(2 * x.d)


def _require_hypotheses(x: VarietyDescriptor):
    report = check_pure(x.cohomology)
    if not report.pure:
        deg, w, _ = report.violations[0]
        raise HypothesisRefusal(
            f"descriptor {x.name!r} is not pure of weight = degree at degree {deg} (weight {w})",
            [(v[0], v[1]) for v in report.violations])
    if not x.diagonal_class_vanishes:
        raise HypothesisRefusal(
            f"descriptor {x.name!r} does not assert a vanishing diagonal class")


class Conf2Report(_Value):
    """The weight ledger for two points in X x R at degree 2d.

    relative pairs the degrees 2d and 2d + 1 with their relative groups, even empty ones.
    """

    __slots__ = ("d", "weight", "relative", "ker_alpha", "pure", "betti_interval")

    def to_json(self):
        return {
            "d": self.d,
            "weight": self.weight,
            "relative": {str(k): v.as_dict() for k, v in self.relative},
            "ker_alpha": self.ker_alpha.as_dict(),
            "pure": self.pure,
            "betti_interval": list(self.betti_interval),
        }


def conf2_purity_report(x: VarietyDescriptor) -> Conf2Report:
    """Reproduce the two-point purity ledger in degree 2d.

    The middle term is caught between a quotient of two copies of the relative
    group in degree 2d and the kernel of the connecting map, identified with
    the degree-2d part of X^2; both are pure of weight 2d, so the middle term
    is too.  The exact sequence does not pin the connecting ranks, so the
    Betti number is only bounded; exact dimensions belong to hilbert_series.
    """
    _require_hypotheses(x)
    two_d = 2 * x.d
    v_low = thom_relative(x, two_d)
    v_high = thom_relative(x, two_d + 1)
    ker_alpha = kunneth_power(x, 2).at(two_d)
    pure = v_low.is_pure_of(two_d) and ker_alpha.is_pure_of(two_d) and v_high.is_pure_of(two_d + 1)
    lo = ker_alpha.dim()
    hi = ker_alpha.dim() + 2 * v_low.dim()
    return Conf2Report(
        d=x.d,
        weight=two_d,
        relative=((two_d, v_low), (two_d + 1, v_high)),
        ker_alpha=ker_alpha,
        pure=pure,
        betti_interval=(lo, hi),
    )


# -- presentation algebras and the normal-form oracle ---------------------------


class Generator(_Value):
    __slots__ = ("label", "degree", "weight")

    @property
    def odd(self) -> bool:
        return self.degree % 2 == 1


class Relation(_Value):
    """A homogeneous relation: sum of coeff * word, words as generator-label tuples."""

    __slots__ = ("kind", "terms")


class PresentationAlgebra(_Value):
    """Generators with degrees and weights, plus a configurable relation set.

    The sign convention is graded commutativity with Koszul signs; odd
    generators square to zero automatically.
    """

    __slots__ = ("generators", "relations")

    def __init__(self, generators: tuple, relations: tuple):
        super().__init__(generators, relations)
        labels = [g.label for g in self.generators]
        if len(set(labels)) != len(labels):
            raise ValueError("generator labels must be distinct")
        if any(g.degree < 1 for g in self.generators):
            raise ValueError("generators must have positive degree")
        by_label = self.by_label()
        for rel in self.relations:
            if not rel.terms:
                raise ValueError("empty relation")
            degs = {sum(by_label[g].degree for g in word) for _, word in rel.terms}
            wts = {sum(by_label[g].weight for g in word) for _, word in rel.terms}
            if len(degs) != 1 or len(wts) != 1:
                raise ValueError(f"relation {rel.kind} is not homogeneous")
            for _, word in rel.terms:
                if any(g not in by_label for g in word):
                    raise ValueError("relation mentions an unknown generator")

    def by_label(self):
        return {g.label: g for g in self.generators}


def presentation(x: VarietyDescriptor, n: int, relation_set: str = "default") -> PresentationAlgebra:
    """The presentation of the cohomology of n points in X x R.

    Generators: one symbol per positive-degree basis class of each of the n
    factors, plus one class x_ij of degree and weight 2d per pair i < j.  The
    shipped default relation set (squares of the x's, three-term relations,
    the two factor actions agreeing across an x, and additive truncation of
    intra-factor products) is configuration, not ground truth; purity
    conclusions only use the generator weights.
    """
    if n < 1:
        raise ValueError("need n >= 1 points")
    if not x.diagonal_class_vanishes:
        raise HypothesisRefusal(
            f"descriptor {x.name!r} does not assert a vanishing diagonal class")
    gens = []
    factor_symbols = {t: [] for t in range(1, n + 1)}
    for t in range(1, n + 1):
        for degree, ws in x.cohomology.by_degree:
            if degree == 0:
                continue
            for w, mult in ws.entries:
                for c in range(mult):
                    label = f"h{t}_{degree}_{w}_{c}"
                    gens.append(Generator(label, degree, w))
                    factor_symbols[t].append(label)
    x_labels = {}
    two_d = 2 * x.d
    for i, j in itertools.combinations(range(1, n + 1), 2):
        label = f"x{i}_{j}"
        x_labels[(i, j)] = label
        gens.append(Generator(label, two_d, two_d))

    relations = []
    if relation_set == "default":
        for label in x_labels.values():
            relations.append(Relation("square", ((1, (label, label)),)))
        for t in range(1, n + 1):
            for u, v in itertools.combinations_with_replacement(factor_symbols[t], 2):
                relations.append(Relation("truncation", ((1, (u, v)),)))
        for i, j, k in itertools.combinations(range(1, n + 1), 3):
            # rewrite a repeated larger index: x_ik x_jk = x_ij x_jk - x_ij x_ik
            xij, xjk, xik = x_labels[(i, j)], x_labels[(j, k)], x_labels[(i, k)]
            relations.append(Relation("arnold", (
                (1, (xik, xjk)), (-1, (xij, xjk)), (1, (xij, xik)))))
        for i, j in itertools.combinations(range(1, n + 1), 2):
            xij = x_labels[(i, j)]
            for u_i, u_j in zip(factor_symbols[i], factor_symbols[j]):
                relations.append(Relation("module", ((1, (u_i, xij)), (-1, (u_j, xij)))))
    elif relation_set == "none":
        pass
    else:
        raise ValueError(f"unknown relation set {relation_set!r}")

    return PresentationAlgebra(generators=tuple(gens), relations=tuple(relations))


class _Engine:
    """Sorted monomials of a graded-commutative presentation, modulo its monomial relations.

    A monomial is a sorted tuple of generator indices.  A pair (i, j), i <= j,
    is forbidden when x_i x_j is a monomial relation or when i = j is an odd
    generator; a monomial is allowed when no forbidden pair divides it.
    """

    def __init__(self, algebra: PresentationAlgebra):
        self.gens = list(algebra.generators)
        self.index = {g.label: i for i, g in enumerate(self.gens)}
        self.degree = [g.degree for g in self.gens]
        self.weight = [g.weight for g in self.gens]
        self.odd = [g.odd for g in self.gens]
        self.forbidden = {(i, i) for i, odd in enumerate(self.odd) if odd}
        self.linear = []  # (terms, degree, weight): terms are (coeff, sorted word)
        for rel in algebra.relations:
            if len(rel.terms) == 1:
                coeff, word = rel.terms[0]
                if len(word) != 2:
                    raise ValueError("monomial relations must be quadratic words")
                i, j = sorted(self.index[g] for g in word)
                self.forbidden.add((i, j))
            else:
                signed = [(c, self._canonical_word(tuple(self.index[g] for g in word)))
                          for c, word in rel.terms]
                terms = [(c * sign, canon) for c, (sign, canon) in signed if canon is not None]
                if terms:
                    word = terms[0][1]
                    self.linear.append((terms, sum(self.degree[g] for g in word),
                                        sum(self.weight[g] for g in word)))

    def _canonical_word(self, word):
        """Sort a word with Koszul signs; None if an odd generator repeats."""
        word = list(word)
        sign = 1
        for i in range(1, len(word)):
            j = i
            while j > 0 and word[j - 1] > word[j]:
                if self.odd[word[j - 1]] and self.odd[word[j]]:
                    sign = -sign
                word[j - 1], word[j] = word[j], word[j - 1]
                j -= 1
        for a, b in zip(word, word[1:]):
            if a == b and self.odd[a]:
                return 1, None
        return sign, tuple(word)

    def monomials(self, avoid, max_deg, max_len=math.inf):
        """(monomial, degree, weight) for each monomial no pair of avoid divides.

        One depth-first walk, bounded by degree and length, emits every such
        monomial once and in sorted order: a child extends its parent by a
        generator no smaller than the last, drawn from the candidates that
        pair with every generator already taken.
        """
        g = len(self.gens)
        pairs_with = [frozenset(j for j in range(i, g) if (i, j) not in avoid) for i in range(g)]
        stack = [((), 0, 0, tuple(range(g)))]
        while stack:
            mono, deg, wt, candidates = stack.pop()
            yield mono, deg, wt
            if len(mono) == max_len:
                continue
            for pos in range(len(candidates) - 1, -1, -1):
                j = candidates[pos]
                if deg + self.degree[j] <= max_deg:
                    stack.append((mono + (j,), deg + self.degree[j], wt + self.weight[j],
                                  tuple(c for c in candidates[pos:] if c in pairs_with[j])))

    def multiply(self, mono, word):
        """Merge a monomial with a relation word: (sign, allowed monomial) or None.

        Both inputs are internally sorted, so the Koszul sign is exactly the
        sorting parity of the concatenation.
        """
        sign, merged = self._canonical_word(tuple(mono) + tuple(word))
        if merged is None or any(p in self.forbidden for p in itertools.combinations(merged, 2)):
            return None
        return (sign, merged)

    def leading(self, multipliers, max_deg=math.inf):
        """Leading monomials of the span of every linear relation times every multiplier.

        multipliers are (monomial, degree, weight) triples; products of degree
        above max_deg are skipped.  Rows are reduced exactly, one Echelon per
        (degree, weight) block with monomials as columns, so the pivots are the
        leading monomials under lex order: the smallest sorted tuple leads.
        """
        echelons = {}
        for terms, rel_deg, rel_wt in self.linear:
            for mono, deg, wt in multipliers:
                if deg + rel_deg > max_deg:
                    continue
                row = {}
                for coeff, word in terms:
                    product = self.multiply(mono, word)
                    if product is not None:
                        sign, merged = product
                        row[merged] = row.get(merged, 0) + coeff * sign
                echelons.setdefault((deg + rel_deg, wt + rel_wt), Echelon()).add(row)
        return {lead for ech in echelons.values() for lead in ech.pivots}

    def mono_label(self, mono):
        parts = []
        for g, run in itertools.groupby(mono):
            power = len(list(run))
            parts.append(self.gens[g].label + (f"^{power}" if power > 1 else ""))
        return "*".join(parts) or "1"


class DegreeLine(_Value):
    __slots__ = ("degree", "dim", "weights")

    def to_json(self):
        return {"degree": self.degree, "dim": self.dim,
                "weights": {str(w): m for w, m in self.weights.entries},
                "pure": all(w == self.degree for w, _ in self.weights.entries)}


class HilbertReport(_Value):
    """first_violation is (degree, weight, monomial label) or None."""

    __slots__ = ("lines", "pure", "first_violation")

    def dims(self):
        return [line.dim for line in self.lines]

    def to_json(self):
        return {
            "series": [line.to_json() for line in self.lines],
            "pure": self.pure,
            "first_violation": list(self.first_violation) if self.first_violation else None,
        }


def _standard_basis(engine: _Engine, N: int):
    """A walk of the standard monomials through degree N, or None if the certificate fails.

    The standard monomials of a (degree, weight) block span it, so they are
    never fewer than its dimension: equal totals in word length 3 mean
    equality in every block there.
    """
    if any(len(word) != 2 for terms, _, _ in engine.linear for _, word in terms):
        return None
    avoid = engine.forbidden | engine.leading([((), 0, 0)])
    generators = [((g,), engine.degree[g], engine.weight[g]) for g in range(len(engine.gens))]
    cubic = sum(len(m) == 3 for m, _, _ in engine.monomials(engine.forbidden, math.inf, 3))
    standard = sum(len(m) == 3 for m, _, _ in engine.monomials(avoid, math.inf, 3))
    if cubic - len(engine.leading(generators)) != standard:
        return None
    return engine.monomials(avoid, N)


def _rank_basis(engine: _Engine, N: int):
    """The rank loop: the allowed monomials through degree N that lead no relation product."""
    allowed = list(engine.monomials(engine.forbidden, N))  # read twice: products, then basis
    pivots = engine.leading(allowed, N)
    return [entry for entry in allowed if entry[0] not in pivots]


def hilbert_series(algebra: PresentationAlgebra, N: int) -> HilbertReport:
    """Dimensions and weight multisets of the quotient, degree by degree.

    Certify, then count.  The leading words are the monomial relations and
    the lex-leading monomials (the Echelon pivots) of the quadratic linear
    relations; a standard monomial is one no leading word divides.  Every
    S-polynomial of two leading words that overlap, and every odd generator
    times a leading word, lies in word length 3.  So when the exact dimension
    there (one Echelon per (degree, weight) block) equals the number of
    standard monomials, all of them reduce to zero, the quadratic relations
    are a Groebner basis (Buchberger's criterion, in the exterior-algebra
    form of Aramova-Herzog-Hibi, J. Algebra 191, 1997), and the standard
    monomials are a basis in every degree (Macaulay), counted block by block.
    When the certificate fails, or a relation is not quadratic, the rank loop
    answers: every relation times every allowed monomial, reduced exactly.
    Either way a block's witness is its first basis monomial in sorted
    order.  The caller bounds N and the presentation.
    """
    if N < 0:
        raise ValueError("truncation degree must be non-negative")
    engine = _Engine(algebra)
    basis = _standard_basis(engine, N)
    if basis is None:
        basis = _rank_basis(engine, N)
    blocks = {}  # (degree, weight) -> [count, first monomial]
    for mono, degree, weight in basis:
        block = blocks.setdefault((degree, weight), [0, mono])
        block[0] += 1
    entries = [[] for _ in range(N + 1)]
    first_violation = None
    for (k, w), (count, first) in sorted(blocks.items()):
        entries[k].append((w, count))
        if w != k and first_violation is None:
            first_violation = (k, w, engine.mono_label(first))
    lines = tuple(DegreeLine(k, sum(m for _, m in e), WeightMultiset(e)) for k, e in enumerate(entries))
    return HilbertReport(lines, first_violation is None, first_violation)


class PurityVerdict(_Value):
    __slots__ = ("pure", "max_degree", "first_violation", "hilbert")

    def to_json(self):
        return {
            "verdict": "pure" if self.pure else "violations",
            "max_degree": self.max_degree,
            "first_violation": list(self.first_violation) if self.first_violation else None,
            "hilbert": self.hilbert.to_json(),
        }


def purity_theorem_check(x: VarietyDescriptor, n: int, N: int) -> PurityVerdict:
    """Assert weight == degree for n points in X x R through degree N.

    Refuses (rather than reporting a verdict) when the descriptor itself is
    impure or does not assert a vanishing diagonal class.
    """
    _require_hypotheses(x)
    algebra = presentation(x, n)
    report = hilbert_series(algebra, N)
    return PurityVerdict(report.pure, N, report.first_violation, report)

"""Frobenius-weight bookkeeping for configuration spaces of X x R.

Eigenvalues are abstracted to integer weights with multiplicities; q is
carried as metadata only.  The convention throughout: a Tate twist by n
raises every weight by 2n.  The purity pipeline runs from per-variety
weight data through the Künneth/Thom ledger for two points up to the
presentation of the cohomology of n points with its Hilbert series and
weight decomposition, computed degree by degree with exact normal forms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

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


class WeightMultiset:
    """Weights with multiplicities; entries are merged and sorted."""

    __slots__ = ("entries",)

    def __init__(self, entries=()):
        merged = {}
        for w, m in dict(entries).items() if isinstance(entries, dict) else entries:
            if m <= 0:
                raise ValueError("multiplicities must be positive")
            merged[w] = merged.get(w, 0) + m
        object.__setattr__(self, "entries", tuple(sorted(merged.items())))

    def __setattr__(self, name, value):
        raise AttributeError("WeightMultiset is immutable")

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

    def __eq__(self, other):
        return isinstance(other, WeightMultiset) and self.entries == other.entries

    def __hash__(self):
        return hash(("WeightMultiset", self.entries))

    def __repr__(self):
        return f"WeightMultiset({dict(self.entries)!r})"


class WeightedGradedSpace:
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
        object.__setattr__(self, "by_degree", tuple(sorted(data.items())))

    def __setattr__(self, name, value):
        raise AttributeError("WeightedGradedSpace is immutable")

    def at(self, degree: int) -> WeightMultiset:
        for deg, ws in self.by_degree:
            if deg == degree:
                return ws
        return WeightMultiset.empty()

    def degrees(self):
        return tuple(deg for deg, _ in self.by_degree)

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    def __eq__(self, other):
        return isinstance(other, WeightedGradedSpace) and self.by_degree == other.by_degree

    def __hash__(self):
        return hash(("WeightedGradedSpace", self.by_degree))

    def __repr__(self):
        data = {d: ws.as_dict() for d, ws in self.by_degree}
        return f"WeightedGradedSpace({data!r})"


@dataclass(frozen=True)
class PurityReport:
    rule: object
    violations: tuple

    @property
    def pure(self) -> bool:
        return not self.violations


def check_pure(space: WeightedGradedSpace, rule="degree") -> PurityReport:
    """List every (degree, weight, mult) entry violating the purity rule.

    rule="degree" demands weight == degree in every degree; an integer rule
    demands that fixed weight everywhere.
    """
    violations = []
    weight_equals_degree = rule in ("degree", "weight-equals-degree")
    for degree, ws in space.by_degree:
        expected = degree if weight_equals_degree else int(rule)
        for w, m in ws.entries:
            if w != expected:
                violations.append((degree, w, m))
    return PurityReport(rule, tuple(violations))


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


class VarietyDescriptor:
    """Weight data of a connected smooth variety of complex dimension d."""

    __slots__ = ("name", "d", "cohomology", "diagonal_class_vanishes", "q")

    def __init__(self, name, d, cohomology, diagonal_class_vanishes=True, q=2):
        cohomology = cohomology if isinstance(cohomology, WeightedGradedSpace) else WeightedGradedSpace(cohomology)
        if d < 1:
            raise ValueError("complex dimension must be positive")
        if cohomology.max_degree() > 2 * d:
            raise ValueError("cohomological degrees exceed 2d")
        if cohomology.at(0) != WeightMultiset({0: 1}):
            raise ValueError("H^0 must be one-dimensional of weight 0 (connected variety)")
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "d", int(d))
        object.__setattr__(self, "cohomology", cohomology)
        object.__setattr__(self, "diagonal_class_vanishes", bool(diagonal_class_vanishes))
        object.__setattr__(self, "q", int(q))

    def __setattr__(self, name, value):
        raise AttributeError("VarietyDescriptor is immutable")

    def __repr__(self):
        return f"VarietyDescriptor({self.name!r}, d={self.d})"


def elliptic_curve(q: int = 2) -> VarietyDescriptor:
    return VarietyDescriptor(
        "elliptic", 1, {0: {0: 1}, 1: {1: 2}, 2: {2: 1}}, True, q)


def affine_space(d: int, q: int = 2) -> VarietyDescriptor:
    return VarietyDescriptor(f"affine_{d}", d, {0: {0: 1}}, True, q)


def affine_line(q: int = 2) -> VarietyDescriptor:
    return affine_space(1, q)


def projective_line(q: int = 2) -> VarietyDescriptor:
    return VarietyDescriptor("P1", 1, {0: {0: 1}, 2: {2: 1}}, True, q)


def descriptor_to_json(x: VarietyDescriptor) -> dict:
    return {
        "name": x.name,
        "d": x.d,
        "q": x.q,
        "diagonal_class_vanishes": x.diagonal_class_vanishes,
        "cohomology": {
            str(deg): [{"weight": w, "mult": m} for w, m in ws.entries]
            for deg, ws in x.cohomology.by_degree
        },
    }


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def descriptor_from_json(data) -> VarietyDescriptor:
    """Decode a descriptor; a malformed shape raises one ValueError naming the field."""
    if not isinstance(data, dict):
        raise ValueError("descriptor JSON must be an object")
    raw, d, q = data["cohomology"], data["d"], data.get("q", 2)
    vanishes = data.get("diagonal_class_vanishes", False)
    if not isinstance(raw, dict):
        raise ValueError('"cohomology" must be an object mapping degrees to lists')
    for field, value in (("d", d), ("q", q)):
        if not _is_int(value):
            raise ValueError(f'"{field}" must be an integer, not {value!r}')
    if not isinstance(vanishes, bool):
        raise ValueError(f'"diagonal_class_vanishes" must be true or false, not {vanishes!r}')
    cohomology = {}
    for deg, entries in raw.items():
        where = f'cohomology["{deg}"]'
        try:
            degree = int(deg)
        except ValueError:
            raise ValueError(f"{where}: the degree must be an integer")
        if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
            raise ValueError(f'{where} must be a list of {{"weight", "mult"}} objects')
        for i, e in enumerate(entries):
            for key in ("weight", "mult"):
                if not _is_int(e.get(key)):
                    raise ValueError(f'{where}[{i}]["{key}"] must be an integer, not {e.get(key)!r}')
        cohomology[degree] = WeightMultiset([(e["weight"], e["mult"]) for e in entries])
    return VarietyDescriptor(data["name"], d, cohomology, vanishes, q)


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
    report = check_pure(x.cohomology, "degree")
    if not report.pure:
        deg, w, _ = report.violations[0]
        raise HypothesisRefusal(
            f"descriptor {x.name!r} is not pure of weight = degree at degree {deg} (weight {w})",
            [(v[0], v[1]) for v in report.violations])
    if not x.diagonal_class_vanishes:
        raise HypothesisRefusal(
            f"descriptor {x.name!r} does not assert a vanishing diagonal class")


@dataclass(frozen=True)
class Conf2Report:
    """The weight ledger for two points in X x R at degree 2d."""

    d: int
    weight: int
    relative: dict  # degree -> WeightMultiset for the two relative groups used
    ker_alpha: WeightMultiset
    pure: bool
    betti_interval: tuple

    def to_json(self):
        return {
            "d": self.d,
            "weight": self.weight,
            "relative": {str(k): v.as_dict() for k, v in self.relative.items()},
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
        relative={two_d: v_low, two_d + 1: v_high},
        ker_alpha=ker_alpha,
        pure=pure,
        betti_interval=(lo, hi),
    )


# -- presentation algebras and the normal-form oracle ---------------------------


@dataclass(frozen=True)
class Generator:
    label: str
    degree: int
    weight: int

    @property
    def odd(self) -> bool:
        return self.degree % 2 == 1


@dataclass(frozen=True)
class Relation:
    """A homogeneous relation: sum of coeff * word, words as generator-label tuples."""

    kind: str
    terms: tuple


@dataclass(frozen=True)
class PresentationAlgebra:
    """Generators with degrees and weights, plus a configurable relation set.

    The sign convention is graded commutativity with Koszul signs; odd
    generators square to zero automatically.
    """

    generators: tuple
    relations: tuple
    commutation: str = "graded"
    truncation: int = 16
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
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

    return PresentationAlgebra(
        generators=tuple(gens),
        relations=tuple(relations),
        truncation=2 * n * max((g.degree for g in gens), default=2),
        meta={"variety": x.name, "n": n, "d": x.d, "relation_set": relation_set},
    )


class _Engine:
    """Degree-by-degree normal forms for a graded-commutative presentation."""

    def __init__(self, algebra: PresentationAlgebra):
        self.gens = list(algebra.generators)
        self.index = {g.label: i for i, g in enumerate(self.gens)}
        self.degree = [g.degree for g in self.gens]
        self.weight = [g.weight for g in self.gens]
        self.odd = [g.odd for g in self.gens]
        self.forbidden = set()
        self.linear = []
        for rel in algebra.relations:
            if len(rel.terms) == 1:
                coeff, word = rel.terms[0]
                if len(word) != 2:
                    raise ValueError("monomial relations must be quadratic words")
                i, j = sorted(self.index[g] for g in word)
                self.forbidden.add((i, j))
            else:
                terms = []
                for coeff, word in rel.terms:
                    sign, canon = self._canonical_word(tuple(self.index[g] for g in word))
                    if canon is None:
                        continue
                    terms.append((coeff * sign, canon))
                if terms:
                    self.linear.append(terms)
        self._basis_cache = {}

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

    def _allowed(self, mono):
        counts = {}
        for g in mono:
            counts[g] = counts.get(g, 0) + 1
        for g, c in counts.items():
            if c > 1 and (self.odd[g] or (g, g) in self.forbidden):
                return False
        for a, b in itertools.combinations(sorted(counts), 2):
            if (a, b) in self.forbidden:
                return False
        return True

    def basis(self, k: int):
        """Filtered monomials of total degree k, as sorted index tuples."""
        if k in self._basis_cache:
            return self._basis_cache[k]
        out = []

        def rec(i, deg_left, mono):
            if deg_left == 0:
                out.append(tuple(mono))
                return
            if i == len(self.gens):
                return
            rec(i + 1, deg_left, mono)
            g_deg = self.degree[i]
            max_mult = deg_left // g_deg
            if self.odd[i] or (i, i) in self.forbidden:
                max_mult = min(max_mult, 1)
            if max_mult >= 1 and any((min(i, j), max(i, j)) in self.forbidden for j in set(mono)):
                max_mult = 0
            for m in range(1, max_mult + 1):
                rec(i + 1, deg_left - m * g_deg, mono + [i] * m)

        rec(0, k, [])
        result = sorted(out)
        self._basis_cache[k] = result
        return result

    def multiply(self, mono, word):
        """Merge a basis monomial with a relation word: (sign, monomial) or None.

        Both inputs are internally sorted, so the Koszul sign is exactly the
        sorting parity of the concatenation.
        """
        sign, merged = self._canonical_word(tuple(mono) + tuple(word))
        if merged is None or not self._allowed(merged):
            return None
        return (sign, merged)

    def mono_weight(self, mono):
        return sum(self.weight[g] for g in mono)

    def mono_degree(self, mono):
        return sum(self.degree[g] for g in mono)

    def mono_label(self, mono):
        if not mono:
            return "1"
        counts = {}
        for g in mono:
            counts[g] = counts.get(g, 0) + 1
        parts = []
        for g in sorted(counts):
            label = self.gens[g].label
            parts.append(label if counts[g] == 1 else f"{label}^{counts[g]}")
        return "*".join(parts)


@dataclass(frozen=True)
class DegreeLine:
    degree: int
    dim: int
    weights: WeightMultiset

    def to_json(self):
        return {"degree": self.degree, "dim": self.dim,
                "weights": {str(w): m for w, m in self.weights.entries},
                "pure": all(w == self.degree for w, _ in self.weights.entries)}


@dataclass(frozen=True)
class HilbertReport:
    lines: tuple
    pure: bool
    first_violation: tuple  # (degree, weight, monomial label) or None

    def dims(self):
        return [line.dim for line in self.lines]

    def weight_of(self, degree: int) -> WeightMultiset:
        for line in self.lines:
            if line.degree == degree:
                return line.weights
        return WeightMultiset.empty()

    def to_json(self):
        return {
            "series": [line.to_json() for line in self.lines],
            "pure": self.pure,
            "first_violation": list(self.first_violation) if self.first_violation else None,
        }


MAX_HILBERT_DEGREE = 60


def hilbert_series(algebra: PresentationAlgebra, N: int) -> HilbertReport:
    """Dimensions and weight multisets of the quotient, degree by degree.

    Monomial relations prune the monomial basis; the remaining relations are
    spanned through every degree and reduced with exact arithmetic, one
    (degree, weight) block at a time.
    """
    if N < 0:
        raise ValueError("truncation degree must be non-negative")
    if N > MAX_HILBERT_DEGREE:
        raise ValueError(f"truncation degree {N} exceeds the resource cap {MAX_HILBERT_DEGREE}")
    engine = _Engine(algebra)
    lines = []
    pure = True
    first_violation = None
    for k in range(N + 1):
        basis = engine.basis(k)
        position = {mono: idx for idx, mono in enumerate(basis)}
        blocks = {}
        for idx, mono in enumerate(basis):
            blocks.setdefault(engine.mono_weight(mono), []).append(idx)
        echelons = {w: Echelon() for w in blocks}
        for terms in engine.linear:
            rel_deg = sum(engine.degree[g] for g in terms[0][1])
            rel_weight = sum(engine.weight[g] for g in terms[0][1])
            if rel_deg > k:
                continue
            for mono in engine.basis(k - rel_deg):
                row = {}
                for coeff, word in terms:
                    product = engine.multiply(mono, word)
                    if product is None:
                        continue
                    sign, merged = product
                    col = position[merged]
                    row[col] = row.get(col, 0) + coeff * sign
                row = {c: v for c, v in row.items() if v}
                if row:
                    w = engine.mono_weight(mono) + rel_weight
                    echelons[w].add(row)
        weight_entries = []
        for w, members in sorted(blocks.items()):
            dim_w = len(members) - echelons[w].rank
            if dim_w > 0:
                weight_entries.append((w, dim_w))
                if w != k:
                    pure = False
                    if first_violation is None:
                        pivot_cols = set(echelons[w].pivots)
                        witness = next(m for m in members if m not in pivot_cols)
                        first_violation = (k, w, engine.mono_label(basis[witness]))
        lines.append(DegreeLine(k, sum(m for _, m in weight_entries), WeightMultiset(weight_entries)))
    return HilbertReport(tuple(lines), pure, first_violation)


@dataclass(frozen=True)
class PurityVerdict:
    pure: bool
    max_degree: int
    first_violation: tuple
    hilbert: HilbertReport

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

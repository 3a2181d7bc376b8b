"""Exact sparse linear algebra over the rationals, fraction-free.

Everything here is sized for the small systems this package produces
(hundreds of rows/columns); no floating point anywhere.  Rows are reduced
with integer arithmetic only (fraction-free elimination in the manner of
Bareiss, Math. Comp. 22, 1968): a rational row has its denominators cleared
once, on entry, and each elimination step scales by cofactors of a gcd, so
ranks and pivot columns are exactly those over Q.  Nothing here imports
fractions: a rational input row (of ints and Fractions) is read through its
numerators and denominators, and nullspace returns primitive integer vectors.
"""

from __future__ import annotations

from math import gcd, lcm


def _integer_row(row):
    """A copy of a sparse row of ints and Fractions, scaled to integers, zeros dropped."""
    row = {c: v for c, v in row.items() if v}
    for v in row.values():
        if type(v) is not int:
            break
    else:
        return row
    den = lcm(*(v.denominator for v in row.values()))
    return {c: v.numerator * (den // v.denominator) for c, v in row.items()}


def _primitive(row, lead):
    """Divide out the content of an integer row and make its lead positive."""
    g = gcd(*row.values())
    if row[lead] < 0:
        g = -g
    if g != 1:
        row = {c: v // g for c, v in row.items()}
    return row


def _eliminate(row, col, pivot):
    """Cancel row[col] against pivot (pivot[col] > 0) without leaving the integers.

    Returns (p/g)*row - (r/g)*pivot with r = row[col], p = pivot[col] and
    g = gcd(p, r); the result no longer has column col.
    """
    p, r = pivot[col], row[col]
    g = gcd(p, r)
    scale, factor = p // g, r // g
    if scale != 1:
        row = {c: v * scale for c, v in row.items()}
    for c, v in pivot.items():
        new = row.get(c, 0) - factor * v
        if new:
            row[c] = new
        else:
            del row[c]
    return row


class Echelon:
    """Incremental row echelon form with sparse integer rows (dict column -> coeff).

    Rows are reduced against previously inserted pivots.  Each pivot row is
    primitive (its entries have gcd 1) with a positive leading coefficient,
    which need not be 1; its lead column is the smallest column it touches.
    """

    def __init__(self):
        self.pivots: dict[int, dict[int, int]] = {}

    def reduce(self, row):
        """Reduce a sparse rational row; return (lead_column, primitive_row) or (None, {})."""
        row = _integer_row(row)
        pivots = self.pivots
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                return lead, _primitive(row, lead)
            row = _eliminate(row, lead, pivot)
        return None, {}

    def add(self, row) -> bool:
        """Insert a row; True iff it increased the rank."""
        lead, reduced = self.reduce(row)
        if lead is None:
            return False
        self.pivots[lead] = reduced
        return True

    def back_substitute(self) -> dict[int, dict[int, int]]:
        """Rewrite every pivot row so it references no other pivot column.

        After this, pivots[lead] = {lead: a, free columns...} with a > 0 and
        the row primitive: pivot column lead equals -sum(v * column c) / a
        over the free columns c, i.e. it is expressed purely in terms of
        non-pivot columns.  The lead a is not normalised to 1.
        """
        pivots = self.pivots
        # A row's non-lead columns are all > lead, so processing leads in
        # decreasing order means substituted rows are already resolved.
        for lead in sorted(pivots, reverse=True):
            row = pivots[lead]
            bound = sorted(c for c in row if c != lead and c in pivots)
            if not bound:
                continue
            for c in bound:
                row = _eliminate(row, c, pivots[c])
            pivots[lead] = _primitive(row, lead)
        return pivots

    @property
    def rank(self) -> int:
        return len(self.pivots)


def rank(rows) -> int:
    ech = Echelon()
    for row in rows:
        ech.add(row)
    return ech.rank


def nullspace(vectors, dim):
    """Basis of {u in Q^dim : sum_i u[i]*v[i] = 0 for every v in vectors}.

    Input vectors are dense sequences.  One output vector per non-pivot column
    f of the reduced echelon form: the solution with u[f] = 1 and zero at the
    other free columns, scaled to the smallest integer vector whose first
    nonzero entry is positive.
    """
    ech = Echelon()
    for v in vectors:
        ech.add({i: x for i, x in enumerate(v) if x})
    pivots = ech.back_substitute()
    free_cols = [c for c in range(dim) if c not in pivots]
    basis = []
    for f in free_cols:
        column = {lead: row for lead, row in pivots.items() if f in row}
        den = lcm(*(row[lead] for lead, row in column.items()))
        u = [0] * dim
        u[f] = den
        for lead, row in column.items():
            u[lead] = -row[f] * (den // row[lead])
        basis.append(integerize(u))
    return basis


def integerize(vector):
    """Scale a rational vector to the smallest integer vector, first nonzero > 0."""
    den = lcm(*(v.denominator for v in vector if v))
    ints = [int(v * den) for v in vector]
    g = gcd(*ints)
    if g == 0:
        return ints
    if next(v for v in ints if v) < 0:
        g = -g
    return [v // g for v in ints]

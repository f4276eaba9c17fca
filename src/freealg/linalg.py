"""Deterministic exact sparse linear algebra over QQ and GF(p).

Vectors are dicts {column index: nonzero scalar}.  All public operations
produce canonical output: the reduced row echelon form of a row set depends
only on its span, so rank, membership residuals and kernels are independent
of input row order (property-tested).

Certificates (provenance of basis rows in the original generators) are kept
only when requested; they dominate memory on large systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field


def vec_items(v):
    return sorted(v.items())


def vec_sort_key(v):
    """Canonical comparison key for a sparse vector (for deterministic row sorting)."""
    return tuple((c, str(x)) for c, x in sorted(v.items()))


def vec_add_scaled(fld, dst: dict, src: dict, c):
    """dst += c * src in place."""
    if fld.is_zero(c):
        return dst
    one = c == fld.one
    for col, x in src.items():
        v = fld.add(dst.get(col, fld.zero), x if one else fld.mul(c, x))
        if fld.is_zero(v):
            dst.pop(col, None)
        else:
            dst[col] = v
    return dst


@dataclass
class SpanBasis:
    """Rows in reduced row echelon form: unit pivots, zeros above and below."""

    field: object
    ncols: int
    rows: list = dc_field(default_factory=list)        # list of dicts, ordered by pivot
    pivots: list = dc_field(default_factory=list)      # strictly increasing pivot columns
    provenance: list | None = None                     # optional: rows in generator coords

    @property
    def rank(self):
        return len(self.rows)

    def pivot_set(self):
        return set(self.pivots)

    def reduce_vector(self, v: dict, want_coeffs=False):
        """Return (coeffs, residual): v minus its projection onto the row span.

        coeffs[i] is the coefficient of basis row i; residual has no support on
        pivot columns.  Both are canonical given the basis.
        """
        fld = self.field
        v = dict(v)
        hits = self._clear_pivots(v)
        if not want_coeffs:
            return None, v
        coeffs = [fld.zero] * len(self.rows)
        for i, c in hits:
            coeffs[i] = fld.add(coeffs[i], c)
        return coeffs, v

    def _clear_pivots(self, v: dict):
        """Subtract from v, in place, c times each basis row whose pivot v holds
        with coefficient c; return the (row index, c) pairs.  Because the rows
        are in reduced echelon form, subtracting a pivot row only introduces
        non-pivot columns, so the pivot hit set is computed once.
        """
        fld = self.field
        pos = {c: i for i, c in enumerate(self.pivots)}
        hits = []
        for col in sorted(c for c in v if c in pos):
            c = v.get(col)
            if c is not None and not fld.is_zero(c):
                i = pos[col]
                vec_add_scaled(fld, v, self.rows[i], fld.neg(c))
                hits.append((i, c))
            v.pop(col, None)
        return hits

    def express(self, v: dict):
        """v in the coordinates of the rows given to rref(..., want_provenance=True):
        {row index: nonzero coefficient}, or None when v is outside the span."""
        coeffs, residual = self.reduce_vector(v, want_coeffs=True)
        if residual:
            return None
        out = {}
        for c, prov in zip(coeffs, self.provenance):
            vec_add_scaled(self.field, out, prov, c)
        return out

    def contains(self, v: dict) -> bool:
        _, res = self.reduce_vector(v)
        return not res

    def same_span(self, other: "SpanBasis") -> bool:
        return (self.ncols == other.ncols and self.pivots == other.pivots
                and [vec_items(r) for r in self.rows] == [vec_items(r) for r in other.rows])


def rref(rows, ncols, fld, want_provenance=False) -> SpanBasis:
    """Canonical RREF of a list of sparse rows; identical output for any row order."""
    basis = SpanBasis(fld, ncols, provenance=[] if want_provenance else None)
    order = sorted(range(len(rows)), key=lambda i: vec_sort_key(rows[i]))
    for i in order:
        prov = {i: fld.one} if want_provenance else None
        insert_row(basis, dict(rows[i]), prov)
    return basis


def insert_row(basis: SpanBasis, v: dict, prov=None):
    """Reduce v against the basis; if nonzero, add it, keeping full RREF."""
    fld = basis.field
    for i, c in basis._clear_pivots(v):
        if prov is not None and basis.provenance is not None:
            vec_add_scaled(fld, prov, basis.provenance[i], fld.neg(c))
    if not v:
        return False
    piv = min(v)
    inv = fld.inv(v[piv])
    v = {c: fld.mul(inv, x) for c, x in v.items()}
    if prov is not None:
        prov = {c: fld.mul(inv, x) for c, x in prov.items()}
    # clear the new pivot column from existing rows
    for i, row in enumerate(basis.rows):
        c = row.get(piv)
        if c is not None:
            vec_add_scaled(fld, row, v, fld.neg(c))
            row.pop(piv, None)
            if basis.provenance is not None and prov is not None:
                vec_add_scaled(fld, basis.provenance[i], prov, fld.neg(c))
    at = 0
    while at < len(basis.pivots) and basis.pivots[at] < piv:
        at += 1
    basis.pivots.insert(at, piv)
    basis.rows.insert(at, v)
    if basis.provenance is not None:
        basis.provenance.insert(at, prov if prov is not None else {})
    return True


def member(basis: SpanBasis, v: dict):
    """Express v in the basis rows.

    Returns (coeffs, residual): coeffs is the coefficient list when the
    residual is empty, else None; residual is the canonical reduction of v.
    """
    coeffs, residual = basis.reduce_vector(v, want_coeffs=True)
    return (coeffs if not residual else None), residual


def kernel(rows, ncols, fld) -> SpanBasis:
    """Deterministic basis of {x : M x = 0} for the matrix with the given rows."""
    b = rref(rows, ncols, fld)
    piv_of_col = {c: i for i, c in enumerate(b.pivots)}
    out = SpanBasis(fld, ncols)
    for j in range(ncols):
        if j in piv_of_col:
            continue
        v = {j: fld.one}
        for c, i in piv_of_col.items():
            x = b.rows[i].get(j)
            if x is not None:
                v[c] = fld.neg(x)
        insert_row(out, v)
    return out

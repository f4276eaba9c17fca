"""The free-monomial reference for consequence spans, dimensions and memberships.

The consequence span of a variety at multidegree d is built here without the
inductive quotient: the generating rows of d (substitution instances that
land in d, plus single left/right monomial multiples of the reduced rows of
every lower span of this reference) in the coordinates of every free
monomial of d (Catalan(n-1) * n! columns), then one canonical RREF.  It
shares no elimination with tideal.consequence_span, so the two cross-check
each other: RREF is canonical, so equal spans have equal reduced rows and
pivots.  free_dim and member_of_span read it for the tests' reference
dimensions and membership residuals.
"""

from freealg import linalg, quotient, tideal
from freealg.quotient import DEFAULT_DEGREE_CAP, BudgetExceeded
from freealg.term import PLANAR, Polynomial, QQ, count_monomials, enumerate_monomials, mdeg, \
    mdeg_total, splits2


def _dedupe(rows, fld):
    """Drop repeated rows up to scale (substitution instances repeat heavily)."""
    seen = set()
    out = []
    for row in rows:
        if not row:
            continue
        lead = min(row)
        inv = fld.inv(row[lead])
        key = tuple(sorted((c, str(fld.mul(inv, x))) for c, x in row.items()))
        if key in seen:
            continue
        seen.add(key)
        out.append(row)
    return out


class SpanCache:
    """Free-coordinate span bases per multidegree for one (variety, field)."""

    def __init__(self, variety, fld, degree_cap=DEFAULT_DEGREE_CAP):
        self.variety = variety
        self.field = fld
        self.degree_cap = degree_cap
        self.bases = {}

    def rows(self, d):
        """Generating rows at exactly multidegree d: substitution instances plus
        single left/right monomial multiples of lower reduced basis rows."""
        d = mdeg(d)
        flavor = self.variety.flavor
        out = []
        for f_idx, f in enumerate(self.variety.identities):
            if mdeg_total(f.multidegree()) > mdeg_total(d):
                continue
            for cr in tideal.substitution_instances(f, d, flavor):
                if cr.poly.multidegree() == d:
                    out.append(tideal.ConsequenceRow(cr.poly.to_field(self.field),
                                                     ("identity", f_idx) + cr.provenance))
        for d1, d2 in splits2(d):
            lower = self.basis(d2)
            lmons, _ = tideal.monomial_index(d2, flavor)
            for ri, row in enumerate(lower.rows):
                p = Polynomial(flavor, {lmons[c]: x for c, x in row.items()}, self.field)
                for m in enumerate_monomials(d1, flavor):
                    mp = Polynomial.unit(m, 1, self.field)
                    out.append(tideal.ConsequenceRow(mp * p, ("mul-left", m.to_text(), d2, ri)))
                    if flavor == PLANAR:
                        out.append(tideal.ConsequenceRow(p * mp,
                                                         ("mul-right", m.to_text(), d2, ri)))
        return out

    def basis(self, d) -> linalg.SpanBasis:
        d = mdeg(d)
        got = self.bases.get(d)
        if got is not None:
            return got
        quotient.check_degree_cap(d, self.degree_cap)
        if count_monomials(d, self.variety.flavor) > tideal.MAX_FREE_COLUMNS:
            raise BudgetExceeded("component %r exceeds the column budget %d"
                                 % (d, tideal.MAX_FREE_COLUMNS))
        mons, index = tideal.monomial_index(d, self.variety.flavor)
        rows = _dedupe([tideal.vectorize(cr.poly, index) for cr in self.rows(d)], self.field)
        basis = linalg.rref(rows, len(mons), self.field)
        self.bases[d] = basis
        return basis


_SPAN_CACHE: dict[tuple, SpanCache] = {}


def span_cache(variety, fld, degree_cap=DEFAULT_DEGREE_CAP) -> SpanCache:
    key = (variety.cache_key(), getattr(fld, "p", 0), degree_cap)
    sc = _SPAN_CACHE.get(key)
    if sc is None:
        sc = SpanCache(variety, fld, degree_cap)
        _SPAN_CACHE[key] = sc
    return sc


def consequence_span(variety, d, fld=QQ, degree_cap=DEFAULT_DEGREE_CAP) -> linalg.SpanBasis:
    """The reference's reduced basis of the T-ideal component at multidegree d."""
    return span_cache(variety, fld, degree_cap).basis(d)


def member_of_span(variety, poly, fld=QQ):
    """(certificate-or-None, residual) of a multihomogeneous polynomial."""
    d = poly.multidegree()
    if d is None:
        raise ValueError("membership needs a multihomogeneous polynomial")
    mons, index = tideal.monomial_index(d, variety.flavor)
    basis = consequence_span(variety, d, fld)
    return linalg.member(basis, tideal.vectorize(poly.to_field(fld), index))


def free_dim(variety, d, fld=QQ, degree_cap=DEFAULT_DEGREE_CAP):
    """dim of component d: free monomials minus the rank of the consequence span."""
    d = mdeg(d)
    return count_monomials(d, variety.flavor) - consequence_span(variety, d, fld, degree_cap).rank

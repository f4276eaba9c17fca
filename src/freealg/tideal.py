"""T-ideal consequence spans inside fixed multihomogeneous components.

A variety is an ambient flavor plus a list of defining identities.  The span
of all consequences of the identities at a multidegree d is generated in two
phases: blended substitution instances whose multidegree fits inside d, then
closure under single left/right multiplications by monomials until the target
multidegree is reached.  Rows live in the coordinate space indexed by
enumerate_monomials(d); reduction is canonical RREF.

This free-monomial construction is exact and simple, but its coordinate
spaces grow like Catalan(n-1) * n!, so dimensions (quotient_dim,
multilinear_dims) and membership verdicts come from the inductive quotient
(quotient.py) in every degree.  The spans here serve the questions whose
answers live in free coordinates (commutative spans, system equivalence,
certificates, the pivot-complement basis of the multilinear degree-4
assosymmetric component) and are the tests' reference for the quotient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import lang, linalg, quotient, specs
from .quotient import DEFAULT_DEGREE_CAP, BudgetExceeded
from .term import (COMMUTATIVE, PLANAR, FlavorError, Polynomial, QQ, count_monomials,
                   enumerate_monomials, mdeg, mdeg_key, mdeg_leq, mdeg_sub,
                   mdeg_total, splits2, sub_multidegrees)

MAX_FREE_COLUMNS = 250_000


class UnknownVariety(KeyError):
    """No variety of that name in the catalog."""

    def __str__(self):
        return self.args[0]


@dataclass(frozen=True)
class VarietyPresentation:
    """Ambient flavor plus defining identities (all multihomogeneous)."""

    name: str
    flavor: str
    identities: tuple
    notes: str = ""

    def __post_init__(self):
        for f in self.identities:
            if f.flavor != self.flavor:
                raise FlavorError("identity flavor mismatch in variety %r" % (self.name,))
            if f.multidegree() is None:
                raise ValueError("identity of %r is not multihomogeneous: %s" % (self.name, f))

    def cache_key(self):
        ids = tuple(sorted(str(f) for f in self.identities))
        return (self.name, self.flavor, ids)


@dataclass
class ConsequenceRow:
    """One generated consequence with its provenance."""

    poly: Polynomial
    provenance: tuple


def _mk(name, flavor, identity_texts, notes=""):
    ids = tuple(lang.expand(t, flavor) for t in identity_texts)
    return VarietyPresentation(name, flavor, ids, notes)


def _catalog_builtins():
    return {
        "assosymmetric": _mk(
            "assosymmetric", PLANAR,
            ["lsym(t1,t2,t3)", "rsym(t1,t2,t3)"],
            notes="characteristic != 2, 3 for the main theorems"),
        "dual_assosymmetric": _mk(
            "dual_assosymmetric", PLANAR,
            ["[t1,t2] t3 + [t2,t3] t1 + [t3,t1] t2", "A(t1,t2,t3)"]),
        "associative": _mk("associative", PLANAR, ["A(t1,t2,t3)"]),
        "magmatic": _mk("magmatic", PLANAR, []),
        "commutative_magmatic": _mk("commutative_magmatic", COMMUTATIVE, []),
        "lie_triple": _mk("lie_triple", COMMUTATIVE, ["lietriple(t1,t2,t3)"]),
        "jordan": _mk("jordan", COMMUTATIVE, ["jor(t1,t2)"]),
        "assder": _mk("assder", PLANAR, ["assder(t1,t2,t3,t4)"]),
    }


_CATALOG = None


def catalog():
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = _catalog_builtins()
    return _CATALOG


ALIASES = {
    "assym": "assosymmetric",
    "assym_dual": "dual_assosymmetric",
    "dual": "dual_assosymmetric",
    "assoc": "associative",
    "comm": "commutative_magmatic",
}


def get_variety(name, q=None) -> VarietyPresentation:
    """Catalog lookup; quasi_assosymmetric takes the rational parameter q."""
    name = ALIASES.get(name, name)
    if name == "quasi_assosymmetric":
        if q is None:
            raise ValueError("quasi_assosymmetric needs the parameter q")
        return quasi_assosymmetric(q)
    cat = catalog()
    if name not in cat:
        raise UnknownVariety("unknown variety %r (have: %s)" % (name, ", ".join(sorted(cat))))
    return cat[name]


def quasi_assosymmetric(q) -> VarietyPresentation:
    """Assosymmetric algebras under the q-commutator: defined by sigma_{-q} images."""
    q = Fraction(q)
    ids = (lang.apply_sigma_q(lang.expand("lsym(t1,t2,t3)", PLANAR), -q),
           lang.apply_sigma_q(lang.expand("rsym(t1,t2,t3)", PLANAR), -q))
    return VarietyPresentation("quasi_assosymmetric(q=%s)" % q, PLANAR, ids,
                               notes="q^2 != 1 for the variety theorems")


def variety_with(base: VarietyPresentation, extra_texts, name=None) -> VarietyPresentation:
    ids = base.identities + tuple(lang.expand(t, base.flavor) for t in extra_texts)
    return VarietyPresentation(name or (base.name + "+" + ";".join(extra_texts)),
                               base.flavor, ids, base.notes)


def load_catalog_file(path):
    """Plain-text catalog: blocks of 'name:', 'flavor:', repeated 'identity:' lines."""
    entries = {}
    name = flavor = None
    idents = []

    def close():
        nonlocal name, flavor, idents
        if name is not None:
            entries[name] = _mk(name, flavor, idents)
        name = flavor = None
        idents = []

    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                if not line:
                    close()
                continue
            key, _, val = line.partition(":")
            key, val = key.strip(), val.strip()
            if key == "name":
                close()
                name = val
            elif key == "flavor":
                flavor = val
            elif key == "identity":
                idents.append(val)
            else:
                raise ValueError("bad catalog line %r" % (line,))
    close()
    return entries


# ---------------------------------------------------------------------------
# Substitution instances (phase 1).
# ---------------------------------------------------------------------------

def _monomial_multisets(flavor, sizes, budget):
    """Nondecreasing tuples of monomials per size within a multidegree budget."""
    all_mons = []
    for e in sub_multidegrees(budget) + [budget]:
        all_mons.extend(enumerate_monomials(e, flavor))
    all_mons.sort(key=lambda m: (mdeg_key(m.multidegree()), m.enc))

    def rec(size_i, remaining, acc):
        if size_i == len(sizes):
            yield tuple(acc)
            return
        k = sizes[size_i]

        def pick(count, start, rem, chosen):
            if count == 0:
                yield from rec(size_i + 1, rem, acc + [tuple(chosen)])
                return
            for t in range(start, len(all_mons)):
                m = all_mons[t]
                md = m.multidegree()
                if not mdeg_leq(md, rem):
                    continue
                yield from pick(count - 1, t, mdeg_sub(rem, md), chosen + [m])

        yield from pick(k, 0, remaining, [])

    yield from rec(0, budget, [])


def substitution_instances(f: Polynomial, d, flavor) -> list[ConsequenceRow]:
    """All blended instances of f with multidegree componentwise <= d.

    For multilinear f these are the plain monomial substitutions; for a
    variable of multiplicity k the instance takes a multiset of k monomials
    and sums over its distinct arrangements (partial polarization), which is
    what makes non-multilinear identities generate their full consequence
    spans.
    """
    d = mdeg(d)
    if f.multidegree() is None:
        raise ValueError("identity must be multihomogeneous")
    if mdeg_total(f.multidegree()) > mdeg_total(d):
        raise ValueError("target degree smaller than the identity degree")
    prof = specs.identity_profile(f)
    sizes = [m for _, m in prof]
    var_names = [v for v, _ in prof]
    out = []
    for multisets in _monomial_multisets(flavor, sizes, d):
        assignment = dict(zip(var_names, multisets))
        inst = lang.blended_instance(f, assignment)
        if inst.is_zero():
            continue
        prov = tuple((v, tuple(m.to_text() for m in ms)) for v, ms in sorted(assignment.items()))
        out.append(ConsequenceRow(inst, ("instance", prov)))
    return out


# ---------------------------------------------------------------------------
# Consequence spans (phase 1 + multiplicative closure), free coordinates.
# ---------------------------------------------------------------------------

def vectorize(p: Polynomial, index: dict) -> dict:
    row = {}
    for m, c in p.terms.items():
        row[index[m]] = c
    return row


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


def monomial_index(d, flavor):
    mons = enumerate_monomials(mdeg(d), flavor)
    return mons, {m: i for i, m in enumerate(mons)}


class SpanCache:
    """Free-coordinate span bases per multidegree for one (variety, field)."""

    def __init__(self, variety, fld, degree_cap=DEFAULT_DEGREE_CAP):
        self.variety = variety
        self.field = fld
        self.degree_cap = degree_cap
        self.bases = {}

    def rows(self, d) -> list[ConsequenceRow]:
        """Generating rows at exactly multidegree d: substitution instances plus
        single left/right monomial multiples of lower reduced basis rows."""
        d = mdeg(d)
        flavor = self.variety.flavor
        out = []
        for f_idx, f in enumerate(self.variety.identities):
            if mdeg_total(f.multidegree()) > mdeg_total(d):
                continue
            for cr in substitution_instances(f, d, flavor):
                if cr.poly.multidegree() == d:
                    out.append(ConsequenceRow(cr.poly.to_field(self.field),
                                              ("identity", f_idx) + cr.provenance))
        for d1, d2 in splits2(d):
            lower = self.basis(d2)
            lmons, _ = monomial_index(d2, flavor)
            for ri, row in enumerate(lower.rows):
                p = Polynomial(flavor, {lmons[c]: x for c, x in row.items()}, self.field)
                for m in enumerate_monomials(d1, flavor):
                    mp = Polynomial.unit(m, 1, self.field)
                    out.append(ConsequenceRow(mp * p, ("mul-left", m.to_text(), d2, ri)))
                    if flavor == PLANAR:
                        out.append(ConsequenceRow(p * mp, ("mul-right", m.to_text(), d2, ri)))
        return out

    def basis(self, d) -> linalg.SpanBasis:
        d = mdeg(d)
        got = self.bases.get(d)
        if got is not None:
            return got
        quotient.check_degree_cap(d, self.degree_cap)
        if count_monomials(d, self.variety.flavor) > MAX_FREE_COLUMNS:
            raise BudgetExceeded("component %r exceeds the column budget %d"
                                 % (d, MAX_FREE_COLUMNS))
        mons, index = monomial_index(d, self.variety.flavor)
        rows = _dedupe([vectorize(cr.poly, index) for cr in self.rows(d)], self.field)
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
    """Deterministic reduced basis of the T-ideal component at multidegree d."""
    return span_cache(variety, fld, degree_cap).basis(d)


def generating_rows(variety, d, fld=QQ, degree_cap=DEFAULT_DEGREE_CAP) -> list[ConsequenceRow]:
    """The generating consequence rows at multidegree d, with provenance."""
    return span_cache(variety, fld, degree_cap).rows(d)


def member_of_span(variety, poly: Polynomial, fld=QQ):
    """(certificate-or-None, residual) of a multihomogeneous polynomial."""
    d = poly.multidegree()
    if d is None:
        raise ValueError("membership needs a multihomogeneous polynomial")
    mons, index = monomial_index(d, variety.flavor)
    basis = consequence_span(variety, d, fld)
    return linalg.member(basis, vectorize(poly.to_field(fld), index))


def quotient_dim(variety, d, fld=QQ, degree_cap=DEFAULT_DEGREE_CAP) -> int:
    """dim of the multidegree-d component of the relatively-free algebra,
    read off the inductive quotient over fld (quotient.get_quotient)."""
    return quotient.get_quotient(variety, fld, degree_cap).dim(d)


def multilinear_dims(variety, upto, fld=QQ, degree_cap=DEFAULT_DEGREE_CAP):
    """Dimensions of the multilinear components in degrees 1..upto; over QQ
    each builds its GF(p) twins in process, as it starts."""
    return [quotient_dim(variety, (1,) * n, fld, degree_cap) for n in range(1, upto + 1)]

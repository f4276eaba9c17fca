"""Theorem-level API: identity verdicts, fixed degree-4 coordinates, plus-algebra
identity kernels, identity-system equivalence, and named check suites.

is_identity decides each component in one loop: it passes when every image
(sparse in both fields) is empty.  At char p the field is GF(p); at char 0 a
component with at most `exact_column_cap` free-monomial columns (default
20 000) is decided exactly over QQ, a larger one modulo two independent
primes whose images must agree, with a 'modular' warning.  Each prime's
child gets the component and replies with its image (quotient.poly_images);
both are asked before either reply is read, so the two towers build side by
side in two child processes, or one after the other in process on a single
CPU, and the parent holds no GF(p) component for such a verdict.  Over QQ
the components lift their struct maps from one prime's tower, built
in process, and a second prime's only when reconstruction needs it
(quotient.ExactQuotient).  Zero images over QQ are exact membership proofs
even when the span was assembled from modular-selected rows (the rows are
honest consequence members either way).

Kernels and spans are tideal.image_kernel, through the quotient.  The only
free-monomial RREF is a certificate's, whose cost grows steeply with the
component's free monomials: above CERTIFICATE_CAP of them, a note stands in.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import albert27, lang, linalg, quotient, series, tideal
from .term import (COMMUTATIVE, PLANAR, GF, QQ, Polynomial, count_monomials,
                   enumerate_monomials, field_by_char, linear_combination, mdeg)

EXACT_COLUMN_CAP = 20000
CERTIFICATE_CAP = 1000


class EngineError(RuntimeError):
    pass


@dataclass
class Verdict:
    is_identity: bool
    characteristic: int
    multidegrees: list
    certificate: object = None
    timing: float = 0.0
    warnings: list = dc_field(default_factory=list)

    def as_report(self, check, claim_ref):
        return report_entry(check, claim_ref,
                            "identity" if self.is_identity else "not-identity",
                            self.characteristic, self.multidegrees, self.timing,
                            self.warnings)


def _char_warnings(variety, char):
    out = []
    if char == 2:
        out.append("characteristic 2 is outside the stated domain of the main theorems")
    if char == 3 and "2, 3" in variety.notes:
        out.append("characteristic 3 is outside the stated domain of the main theorems")
    return out


def candidate_polynomial(expr, variety, mode):
    """Expand a candidate over QQ for testing against a variety in the given mode."""
    if mode == "direct":
        return lang.expand(expr, variety.flavor, QQ)
    if mode == "plus":
        if variety.flavor != PLANAR:
            raise EngineError("plus mode tests identities of V^(+) for planar varieties")
        comm = lang.expand(expr, COMMUTATIVE, QQ)
        return lang.star_expand(comm)
    raise EngineError("unknown mode %r" % (mode,))


def is_identity(variety, expr, char=0, mode="direct",
                want_certificate=False, exact_column_cap=EXACT_COLUMN_CAP,
                degree_cap=quotient.DEFAULT_DEGREE_CAP) -> Verdict:
    """Does expr vanish identically on the variety (or its plus algebras)?"""
    t0 = time.time()
    warnings = _char_warnings(variety, char)
    poly = candidate_polynomial(expr, variety, mode)
    comps = poly.components()
    ok = True
    certificate = None
    if not comps:
        warnings.append("candidate expands to the zero polynomial")
    for d, part in comps.items():
        if char or count_monomials(d, variety.flavor) <= exact_column_cap:
            images = [quotient.get_quotient(variety, field_by_char(char), degree_cap)
                      .poly_image(part)]
        else:
            images = quotient.poly_images([quotient.get_quotient(variety, GF(p), degree_cap)
                                           for p in quotient.SELECTION_PRIMES], part)
            warnings.append("component %s decided by the two-prime modular strategy"
                            % (list(d),))
        zero = [not img for img in images]
        if len(set(zero)) > 1:
            raise EngineError("strategy primes disagree at %r" % (d,))
        ok = ok and zero[0]
    if want_certificate and ok and char == 0:
        certificate = _certificate(variety, poly, comps)
    return Verdict(ok, char, list(comps), certificate, time.time() - t0, warnings)


def _certificate(variety, poly, comps):
    """Express each component over generated consequence rows, re-multiplied exactly.

    Returns {mdeg: [(provenance, coefficient, row polynomial), ...]} with the
    invariant sum(coeff * row) == component, checked here bit-exactly.
    """
    cert = {}
    for d, part in comps.items():
        if count_monomials(d, variety.flavor) > CERTIFICATE_CAP:
            cert[d] = "component too large for a stored certificate"
            continue
        gen = tideal.generating_rows(variety, d, QQ)
        mons, index = tideal.monomial_index(d, variety.flavor)
        rows = [tideal.vectorize(cr.poly, index) for cr in gen]
        basis = linalg.rref(rows, len(mons), QQ, want_provenance=True)
        by_gen = basis.express(tideal.vectorize(part, index))
        if by_gen is None:
            return None
        entries = [{"provenance": gen[j].provenance, "coefficient": str(by_gen[j]),
                    "row": str(gen[j].poly)} for j in sorted(by_gen)]
        combo = linear_combination(variety.flavor, QQ,
                                   [(by_gen[j], gen[j].poly) for j in sorted(by_gen)])
        if combo != part:
            raise EngineError("certificate re-multiplication failed at %r" % (d,))
        cert[d] = entries
    return cert


# ---------------------------------------------------------------------------
# Fixed degree-4 coordinates for the assosymmetric quotient.
# ---------------------------------------------------------------------------

HENTZEL_BASIS_TEXT = {
    (4,): ["((t1 t1) t1) t1", "(t1 t1)(t1 t1)", "(t1 (t1 t1)) t1"],
    (3, 1): ["(t1 t1)(t1 t2)", "(t2 (t1 t1)) t1", "((t2 t1) t1) t1", "((t1 t2) t1) t1",
             "((t1 t1) t2) t1", "(t1 (t1 t1)) t2", "((t1 t1) t1) t2"],
    (2, 2): ["(t1 t1)(t2 t2)", "(t2 (t1 t2)) t1", "((t2 t2) t1) t1", "((t2 t1) t2) t1",
             "((t1 t2) t2) t1", "(t2 (t1 t1)) t2", "((t2 t1) t1) t2", "((t1 t2) t1) t2",
             "((t1 t1) t2) t2"],
    (2, 1, 1): ["(t1 t1)(t2 t3)", "(t3 (t1 t2)) t1", "((t3 t2) t1) t1", "((t2 t3) t1) t1",
                "((t3 t1) t2) t1", "((t1 t3) t2) t1", "((t2 t1) t3) t1", "((t1 t2) t3) t1",
                "(t3 (t1 t1)) t2", "((t3 t1) t1) t2", "((t1 t3) t1) t2", "((t1 t1) t3) t2",
                "(t2 (t1 t1)) t3", "((t2 t1) t1) t3", "((t1 t2) t1) t3", "((t1 t1) t2) t3"],
}


def _monomial(text):
    """The planar monomial that a DSL text of one unit term denotes."""
    (m,) = lang.expand(text, PLANAR).terms
    return m


def hentzel_basis(alpha):
    """Fixed monomial basis of the degree-4 assosymmetric component of type alpha.

    The four listed types use the pinned monomial lists; type (1,1,1,1) uses
    the deterministic pivot-complement basis of the free-coordinate span.
    """
    alpha = mdeg(alpha)
    if alpha in HENTZEL_BASIS_TEXT:
        return [_monomial(t) for t in HENTZEL_BASIS_TEXT[alpha]]
    if alpha == (1, 1, 1, 1):
        variety = tideal.get_variety("assosymmetric")
        mons, _ = tideal.monomial_index(alpha, PLANAR)
        basis = tideal.consequence_span(variety, alpha, QQ)
        piv = basis.pivot_set()
        return [m for i, m in enumerate(mons) if i not in piv]
    raise EngineError("no fixed basis for type %r" % (alpha,))


def validate_hentzel_basis(alpha):
    """The pinned monomials are independent and complete modulo the span."""
    variety = tideal.get_variety("assosymmetric")
    qa = quotient.get_quotient(variety, QQ)
    mons = hentzel_basis(alpha)
    dim = qa.dim(alpha)
    if len(mons) != dim:
        return False
    rows = [qa.monomial_image(m) for m in mons]
    basis = linalg.rref(rows, dim, QQ)
    return basis.rank == dim


def reduce_to_basis(variety, expr, alpha, mode="plus"):
    """Coordinates of the candidate's canonical residual in the fixed basis."""
    if variety.name != "assosymmetric":
        raise EngineError("fixed degree-4 coordinates are defined for the assosymmetric quotient")
    alpha = mdeg(alpha)
    poly = candidate_polynomial(expr, variety, mode)
    if poly.is_zero():
        return {m: Fraction(0) for m in hentzel_basis(alpha)}
    if poly.multidegree() != alpha:
        raise EngineError("candidate has type %r, expected %r" % (poly.multidegree(), alpha))
    qa = quotient.get_quotient(variety, QQ)
    img = qa.poly_image(poly)
    mons = hentzel_basis(alpha)
    rows = [qa.monomial_image(m) for m in mons]
    coeffs = linalg_solve_rows(rows, img, qa.dim(alpha))
    return dict(zip(mons, coeffs))


def linalg_solve_rows(rows, v, ncols):
    """Coefficients expressing v in the given (independent) rows, exactly."""
    coords = linalg.rref(rows, ncols, QQ, want_provenance=True).express(v)
    if coords is None:
        raise EngineError("vector does not lie in the row span")
    return [coords.get(j, Fraction(0)) for j in range(len(rows))]


# ---------------------------------------------------------------------------
# Plus-identity kernels.
# ---------------------------------------------------------------------------

def plus_identity_kernel(variety, d, char=0, degree_cap=quotient.DEFAULT_DEGREE_CAP):
    """Identities of V^(+) of multidegree d, as a span of commutative polynomials.

    Kernel of the map sending a commutative polynomial to the image of its
    star expansion in the relatively-free algebra of V.
    """
    if variety.flavor != PLANAR:
        raise EngineError("plus kernels are defined for planar varieties")
    d = mdeg(d)
    comm = enumerate_monomials(d, COMMUTATIVE)
    stars = [lang.star_expand(Polynomial.unit(m, 1, QQ)) for m in comm]
    return tideal.image_kernel(variety, d, stars, field_by_char(char), degree_cap), comm


def kernel_polynomials(kb, comm, fld=QQ):
    out = []
    for row in kb.rows:
        out.append(Polynomial(COMMUTATIVE, {comm[i]: c for i, c in row.items()}, fld))
    return out


def commutative_span(identity_texts, d, char=0):
    """Consequence span of identities over the commutative-magmatic ambient."""
    base = tideal.get_variety("commutative_magmatic")
    v = tideal.variety_with(base, identity_texts)
    return tideal.consequence_span(v, d, field_by_char(char))


def systems_equivalent(s1_texts, s2_texts, ambient, degrees, char=0,
                       degree_cap=quotient.DEFAULT_DEGREE_CAP):
    """Per-multidegree: do the two systems generate the same consequence span?"""
    fld = field_by_char(char)
    v1 = tideal.variety_with(ambient, s1_texts)
    v2 = tideal.variety_with(ambient, s2_texts)
    out = {}
    for d in degrees:
        d = mdeg(d)
        b1 = tideal.consequence_span(v1, d, fld, degree_cap)
        b2 = tideal.consequence_span(v2, d, fld, degree_cap)
        out[d] = b1.same_span(b2)
    return out


# ---------------------------------------------------------------------------
# Suite machinery.
# ---------------------------------------------------------------------------

DEGREE4_TYPES = [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def _expected_coords(text_to_value):
    """Normalize expectation keys to canonical monomial text; drop zeros."""
    out = {}
    for text, v in text_to_value.items():
        if v:
            out[_monomial(text).to_text()] = Fraction(v)
    return out


def _mu_combo(mus, calls):
    """Signed linear combination as DSL text (negative coefficients included)."""
    bits = []
    for mu, call in zip(mus, calls):
        if mu == 0:
            continue
        sign = "-" if mu < 0 else ("+" if bits else "")
        mag = abs(mu)
        coeff = "" if mag == 1 else "%s " % mag
        bits.append("%s %s%s" % (sign, coeff, call) if sign else "%s%s" % (coeff, call))
    return " ".join(bits) if bits else "0"


def report_entry(check, claim_ref, verdict, char=0, mdegs=(), t=0.0, warnings=(), **extra):
    """One report entry in the stable schema {check, claim_ref, verdict, char,
    multidegrees, timing, warnings}, followed by the given extra keys."""
    return {
        "check": check,
        "claim_ref": claim_ref,
        "verdict": verdict,
        "char": char,
        "multidegrees": [list(d) for d in mdegs],
        "timing": t,
        "warnings": list(warnings),
        **extra,
    }


def _pass_fail(ok):
    return "pass" if ok else "fail"


def _timed(fn):
    t0 = time.time()
    out = fn()
    return out, time.time() - t0


def _identity_entry(check, claim_ref, variety, expr, char, mode, expect=True):
    v = is_identity(variety, expr, char=char, mode=mode)
    return report_entry(check, claim_ref, _pass_fail(v.is_identity == expect), char,
                        v.multidegrees, v.timing, v.warnings)


def _coordinates_entry(check, claim_ref, expr, alpha, expected):
    """expr's nonzero plus-evaluated coordinates in the fixed basis of type alpha
    against expected ({monomial text: value}, zeros dropped)."""
    coords = reduce_to_basis(tideal.get_variety("assosymmetric"), expr, alpha)
    got = {m.to_text(): c for m, c in coords.items() if c}
    return report_entry(check, claim_ref, _pass_fail(got == _expected_coords(expected)), 0,
                        [alpha], detail={"coordinates": {k: str(v) for k, v in got.items()}})


def _exact_zero_entry(check, claim_ref, expr, flavor):
    (p, t) = _timed(lambda: lang.expand(expr, flavor))
    return report_entry(check, claim_ref, _pass_fail(p.is_zero()), 0,
                        [] if p.is_zero() else [p.components().popitem()[0]], t)


SIGMA_DISPLAY_LSYM = (
    "t1(t2 t3) - {q} t1(t3 t2) - t2(t1 t3) + {q} t2(t3 t1)"
    " + {qq1} t3(t1 t2) - {qq1} t3(t2 t1) - {q1} (t1 t2) t3 + {q1} (t2 t1) t3"
    " + {q} (t1 t3) t2 - {q2} (t3 t1) t2 - {q} (t2 t3) t1 + {q2} (t3 t2) t1")

SIGMA_DISPLAY_RSYM = (
    "{q1} t1(t2 t3) - {q1} t1(t3 t2) - {q} t2(t1 t3) + {q2} t2(t3 t1)"
    " + {q} t3(t1 t2) - {q2} t3(t2 t1) - (t1 t2) t3 + (t1 t3) t2"
    " + {q} (t2 t1) t3 - {q} (t3 t1) t2 - {qq1} (t2 t3) t1 + {qq1} (t3 t2) t1")


def sigma_display(which, q):
    q = Fraction(q)
    tmpl = SIGMA_DISPLAY_LSYM if which == "lsym" else SIGMA_DISPLAY_RSYM
    def fmt(x):
        x = Fraction(x)
        return "%s/%s" % (x.numerator, x.denominator) if x.denominator != 1 else str(x)
    text = tmpl.format(q=fmt(q), q1=fmt(1 + q), q2=fmt(q * q), qq1=fmt(q * (q + 1)))
    return lang.expand(text, PLANAR)


def suite_lemmas(char=0):
    """Identities of commutator/associator calculus over the assosymmetric quotient."""
    assym = tideal.get_variety("assosymmetric")
    out = []
    out.append(_exact_zero_entry(
        "plus-associator-expansion", "free-algebra:plus-associator-difference",
        "J(t1,t2,t3) - A(t1,t2,t3) + A(t3,t2,t1)"
        " - (t1(t3 t2) - t3(t1 t2) - (t2 t1)t3 + (t2 t3)t1)", PLANAR))
    out.append(_identity_entry(
        "plus-associator-equals-double-bracket", "assym:plus-associator-bracket",
        assym, "J(t1,t2,t3) - [[t1,t3],t2]", char, "direct"))
    for i, expr in enumerate([
            "A([t1,t2],t3,t4)", "A(t3,[t1,t2],t4)", "A(t3,t4,[t1,t2])"]):
        out.append(_identity_entry(
            "commutator-in-nucleus-%d" % (i + 1), "assym:commutator-nucleus",
            assym, expr, char, "direct"))
    out.append(_identity_entry(
        "commutator-kills-associator-left", "assym:commutator-associator-products",
        assym, "[t1,t2] A(t3,t4,t5)", char, "direct"))
    out.append(_identity_entry(
        "commutator-kills-associator-right", "assym:commutator-associator-products",
        assym, "A(t1,t2,t3) [t4,t5]", char, "direct"))
    out.append(_identity_entry(
        "adjoint-leibniz-defect", "assym:adjoint-derivation-defect",
        assym, "[t1, t2 t3] - [t1,t2] t3 - t2 [t1,t3] - A(t1,t2,t3)", char, "direct"))
    out.append(_identity_entry(
        "bracket-square-star-commutator", "assym:k3-product-vanishes",
        assym, "[A(t1,t2,t2), t1] @ [[t1,t2],t3]", char, "direct"))
    out.append(_identity_entry(
        "symmetrized-triple-bracket", "assym:triple-star-sum-is-bracket",
        assym, "J(t2,t1,t3 @ t4) + J(t3,t1,t4 @ t2) + J(t4,t1,t2 @ t3)"
               " + 6 [t1, A(t2,t3,t4)]", char, "direct"))
    # the full symmetry of wjor lives on the plus algebra: wjor is evaluated
    # with the star product, so the check is a plus-mode reduction
    s4 = list(itertools.permutations((1, 2, 3, 4)))
    bad = []
    t0 = time.time()
    for perm in s4:
        expr = "wjor(t1,t2,t3,t4) - wjor(t%d,t%d,t%d,t%d)" % perm
        v = is_identity(assym, expr, char=char, mode="plus")
        if not v.is_identity:
            bad.append(perm)
    out.append(report_entry("wjor-full-symmetry", "assym:wjor-symmetric-under-s4",
                            _pass_fail(not bad), char, [(1, 1, 1, 1)], time.time() - t0,
                            detail={"failing_permutations": bad}))
    out.append(_identity_entry(
        "triple-commutator-element-equals-star-polynomial", "assym:d-element-equals-star-form",
        assym, "D(t1,t2,t3) - shest(t1,t2,t3)", char, "direct"))
    out.append(_exact_zero_entry(
        "commutative-left-multiplication-bracket", "comm:associator-as-bracket",
        "A(t1,t2,t3) - t1(t3 t2) + t3(t1 t2)", COMMUTATIVE))
    out.append(_exact_zero_entry(
        "commutative-associator-antisymmetry", "comm:associator-antisymmetric",
        "A(t1,t2,t3) + A(t3,t2,t1)", COMMUTATIVE))
    out.append(_exact_zero_entry(
        "skew-leibniz-rewrite", "comm:skew-leibniz-as-associators",
        "jor1(t1,t2,t3,t4) - (A(t1,t3 t4,t2) - t3 A(t1,t4,t2) - t4 A(t1,t3,t2))",
        COMMUTATIVE))
    out.append(_exact_zero_entry(
        "skew-difference-of-multilinear-jordan", "comm:jor1-as-wjor-difference",
        "jor1(t1,t2,t3,t4) + wjor(t1,t2,t3,t4) - wjor(t2,t1,t3,t4)", COMMUTATIVE))
    for name, expr in [
            ("alternating-sum-relation-a",
             "jor2(t1,t2,t3,t4) - jor2(t2,t1,t3,t4) + 2 jor1(t1,t2,t3,t4)"),
            ("alternating-sum-relation-b",
             "jor2(t1,t2,t3,t4) - jor2(t1,t2,t4,t3) + 2 jor1(t3,t4,t1,t2)"),
            ("alternating-sum-relation-c",
             "jor2(t1,t2,t3,t4) + jor2(t2,t1,t3,t4) + 2 jor1(t3,t4,t1,t2)"),
            ("alternating-sum-relation-d",
             "jor2(t1,t2,t3,t4) + jor2(t1,t2,t4,t3) + 2 jor1(t1,t2,t3,t4)"),
            ("alternating-sum-relation-e",
             "jor2(t1,t2,t3,t4) + jor2(t2,t1,t4,t3)")]:
        e = _exact_zero_entry(name, "comm:jor2-exchange-relations", expr, COMMUTATIVE)
        if name == "alternating-sum-relation-b":
            e["warnings"] = ["the four exchange relations are verified "
                             "independently; two of their textbook derivations "
                             "share a right-hand side and are not relied on"]
        out.append(e)
    out.append(_exact_zero_entry(
        "jor2-as-jor1-sum", "comm:jor2-from-jor1",
        "jor2(t1,t2,t3,t4) + jor1(t1,t2,t3,t4) + jor1(t3,t4,t1,t2)", COMMUTATIVE))
    ad = tideal.get_variety("assder")
    out.append(_identity_entry(
        "derivation-form-implies-lie-triple", "assder:implies-lie-triple",
        ad, "lietriple(t1,t2,t3)", char, "direct"))
    return sorted(out, key=lambda e: e["check"])


ARMAN_SYSTEMS = {
    "skew-leibniz": ["jor1(t1,t2,t3,t4)"],
    "skew-leibniz-identified": ["jor1(t1,t2,t3,t3)"],
    "square-associator": ["A(t1, t3 t3, t2) - 2 t3 A(t1,t3,t2)"],
    "split-associator": ["A(t1, t2 t3, t4) - t2 A(t1,t3,t4) - t3 A(t1,t2,t4)"],
    "alternating-sum": ["jor2(t1,t2,t3,t4)"],
    "nested-left-multiplications": [
        "t1(t3(t2 t4)) - t3(t1(t2 t4)) - t2(t1(t3 t4)) + t2(t3(t1 t4)) - A(t1,t2,t3) t4"],
    "multilinear-jordan-exchange": ["wjor(t1,t2,t3,t4) - wjor(t2,t1,t3,t4)"],
}
ARMAN_CUBIC = "2 ((t2 t1) t1) t1 + t2((t1 t1) t1) - 3 (t2(t1 t1)) t1"


def suite_arman(char=0):
    """Pairwise equivalence of the degree-4 commutative identity systems."""
    ambient = tideal.get_variety("commutative_magmatic")
    names = sorted(ARMAN_SYSTEMS)
    out = []
    t0 = time.time()
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            same = systems_equivalent(ARMAN_SYSTEMS[a], ARMAN_SYSTEMS[b], ambient,
                                      DEGREE4_TYPES, char)
            bad = [d for d in DEGREE4_TYPES if not same[d]]
            out.append(report_entry("equivalent-systems:%s~%s" % (a, b),
                                    "comm:degree-4-systems-equivalent",
                                    _pass_fail(not bad), char, DEGREE4_TYPES, 0.0,
                                    detail={"differing_types": [list(d) for d in bad]}))
    gen_t = time.time() - t0
    # one-directional: the alternating sum implies the one-variable cubic relation
    v66 = tideal.variety_with(ambient, ARMAN_SYSTEMS["alternating-sum"], name="comm+66")
    v = is_identity(v66, ARMAN_CUBIC, char, "direct")
    out.append(report_entry("alternating-sum-implies-cubic", "comm:consequence-of-degree-4-system",
                            _pass_fail(v.is_identity), char, [(3, 1)], gen_t))
    return sorted(out, key=lambda e: e["check"])


def suite_deg4(char=0):
    """Degree-4 dimensions, fixed-coordinate residuals and kernel classification."""
    assym = tideal.get_variety("assosymmetric")
    assoc = tideal.get_variety("associative")
    out = []
    want = {(4,): 3, (3, 1): 7, (2, 2): 9, (2, 1, 1): 16, (1, 1, 1, 1): 29}
    for d, w in want.items():
        (got, t) = _timed(lambda d=d: tideal.quotient_dim(assym, d, field_by_char(char)))
        out.append(report_entry("dimension:%s" % (list(d),), "assym:degree-4-dimension-table",
                                _pass_fail(got == w), char, [d], t,
                                detail={"dim": got, "expected": w}))
    for alpha in [(4,), (3, 1), (2, 2), (2, 1, 1)]:
        (ok, t) = _timed(lambda a=alpha: validate_hentzel_basis(a))
        out.append(report_entry("fixed-basis-valid:%s" % (list(alpha),),
                                "assym:degree-4-basis-pinned", _pass_fail(ok), 0, [alpha], t))
    # residual coordinates of the plus-evaluated test polynomials
    out.append(_coordinates_entry(
        "residual-coordinates:quartic", "assym:quartic-residual", "g4_1(t1)", (4,),
        {"((t1 t1) t1) t1": -2, "(t1 (t1 t1)) t1": 4, "(t1 t1)(t1 t1)": -2}))
    v31 = reduce_to_basis(assym, "g31_2(t1,t2)", (3, 1))
    out.append(report_entry("residual-coordinates:type-31-second", "assym:type-31-identity",
                            _pass_fail(all(c == 0 for c in v31.values())), 0, [(3, 1)]))
    v31a = reduce_to_basis(assym, "g31_1(t1,t2)", (3, 1))
    out.append(report_entry("residual-coordinates:type-31-first", "assym:type-31-nonidentity",
                            _pass_fail(any(c != 0 for c in v31a.values())), 0, [(3, 1)]))
    base22 = {"(t1 t1)(t2 t2)": 1, "(t2 (t1 t2)) t1": -2, "((t1 t1) t2) t2": -1,
              "((t2 t1) t2) t1": 2}
    for mu1, mu2 in [(1, 0), (1, -1)]:
        out.append(_coordinates_entry(
            "residual-coordinates:type-22:mu=%d,%d" % (mu1, mu2), "assym:type-22-residual-multiple",
            _mu_combo([mu1, mu2], ["g22_1(t1,t2)", "g22_1(t2,t1)"]), (2, 2),
            {k: 6 * (mu1 + mu2) * v for k, v in base22.items()}))
    base211 = {"(t1 t1)(t2 t3)": 1, "(t3 (t1 t2)) t1": -2, "((t1 t1) t2) t3": -1,
               "((t3 t1) t2) t1": 2}
    for mu in [(1, 0, 0), (1, -1, 0)]:
        out.append(_coordinates_entry(
            "residual-coordinates:type-211:mu=%d,%d,%d" % mu, "assym:type-211-residual-multiple",
            _mu_combo(list(mu), ["g211_1(t1,t2,t3)", "g211_2(t1,t2,t3)", "g211_2(t1,t3,t2)"]),
            (2, 1, 1), {k: -6 * sum(mu) * v for k, v in base211.items()}))
    for name in ["h22(t1,t2)", "h211_1(t1,t2,t3)", "h211_2(t1,t2,t3)", "g31_2(t1,t2)"]:
        out.append(_identity_entry("plus-identity:%s" % name.split("(")[0],
                                   "assym:degree-4-plus-identities",
                                   assym, name, char, "plus"))
    # kernel classification at each type
    t0 = time.time()
    all_ok = True
    details = {}
    for d in DEGREE4_TYPES:
        kb, comm = plus_identity_kernel(assym, d, char)
        jor1_span = commutative_span(["jor1(t1,t2,t3,t4)"], d, char)
        same = kb.same_span(jor1_span)
        ka, _ = plus_identity_kernel(assoc, d, char)
        contained = all(ka.contains(r) for r in kb.rows)
        details[str(list(d))] = {"kernel_dim": kb.rank, "jor1_span_dim": jor1_span.rank,
                                 "equal": same, "contained_in_associative": contained}
        all_ok = all_ok and same and contained
    out.append(report_entry("kernel-classification", "assym:plus-kernels-are-skew-leibniz-span",
                            _pass_fail(all_ok), char, DEGREE4_TYPES, time.time() - t0,
                            detail=details))
    return sorted(out, key=lambda e: e["check"])


def suite_main1(char=0, heavy=True):
    """The two plus-identities and the independence evidence."""
    assym = tideal.get_variety("assosymmetric")
    out = []
    for c in ([0, 5] if char == 0 else [char]):
        out.append(_identity_entry("lie-triple-plus-identity:char%d" % c,
                                   "assym:plus-lie-triple", assym,
                                   "lietriple(t1,t2,t3)", c, "plus"))
    if heavy:
        out.append(_identity_entry("glennie-plus-identity", "assym:plus-glennie",
                                   assym, "glen(t1,t2,t3)", char, "plus"))
    out.append(report_entry(
        "independence:commutativity", "independence:degree-argument", "pass", char,
        [(1, 1)], 0.0,
        detail="a degree-2 identity cannot be a consequence of identities whose "
               "multihomogeneous components all have degree >= 4"))
    out.append(report_entry(
        "characteristic-2-collapse", "char2:plus-equals-minus", "pass", 2, [], 0.0,
        warnings=["note only: no characteristic-2 theorem checks are run"],
        detail="at characteristic 2 the plus and minus algebras coincide, so "
               "every plus-identity follows from commutativity and the Jacobi "
               "identity"))
    rep = albert27.sample_report("glen(t1,t2,t3)", seed=20240809, samples=20)
    rep_j = albert27.sample_report("jor(t1,t2)", seed=20240809, samples=20)
    rep_l = albert27.sample_report("lietriple(t1,t2,t3)", seed=20240809, samples=20)
    out.append(report_entry(
        "independence:glennie-witness", "independence:hermitian-octonion-witness",
        _pass_fail(rep["nonzero_count"] > 0 and rep_j["nonzero_count"] == 0
                   and rep_l["nonzero_count"] == 0),
        0, [(3, 3, 2)], 0.0,
        detail={"glen_nonzero": rep["nonzero_count"], "jor_zero": rep_j["zero_count"],
                "lietriple_zero": rep_l["zero_count"]}))
    return sorted(out, key=lambda e: e["check"])


def suite_char3(heavy=True):
    """The characteristic-3 branch: wjor and glen become plus-identities."""
    assym = tideal.get_variety("assosymmetric")
    out = []
    out.append(_identity_entry("wjor-plus-identity:char3", "assym:char3-wjor",
                               assym, "wjor(t1,t2,t3,t4)", 3, "plus"))
    out.append(_identity_entry("wjor-plus-nonidentity:char0", "assym:char0-wjor-fails",
                               assym, "wjor(t1,t2,t3,t4)", 0, "plus", expect=False))
    if heavy:
        out.append(_identity_entry("glennie-plus-identity:char3", "assym:char3-glennie",
                                   assym, "glen(t1,t2,t3)", 3, "plus"))
    for name, expr in [
            ("type-22-generator-is-wjor", "g22_1(t1,t2) + wjor(t1,t1,t2,t2)"),
            ("type-211-first-generator-is-wjor", "g211_1(t1,t2,t3) - wjor(t1,t1,t2,t3)"),
            ("type-211-second-generator-is-wjor", "g211_2(t1,t2,t3) - wjor(t2,t3,t1,t1)")]:
        out.append(_exact_zero_entry(name, "comm:wjor-identifications", expr, COMMUTATIVE))
    t0 = time.time()
    all_ok = True
    details = {}
    for d in DEGREE4_TYPES:
        kb, comm = plus_identity_kernel(assym, d, 3)
        wspan = commutative_span(["wjor(t1,t2,t3,t4)"], d, 3)
        same = kb.same_span(wspan)
        details[str(list(d))] = {"kernel_dim": kb.rank, "wjor_span_dim": wspan.rank,
                                 "equal": same}
        all_ok = all_ok and same
    out.append(report_entry("kernel-classification:char3", "assym:char3-kernels-are-wjor-span",
                            _pass_fail(all_ok), 3, DEGREE4_TYPES, time.time() - t0,
                            detail=details))
    return sorted(out, key=lambda e: e["check"])


def suite_quasi(char=0):
    """q-commutator displays and their consequence structure at sample q."""
    out = []
    for q in [2, 3, 5]:
        for which in ["lsym", "rsym"]:
            (got, t) = _timed(lambda w=which, qq=q: lang.apply_sigma_q(
                lang.expand("%s(t1,t2,t3)" % w, PLANAR), -qq))
            ok = got == sigma_display(which, q)
            out.append(report_entry("sigma-image:%s:q=%d" % (which, q),
                                    "quasi:sigma-displays", _pass_fail(ok), 0, [(1, 1, 1)], t))
    for q in [Fraction(2), Fraction(3), Fraction(1, 2)]:
        v = is_identity(tideal.quasi_assosymmetric(q), "assder(t1,t2,t3,t4)", char, "direct")
        out.append(report_entry("derivation-form-from-q-laws:q=%s" % q,
                                "quasi:assder-consequence", _pass_fail(v.is_identity), char,
                                [(1, 1, 1, 1)], v.timing))
    return sorted(out, key=lambda e: e["check"])


def suite_koszul(char=0):
    """Dimension sequences, the dual pairing and the order-5 obstruction."""
    assym = tideal.get_variety("assosymmetric")
    dual = tideal.get_variety("dual_assosymmetric")
    fld = field_by_char(char)
    out = []
    (dims, t1) = _timed(lambda: tideal.multilinear_dims(assym, 5, fld))
    out.append(report_entry("multilinear-dimensions", "assym:multilinear-1-to-5",
                            _pass_fail(dims == [1, 2, 7, 29, 136]), char,
                            [(1,) * n for n in range(1, 6)], t1, detail={"dims": dims}))
    (ddims, t2) = _timed(lambda: tideal.multilinear_dims(dual, 7, fld))
    out.append(report_entry("dual-multilinear-dimensions", "dual:multilinear-1-to-7",
                            _pass_fail(ddims == [1, 2, 5, 9, 9, 11, 13]), char,
                            [(1,) * n for n in range(1, 8)], t2, detail={"dims": ddims}))
    resid = series.koszul_residual(assym, dual, 5, fld)[0]
    expect = series.TruncatedSeries.from_coeffs([0, 0, 0, 0, Fraction(3, 8)])
    out.append(report_entry("composition-residual", "koszul:order-5-obstruction",
                            _pass_fail(resid == expect), char, [], 0.0,
                            detail={"residual": str(resid), "koszul": resid.is_zero()}))
    return sorted(out, key=lambda e: e["check"])


def suite_albert(seed=20240809, samples=100):
    """Witness-model checks: structural octonion laws and the three evaluations."""
    out = []
    e = [albert27.Octonion.basis(i) for i in range(8)]
    ok_unit = all((e[0] * x == x and x * e[0] == x) for x in e)
    ok_sq = all((e[i] * e[i]) == -e[0] for i in range(1, 8))
    import random as _random
    rng = _random.Random(seed)
    def rnd():
        return albert27.Octonion(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                       for _ in range(8)))
    ok_alt = all(albert27.associator(x, x, y).is_zero()
                 and albert27.associator(y, x, x).is_zero()
                 for x, y in (tuple((rnd(), rnd()) for _ in range(25))))
    ok_norm = all((x * y).norm() == x.norm() * y.norm()
                  for x, y in (tuple((rnd(), rnd()) for _ in range(25))))
    nonassoc = any(not albert27.associator(e[i], e[j], e[k]).is_zero()
                   for i in range(1, 8) for j in range(1, 8) for k in range(1, 8))
    out.append(report_entry("octonion-structure", "albert:octonion-laws",
                            _pass_fail(ok_unit and ok_sq and ok_alt and ok_norm and nonassoc)))
    (rj, tj) = _timed(lambda: albert27.sample_report("jor(t1,t2)", seed, samples))
    out.append(report_entry("jordan-identity-evaluates-to-zero", "albert:jordan-zero",
                            _pass_fail(rj["zero_count"] == samples), 0, [(3, 1)], tj,
                            detail={"zeros": rj["zero_count"]}))
    (rl, tl) = _timed(lambda: albert27.sample_report("lietriple(t1,t2,t3)", seed, samples))
    out.append(report_entry("lie-triple-evaluates-to-zero", "albert:lie-triple-zero",
                            _pass_fail(rl["zero_count"] == samples), 0, [(1, 2, 1)], tl,
                            detail={"zeros": rl["zero_count"]}))
    (rg, tg) = _timed(lambda: albert27.sample_report("glen(t1,t2,t3)", seed, samples))
    out.append(report_entry("glennie-has-nonzero-witness", "albert:glennie-nonzero",
                            _pass_fail(rg["nonzero_count"] > 0 and rg["witness"] is not None), 0,
                            [(3, 3, 2)], tg,
                            detail={"nonzeros": rg["nonzero_count"],
                                    "witness_sample": (rg["witness"] or {}).get("sample_index")}))
    # wjor is half the full polarization of jor, so it vanishes on any Jordan
    # algebra in characteristic 0; its failure as a plus-assosymmetric identity
    # is a symbolic fact (see the char3 suite), not a witness-model one.
    (rw, tw) = _timed(lambda: albert27.sample_report("wjor(t1,t2,t3,t4)", seed, samples))
    out.append(report_entry("multilinear-jordan-evaluates-to-zero",
                            "albert:wjor-zero-on-jordan-model",
                            _pass_fail(rw["nonzero_count"] == 0), 0, [(1, 1, 1, 1)], tw,
                            detail={"zeros": rw["zero_count"]}))
    return sorted(out, key=lambda e: e["check"])


SUITES = {
    "lemmas": lambda cfg: suite_lemmas(cfg.get("char", 0)),
    "arman": lambda cfg: suite_arman(cfg.get("char", 0)),
    "deg4": lambda cfg: suite_deg4(cfg.get("char", 0)),
    "main1": lambda cfg: suite_main1(cfg.get("char", 0), cfg.get("heavy", True)),
    "char3": lambda cfg: suite_char3(cfg.get("heavy", True)),
    "quasi": lambda cfg: suite_quasi(cfg.get("char", 0)),
    "koszul": lambda cfg: suite_koszul(cfg.get("char", 0)),
    "albert": lambda cfg: suite_albert(cfg.get("seed", 20240809), cfg.get("samples", 100)),
}


def theorem_suite(name, **cfg):
    """Run a named suite; entries are sorted by check name and all must pass."""
    if name not in SUITES:
        raise EngineError("unknown suite %r (have: %s)" % (name, ", ".join(sorted(SUITES))))
    entries = SUITES[name](cfg)
    passed = all(e["verdict"] == "pass" for e in entries)
    return {"suite": name, "passed": passed, "entries": entries}

"""Verdicts, fixed-coordinate residuals, kernels, equivalences and light suites."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from freealg import engine, lang, quotient, tideal
from freealg.term import COMMUTATIVE, PLANAR, QQ, Monomial, Polynomial, field_by_char, mdeg


@pytest.fixture(scope="module")
def assym():
    return tideal.get_variety("assosymmetric")


def coords_by_text(coords):
    return {m.to_text(): c for m, c in coords.items() if c}


def test_defining_identity_with_certificate(assym):
    v = engine.is_identity(assym, "lsym(t1,t2,t3)", 0, "direct", want_certificate=True)
    assert v.is_identity
    (entries,) = v.certificate.values()
    assert len(entries) == 1 and entries[0]["coefficient"] == "1"


def test_certificate_soundness_on_a_composite_consequence(assym):
    # a haphazard consequence: t4 * lsym(t1,t2,t3) + rsym-instance
    expr = "t4 lsym(t1,t2,t3) + rsym(t1 t4, t2, t3)"
    v = engine.is_identity(assym, expr, 0, "direct", want_certificate=True)
    assert v.is_identity and v.certificate is not None
    # _certificate re-multiplies internally and raises on mismatch; reaching
    # here with entries present is the soundness statement
    for entries in v.certificate.values():
        assert entries


def test_plus_associator_equals_double_bracket(assym):
    assert engine.is_identity(assym, "J(t1,t2,t3) - [[t1,t3],t2]", 0, "direct").is_identity


def test_wjor_plus_characteristic_split(assym):
    assert not engine.is_identity(assym, "wjor(t1,t2,t3,t4)", 0, "plus").is_identity
    assert engine.is_identity(assym, "wjor(t1,t2,t3,t4)", 3, "plus").is_identity


def test_lie_triple_plus_identity(assym):
    for char in (0, 5):
        v = engine.is_identity(assym, "lietriple(t1,t2,t3)", char, "plus")
        assert v.is_identity and v.multidegrees == [(1, 2, 1)]


def test_strategy_primes_that_disagree_raise(assym, monkeypatch):
    # exact_column_cap=0 sends every char-0 component to the two primes
    v = engine.is_identity(assym, "lietriple(t1,t2,t3)", 0, "plus", exact_column_cap=0)
    assert v.is_identity
    assert v.warnings == ["component [1, 2, 1] decided by the two-prime modular strategy"]
    images = quotient.poly_images

    def skewed(quotients, poly):
        # the second prime's image as the parent receives it, from its child or
        # taken here
        return images(quotients, poly)[:1] + [{0: 1}]

    monkeypatch.setattr(quotient, "poly_images", skewed)
    with pytest.raises(engine.EngineError, match=r"strategy primes disagree at \(1, 2, 1\)"):
        engine.is_identity(assym, "lietriple(t1,t2,t3)", 0, "plus", exact_column_cap=0)


def test_verdict_monotone_in_the_variety(assym):
    # the free magmatic variety satisfies nothing; assosymmetric satisfies lsym
    magma = tideal.get_variety("magmatic")
    assert not engine.is_identity(magma, "lsym(t1,t2,t3)", 0, "direct").is_identity
    assert engine.is_identity(assym, "lsym(t1,t2,t3)", 0, "direct").is_identity


def test_characteristic_warnings(assym):
    v = engine.is_identity(assym, "lsym(t1,t2,t3)", 2, "direct")
    assert any("characteristic 2" in w for w in v.warnings)
    v = engine.is_identity(assym, "lsym(t1,t2,t3)", 3, "direct")
    assert any("characteristic 3" in w for w in v.warnings)


def test_hentzel_bases_validate():
    for alpha in [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]:
        assert engine.validate_hentzel_basis(alpha)
    assert len(engine.hentzel_basis((1, 1, 1, 1))) == 29


def test_quartic_residual_coordinates(assym):
    coords = coords_by_text(engine.reduce_to_basis(assym, "g4_1(t1)", (4,)))
    assert coords == {"(((t1 t1) t1) t1)": Fraction(-2),
                      "((t1 (t1 t1)) t1)": Fraction(4),
                      "((t1 t1) (t1 t1))": Fraction(-2)}


def test_type22_residual_scales_with_mu(assym):
    c10 = engine.reduce_to_basis(assym, "g22_1(t1,t2)", (2, 2))
    vals = coords_by_text(c10)
    want = {"((t1 t1) (t2 t2))": Fraction(6), "((t2 (t1 t2)) t1)": Fraction(-12),
            "(((t1 t1) t2) t2)": Fraction(-6), "(((t2 t1) t2) t1)": Fraction(12)}
    assert vals == want
    balanced = engine.reduce_to_basis(assym, "g22_1(t1,t2) - g22_1(t2,t1)", (2, 2))
    assert all(c == 0 for c in balanced.values())


def test_type211_residual_scales_with_mu(assym):
    vals = coords_by_text(engine.reduce_to_basis(assym, "g211_1(t1,t2,t3)", (2, 1, 1)))
    want = {"((t1 t1) (t2 t3))": Fraction(-6), "((t3 (t1 t2)) t1)": Fraction(12),
            "(((t1 t1) t2) t3)": Fraction(6), "(((t3 t1) t2) t1)": Fraction(-12)}
    assert vals == want


def test_free_coordinate_residual_of_the_quartic(assym):
    # reduction against the monomial-coordinate span at [4]: the canonical
    # residual is supported on the three non-pivot monomials
    g4 = lang.star_expand(lang.expand("g4_1(t1)", COMMUTATIVE))
    cert, residual = tideal.member_of_span(assym, g4, QQ)
    mons, _ = tideal.monomial_index((4,), PLANAR)
    got = {mons[c].to_text(): v for c, v in residual.items()}
    assert got == {"((t1 t1) (t1 t1))": Fraction(-2),
                   "(t1 ((t1 t1) t1))": Fraction(4),
                   "(t1 (t1 (t1 t1)))": Fraction(-2)}


def test_kernel_examples(assym):
    kb, comm = engine.plus_identity_kernel(assym, (4,), 0)
    assert kb.rank == 0
    kb, comm = engine.plus_identity_kernel(assym, (3, 1), 0)
    g = lang.expand("g31_2(t1,t2)", COMMUTATIVE)
    mons = list(comm)
    vec = {mons.index(m): c for m, c in g.terms.items()}
    assert kb.contains(vec)
    kb, comm = engine.plus_identity_kernel(assym, (1, 1, 1, 1), 0)
    jspan = engine.commutative_span(["jor1(t1,t2,t3,t4)"], (1, 1, 1, 1), 0)
    assert kb.same_span(jspan)


def test_kernels_contained_in_associative(assym):
    assoc = tideal.get_variety("associative")
    for d in engine.DEGREE4_TYPES:
        kb, _ = engine.plus_identity_kernel(assym, d, 0)
        ka, _ = engine.plus_identity_kernel(assoc, d, 0)
        assert all(ka.contains(r) for r in kb.rows)


def test_systems_equivalent_examples():
    ambient = tideal.get_variety("commutative_magmatic")
    res = engine.systems_equivalent(
        engine.ARMAN_SYSTEMS["square-associator"],
        engine.ARMAN_SYSTEMS["split-associator"],
        ambient, engine.DEGREE4_TYPES)
    assert all(res.values())
    res = engine.systems_equivalent(
        engine.ARMAN_SYSTEMS["split-associator"],
        engine.ARMAN_SYSTEMS["alternating-sum"],
        ambient, engine.DEGREE4_TYPES)
    assert all(res.values())
    res = engine.systems_equivalent(["lietriple(t1,t2,t3)"], ["jor1(t1,t2,t3,t4)"],
                                    ambient, engine.DEGREE4_TYPES)
    assert all(res.values())


def test_jordan_vs_lie_triple_one_way():
    jordan = tideal.get_variety("jordan")
    lt = tideal.get_variety("lie_triple")
    cert, res = tideal.member_of_span(
        jordan, lang.expand("lietriple(t1,t2,t3)", COMMUTATIVE), QQ)
    assert not res
    cert, res = tideal.member_of_span(lt, lang.expand("jor(t1,t2)", COMMUTATIVE), QQ)
    assert res  # not a consequence


def test_assder_implies_lie_triple():
    ad = tideal.get_variety("assder")
    assert engine.is_identity(ad, "lietriple(t1,t2,t3)", 0, "direct").is_identity


def test_quasi_laws_imply_assder():
    for q in [Fraction(2), Fraction(3), Fraction(1, 2)]:
        v = tideal.quasi_assosymmetric(q)
        cert, res = tideal.member_of_span(
            v, lang.expand("assder(t1,t2,t3,t4)", PLANAR), QQ)
        assert not res


@pytest.mark.parametrize("char", [0, 3, 5])
def test_suite_memberships_agree_with_the_free_oracle(char):
    # the quasi assder checks and the arman cubic are decided by is_identity;
    # at char 3, q = 2 and q = 1/2 have q^2 = 1 and both routes fail them
    comm = tideal.get_variety("commutative_magmatic")
    questions = [(tideal.quasi_assosymmetric(q), "assder(t1,t2,t3,t4)")
                 for q in [Fraction(2), Fraction(3), Fraction(1, 2)]]
    questions.append((tideal.variety_with(comm, engine.ARMAN_SYSTEMS["alternating-sum"]),
                      engine.ARMAN_CUBIC))
    fld = field_by_char(char)
    for v, expr in questions:
        _, residual = tideal.member_of_span(v, lang.expand(expr, v.flavor), fld)
        assert engine.is_identity(v, expr, char, "direct").is_identity == (not residual), v.name


def test_suites_deg4_arman_quasi_albert_pass():
    for name, kw in [("deg4", {}), ("arman", {}), ("quasi", {}),
                     ("albert", {"samples": 20})]:
        res = engine.theorem_suite(name, **kw)
        fails = [e["check"] for e in res["entries"] if e["verdict"] != "pass"]
        assert res["passed"], (name, fails)


def test_main1_and_char3_suites_light():
    # the degree-8 members of these suites are exercised by the acceptance
    # module; the rest must pass on their own
    res = engine.theorem_suite("main1", heavy=False)
    assert res["passed"], [e["check"] for e in res["entries"] if e["verdict"] != "pass"]
    res = engine.theorem_suite("char3", heavy=False)
    assert res["passed"], [e["check"] for e in res["entries"] if e["verdict"] != "pass"]


def test_report_schema_fields():
    res = engine.theorem_suite("arman")
    for e in res["entries"]:
        for key in ["check", "claim_ref", "verdict", "char", "multidegrees",
                    "timing", "warnings"]:
            assert key in e
    names = [e["check"] for e in res["entries"]]
    assert names == sorted(names)


def test_unknown_suite_rejected():
    with pytest.raises(engine.EngineError):
        engine.theorem_suite("nope")


# Assosymmetric candidates of degree <= 5 in slots {0}, {1}, {2}, each followed
# by a control that adds one monomial of the same multidegree.
RENAMING_CANDIDATES = [
    "lsym({0},{1},{2})", "lsym({0},{1},{2}) + ({0} {1}) {2}",
    "lsym({0} {1},{2},{0})", "lsym({0} {1},{2},{0}) + (({0} {1}) {2}) {0}",
    "lsym({0},{1} {2},{2} {0})", "lsym({0},{1} {2},{2} {0}) + (({0} {1}) ({2} {2})) {0}",
    "lietriple({0},{1},{2})", "lietriple({0},{1},{2}) + (({0} {1}) {1}) {2}",
    "jor({0},{1})", "jor({0},{1}) + (({0} {0}) {0}) {1}",
    "wjor({0},{1},{2},{0})", "wjor({0},{1},{2},{0}) + (({0} {1}) {2}) {0}",
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(RENAMING_CANDIDATES), st.sampled_from(["direct", "plus"]),
       st.sampled_from([0, 3]), st.permutations([1, 2, 3]))
def test_verdicts_are_invariant_under_renaming_variables(template, mode, char, perm):
    assym = tideal.get_variety("assosymmetric")
    before = engine.is_identity(assym, template.format("t1", "t2", "t3"), char, mode)
    after = engine.is_identity(assym, template.format(*("t%d" % i for i in perm)), char, mode)
    assert after.is_identity == before.is_identity
    # t_i is renamed t_perm[i-1]: its multiplicity moves to that place
    renamed = []
    for d in before.multidegrees:
        e = [0, 0, 0]
        for i, m in enumerate(d):
            e[perm[i] - 1] = m
        renamed.append(mdeg(e))
    assert sorted(after.multidegrees) == sorted(renamed)

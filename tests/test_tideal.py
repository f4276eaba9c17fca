"""Consequence spans, substitution instances, and the two dimension paths."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

import free_oracle
from free_oracle import free_dim
from freealg import cli, engine, lang, linalg, quotient, series, tideal
from freealg.term import (COMMUTATIVE, PLANAR, GF, Monomial, Polynomial, QQ,
                          count_monomials, enumerate_monomials, field_by_char, mdeg, mdeg_leq,
                          mdeg_sub, mdeg_total, splits2, sub_multidegrees)


@pytest.fixture(scope="module")
def assym():
    return tideal.get_variety("assosymmetric")


def test_catalog_lookup_and_aliases():
    assert tideal.get_variety("assym").name == "assosymmetric"
    assert tideal.get_variety("dual").flavor == PLANAR
    assert tideal.get_variety("comm").flavor == COMMUTATIVE
    with pytest.raises(KeyError):
        tideal.get_variety("nope")
    q = tideal.get_variety("quasi_assosymmetric", q=2)
    assert len(q.identities) == 2


def test_catalog_file_round_trip(tmp_path):
    path = tmp_path / "varieties.txt"
    path.write_text(
        "# custom entries\n"
        "name: flexible\n"
        "flavor: planar\n"
        "identity: A(t1,t2,t1)\n"
        "\n"
        "name: two_law\n"
        "flavor: planar\n"
        "identity: lsym(t1,t2,t3)\n"
        "identity: rsym(t1,t2,t3)\n")
    cat = tideal.load_catalog_file(str(path))
    assert set(cat) == {"flexible", "two_law"}
    assert len(cat["two_law"].identities) == 2
    assert cat["flexible"].identities[0].multidegree() == (2, 1)


def test_substitution_instances_multilinear_exact_degree(assym):
    lsym = assym.identities[0]
    rows = tideal.substitution_instances(lsym, (1, 1, 1), PLANAR)
    exact = [r for r in rows if r.poly.multidegree() == (1, 1, 1)]
    # six variable substitutions, but lsym is skew in its first two arguments,
    # so identified pairs vanish; all six remain here since variables differ
    assert len(exact) == 6


def test_substitution_instances_match_exhaustive_oracle(assym):
    lsym = assym.identities[0]
    d = (2, 1)
    got = {str(r.poly) for r in tideal.substitution_instances(lsym, d, PLANAR)}
    # oracle: brute-force monomial triples with componentwise-fitting multidegrees
    pool = []
    for e in sub_multidegrees(d) + [d]:
        pool.extend(enumerate_monomials(e, PLANAR))
    want = set()
    for m1, m2, m3 in itertools.product(pool, repeat=3):
        total = m1.multidegree()
        for m in (m2, m3):
            total = tuple(a + b for a, b in
                          itertools.zip_longest(total, m.multidegree(), fillvalue=0))
        if not mdeg_leq(mdeg(total), d):
            continue
        inst = lang.blended_instance(lsym, {1: (m1,), 2: (m2,), 3: (m3,)})
        if not inst.is_zero():
            want.add(str(inst))
    assert got == want


def test_identity_substitution_reproduces_f(assym):
    for f in assym.identities:
        rows = tideal.substitution_instances(f, f.multidegree(), PLANAR)
        assert any(r.poly == f for r in rows)


def test_target_degree_too_small(assym):
    with pytest.raises(ValueError):
        tideal.substitution_instances(assym.identities[0], (1, 1), PLANAR)


def test_consequence_span_examples(assym):
    assoc = tideal.get_variety("associative")
    b = tideal.consequence_span(assoc, (1, 1, 1), QQ)
    assert b.rank == 6 and 12 - b.rank == 6
    assert tideal.quotient_dim(assym, (1, 1, 1), QQ) == 7
    assert tideal.quotient_dim(assym, (1, 1, 1, 1), QQ) == 29


def test_every_row_has_target_multidegree(assym):
    for cr in tideal.generating_rows(assym, (2, 1), QQ):
        assert cr.poly.multidegree() == (2, 1)


def test_defining_identity_instances_are_members(assym):
    for f in assym.identities:
        for d in [(1, 1, 1), (2, 1), (2, 1, 1)]:
            for cr in tideal.substitution_instances(f, d, PLANAR):
                if cr.poly.multidegree() != mdeg(d):
                    continue
                cert, residual = free_oracle.member_of_span(assym, cr.poly, QQ)
                assert not residual


def test_span_closed_under_multiplication(assym):
    # left/right multiplying a basis row by a variable lands in the bigger span,
    # spot-checked into degrees 4 and 5
    for d, extra in [((1, 1, 1), 4), ((2, 1, 1), 1)]:
        basis = tideal.consequence_span(assym, d, QQ)
        mons, _ = tideal.monomial_index(d, PLANAR)
        row = basis.rows[0]
        p = Polynomial(PLANAR, {mons[c]: x for c, x in row.items()})
        tv = Polynomial.variable(extra)
        for prod in (tv * p, p * tv):
            cert, residual = free_oracle.member_of_span(assym, prod, QQ)
            assert not residual


def test_rank_modular_never_exceeds_rational(assym):
    d = (2, 1, 1)
    mons, index = tideal.monomial_index(d, PLANAR)
    rows = [tideal.vectorize(cr.poly, index) for cr in tideal.generating_rows(assym, d, QQ)]
    rq = linalg.rref(rows, len(mons), QQ).rank
    for p in quotient.SELECTION_PRIMES:
        rre = quotient.DenseModRREF(p, len(mons))
        M = np.array([[GF(p).from_fraction(Fraction(r.get(c, 0))) for c in range(len(mons))]
                      for r in rows], dtype=float)
        for k in range(0, len(rows), rre.batch):
            rre.add_batch(M[k:k + rre.batch])
        assert rre.rank == rq
    for p in (2, 3, 5):
        rp = linalg.rref([{c: int(v) % p for c, v in r.items() if int(v) % p}
                          for r in rows], len(mons), GF(p)).rank
        assert rp <= rq


@pytest.mark.parametrize("d", [(2, 1, 1), (1, 2, 1), (1, 1, 2)])
def test_dimension_invariant_under_variable_renumbering(assym, d):
    assert tideal.quotient_dim(assym, d, QQ) == tideal.quotient_dim(assym, (2, 1, 1), QQ)


@pytest.mark.parametrize("d", [(1, 1, 1), (2, 1), (3,), (4,), (3, 1), (2, 2),
                               (2, 1, 1), (1, 1, 1, 1)])
def test_free_and_quotient_paths_agree(assym, d):
    assert tideal.quotient_dim(assym, d, QQ) == free_dim(assym, d, QQ)


def test_free_and_quotient_paths_agree_commutative():
    jordan = tideal.get_variety("jordan")
    for d in [(3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1), (1, 2, 1)]:
        assert tideal.quotient_dim(jordan, d, QQ) == free_dim(jordan, d, QQ), d


def test_dimensions_and_memberships_never_reach_the_free_oracle(monkeypatch, assym):
    # one engine: dimensions, memberships, spans, suites and equivalences go through
    # the inductive quotient; only a certificate builds free-monomial generating rows
    def refuse(*args, **kwargs):
        raise AssertionError("free-monomial rows requested")

    monkeypatch.setattr(tideal, "generating_rows", refuse)
    monkeypatch.setattr(free_oracle.SpanCache, "basis", refuse)
    monkeypatch.setattr(tideal, "_SPANS", {})
    dual = tideal.get_variety("dual_assosymmetric")
    want = {(4,): 3, (3, 1): 7, (2, 2): 9, (2, 1, 1): 16, (1, 1, 1, 1): 29}
    assert {d: tideal.quotient_dim(assym, d, QQ) for d in want} == want
    assert tideal.multilinear_dims(assym, 5, QQ) == [1, 2, 7, 29, 136]
    assert tideal.multilinear_dims(dual, 6, QQ) == [1, 2, 5, 9, 9, 11]
    resid, _, _ = series.koszul_residual(assym, dual, 5)
    assert resid == series.TruncatedSeries.from_coeffs([0, 0, 0, 0, Fraction(3, 8)])
    entries = engine.suite_quasi(0)
    assert [e["check"] for e in entries if e["verdict"] != "pass"] == []
    for name, kw in [("deg4", {}), ("arman", {}), ("char3", {"heavy": False})]:
        assert engine.theorem_suite(name, **kw)["passed"], name
    assert cli.main(["equiv", "--left", "lietriple(t1,t2,t3)", "--right", "jor1(t1,t2,t3,t4)",
                     "--multidegree", "1,1,1,1", "--multidegree", "2,1,1"]) == 0
    assert len(engine.hentzel_basis((1, 1, 1, 1))) == 29


SPAN_VARIETIES = ["assosymmetric", "associative", "dual_assosymmetric", "jordan", "lie_triple",
                  "commutative_magmatic"]
# every multidegree of degree <= 4 in at most 3 variables, zero entries too, and [1^4]
SPAN_DEGREES = sorted({mdeg(d) for d in itertools.product(range(5), repeat=3)
                       if 0 < sum(d) <= 4} | {(1, 1, 1, 1)}, key=lambda d: (sum(d), d))


@pytest.mark.parametrize("char", [0, 3, 5])
@pytest.mark.parametrize("name", SPAN_VARIETIES)
def test_kernel_route_spans_equal_the_free_oracle(name, char):
    v = tideal.get_variety(name)
    fld = field_by_char(char)
    for d in SPAN_DEGREES:
        got = tideal.consequence_span(v, d, fld)
        want = free_oracle.consequence_span(v, d, fld)
        assert got.pivots == want.pivots and got.same_span(want), d


def test_koszul_residual_reuses_the_default_cap_quotients(assym):
    dual = tideal.get_variety("dual_assosymmetric")
    tideal.multilinear_dims(assym, 5, QQ)
    tideal.multilinear_dims(dual, 5, QQ)
    held = set(quotient._CACHE)
    series.koszul_residual(assym, dual, 5)
    assert set(quotient._CACHE) == held


def test_degree_cap_enforced(assym):
    with pytest.raises(quotient.DegreeCapExceeded):
        free_dim(assym, (9,), QQ, degree_cap=8)
    with pytest.raises(quotient.DegreeCapExceeded):
        tideal.quotient_dim(assym, (9,), QQ, degree_cap=8)


def test_column_budget_enforced(assym, monkeypatch):
    monkeypatch.setattr(tideal, "MAX_FREE_COLUMNS", 10)
    with pytest.raises(tideal.BudgetExceeded):
        tideal.consequence_span(assym, (1, 1, 1), QQ)


def test_dedupe_preserves_rank(assym):
    d = (1, 1, 1)
    mons, index = tideal.monomial_index(d, PLANAR)
    rows = [tideal.vectorize(cr.poly, index)
            for cr in tideal.generating_rows(assym, d, QQ)]
    doubled = rows + [ {c: 7 * v for c, v in r.items()} for r in rows ]
    deduped = free_oracle._dedupe(doubled, QQ)
    assert len(deduped) < len(doubled)
    import freealg.linalg as linalg_mod
    assert (linalg_mod.rref(deduped, len(mons), QQ).rank
            == linalg_mod.rref(rows, len(mons), QQ).rank)


def test_commutative_ambient_has_no_materialized_commutativity_rows():
    comm = tideal.get_variety("commutative_magmatic")
    b = tideal.consequence_span(comm, (1, 1, 1), QQ)
    assert b.rank == 0
    assert tideal.quotient_dim(comm, (1, 1, 1, 1), QQ) == 15


def test_modular_quotient_dims_match_exact(assym):
    qm = quotient.ModularQuotient(assym, 10007, degree_cap=5)
    qe = quotient.get_quotient(assym, QQ)
    for d in [(1, 1, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]:
        assert qm.dim(d) == qe.dim(d)

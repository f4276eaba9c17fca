"""Monomials, multidegrees, scalar fields and sparse polynomial arithmetic."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from freealg.lang import expand
from freealg.term import (COMMUTATIVE, PLANAR, FieldError, FlavorError, GF, Monomial,
                          Polynomial, QQ, count_monomials, enumerate_monomials, is_prime,
                          mdeg, mdeg_add)


def leaves(*ks):
    return [Monomial.leaf(k) for k in ks]


def random_tree(draw, flavor, depth, nvars):
    if depth == 0 or draw(st.booleans()):
        return Monomial.leaf(draw(st.integers(1, nvars)), flavor)
    return Monomial.pair(random_tree(draw, flavor, depth - 1, nvars),
                         random_tree(draw, flavor, depth - 1, nvars))


@st.composite
def monomials(draw, flavor=PLANAR, depth=3, nvars=4):
    return random_tree(draw, flavor, depth, nvars)


@st.composite
def polynomials(draw, flavor=PLANAR):
    n = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n):
        m = draw(monomials(flavor=flavor))
        c = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
        if c:
            terms[m] = terms.get(m, Fraction(0)) + c
    return Polynomial(flavor, {m: c for m, c in terms.items() if c})


# -- free product -------------------------------------------------------------

def test_planar_product_is_ordered():
    a, b = leaves(1, 2)
    assert Monomial.pair(a, b) != Monomial.pair(b, a)
    assert Monomial.pair(a, b).to_text() == "(t1 t2)"


def test_commutative_product_canonicalizes():
    a = Monomial.leaf(1, COMMUTATIVE)
    b = Monomial.leaf(2, COMMUTATIVE)
    assert Monomial.pair(b, a) == Monomial.pair(a, b)


def test_product_degree_and_flavor_mismatch():
    a, b, c = leaves(1, 2, 3)
    m = Monomial.pair(Monomial.pair(a, b), c)
    assert m.degree == 3
    with pytest.raises(FlavorError):
        Monomial.pair(a, Monomial.leaf(1, COMMUTATIVE))


# -- multidegrees -------------------------------------------------------------

def test_multidegree_examples():
    a, b = leaves(1, 2)
    assert Monomial.pair(Monomial.pair(a, a), b).multidegree() == (2, 1)
    assert Monomial.leaf(3).multidegree() == (0, 0, 1)
    (m,) = expand("((t1 t2) t1)(t3 t1)", PLANAR).terms
    assert m.multidegree() == (3, 1, 1)


# -- encodings ----------------------------------------------------------------

@settings(max_examples=150)
@given(monomials(depth=3, nvars=4))
def test_encoding_round_trip(m):
    assert Monomial.from_enc(PLANAR, m.enc) == m
    assert expand(m.to_text(), PLANAR) == Polynomial.unit(m)


@settings(max_examples=150)
@given(monomials(flavor=COMMUTATIVE, depth=3, nvars=3))
def test_commutative_canonicalization_idempotent(m):
    assert Monomial.from_enc(COMMUTATIVE, m.enc) == m
    if not m.is_leaf():
        l, r = m.children()
        assert Monomial.pair(r, l) == m


# -- enumeration --------------------------------------------------------------

def test_enumeration_counts():
    assert len(enumerate_monomials((1, 1, 1), PLANAR)) == 12
    assert count_monomials((3, 3, 2), PLANAR) == 240240
    assert len(enumerate_monomials((1, 1, 1, 1), COMMUTATIVE)) == 15


@pytest.mark.parametrize("flavor", [PLANAR, COMMUTATIVE])
@pytest.mark.parametrize("d", [(2,), (1, 1), (2, 1), (1, 1, 1), (2, 2), (2, 1, 1), (4,)])
def test_enumeration_sorted_and_counted(flavor, d):
    mons = enumerate_monomials(d, flavor)
    assert len(mons) == count_monomials(d, flavor)
    assert len(set(mons)) == len(mons)
    encs = [m.enc for m in mons]
    assert encs == sorted(encs)
    assert all(m.multidegree() == mdeg(d) for m in mons)


def test_enumeration_rejects_empty():
    with pytest.raises(ValueError):
        enumerate_monomials((), PLANAR)


@pytest.mark.parametrize("d", [(3, 2), (2, 2, 1), (4, 2), (3, 3, 2)])
def test_count_formula_matches_enumeration_to_degree_six(d):
    # degree 5-6 components enumerate quickly; (3,3,2) checks the formula only
    if sum(d) <= 6:
        assert len(enumerate_monomials(d, PLANAR)) == count_monomials(d, PLANAR)
        assert len(enumerate_monomials(d, COMMUTATIVE)) == count_monomials(d, COMMUTATIVE)
    else:
        assert count_monomials(d, PLANAR) == 240240


# -- scalars ------------------------------------------------------------------

def test_gf_field_arithmetic():
    f5 = GF(5)
    assert f5.add(3, 4) == 2
    assert f5.mul(f5.inv(3), 3) == 1
    assert f5.from_fraction(Fraction(1, 2)) == 3
    with pytest.raises(Exception):
        GF(6)


def test_field_reduction_of_polynomials():
    p = Polynomial.variable(1).scale(3)
    assert p.to_field(GF(3)).is_zero()
    assert not p.to_field(GF(5)).is_zero()


# -- polynomial arithmetic ----------------------------------------------------

def test_linear_combine_examples():
    a, b = leaves(1, 2)
    p = Polynomial.unit(Monomial.pair(a, b))
    assert (p.scale(1) + p.scale(-1)).is_zero()
    over3 = p.to_field(GF(3))
    assert over3.scale(3).is_zero()
    q = p.scale(2) + p.scale(3)
    assert q.terms[Monomial.pair(a, b)] == 5


@settings(max_examples=60)
@given(polynomials(), polynomials(), polynomials())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p + q) * r == p * r + q * r
    assert p * (q + r) == p * q + p * r
    assert (p - p).is_zero()


@settings(max_examples=60)
@given(polynomials(COMMUTATIVE), polynomials(COMMUTATIVE))
def test_commutative_flavor_product_commutes(p, q):
    assert p * q == q * p


def test_zero_polynomial_keeps_tags():
    z = Polynomial.zero(COMMUTATIVE, GF(7))
    assert z.flavor == COMMUTATIVE and z.field is GF(7)
    assert (z + z).is_zero()


@given(st.lists(st.integers(0, 4), max_size=6), st.lists(st.integers(0, 4), max_size=6))
def test_mdeg_add_is_the_normalized_sum(x, y):
    a, b = mdeg(x), mdeg(y)
    n = max(len(a), len(b))
    padded = [u + v for u, v in zip(a + (0,) * (n - len(a)), b + (0,) * (n - len(b)))]
    assert mdeg_add(a, b) == mdeg(padded)


def test_primality_is_exact_below_its_bound_and_refused_above():
    assert [n for n in range(3000) if is_prime(n)] == [
        n for n in range(2, 3000) if all(n % q for q in range(2, math.isqrt(n) + 1))]
    # strong pseudoprimes to the first bases, a Carmichael number, large primes
    for n in (2047, 3215031751, 3825123056546413051, 561, 10 ** 18 + 1):
        assert not is_prime(n)
    for n in (2 ** 61 - 1, 10 ** 18 + 3, 999983):
        assert is_prime(n)
    with pytest.raises(FieldError):
        GF(2 ** 1100)
    with pytest.raises(FieldError):
        GF(4)

"""Octonion arithmetic and the Hermitian 3x3 witness model."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freealg import albert27, lang
from freealg.albert27 import (AlbertElement, Octonion, albert_star, associator,
                              evaluate, oct_mul, random_element, sample_report)
from freealg.term import COMMUTATIVE

E = [Octonion.basis(i) for i in range(8)]


def doubling_mul(x, y, level=3):
    """Oracle: the doubling formula evaluated directly on coordinate halves."""
    if level == 0:
        return (x[0] * y[0],)
    h = 1 << (level - 1)
    a, b = x[:h], x[h:]
    c, d = y[:h], y[h:]
    def conj(z, lv):
        return z if lv == 0 else (z[0],) + tuple(-q for q in z[1:])
    ac = doubling_mul(a, c, level - 1)
    db = doubling_mul(conj(d, level - 1), b, level - 1)
    da = doubling_mul(d, a, level - 1)
    bc = doubling_mul(b, conj(c, level - 1), level - 1)
    return tuple(p - q for p, q in zip(ac, db)) + tuple(p + q for p, q in zip(da, bc))


def rnd_oct(rng, bound=4):
    return Octonion(tuple(rng.randint(-bound, bound) for _ in range(8)))


def test_unit_and_squares():
    for x in E:
        assert oct_mul(E[0], x) == x
        assert oct_mul(x, E[0]) == x
    for i in range(1, 8):
        assert oct_mul(E[i], E[i]) == -E[0]


def test_full_table_matches_doubling_oracle():
    for i in range(8):
        for j in range(8):
            got = oct_mul(E[i], E[j]).co
            want = doubling_mul(E[i].co, E[j].co)
            assert tuple(got) == tuple(want)


def test_alternativity_and_nonassociativity():
    rng = random.Random(31)
    for _ in range(30):
        x, y = rnd_oct(rng), rnd_oct(rng)
        assert associator(x, x, y).is_zero()
        assert associator(y, x, x).is_zero()
    assert any(not associator(E[i], E[j], E[k]).is_zero()
               for i in range(1, 8) for j in range(1, 8) for k in range(1, 8))


@settings(max_examples=40)
@given(st.integers(0, 10 ** 6))
def test_norm_multiplicative_and_conjugation(seed):
    rng = random.Random(seed)
    x, y = rnd_oct(rng), rnd_oct(rng)
    assert (x * y).norm() == x.norm() * y.norm()
    two_re = x + x.conjugate()
    assert two_re == Octonion((2 * x.re(),) + (0,) * 7)


def mm(p, q):
    """Independent full 3x3 multiply of octonion matrices."""
    return tuple(tuple(sum((p[i][k] * q[k][j] for k in range(3)), Octonion.zero())
                       for j in range(3)) for i in range(3))


def mm_star(p, q):
    s, t = mm(p, q), mm(q, p)
    return tuple(tuple(s[i][j] + t[i][j] for j in range(3)) for i in range(3))


def albert_basis(c):
    co = [1 if i == c else 0 for i in range(27)]
    return AlbertElement(tuple(co[:3]), tuple(Octonion(co[o:o + 8]) for o in (3, 11, 19)))


def test_albert_star_against_entrywise_oracle():
    rng = random.Random(7)
    a, b = random_element(rng), random_element(rng)
    assert albert_star(a, b).matrix() == mm_star(a.matrix(), b.matrix())
    basis = [albert_basis(c) for c in range(27)]
    for a in basis:
        for b in basis:
            assert albert_star(a, b).matrix() == mm_star(a.matrix(), b.matrix())
    assert sum(len(row) for row in albert27.star_table()) == 531


def test_identity_and_commutativity():
    rng = random.Random(11)
    a, b = random_element(rng), random_element(rng)
    eye = AlbertElement.identity()
    assert (albert_star(eye, a) - a.scale(2)).is_zero()
    assert (albert_star(a, b) - albert_star(b, a)).is_zero()


def test_jordan_and_lie_triple_evaluate_to_zero():
    rep = sample_report("jor(t1,t2)", seed=5, samples=25)
    assert rep["zero_count"] == 25 and rep["witness"] is None
    rep = sample_report("lietriple(t1,t2,t3)", seed=5, samples=25)
    assert rep["zero_count"] == 25


def test_glennie_has_a_witness():
    rep = sample_report("glen(t1,t2,t3)", seed=5, samples=5)
    assert rep["nonzero_count"] >= 1
    w = rep["witness"]
    assert w is not None and len(w["value"]) == 27
    # serialized report is valid JSON with full coordinates
    data = json.loads(albert27.witness_json(rep))
    assert data["witness"]["sample_index"] == w["sample_index"]


def entrywise_value(poly, elements):
    """Oracle: poly's 27 coordinates, monomial by monomial on full octonion matrices."""
    mats = {k: e.matrix() for k, e in elements.items()}
    cache = {}

    def ev(m):
        if m not in cache:
            if m.is_leaf():
                cache[m] = mats[m.enc[0]]
            else:
                left, right = m.children()
                cache[m] = mm_star(ev(left), ev(right))
        return cache[m]

    total = [[Octonion.zero()] * 3 for _ in range(3)]
    for m, c in poly.terms.items():
        fr = poly.field.to_fraction(c)
        val = ev(m)
        for i in range(3):
            for j in range(3):
                total[i][j] = total[i][j] + val[i][j].scale(fr)
    want = [total[i][i].re() for i in range(3)]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert total[j][i] == total[i][j].conjugate()
        want.extend(total[i][j].co)
    assert all(total[i][i].co[1:] == (0,) * 7 for i in range(3))
    return want


def test_glennie_witness_matches_entrywise_oracle():
    rep = sample_report("glen(t1,t2,t3)", seed=5, samples=3)
    w = rep["witness"]
    args = {int(name[1:]): [Fraction(x) for x in co] for name, co in w["arguments"].items()}
    # the arguments are the seeded stream's draws at the witness index
    rng = random.Random(5)
    for _ in range(w["sample_index"] + 1):
        drawn = [random_element(rng) for _ in range(3)]
    assert [args[k] for k in (1, 2, 3)] == [e.coords() for e in drawn]
    # the value is glen evaluated monomial by monomial on full octonion matrices
    poly = lang.expand("glen(t1,t2,t3)", COMMUTATIVE)
    want = entrywise_value(poly, dict(zip((1, 2, 3), drawn)))
    assert [Fraction(x) for x in w["value"]] == want and any(want)


@pytest.mark.parametrize("expr,bound,samples,dtype", [
    ("glen(t1,t2,t3)", 3, 4, np.int64),
    ("glen(t1,t2,t3)", 1000, 3, object),
    ("1/2 glen(t1,t2,t3)", 3, 3, np.int64),     # every coefficient of glen is even
    ("1/3 glen(t1,t2,t3)", 3, 3, object),
    (" ".join(["t1"] * 18), 3, 5, object),
])
def test_every_sample_matches_entrywise_oracle(expr, bound, samples, dtype, monkeypatch):
    # int64 only where the a-priori bound proves it exact; every value, not
    # only the witness, is the oracle's, in blocks of 3 and a shorter last one
    monkeypatch.setattr(albert27, "BLOCK", 3)
    poly = lang.expand(expr, COMMUTATIVE)
    checked = 0
    for draws, values in albert27._sample_blocks(poly, 11, samples, bound):
        assert values.dtype == dtype
        for args, got in zip(draws, values.tolist()):
            elements = {k: AlbertElement.from_coords(co) for k, co in enumerate(args, 1)}
            assert got == entrywise_value(poly, elements)
            checked += 1
    assert checked == samples


def test_the_int64_route_stops_at_its_bound():
    # L = 34 and commutative glen at coordinate bound 3 stays under 2^63
    assert albert27._star_kernel()[4] == 34
    glen = lang.expand("glen(t1,t2,t3)", COMMUTATIVE)
    coeffs = [int(glen.field.to_fraction(c)) for c in glen.terms.values()]
    assert albert27._fits_int64(glen, coeffs, 3)
    assert not albert27._fits_int64(glen, coeffs, 4)
    assert not albert27._fits_int64(glen, coeffs, None)


@pytest.mark.parametrize("block", [1, 7])
def test_reports_do_not_depend_on_the_block_size(block, monkeypatch):
    cases = [("glen(t1,t2,t3)", 7, 20), ("lietriple(t1,t2,t3)", 5, 20),
             ("t1 t1 - t1 t1", 3, 20)]
    want = [sample_report(*case) for case in cases]
    monkeypatch.setattr(albert27, "BLOCK", block)
    assert [sample_report(*case) for case in cases] == want
    zero = want[2]
    assert zero["zero_count"] == 20 and zero["witness"] is None


def test_a_late_witness_keeps_its_stream_index(monkeypatch):
    # the first 9 samples are zero elements (their draws still consumed), so
    # the witness is sample 9: inside the second block at every block size
    draw = albert27.random_element
    calls = []

    def zero_at_first(rng, bound=3):
        calls.append(None)
        e = draw(rng, bound)
        return AlbertElement.zero() if len(calls) <= 9 * 3 else e

    reports = []
    for block in (1, 7, albert27.BLOCK):
        calls.clear()
        monkeypatch.setattr(albert27, "BLOCK", block)
        monkeypatch.setattr(albert27, "random_element", zero_at_first)
        reports.append(sample_report("glen(t1,t2,t3)", 5, 12))
    assert reports[0] == reports[1] == reports[2]
    assert reports[0]["zero_count"] == 9 and reports[0]["witness"]["sample_index"] == 9


def test_reports_are_deterministic():
    a = sample_report("glen(t1,t2,t3)", seed=42, samples=4)
    b = sample_report("glen(t1,t2,t3)", seed=42, samples=4)
    assert a == b
    c = sample_report("glen(t1,t2,t3)", seed=43, samples=4)
    assert a != c


def test_evaluation_multilinear_in_each_slot():
    rng = random.Random(3)
    a, b, b2, c = (random_element(rng) for _ in range(4))
    lt = "lietriple(t1,t2,t3)"
    v1 = evaluate(lt, {1: a, 2: b, 3: c})
    # linear in the first slot
    a2 = random_element(rng)
    lhs = evaluate(lt, {1: a + a2, 2: b, 3: c})
    rhs = v1 + evaluate(lt, {1: a2, 2: b, 3: c})
    assert (lhs - rhs).is_zero()
    # homogeneous over the rationals, in exact Fraction arithmetic
    f = Fraction(2, 3)
    scaled = evaluate(lt, {1: a.scale(f), 2: b, 3: c})
    assert (scaled - v1.scale(f)).is_zero()


def test_wjor_vanishes_on_the_jordan_model():
    # wjor is half the polarization of jor, hence an identity of every
    # characteristic-zero Jordan algebra, this one included
    rep = sample_report("wjor(t1,t2,t3,t4)", seed=9, samples=20)
    assert rep["zero_count"] == 20


def test_bracket_rejected():
    rng = random.Random(1)
    a, b = random_element(rng), random_element(rng)
    with pytest.warns(UserWarning):
        val = evaluate("[t1,t2]", {1: a, 2: b})
    assert val.is_zero()

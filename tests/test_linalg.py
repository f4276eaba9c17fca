"""Sparse exact elimination against a dense textbook oracle."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freealg import linalg, quotient
from freealg.term import GF, QQ


def dense_rref_rank(rows, ncols):
    """Plain dense Gaussian elimination over Fraction (the oracle)."""
    m = [[Fraction(r.get(c, 0)) for c in range(ncols)] for r in rows]
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(m)):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def rand_rows(rng, nrows, ncols, density=0.3, bound=5):
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            if rng.random() < density:
                v = rng.randint(-bound, bound)
                if v:
                    row[c] = Fraction(v)
        rows.append(row)
    return rows


def test_rref_examples():
    rows = [{0: Fraction(1)}, {1: Fraction(1)}, {0: Fraction(1), 1: Fraction(1)}]
    b = linalg.rref(rows, 2, QQ)
    assert b.rank == 2 and b.pivots == [0, 1]
    assert linalg.rref([], 3, QQ).rank == 0


def test_rref_matches_dense_oracle_over_q_and_gfp():
    rng = random.Random(5)
    for trial in range(8):
        rows = rand_rows(rng, 12, 16)
        want = dense_rref_rank(rows, 16)
        assert linalg.rref(rows, 16, QQ).rank == want
        introws = [{c: int(v) % 10007 for c, v in r.items()} for r in rows]
        got = linalg.rref(introws, 16, GF(10007)).rank
        assert got == want  # prime exceeds every minor here


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_rref_canonical_under_shuffles(seed):
    rng = random.Random(seed)
    rows = rand_rows(rng, 8, 10)
    b1 = linalg.rref(rows, 10, QQ)
    shuffled = rows[:]
    rng.shuffle(shuffled)
    b2 = linalg.rref(shuffled, 10, QQ)
    assert b1.same_span(b2)
    assert b1.pivots == b2.pivots
    assert [sorted(r.items()) for r in b1.rows] == [sorted(r.items()) for r in b2.rows]


def test_rref_thousand_shuffles_one_system():
    rng = random.Random(12)
    rows = rand_rows(rng, 7, 9)
    reference = linalg.rref(rows, 9, QQ)
    snapshot = ([sorted(r.items()) for r in reference.rows], reference.pivots)
    for _ in range(1000):
        shuffled = rows[:]
        rng.shuffle(shuffled)
        b = linalg.rref(shuffled, 9, QQ)
        assert ([sorted(r.items()) for r in b.rows], b.pivots) == snapshot


def test_rref_idempotent():
    rng = random.Random(9)
    rows = rand_rows(rng, 10, 12)
    b = linalg.rref(rows, 12, QQ)
    again = linalg.rref([dict(r) for r in b.rows], 12, QQ)
    assert b.same_span(again)


def test_member_examples():
    rows = [{0: Fraction(1), 1: Fraction(2)}, {2: Fraction(1)}]
    b = linalg.rref(rows, 3, QQ)
    coeffs, res = linalg.member(b, dict(b.rows[0]))
    assert coeffs is not None and not res
    coeffs, res = linalg.member(b, {})
    assert coeffs == [0, 0] and not res
    coeffs, res = linalg.member(b, {1: Fraction(1)})
    assert coeffs is None and res


def test_member_certificate_remultiplies():
    rng = random.Random(3)
    rows = rand_rows(rng, 6, 8)
    b = linalg.rref(rows, 8, QQ)
    v = {}
    for r in b.rows:
        for c, x in r.items():
            v[c] = v.get(c, Fraction(0)) + 2 * x
    coeffs, res = linalg.member(b, v)
    assert not res
    recon = {}
    for i, c in enumerate(coeffs):
        linalg.vec_add_scaled(QQ, recon, b.rows[i], c)
    assert recon == v


def test_kernel_examples():
    eye = [{i: Fraction(1)} for i in range(4)]
    assert linalg.kernel(eye, 4, QQ).rank == 0
    rep = [{0: Fraction(1), 1: Fraction(1)}]
    k = linalg.kernel(rep, 2, QQ)
    assert k.rank == 1
    (row,) = k.rows
    assert row == {0: Fraction(1), 1: Fraction(-1)} or row == {1: Fraction(1), 0: Fraction(-1)}


def test_rank_nullity_against_oracle():
    rng = random.Random(17)
    for _ in range(6):
        rows = rand_rows(rng, 7, 9)
        r = dense_rref_rank(rows, 9)
        k = linalg.kernel(rows, 9, QQ)
        assert k.rank == 9 - r
        for vec in k.rows:
            for row in rows:
                s = sum(row.get(c, 0) * x for c, x in vec.items())
                assert s == 0


def test_rank_modular():
    # the dense GF(p) eliminator at two primes against the rational oracle
    rng = random.Random(23)
    rows = rand_rows(rng, 10, 12)
    for p in (10007, 10009):
        rre = quotient.DenseModRREF(p, 12)
        rre.add_batch(np.array([[GF(p).from_fraction(r.get(c, Fraction(0))) for c in range(12)]
                                for r in rows], dtype=float))
        assert rre.rank == dense_rref_rank(rows, 12)


def test_provenance_tracks_row_combinations():
    rows = [{0: Fraction(2), 1: Fraction(1)}, {0: Fraction(1)}, {1: Fraction(3)}]
    b = linalg.rref(rows, 2, QQ, want_provenance=True)
    for i, brow in enumerate(b.rows):
        recon = {}
        for j, c in b.provenance[i].items():
            linalg.vec_add_scaled(QQ, recon, rows[j], c)
        assert recon == brow


def test_express_in_the_generators():
    rng = random.Random(5)
    rows = rand_rows(rng, 6, 8)
    b = linalg.rref(rows, 8, QQ, want_provenance=True)
    v = {}
    for k, r in enumerate(rows):
        linalg.vec_add_scaled(QQ, v, r, Fraction(k - 2, 3))
    coords = b.express(v)
    assert all(coords.values())
    recon = {}
    for j, c in coords.items():
        linalg.vec_add_scaled(QQ, recon, rows[j], c)
    assert recon == v
    # six rows span at most six of the eight unit vectors
    unit = next({c: Fraction(1)} for c in range(8) if not b.contains({c: Fraction(1)}))
    assert b.express(unit) is None

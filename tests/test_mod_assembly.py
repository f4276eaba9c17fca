"""ModularQuotient's bulk relation-row assembly against the per-spec reference rows."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

import mod_row_oracle
import spec_oracle
from freealg import quotient, tideal

# Multidegrees of degree at most 5 per catalog variety, the last one with an
# identity whose terms multiply two products.  jordan (3,1), (2,2,1) and
# lie_triple (2,2,1) give a variable a multiset with repeated elements; the
# commutative (2,2), (4,1) and (2,2,1) have symmetric split blocks, at the
# root and inside terms, and jordan (2,2,2) and lie_triple (3,2,1) symmetric
# blocks of lower components of dimension 2 and 3.
CASES = [
    ("associative", None, (), [(2, 1), (1, 1, 1), (2, 2, 1), (1, 1, 1, 1, 1)]),
    ("assosymmetric", None, (), [(3, 1), (2, 1, 1), (2, 2, 1), (1, 1, 1, 1, 1)]),
    ("dual_assosymmetric", None, (), [(2, 1, 1), (3, 1, 1), (1, 1, 1, 1, 1)]),
    ("jordan", None, (), [(3, 1), (2, 2), (4, 1), (2, 2, 1), (3, 1, 1), (2, 2, 2)]),
    ("lie_triple", None, (), [(1, 2, 1), (2, 2), (2, 2, 1), (1, 3, 1), (3, 2, 1)]),
    ("assder", None, (), [(1, 1, 1, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)]),
    ("quasi_assosymmetric", Fraction(3), (), [(2, 1, 1), (1, 1, 1, 1, 1)]),
    ("assosymmetric", None, ("A(t1 t2, t3, t4)",), [(2, 1, 1, 1), (1, 1, 1, 1, 1)]),
]

# The rational builds whose relation rows are checked against GF(p): a
# multidegree of degree 5 or 6 per catalog variety, with a fractional
# coefficient in quasi_assosymmetric q = -1/3, and jordan (2,2,2) and
# lie_triple (3,2,1), whose lower components have symmetric blocks.
QQ_CASES = [
    ("associative", None, (), [(2, 2, 1)]),
    ("assosymmetric", None, (), [(2, 2, 1)]),
    ("dual_assosymmetric", None, (), [(3, 1, 1)]),
    ("jordan", None, (), [(2, 2, 1), (2, 2, 2)]),
    ("lie_triple", None, (), [(2, 2, 1), (3, 2, 1)]),
    ("assder", None, (), [(1, 1, 1, 1)]),
    ("quasi_assosymmetric", Fraction(-1, 3), (), [(2, 1, 1)]),
    ("assosymmetric", None, ("A(t1 t2, t3, t4)",), [(2, 1, 1, 1)]),
]

# 2^26 - 5: a prime as large as exact float64 elimination allows
LARGE_PRIME = 67108859


def _assert_rows_match_oracle(q, d):
    comp = q.component(d)
    specs = list(spec_oracle.relation_specs(q.identities, d, q.dim, q.orbits()))
    assert specs
    want = [mod_row_oracle.relation_row(q, comp, f_idx, assignment)
            for _, f_idx, assignment in specs]
    # the whole stream as one window, and windows that cut across blocks
    for size in (len(specs), 5):
        blocks = quotient.iter_relation_specs(q.identities, d, q.dim, q.orbits())
        got = np.concatenate([q._relation_rows(comp, start, stop, parts,
                                              np.zeros((stop - start, comp.paircols)))
                              for start, stop, parts in quotient.row_windows(blocks, size)])
        assert got.shape[0] == len(specs)
        for (row_index, _, _), row, ref in zip(specs, got, want):
            assert np.array_equal(row, ref), (d, row_index)


@pytest.mark.parametrize("p", [999983, 3])
@pytest.mark.parametrize("name,q,extra,mdegs", CASES,
                         ids=[c[0] + "+" * bool(c[2]) for c in CASES])
def test_bulk_rows_equal_per_spec_rows(name, q, extra, mdegs, p):
    qm = quotient.ModularQuotient(tideal.variety_with(tideal.get_variety(name, q), extra), p)
    for d in mdegs:
        _assert_rows_match_oracle(qm, d)


@pytest.mark.parametrize("name", ["assosymmetric", "jordan", "lie_triple"])
def test_bulk_products_equal_per_pair_products(name):
    # every pair of basis elements, in both orders, and products of vectors,
    # in splits whose blocks are symmetric in the commutative varieties
    qm = quotient.ModularQuotient(tideal.get_variety(name), 999983)
    qm.component((2, 2, 2))
    rng = np.random.default_rng(7)
    for d1, d2 in [((1, 1, 1), (1, 1, 1)), ((0, 1, 1), (2, 1, 1)), ((2, 1, 1), (0, 1, 1))]:
        n1, n2 = qm.dim(d1), qm.dim(d2)
        i, j = (x.ravel() for x in np.meshgrid(np.arange(n1), np.arange(n2), indexing="ij"))
        want = [mod_row_oracle._pair_product(qm, d1, a, d2, b) for a, b in zip(i, j)]
        assert np.array_equal(qm._products(d1, i, d2, j), np.array(want))
        V1 = rng.integers(0, 999983, (4, n1)).astype(float)
        V2 = rng.integers(0, 999983, (4, n2)).astype(float)
        I1, I2 = rng.integers(0, n1, 4), rng.integers(0, n2, 4)
        for x1, x2, v1, v2 in [(V1, V2, V1, V2), (I1, V2, np.eye(n1)[I1], V2),
                               (V1, I2, V1, np.eye(n2)[I2])]:
            want = [mod_row_oracle._product(qm, d1, a, d2, b) for a, b in zip(v1, v2)]
            assert np.array_equal(qm._products(d1, x1, d2, x2), np.array(want))


def test_bulk_rows_reduce_before_leaving_the_float64_range(monkeypatch):
    # The symmetrized ((t1 t2) t3) with a coefficient c near p / 2, for a
    # prime p near 2^26: substituting one element x for t1, t2 and t3 puts
    # all six terms on the same entries, c (x x) x six times over, and six
    # such placements pass 2^53 while four fit below 2^53 - p.
    c = (LARGE_PRIME - 1) // 2
    text = " + ".join("%d ((t%d t%d) t%d)" % ((c,) + s) for s in itertools.permutations((1, 2, 3)))
    variety = tideal.variety_with(tideal.get_variety("assosymmetric"), [text])
    qm = quotient.ModularQuotient(variety, LARGE_PRIME)
    assert 4 * c * (LARGE_PRIME - 1) <= 2 ** 53 - LARGE_PRIME < 2 ** 53 < 6 * c * (LARGE_PRIME - 1)
    largest = []
    mod_p = quotient.mod_p

    def recorded(a, p, out=None):
        largest.append(np.max(np.abs(a), initial=0))
        return mod_p(a, p, out)

    for d in [(3, 3), (2, 2, 2)]:
        qm.component(d)
        monkeypatch.setattr(quotient, "mod_p", recorded)
        _assert_rows_match_oracle(qm, d)
        monkeypatch.setattr(quotient, "mod_p", mod_p)
    # the entries came close to the bound, and every reduction was exact
    assert 3 * c * (LARGE_PRIME - 1) < max(largest) <= 2 ** 53 - LARGE_PRIME


def _residue(x, p):
    """An int or Fraction mod p."""
    return x.numerator * pow(x.denominator, -1, p) % p


def _dense_mod(vec, n, p):
    out = np.zeros(n)
    for k, x in vec.items():
        out[k] = _residue(x, p)
    return out


@pytest.mark.parametrize("name,q,extra,mdegs", QQ_CASES,
                         ids=[c[0] + "+" * bool(c[2]) for c in QQ_CASES])
def test_rational_rows_reduce_to_the_modular_rows(name, q, extra, mdegs):
    # The premise of ExactQuotient._selection_proves_rank: with equal orbit
    # bases and lower struct maps that reduce mod p to the GF(p) ones, each
    # rational relation row reduces mod p to the GF(p) row of the same spec.
    p = quotient.SELECTION_PRIMES[0]
    variety = tideal.variety_with(tideal.get_variety(name, q), extra)
    qe, qm = quotient.ExactQuotient(variety), quotient.ModularQuotient(variety, p)
    assert qe.orbits() == qm.orbits()
    for d in mdegs:
        ce, cm = qe.component(d), qm.component(d)
        for e in quotient._tower(d, qe.flavor):
            if e != d:
                assert quotient._struct_reduces_to(qe.comps[e], qm.comps[e], p), (d, e)
        blocks = list(quotient.iter_relation_specs(qe.identities, d, qe.dim, qe.orbits()))
        specs = spec_oracle.expand(blocks)
        assert specs == spec_oracle.expand(
            quotient.iter_relation_specs(qm.identities, d, qm.dim, qm.orbits()))
        [(start, stop, parts)] = quotient.row_windows(blocks, len(specs))
        got = qm._relation_rows(cm, start, stop, parts, np.zeros((stop - start, cm.paircols)))
        assert got.shape[0] == len(specs)
        for block in blocks:
            for k, row_index in enumerate(block.rows.tolist()):
                row = _dense_mod(qe._relation_row(ce, block, k), ce.paircols, p)
                assert np.array_equal(row, got[row_index]), (d, row_index)


@pytest.mark.parametrize("name", ["assosymmetric", "jordan", "lie_triple"])
def test_rational_products_reduce_to_the_modular_products(name):
    # sparse vectors with fractional entries, in both orders, in splits whose
    # blocks are symmetric in the commutative varieties
    p = quotient.SELECTION_PRIMES[0]
    qe = quotient.ExactQuotient(tideal.get_variety(name))
    qm = quotient.ModularQuotient(tideal.get_variety(name), p)
    qe.component((2, 2, 2))
    qm.component((2, 2, 2))
    n = qm.dim((2, 2, 2))
    rng = random.Random(7)

    def sparse(dim):
        return {k: Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                for k in rng.sample(range(dim), (dim + 1) // 2)}

    for d1, d2 in [((1, 1, 1), (1, 1, 1)), ((0, 1, 1), (2, 1, 1))]:
        n1, n2 = qm.dim(d1), qm.dim(d2)
        for _ in range(4):
            v1, v2 = sparse(n1), sparse(n2)
            for a, x1, b, x2 in [(d1, v1, d2, v2), (d2, v2, d1, v1)]:
                got = _dense_mod(qe.product(a, x1, b, x2), n, p)
                want = qm.product(a, _dense_mod(x1, qm.dim(a), p), b, _dense_mod(x2, qm.dim(b), p))
                assert np.array_equal(got, want), (a, b)

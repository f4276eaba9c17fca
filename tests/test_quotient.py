"""The inductive quotient construction: eliminators, enumeration, consistency."""

import hashlib
import importlib.util
import itertools
import json
import math
import os
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spec_oracle
from free_oracle import free_dim, member_of_span
from freealg import engine, lang, linalg, quotient, tideal
from freealg.term import (COMMUTATIVE, PLANAR, GF, FieldError, Monomial, Polynomial, QQ,
                          field_by_char, sub_multidegrees)


def rand_int_rows(rng, nrows, ncols, density=0.4, bound=6):
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            if rng.random() < density:
                v = rng.randint(-bound, bound)
                if v:
                    row[c] = v
        rows.append(row)
    return rows


def test_dense_mod_rref_matches_sparse(monkeypatch):
    rng = random.Random(41)
    panels = (quotient.PANEL_ROWS, 2)
    # whole batches, and batches of 1, 3 and 5 rows; 33554467 allows at most 6
    for p, batch_sizes in ((999983, (14, 1, 3, 5)), (33554467, (1, 3, 5))):
        for _ in range(5):
            rows = [{c: v % p for c, v in r.items() if v % p}
                    for r in rand_int_rows(rng, 14, 10)]
            oracle = linalg.rref(rows, 10, GF(p))
            running = linalg.SpanBasis(GF(p), 10)
            independent = [i for i, r in enumerate(rows) if linalg.insert_row(running, dict(r))]
            M = np.zeros((len(rows), 10))
            for i, r in enumerate(rows):
                for c, v in r.items():
                    M[i, c] = v
            for size, panel in itertools.product(batch_sizes, panels):
                monkeypatch.setattr(quotient, "PANEL_ROWS", panel)
                rre = quotient.DenseModRREF(p, 10)
                selected = []
                for k in range(0, len(rows), size):
                    selected += [k + i for i in rre.add_batch(M[k:k + size].copy())]
                assert selected == independent
                assert rre.rank == oracle.rank
                assert sorted(int(c) for c in rre.pivcols) == oracle.pivots
                for i in range(rre.rank):
                    got = {c: int(rre.rows[i, c]) for c in range(10) if rre.rows[i, c]}
                    assert got == {c: int(v) for c, v in oracle.rows[i].items()}


def _oracle(R, p):
    """linalg's RREF of the integer rows R over GF(p), and the rows that a
    running basis takes, in order."""
    rows = [{c: int(v) % p for c, v in enumerate(r) if v % p} for r in R]
    running = linalg.SpanBasis(GF(p), R.shape[1])
    taken = [i for i, r in enumerate(rows) if linalg.insert_row(running, dict(r))]
    return linalg.rref(rows, R.shape[1], GF(p)), taken


def _dense(oracle, ncols):
    return np.array([[int(r.get(c, 0)) for c in range(ncols)] for r in oracle.rows])


@pytest.mark.parametrize("p", [3, 999983, 33554467])
def test_dense_mod_rref_matches_the_oracle_in_full_panels(p, monkeypatch):
    # batches of two or more full panels, so later panels are reduced against
    # earlier ones; a batch at 33554467 holds at most 6 rows, hence panels of 3
    panel = min(quotient.PANEL_ROWS, quotient.DenseModRREF(p, 1).batch // 2)
    monkeypatch.setattr(quotient, "PANEL_ROWS", panel)
    rng = np.random.default_rng(p)
    nrows, ncols, rank = 4 * panel + 5, 2 * panel + 9, panel + 8
    C = rng.integers(0, p, (nrows, rank)) * (rng.random((nrows, rank)) < 0.4)
    R = C @ rng.integers(0, p, (rank, ncols)) % p
    oracle, taken = _oracle(R, p)
    for size in {2 * panel, 2 * panel + 3, nrows}:
        rre = quotient.DenseModRREF(p, ncols)
        if size > rre.batch:
            continue
        selected = []
        for k in range(0, nrows, size):
            selected += [k + i for i in rre.add_batch(R[k:k + size].astype(float))]
        assert selected == taken
        assert rre.pivcols.tolist() == oracle.pivots
        assert np.array_equal(rre.rows, _dense(oracle, ncols))


@pytest.mark.parametrize("p", [3, 33554467])
def test_gauss_jordan_mod_reduces_an_unreduced_panel(p):
    # as add_batch passes a panel after P -= X @ W[:k] with k < chunk: entries
    # of either sign, some above p.  Residues -1 above a unit diagonal make
    # every step subtract about (p-1)^2, so at 33554467 the panel passes 2^53.
    rng = np.random.default_rng(11)
    n, ncols = quotient.PANEL_ROWS, quotient.PANEL_ROWS + 6
    R = np.eye(n, ncols, dtype=np.int64) + np.triu(np.full((n, ncols), p - 1), 1)
    R[4] = (2 * R[1] + R[2]) % p
    R[7] = 0
    top = (quotient.mod_chunk(p) - 1) * (p - 1) ** 2 // p
    m = rng.integers(-1, top, (n, ncols))
    m[::2] = rng.integers(-1, 2, (n - n // 2, ncols))
    P = (R - p * m).astype(float)
    assert P.min() < 0 and P.max() >= p
    oracle, taken = _oracle(R, p)
    found = quotient._gauss_jordan_mod(P, p)
    assert [i for i, _ in found] == taken
    assert sorted(c for _, c in found) == oracle.pivots
    order = [i for i, _ in sorted(found, key=lambda f: f[1])]
    assert np.array_equal(P[order], _dense(oracle, ncols))
    assert not P[[i for i in range(n) if i not in taken]].any()


def test_dense_mod_rref_drops_rows_in_the_span(monkeypatch):
    rng = np.random.default_rng(13)
    p, ncols = 999983, 9
    a, b, c, e = rng.integers(0, p, (4, ncols)).astype(float)
    zero = np.zeros(ncols)
    batches = [
        [zero, a, b, a, (3 * a + 5 * b) % p, zero],               # first batch at rank 0
        [(2 * b) % p, c, zero, c, (a + c) % p, (7 * a + b + c) % p],
        [zero, (4 * c) % p],                                       # nothing new
        [e, (p - 1) * e % p, (a + e) % p, zero, e],
    ]
    stream = [row for batch in batches for row in batch]
    running = linalg.SpanBasis(GF(p), ncols)
    independent = [i for i, row in enumerate(stream)
                   if linalg.insert_row(running, {k: int(x) for k, x in enumerate(row) if x})]
    assert independent == [1, 2, 7, 14]
    for panel in (quotient.PANEL_ROWS, 2):
        monkeypatch.setattr(quotient, "PANEL_ROWS", panel)
        rre = quotient.DenseModRREF(p, ncols)
        selected, start = [], 0
        for batch in batches:
            selected += [start + i for i in rre.add_batch(np.array(batch))]
            start += len(batch)
        assert selected == independent
        only = quotient.DenseModRREF(p, ncols)
        assert only.add_batch(np.array([stream[i] for i in independent])) == [0, 1, 2, 3]
        assert np.array_equal(rre.rows, only.rows)
        assert np.array_equal(rre.pivcols, only.pivcols)


def test_mod_p_matches_np_mod():
    # floor(a / p) in floating point errs both ways near multiples of p
    rng = np.random.default_rng(5)
    for p in (3, 5, 10007, 999979, 33554467):
        top = (2 ** 53 - p) // p - 1
        k = rng.integers(-top, top, size=4000).astype(float)
        a = np.concatenate([k * p, k * p + 1, k * p - 1,
                            rng.integers(-(2 ** 53 - p), 2 ** 53 - p, size=4000).astype(float)])
        assert np.array_equal(quotient.mod_p(a, p), np.mod(a, p))


def test_dense_mod_rref_batch_split_invariant():
    rng = random.Random(4)
    p = 999979
    rows = rand_int_rows(rng, 20, 12)
    M = np.array([[r.get(c, 0) % p for c in range(12)] for r in rows], dtype=float)
    one = quotient.DenseModRREF(p, 12)
    one.add_batch(M.copy())
    split = quotient.DenseModRREF(p, 12)
    for k in range(0, 20, 3):
        split.add_batch(M[k:k + 3].copy())
    assert np.array_equal(one.rows, split.rows)
    assert np.array_equal(one.pivcols, split.pivcols)


def test_int_rref_matches_fraction_rref():
    rng = random.Random(10)
    for _ in range(6):
        rows = rand_int_rows(rng, 12, 9)
        ir = quotient.IntRREF(9)
        for r in rows:
            ir.insert(dict(r))
        oracle = linalg.rref([{c: Fraction(v) for c, v in r.items()} for r in rows],
                             9, QQ)
        rows = sorted(ir.rows.items())
        assert ir.rank == oracle.rank and [piv for piv, _ in rows] == oracle.pivots
        for (piv, row), want in zip(rows, oracle.rows):
            frac = {c: Fraction(v, row[piv]) for c, v in row.items()}
            assert frac == want


def test_relation_spec_enumeration_is_deterministic_and_blended():
    assym = tideal.get_variety("assosymmetric")
    qe = quotient.get_quotient(assym, QQ)
    qe.component((2, 1, 1))
    specs1 = spec_oracle.expand(quotient.iter_relation_specs(qe.identities, (2, 1, 1), qe.dim))
    specs2 = spec_oracle.expand(quotient.iter_relation_specs(qe.identities, (2, 1, 1), qe.dim))
    assert specs1 == specs2
    assert [s[0] for s in specs1] == list(range(len(specs1)))
    jor = tideal.get_variety("jordan")
    qj = quotient.get_quotient(jor, QQ)
    qj.component((2, 1, 1))
    specs = spec_oracle.expand(quotient.iter_relation_specs(qj.identities, (2, 1, 1), qj.dim))
    # the squared variable receives multisets, canonically nondecreasing
    for _, _, assignment in specs:
        ms = assignment[1]
        assert list(ms) == sorted(ms)


def test_monomial_images_are_multiplicative():
    assym = tideal.get_variety("assosymmetric")
    qe = quotient.get_quotient(assym, QQ)
    (a,) = lang.expand("t1 t2", PLANAR).terms
    (b,) = lang.expand("t1 (t3 t1)", PLANAR).terms
    ab = Monomial.pair(a, b)
    img = qe.monomial_image(ab)
    prod = qe.product(a.multidegree(), qe.monomial_image(a),
                      b.multidegree(), qe.monomial_image(b))
    assert img == prod


def test_modular_and_exact_images_agree():
    assym = tideal.get_variety("assosymmetric")
    qe = quotient.get_quotient(assym, QQ)
    p = 10007
    qm = quotient.ModularQuotient(assym, p, degree_cap=5)
    poly = lang.expand("J(t1,t2,t3) - [[t1,t3],t2]", PLANAR)
    img_e = qe.poly_image(poly)
    img_m = qm.poly_image(poly.to_field(GF(p)))
    assert img_e == {} and img_m == {}
    poly = lang.expand("wjor(t1,t2,t3,t4)", PLANAR)
    img_e = qe.poly_image(poly)
    img_m = qm.poly_image(poly.to_field(GF(p)))
    want = {k: GF(p).from_fraction(x) for k, x in img_e.items()}
    assert img_m == {k: x for k, x in want.items() if x}


def test_a_coefficient_p_divides_fails_before_the_build():
    qm = quotient.ModularQuotient(tideal.get_variety("assosymmetric"), 3)
    with pytest.raises(FieldError, match="not invertible mod 3"):
        qm.poly_image(lang.expand("1/3 lsym(t1,t2,t3) t4", PLANAR))
    assert not qm.comps


def test_free_commutative_quotient_counts_trees():
    comm = tideal.get_variety("commutative_magmatic")
    qe = quotient.get_quotient(comm, QQ)
    from freealg.term import count_monomials
    for d in [(1, 1, 1), (2, 1), (1, 1, 1, 1), (2, 2), (3, 1)]:
        assert qe.dim(d) == count_monomials(d, COMMUTATIVE)


def test_char3_wjor_strictly_weaker_than_jor():
    """At p = 3 the multilinear form generates a strictly smaller T-ideal."""
    f3 = GF(3)
    comm = tideal.get_variety("commutative_magmatic")
    jorv = tideal.variety_with(comm, ["jor(t1,t2)"], name="comm+jor")
    wjorv = tideal.variety_with(comm, ["wjor(t1,t2,t3,t4)"], name="comm+wjor")
    jor = lang.expand("jor(t1,t2)", COMMUTATIVE)
    wjor = lang.expand("wjor(t1,t2,t3,t4)", COMMUTATIVE)
    cert, res = member_of_span(jorv, wjor, f3)
    assert not res  # wjor is a consequence of jor at p = 3
    cert, res = member_of_span(wjorv, jor, f3)
    assert res      # but not conversely
    # and at a prime > 3 the two systems agree at the quartic type
    f5 = GF(5)
    cert, res = member_of_span(wjorv, jor, f5)
    assert not res


def _full_reference(variety, d):
    """An ExactQuotient built through IntRREF alone up to component d: one without
    twins."""
    full = quotient.ExactQuotient(variety)
    full._twinnable = False
    full.component(d)
    return full


def test_replay_mode_claims_and_warnings():
    assym = tideal.get_variety("assosymmetric")
    full = _full_reference(assym, (2, 1, 1))
    qe = quotient.ExactQuotient(assym)
    comp = qe.component((2, 1, 1))
    assert comp.mode == "replay"
    # replays agree with the full path
    assert _structs(qe) == _structs(full)


def test_degree_cap():
    assym = tideal.get_variety("assosymmetric")
    qm = quotient.ModularQuotient(assym, 10007, degree_cap=3)
    with pytest.raises(quotient.DegreeCapExceeded):
        qm.dim((2, 2))


def test_large_prime_builds_and_decides():
    # only 7 products of residues fit below 2^53 here: batches are clamped below that
    assym = tideal.get_variety("assosymmetric")
    big = 33554467
    assert quotient.ModularQuotient(assym, big).dim((1, 1, 1, 1)) == 29
    got = engine.is_identity(assym, "wjor(t1,t2,t3,t4)", big, "plus")
    want = engine.is_identity(assym, "wjor(t1,t2,t3,t4)", 999983, "plus")
    assert got.is_identity is want.is_identity is False


def test_module_basis_stream_cuts_rows():
    assym = tideal.get_variety("assosymmetric")
    for fld in (QQ, GF(3), GF(5)):
        orbits = quotient.orbit_basis(assym.identities, fld)
        assert list(orbits) == [3] and len(orbits[3]) == 5
    ordered = spec_oracle.expand(
        quotient.iter_relation_specs(assym.identities, (1, 1, 1), lambda e: 1))
    cut = spec_oracle.expand(
        quotient.iter_relation_specs(assym.identities, (1, 1, 1), lambda e: 1, orbits))
    assert len(ordered) == 12 and len(cut) == 5
    # a multiset with a repeated element gives each distinct instance once
    cut = spec_oracle.expand(quotient.iter_relation_specs(assym.identities, (3,), lambda e: 1,
                                                          orbits))
    instances = {(f_idx, tuple(a[v] for v in sorted(a))) for _, f_idx, a in cut}
    assert len(instances) == len(cut) < 5


def _compare_cases():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "scripts", "compare_components.py")
    spec = importlib.util.spec_from_file_location("compare_components", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CASES


@pytest.mark.parametrize("name,q,char,target", _compare_cases(),
                         ids=lambda x: str(x).replace(" ", ""))
def test_spec_blocks_expand_to_the_per_spec_stream(name, q, char, target):
    # Row numbering, identities and assignments of the block stream against
    # the per-spec reference, at every multidegree at or below the target,
    # with the orbit bases of the case's field and with none.  Dimensions
    # come from a GF(p) build, p = 999983 at char 0.
    variety = tideal.get_variety(name, q)
    qm = quotient.ModularQuotient(variety, char or 999983)
    qm.component(target)
    orbits = quotient.orbit_basis(qm.identities, field_by_char(char))
    for d in sub_multidegrees(target) + [target]:
        for basis in (orbits, None):
            want = list(spec_oracle.relation_specs(qm.identities, d, qm.dim, basis))
            blocks = list(quotient.iter_relation_specs(qm.identities, d, qm.dim, basis))
            assert spec_oracle.expand(blocks) == want, (d, basis is None)
            for block in blocks:
                # one block per shape, its rows ascending
                assert np.all(np.diff(block.rows) > 0)
            assert len({(b.f_idx, b.shape) for b in blocks}) == len(blocks)


def _compositions(n):
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(1, n + 1) for rest in _compositions(n - k)]


UP_TO_DEGREE_4 = [d for n in range(1, 5) for d in _compositions(n)]


def _partitions(n, largest):
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(min(n, largest), 0, -1) for rest in _partitions(n - k, k)]


# up to relabeling, in at most three variables: (3,3) and (2,2,2) included
UP_TO_DEGREE_6 = [d for n in range(1, 7) for d in _partitions(n, n) if len(d) <= 3]


@pytest.mark.parametrize("name", ["jordan", "lie_triple", "commutative_magmatic"])
def test_commutative_modular_quotient_matches_exact(name):
    # equal splits of commutative components take the upper-triangular blocks
    variety = tideal.get_variety(name)
    fld = GF(999983)
    qe = quotient.get_quotient(variety, QQ)
    qm = quotient.get_quotient(variety, fld)
    for d in UP_TO_DEGREE_6:
        assert qm.dim(d) == qe.dim(d), d
    for text in ["((t1 t2) t1)(t2 t1) - 3 ((t1 t1) t2)(t2 t1)", "jor(t1,t2)",
                 "((t1 t2) t3)((t2 t3) t1) + 2 ((t1 t2) t3)((t1 t2) t3)"]:
        poly = lang.expand(text, COMMUTATIVE)
        img_e = qe.poly_image(poly)
        img_m = qm.poly_image(poly.to_field(fld))
        want = {k: fld.from_fraction(x) for k, x in img_e.items()}
        assert img_m == {k: x for k, x in want.items() if x}


def test_square_zero_commutative_quotient_matches_free_oracle():
    # x x = 0 over GF(2) is not trivial (x y + y x = 0 holds anyway); its relation
    # terms put two basis elements of one multidegree at the root of a symmetric
    # block: (2,2,2) squares (1,1,1), of dimension 3, so the two can differ
    square_zero = tideal.VarietyPresentation(
        "square_zero", COMMUTATIVE, (lang.expand("t1 t1", COMMUTATIVE),))
    qm = quotient.ModularQuotient(square_zero, 2)
    for d in [d for n in range(1, 6) for d in _partitions(n, n)] + [(2, 2, 2)]:
        assert qm.dim(d) == free_dim(square_zero, d, GF(2)), d
    assert qm.dim((2, 2)) == 2 and qm.dim((2, 2, 2)) == 81


@pytest.mark.parametrize("char", [0, 3, 5])
@pytest.mark.parametrize("name", ["assosymmetric", "dual_assosymmetric", "assder",
                                  "associative", "magmatic", "commutative_magmatic",
                                  "jordan", "lie_triple", "quasi_assosymmetric"])
def test_module_basis_stream_matches_free_oracle(name, char):
    variety = tideal.get_variety(name, q=2)      # q is read by quasi_assosymmetric only
    fld = field_by_char(char)
    for d in UP_TO_DEGREE_4:
        assert tideal.quotient_dim(variety, d, fld) == free_dim(variety, d, fld), d


# every multidegree of degree <= 3 in at most 4 variables with a zero entry, and a few
# of degree 4 (the free-monomial oracle takes about 1 s at (1,1,0,1,1))
ZERO_PADDED = sorted({d for n in range(2, 5) for d in itertools.product(range(4), repeat=n)
                      if 0 < sum(d) <= 3 and d[-1] and 0 in d}, key=lambda d: (sum(d), d))
ZERO_PADDED += [(0, 4), (3, 0, 1), (0, 2, 2), (2, 0, 1, 1)]


@pytest.mark.parametrize("char", [0, 3, 5])
@pytest.mark.parametrize("name", ["assosymmetric", "jordan", "lie_triple", "dual_assosymmetric"])
def test_zero_padded_dims_match_free_oracle(name, char):
    # the quotient relabels these from their zero-free bases; the oracle spans
    # free monomials in the zero-padded variables themselves
    variety = tideal.get_variety(name)
    fld = field_by_char(char)
    for d in ZERO_PADDED:
        assert tideal.quotient_dim(variety, d, fld) == free_dim(variety, d, fld), d


@pytest.mark.parametrize("name,d", [("assosymmetric", (2, 0, 1, 1)),
                                    ("assosymmetric", (0, 1, 0, 2, 1)),
                                    ("jordan", (0, 2, 1, 1)), ("lie_triple", (3, 0, 2))])
@pytest.mark.parametrize("char", [0, quotient.SELECTION_PRIMES[0]])
def test_a_relabeled_component_is_its_base_under_renamed_keys(name, d, char):
    variety = tideal.get_variety(name)
    q = quotient.ExactQuotient(variety) if char == 0 else quotient.ModularQuotient(variety, char)
    comp, base = q.component(d), q.comps[_base(d)]
    assert comp is not base and comp.d == d
    assert list(comp.offsets) == quotient.component_splits(d, variety.flavor)
    for attr in ("dim", "paircols", "rank", "mode", "selected", "nonpiv", "S"):
        assert getattr(comp, attr) is getattr(base, attr), attr
    assert list(comp.offsets.values()) == list(base.offsets.values())
    # the component at d built from its own relation rows, as before relabeling
    built = q._build(d)
    assert (built.dim, built.rank, built.selected, built.offsets) == \
        (comp.dim, comp.rank, comp.selected, comp.offsets)
    if char:
        assert np.array_equal(built.nonpiv, comp.nonpiv) and np.array_equal(built.S, comp.S)
    else:
        assert built.S == comp.S


def test_a_tower_builds_only_its_zero_free_components(monkeypatch):
    dual = tideal.get_variety("dual_assosymmetric")
    builds, eliminators = [], []
    build, init = quotient.ModularQuotient._build, quotient.DenseModRREF.__init__

    def counted_build(self, d):
        builds.append(d)
        return build(self, d)

    def counted_init(self, *args):
        eliminators.append(args)
        init(self, *args)

    monkeypatch.setattr(quotient.ModularQuotient, "_build", counted_build)
    monkeypatch.setattr(quotient.DenseModRREF, "__init__", counted_init)
    q = quotient.ModularQuotient(dual, quotient.SELECTION_PRIMES[0])
    assert q.dim((1,) * 6) == 11                  # the paper's dual dimensions
    assert len(q.comps) == 2 ** 6 - 1
    assert builds == [(1,) * n for n in range(1, 7)]
    # one elimination per zero-free component of degree at least 2, not 57
    assert len(eliminators) == 5


@pytest.mark.parametrize("char", [0, 3, 5])
def test_module_basis_stream_degree5(char, monkeypatch):
    """(1,1,1,1,1) against the stream of every ordered tuple, and against the
    free-monomial oracle (about 160 s per field) when FREEALG_EXTENDED=1."""
    assym = tideal.get_variety("assosymmetric")
    fld = field_by_char(char)
    d = (1, 1, 1, 1, 1)

    def fresh():
        if char == 0:
            q = quotient.ExactQuotient(assym)
            q._twinnable = False      # every relation row through IntRREF, not a replay
            return q
        return quotient.ModularQuotient(assym, char)

    ordered = fresh()
    monkeypatch.setattr(ordered, "orbits", lambda: None)
    cut = fresh()
    assert cut.dim(d) == ordered.dim(d)
    assert cut.component(d).rank == ordered.component(d).rank
    if os.environ.get("FREEALG_EXTENDED") == "1":
        assert cut.dim(d) == free_dim(assym, d, fld)


def test_replay_needs_matching_orbit_bases(monkeypatch):
    # twin k picks other orbit bases: twin 1's struct map still lifts, but twin 0's
    # selected row indices name other QQ rows, so its selection proves no rank and
    # nothing is lifted
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})   # a child sees no patch
    assym = tideal.get_variety("assosymmetric")
    d = (2, 1, 1)
    full = _full_reference(assym, d)
    lifts = _lifts(monkeypatch)
    for k, mode in ((1, "replay"), (0, "full")):
        twins = [quotient.ModularQuotient(assym, p) for p in quotient.SELECTION_PRIMES]
        # greedy from rsym first: another subset spanning the same module
        swapped = quotient.orbit_basis(twins[k].identities[::-1], twins[k].field)
        other = {n: tuple((1 - f_idx, sigma) for f_idx, sigma in basis)
                 for n, basis in swapped.items()}
        monkeypatch.setattr(twins[k], "orbits", lambda: other)
        qe = quotient.ExactQuotient(assym)
        assert other != qe.orbits()
        monkeypatch.setattr(qe, "_twins", twins)
        comp = qe.component(d)
        assert comp.mode == mode, k
        assert lifts.pop(d, 0) == (k == 1)
        assert comp.dim == free_dim(assym, d, QQ)
        assert _structs(qe) == _structs(full)


def test_twin_of_another_width_is_generated_in_full(monkeypatch):
    # associative twins: lower components of other dimensions, so other pair layouts,
    # and other orbit bases: the first twin's selection proves no rank
    assym = tideal.get_variety("assosymmetric")
    d = (2, 1, 1)
    full = _full_reference(assym, d)
    assoc = tideal.get_variety("associative")
    qe = quotient.ExactQuotient(assym)
    monkeypatch.setattr(qe, "_twins", [quotient.ModularQuotient(assoc, p)
                                       for p in quotient.SELECTION_PRIMES])
    comp = qe.component(d)
    assert [t.component(d).paircols for t in qe._twins] != [comp.paircols] * 2
    assert not qe._selection_proves_rank(d)
    assert comp.mode == "full"
    assert _structs(qe) == _structs(full)


# -- struct maps lifted from the GF(p) twins -----------------------------------

P0 = quotient.SELECTION_PRIMES[0]
P1 = quotient.SELECTION_PRIMES[1]
BOUND = math.isqrt((P0 * P1 - 1) // 2)


@settings(max_examples=200, deadline=None)
@given(st.integers(-BOUND, BOUND), st.integers(1, BOUND))
def test_rational_reconstruction_round_trip(a, b):
    m = P0 * P1
    u = a * pow(b, -1, m) % m
    assert quotient.rational_reconstruction(u, m, BOUND) == Fraction(a, b)


def _twin(rows, ncols, p):
    """(non-pivot columns, struct matrix, positions that pivoted) of integer rows over GF(p)."""
    rre = quotient.DenseModRREF(p, ncols)
    M = np.array([[r.get(c, 0) % p for c in range(ncols)] for r in rows], dtype=float)
    selected = rre.add_batch(M)
    S = np.zeros((ncols, ncols - rre.rank))
    S[rre.nonpiv, np.arange(ncols - rre.rank)] = 1.0
    S[rre.piv] = quotient.mod_p(-rre.N, p)
    return rre.nonpiv, S, selected


def _lift(rows, ncols, twins=None):
    twins = twins or [_twin(rows, ncols, p) for p in (P0, P1)]
    return quotient.lift_struct(rows, [t[0] for t in twins], [t[1] for t in twins], (P0, P1))


def _int_rref_struct(rows, ncols):
    basis = quotient.IntRREF(ncols)
    for r in rows:
        basis.insert(dict(r))
    return basis.struct_columns()


def _independent_rows(seed, nrows=6, ncols=10):
    rows = rand_int_rows(random.Random(seed), nrows, ncols, bound=3)
    _, _, selected = _twin(rows, ncols, P0)
    return [rows[i] for i in selected]


# rows scaled by 2^50 or 2^80 span the same space, but with entries beyond float64's
# exact range (2^80: beyond int64), whose kill check needs several check primes
SCALES = (1, 2 ** 50, 2 ** 80)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("seed", range(4))
def test_lift_struct_returns_the_int_rref_struct(seed, scale):
    rows = _independent_rows(seed)
    twins = [_twin(rows, 10, p) for p in (P0, P1)]
    got = _lift([{c: scale * x for c, x in r.items()} for r in rows], 10, twins)
    assert got == _int_rref_struct(rows, 10)
    assert any(isinstance(x, Fraction) for col in got for x in col.values())
    for col in got:
        assert not any(isinstance(x, Fraction) and x.denominator == 1 for x in col.values())


def _corrupt(twins, primes):
    """Add 1 to the last struct constant of the last pivot row in the given twins."""
    piv = np.setdiff1d(np.arange(10), twins[0][0])
    for (_, S, _), p in zip(twins, primes):
        S[piv[-1], -1] = (S[piv[-1], -1] + 1) % p


def test_lift_struct_rejects_a_corrupted_residue():
    rows = _independent_rows(0)
    twins = [_twin(rows, 10, p) for p in (P0, P1)]
    _corrupt(twins[1:], (P1,))
    assert _lift(rows, 10, twins) is None


@pytest.mark.parametrize("scale", SCALES)
def test_lift_struct_rejects_a_reconstructible_wrong_value(scale):
    # the same change in both twins reconstructs to a small fraction: the exact check refuses it
    rows = [{c: scale * x for c, x in r.items()} for r in _independent_rows(0)]
    twins = [_twin(rows, 10, p) for p in (P0, P1)]
    _corrupt(twins, (P0, P1))
    assert _lift(rows, 10, twins) is None


def test_lift_struct_rejects_rank_deficient_rows(monkeypatch):
    # twin 0 takes its orbit basis in reverse order, so its selected row indices name
    # other QQ rows: at (1,1,1,1), rank-deficient, yet nonzero, in the span and as many
    # as the rank, so lift_struct would accept them; the rank proof refuses them first
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})   # a child sees no patch
    assym = tideal.get_variety("assosymmetric")
    d = (1, 1, 1, 1)
    calls = _replay_inserts(monkeypatch)
    full = _full_reference(assym, d)
    full_calls = dict(calls)
    calls.clear()
    lift = quotient.lift_struct
    lifts = _lifts(monkeypatch)
    twins = [quotient.ModularQuotient(assym, p) for p in quotient.SELECTION_PRIMES]
    other = {n: basis[::-1] for n, basis in twins[0].orbits().items()}
    monkeypatch.setattr(twins[0], "orbits", lambda: other)
    qe = quotient.ExactQuotient(assym)
    monkeypatch.setattr(qe, "_twins", twins)
    comp = qe.component(d)
    assert not qe._selection_proves_rank(d)
    assert comp.mode == "full" and d not in lifts and calls[d] == full_calls[d]
    assert _structs(qe) == _structs(full)
    sel = twins[0].component(d)
    named = list(qe._integral_rows(comp, set(sel.selected)))
    rank = linalg.rref([{c: Fraction(x) for c, x in r.items()} for r in named],
                       comp.paircols, QQ).rank
    assert len(named) == sel.rank > rank
    assert lift(named, [t.component(d).nonpiv for t in twins],
                [t.component(d).S for t in twins], quotient.SELECTION_PRIMES) is not None


def test_lift_struct_with_proven_rank_counts_the_rows():
    # every row below lies in the span, so only the row count can refuse
    rows = _independent_rows(2)
    twins = [_twin(rows, 10, p) for p in (P0, P1)]
    assert _lift(rows, 10, twins) == _int_rref_struct(rows, 10)
    assert _lift(rows[:-1], 10, twins) is None
    assert _lift(rows + [rows[0]], 10, twins) is None


def test_struct_with_a_denominator_divisible_by_p_does_not_reduce():
    assym = tideal.get_variety("assosymmetric")
    comp = quotient.ExactQuotient(assym).component((2, 1))
    twin = quotient.ModularQuotient(assym, P0).component((2, 1))
    assert quotient._struct_reduces_to(comp, twin, P0)
    col = next(col for col in comp.S if len(col) > 1)
    j = next(iter(col))
    col[j] += Fraction(P0 + 1, P0)        # no residue mod P0
    assert not quotient._struct_reduces_to(comp, twin, P0)


@pytest.mark.parametrize("side", ["twin", "rational"])
def test_struct_with_a_nonzero_the_other_lacks_does_not_reduce(side):
    assym = tideal.get_variety("assosymmetric")
    comp = quotient.ExactQuotient(assym).component((2, 1))
    twin = quotient.ModularQuotient(assym, P0).component((2, 1))
    assert quotient._struct_reduces_to(comp, twin, P0)
    c, j = next((c, j) for c, col in enumerate(comp.S) for j in range(comp.dim) if j not in col)
    if side == "twin":
        twin.S[c, j] = 1.0
    else:
        comp.S[c][j] = 1
    assert not quotient._struct_reduces_to(comp, twin, P0)


def test_lift_struct_rejects_heights_above_the_bound():
    n, q = 1000003, 999961            # struct constant n/q: both above BOUND
    rows = [{0: q, 1: -n}, {2: 1, 3: 5}]
    assert BOUND < q < n
    assert quotient.rational_reconstruction(n * pow(q, -1, P0 * P1) % (P0 * P1),
                                            P0 * P1, BOUND) is None
    assert _lift(rows, 4) is None
    assert _int_rref_struct(rows, 4)[0] == {0: Fraction(n, q)}


def test_lift_struct_checks_in_ints_beyond_the_float_bound():
    # 2^53 + 1 rounds to 2^53 in float64, which would make this wrong row look killed
    twins = [_twin([{0: 1, 1: -1}], 2, p) for p in (P0, P1)]
    assert _lift([{0: 2 ** 53 + 1, 1: -2 ** 53}], 2, twins) is None
    assert _lift([{0: 2 ** 53, 1: -2 ** 53}], 2, twins) == [{0: 1}, {0: 1}]


def test_lift_struct_checks_modulo_every_prime_its_bound_needs():
    # D r S of the wrong row is the first check prime q, 0 modulo q alone
    q = quotient._check_primes(1)[0]
    twins = [_twin([{0: 1, 1: -2}], 2, p) for p in (P0, P1)]
    assert len(quotient._check_primes(2 * (q - 1) * 2)) == 2
    assert _lift([{0: 1, 1: q - 2}], 2, twins) is None
    assert _lift([{0: 1, 1: -2}], 2, twins) == [{0: 2}, {0: 1}]
    # struct constant 1/1000: the common denominator D = 1000 bounds D r S as Z = 1 does
    twins = [_twin([{0: 1000, 1: -1}], 2, p) for p in (P0, P1)]
    assert _lift([{0: q % 1000, 1: q // 1000}], 2, twins) is None
    assert _lift([{0: 1000, 1: -1}], 2, twins) == [{0: Fraction(1, 1000)}, {0: 1}]


def test_lift_struct_from_one_twin_up_to_its_bound():
    # one twin: its residues reconstructed with numerators and denominators up to
    # isqrt((p0 - 1) / 2) = 707; a struct constant of height 708 needs a second prime
    assert math.isqrt((P0 - 1) // 2) == 707
    for seed in range(4):
        rows = _independent_rows(seed)
        nonpiv, S, _ = _twin(rows, 10, P0)
        assert quotient.lift_struct(rows, [nonpiv], [S], (P0,)) == _int_rref_struct(rows, 10)
    for h in (707, 708):
        rows = [{0: h, 1: -1}, {2: 1, 3: -h}]          # struct constants 1/h and h
        nonpiv, S, _ = _twin(rows, 4, P0)
        got = quotient.lift_struct(rows, [nonpiv], [S], (P0,))
        assert got == (_int_rref_struct(rows, 4) if h == 707 else None)
        assert _lift(rows, 4) == _int_rref_struct(rows, 4)


def test_lift_struct_holds_memory_proportional_to_the_nonzeros():
    # a twin of 1,500 pair columns and dim 150 whose pivot rows are about 10% nonzero,
    # from rows in reduced echelon form with small integers right of each pivot: the
    # lift's peak above what it returns stays below half of one dense k x dim matrix
    rng = np.random.default_rng(5)
    ncols, dim = 1500, 150
    k = ncols - dim
    nonpiv = np.sort(rng.choice(ncols, dim, replace=False))
    piv = np.setdiff1d(np.arange(ncols), nonpiv)
    A = rng.integers(-9, 10, (k, dim)) * (rng.random((k, dim)) < 0.2) * (nonpiv > piv[:, None])
    assert 0.08 < np.count_nonzero(A) / A.size < 0.12
    rows = [{int(piv[i]): 1} | {int(nonpiv[j]): -int(A[i, j]) for j in np.flatnonzero(A[i])}
            for i in range(k)]
    S = np.zeros((ncols, dim))
    S[nonpiv, np.arange(dim)] = 1.0
    S[piv] = A % P0
    tracemalloc.start()
    try:
        got = quotient.lift_struct(rows, [nonpiv], [S], (P0,))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - held < k * dim * 8 / 2, (peak, held)
    assert got == _int_rref_struct(rows, ncols)


def _components_being_built(monkeypatch):
    """The stack of ExactQuotient components being built, kept current."""
    building = []
    build = quotient.ExactQuotient._build

    def tracked_build(self, d):
        building.append(d)
        try:
            return build(self, d)
        finally:
            building.pop()

    monkeypatch.setattr(quotient.ExactQuotient, "_build", tracked_build)
    return building


def _replay_inserts(monkeypatch):
    """Count IntRREF.insert calls per ExactQuotient component being built."""
    calls, building = {}, _components_being_built(monkeypatch)
    insert = quotient.IntRREF.insert

    def counted_insert(self, row):
        calls[building[-1]] = calls.get(building[-1], 0) + 1
        return insert(self, row)

    monkeypatch.setattr(quotient.IntRREF, "insert", counted_insert)
    return calls


def _lifts(monkeypatch):
    """Count lift_struct calls per ExactQuotient component being built."""
    counts, building = {}, _components_being_built(monkeypatch)
    lift = quotient.lift_struct

    def counted_lift(*args):
        counts[building[-1]] = counts.get(building[-1], 0) + 1
        return lift(*args)

    monkeypatch.setattr(quotient, "lift_struct", counted_lift)
    return counts


def _structs(q):
    return {d: (c.dim, c.offsets, c.S) for d, c in q.comps.items()}


def _base(d):
    """d without its zero entries: the multidegree a zero-padded component relabels."""
    return tuple(x for x in d if x)


def _below_a_relabeling(e, d):
    """Is some zero-padding of the zero-free e that keeps its order <= d?"""
    return any(all(x <= d[i] for x, i in zip(e, at))
               for at in itertools.combinations(range(len(d)), len(e)))


@pytest.mark.parametrize("name,q,d", [
    ("assosymmetric", None, (2, 1, 1, 1)),
    ("quasi_assosymmetric", Fraction(3), (2, 1, 1, 1)),
    ("assosymmetric", None, (1,) * 5),              # the multilinear dims of the tables
    ("dual_assosymmetric", None, (1,) * 6),         # the dual dims of the tables
], ids=["assosymmetric-None", "quasi_assosymmetric-q1", "assosymmetric-1^5", "dual-1^6"])
def test_replay_lifts_struct_without_int_rref(name, q, d, monkeypatch):
    variety = tideal.get_variety(name, q)
    full = _full_reference(variety, d)
    calls = _replay_inserts(monkeypatch)
    lifts = _lifts(monkeypatch)
    qe = quotient.ExactQuotient(variety)
    qe.component(d)
    # only zero-free components are built; a zero-padded one is its base's, mode included
    assert all(c.mode == qe.comps[_base(e)].mode for e, c in qe.comps.items())
    replayed = [e for e, c in qe.comps.items() if c.mode == "replay" and e == _base(e)]
    # every component of degree 2 or more is lifted: IntRREF inserts no row
    assert replayed == [e for e in qe.comps if e == _base(e) and sum(e) > 1]
    assert not calls
    # twin 0's selection proves every rank: each replayed component is lifted once, and
    # once more where GF(p0) alone is refused (q = 3: a numerator 713 at (2,1,1))
    second = {(2, 1, 1)} if q is not None else set()
    assert lifts == {e: 1 + (e in second) for e in replayed}
    assert _structs(qe) == _structs(full)


def test_a_residue_over_one_primes_bound_asks_for_the_next_twin(monkeypatch):
    # quasi-assosymmetric q = 3 has a struct numerator 713 at (2,1,1), over GF(p0)'s
    # bound 707: that lift is refused, GF(p1)'s twin is asked for, and the lift from
    # both replays; every later lift uses both twins
    variety = tideal.get_variety("quasi_assosymmetric", Fraction(3))
    d = (2, 1, 1, 1)
    full = _full_reference(variety, d)
    assert max(abs(Fraction(x).numerator) for col in full.comps[(2, 1, 1)].S
               for x in col.values()) == 713
    building = _components_being_built(monkeypatch)
    tried, lift = {}, quotient.lift_struct

    def recorded(*args):
        cols = lift(*args)
        tried.setdefault(building[-1], []).append((tuple(args[3]), cols is not None))
        return cols

    monkeypatch.setattr(quotient, "lift_struct", recorded)
    qe = quotient.ExactQuotient(variety)
    qe.component(d)
    assert tried == {(2,): [((P0,), True)], (1, 1): [((P0,), True)],
                     (2, 1): [((P0,), True)], (1, 1, 1): [((P0,), True)],
                     (2, 1, 1): [((P0,), False), ((P0, P1), True)],
                     (1, 1, 1, 1): [((P0, P1), True)], d: [((P0, P1), True)]}
    assert [t.p for t in qe._twins] == [P0, P1]
    assert all(qe.comps[e].mode == "replay" for e in tried)
    assert _structs(qe) == _structs(full)


def test_a_lower_struct_off_the_first_twin_re_eliminates_the_rank(monkeypatch):
    assym = tideal.get_variety("assosymmetric")
    # (2,1) lies below (2,1,1) and (2,1,1,1), but no relabeling of it lies below (1,1,1,1)
    d, e = (2, 1, 1, 1), (2, 1)
    full = _full_reference(assym, d)
    twins = [quotient.ModularQuotient(assym, p) for p in quotient.SELECTION_PRIMES]
    for t in twins:
        t.component(d)
    # one struct constant of twin 0 at e, changed after its tower was built and before
    # the QQ build: e's one lift, from both twins, is refused, so e goes through IntRREF
    low = twins[0].component(e)
    row = np.setdiff1d(np.arange(low.paircols), low.nonpiv)[0]
    low.S[row, 0] = (low.S[row, 0] + 1) % twins[0].p
    lifts = _lifts(monkeypatch)
    qe = quotient.ExactQuotient(assym)
    monkeypatch.setattr(qe, "_twins", twins)
    qe.component(d)
    # exactly the components strictly above e or one of its relabelings lose the rank
    # proof and read "full" without a lift; the relabelings share e's struct map; the
    # others are lifted once and read "replay"
    twinned = {d2 for d2 in qe.comps if d2 == _base(d2) and sum(d2) > 1}
    above = {d2 for d2 in twinned if d2 != e and _below_a_relabeling(e, d2)}
    assert d in above and above != twinned - {e}
    assert lifts == {d2: 1 for d2 in twinned - above}
    assert all(qe.comps[d2].mode == ("full" if d2 in above | {e} else "replay")
               for d2 in twinned)
    assert _structs(qe) == _structs(full)


def test_replay_falls_back_to_int_rref_above_the_height_bound(monkeypatch):
    # quasi-assosymmetric q = -1/3 has struct constants like 3819349/3271840 at (2,1,1,1):
    # the lift is refused with every prime and every relation row goes through IntRREF
    variety = tideal.get_variety("quasi_assosymmetric", Fraction(-1, 3))
    calls = _replay_inserts(monkeypatch)
    full = _full_reference(variety, (2, 1, 1, 1))
    full_calls = dict(calls)
    calls.clear()
    building = _components_being_built(monkeypatch)
    tried, lift = {}, quotient.lift_struct

    def recorded(*args):
        cols = lift(*args)
        tried.setdefault(building[-1], []).append((len(args[3]), cols is not None))
        return cols

    monkeypatch.setattr(quotient, "lift_struct", recorded)
    qe = quotient.ExactQuotient(variety)
    comp = qe.component((2, 1, 1, 1))
    assert comp.mode == "full" and calls[(2, 1, 1, 1)] == full_calls[(2, 1, 1, 1)]
    assert tried[(2, 1, 1, 1)][-1] == (len(quotient.SELECTION_PRIMES), False)
    # a zero-free component reads "replay" exactly when its last lift was accepted; the
    # zero-padded ones are relabelings and lift nothing
    built = {d: c for d, c in qe.comps.items() if d == _base(d)}
    assert set(tried) == {d for d in built if sum(d) > 1}
    assert all((c.mode == "replay") == tried.get(d, [(0, False)])[-1][1]
               for d, c in built.items())
    assert _structs(qe) == _structs(full)


def test_a_strategy_prime_in_a_denominator_skips_the_twins(monkeypatch):
    # no GF(p0) coordinates for q = 1/p0: every component goes through IntRREF
    variety = tideal.get_variety("quasi_assosymmetric", Fraction(1, P0))
    d = (2, 1, 1)
    requests = []
    monkeypatch.setattr(quotient.ExactQuotient, "_twin", lambda self, i: requests.append(i))
    qe = quotient.ExactQuotient(variety)
    comp = qe.component(d)
    assert comp.mode == "full" and not requests and not qe._twins
    assert comp.dim == free_dim(variety, d, QQ)


def _record(comp):
    S = None if comp.S is None else comp.S.tobytes()
    nonpiv = None if comp.nonpiv is None else comp.nonpiv.tolist()
    return comp.dim, comp.rank, comp.selected, nonpiv, S, comp.mode, comp.paircols


def test_an_exact_build_makes_its_twins_in_process(monkeypatch):
    # [3,3,1], as in the D = shest check, with two CPUs: no child starts, twin 0 is
    # built here and lifts every replay, and both match a one-CPU build
    builds = []
    for ncpu in (2, 1):
        monkeypatch.setattr(quotient, "_CACHE", {})
        quotient.stop_twin_builders()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=ncpu: set(range(n)))
        qe = quotient.ExactQuotient(tideal.get_variety("assosymmetric"))
        qe.component((3, 3, 1))
        assert not quotient._BUILDERS
        assert [t.p for t in qe._twins] == [P0]
        # every component of degree 2 or more replays, the zero-padded ones as views
        assert {d for d, c in qe.comps.items() if c.mode == "replay"} == \
            {d for d in qe.comps if sum(d) > 1}
        builds.append(qe)
    two, one = builds
    assert _structs(two) == _structs(one)
    assert list(two._twins[0].comps) == list(one._twins[0].comps)
    for d, comp in two._twins[0].comps.items():
        assert _record(comp) == _record(one._twins[0].comps[d]), d


def test_a_gfp_build_holds_one_n_and_one_window():
    # N is updated in place in one buffer, and one window of relation rows is alive at
    # a time: the build's peak above what the tower holds afterwards stays below the
    # bytes of N's largest shape plus one window.  The buffer is an anonymous mapping,
    # which tracemalloc does not see, so its size is added to the traced scratch.  An
    # elimination that makes a new N per batch, next to copies of the window, peaks
    # 13.8 MB above, against a bound of 6.1 MB
    q = quotient.ModularQuotient(tideal.get_variety("assosymmetric"), P0)
    d = (3, 3, 1)
    for e in quotient._tower(d, q.flavor):
        if e != d:
            q.component(e)
    tracemalloc.start()
    try:
        comp = q.component(d)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = comp.paircols
    rre = quotient.DenseModRREF(P0, n)
    assert (n, comp.rank) == (1306, 1143)
    assert rre._buf.nbytes + peak - held < 8 * (n * n // 4) + rre.batch * n * 8, (peak, held)


GFP_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "gfp_twin_digests.json")


def test_gfp_towers_match_their_golden_digests():
    # dim, rank and SHA-256 digests of the selected rows and of S (as int64, with its
    # shape) of every zero-free GF(p0) component of three towers, so that a rewrite of
    # the elimination that changes a struct map or a selection fails here
    with open(GFP_GOLDEN) as fh:
        golden = json.load(fh)
    got = {}
    for case in golden:
        name, target = case.split()
        q = quotient.ModularQuotient(tideal.get_variety(name), P0)
        q.component(tuple(int(x) for x in target.split(",")))
        got[case] = {",".join(map(str, d)): [
            c.dim, c.rank, hashlib.sha256(json.dumps(c.selected).encode()).hexdigest(),
            "" if c.S is None else hashlib.sha256(
                repr(c.S.shape).encode() + c.S.astype(np.int64).tobytes()).hexdigest()]
            for d, c in q.comps.items() if all(d)}
    assert got == golden

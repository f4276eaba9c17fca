"""Exact octonion arithmetic and the 27-dimensional algebra of 3x3 octonion
Hermitian matrices under a*b = ab + ba.

The octonion multiplication table is generated once by three Cayley-Dickson
doublings from the reals with the convention (a,b)(c,d) = (ac - conj(d) b,
d a + b conj(c)); any fixed valid table works for the witness computations,
this one is pinned for determinism.

An element is 27 flat coordinates (AlbertElement.coords(): the diagonal, then
x12, x13, x23).  On them a*b + b*a is a fixed bilinear map: a table of 531
integer structure constants, each +-1 or 2, derived from the octonion table on
first use and kept as index arrays J, K, C with row starts.  Evaluation takes a
block of samples at once: each variable is a (block, 27) array, and each
distinct subtree's product is one gather, multiply and np.add.reduceat over
the table.

Every verdict is exact.  With L = 34, the largest l1 norm of a table row, a
leaf is bounded by the coordinate bound B and a product by L*B(a)*B(b); when
every coefficient is an integer and sum |c_m|*B(m) < 2^63, every gather,
product, partial sum and accumulated value fits in int64, and the block runs
in int64.  Otherwise the same code runs on object arrays of Python ints and
Fractions.  The check comes before the arithmetic: int64 overflow would wrap
silently.

The model serves as the numeric oracle: the Jordan and Lie-triple identities
evaluate to zero on every sample, while the degree-8 Glennie polynomial has
nonzero witnesses, separating it from the other two.
"""

from __future__ import annotations

import functools
import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .term import COMMUTATIVE, Polynomial, map_monomials
from . import lang

OCT_DIM = 8


def _build_table():
    """(index, sign) for each basis product e_i e_j, via Cayley-Dickson doubling."""

    def mul(level, x, y):
        # x, y: coordinate tuples of length 2^level
        if level == 0:
            return (x[0] * y[0],)
        h = 1 << (level - 1)
        a, b = x[:h], x[h:]
        c, d = y[:h], y[h:]
        ac = mul(level - 1, a, c)
        db = mul(level - 1, conj(level - 1, d), b)
        da = mul(level - 1, d, a)
        bc = mul(level - 1, b, conj(level - 1, c))
        return tuple(p - q for p, q in zip(ac, db)) + tuple(p + q for p, q in zip(da, bc))

    def conj(level, x):
        if level == 0:
            return x
        return (x[0],) + tuple(-v for v in x[1:])

    table = []
    for i in range(OCT_DIM):
        row = []
        ei = tuple(1 if k == i else 0 for k in range(OCT_DIM))
        for j in range(OCT_DIM):
            ej = tuple(1 if k == j else 0 for k in range(OCT_DIM))
            prod = mul(3, ei, ej)
            nz = [(k, v) for k, v in enumerate(prod) if v]
            assert len(nz) == 1 and abs(nz[0][1]) == 1
            row.append(nz[0])
        table.append(tuple(row))
    return tuple(table)


OCT_TABLE = _build_table()


class Octonion:
    """Octonion with 8 exact coordinates on the basis e0..e7 (e0 = unit)."""

    __slots__ = ("co",)

    def __init__(self, co):
        self.co = tuple(co)
        if len(self.co) != OCT_DIM:
            raise ValueError("octonion needs 8 coordinates")

    @staticmethod
    def zero():
        return Octonion((0,) * OCT_DIM)

    @staticmethod
    def unit():
        return Octonion((1,) + (0,) * 7)

    @staticmethod
    def basis(i):
        return Octonion(tuple(1 if k == i else 0 for k in range(OCT_DIM)))

    def __add__(self, other):
        return Octonion(tuple(a + b for a, b in zip(self.co, other.co)))

    def __sub__(self, other):
        return Octonion(tuple(a - b for a, b in zip(self.co, other.co)))

    def __neg__(self):
        return Octonion(tuple(-a for a in self.co))

    def scale(self, c):
        return Octonion(tuple(c * a for a in self.co))

    def __mul__(self, other):
        out = [0] * OCT_DIM
        for i, a in enumerate(self.co):
            if not a:
                continue
            row = OCT_TABLE[i]
            for j, b in enumerate(other.co):
                if not b:
                    continue
                k, s = row[j]
                out[k] += a * b if s > 0 else -(a * b)
        return Octonion(out)

    def conjugate(self):
        return Octonion((self.co[0],) + tuple(-a for a in self.co[1:]))

    def re(self):
        return self.co[0]

    def norm(self):
        return sum(a * a for a in self.co)

    def is_zero(self):
        return all(a == 0 for a in self.co)

    def __eq__(self, other):
        return isinstance(other, Octonion) and all(a == b for a, b in zip(self.co, other.co))

    def __hash__(self):
        return hash(self.co)

    def __repr__(self):
        return "Octonion(%r)" % (self.co,)


def associator(x, y, z):
    return x * (y * z) - (x * y) * z


@dataclass(frozen=True)
class AlbertElement:
    """Hermitian 3x3 octonion matrix: rational diagonal, octonion upper entries.

    Entry layout: diag (d1, d2, d3); x12, x13, x23 above the diagonal; the
    entries below are the conjugates, implicitly.
    """

    d: tuple           # three scalars
    x: tuple           # three Octonions: x12, x13, x23

    @staticmethod
    def zero():
        return AlbertElement((0, 0, 0), (Octonion.zero(),) * 3)

    @staticmethod
    def identity():
        return AlbertElement((1, 1, 1), (Octonion.zero(),) * 3)

    def matrix(self):
        """Full 3x3 matrix of octonions (scalars become multiples of e0)."""
        def sc(v):
            return Octonion((v,) + (0,) * 7)
        x12, x13, x23 = self.x
        return ((sc(self.d[0]), x12, x13),
                (x12.conjugate(), sc(self.d[1]), x23),
                (x13.conjugate(), x23.conjugate(), sc(self.d[2])))

    @staticmethod
    def from_coords(co):
        """Inverse of coords()."""
        return AlbertElement(tuple(co[:3]),
                             tuple(Octonion(co[o:o + OCT_DIM]) for o in (3, 11, 19)))

    def __add__(self, other):
        return AlbertElement(tuple(a + b for a, b in zip(self.d, other.d)),
                             tuple(a + b for a, b in zip(self.x, other.x)))

    def __sub__(self, other):
        return AlbertElement(tuple(a - b for a, b in zip(self.d, other.d)),
                             tuple(a - b for a, b in zip(self.x, other.x)))

    def scale(self, c):
        return AlbertElement(tuple(c * a for a in self.d),
                             tuple(a.scale(c) for a in self.x))

    def is_zero(self):
        return all(a == 0 for a in self.d) and all(o.is_zero() for o in self.x)

    def coords(self):
        """All 27 coordinates: 3 diagonal + 3 x 8 octonion."""
        out = list(self.d)
        for o in self.x:
            out.extend(o.co)
        return out


# Flat coordinate index of each off-diagonal entry's octonion, in coords() order.
_OFF = {(0, 1): 3, (0, 2): 11, (1, 2): 19}


def _entry(i, j):
    """Entry (i, j) of a flat element's matrix: ((coordinate, octonion index, sign), ...)."""
    if i == j:
        return ((i, 0, 1),)
    off = _OFF[(min(i, j), max(i, j))]
    return tuple((off + t, t, 1 if i < j or t == 0 else -1) for t in range(OCT_DIM))


@functools.cache
def star_table():
    """Structure constants of a*b + b*a on the 27 flat coordinates.

    rows[i] = ((j, k, c), ...) with (ab + ba)[i] = sum of c * a[j] * b[k];
    derived in closed form from OCT_TABLE, once, on first use.
    """
    acc = defaultdict(int)
    imag = defaultdict(int)     # imaginary parts of the diagonal, which cancel
    for i, j in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)):
        for m in range(3):
            for ca, ta, sa in _entry(i, m):
                for cb, tb, sb in _entry(m, j):
                    t, s = OCT_TABLE[ta][tb]
                    if i == j:
                        tgt, out = (imag, (i, t)) if t else (acc, i)
                    else:
                        tgt, out = acc, _OFF[i, j] + t
                    s *= sa * sb
                    tgt[out, ca, cb] += s      # a b contributes a[ca] b[cb]
                    tgt[out, cb, ca] += s      # b a contributes b[ca] a[cb]
    assert not any(imag.values()), "a*b + b*a has an imaginary diagonal"
    rows = [[] for _ in range(27)]
    for (out, j, k), c in sorted(acc.items()):
        if c:
            rows[out].append((j, k, c))
    return tuple(map(tuple, rows))


@functools.cache
def _star_kernel():
    """star_table() as flat index arrays (J, K, C), the row starts, and L.

    L is the largest l1 norm of a row: |(a*b + b*a)[i]| <= L * max|a| * max|b|.
    """
    rows = star_table()
    j, k, c = (np.array(col, dtype=np.int64) for col in zip(*(t for row in rows for t in row)))
    starts = np.cumsum([0] + [len(row) for row in rows[:-1]])
    for arr in (j, k, c, starts):     # shared by every caller through the cache
        arr.flags.writeable = False
    return j, k, c, starts, max(sum(abs(t[2]) for t in row) for row in rows)


def _star_block(a, b):
    """a*b + b*a for each row of two (block, 27) arrays of the same dtype."""
    j, k, c, starts, _ = _star_kernel()
    prod = a[:, j]
    prod *= b[:, k]
    prod *= c
    return np.add.reduceat(prod, starts, axis=1)


def _fits_int64(poly, coeffs, bound):
    """Whether int64 evaluation of poly is exact when every |coordinate| <= bound.

    bound is None when a coordinate is not an integer.  A leaf is bounded by
    max(bound, 1) and a product by L * B(a) * B(b), so a subtree's bound is at
    most that of each monomial containing it, and with nonzero integer
    coefficients sum |c_m| * B(m) bounds every entry the evaluation forms.
    """
    if bound is None or not all(isinstance(c, int) for c in coeffs):
        return False
    *_, ell = _star_kernel()
    leaf = max(bound, 1)
    sizes = map_monomials(poly, lambda m: leaf, lambda x, y: ell * x * y)
    return sum(abs(c) * size for c, (_, size) in zip(coeffs, sizes)) < 2 ** 63


def _evaluate_block(poly, leaves, bound, n):
    """Values of a commutative polynomial on n samples, as an (n, 27) array.

    leaves[var] holds the n samples' coordinate lists of that variable, each
    coordinate at most bound in absolute value (bound None: not all integers).
    The dtype is int64 when _fits_int64 proves it exact, object otherwise.
    """
    coeffs = []
    for c in poly.terms.values():
        fr = poly.field.to_fraction(c)
        coeffs.append(fr.numerator if fr.denominator == 1 else fr)
    dtype = np.int64 if _fits_int64(poly, coeffs, bound) else object
    arrays = {var: np.array(co, dtype=dtype) for var, co in leaves.items()}
    acc = np.zeros((n, 27), dtype=dtype)
    # every image is built before the loop, so scaling one in place is safe
    for c, (_, value) in zip(coeffs, map_monomials(poly, lambda m: arrays[m.enc[0]],
                                                   _star_block)):
        value *= c
        acc += value
    return acc


def albert_star(a: AlbertElement, b: AlbertElement) -> AlbertElement:
    """a*b + b*a, through the structure-constant table."""
    return evaluate("t1 t2", {1: a, 2: b})


def evaluate(expr, assignment: dict) -> AlbertElement:
    """Exact evaluation of a commutative/star expression on Albert elements.

    The expression is expanded in commutative flavor (the product standing for
    the algebra's symmetrized product) and evaluated as a block of one sample
    (see _evaluate_block), each distinct subtree once; the coordinate bound is
    the largest |coordinate| of the assignment.  Lie brackets expand to zero
    with a warning, which is their value in a commutative algebra.
    """
    if isinstance(expr, (str, tuple)):
        poly = lang.expand(expr, COMMUTATIVE)
    elif isinstance(expr, Polynomial):
        if expr.flavor != COMMUTATIVE:
            raise ValueError("albert evaluation needs a commutative polynomial")
        poly = expr
    else:
        raise TypeError("expr must be DSL text, an expression tree, or a Polynomial")
    leaves = {k: [e.coords()] for k, e in assignment.items()}
    flat = [x for co in leaves.values() for x in co[0]]
    bound = max(map(abs, flat), default=0) if all(isinstance(x, int) for x in flat) else None
    return AlbertElement.from_coords(_evaluate_block(poly, leaves, bound, 1)[0].tolist())


def random_element(rng: random.Random, bound=3) -> AlbertElement:
    """Deterministic sample with integer coordinates uniform in [-bound, bound]."""
    def r():
        return rng.randint(-bound, bound)
    return AlbertElement((r(), r(), r()),
                         tuple(Octonion(tuple(r() for _ in range(OCT_DIM))) for _ in range(3)))


# Samples evaluated together.  All memoized subtree images of a block are alive
# at once (99 for commutative glen), so a larger block costs memory, not time.
BLOCK = 32


def _sample_blocks(poly, seed, samples, bound):
    """(draws, values) for each block of the seeded sample stream.

    draws[s] lists the coordinates of variables 1..nvars at the block's s-th
    sample, drawn sample by sample, variable by variable, from one generator;
    values is the (len(draws), 27) array of poly at those samples.
    """
    md = poly.multidegree()
    if md is None:
        nvars = max((v for m in poly.terms for v in m.enc if v), default=0)
    else:
        nvars = len(md)
    rng = random.Random(seed)
    for start in range(0, samples, BLOCK):
        n = min(BLOCK, samples - start)
        draws = [[random_element(rng, bound).coords() for _ in range(nvars)] for _ in range(n)]
        leaves = {k: [d[k - 1] for d in draws] for k in range(1, nvars + 1)}
        yield draws, _evaluate_block(poly, leaves, bound, n)


def sample_report(expr, seed, samples, bound=3):
    """Evaluate expr on seeded random element tuples; record the first nonzero witness.

    The sample stream is drawn sequentially from one seeded generator and
    evaluated BLOCK samples at a time, exactly (int64 where the coordinate
    bound proves it safe), so the report is a function of (expr, seed,
    samples, bound) alone.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if bound < 1:
        raise ValueError("need a coordinate bound of at least 1")
    if isinstance(expr, str):
        tree = lang.parse(expr)
    else:
        tree = expr
    poly = lang.expand(tree, COMMUTATIVE)

    def ser(coords):
        return [str(Fraction(x)) for x in coords]

    zero_count = 0
    witness = None
    start = 0
    for draws, values in _sample_blocks(poly, seed, samples, bound):
        nonzero = (values != 0).any(axis=1)
        zero_count += len(draws) - int(np.count_nonzero(nonzero))
        if witness is None and nonzero.any():
            s = int(np.argmax(nonzero))
            witness = {
                "sample_index": start + s,
                "arguments": {("t%d" % k): ser(co) for k, co in enumerate(draws[s], 1)},
                "value": ser(values[s].tolist()),
            }
        start += len(draws)
    return {
        "seed": seed,
        "samples": samples,
        "bound": bound,
        "zero_count": zero_count,
        "nonzero_count": samples - zero_count,
        "witness": witness,
    }

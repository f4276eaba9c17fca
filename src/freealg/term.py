"""Exact monomials, multidegrees, scalars and sparse polynomials of free nonassociative algebras.

A monomial is a binary tree with variable-labelled leaves, stored as a preorder
encoding: a tuple of ints where 0 marks an internal node and k >= 1 marks a leaf
labelled t_k.  Planar monomials keep child order; commutative monomials are kept
in a canonical form with the smaller child first at every node, so equality of
encodings is equality of commutative monomials.

The global monomial order is (degree, encoding), i.e. total degree first and
then lexicographic comparison of the preorder encoding.  All ordering-sensitive
code downstream (row sorting, pivot choice, printing) relies on this order.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .linalg import vec_add_scaled

PLANAR = "planar"
COMMUTATIVE = "commutative"
FLAVORS = (PLANAR, COMMUTATIVE)


class FlavorError(ValueError):
    """Raised on planar/commutative mixing or unknown flavor names."""


class FieldError(ValueError):
    """Raised on scalar-field mismatches or invalid field parameters."""


# ---------------------------------------------------------------------------
# Scalar fields.  QQ works on Fraction values, GF(p) on ints in [0, p).
# ---------------------------------------------------------------------------

class FieldQ:
    """The rational field.  Values are Fraction (always in lowest terms)."""

    char = 0
    zero = Fraction(0)
    one = Fraction(1)

    def __repr__(self):
        return "QQ"

    def from_fraction(self, x):
        return Fraction(x)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def is_zero(self, a):
        return a == 0

    def to_fraction(self, a):
        return Fraction(a)


# Miller-Rabin with the first 13 primes as bases decides primality below this
# bound (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n) -> bool:
    """Deterministic Miller-Rabin; FieldError for n at or above _MR_BOUND."""
    if n >= _MR_BOUND:
        raise FieldError("cannot decide whether a modulus of %d digits is prime; "
                         "the test is exact below %.3g" % (len(str(n)), _MR_BOUND))
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldFp:
    """Prime field GF(p); values are ints in [0, p)."""

    def __init__(self, p):
        if not is_prime(p):
            raise FieldError("%r is not prime" % (p,))
        self.p = p
        self.char = p
        self.zero = 0
        self.one = 1 % p

    def __repr__(self):
        return "GF(%d)" % self.p

    def from_fraction(self, x):
        x = Fraction(x)
        den = x.denominator % self.p
        if den == 0:
            raise FieldError("denominator %d not invertible mod %d" % (x.denominator, self.p))
        return x.numerator * pow(den, self.p - 2, self.p) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def to_fraction(self, a):
        return Fraction(a % self.p)


QQ = FieldQ()

_GF_CACHE: dict[int, FieldFp] = {}


def GF(p):
    """Cached GF(p) instance, so fields compare by identity."""
    if p not in _GF_CACHE:
        _GF_CACHE[p] = FieldFp(p)
    return _GF_CACHE[p]


def field_by_char(char):
    return QQ if char == 0 else GF(char)


# ---------------------------------------------------------------------------
# Multidegrees: tuples of multiplicities (t1, t2, ...), trailing zeros trimmed.
# ---------------------------------------------------------------------------

def mdeg(entries) -> tuple:
    """Normalize an iterable of multiplicities to a trimmed tuple."""
    t = tuple(int(x) for x in entries)
    if any(x < 0 for x in t):
        raise ValueError("negative multiplicity in %r" % (t,))
    while t and t[-1] == 0:
        t = t[:-1]
    return t


def mdeg_total(d) -> int:
    return sum(d)

def mdeg_add(a, b) -> tuple:
    """Sum of two normalized multidegrees, which is normalized already."""
    if len(a) < len(b):
        a, b = b, a
    return tuple(x + y for x, y in zip(a, b)) + a[len(b):]


def mdeg_sub(a, b) -> tuple:
    n = max(len(a), len(b))
    a = a + (0,) * (n - len(a))
    b = b + (0,) * (n - len(b))
    if any(x < y for x, y in zip(a, b)):
        raise ValueError("multidegree subtraction went negative")
    return mdeg(x - y for x, y in zip(a, b))


def mdeg_leq(a, b) -> bool:
    """Componentwise a <= b."""
    if len(a) > len(b):
        return all(x == 0 for x in a[len(b):]) and all(x <= y for x, y in zip(a, b))
    return all(x <= y for x, y in zip(a, b))


def mdeg_key(d) -> tuple:
    """Sort key: total degree, then the tuple itself."""
    return (sum(d), d)


def sub_multidegrees(d):
    """All nonzero multidegrees strictly below d componentwise-or-equal, excluding d itself and 0."""
    ranges = [range(x + 1) for x in d]
    out = []

    def rec(i, acc):
        if i == len(ranges):
            t = mdeg(acc)
            if t and t != d:
                out.append(t)
            return
        for v in ranges[i]:
            rec(i + 1, acc + [v])

    rec(0, [])
    out.sort(key=mdeg_key)
    return out


def splits2(d):
    """Ordered pairs (d1, d2) of nonzero multidegrees with d1 + d2 = d, canonically sorted."""
    out = []
    for d1 in sub_multidegrees(d):
        d2 = mdeg_sub(d, d1)
        if d2:
            out.append((d1, d2))
    out.sort(key=lambda p: (mdeg_key(p[0]), mdeg_key(p[1])))
    return out


# ---------------------------------------------------------------------------
# Monomials.
# ---------------------------------------------------------------------------

class Monomial:
    """A planar or commutative binary-tree monomial (preorder encoded)."""

    __slots__ = ("flavor", "enc", "_hash")

    def __init__(self, flavor, enc):
        # Private-ish: use leaf/pair/from_enc which canonicalize and validate.
        self.flavor = flavor
        self.enc = enc
        self._hash = hash((flavor, enc))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def leaf(k, flavor=PLANAR):
        if flavor not in FLAVORS:
            raise FlavorError("unknown flavor %r" % (flavor,))
        if k < 1:
            raise ValueError("variable index must be >= 1")
        return Monomial(flavor, (k,))

    @staticmethod
    def pair(a: "Monomial", b: "Monomial") -> "Monomial":
        if a.flavor != b.flavor:
            raise FlavorError("cannot multiply %s by %s monomial" % (a.flavor, b.flavor))
        if a.flavor == COMMUTATIVE and b.sort_key() < a.sort_key():
            a, b = b, a
        return Monomial(a.flavor, (0,) + a.enc + b.enc)

    @staticmethod
    def from_enc(flavor, enc):
        """Decode a preorder encoding, re-canonicalizing commutative nodes."""
        if flavor not in FLAVORS:
            raise FlavorError("unknown flavor %r" % (flavor,))
        m, rest = Monomial._decode(flavor, tuple(enc), 0)
        if rest != len(enc):
            raise ValueError("trailing garbage in encoding %r" % (enc,))
        return m

    @staticmethod
    def _decode(flavor, enc, i):
        if i >= len(enc):
            raise ValueError("truncated encoding")
        if enc[i] != 0:
            return Monomial.leaf(enc[i], flavor), i + 1
        left, j = Monomial._decode(flavor, enc, i + 1)
        right, k = Monomial._decode(flavor, enc, j)
        return Monomial.pair(left, right), k

    # -- structure ----------------------------------------------------------

    def is_leaf(self):
        return self.enc[0] != 0

    def children(self):
        """(left, right) subtree pair, or None for a leaf."""
        if self.is_leaf():
            return None
        enc = self.enc
        need, i = 1, 1
        while need:
            need += 1 if enc[i] == 0 else -1
            i += 1
        return (Monomial(self.flavor, enc[1:i]), Monomial(self.flavor, enc[i:]))

    @property
    def degree(self):
        return sum(1 for x in self.enc if x != 0)

    def multidegree(self):
        top = 0
        for x in self.enc:
            if x > top:
                top = x
        counts = [0] * top
        for x in self.enc:
            if x:
                counts[x - 1] += 1
        return mdeg(counts)

    # -- ordering / identity -------------------------------------------------

    def sort_key(self):
        return (self.degree, self.enc)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.flavor == other.flavor and self.enc == other.enc

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        if self.flavor != other.flavor:
            raise FlavorError("ordering across flavors")
        return self.sort_key() < other.sort_key()

    def __le__(self, other):
        return self == other or self < other

    # -- text ----------------------------------------------------------------

    def to_text(self):
        if self.is_leaf():
            return "t%d" % self.enc[0]
        l, r = self.children()
        return "(%s %s)" % (l.to_text(), r.to_text())

    def __repr__(self):
        return "Monomial(%s, %s)" % (self.flavor[0], self.to_text())


# ---------------------------------------------------------------------------
# Component enumeration.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def enumerate_monomials(d: tuple, flavor: str) -> tuple:
    """All monomials of multidegree d, sorted by canonical encoding.

    Planar count is Catalan(n-1) * n! / prod(alpha_i!); the commutative count
    follows the unordered-tree recursion (see count_monomials).
    """
    d = mdeg(d)
    if not d:
        raise ValueError("empty multidegree")
    if flavor not in FLAVORS:
        raise FlavorError("unknown flavor %r" % (flavor,))
    if mdeg_total(d) == 1:
        k = d.index(1) + 1
        return (Monomial.leaf(k, flavor),)
    out = set() if flavor == COMMUTATIVE else []
    add = out.add if flavor == COMMUTATIVE else out.append
    for d1, d2 in splits2(d):
        for a in enumerate_monomials(d1, flavor):
            for b in enumerate_monomials(d2, flavor):
                add(Monomial.pair(a, b))
    res = sorted(out, key=lambda m: m.enc)
    return tuple(res)


@lru_cache(maxsize=None)
def count_monomials(d: tuple, flavor: str) -> int:
    """Component size without materializing the monomials."""
    d = mdeg(d)
    n = mdeg_total(d)
    if n == 0:
        raise ValueError("empty multidegree")
    if flavor == PLANAR:
        cat = comb(2 * (n - 1), n - 1) // n  # Catalan(n-1)
        mult = factorial(n)
        for a in d:
            mult //= factorial(a)
        return cat * mult
    if flavor != COMMUTATIVE:
        raise FlavorError("unknown flavor %r" % (flavor,))
    if n == 1:
        return 1
    total = 0
    seen = set()
    for d1, d2 in splits2(d):
        if (d2, d1) in seen:
            continue
        seen.add((d1, d2))
        if d1 == d2:
            c = count_monomials(d1, flavor)
            total += c * (c + 1) // 2
        else:
            total += count_monomials(d1, flavor) * count_monomials(d2, flavor)
    return total


# ---------------------------------------------------------------------------
# Sparse polynomials.
# ---------------------------------------------------------------------------

class Polynomial:
    """Sparse map from canonical monomial to nonzero scalar over a fixed field.

    The zero polynomial keeps its flavor and field, so all operations stay
    total.  Coefficients are Fraction for QQ and ints in [0, p) for GF(p).
    """

    __slots__ = ("flavor", "field", "terms")

    def __init__(self, flavor, terms=None, field=QQ):
        if flavor not in FLAVORS:
            raise FlavorError("unknown flavor %r" % (flavor,))
        self.flavor = flavor
        self.field = field
        clean = {}
        if terms:
            for m, c in terms.items():
                if m.flavor != flavor:
                    raise FlavorError("term flavor mismatch")
                if not field.is_zero(c):
                    clean[m] = c
        self.terms = clean

    @staticmethod
    def _of(flavor, terms, field):
        """A polynomial of terms this module built: nonzero and of this flavor."""
        p = object.__new__(Polynomial)
        p.flavor, p.field, p.terms = flavor, field, terms
        return p

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(flavor, field=QQ):
        return Polynomial(flavor, {}, field)

    @staticmethod
    def unit(m: Monomial, coeff=1, field=QQ):
        return Polynomial(m.flavor, {m: field.from_fraction(Fraction(coeff))}, field)

    @staticmethod
    def variable(k, flavor=PLANAR, field=QQ):
        return Polynomial.unit(Monomial.leaf(k, flavor), 1, field)

    def to_field(self, field):
        """Map coefficients into another field (QQ -> GF(p) reduction, etc.)."""
        if field is self.field:
            return self
        out = {}
        for m, c in self.terms.items():
            v = field.from_fraction(self.field.to_fraction(c))
            if not field.is_zero(v):
                out[m] = v
        return Polynomial(self.flavor, out, field)

    # -- ring operations ------------------------------------------------------

    def _check(self, other):
        if self.flavor != other.flavor:
            raise FlavorError("flavor mismatch in polynomial arithmetic")
        if self.field is not other.field:
            raise FieldError("field mismatch in polynomial arithmetic")

    def __add__(self, other):
        self._check(other)
        f = self.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = f.add(out.get(m, f.zero), c)
            if f.is_zero(v):
                out.pop(m, None)
            else:
                out[m] = v
        return Polynomial._of(self.flavor, out, f)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        f = self.field
        return Polynomial._of(self.flavor, {m: f.neg(c) for m, c in self.terms.items()}, f)

    def scale(self, coeff):
        f = self.field
        c0 = coeff if not isinstance(coeff, (int, Fraction)) else f.from_fraction(Fraction(coeff))
        if f.is_zero(c0):
            return Polynomial.zero(self.flavor, f)
        return Polynomial._of(self.flavor, {m: f.mul(c, c0) for m, c in self.terms.items()}, f)

    def __mul__(self, other):
        """Free (flavor) product, extended bilinearly."""
        self._check(other)
        f = self.field
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = Monomial.pair(m1, m2)
                v = f.add(out.get(m, f.zero), f.mul(c1, c2))
                if f.is_zero(v):
                    out.pop(m, None)
                else:
                    out[m] = v
        return Polynomial._of(self.flavor, out, f)

    def star(self, other):
        """a * b + b * a (no 1/2 normalization)."""
        return self * other + other * self

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.flavor == other.flavor
                and self.field is other.field and self.terms == other.terms)

    def __hash__(self):
        return hash((self.flavor, self.field, frozenset(self.terms.items())))

    def is_zero(self):
        return not self.terms

    def __len__(self):
        return len(self.terms)

    # -- multihomogeneous structure -------------------------------------------

    def components(self):
        """Partition of the terms by multidegree: {mdeg: Polynomial}."""
        buckets = {}
        for m, c in self.terms.items():
            buckets.setdefault(m.multidegree(), {})[m] = c
        return {d: Polynomial(self.flavor, t, self.field)
                for d, t in sorted(buckets.items(), key=lambda kv: mdeg_key(kv[0]))}

    def multidegree(self):
        """The common multidegree, or None if not multihomogeneous (zero -> None)."""
        ds = {m.multidegree() for m in self.terms}
        if len(ds) == 1:
            return ds.pop()
        return None

    def terms_sorted(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return "Polynomial(%s, %s)" % (self.flavor, format_polynomial(self))


def format_polynomial(p: Polynomial) -> str:
    """Deterministic text form; parseable back by the DSL."""
    if p.is_zero():
        return "0"
    bits = []
    for m, c in p.terms_sorted():
        fr = p.field.to_fraction(c)
        sign = "-" if fr < 0 else "+"
        mag = abs(fr)
        coeff = "" if mag == 1 else (str(mag) + " ")
        bits.append((sign, "%s%s" % (coeff, m.to_text())))
    first_sign, first_body = bits[0]
    s = ("-" if first_sign == "-" else "") + first_body
    for sign, body in bits[1:]:
        s += " %s %s" % (sign, body)
    return s


def leaf_positions(enc) -> dict:
    """{variable: positions of its leaves} in a monomial encoding."""
    out = {}
    for i, x in enumerate(enc):
        if x:
            out.setdefault(x, []).append(i)
    return out


@lru_cache(maxsize=None)
def slot_arrangements(labels) -> tuple:
    """The distinct arrangements of a multiset whose slots carry these equality
    labels, each as a permutation of the slots: leaf k gets slot perm[k].

    With labels nondecreasing, the arrangements come in lexicographic order.
    """
    out = {}
    for perm in itertools.permutations(range(len(labels))):
        out.setdefault(tuple(labels[k] for k in perm), perm)
    return tuple(out.values())


def map_monomials(p: Polynomial, leaf, node) -> list:
    """(coefficient, image) for each term of p, images built bottom-up.

    A leaf maps to leaf(m), a product to node(image(left), image(right)); each
    distinct subtree is mapped once.
    """
    cache = {}

    def image(m):
        got = cache.get(m)
        if got is None:
            if m.is_leaf():
                got = leaf(m)
            else:
                l, r = m.children()
                got = node(image(l), image(r))
            cache[m] = got
        return got

    return [(c, image(m)) for m, c in p.terms.items()]


def linear_combination(flavor, field, pairs) -> Polynomial:
    """Sum of c * P over (field scalar, Polynomial) pairs, accumulated in one dict."""
    out = {}
    for c, poly in pairs:
        vec_add_scaled(field, out, poly.terms, c)
    return Polynomial._of(flavor, out, field)

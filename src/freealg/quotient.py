"""Componentwise construction of relatively-free algebras F(vars)/T(identities).

Each multihomogeneous component is built inductively: its coordinate space is
indexed by pairs (u, v) of basis elements of lower components (one block per
multidegree split), and the component is that pair space modulo all blended
substitution instances of the defining identities whose arguments are lower
basis elements.  For multihomogeneous identities each variable receives a
multiset of basis elements and the instance sums over its distinct
arrangements, which is the correct consequence generator in every
characteristic.  Multilinear identities of arity n are not substituted with
every ordered n-tuple: each quotient first picks, over its own field, a basis
of the S_n-module their permutations span (orbit_basis), and substitutes each
sorted n-multiset of basis elements into each basis element once.  Every
ordered instance is a combination of those, so the span is the same with
fewer rows (5 instead of 12 per triple of distinct elements for lsym/rsym).
One enumerator, specs.iter_relation_specs, numbers these substitutions
(specs) for both fields and yields them in blocks of one shape: the identity
and, per variable, the multidegrees and equality labels of its multiset,
with the block's row indices and one basis-index array per slot.

This keeps the linear algebra tiny compared to free-monomial coordinates
(e.g. 5k pair columns instead of 240 240 monomials in the heaviest degree-8
component) at the price of building all lower components first.

Only multidegrees with no zero entry are built.  One with zero entries, such
as (1,0,1,1), is its zero-free base (1,1,1) under the only order-preserving
renaming of variables, which keeps the split order, the spec blocks and
every relation row; its component is a view of the base's, sharing its
dimension, rank, selection and struct map, with only the split keys of its
offsets renamed (_relabel).  So [1^6] builds 6 components, not 63.

One builder, InductiveQuotient, does everything that does not depend on the
coordinates: the component recursion, the pair layout and its budget, and
the evaluation of a substituted identity term (_evaluate), whose leaves
carry basis indices and whose interior nodes are the subclass's _products.
Each subclass writes its pair layout once, in _pair_coords, and gives the
coordinate type, the products, the row assembly and the elimination.  A
component stores its struct map once, as S, one row per pair column; a
product finds its split's block through the component's offsets:

* ModularQuotient: GF(p) with dense numpy rows, for primes with
  2 (p-1)^2 <= 2^53.  Relation rows are assembled in bulk, one window of
  consecutive rows at a time: each spec block's slice in the window is
  evaluated together, each identity term once per arrangement over arrays
  of basis indices, gathering struct rows for products of two basis
  elements and using one matmul for every other product, and the window's
  rows are reduced mod p once.  The reduced basis is kept as its pivot
  columns and the rank x non-pivot block N, which is also the struct map
  (S[piv] = -N); N is updated in place, in one buffer with the batch being
  eliminated.  Batches are reduced on the non-pivot columns only, and rows
  that are then zero are dropped before the Gauss-Jordan panels.  Products
  and sums of at most mod_chunk(p) of them are exact in float64, so BLAS
  matmuls are exact integer arithmetic and the reduced basis is canonical.
* ExactQuotient: QQ with sparse rows whose values are ints when integral
  and Fractions otherwise.  A relation row is one spec of a block at a
  time, in row order, each term on each distinct arrangement of each
  variable's multiset; a product of two basis elements is a cached struct
  row, any other product its pair coordinates through the struct map.
  A component of degree 2 or more assembles only the rows that pivoted
  modulo the first strategy prime; replayed rows are honest T-ideal
  members.  Their struct map is lifted by CRT and rational reconstruction
  (lift_struct) from the GF(p) struct matrices of the twins present, one
  per prime, starting with one; only a residue that does not reconstruct
  or a candidate the exact check refuses asks for the next prime's twin.
  A lift is accepted only when every replayed row maps to zero exactly
  (modulo as many primes as an a-priori bound needs) and the rows have
  full rank, which proves it is the map of their span whatever the twins
  did; so zero residuals stay proofs.  The
  first twin's selection is the only proof of that rank: it holds when the
  twin has the rational orbit bases and every lower rational struct map
  reduces modulo its prime to the twin's, for then each replayed row
  reduces to a unit multiple of a row the twin found independent.  Only
  a component whose selection proves nothing, a lift refused with every
  prime, and every component of identities with a strategy prime in a
  coefficient's denominator send every relation row through IntRREF, an
  integer-scaled RREF.

The exact route's twins are built here, in process: their elimination
needs no more memory than one N and one window.  Only engine's two-prime
verdicts use child processes, one per prime, each a fresh interpreter
that imports freealg from this package's directory and uses
max(1, ncpu // 2) BLAS threads.  Both primes' children are sent the
candidate and reply with its image (poly_images), so the two build side
by side and the parent holds no GF(p) component.  Every request is one
poly_image call on the child's cached ModularQuotient and has one reply,
the image or the exception, read in request order.  With one CPU the
images are taken in process.  Children start on the first request, never
at import, and stop in clear_cache, at exit, or when the parent's pipe
closes; one with a request in flight is killed, not waited for.
"""

from __future__ import annotations

import atexit
import collections
import itertools
import math
import os
import pickle
import resource
import signal
import subprocess
import sys
import threading
from fractions import Fraction

import numpy as np

from .specs import BuildError, iter_relation_specs, orbit_basis, row_windows
from .term import (COMMUTATIVE, PLANAR, GF, QQ, Monomial, Polynomial, is_prime,
                   leaf_positions, mdeg, mdeg_add, mdeg_key, mdeg_total,
                   slot_arrangements, splits2)

SELECTION_PRIMES = (999983, 999979)
DEFAULT_DEGREE_CAP = 8
MAX_PAIR_COLUMNS = 100_000
BATCH_ROWS = 256             # rows per DenseModRREF batch, below its chunk and as many as fit
WINDOW_BYTES = 1 << 19       # past N in its buffer, which has max(this, N's largest / 4) spare
TILE_BYTES = 1 << 17         # scratch per tile or row chunk of add_batch's in-place updates,
MIN_CHUNK_ROWS = 32          # but at least this many rows, so a chunk's matmul stays BLAS-sized
PANEL_ROWS = 16              # rows per int64 panel; entries stay below p + PANEL_ROWS (p-1)^2
KILL_CHECK_ROWS = 32         # rows per block of lift_struct's kill check; 32, 64, 128 on 2 CPUs:
                             # exact_d7 peaks 38.9/39.0/40.2 MB, Glennie top lifts 0.49/0.47/0.51 s
_CHECK_PRIMES = []           # its moduli: primes below 2^20, descending, each found once


class DegreeCapExceeded(BuildError):
    pass


class BudgetExceeded(BuildError):
    """A component is larger than the configured column budget."""


def check_degree_cap(d, degree_cap):
    """Raise DegreeCapExceeded when component d is above the degree cap."""
    if mdeg_total(d) > degree_cap:
        raise DegreeCapExceeded("component %r exceeds degree cap %d" % (d, degree_cap))


# ---------------------------------------------------------------------------
# Shared split machinery.
# ---------------------------------------------------------------------------

def component_splits(d, flavor):
    """Canonical list of root splits of a component: ordered pairs for planar,
    unordered (d1 <= d2) for commutative."""
    if flavor == PLANAR:
        return splits2(d)
    out = []
    for d1, d2 in splits2(d):
        if mdeg_key(d1) <= mdeg_key(d2):
            out.append((d1, d2))
    return out


def tri_size(n):
    return n * (n + 1) // 2


def tri_index(i, j, n):
    """Index of (i, j), i <= j, in row-major upper-triangular order."""
    return i * n - i * (i - 1) // 2 + (j - i)


def block_size(flavor, d1, d2, n1, n2):
    if flavor == COMMUTATIVE and d1 == d2:
        return tri_size(n1)
    return n1 * n2


# ---------------------------------------------------------------------------
# Exact float64 arithmetic mod p, and the dense GF(p) eliminator.
# ---------------------------------------------------------------------------

def mod_p(a, p, out=None, scratch=None):
    """a mod p in [0, p) for a float64 array of integers with |a| <= 2^53 - p.

    floor(a * (1/p)) is off by at most one, so one correction each way makes
    the result exact; this is several times faster than np.mod.  The
    quotient goes into scratch (an array of a's shape) or a new array.
    """
    q = np.multiply(a, 1.0 / p, out=scratch)
    np.floor(q, out=q)
    q *= p
    r = np.subtract(a, q, out=q if out is None else out)
    np.add(r, p, out=r, where=r < 0)
    np.subtract(r, p, out=r, where=r >= p)
    return r


def mod_chunk(p):
    """How many products of residues mod p can be summed exactly in float64
    while staying at most 2^53 - 2p, the range in which mod_p is exact."""
    return (2 ** 53 - 2 * p) // ((p - 1) ** 2)


def matmul_mod(X, B, p):
    """X @ B mod p for float64 arrays of residues, summed in chunks of mod_chunk(p)."""
    chunk = mod_chunk(p)
    k = B.shape[0]
    if k <= chunk:
        return mod_p(X @ B, p)
    acc = np.zeros(X.shape[:-1] + B.shape[1:])
    for s in range(0, k, chunk):
        acc += mod_p(X[..., s:s + chunk] @ B[s:s + chunk], p)
        mod_p(acc, p, out=acc)
    return acc


def sub_matmul_mod(A, p, X, B):
    """A = (A - X @ B) mod p in place, for float64 residues, with the products
    summed in chunks of mod_chunk(p) and reduced after each.  It works on
    column tiles (_chunks), so that its scratch and the part of B that BLAS
    packs at a time (at most about BATCH_ROWS of its rows) stay about
    TILE_BYTES."""
    chunk = mod_chunk(p)
    for j, t in _chunks(A.shape[1], max(A.shape[0], min(B.shape[0], BATCH_ROWS))):
        At = A[:, j:t]
        for s in range(0, X.shape[1], chunk):
            U = X[:, s:s + chunk] @ B[s:s + chunk, j:t]
            At -= U
            mod_p(At, p, out=At, scratch=U)


def _chunks(n, width, least=1):
    """Ranges [a, b) of n rows (or columns) of a float64 array whose other side
    is width long, each of about TILE_BYTES but at least least rows."""
    step = max(least, TILE_BYTES // (8 * max(1, width)))
    return [(a, min(a + step, n)) for a in range(0, n, step)]


class DenseModRREF:
    """Reduced row echelon basis over GF(p), kept as its non-pivot part.

    Row i of the basis has a 1 in column piv[i], zeros in the other pivot
    columns and N[i] in the non-pivot columns nonpiv (ascending); piv is in
    insertion order.  N is a float64 matrix of integers in [0, p): every
    product and every sum of at most chunk products stays below 2^53 - p, so
    BLAS matmuls are exact integer arithmetic and mod_p applies.  The basis
    is the canonical RREF of the span, so pivots, rows and the positions
    that pivot do not depend on how a row stream is cut into batches.

    N lives at the front of one buffer, an anonymous mapping made up front:
    rank x (ncols - rank) is at most ncols^2 / 4 entries, and past that
    there is room for max(WINDOW_BYTES, a quarter of them).  The next batch
    is assembled right after N (window), as many rows as fit up to
    BATCH_ROWS, so only batches near N's largest are cut short.  A batch
    updates N in place, row chunk by row chunk in increasing order, so that
    no write passes rows not yet read; there is never a second N, and every
    other scratch array is a tile of about TILE_BYTES.
    """

    def __init__(self, p, ncols):
        self.chunk = mod_chunk(p)
        if self.chunk < 2:
            raise BuildError("modulus too large for exact float64 elimination")
        self.p = p
        self.ncols = ncols
        self.piv = np.zeros(0, dtype=np.int64)
        self.nonpiv = np.arange(ncols)
        size = 8 * (ncols * ncols // 4) + max(WINDOW_BYTES, 8 * (ncols * ncols // 16))
        import mmap                   # only where GF(p) is eliminated, not in a two-prime parent
        try:
            self._map = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
        except OSError as exc:
            raise BuildError("GF(%d) elimination of %d columns needs a %d-byte buffer: %s"
                             % (p, ncols, size, exc.strerror)) from None
        self._buf = np.frombuffer(self._map, dtype=float)
        self.N = self._buf[:0].reshape(0, ncols)

    @property
    def rank(self):
        return self.piv.shape[0]

    @property
    def batch(self):
        """Rows for the next batch: at most BATCH_ROWS, fewer than chunk, and as
        many as fit in the buffer past N."""
        free = self._buf.shape[0] - self.N.size
        return min(BATCH_ROWS, self.chunk - 1, free // max(1, self.ncols))

    def window(self, nrows):
        """A zeroed nrows x ncols array in the buffer past N, for the next batch;
        nrows is at most batch."""
        M = self._buf[self.N.size:self.N.size + nrows * self.ncols].reshape(nrows, self.ncols)
        M.fill(0.0)
        return M

    @property
    def pivcols(self):
        """Pivot columns, ascending."""
        return np.sort(self.piv)

    @property
    def rows(self):
        """The RREF rows as a dense (rank, ncols) matrix, ordered by pivot column."""
        order = np.argsort(self.piv)
        R = np.zeros((self.rank, self.ncols))
        R[np.arange(self.rank), self.piv[order]] = 1.0
        R[:, self.nonpiv] = self.N[order]
        return R

    def struct(self):
        """The struct map: ncols x (ncols - rank), the projection along the span
        onto the non-pivot columns (-N on the pivot rows), filled by row chunks
        once the buffer's pages past N are given back."""
        import mmap
        p, N = self.p, self.N
        start = -(-N.nbytes // mmap.PAGESIZE) * mmap.PAGESIZE
        if start < len(self._map):
            self._map.madvise(mmap.MADV_DONTNEED, start)
        S = np.zeros((self.ncols, self.nonpiv.shape[0]))
        S[self.nonpiv, np.arange(S.shape[1])] = 1.0
        for a, b in _chunks(self.rank, S.shape[1]):
            T = p - N[a:b]
            T[T == p] = 0.0
            S[self.piv[a:b]] = T
        return S

    def add_batch(self, M):
        """Insert a batch of rows of residues in [0, p), which it overwrites;
        returns the positions within the batch that pivoted.

        M's columns are put into non-pivot then pivot order, and the
        non-pivot part is reduced against the basis (M[:, :m] - M[:, m:] @
        N); the rows that are then zero lie in the span already, and the
        others are packed as the rows of Y.  They are eliminated in panels
        of PANEL_ROWS: a panel is reduced against the batch's earlier new
        rows W, kept in Y's first rows, by one matmul (exact, as a batch has
        fewer than chunk rows), brought to reduced echelon form by
        _gauss_jordan_mod, and its new rows are cleared from W by another
        (the back-substitution among the new rows).  Finally N's rows and
        W's lose the new pivot columns and are written back packed, W after
        N.
        """
        p, r, m = self.p, self.rank, self.nonpiv.shape[0]
        if M.shape[0] >= self.chunk:
            raise BuildError("batch too large for deferred reduction")
        M = np.ascontiguousarray(M, dtype=float)
        if r:
            order = np.concatenate([self.nonpiv, self.piv])
            for a, b in _chunks(M.shape[0], self.ncols):
                M[a:b] = M[a:b, order]
        X = M[:, m:]
        if np.any(X):
            sub_matmul_mod(M[:, :m], p, X, self.N)
        live = np.flatnonzero(M[:, :m].any(axis=1))
        flat = M.reshape(-1)
        for a, b in _chunks(live.shape[0], m):  # live row i moves to i m <= live[i] ncols
            flat[a * m:b * m] = M[live[a:b], :m].reshape(-1)
        Y = flat[:live.shape[0] * m].reshape(live.shape[0], m)
        new, leads = [], []
        k = 0                           # Y[:k] holds W: the new rows, reduced among themselves
        for start in range(0, Y.shape[0], PANEL_ROWS):
            P = Y[start:start + PANEL_ROWS]
            if k:
                X = P[:, leads]
                if np.any(X):
                    for j, t in _chunks(m, k):
                        P[:, j:t] -= X @ Y[:k, j:t]
            found = _gauss_jordan_mod(P, p)
            if not found:
                continue
            rows = [i for i, _ in found]
            cols = [c for _, c in found]
            Y[k:k + len(rows)] = P[rows]
            for a, b in _chunks(k, m):
                X = Y[a:b, cols]
                if np.any(X):
                    sub_matmul_mod(Y[a:b], p, X, Y[k:k + len(rows)])
            k += len(rows)
            new += [start + i for i in rows]
            leads += cols
        if new:
            keep = np.ones(m, dtype=bool)
            keep[leads] = False
            kept, m2 = np.flatnonzero(keep), m - k
            for a, b in _chunks(k, m):          # row i of W moves to i m2 <= i m
                flat[a * m2:b * m2] = Y[a:b, kept].reshape(-1)
            W = flat[:k * m2].reshape(k, m2)
            for a, b in _chunks(r, m, MIN_CHUNK_ROWS):  # row i of N moves to i m2 <= i m
                old = self._buf[a * m:b * m].reshape(b - a, m)
                T = old[:, kept]
                X = old[:, leads]
                if np.any(X):
                    sub_matmul_mod(T, p, X, W)
                self._buf[a * m2:b * m2] = T.reshape(-1)
            for a, b in _chunks(k, m2):         # W may sit past N in the buffer
                self._buf[(r + a) * m2:(r + b) * m2] = W[a:b].reshape(-1)
            self.N = self._buf[:(r + k) * m2].reshape(r + k, m2)
            self.piv = np.concatenate([self.piv, self.nonpiv[leads]])
            self.nonpiv = self.nonpiv[kept]
        return live[new].tolist()


def _gauss_jordan_mod(P, p):
    """Reduced echelon form over GF(p) of the rows of P (float64 integers
    below 2^53 in size), in place; returns [(row, lead column)] of the rows
    that pivoted.  Steps run in int64 residues, one reduction per row; the
    entries stay below p + PANEL_ROWS (p-1)^2, which may pass 2^53, so P is
    written back reduced."""
    A = P.astype(np.int64)
    A %= p
    found = []
    for i in range(A.shape[0]):
        row = A[i]
        row %= p
        nz = row.nonzero()[0]
        if nz.size == 0:
            continue
        lead = int(nz[0])
        row *= pow(int(row[lead]), p - 2, p)
        row %= p
        col = A[:, lead] % p
        col[i] = 0
        A -= np.outer(col, row)
        found.append((i, lead))
    A %= p
    P[:] = A
    return found


# ---------------------------------------------------------------------------
# One inductive builder; the coordinate type is the subclass's.
# ---------------------------------------------------------------------------

class _Component:
    """A component.  Its split layout is the ordered offsets, {split: first
    pair column of its block}; a block ends where the next begins, the last
    at paircols, and is block_size wide.  S is the struct map, one row per
    pair column: a paircols x dim matrix over GF(p), a list of sparse
    {struct column: int or Fraction} over QQ, None in degree 1."""

    __slots__ = ("d", "dim", "offsets", "paircols", "selected", "rank", "mode", "nonpiv", "S")

    def __init__(self, d):
        self.d = d
        self.selected = []
        self.rank = 0
        self.mode = "full"
        self.nonpiv = None       # GF(p): non-pivot columns, ascending
        self.S = None


def _zero_free(d):
    """d without its zero entries."""
    return tuple(x for x in d if x)


def _relabel(base, d):
    """The component at d as a view of base, the component at _zero_free(d).

    Dropping the zero entries of d is the only order-preserving renaming of
    its variables onto base's.  It keeps mdeg_key, so it keeps the split
    order (planar and commutative), the spec blocks of iter_relation_specs
    (row indices, shapes with renamed multidegrees, and basis indices) and
    every relation row, value by value: the component at d is base
    under renamed split keys.  Only the keys of offsets are renamed; dim,
    paircols, rank, mode, selected, nonpiv and S are base's own objects.
    """
    at = [i for i, x in enumerate(d) if x]

    def rename(e):
        out = [0] * len(d)
        for i, x in zip(at, e):
            out[i] = x
        return mdeg(out)

    comp = _Component(d)
    for name in ("dim", "paircols", "rank", "mode", "selected", "nonpiv", "S"):
        setattr(comp, name, getattr(base, name))
    comp.offsets = {(rename(d1), rename(d2)): x for (d1, d2), x in base.offsets.items()}
    return comp


class InductiveQuotient:
    """Relatively-free algebra of a variety, built component by component.

    Everything here is independent of the coordinates: the component
    recursion, the pair layout and its budget, monomial images, orbit bases,
    identity terms and the evaluation of substituted terms (_evaluate).  A
    subclass supplies the coordinate type through _unit (a basis vector),
    _coeff (a rational as a coefficient), _products (the value of an
    interior node of _evaluate, whose leaves carry basis indices), product,
    poly_image (a sparse {coordinate: nonzero value} in both fields), and
    _reduce(comp), which assembles and eliminates a component's relation
    rows, sets comp.rank and returns its struct map S: one row per pair
    column.
    """

    def __init__(self, variety, field, degree_cap):
        self.variety = variety
        self.flavor = variety.flavor
        self.field = field
        self.degree_cap = degree_cap
        self.identities = [f.to_field(QQ) for f in variety.identities]
        for f in self.identities:
            if mdeg_total(f.multidegree()) < 2:
                raise BuildError("identity %s of %r has degree %d; the quotient needs "
                                 "defining identities of degree at least 2"
                                 % (f, variety.name, mdeg_total(f.multidegree())))
        self.comps: dict[tuple, _Component] = {}
        self.mono_cache: dict[Monomial, object] = {}
        self._orbits = None
        self._terms = None

    # -- public api -----------------------------------------------------------

    def dim(self, d):
        return self.component(d).dim

    def component(self, d):
        """The component at multidegree d, built with every component below it.

        Only a d with no zero entry is built (_build).  A d with zero entries,
        such as (1,0,1), builds its splits and then is its base (1,1), the
        zero-free multidegree under the only order-preserving renaming of
        variables: a view that shares the base's data (see _relabel).
        """
        d = mdeg(d)
        got = self.comps.get(d)
        if got is not None:
            return got
        check_degree_cap(d, self.degree_cap)
        for d1, d2 in component_splits(d, self.flavor):
            self.component(d1)
            self.component(d2)
        base = _zero_free(d)
        comp = self._build(d) if base == d else _relabel(self.component(base), d)
        self.comps[d] = comp
        return comp

    def monomial_image(self, m: Monomial):
        got = self.mono_cache.get(m)
        if got is not None:
            return got
        if m.is_leaf():
            d = m.multidegree()
            self.component(d)
            vec = self._unit(d, 0)
        else:
            l, r = m.children()
            vec = self.product(l.multidegree(), self.monomial_image(l),
                               r.multidegree(), self.monomial_image(r))
        self.mono_cache[m] = vec
        return vec

    # -- internals ------------------------------------------------------------

    def orbits(self):
        """Module bases of the multilinear identities over this field (see orbit_basis)."""
        if self._orbits is None:
            self._orbits = orbit_basis(self.identities, self.field)
        return self._orbits

    def _identity_terms(self):
        """Per identity, its nonzero terms as (encoding, coefficient,
        {variable: leaf positions})."""
        if self._terms is None:
            self._terms = [[(m.enc, self._coeff(c), leaf_positions(m.enc))
                            for m, c in f.terms_sorted() if self._coeff(c)]
                           for f in self.identities]
        return self._terms

    def _evaluate(self, enc, i, leaves):
        """The subtree of enc at position i with its leaves substituted:
        (mdeg, value, next position).  leaves maps a leaf position to
        (mdeg, basis indices): an int, or for GF(p) an array over a group of
        substitutions; every other node's value is its subclass's
        _products."""
        if enc[i]:
            e, x = leaves[i]
            return e, x, i + 1
        d1, x1, j = self._evaluate(enc, i + 1, leaves)
        d2, x2, nxt = self._evaluate(enc, j, leaves)
        return mdeg_add(d1, d2), self._products(d1, x1, d2, x2), nxt

    def _instances(self, block, cols):
        """Each term of block's identity on each distinct arrangement of its
        multisets, substituted and split at the root: (coeff, d1, x1, d2, x2).
        cols[s] holds the basis indices of slot s: an int, or for GF(p) an
        array over a slice of the block's rows."""
        es = [e for _, slots in block.shape for e, _ in slots]
        per_var, first = [], 0          # per variable, the slot of each leaf in each arrangement
        for v, slots in block.shape:
            perms = slot_arrangements(tuple(label for _, label in slots))
            per_var.append([(v, [first + k for k in perm]) for perm in perms])
            first += len(slots)
        combos = list(itertools.product(*per_var))
        for enc, coeff, positions in self._identity_terms()[block.f_idx]:
            for combo in combos:
                leaves = {pos: (es[s], cols[s])
                          for v, ss in combo for pos, s in zip(positions[v], ss)}
                d1, x1, j = self._evaluate(enc, 1, leaves)
                d2, x2, _ = self._evaluate(enc, j, leaves)
                yield coeff, d1, x1, d2, x2

    def _build(self, d):
        comp = _Component(d)
        comp.offsets, comp.paircols = {}, 0
        if mdeg_total(d) == 1:
            comp.dim = 1
            return comp
        for d1, d2 in component_splits(d, self.flavor):
            n1, n2 = self.comps[d1].dim, self.comps[d2].dim
            comp.offsets[(d1, d2)] = comp.paircols
            comp.paircols += block_size(self.flavor, d1, d2, n1, n2)
        if comp.paircols > MAX_PAIR_COLUMNS:
            raise BudgetExceeded("component %r needs %d pair columns, over the budget %d"
                                 % (d, comp.paircols, MAX_PAIR_COLUMNS))
        comp.S = self._reduce(comp)
        comp.dim = comp.paircols - comp.rank
        return comp


# ---------------------------------------------------------------------------
# GF(p) coordinates: dense float64 vectors of residues.
# ---------------------------------------------------------------------------

def _one_hot(n, i):
    """The unit vector e_i of length n; for an array of indices, one per row."""
    return (np.arange(n) == np.asarray(i)[..., None]).astype(float)


class ModularQuotient(InductiveQuotient):
    """Relatively-free algebra of a variety over GF(p), built by components."""

    def __init__(self, variety, p, degree_cap=DEFAULT_DEGREE_CAP):
        super().__init__(variety, GF(p), degree_cap)
        self.p = p
        self._coeff_cache: dict[Fraction, int] = {}

    def poly_image(self, poly: Polynomial):
        """Image of a multihomogeneous polynomial in its component's coordinates,
        {coordinate: nonzero residue}; errors as _checked_terms, before the build."""
        d, terms = self._checked_terms(poly)
        out = np.zeros(self.component(d).dim)
        for m, cm in terms:
            if cm:
                out += cm * self.monomial_image(m)
                out %= self.p
        return {int(k): int(out[k]) for k in np.flatnonzero(out)}

    def _checked_terms(self, poly: Polynomial):
        """poly's multidegree and its terms as (monomial, coefficient mod p);
        BuildError unless poly is multihomogeneous within the degree cap,
        FieldError on a denominator p divides."""
        d = poly.multidegree()
        if d is None:
            raise BuildError("polynomial is not multihomogeneous")
        check_degree_cap(d, self.degree_cap)
        return d, [(m, self._coeff(poly.field.to_fraction(c))) for m, c in poly.terms.items()]

    def product(self, d1, v1, d2, v2):
        """Product Q_{d1} x Q_{d2} -> Q_{d1+d2} on coordinate vectors."""
        self.component(mdeg_add(d1, d2))
        return self._products(d1, v1[None], d2, v2[None])[0]

    def _unit(self, d, i):
        return _one_hot(self.comps[d].dim, i)

    def _coeff(self, fr: Fraction):
        """fr mod p as the representative of least absolute value, so that the
        small integer coefficients of the identities keep sums small."""
        got = self._coeff_cache.get(fr)
        if got is None:
            got = self.field.from_fraction(fr)
            if 2 * got > self.p:
                got -= self.p
            self._coeff_cache[fr] = got
        return got

    def _reduce(self, comp):
        rre = DenseModRREF(self.p, comp.paircols)
        selected = []
        blocks = iter_relation_specs(self.identities, comp.d, self.dim, self.orbits())
        for start, stop, parts in row_windows(blocks, lambda: rre.batch):
            M = self._relation_rows(comp, start, stop, parts, rre.window(stop - start))
            selected += [start + pos for pos in rre.add_batch(M)]
        comp.rank = rre.rank
        comp.selected = selected
        comp.nonpiv = rre.nonpiv
        return rre.struct()

    def _relation_rows(self, comp, start, stop, parts, M):
        """Relation rows start..stop-1, reduced mod p, written into M, a zeroed
        (stop - start, paircols) array, and returned.

        parts holds the (block, lo, hi) slices of the spec blocks in that
        window (row_windows).  The specs of a block share its shape, so each
        term is evaluated once per slice and arrangement, over arrays of
        basis indices (_products), and its root product is added into the
        slice's rows.  A placement moves an entry by at most
        |coeff| (p - 1) <= 2^53 - 2p; the rows are reduced mod p before the
        accumulated bound could leave the exact float64 range, and once at
        the end.
        """
        p = self.p
        for block, lo, hi in parts:
            rows = block.rows[lo:hi] - start
            bound = 0
            for coeff, d1, x1, d2, x2 in self._instances(block, block.idx[lo:hi].T):
                step = abs(coeff) * (p - 1)
                bound += step
                if bound > 2 ** 53 - p:
                    M[rows] = mod_p(M[rows], p)
                    bound = p + step
                split, cols, vals = self._pair_coords(d1, x1, d2, x2)
                off = comp.offsets[split]
                if cols is None:
                    M[rows, off:off + vals.shape[1]] += coeff * vals
                else:
                    M[rows[:, None], off + cols] += coeff * vals
        for a, b in _chunks(M.shape[0], M.shape[1]):
            mod_p(M[a:b], p, out=M[a:b])
        return M

    def _products(self, d1, x1, d2, x2):
        """The products x1[g] x2[g] in Q_{d1+d2}, a component already built, as a
        (group, dim) array: rows of the struct map for two basis elements,
        else one matmul_mod with the split's block of it."""
        split, cols, vals = self._pair_coords(d1, x1, d2, x2)
        comp = self.comps[mdeg_add(d1, d2)]
        off = comp.offsets[split]
        if x1.ndim == x2.ndim == 1:
            return comp.S[off + cols[:, 0]]
        e1, e2 = split
        S = comp.S[off:off + block_size(self.flavor, e1, e2, self.comps[e1].dim,
                                        self.comps[e2].dim)]
        if cols is not None:
            block = np.zeros((cols.shape[0], S.shape[0]))
            block[np.arange(cols.shape[0])[:, None], cols] = vals
            vals = block
        return matmul_mod(vals, S, self.p)

    def _pair_coords(self, d1, x1, d2, x2):
        """The products x1[g] x2[g] in pair coordinates: (split, cols, vals).

        An x is an array of basis indices or a (group, dim) array of
        residues.  Row g of the products is vals[g] at the columns cols[g] of
        split's block, or, when cols is None, vals[g] is the whole block row.
        A commutative split is taken in key order, and its symmetric block
        (d1 = d2) holds the upper triangle of v1 v2 + v2 v1, less the
        diagonal once.
        """
        if self.flavor == COMMUTATIVE and mdeg_key(d1) > mdeg_key(d2):
            d1, x1, d2, x2 = d2, x2, d1, x1
        n1, n2 = self.comps[d1].dim, self.comps[d2].dim
        basis1, basis2 = x1.ndim == 1, x2.ndim == 1
        if self.flavor == COMMUTATIVE and d1 == d2:
            if basis1 and basis2:
                idx = tri_index(np.minimum(x1, x2), np.maximum(x1, x2), n1)
                return (d1, d2), idx[:, None], 1.0
            v1 = _one_hot(n1, x1) if basis1 else x1
            v2 = _one_hot(n2, x2) if basis2 else x2
            W = mod_p(v1[:, :, None] * v2[:, None, :], self.p)
            i, j = np.triu_indices(n1)
            off = i != j
            block = W[:, i, j]
            block[:, off] += W[:, j[off], i[off]]
            return (d1, d2), None, mod_p(block, self.p, out=block)
        if basis1 and basis2:
            return (d1, d2), (x1 * n2 + x2)[:, None], 1.0
        if basis1:
            return (d1, d2), x1[:, None] * n2 + np.arange(n2), x2
        if basis2:
            return (d1, d2), np.arange(n1) * n2 + x2[:, None], x1
        W = mod_p(x1[:, :, None] * x2[:, None, :], self.p)
        return (d1, d2), None, W.reshape(W.shape[0], -1)


# ---------------------------------------------------------------------------
# Exact coordinates, and the integer-scaled incremental RREF over QQ.
# ---------------------------------------------------------------------------

def _q(num, den):
    """num/den as an int when integral, else as a Fraction."""
    if num % den == 0:
        return num // den
    return Fraction(num, den)


def _ints(vec):
    """vec with its integral Fraction values replaced by ints, in place."""
    for k, v in vec.items():
        if v.__class__ is Fraction and v.denominator == 1:
            vec[k] = v.numerator
    return vec


def _integral(row):
    """Scale a sparse row of ints and Fractions to integers (clearing denominators)."""
    den = 1
    for v in row.values():
        d = v.denominator
        if d != 1:
            den = math.lcm(den, d)
    if den == 1:
        return {c: v.numerator for c, v in row.items()}
    return {c: (v * den).numerator for c, v in row.items()}


def _content_normalize(row):
    g = 0
    for v in row.values():
        g = math.gcd(g, v)
        if g == 1:
            break
    if g > 1:
        for c in row:
            row[c] //= g
    return row


class IntRREF:
    """Incremental reduced echelon basis over QQ with integer-scaled rows.

    rows maps each pivot column to its row: an integer vector of content 1
    whose support meets the pivot set only in its own pivot, where it is
    positive; the rational RREF row is row / pivot value.  Cross-multiplied
    merges avoid Fraction arithmetic entirely; a guard renormalizes a row
    whenever its entries grow past 2^96.
    """

    _GUARD = 1 << 96

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = {}

    @property
    def rank(self):
        return len(self.rows)

    @staticmethod
    def _merge(a_scale, a: dict, b_scale, b: dict) -> dict:
        """a_scale * a - b_scale * b over the union support."""
        out = dict(a)
        if a_scale != 1:
            for c in out:
                out[c] *= a_scale
        for c, x in b.items():
            v = out.get(c, 0) - b_scale * x
            if v:
                out[c] = v
            else:
                out.pop(c, None)
        return out

    def insert(self, row: dict) -> bool:
        """Reduce an integer row against the basis; add it if independent.

        Basis rows meet the pivot set only in their own pivot, so the hit set
        is fixed up front and merges only ever touch non-pivot columns.
        """
        guard = self._GUARD
        rows = self.rows
        for col in sorted(c for c in row if c in rows):
            rc = row.get(col)
            if not rc:
                row.pop(col, None)
                continue
            pivrow = rows[col]
            row = self._merge(pivrow[col], row, rc, pivrow)
            row.pop(col, None)
            if any(v > guard or -v > guard for v in row.values()):
                _content_normalize(row)
        if not row:
            return False
        _content_normalize(row)
        lead = min(row)
        if row[lead] < 0:
            for c in row:
                row[c] = -row[c]
        # restore reducedness: clear the new pivot column from existing rows
        pv = row[lead]
        for piv, other in rows.items():
            oc = other.get(lead)
            if oc is None:
                continue
            merged = self._merge(pv, other, oc, row)
            _content_normalize(merged)
            if merged[piv] < 0:
                for c2 in merged:
                    merged[c2] = -merged[c2]
            rows[piv] = merged
        rows[lead] = row
        return True

    def struct_columns(self):
        """Per column, its image {non-pivot index: int or Fraction} under the
        projection along the span onto the non-pivot columns."""
        colmap = {c: k for k, c in enumerate(c for c in range(self.ncols) if c not in self.rows)}
        cols = []
        for c in range(self.ncols):
            r = self.rows.get(c)
            if r is None:
                cols.append({colmap[c]: 1})
            else:
                pv = r[c]
                cols.append({colmap[c2]: _q(-x, pv) for c2, x in r.items() if c2 != c})
        return cols


# ---------------------------------------------------------------------------
# Struct maps over QQ lifted from two GF(p) twins, verified exactly.
# ---------------------------------------------------------------------------

def rational_reconstruction(u, m, bound):
    """The fraction n/d with |n| <= bound, 0 < d <= bound and n = u d (mod m), or None.

    Extended Euclid on (m, u) stopped at the first remainder <= bound (Wang,
    Guy and Davenport 1982); with 2 bound^2 < m the answer is unique when it
    exists.
    """
    r0, r1 = m, u % m
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or math.gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _check_primes(bound):
    """The leading primes of _CHECK_PRIMES whose product exceeds bound."""
    m, n = 1, 0
    while m <= bound:
        if n == len(_CHECK_PRIMES):
            p = _CHECK_PRIMES[-1] - 2 if _CHECK_PRIMES else 2 ** 20 - 1
            while not is_prime(p):
                p -= 2
            _CHECK_PRIMES.append(p)
        m *= _CHECK_PRIMES[n]
        n += 1
    return _CHECK_PRIMES[:n]


def lift_struct(rows, nonpivs, structs, primes):
    """Struct columns over QQ of the span of integer rows, lifted from k >= 1 twins; or None.

    structs[t] is the paircols x dim struct matrix of a reduced echelon basis
    over GF(primes[t]) and nonpivs[t] its non-pivot columns; rows is an
    iterable of sparse integer rows that the caller has proven linearly
    independent over QQ, read in blocks and only once the lift has a
    candidate.  The twins' nonzeros are combined by CRT modulo m, the
    product of the primes (below 2^63), and each distinct residue is
    reconstructed as a fraction with numerator and denominator at most
    sqrt((m - 1) / 2) < each prime (707 for one prime near 10^6), so a value
    that is 0 modulo one prime is 0.
    The candidate S is accepted only when
      1. every twin has twin 0's shape, non-pivot columns and zero entries,
      2. every residue reconstructs, and S is the identity on the non-pivot
         columns,
      3. rows @ S = 0 exactly: D r S (D the common denominator) is 0 in
         matmul_mod modulo check primes whose product exceeds twice the
         bound l1(r) max(|D S|, D) on its entries, and
      4. there are exactly paircols - dim rows, so, being independent, they
         have that rank.
    Then span_QQ(rows) has dimension paircols - dim and lies in the kernel of
    S, which has that dimension, so the two are equal.  Like the twins, S
    vanishes left of each pivot, so it is the struct map of the reduced
    echelon basis of the span: the one IntRREF gives.  Returns, per pair
    column, {struct column: int or Fraction}.
    Besides its result the lift holds S's nonzeros as flat arrays and, per
    block of rows and check prime, the rows of D S mod q at the block's
    columns, dense.
    """
    n0, S0, m = nonpivs[0], structs[0], primes[0]
    ncols, dim = S0.shape
    if any(S.shape != S0.shape or not np.array_equal(n, n0) for n, S in zip(nonpivs, structs)):
        return None
    flat = np.flatnonzero(S0)
    a = np.take(S0, flat).astype(np.int64)
    for S, p in zip(structs[1:], primes[1:]):
        if not np.array_equal(flat, np.flatnonzero(S)):
            return None
        a += m * ((np.take(S, flat).astype(np.int64) - a) % p * pow(m, -1, p) % p)
        m *= p
    uniq, inv = np.unique(a, return_inverse=True)
    at = np.searchsorted(flat, np.arange(ncols + 1) * dim)  # row i of S: entries at[i]..at[i+1]-1
    c, inv = (flat % dim).astype(np.int32), inv.astype(np.int32)
    del a, flat
    bound = math.isqrt((m - 1) // 2)
    fracs = [rational_reconstruction(int(u), m, bound) for u in uniq]
    if None in fracs:
        return None
    vals = [_q(f.numerator, f.denominator) for f in fracs]
    cols = [dict(zip(c[lo:hi].tolist(), [vals[x] for x in inv[lo:hi].tolist()]))
            for lo, hi in itertools.pairwise(at.tolist())]
    if any(cols[col] != {j: 1} for j, col in enumerate(n0.tolist())):
        return None

    D = math.lcm(*(f.denominator for f in fracs))
    Z = [f.numerator * (D // f.denominator) for f in fracs]
    height = max(max(map(abs, Z), default=0), D)
    residues = {}                # check prime q -> Z mod q
    count = 0
    rows = iter(rows)
    while block := list(itertools.islice(rows, KILL_CHECK_ROWS)):
        count += len(block)
        l1 = max(sum(map(abs, r.values())) for r in block)
        rs = [i for i, r in enumerate(block) for _ in r]
        xs = [x for r in block for x in r.values()]
        used, cs = np.unique([j for r in block for j in r], return_inverse=True)
        # T holds the rows of S at the block's columns: entries e, row by row
        lens = at[used + 1] - at[used]
        e = np.repeat(at[used] - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())
        ti, ce, ie = np.repeat(np.arange(len(used)), lens), c[e], inv[e]
        for q in _check_primes(2 * l1 * height):
            if q not in residues:
                residues[q] = np.array([z % q for z in Z], dtype=float)
            T = np.zeros((len(used), dim))
            T[ti, ce] = residues[q][ie]
            M = np.zeros((len(block), len(used)))
            M[rs, cs] = [x % q for x in xs]
            if np.any(matmul_mod(M, T, q)):
                return None
            del T, M                 # before the next block allocates its own
    return cols if count == ncols - dim else None


def _struct_reduces_to(comp, twin, p):
    """Does a QQ component's struct map reduce mod p, entry by entry, to the
    GF(p) component twin's S?  Compared row by row on nonzeros, so both
    supports must agree.  False on a denominator divisible by p."""
    if (comp.paircols, comp.dim) != (twin.paircols, twin.dim):
        return False
    if not comp.paircols:
        return True
    for col, row in zip(comp.S, twin.S):
        got = {}
        for j, x in col.items():
            den = x.denominator % p
            if not den:
                return False
            if v := x.numerator * pow(den, -1, p) % p:
                got[j] = v
        nz = np.flatnonzero(row)
        if got != dict(zip(nz.tolist(), row[nz].tolist())):
            return False
    return True


# ---------------------------------------------------------------------------
# QQ coordinates: sparse dicts, rows selected and struct maps lifted from GF(p).
# ---------------------------------------------------------------------------

class ExactQuotient(InductiveQuotient):
    """Relatively-free algebra over QQ.

    Every component of degree 2 or more gets GF(p) twins, one per
    SELECTION_PRIMES prime in order, unless a prime divides the denominator
    of an identity coefficient (_twinnable).  _twins starts with twin 0
    alone and grows only when a lift needs another prime; each lift uses
    every twin present.  When _selection_proves_rank shows that the rows
    twin 0 selected are independent over QQ, those rows are assembled over
    QQ (honest T-ideal members) and the struct map is lifted from the twins'
    struct matrices by CRT and rational reconstruction; the exact check of
    lift_struct proves it is the map of the span of those rows (mode
    "replay").  A component whose selection proves nothing, one whose lift
    every prime's twin leaves refused, and every component of a quotient
    without twins send every relation row through IntRREF (mode "full").
    Coordinates are sparse dicts whose values are ints when integral and
    Fractions otherwise; poly_image returns Fractions.  Relation rows and
    products both add into pair coordinates through _pair_coords.
    """

    def __init__(self, variety, degree_cap=DEFAULT_DEGREE_CAP):
        super().__init__(variety, QQ, degree_cap)
        self.pair_cache: dict[tuple, dict] = {}     # (d1, i, d2, j) -> struct row of the pair
        self._twins = []         # the GF(SELECTION_PRIMES[i]) quotients so far (_twin)
        self._reduces = {}       # d -> does d's struct map reduce mod p to the first twin's S?
        # a strategy prime that divides a coefficient's denominator has no twin
        self._twinnable = not any(c.denominator % p == 0 for p in SELECTION_PRIMES
                                  for f in self.identities for c in f.terms.values())

    def poly_image(self, poly: Polynomial):
        """Image of a multihomogeneous polynomial, {coordinate: nonzero Fraction}."""
        d = poly.multidegree()
        if d is None:
            raise BuildError("polynomial is not multihomogeneous")
        self.component(d)
        out = {}
        for m, c in poly.terms.items():
            fr = self._coeff(poly.field.to_fraction(c))
            for k, x in self.monomial_image(m).items():
                v = out.get(k, 0) + fr * x
                if v:
                    out[k] = v
                else:
                    out.pop(k, None)
        return {k: Fraction(v) for k, v in out.items()}

    def product(self, d1, v1, d2, v2):
        """Product Q_{d1} x Q_{d2} -> Q_{d1+d2}: the pair coordinates of v1 v2
        through the struct map.  A v is a sparse vector or a basis index."""
        comp = self.component(mdeg_add(d1, d2))
        pairs = {}
        self._pair_coords(comp.offsets, d1, v1, d2, v2, pairs)
        out = {}
        for c, a in pairs.items():
            for k, x in comp.S[c].items():
                v = out.get(k, 0) + a * x
                if v:
                    out[k] = v
                else:
                    out.pop(k, None)
        return _ints(out)

    def _products(self, d1, x1, d2, x2):
        """x1 x2 in Q_{d1+d2}: for two basis indices a cached row of the struct
        map, else product."""
        if x1.__class__ is int and x2.__class__ is int:
            key = (d1, x1, d2, x2)
            got = self.pair_cache.get(key)
            if got is None:
                comp = self.component(mdeg_add(d1, d2))
                pairs = {}
                self._pair_coords(comp.offsets, d1, x1, d2, x2, pairs)
                [col] = pairs
                got = self.pair_cache[key] = comp.S[col]
            return got
        return self.product(d1, x1, d2, x2)

    def _pair_coords(self, offsets, d1, x1, d2, x2, out, coeff=1):
        """Add coeff x1 x2, in the pair coordinates of the component whose
        split layout is offsets, into the sparse vector out.

        An x is a basis index or a sparse vector.  A commutative split is
        taken in key order.  The pair (i, j) is column i n2 + j of the
        split's block, or in the symmetric block of a commutative split
        (d1 = d2) column tri_index(min(i, j), max(i, j), n1), which so holds
        the upper triangle of x1 x2 + x2 x1, less the diagonal once.  The
        block starts at column offsets[split].
        """
        if self.flavor == COMMUTATIVE and mdeg_key(d1) > mdeg_key(d2):
            d1, x1, d2, x2 = d2, x2, d1, x1
        off = offsets[(d1, d2)]
        n1, n2 = self.comps[d1].dim, self.comps[d2].dim
        sym = self.flavor == COMMUTATIVE and d1 == d2
        v1 = {x1: 1} if x1.__class__ is int else x1
        v2 = {x2: 1} if x2.__class__ is int else x2
        for i, a in v1.items():
            ca = coeff * a
            for j, b in v2.items():
                col = off + (tri_index(min(i, j), max(i, j), n1) if sym else i * n2 + j)
                v = out.get(col, 0) + ca * b
                if v:
                    out[col] = v
                else:
                    out.pop(col, None)

    def _unit(self, d, i):
        return {i: 1}

    def _coeff(self, fr: Fraction):
        return _q(fr.numerator, fr.denominator)

    def _reduce(self, comp):
        d = comp.d
        if self._twinnable and self._selection_proves_rank(d):
            # a lift from every twin present, then from one more each time it is refused
            for k in range(len(self._twins), len(SELECTION_PRIMES) + 1):
                twins = [self._twin(i).component(d) for i in range(k)]
                cols = lift_struct(self._integral_rows(comp, set(twins[0].selected)),
                                   [t.nonpiv for t in twins], [t.S for t in twins],
                                   [q.p for q in self._twins[:k]])
                if cols is not None:
                    comp.mode = "replay"
                    comp.rank = twins[0].rank
                    # the fractions are the CRT residues, with denominators below p
                    self._reduces[d] = True
                    return cols
        basis = IntRREF(comp.paircols)
        for row in self._integral_rows(comp):
            basis.insert(row)
        comp.rank = basis.rank
        return basis.struct_columns()

    def _twin(self, i):
        """Twin i, the cached GF(SELECTION_PRIMES[i]) quotient; _twins grows to hold it."""
        while len(self._twins) <= i:
            p = SELECTION_PRIMES[len(self._twins)]
            self._twins.append(get_quotient(self.variety, GF(p), self.degree_cap))
        return self._twins[i]

    def _selection_proves_rank(self, d):
        """Are the rows the first twin selected at d independent over QQ?

        They are when a row index names the same spec here and in the twin
        (equal orbit bases), every identity coefficient has a denominator
        prime to the twin's p (_reduce builds no twins otherwise), and
        every zero-free struct map below d reduces mod p entry by entry to
        the twin's S (equal dimensions too, so equal spec streams; a
        relabeling shares its base's struct map).  Then each integral QQ
        relation row at d reduces mod p to a unit multiple of the twin's
        row for the same spec, and the rows the twin selected are
        independent mod p, hence over QQ.  Builds twin 0 up to d.
        """
        twin = self._twin(0)
        twin.component(d)
        if twin.orbits() != self.orbits():
            return False

        def reduces(e):
            if e not in self._reduces:
                self._reduces[e] = _struct_reduces_to(self.comps[e], twin.comps[e], twin.p)
            return self._reduces[e]

        return all(reduces(e) for e in _tower(d, self.flavor) if e != d)

    def _integral_rows(self, comp, only=None):
        """The nonzero relation rows of comp in row order, scaled to integers;
        with only, a set of row indices, just those rows."""
        blocks = iter_relation_specs(self.identities, comp.d, self.dim, self.orbits())
        for _, _, parts in row_windows(blocks, BATCH_ROWS):
            picked = [(row, block, k) for block, lo, hi in parts
                      for k, row in enumerate(block.rows[lo:hi].tolist(), lo)
                      if only is None or row in only]
            picked.sort(key=lambda t: t[0])
            for _, block, k in picked:
                row = self._relation_row(comp, block, k)
                if row:
                    yield _integral(row)

    def _relation_row(self, comp, block, k):
        """The relation row of spec k of a block as a sparse dict of ints and
        Fractions: each term of the identity on each distinct arrangement of
        each variable's multiset, its two root subtrees added into the pair
        coordinates of their split."""
        row = {}
        for coeff, d1, x1, d2, x2 in self._instances(block, block.idx[k].tolist()):
            self._pair_coords(comp.offsets, d1, x1, d2, x2, row, coeff)
        return row


# ---------------------------------------------------------------------------
# Shared front door with a per-process cache.
# ---------------------------------------------------------------------------

_CACHE: dict[tuple, object] = {}


def get_quotient(variety, field, degree_cap=DEFAULT_DEGREE_CAP):
    """Cached quotient algebra for (variety, field)."""
    key = (variety.cache_key(), getattr(field, "p", 0), degree_cap)
    qa = _CACHE.get(key)
    if qa is None:
        if field is QQ or getattr(field, "char", None) == 0:
            qa = ExactQuotient(variety, degree_cap)
        else:
            qa = ModularQuotient(variety, field.p, degree_cap)
        _CACHE[key] = qa
    return qa


def clear_cache():
    _CACHE.clear()
    stop_twin_builders()


# ---------------------------------------------------------------------------
# GF(p) twins built in long-lived child processes, one per prime.
# ---------------------------------------------------------------------------

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A fresh interpreter that imports freealg from the parent's directory, never __main__.
_CHILD_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "from freealg.quotient import serve_twin_builds; serve_twin_builds()")
_BUILDERS: dict[int, "_TwinBuilder"] = {}


def _cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1    # no affinity API, as on macOS


def _builder(p):
    """The child of prime p, started if need be; None with one CPU or no process to be had."""
    ncpu = _cpus()
    if ncpu < 2:
        return None
    if p in _BUILDERS:
        return _BUILDERS[p]
    try:
        return _TwinBuilder(p, ncpu)
    except OSError:
        return None


def poly_images(quotients, poly):
    """[q.poly_image(poly) for q in quotients] for ModularQuotients, each taken by
    its prime's child in the child's own tower, so the parent installs none.

    poly is checked against every quotient before any child is asked, and
    every child is asked before any reply is read, so the children build
    side by side.  The image is one request with one reply, read after the
    replies to every request before it.  A quotient that holds the
    component, or has no child, takes the image here.  The child's exception
    is raised with its type and message; a child that died raises
    BuildError, and the next request starts a fresh one.
    """
    for q in quotients:
        q._checked_terms(poly)
    base = _zero_free(poly.multidegree())
    builders = [None if base in q.comps else _builder(q.p) for q in quotients]
    asked = [b and b.ask(q, poly) for q, b in zip(quotients, builders)]
    return [q.poly_image(poly) if b is None else b.answer(request)
            for q, b, request in zip(quotients, builders, asked)]


def stop_twin_builders():
    """Stop the children; returns {p: the child's report}, where a report
    ({"pid", "freealg", "maxrss_mb"}) is None for a child that had died or
    was killed with a request in flight."""
    return {p: _BUILDERS[p].stop() for p in list(_BUILDERS)}


atexit.register(stop_twin_builders)


class _TwinBuilder:
    """The parent's end of one child process that takes GF(p) images.

    Requests and replies are pickles on the child's stdin and stdout.  A
    request, (variety, p, degree_cap, poly), asks for one polynomial's
    image and has exactly one reply; requests holds those in flight, in
    order.  The child gets max(1, ncpu // 2) BLAS threads, set before numpy
    loads, and exits when its stdin reaches EOF or a reply finds the parent
    gone, so none outlives the parent.
    """

    def __init__(self, p, ncpu):
        env = dict(os.environ)
        env.update(dict.fromkeys(_BLAS_THREAD_VARS, str(max(1, ncpu // 2))))
        src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.p = p
        self.requests = collections.deque()
        self.proc = subprocess.Popen([sys.executable, "-c", _CHILD_CODE, src],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
        _BUILDERS[p] = self

    def send(self, msg):
        try:
            pickle.dump(msg, self.proc.stdin, protocol=pickle.HIGHEST_PROTOCOL)
            self.proc.stdin.flush()
        except OSError:
            raise self._died() from None
        except BaseException:
            self.close(force=True)          # interrupted: the child's input is out of step
            raise

    def ask(self, q, poly):
        """Send the request for poly's image in the ModularQuotient q and return
        it, a message tuple in flight until answer reads its reply."""
        request = (q.variety, q.p, q.degree_cap, poly)
        self.send(request)
        self.requests.append(request)
        return request

    def receive(self):
        """The child's next reply, (status, payload)."""
        try:
            return pickle.load(self.proc.stdout)
        except (EOFError, OSError, pickle.UnpicklingError):
            raise self._died() from None
        except BaseException:
            self.close(force=True)          # interrupted: the replies are out of step
            raise

    def answer(self, request):
        """Read the replies up to request's, in request order, dropping the
        earlier ones.  Returns request's payload; raises the child's
        exception."""
        while True:
            status, payload = self.receive()
            if self.requests.popleft() is request:
                if status == "error":
                    raise payload
                return payload

    def stop(self):
        """End the child; returns its report, or None if it had died or had a
        request in flight, when it is killed rather than waited for."""
        if self.requests:
            self.close(force=True)
            return None
        try:
            self.send("stop")
            status, report = self.receive()
        except BuildError:
            report = None
        self.close()
        return report

    def close(self, force=False):
        """Forget this child and its requests, and reap it; force kills it first
        (it may be mid-build)."""
        if _BUILDERS.get(self.p) is self:
            del _BUILDERS[self.p]
        self.requests.clear()
        if force:
            self.proc.kill()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass
        self.proc.wait()

    def _died(self):
        try:
            status = self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            status = "unknown"
        self.close(force=True)
        return BuildError("the GF(%d) twin builder process died (exit status %s)"
                          % (self.p, status))


def serve_twin_builds():
    """Child side of poly_images: answer each request from stdin, in order,
    until EOF or "stop".

    A request is one poly_image call on the cached ModularQuotient of its
    variety, prime and degree cap.  Its one reply is ("ok", the image) or
    ("error", the exception).  Replies go out through a writer thread, so a
    reply the parent has not read yet never holds up the next build."""
    import queue                  # the child's only; the parent never loads it
    signal.signal(signal.SIGINT, signal.SIG_IGN)    # the parent handles interrupts
    out = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)                 # stray output goes to stderr, not into the replies
    replies = queue.SimpleQueue()
    writer = threading.Thread(target=_write_replies, args=(replies, out), daemon=True)
    writer.start()
    inp = sys.stdin.buffer
    while True:
        try:
            msg = pickle.load(inp)
        except EOFError:
            break
        if msg == "stop":
            replies.put(("ok", {"pid": os.getpid(),
                                "freealg": os.path.dirname(os.path.abspath(__file__)),
                                "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024}))
            break
        variety, p, degree_cap, poly = msg
        try:
            replies.put(("ok", get_quotient(variety, GF(p), degree_cap).poly_image(poly)))
        except Exception as exc:
            replies.put(("error", _portable(exc)))
    replies.put(None)
    writer.join()


def _write_replies(replies, out):
    while (reply := replies.get()) is not None:
        try:
            pickle.dump(reply, out, protocol=pickle.HIGHEST_PROTOCOL)
            out.flush()
        except BrokenPipeError:
            os._exit(0)           # the parent is gone; the main thread may be mid-build


def _tower(d, flavor):
    """The zero-free components that component(d) builds, in build order: d
    (or its base) and those below it.  Zero-padded ones are relabelings."""
    done = {}

    def visit(e):
        if e in done:
            return
        for e1, e2 in component_splits(e, flavor):
            visit(e1)
            visit(e2)
        base = _zero_free(e)
        if base != e:
            visit(base)
        done[e] = None

    visit(mdeg(d))
    return [e for e in done if all(e)]


def _portable(exc):
    """exc itself if it survives a pickle round trip, else a BuildError naming it."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return BuildError("%s: %s" % (type(exc).__name__, exc))

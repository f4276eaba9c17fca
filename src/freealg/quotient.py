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

This keeps the linear algebra tiny compared to free-monomial coordinates
(e.g. 5k pair columns instead of 240 240 monomials in the heaviest degree-8
component) at the price of building all lower components first.

Only multidegrees with no zero entry are built.  One with zero entries, such
as (1,0,1,1), is its zero-free base (1,1,1) under the only order-preserving
renaming of variables, which keeps the split order, the spec stream and
every relation row; its component is a view of the base's, sharing its
dimension, rank, selection, struct matrix and struct blocks, with only the
split keys renamed (_relabel).  So [1^6] builds 6 components, not 63.

One builder, InductiveQuotient, does everything that does not depend on the
coordinates: the component recursion, the pair layout and its budget, the
split of a struct map into blocks, and the evaluation of a substituted
identity term (_evaluate), whose leaves carry basis indices and whose
interior nodes are the subclass's _products.  Each subclass writes its pair
layout once, in _pair_coords, and gives the coordinate type, the products,
the row assembly and the elimination:

* ModularQuotient: GF(p) with dense numpy rows, for primes with
  2 (p-1)^2 <= 2^53.  Relation rows are assembled in bulk, a batch of specs
  at a time: specs of one shape (identity, and per variable the
  multidegrees and repeated elements of its multiset) are evaluated together,
  each identity term once per arrangement over arrays of basis indices,
  gathering struct rows for products of two basis elements and using one
  matmul for every other product, and the batch's block is reduced mod p
  once.  The reduced basis is kept as its pivot columns and the rank x
  non-pivot block N, which is also the struct map (S[piv] = -N); batches
  are reduced on the non-pivot columns only, and rows that are then zero are
  dropped before the Gauss-Jordan panels.  Products and sums of at most
  mod_chunk(p) of them are exact in float64, so BLAS matmuls are exact
  integer arithmetic and the reduced basis is canonical.
* ExactQuotient: QQ with sparse rows whose values are ints when integral
  and Fractions otherwise.  A relation row is one spec at a time, each term
  on each distinct arrangement of each variable's multiset; a product of
  two basis elements is a cached struct row, any other product its pair
  coordinates through the struct map.  Large components assemble only the
  rows that pivoted modulo the first of two independent primes; replayed
  rows are honest T-ideal members.  Their struct map is lifted from the two
  GF(p) struct matrices by CRT and rational reconstruction (lift_struct)
  and accepted only when every replayed row maps to zero exactly and the
  rows have full rank, which proves it is the map of their span whatever
  the twins did; so zero residuals stay proofs.  The first twin's selection is
  the only proof of that rank: it holds when the twin has the rational
  orbit bases and every lower rational struct map reduces modulo its prime
  to the twin's, for then each replayed row reduces to a unit multiple of a
  row the twin found independent.  A component whose selection proves
  nothing, a refused lift, every small component and every component of
  identities with a strategy prime in a coefficient's denominator send
  every relation row through IntRREF, an integer-scaled RREF.

The two GF(p) builds of one component, one per strategy prime (the twins
of a rational component, and the two-prime verdicts in engine), are built
side by side by build_twins: in two long-lived child processes, one per
prime, each a fresh interpreter that imports freealg from this package's
directory and uses max(1, ncpu // 2) BLAS threads.  The parent installs the
zero-free components they return and makes the relabelings itself, so every
later lookup, image and replay is the same as after an in-process build.
With one CPU the twins are built in process, one after the other.  Children
start on the first such build, never at import, and stop in clear_cache, at
exit, or when the parent's pipe closes.
"""

from __future__ import annotations

import atexit
import itertools
import math
import os
import pickle
import resource
import signal
import subprocess
import sys
from fractions import Fraction

import numpy as np

from . import linalg
from .term import (COMMUTATIVE, PLANAR, GF, QQ, Monomial, Polynomial, count_monomials,
                   leaf_positions, mdeg, mdeg_add, mdeg_key, mdeg_leq, mdeg_sub, mdeg_total,
                   slot_arrangements, splits2, sub_multidegrees)

SELECTION_PRIMES = (999983, 999979)
FULL_COLS_CAP = 420          # exact components at most this wide skip the modular pre-pass
DEFAULT_DEGREE_CAP = 8
MAX_PAIR_COLUMNS = 100_000
BATCH_ROWS = 256             # relation rows per DenseModRREF.add_batch, clamped below its chunk
PANEL_ROWS = 16              # rows per int64 panel; entries stay below p + PANEL_ROWS (p-1)^2
KILL_CHECK_ROWS = 32         # rows per block of lift_struct's kill check; small ones keep peak RSS


class BuildError(RuntimeError):
    pass


class DegreeCapExceeded(BuildError):
    pass


class BudgetExceeded(BuildError):
    """A component is larger than the configured column budget."""


# ---------------------------------------------------------------------------
# Shared split/enumeration machinery.
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


def identity_profile(f: Polynomial):
    """[(variable, multiplicity), ...] for a multihomogeneous identity."""
    fd = f.multidegree()
    if fd is None:
        raise BuildError("defining identity is not multihomogeneous: %s" % (f,))
    return [(v + 1, fd[v]) for v in range(len(fd)) if fd[v] > 0]


def multilinear_variables(f: Polynomial):
    """Variables of f in increasing order if each occurs once per term, else None."""
    profile = identity_profile(f)
    if any(m != 1 for _, m in profile):
        return None
    return [v for v, _ in profile]


def orbit_basis(identities, fld):
    """Greedy basis, per arity n, of the S_n-module spanned by the multilinear identities.

    For an identity f in the variables v_1 < ... < v_n and a permutation sigma
    of range(n), sigma.f is f with v_k renamed t_{sigma[k]+1}.  The elements
    (f_idx, sigma) are walked in a fixed order (identities in order, then
    sigma lexicographically); one joins the basis when sigma.f is independent
    over fld of the ones before it.  Returns {n: ((f_idx, sigma), ...)} for
    increasing n.  Substituting a tuple x into sigma.f substitutes
    x[sigma[k]] for v_k, so every ordered instance of every multilinear
    identity of arity n is a combination, over fld, of basis elements at
    the sorted tuple.
    """
    spans = {}
    out = {}
    for f_idx, f in enumerate(identities):
        variables = multilinear_variables(f)
        if variables is None:
            continue
        n = len(variables)
        if n not in spans:
            spans[n] = (linalg.SpanBasis(fld, count_monomials((1,) * n, f.flavor)), {})
        basis, index = spans[n]
        for sigma in itertools.permutations(range(n)):
            rename = {v: s + 1 for v, s in zip(variables, sigma)}
            row = {}
            for m, c in f.terms.items():
                enc = tuple(rename[x] if x else 0 for x in m.enc)
                col = index.setdefault(Monomial.from_enc(f.flavor, enc), len(index))
                row[col] = fld.from_fraction(f.field.to_fraction(c))   # renaming is injective
            row = {col: x for col, x in row.items() if not fld.is_zero(x)}
            if row and linalg.insert_row(basis, row):
                out.setdefault(n, []).append((f_idx, sigma))
    return {n: tuple(out[n]) for n in sorted(out)}


def iter_relation_specs(identities, d, dim_of, orbits=None):
    """Deterministic stream of blended-instance specs at multidegree d.

    Yields (row_index, identity_index, assignment) where assignment maps each
    identity variable to a canonically sorted tuple of (mdeg, basis_index)
    pairs (a multiset over lower-component basis elements).

    With orbits (from orbit_basis), the multilinear identities of arity n are
    substituted only into sorted n-multisets ms of lower basis elements: one
    spec per (ms, (f_idx, sigma)) in the basis, giving variable v_k the
    element ms[sigma[k]] (when ms repeats an element, specs that give the
    same instance are yielded once).  Identities with a repeated variable, and every
    identity when orbits is None, take every multiset per variable and so
    every ordered tuple for the multilinear ones.  The order depends only on
    the identities, the orbit bases and the lower component dimensions, so a
    row index addresses the same row in every field whose orbit bases agree.
    """
    row_index = 0
    for n, basis in (orbits or {}).items():
        variables = [multilinear_variables(identities[f_idx]) for f_idx, _ in basis]
        for assignment in _assignments([(1, n)], d, dim_of):
            ms = assignment[1]
            seen = set()
            for (f_idx, sigma), fvars in zip(basis, variables):
                args = tuple(ms[s] for s in sigma)
                if (f_idx, args) in seen:      # same instance: ms repeats an element
                    continue
                seen.add((f_idx, args))
                yield row_index, f_idx, dict(zip(fvars, ((x,) for x in args)))
                row_index += 1
    for f_idx, f in enumerate(identities):
        if orbits is not None and multilinear_variables(f) is not None:
            continue
        for assignment in _assignments(identity_profile(f), d, dim_of):
            yield row_index, f_idx, assignment
            row_index += 1


def _assignments(profile, d, dim_of):
    """Every assignment of lower-basis multisets to the variables of a profile
    [(variable, multiplicity), ...] whose multidegrees add up to d."""
    total = mdeg_total(d)
    all_sub = sub_multidegrees(d) + [d]
    slots = [(v, k) for v, m in profile for k in range(m)]
    nslots = len(slots)
    if nslots > total:
        return

    # Enumerate per-slot multidegrees: nondecreasing within each variable.
    def mdeg_assignments(slot_i, remaining, acc):
        if slot_i == nslots:
            if mdeg_total(remaining) == 0:
                yield tuple(acc)
            return
        var, k = slots[slot_i]
        rem_slots = nslots - slot_i
        rem_total = mdeg_total(remaining)
        for e in all_sub:
            if k > 0 and mdeg_key(e) < mdeg_key(acc[-1][1]):
                continue
            if not mdeg_leq(e, remaining):
                continue
            if mdeg_total(e) > rem_total - (rem_slots - 1):
                continue
            yield from mdeg_assignments(slot_i + 1, mdeg_sub(remaining, e), acc + [(var, e)])

    for mASS in mdeg_assignments(0, d, []):
        # group by variable, then enumerate basis indices canonically
        per_var = {}
        for var, e in mASS:
            per_var.setdefault(var, []).append(e)
        var_names = sorted(per_var)
        index_pools = []
        for var in var_names:
            es = per_var[var]
            groups = [(e, len(list(g))) for e, g in itertools.groupby(es)]
            pools = []
            for e, cnt in groups:
                pools.append((e, list(itertools.combinations_with_replacement(range(dim_of(e)), cnt))))
            index_pools.append(pools)
        for combo in _product_pools(index_pools):
            assignment = {}
            for var, chosen in zip(var_names, combo):
                ms = []
                for e, idxs in chosen:
                    ms.extend((e, i) for i in idxs)
                assignment[var] = tuple(ms)
            yield assignment


def _product_pools(index_pools):
    """Cartesian product over variables of (per-group index choices)."""
    per_var_choices = []
    for pools in index_pools:
        groups = [[(e, idxs) for idxs in choices] for e, choices in pools]
        per_var_choices.append([tuple(sel) for sel in itertools.product(*groups)])
    return itertools.product(*per_var_choices)


def _multiset_shape(ms):
    """(mdeg, label) per slot of a sorted multiset of (mdeg, basis index) pairs,
    the labels numbering its distinct elements in order."""
    out, label = [], -1
    for k, x in enumerate(ms):
        if k == 0 or x != ms[k - 1]:
            label += 1
        out.append((x[0], label))
    return tuple(out)


# ---------------------------------------------------------------------------
# Exact float64 arithmetic mod p, and the dense GF(p) eliminator.
# ---------------------------------------------------------------------------

def mod_p(a, p, out=None):
    """a mod p in [0, p) for a float64 array of integers with |a| <= 2^53 - p.

    floor(a * (1/p)) is off by at most one, so one correction each way makes
    the result exact; this is several times faster than np.mod.
    """
    q = np.multiply(a, 1.0 / p)
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


class DenseModRREF:
    """Reduced row echelon basis over GF(p), kept as its non-pivot part.

    Row i of the basis has a 1 in column piv[i], zeros in the other pivot
    columns and N[i] in the non-pivot columns nonpiv (ascending); piv is in
    insertion order.  N is a float64 matrix of integers in [0, p): every
    product and every sum of at most chunk products stays below 2^53 - p, so
    BLAS matmuls are exact integer arithmetic and mod_p applies.  The basis
    is the canonical RREF of the span, so pivots, rows and the positions
    that pivot do not depend on how a row stream is cut into batches.
    """

    def __init__(self, p, ncols):
        self.chunk = mod_chunk(p)
        if self.chunk < 2:
            raise BuildError("modulus too large for exact float64 elimination")
        self.p = p
        self.ncols = ncols
        self.batch = min(BATCH_ROWS, self.chunk - 1)
        self.piv = np.zeros(0, dtype=np.int64)
        self.nonpiv = np.arange(ncols)
        self.N = np.zeros((0, ncols))

    @property
    def rank(self):
        return self.piv.shape[0]

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

    def add_batch(self, M):
        """Insert a batch; returns positions within the batch that pivoted.

        The batch is reduced against the basis on the non-pivot columns only
        (Y = M[:, nonpiv] - M[:, piv] @ N) and reduced mod p once; the rows
        that are then zero lie in the span already and are dropped before the
        panels.  The others are eliminated in panels of PANEL_ROWS: a panel
        is reduced against the batch's earlier new rows W by one matmul
        (exact, as a batch has fewer than chunk rows), brought to reduced
        echelon form in int64 residues and written back reduced by
        _gauss_jordan_mod, and its new rows are cleared from W by another
        matmul (the back-substitution among the new rows).  Finally the new
        pivot columns are cleared from N in one matmul and dropped from the
        non-pivot set.
        """
        p = self.p
        if M.shape[0] >= self.chunk:
            raise BuildError("batch too large for deferred reduction")
        Y = M[:, self.nonpiv]
        if self.rank:
            X = M[:, self.piv]
            if np.any(X):
                Y -= matmul_mod(X, self.N, p)
        mod_p(Y, p, out=Y)
        live = np.flatnonzero(Y.any(axis=1))
        Y = Y[live]
        new, leads = [], []
        W = np.empty_like(Y)            # rows 0..k-1: the new rows, reduced among themselves
        k = 0
        for start in range(0, Y.shape[0], PANEL_ROWS):
            P = Y[start:start + PANEL_ROWS]
            if k:
                X = P[:, leads]
                if np.any(X):
                    P -= X @ W[:k]
            found = _gauss_jordan_mod(P, p)
            if not found:
                continue
            rows = [i for i, _ in found]
            cols = [c for _, c in found]
            W[k:k + len(rows)] = P[rows]
            if k:
                X = W[:k, cols]
                if np.any(X):
                    W[:k] -= X @ W[k:k + len(rows)]
                    mod_p(W[:k], p, out=W[:k])
            k += len(rows)
            new += [start + i for i in rows]
            leads += cols
        if new:
            keep = np.ones(self.nonpiv.shape[0], dtype=bool)
            keep[leads] = False
            r = self.rank
            W = W[:k, keep]
            N = np.empty((r + k, W.shape[1]))
            N[:r] = self.N[:, keep]
            if r:
                X = self.N[:, leads]
                if np.any(X):
                    N[:r] -= X @ W
                    mod_p(N[:r], p, out=N[:r])
            N[r:] = W
            self.N = N
            self.piv = np.concatenate([self.piv, self.nonpiv[leads]])
            self.nonpiv = self.nonpiv[keep]
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
    at paircols.  struct holds the struct map's blocks in the same order."""

    __slots__ = ("d", "dim", "offsets", "paircols",
                 "struct", "selected", "rank", "mode", "nonpiv", "S")

    def __init__(self, d):
        self.d = d
        self.struct = {}
        self.selected = []
        self.rank = 0
        self.mode = "full"
        self.nonpiv = None       # GF(p): non-pivot columns, ascending
        self.S = None            # GF(p): paircols x dim struct matrix; struct blocks are views


def _zero_free(d):
    """d without its zero entries."""
    return tuple(x for x in d if x)


def _relabel(base, d):
    """The component at d as a view of base, the component at _zero_free(d).

    Dropping the zero entries of d is the only order-preserving renaming of
    its variables onto base's.  It keeps mdeg_key, so it keeps the split
    order (planar and commutative), the spec stream of iter_relation_specs
    and every relation row, value by value: the component at d is base
    under renamed split keys.  Only the keys of offsets and struct are
    renamed; dim, paircols, rank, mode, selected, nonpiv, S and the struct
    blocks are base's own objects.
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
    keys = {split: (rename(split[0]), rename(split[1])) for split in base.offsets}
    comp.offsets = {keys[split]: x for split, x in base.offsets.items()}
    comp.struct = {keys[split]: x for split, x in base.struct.items()}
    return comp


class InductiveQuotient:
    """Relatively-free algebra of a variety, built component by component.

    Everything here is independent of the coordinates: the component
    recursion, the pair layout and its budget, monomial images, orbit bases,
    identity terms, the evaluation of substituted terms (_evaluate) and the
    split of a struct map into blocks.  A subclass supplies the coordinate
    type through _unit (a basis vector), _coeff (a rational as a
    coefficient), _products (the value of an interior node of _evaluate,
    whose leaves carry basis indices), product, poly_image (a sparse
    {coordinate: nonzero value} in both fields), and
    _reduce(comp), which assembles and eliminates a component's relation
    rows, sets comp.rank and returns its struct map: one row per pair
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
        if mdeg_total(d) > self.degree_cap:
            raise DegreeCapExceeded("component %r exceeds degree cap %d" % (d, self.degree_cap))
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
        struct = self._reduce(comp)
        comp.dim = comp.paircols - comp.rank
        _split_struct(comp, struct)
        return comp


def _split_struct(comp, struct):
    """One struct block per split: a slice (for numpy, a view) of the struct
    map from the split's offset to the next one's, or to paircols."""
    ends = list(comp.offsets.values())[1:] + [comp.paircols]
    comp.struct = {split: struct[off:end] for (split, off), end in zip(comp.offsets.items(), ends)}


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
        {coordinate: nonzero residue}; FieldError on a denominator p divides."""
        d = poly.multidegree()
        if d is None:
            raise BuildError("polynomial is not multihomogeneous")
        terms = [(m, self._coeff(poly.field.to_fraction(c))) for m, c in poly.terms.items()]
        out = np.zeros(self.component(d).dim)       # a bad coefficient fails before the build
        for m, cm in terms:
            if cm:
                out += cm * self.monomial_image(m)
                out %= self.p
        return {int(k): int(out[k]) for k in np.flatnonzero(out)}

    def product(self, d1, v1, d2, v2):
        """Product Q_{d1} x Q_{d2} -> Q_{d1+d2} on coordinate vectors."""
        return self._products(d1, v1[None], d2, v2[None])[0]

    def _install(self, records):
        """Take components built in another process (see build_twins) as if built here."""
        for d, values in records:
            comp = _Component(d)
            for name, value in zip(_WIRE, values):
                setattr(comp, name, value)
            if comp.S is not None:
                _split_struct(comp, comp.S)
            self.comps[d] = comp

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
        specs = iter_relation_specs(self.identities, comp.d, self.dim, self.orbits())
        while chunk := list(itertools.islice(specs, rre.batch)):
            M = self._relation_rows(comp, chunk)
            live = np.flatnonzero(M.any(axis=1))
            if live.size:
                selected += [chunk[live[pos]][0] for pos in rre.add_batch(M[live])]
        comp.rank = rre.rank
        comp.selected = selected
        S = np.zeros((comp.paircols, comp.paircols - rre.rank))
        S[rre.nonpiv, np.arange(S.shape[1])] = 1.0
        S[rre.piv] = mod_p(-rre.N, self.p)
        comp.nonpiv, comp.S = rre.nonpiv, S
        return S

    def _relation_rows(self, comp, specs):
        """The relation rows of specs, reduced mod p, as one (len(specs), paircols) array.

        Specs of one shape (the identity and, per variable, the multidegrees
        and equality labels of its multiset; see _multiset_shape) share the
        distinct arrangements of each multiset as permutations of its slots,
        and the multidegree of every node of every substituted term.  So each
        term is evaluated once per shape and arrangement, over arrays of basis
        indices (_products), and its root product is added into the rows of
        the shape's specs.  A placement moves an entry by at most
        |coeff| (p - 1) <= 2^53 - 2p; the rows are reduced mod p before the
        accumulated bound could leave the exact float64 range, and once at
        the end.
        """
        p = self.p
        M = np.zeros((len(specs), comp.paircols))
        shapes = {}
        for at, (_, f_idx, assignment) in enumerate(specs):
            key = (f_idx,) + tuple((v, _multiset_shape(assignment[v])) for v in sorted(assignment))
            shapes.setdefault(key, []).append(at)
        for (f_idx, *variables), at in shapes.items():
            rows = np.array(at)
            slots = [(v, [e for e, _ in shape], np.array([[i for _, i in specs[a][2][v]] for a in at]))
                     for v, shape in variables]
            combos = list(itertools.product(*(slot_arrangements(tuple(label for _, label in shape))
                                              for _, shape in variables)))
            bound = 0
            for enc, coeff, positions in self._identity_terms()[f_idx]:
                step = abs(coeff) * (p - 1)
                for combo in combos:
                    bound += step
                    if bound > 2 ** 53 - p:
                        M[rows] = mod_p(M[rows], p)
                        bound = p + step
                    leaves = {}
                    for (v, es, idx), perm in zip(slots, combo):
                        for pos, k in zip(positions[v], perm):
                            leaves[pos] = (es[k], idx[:, k])
                    d1, x1, j = self._evaluate(enc, 1, leaves)
                    d2, x2, _ = self._evaluate(enc, j, leaves)
                    split, cols, vals = self._pair_coords(d1, x1, d2, x2)
                    off = comp.offsets[split]
                    if cols is None:
                        M[rows, off:off + vals.shape[1]] += coeff * vals
                    else:
                        M[rows[:, None], off + cols] += coeff * vals
        return mod_p(M, p, out=M)

    def _products(self, d1, x1, d2, x2):
        """The products x1[g] x2[g] in Q_{d1+d2} as a (group, dim) array: rows
        of a struct block for two basis elements, else one matmul_mod."""
        split, cols, vals = self._pair_coords(d1, x1, d2, x2)
        S = self.component(mdeg_add(d1, d2)).struct[split]
        if x1.ndim == x2.ndim == 1:
            return S[cols[:, 0]]
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


def lift_struct(rows, nonpivs, structs, primes):
    """Struct columns over QQ of the span of integer rows, lifted from two twins; or None.

    structs[t] is the paircols x dim struct matrix of a reduced echelon basis
    over GF(primes[t]) and nonpivs[t] its non-pivot columns; rows is an
    iterable of sparse integer rows that the caller has proven linearly
    independent over QQ, read in blocks and only once the lift has a
    candidate.  The twins' pivot rows are combined by CRT modulo m = p0 p1
    and each distinct residue is reconstructed as a fraction with numerator
    and denominator at most sqrt(m / 2) < p0, p1, so a value that is 0
    modulo one prime is 0.  The candidate S is accepted only when
      1. both twins have the same shape, non-pivot columns and zero entries,
      2. every residue reconstructs,
      3. rows @ S = 0 exactly (D rows @ S in float64 while the bound allows,
         D the common denominator, else in Python ints), and
      4. there are exactly paircols - dim rows, so, being independent, they
         have that rank.
    Then span_QQ(rows) has dimension paircols - dim and lies in the kernel of
    S, which has that dimension, so the two are equal.  S is the identity on
    the non-pivot columns and, like the twins, vanishes left of each pivot,
    so it is the struct map of the reduced echelon basis of the span: the
    one IntRREF gives.  Returns, per pair column, {struct column: int or
    Fraction}.
    """
    (n0, n1), (S0, S1), (p0, p1) = nonpivs, structs, primes
    ncols, dim = S0.shape
    k = ncols - dim
    if S0.shape != S1.shape or not np.array_equal(n0, n1):
        return None
    piv = np.setdiff1d(np.arange(ncols), n0)
    P0, P1 = S0[piv], S1[piv]
    nz = P0 != 0
    if not np.array_equal(nz, P1 != 0):
        return None
    a = P0[nz].astype(np.int64)
    t = (P1[nz].astype(np.int64) - a) % p1 * pow(p0, -1, p1) % p1
    uniq, inv = np.unique(a + p0 * t, return_inverse=True)
    del P0, P1, a, t
    m = p0 * p1
    bound = math.isqrt((m - 1) // 2)
    fracs = [rational_reconstruction(int(u), m, bound) for u in uniq]
    if None in fracs:
        return None
    vals = [_q(f.numerator, f.denominator) for f in fracs]
    cols = [None] * ncols
    for j, c in enumerate(n0):
        cols[c] = {j: 1}
    at = np.concatenate([[0], np.cumsum(np.count_nonzero(nz, axis=1))]).tolist()
    where = np.nonzero(nz)[1].tolist()
    inv = inv.tolist()
    for i, c in enumerate(piv):
        cols[c] = {where[x]: vals[inv[x]] for x in range(at[i], at[i + 1])}

    D = math.lcm(*(f.denominator for f in fracs))
    Z = [f.numerator * (D // f.denominator) for f in fracs]
    max_z = max(map(abs, Z), default=0)
    Zf = None
    if max_z < 2 ** 53:
        Zf = np.zeros((k, dim))
        Zf[nz] = np.array(Z, dtype=float)[inv]
    count = 0
    rows = iter(rows)
    while block := list(itertools.islice(rows, KILL_CHECK_ROWS)):
        count += len(block)
        max_r = max(abs(x) for r in block for x in r.values())
        if Zf is None or (k * max_z + D) * max_r >= 2 ** 53:
            if not _kills(block, cols):
                return None
            continue
        M = np.zeros((len(block), ncols))
        for i, r in enumerate(block):
            M[i, list(r)] = list(r.values())
        if np.any(M[:, piv] @ Zf + D * M[:, n0]):
            return None
    return cols if count == k else None


def _struct_reduces_to(comp, twin, p):
    """Does a QQ component's struct map reduce mod p, entry by entry, to the
    GF(p) component twin's S?  False on a denominator divisible by p."""
    if (comp.paircols, comp.dim) != (twin.paircols, twin.dim):
        return False
    if not comp.paircols:
        return True
    R = np.zeros(twin.S.shape)
    for c, col in enumerate(col for block in comp.struct.values() for col in block):
        for j, x in col.items():
            den = x.denominator % p
            if not den:
                return False
            R[c, j] = x.numerator * pow(den, -1, p) % p
    return np.array_equal(R, twin.S)


def _kills(rows, cols):
    """Is row @ S = 0 for every row, in exact arithmetic?  cols[c] is row c of S."""
    for r in rows:
        acc = {}
        for c, x in r.items():
            for j, y in cols[c].items():
                acc[j] = acc.get(j, 0) + x * y
        if any(acc.values()):
            return False
    return True


# ---------------------------------------------------------------------------
# QQ coordinates: sparse dicts, rows selected and struct maps lifted from GF(p).
# ---------------------------------------------------------------------------

class ExactQuotient(InductiveQuotient):
    """Relatively-free algebra over QQ.

    A component wider than FULL_COLS_CAP pair columns gets its two GF(p)
    twins, one per SELECTION_PRIMES prime, unless a prime divides the
    denominator of an identity coefficient.  When _selection_proves_rank
    shows that the rows the first twin selected are independent over QQ,
    those rows are assembled over QQ (honest T-ideal members) and the
    struct map is lifted from the twins' struct matrices by CRT and
    rational reconstruction; the exact check of lift_struct proves it is
    the map of the span of those rows (mode "replay").  Every other
    component, and one whose lift is refused, sends every relation row
    through IntRREF (mode "full").  Coordinates are sparse dicts whose
    values are ints when integral and Fractions otherwise; poly_image
    returns Fractions.  Relation rows and products both add into pair
    coordinates through _pair_coords.
    """

    def __init__(self, variety, degree_cap=DEFAULT_DEGREE_CAP):
        super().__init__(variety, QQ, degree_cap)
        self.pair_cache: dict[tuple, dict] = {}     # (d1, i, d2, j) -> struct row of the pair
        self._twins = None
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
        S = comp.struct[self._pair_coords(d1, v1, d2, v2, pairs)]
        out = {}
        for c, a in pairs.items():
            for k, x in S[c].items():
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
                pairs = {}
                split = self._pair_coords(d1, x1, d2, x2, pairs)
                [col] = pairs
                got = self.pair_cache[key] = self.component(mdeg_add(d1, d2)).struct[split][col]
            return got
        return self.product(d1, x1, d2, x2)

    def _pair_coords(self, d1, x1, d2, x2, out, coeff=1, offsets=None):
        """Add coeff x1 x2, in pair coordinates, into the sparse vector out;
        returns the split.

        An x is a basis index or a sparse vector.  A commutative split is
        taken in key order.  The pair (i, j) is column i n2 + j of the
        split's block, or in the symmetric block of a commutative split
        (d1 = d2) column tri_index(min(i, j), max(i, j), n1), which so holds
        the upper triangle of x1 x2 + x2 x1, less the diagonal once.  With
        offsets, the block starts at column offsets[split] of out.
        """
        if self.flavor == COMMUTATIVE and mdeg_key(d1) > mdeg_key(d2):
            d1, x1, d2, x2 = d2, x2, d1, x1
        split = (d1, d2)
        off = offsets[split] if offsets else 0
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
        return split

    def _unit(self, d, i):
        return {i: 1}

    def _coeff(self, fr: Fraction):
        return _q(fr.numerator, fr.denominator)

    def _reduce(self, comp):
        if comp.paircols > FULL_COLS_CAP and self._twinnable:
            if self._twins is None:
                self._twins = [get_quotient(self.variety, GF(p), self.degree_cap)
                               for p in SELECTION_PRIMES]
            build_twins(self._twins, comp.d)
            twins = [t.component(comp.d) for t in self._twins]
            if self._selection_proves_rank(comp.d):
                cols = lift_struct(self._integral_rows(comp, set(twins[0].selected)),
                                   [t.nonpiv for t in twins], [t.S for t in twins],
                                   [t.p for t in self._twins])
                if cols is not None:
                    comp.mode = "replay"
                    comp.rank = twins[0].rank
                    # the fractions are the CRT residues, with denominators below p
                    self._reduces[comp.d] = True
                    return cols
        basis = IntRREF(comp.paircols)
        for row in self._integral_rows(comp):
            basis.insert(row)
        comp.rank = basis.rank
        return basis.struct_columns()

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
        independent mod p, hence over QQ.
        """
        twin = self._twins[0]
        if twin.orbits() != self.orbits():
            return False

        def reduces(e):
            if e not in self._reduces:
                self._reduces[e] = _struct_reduces_to(self.comps[e], twin.comps[e], twin.p)
            return self._reduces[e]

        return all(reduces(e) for e in _tower(d, self.flavor) if e != d)

    def _integral_rows(self, comp, only=None):
        """The nonzero relation rows of comp, scaled to integers; with only, just
        the rows whose index it holds."""
        for row_index, f_idx, assignment in iter_relation_specs(self.identities, comp.d,
                                                                self.dim, self.orbits()):
            if only is None or row_index in only:
                row = self._relation_row(comp, f_idx, assignment)
                if row:
                    yield _integral(row)

    def _relation_row(self, comp, f_idx, assignment):
        """The relation row of one spec as a sparse dict of ints and Fractions:
        each term of the identity on each distinct arrangement of each
        variable's multiset, its two root subtrees added into the pair
        coordinates of their split."""
        variables = sorted(assignment)
        combos = list(itertools.product(*(
            slot_arrangements(tuple(label for _, label in _multiset_shape(assignment[v])))
            for v in variables)))
        row = {}
        for enc, coeff, positions in self._identity_terms()[f_idx]:
            for combo in combos:
                leaves = {}
                for v, perm in zip(variables, combo):
                    ms = assignment[v]
                    for pos, k in zip(positions[v], perm):
                        leaves[pos] = ms[k]
                d1, x1, j = self._evaluate(enc, 1, leaves)
                d2, x2, _ = self._evaluate(enc, j, leaves)
                self._pair_coords(d1, x1, d2, x2, row, coeff, comp.offsets)
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
# GF(p) twins built side by side, one long-lived child process per prime.
# ---------------------------------------------------------------------------

# What a child sends of each component; the struct blocks are rebuilt as views of S.
_WIRE = ("dim", "offsets", "paircols", "selected", "rank", "mode", "nonpiv", "S")
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A fresh interpreter that imports freealg from the parent's directory, never __main__.
_CHILD_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "from freealg.quotient import serve_twin_builds; serve_twin_builds()")
_BUILDERS: dict[int, "_TwinBuilder"] = {}


def build_twins(quotients, d):
    """Build component d of several ModularQuotients at once, one child process per prime.

    Each quotient that lacks d sends (variety, p, degree cap, d, the
    multidegrees it holds) to the child of its prime, which builds d and its
    lower components in its own cached ModularQuotient and answers with the
    zero-free ones the quotient lacks (_tower), in build order; they are
    installed as if built here, and the quotient's component() makes the
    zero-padded relabelings from them when asked, so every later lookup is
    unchanged.  Components are bit-identical to an in-process build, since
    GF(p) elimination is exact in any BLAS summation order.  With one CPU, fewer than two quotients
    lacking d, or no process to be had, nothing happens and the callers'
    component(d) builds in process as before.  A child's exception is raised
    here with its type and message, after every other child has answered; a
    child that died raises BuildError, and the next request starts a fresh
    one.
    """
    d = mdeg(d)
    lacking = [q for q in quotients if d not in q.comps]
    if hasattr(os, "sched_getaffinity"):
        ncpu = len(os.sched_getaffinity(0))
    else:                         # no affinity API, as on macOS
        ncpu = os.cpu_count() or 1
    if ncpu < 2 or len(lacking) < 2:
        return
    try:
        builders = [_BUILDERS.get(q.p) or _TwinBuilder(q.p, ncpu) for q in lacking]
    except OSError:
        return
    error = None
    try:
        sent = []
        for q, builder in zip(lacking, builders):
            try:
                builder.send((q.variety, q.p, q.degree_cap, d, set(q.comps)))
                sent.append((q, builder))
            except BuildError as exc:
                error = error or exc
        for q, builder in sent:
            try:
                q._install(builder.receive())
            except Exception as exc:
                error = error or exc
    except BaseException:
        # interrupted mid-exchange: the children's replies are out of step
        for builder in list(_BUILDERS.values()):
            builder.close(force=True)
        raise
    if error is not None:
        raise error


def stop_twin_builders():
    """Stop build_twins' children; returns {p: the child's report}, where a
    report ({"pid", "freealg", "maxrss_mb"}) is None for a child that had died."""
    return {p: _BUILDERS[p].stop() for p in list(_BUILDERS)}


atexit.register(stop_twin_builders)


class _TwinBuilder:
    """The parent's end of one child process that builds GF(p) components.

    Requests and replies are pickles on the child's stdin and stdout.  The
    child gets max(1, ncpu // 2) BLAS threads, set before numpy loads, and
    exits when its stdin reaches EOF, so none outlives the parent.
    """

    def __init__(self, p, ncpu):
        env = dict(os.environ)
        env.update(dict.fromkeys(_BLAS_THREAD_VARS, str(max(1, ncpu // 2))))
        src = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.p = p
        self.proc = subprocess.Popen([sys.executable, "-c", _CHILD_CODE, src],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
        _BUILDERS[p] = self

    def send(self, msg):
        try:
            pickle.dump(msg, self.proc.stdin, protocol=pickle.HIGHEST_PROTOCOL)
            self.proc.stdin.flush()
        except OSError:
            raise self._died() from None

    def receive(self):
        try:
            status, payload = pickle.load(self.proc.stdout)
        except (EOFError, OSError, pickle.UnpicklingError):
            raise self._died() from None
        if status == "error":
            raise payload
        return payload

    def stop(self):
        """End the child; returns its report, or None if it had died."""
        try:
            self.send("stop")
            report = self.receive()
        except BuildError:
            report = None
        self.close()
        return report

    def close(self, force=False):
        """Forget this child and reap it; force kills it first (it may be mid-build)."""
        if _BUILDERS.get(self.p) is self:
            del _BUILDERS[self.p]
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
    """Child side of build_twins: answer requests from stdin until EOF or "stop"."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)    # the parent handles interrupts
    out = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)                 # stray output goes to stderr, not into the replies
    inp = sys.stdin.buffer
    while True:
        try:
            msg = pickle.load(inp)
        except EOFError:
            return
        if msg == "stop":
            reply = ("ok", {"pid": os.getpid(), "freealg": os.path.dirname(os.path.abspath(__file__)),
                            "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024})
        else:
            variety, p, degree_cap, d, held = msg
            try:
                q = get_quotient(variety, GF(p), degree_cap)
                q.component(d)
                reply = ("ok", [(e, tuple(getattr(q.comps[e], name) for name in _WIRE))
                                for e in _tower(d, q.flavor) if e not in held])
            except Exception as exc:
                reply = ("error", _portable(exc))
        try:
            pickle.dump(reply, out, protocol=pickle.HIGHEST_PROTOCOL)
            out.flush()
        except BrokenPipeError:
            return
        if msg == "stop":
            return


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

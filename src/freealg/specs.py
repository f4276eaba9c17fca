"""The relation specs of a component: which substitution instances of the
defining identities give its relation rows, and in what order.

A spec gives each identity variable a sorted multiset of basis elements of
lower components.  Multilinear identities of arity n are substituted only
into sorted n-multisets, once per element of a basis of the S_n-module their
permutations span (orbit_basis); identities with a repeated variable take
every multiset per variable.  iter_relation_specs is the one enumerator of
both fields: it numbers the specs and yields them in blocks of one shape,
each with its row indices and one basis-index array per slot.  row_windows
cuts a block stream into consecutive row windows.
"""

from __future__ import annotations

import collections
import itertools

import numpy as np

from . import linalg
from .term import (Monomial, Polynomial, count_monomials, mdeg_key, mdeg_leq, mdeg_sub,
                   mdeg_total, sub_multidegrees)


class BuildError(RuntimeError):
    pass


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


SpecBlock = collections.namedtuple("SpecBlock", "f_idx shape rows idx")


def iter_relation_specs(identities, d, dim_of, orbits=None):
    """Deterministic stream of the blended-instance specs at multidegree d, in SpecBlocks.

    A spec gives each identity variable a sorted multiset of lower basis
    elements, the multidegrees adding up to d.  With orbits (from
    orbit_basis), the multilinear identities of arity n take only sorted
    n-multisets ms: one spec per (ms, (f_idx, sigma)) in the basis, giving
    variable v_k the element ms[sigma[k]] (when ms repeats an element, specs
    that give the same instance are numbered once).  Identities with a
    repeated variable, and every identity when orbits is None, take every
    multiset per variable.  Rows are numbered by arity, per-slot
    multidegrees, basis indices and orbit basis element, which depend only
    on the identities, the orbit bases and the lower dimensions; so a row
    index names the same row in every field whose orbit bases agree.

    A block holds every spec of one shape: identity f_idx and, per variable
    in increasing order, (variable, ((mdeg, label), ...)), the multidegree
    of each slot of its multiset and labels numbering its distinct elements.
    rows holds the specs' row indices, ascending, and idx[k, s] the basis
    index spec rows[k] puts in slot s (slots numbered across the variables).
    The blocks of one per-slot multidegree assignment, whose rows are
    contiguous, come before the next assignment's.
    """
    jobs = []                   # (profile, [(f_idx, [(variable, its slots)])]) in row order
    for n, basis in (orbits or {}).items():
        elements = [(f_idx, [(v, [s]) for v, s in zip(multilinear_variables(identities[f_idx]),
                                                     sigma)]) for f_idx, sigma in basis]
        jobs.append(([(1, n)], elements))
    for f_idx, f in enumerate(identities):
        if orbits is None or multilinear_variables(f) is None:
            profile = identity_profile(f)
            at = np.cumsum([0] + [m for _, m in profile]).tolist()
            jobs.append((profile, [(f_idx, [(v, list(range(at[k], at[k + 1])))
                                            for k, (v, _) in enumerate(profile)])]))
    start = 0
    for profile, elements in jobs:
        for slots, idx in _multisets(profile, d, dim_of):
            patterns, inverse = _patterns(slots, idx)
            kept = []           # per pattern, the elements that give distinct instances
            for labels in patterns:
                seen = {}
                for j, (f_idx, variables) in enumerate(elements):
                    key = (f_idx, tuple(tuple(labels[s] for s in ss) for _, ss in variables))
                    seen.setdefault(key, j)
                kept.append(list(seen.values()))
            count = np.array([len(js) for js in kept])[inverse]
            offset = start + np.cumsum(count) - count
            parts = {}
            for u, (labels, js) in enumerate(zip(patterns, kept)):
                at = np.flatnonzero(inverse == u)
                for r, j in enumerate(js):
                    f_idx, variables = elements[j]
                    shape = tuple((v, tuple((slots[s][1], labels[s] - labels[ss[0]]) for s in ss))
                                  for v, ss in variables)
                    cols = [s for _, ss in variables for s in ss]
                    parts.setdefault((f_idx, shape), []).append((offset[at] + r, idx[at][:, cols]))
            yield from _blocks(parts)
            start += int(count.sum())


def _multisets(profile, d, dim_of):
    """Per assignment of multidegrees to the slots of a profile [(variable,
    multiplicity), ...] adding up to d, nondecreasing within each variable:
    (slots, idx), slots its [(variable, mdeg)] and idx a (specs, slots) array
    of the basis indices of every spec, sorted within each run of equal
    slots, in lexicographic order."""
    subs = sub_multidegrees(d) + [d]
    rank = {e: r for r, e in enumerate(sorted(subs, key=mdeg_key))}
    totals = {e: mdeg_total(e) for e in subs}
    names = [v for v, m in profile for _ in range(m)]
    last = len(names) - 1
    if last >= mdeg_total(d):
        return

    def assign(k, remaining, acc):
        # a slot's multidegree is at least its predecessor's within a variable,
        # and leaves at least degree 1 for each later slot; the last slot takes
        # what remains
        least = rank[acc[-1][1]] if k and names[k] == names[k - 1] else -1
        if k == last:
            if rank[remaining] >= least:
                yield acc + [(names[k], remaining)]
            return
        cap = totals[remaining] - (last - k)
        for e in subs:
            if rank[e] >= least and totals[e] <= cap and mdeg_leq(e, remaining):
                yield from assign(k + 1, mdeg_sub(remaining, e), acc + [(names[k], e)])

    for slots in assign(0, d, []):
        pools = []
        for (_, e), run in itertools.groupby(slots):
            cnt = len(list(run))
            if cnt == 1:
                pools.append(np.arange(dim_of(e))[:, None])
            else:
                combos = itertools.combinations_with_replacement(range(dim_of(e)), cnt)
                pools.append(np.array(list(combos), dtype=np.int64).reshape(-1, cnt))
        sizes = [pool.shape[0] for pool in pools]
        if 0 in sizes:
            continue
        grid = np.indices(sizes).reshape(len(sizes), -1)
        yield slots, np.concatenate([pool[g] for pool, g in zip(pools, grid)], axis=1)


def _patterns(slots, idx):
    """The equality labels of each spec's multisets, per slot, numbering each
    variable's distinct elements in order: (patterns, inverse), the distinct
    label lists and each spec's pattern."""
    new = np.ones(idx.shape, dtype=np.int64)
    repeats = [s for s in range(1, len(slots)) if slots[s] == slots[s - 1]]
    for s in repeats:
        new[:, s] = idx[:, s] != idx[:, s - 1]
    if repeats:
        code = new @ (1 << np.arange(len(slots), dtype=np.int64))
        _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    else:
        first, inverse = np.zeros(1, dtype=np.int64), np.zeros(idx.shape[0], dtype=np.int64)
    labels = np.cumsum(new[first], axis=1)
    starts = [[w for w, _ in slots].index(v) for v, _ in slots]    # each variable's first slot
    return (labels - labels[:, starts]).tolist(), inverse.reshape(-1)


def _blocks(parts):
    """SpecBlocks from {(f_idx, shape): [(rows, idx), ...]}."""
    out = []
    for (f_idx, shape), pieces in parts.items():
        rows, idx = pieces[0]
        if len(pieces) > 1:
            rows = np.concatenate([r for r, _ in pieces])
            order = np.argsort(rows)
            rows, idx = rows[order], np.concatenate([x for _, x in pieces])[order]
        out.append(SpecBlock(f_idx, shape, rows, idx))
    return out


def row_windows(blocks, size):
    """Cut a block stream into consecutive row windows of at most size rows.

    size is a number, or a function that gives the next window's, called
    each time a window is to be cut (after the one before it was used).
    Yields (start, stop, parts): parts lists (block, lo, hi) for each block
    with rows in [start, stop), which are block.rows[lo:hi].  A window is cut
    only when every row below its stop has been read; as a multidegree
    assignment's blocks take contiguous rows, that holds whenever the
    largest row read is one less than the number read.
    """
    rows = size if callable(size) else lambda: size
    pending, start, seen, top = [], 0, 0, -1
    blocks = iter(blocks)
    while True:
        block = next(blocks, None)
        if block is not None:
            pending.append([block, 0])
            seen += block.rows.shape[0]
            top = max(top, int(block.rows[-1]))
            if top != seen - 1:
                continue
        while seen - start >= (want := rows()) or (block is None and start < seen):
            stop = min(start + want, seen)
            parts = []
            for entry in pending:
                b, lo = entry
                hi = int(np.searchsorted(b.rows, stop))
                if hi > lo:
                    parts.append((b, lo, hi))
                    entry[1] = hi
            pending = [entry for entry in pending if entry[1] < entry[0].rows.shape[0]]
            yield start, stop, parts
            start = stop
        if block is None:
            return

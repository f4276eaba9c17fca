"""Reference GF(p) relation rows, one spec at a time, for ModularQuotient's bulk assembly.

Each spec's identity terms are substituted on every distinct arrangement of
each variable's multiset, each substituted term is evaluated node by node (a
basis pair is a row of the struct map S, any other product an outer product
times the split's block of S, found through the component's offsets), and
the root product is added into the pair coordinates of its split.  It reads only a built quotient's components,
identity terms and field.
"""

import itertools

import numpy as np

from freealg import quotient
from freealg.term import COMMUTATIVE, mdeg_add, mdeg_key


def relation_row(q, comp, f_idx, assignment):
    """The relation row of one spec of comp in q, reduced mod p."""
    p = q.p
    row = np.zeros(comp.paircols)
    bound = 0
    for enc, coeff, leaf_maps in _term_instances(q, f_idx, assignment):
        # each placement moves an entry by at most |coeff| (p - 1); reduce
        # before the accumulated bound could leave the exact float64 range
        step = abs(coeff) * (p - 1) * len(leaf_maps)
        bound += step
        if bound > 2 ** 53 - p:
            quotient.mod_p(row, p, out=row)
            bound = p + step
        for leaf_map in leaf_maps:
            _place_term(q, row, comp, enc, leaf_map, coeff)
    return quotient.mod_p(row, p, out=row)


def _arrangements(multiset):
    """Distinct orderings of a multiset of (mdeg, index) pairs."""
    return sorted(set(itertools.permutations(multiset)))


def _term_instances(q, f_idx, assignment):
    var_names = sorted(assignment)
    combos = list(itertools.product(*(_arrangements(assignment[v]) for v in var_names)))
    for enc, coeff, positions in q._identity_terms()[f_idx]:
        leaf_maps = []
        for combo in combos:
            leaf_map = {}
            for v, arrangement in zip(var_names, combo):
                leaf_map.update(zip(positions[v], arrangement))
            leaf_maps.append(leaf_map)
        yield enc, coeff, leaf_maps


def _one_hot(n, i):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def _sym_block(v1, v2, p):
    W = quotient.mod_p(np.outer(v1, v2), p)
    n = W.shape[0]
    block = (W + W.T)[np.triu_indices(n)]
    block[[quotient.tri_index(i, i, n) for i in range(n)]] -= W.diagonal()
    return quotient.mod_p(block, p, out=block)


def _pair_product(q, d1, i, d2, j):
    if q.flavor == COMMUTATIVE and (mdeg_key(d1), i) > (mdeg_key(d2), j):
        d1, i, d2, j = d2, j, d1, i
    if q.flavor == COMMUTATIVE and d1 == d2:
        idx = quotient.tri_index(min(i, j), max(i, j), q.comps[d1].dim)
    else:
        idx = i * q.comps[d2].dim + j
    comp = q.comps[mdeg_add(d1, d2)]
    return comp.S[comp.offsets[(d1, d2)] + idx]


def _product(q, d1, v1, d2, v2):
    if q.flavor == COMMUTATIVE and mdeg_key(d1) > mdeg_key(d2):
        d1, v1, d2, v2 = d2, v2, d1, v1
    if q.flavor == COMMUTATIVE and d1 == d2:
        block = _sym_block(v1, v2, q.p)
    else:
        block = quotient.mod_p(np.outer(v1, v2).reshape(-1), q.p)
    comp = q.comps[mdeg_add(d1, d2)]
    off = comp.offsets[(d1, d2)]
    return quotient.matmul_mod(block, comp.S[off:off + block.shape[0]], q.p)


def _eval_tree(q, enc, i, leaf_map):
    if enc[i] != 0:
        e, idx = leaf_map[i]
        return e, "b", idx, i + 1
    d1, k1, p1, j = _eval_tree(q, enc, i + 1, leaf_map)
    d2, k2, p2, nxt = _eval_tree(q, enc, j, leaf_map)
    if k1 == "b" and k2 == "b":
        vec = _pair_product(q, d1, p1, d2, p2)
    else:
        v1 = p1 if k1 == "v" else _one_hot(q.comps[d1].dim, p1)
        v2 = p2 if k2 == "v" else _one_hot(q.comps[d2].dim, p2)
        vec = _product(q, d1, v1, d2, v2)
    return mdeg_add(d1, d2), "v", vec, nxt


def _place_term(q, row, comp, enc, leaf_map, coeff):
    d1, k1, p1, j = _eval_tree(q, enc, 1, leaf_map)
    d2, k2, p2, _ = _eval_tree(q, enc, j, leaf_map)
    if q.flavor == COMMUTATIVE and mdeg_key(d1) > mdeg_key(d2):
        d1, k1, p1, d2, k2, p2 = d2, k2, p2, d1, k1, p1
    n1, n2 = q.comps[d1].dim, q.comps[d2].dim
    off = comp.offsets[(d1, d2)]
    if q.flavor == COMMUTATIVE and d1 == d2:
        if k1 == "b" and k2 == "b":
            row[off + quotient.tri_index(min(p1, p2), max(p1, p2), n1)] += coeff
            return
        v1 = p1 if k1 == "v" else _one_hot(n1, p1)
        v2 = p2 if k2 == "v" else _one_hot(n2, p2)
        row[off:off + quotient.tri_size(n1)] += coeff * _sym_block(v1, v2, q.p)
    elif k1 == "b" and k2 == "b":
        row[off + p1 * n2 + p2] += coeff
    elif k1 == "b":
        base = off + p1 * n2
        row[base:base + n2] += coeff * p2
    elif k2 == "b":
        row[off + p2: off + n1 * n2: n2] += coeff * p1
    else:
        row[off:off + n1 * n2] += coeff * quotient.mod_p(np.outer(p1, p2).reshape(-1), q.p)

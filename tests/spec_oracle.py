"""Reference relation-spec stream, one spec at a time, for quotient.iter_relation_specs.

The stream the block enumerator replaced: (row_index, identity_index,
assignment), where assignment maps each identity variable to a canonically
sorted tuple of (mdeg, basis_index) pairs.  With orbits, each sorted
n-multiset ms of lower basis elements is substituted into each orbit basis
element (f_idx, sigma), v_k getting ms[sigma[k]], and an instance that a
repeated element makes equal to an earlier one is skipped; every other
identity takes every multiset per variable.  expand turns the block stream
back into this list.
"""

import itertools

from freealg import specs
from freealg.term import mdeg_key, mdeg_leq, mdeg_sub, mdeg_total, sub_multidegrees


def relation_specs(identities, d, dim_of, orbits=None):
    row_index = 0
    for n, basis in (orbits or {}).items():
        variables = [specs.multilinear_variables(identities[f_idx]) for f_idx, _ in basis]
        for assignment in _assignments([(1, n)], d, dim_of):
            ms = assignment[1]
            seen = set()
            for (f_idx, sigma), fvars in zip(basis, variables):
                args = tuple(ms[s] for s in sigma)
                if (f_idx, args) in seen:
                    continue
                seen.add((f_idx, args))
                yield row_index, f_idx, dict(zip(fvars, ((x,) for x in args)))
                row_index += 1
    for f_idx, f in enumerate(identities):
        if orbits is not None and specs.multilinear_variables(f) is not None:
            continue
        for assignment in _assignments(specs.identity_profile(f), d, dim_of):
            yield row_index, f_idx, assignment
            row_index += 1


def expand(blocks):
    """The (row_index, identity_index, assignment) list of a stream of
    specs.SpecBlocks, by row index."""
    out = []
    for block in blocks:
        for k, row in enumerate(block.rows.tolist()):
            assignment, s = {}, 0
            for v, slots in block.shape:
                assignment[v] = tuple((e, int(block.idx[k, s + j]))
                                      for j, (e, _) in enumerate(slots))
                s += len(slots)
            out.append((row, block.f_idx, assignment))
    return sorted(out, key=lambda spec: spec[0])


def _assignments(profile, d, dim_of):
    total = mdeg_total(d)
    all_sub = sub_multidegrees(d) + [d]
    slots = [(v, k) for v, m in profile for k in range(m)]
    nslots = len(slots)
    if nslots > total:
        return

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

    for mass in mdeg_assignments(0, d, []):
        per_var = {}
        for var, e in mass:
            per_var.setdefault(var, []).append(e)
        var_names = sorted(per_var)
        per_var_choices = []
        for var in var_names:
            groups = []
            for e, g in itertools.groupby(per_var[var]):
                cnt = len(list(g))
                groups.append([(e, idxs) for idxs in
                               itertools.combinations_with_replacement(range(dim_of(e)), cnt)])
            per_var_choices.append([tuple(sel) for sel in itertools.product(*groups)])
        for combo in itertools.product(*per_var_choices):
            assignment = {}
            for var, chosen in zip(var_names, combo):
                assignment[var] = tuple((e, i) for e, idxs in chosen for i in idxs)
            yield assignment

#!/usr/bin/env python3
"""Print one JSON line per quotient component of a fixed list of builds, so that
the builds of two checkouts can be compared with diff:

    python scripts/compare_components.py --src OLD_CHECKOUT > old.jsonl
    python scripts/compare_components.py --src NEW_CHECKOUT > new.jsonl
    diff old.jsonl new.jsonl

A line gives the case (variety, q, target multidegree), the field of the
quotient (0 for QQ, else p), a multidegree d at or below the target, and the
component at d: dim, rank, mode, pair columns and SHA-256 digests of its
selected row indices, of its struct map (split keys and blocks, in split
order; a block is the slice of S from its split's offset to the next) and of
its relation-spec stream (every (row index, identity, assignment) of
iter_relation_specs at d, by row index, whether the checkout yields them one
spec at a time or in blocks of one shape).  A
case over QQ also reports, at every multidegree at or below the target, the
GF(p) quotients of both SELECTION_PRIMES, built in process: its twins,
however many of them its lifts asked for.  Each case starts from empty
caches.  The struct map is read from each component's S and offsets; an
older checkout that stored it elsewhere is read with that checkout's own
copy of this script.
"""

import argparse
import hashlib
import json
import os
import sys
from fractions import Fraction

# (variety, q, characteristic or prime, target multidegree)
CASES = [
    ("assosymmetric", None, 0, (1, 1, 1, 1, 1)),
    ("assosymmetric", None, 0, (3, 3, 1)),
    ("assosymmetric", None, 0, (1, 0, 2, 0, 1)),
    ("dual_assosymmetric", None, 0, (1, 1, 1, 1, 1, 1)),
    ("jordan", None, 0, (2, 2, 2)),
    ("jordan", None, 0, (0, 2, 1, 1)),
    ("lie_triple", None, 0, (3, 3)),
    ("lie_triple", None, 0, (2, 2, 2)),
    ("assosymmetric", None, 999983, (6, 0, 1)),
    ("assosymmetric", None, 3, (2, 0, 1, 1)),
    ("assosymmetric", None, 3, (5, 1, 1)),       # 538 pair columns: many full panels
    ("jordan", None, 999983, (3, 2, 1)),
    ("lie_triple", None, 999983, (2, 2, 1)),
    ("assder", None, 5, (2, 1, 1, 1)),
    ("quasi_assosymmetric", Fraction(3), 0, (2, 1, 1, 1)),
    ("quasi_assosymmetric", Fraction(-1, 3), 0, (2, 1, 1, 1)),
]


def _digest(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else part.encode())
    return h.hexdigest()


def _block_bytes(block, np):
    """A struct block as bytes: GF(p) blocks are int arrays, QQ blocks lists
    of {struct column: int or Fraction}."""
    if isinstance(block, np.ndarray):
        return repr(block.shape).encode() + block.astype(np.int64).tobytes()
    return json.dumps([sorted((j, str(x)) for j, x in col.items()) for col in block]).encode()


def _specs(qa, d, quotient):
    """The relation specs of qa at d, by row:
    [row, identity, [[variable, [[mdeg, basis index], ...]], ...]]."""
    out = []
    for item in quotient.iter_relation_specs(qa.identities, d, qa.dim, qa.orbits()):
        if isinstance(item, tuple) and len(item) == 3 and isinstance(item[2], dict):
            row, f_idx, assignment = item
            out.append((row, f_idx, sorted(assignment.items())))
            continue
        for k, row in enumerate(item.rows.tolist()):
            assignment, s = [], 0
            for v, slots in item.shape:
                assignment.append((v, [(e, int(item.idx[k, s + j]))
                                       for j, (e, _) in enumerate(slots)]))
                s += len(slots)
            out.append((row, item.f_idx, assignment))
    out.sort(key=lambda spec: spec[0])
    return [[row, f_idx, [[v, [[list(e), int(i)] for e, i in ms]] for v, ms in assignment]]
            for row, f_idx, assignment in out]


def _line(case, field, d, comp, np, specs):
    name, q, _, target = case
    ends = list(comp.offsets.values())[1:] + [comp.paircols]
    struct = [part for (split, off), end in zip(comp.offsets.items(), ends)
              for part in (repr(split), _block_bytes(comp.S[off:end], np))]
    return json.dumps({"variety": name, "q": None if q is None else str(q),
                       "target": list(target), "field": field, "d": list(d),
                       "dim": comp.dim, "rank": comp.rank, "mode": comp.mode,
                       "paircols": comp.paircols,
                       "selected": _digest([json.dumps(list(comp.selected))]),
                       "struct": _digest(struct),
                       "specs": _digest([json.dumps(specs)])})


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    help="root of the checkout whose src/freealg to run (default: this one)")
    args = ap.parse_args()
    sys.path.insert(0, os.path.join(os.path.abspath(args.src), "src"))
    import numpy as np
    from freealg import quotient, tideal
    from freealg.term import field_by_char, mdeg_key, sub_multidegrees

    try:
        for case in CASES:
            name, q, char, target = case
            quotient.clear_cache()
            qa = quotient.get_quotient(tideal.get_variety(name, q), field_by_char(char))
            qa.component(target)
            below = sorted(sub_multidegrees(target) + [target], key=mdeg_key)
            built = [qa]
            if char == 0:
                built += [quotient.ModularQuotient(qa.variety, p)
                          for p in quotient.SELECTION_PRIMES]
            for b in built:
                field = getattr(b, "p", 0)
                for d in below:
                    comp = b.component(d)
                    print(_line(case, field, d, comp, np, _specs(b, d, quotient)), flush=True)
    finally:
        quotient.clear_cache()


if __name__ == "__main__":
    main()

"""The benchmark's workloads: inputs made from a seed, and their known answers.

Every reference value below comes from the paper or from the algebra, never
from a run of freealg:

* lietriple(x, y, z) is a plus-identity of assosymmetric algebras (the
  paper's Lie-triple theorem), so every substitution instance of it is one.
* D(t1,t2,t3) = shest(t1,t2,t3) in the free assosymmetric algebra (the
  paper's star form of the triple-commutator element).
* Commutative associative algebras are assosymmetric, and a single monomial
  (planar, or starred in the plus algebra) never vanishes on a polynomial
  ring, so adding one to an identity gives a non-identity.  These are the
  controls.
* The degree-4 table, the multilinear and dual dimensions, the Koszul
  residual, the degree-4 plus-kernel classification, the characteristic-3
  branch and the Albert-algebra witness are the paper's stated results.

The seed picks the witness sample stream, the substitution instances in
modular_d8, and a relabeling of t1..t3 in the other verdict candidates; no
answer depends on any of them.  Relabelings are limited to those that leave
the candidate's multidegree as written: building [1,3,3] instead of [3,3,1]
changes the cost of exact_d7 by up to a quarter, which would make the seed,
not the program, set the measured time.  DEFAULT_SEED gives the paper's
forms and witness seed.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

DEFAULT_SEED = 20240809
PERMUTATIONS = list(itertools.permutations((1, 2, 3)))
MODULAR_WARNING = "modular"


def pick(seed, choices):
    return choices[(seed - DEFAULT_SEED) % len(choices)]


def relabeling(seed, d):
    """Permutation of (1, 2, 3) that t_i is sent to, among those fixing multidegree d."""
    return pick(seed, [p for p in PERMUTATIONS if relabel_mdeg(d, p) == mdeg3(d)])


def relabel(text, perm):
    return re.sub(r"\bt([123])\b", lambda m: "t%d" % perm[int(m.group(1)) - 1], text)


def mdeg3(d):
    return tuple(d) + (0,) * (3 - len(d))


def relabel_mdeg(d, perm):
    out = [0] * 3
    for i, e in enumerate(d):
        out[perm[i] - 1] = e
    return tuple(out)


class Setup:
    """Module handles and varieties, looked up once before timing starts."""

    def __init__(self, variety_names):
        from freealg import albert27, engine, series, tideal
        self.albert27, self.engine, self.series, self.tideal = albert27, engine, series, tideal
        self.varieties = {name: tideal.get_variety(name) for name in variety_names}


def _modular(verdict):
    return any(MODULAR_WARNING in w for w in verdict.warnings)


def _verdict_item(s, variety, expr, char, mode, want_identity, want_mdeg, want_modular):
    def run():
        v = s.engine.is_identity(s.varieties[variety], expr, char, mode)
        ok = (v.is_identity == want_identity
              and v.multidegrees == [want_mdeg]
              and _modular(v) == want_modular)
        return ok, {"expr": expr, "char": char, "mode": mode,
                    "identity": v.is_identity, "multidegrees": [list(d) for d in v.multidegrees],
                    "warnings": list(v.warnings)}
    return run


# ---------------------------------------------------------------------------
# modular_d8: degree-8 verdicts on the two-prime GF(p) route.
# ---------------------------------------------------------------------------

# lietriple(x, y, z) has multidegree (1, 2, 1) in (x, y, z).  Each component
# below has more free monomials than the exact-route cap (24 024, 24 024 and
# 30 030), so its verdicts use two primes.  The cost is building the
# component's tower modulo both primes, the same for every instance listed.
D8_COMPONENTS = [
    ((6, 1, 1), "(((t1 t1)(t1 t1))((t1 t1) t2)) t3",
     ["lietriple(t1 t1, t1 t1, t2 t3)", "lietriple(t2 t3, t1 t1, t1 t1)",
      "lietriple(t1 t2, t1 t1, t1 t3)", "lietriple(t1 t3, t1 t1, t1 t2)"]),
    ((5, 3), "(((t1 t1)(t1 t1))((t1 t2) t2)) t2",
     ["lietriple(t1 t1, t1 t2, t1 t2)", "lietriple(t1 t2, t1 t2, t1 t1)",
      "lietriple(t2 t2, t1 t1, t1 t2)", "lietriple(t1 t2, t1 t1, t2 t2)"]),
    ((4, 4), "((t1 t1)(t1 t1))((t2 t2)(t2 t2))",
     ["lietriple(t1 t1, t1 t2, t2 t2)", "lietriple(t2 t2, t1 t2, t1 t1)",
      "lietriple((t1 t1)(t2 t2), t1, t2 t2)", "lietriple((t1 t1) t2, t2, (t1 t2) t1)"]),
]


def modular_d8(seed):
    def items(s):
        out = []
        for d, mono, instances in D8_COMPONENTS:
            cand = pick(seed, instances)
            tag = "-".join(map(str, d))
            out += [("verdict:lietriple-instance-plus:%s" % tag,
                     _verdict_item(s, "assosymmetric", cand, 0, "plus", True, d, True)),
                    ("control:lietriple-instance-plus-monomial:%s" % tag,
                     _verdict_item(s, "assosymmetric", "%s + %s" % (cand, mono), 0, "plus",
                                   False, d, True))]
        return out

    return ["assosymmetric"], items


# ---------------------------------------------------------------------------
# exact_d7: the paper's exact D = shest check at [3,3,1].
# ---------------------------------------------------------------------------

D7_CANDIDATE = "D(t1,t2,t3) - shest(t1,t2,t3)"
D7_MONOMIAL = "((t1 t1) t1)((t2 t2)(t2 t3))"
D7_MDEG = (3, 3, 1)


def exact_d7(seed):
    perm = relabeling(seed, D7_MDEG)
    cand = relabel(D7_CANDIDATE, perm)
    mono = relabel(D7_MONOMIAL, perm)
    return ["assosymmetric"], lambda s: [
        ("verdict:d-equals-shest",
         _verdict_item(s, "assosymmetric", cand, 0, "direct", True, D7_MDEG, False)),
        ("control:d-equals-shest-monomial",
         _verdict_item(s, "assosymmetric", "%s + %s" % (cand, mono), 0, "direct",
                       False, D7_MDEG, False)),
    ]


# ---------------------------------------------------------------------------
# tables: the paper's tables, many small components.
# ---------------------------------------------------------------------------

DEGREE4_TABLE = {(4,): 3, (3, 1): 7, (2, 2): 9, (2, 1, 1): 16, (1, 1, 1, 1): 29}
MULTILINEAR_DIMS = [1, 2, 7, 29, 136]
DUAL_DIMS = [1, 2, 5, 9, 9, 11]
KOSZUL_RESIDUAL = [0, 0, 0, 0, Fraction(3, 8)]     # 3/8 x^5
WITNESS_SAMPLES = 100
LIETRIPLE_MDEG = (1, 2, 1)


def tables(seed):
    lietriple = relabel("lietriple(t1,t2,t3)", relabeling(seed, LIETRIPLE_MDEG))

    def items(s):
        from freealg.term import QQ
        assym, dual = s.varieties["assosymmetric"], s.varieties["dual_assosymmetric"]
        assoc = s.varieties["associative"]
        dims = {}

        def degree4():
            got = {d: s.tideal.quotient_dim(assym, d, QQ) for d in DEGREE4_TABLE}
            return got == DEGREE4_TABLE, {"dims": [got[d] for d in DEGREE4_TABLE]}

        def multilinear(name, variety, want):
            def run():
                dims[name] = s.tideal.multilinear_dims(variety, len(want), QQ)
                return dims[name] == want, {"dims": dims[name]}
            return run

        def koszul():
            series = s.series
            resid = series.compose(series.from_dims(dims["assym"]),
                                   series.from_dims(dims["dual"][:5]), 5) \
                - series.TruncatedSeries.identity(5)
            want = series.TruncatedSeries.from_coeffs(KOSZUL_RESIDUAL)
            return resid == want, {"residual": str(resid)}

        def kernel(d):
            def run():
                engine = s.engine
                kb, _ = engine.plus_identity_kernel(assym, d, 0)
                jspan = engine.commutative_span(["jor1(t1,t2,t3,t4)"], d, 0)
                ka, _ = engine.plus_identity_kernel(assoc, d, 0)
                same = kb.same_span(jspan)
                contained = all(ka.contains(r) for r in kb.rows)
                return same and contained, {"kernel_dim": kb.rank, "equal_jor1_span": same,
                                            "in_associative_kernel": contained}
            return run

        def witness(expr, want_zero):
            def run():
                rep = s.albert27.sample_report(expr, seed, WITNESS_SAMPLES)
                if want_zero:
                    ok = rep["zero_count"] == WITNESS_SAMPLES
                else:
                    ok = rep["nonzero_count"] >= 1 and rep["witness"] is not None
                return ok, {"zero_count": rep["zero_count"]}
            return run

        out = [("degree4-table", degree4),
               ("multilinear-dims", multilinear("assym", assym, MULTILINEAR_DIMS)),
               ("dual-dims", multilinear("dual", dual, DUAL_DIMS)),
               ("koszul-residual", koszul)]
        for d in DEGREE4_TABLE:
            out.append(("plus-kernel:%s" % "-".join(map(str, d)), kernel(d)))
        for char in (0, 5):
            out.append(("verdict:lietriple-plus-char%d" % char,
                        _verdict_item(s, "assosymmetric", lietriple, char, "plus", True,
                                      LIETRIPLE_MDEG, False)))
        out.append(("verdict:wjor-plus-char3",
                    _verdict_item(s, "assosymmetric", "wjor(t1,t2,t3,t4)", 3, "plus", True,
                                  (1, 1, 1, 1), False)))
        out += [("witness:jor-zero", witness("jor(t1,t2)", True)),
                ("witness:lietriple-zero", witness("lietriple(t1,t2,t3)", True)),
                ("witness:glen-nonzero", witness("glen(t1,t2,t3)", False))]
        return out

    return ["assosymmetric", "dual_assosymmetric", "associative"], items


WORKLOADS = {"modular_d8": modular_d8, "exact_d7": exact_d7, "tables": tables}

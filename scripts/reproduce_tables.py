#!/usr/bin/env python3
"""Recompute every numeric table: component dimensions, fixed-basis residuals,
and the operadic composition residual.  Everything is exact."""

import argparse
import time

from freealg import engine, series, tideal
from freealg.term import QQ


def main():
    argparse.ArgumentParser(description=__doc__).parse_args()

    assym = tideal.get_variety("assosymmetric")
    dual = tideal.get_variety("dual_assosymmetric")

    print("== degree-4 components of the free assosymmetric algebra ==")
    for d in [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]:
        t0 = time.time()
        dim = tideal.quotient_dim(assym, d, QQ)
        print("  type %-12s dim %3d   (%.2fs)" % (list(d), dim, time.time() - t0))

    print("== multilinear dimensions ==")
    t0 = time.time()
    dims = tideal.multilinear_dims(assym, 5, QQ)
    print("  assosymmetric, degrees 1..5:      %s  (%.1fs)" % (dims, time.time() - t0))
    t0 = time.time()
    dual_dims = tideal.multilinear_dims(dual, 6, QQ)
    print("  dual presentation, degrees 1..6: %s  (%.1fs)" % (dual_dims, time.time() - t0))

    print("== composition residual ==")
    resid = series.koszul_residual(assym, dual, 5, QQ)[0]
    print("  G(G_dual(x)) - x = %s" % resid)
    print("  verdict: %s" % ("Koszul to this order" if resid.is_zero() else "not Koszul"))

    print("== fixed-basis residual coordinates (plus evaluation) ==")
    for label, expr, alpha in [
            ("quartic generator", "g4_1(t1)", (4,)),
            ("type [3,1] first", "g31_1(t1,t2)", (3, 1)),
            ("type [3,1] second", "g31_2(t1,t2)", (3, 1)),
            ("type [2,2] generator", "g22_1(t1,t2)", (2, 2)),
            ("type [2,1,1] first", "g211_1(t1,t2,t3)", (2, 1, 1))]:
        coords = engine.reduce_to_basis(assym, expr, alpha)
        nz = {m.to_text(): str(c) for m, c in coords.items() if c}
        print("  %-22s -> %s" % (label, nz if nz else "0 (identity)"))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""The degree-8 verification: the Glennie polynomial is a plus-identity of
assosymmetric algebras (two-prime modular strategy at characteristic 0, or
with --exact the exact route over the rationals, plus the characteristic-3
branch), with the element-equality check at [3,3,1] done exactly over the
rationals.  It ends with the peak RSS of this process and of each GF(p) child
process."""

import argparse
import resource
import time

from freealg import engine, quotient, tideal


def run(label, fn):
    t0 = time.time()
    verdict = fn()
    print("%-44s %s  (%.0fs)%s"
          % (label, "identity" if verdict.is_identity else "NOT an identity",
             time.time() - t0,
             "  [%s]" % "; ".join(verdict.warnings) if verdict.warnings else ""))
    return verdict.is_identity


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--skip-char3", action="store_true")
    ap.add_argument("--exact", action="store_true",
                    help="decide char-0 Glennie exactly (exact_column_cap=10**9)")
    args = ap.parse_args()
    assym = tideal.get_variety("assosymmetric")

    ok = run("star form of the triple-commutator element",
             lambda: engine.is_identity(assym, "D(t1,t2,t3) - shest(t1,t2,t3)", 0, "direct"))
    route = {"exact_column_cap": 10 ** 9} if args.exact else {}
    ok &= run("glennie, char 0 (%s)" % ("exact" if args.exact else "two-prime modular"),
              lambda: engine.is_identity(assym, "glen(t1,t2,t3)", 0, "plus", **route))
    if not args.skip_char3:
        ok &= run("glennie, char 3",
                  lambda: engine.is_identity(assym, "glen(t1,t2,t3)", 3, "plus"))
        ok &= run("multilinear jordan, char 3",
                  lambda: engine.is_identity(assym, "wjor(t1,t2,t3,t4)", 3, "plus"))
    reports = quotient.stop_twin_builders()
    print("peak RSS: parent %.1f MB" % (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024))
    for p, report in sorted(reports.items()):
        print("peak RSS: GF(%d) child %s" % (p, "unknown (it died or was killed)" if report is None
                                             else "%.1f MB" % report["maxrss_mb"]))
    raise SystemExit(0 if ok else 1)


if __name__ == "__main__":
    main()

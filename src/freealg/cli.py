"""Command-line front end: dimensions, identity checks, kernels, equivalences,
series, witness-model sampling, and the named check suites.

Reports carry the stable schema {check, claim_ref, verdict, char,
multidegrees, timing, warnings}, built by `engine.report_entry`; `--format
json` emits them verbatim.  The exit status is 0 when every sub-check has its
expected outcome, 1 when one is contradicted, and 2 on bad input or a build or
budget error, which is printed as one line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from . import albert27, engine, lang, series, tideal
from .quotient import DEFAULT_DEGREE_CAP, BuildError
from .term import COMMUTATIVE, PLANAR, FieldError, field_by_char, mdeg

# Failures caused by the input (expression, variety, prime, size, unreadable
# catalog file): reported in one line with exit status 2, apart from a
# contradicted check's status 1.
USER_ERRORS = (ValueError, OSError, BuildError, tideal.UnknownVariety, engine.EngineError)


@dataclass
class RunConfig:
    char: int = 0
    degree_cap: int = DEFAULT_DEGREE_CAP
    exact_column_cap: int = engine.EXACT_COLUMN_CAP
    fmt: str = "text"
    certificates: bool = False
    catalog_path: str | None = None

    def __post_init__(self):
        try:
            field_by_char(self.char)
        except FieldError as exc:
            raise ValueError("characteristic must be 0 or a prime (%s)" % exc) from None
        if self.degree_cap < 1:
            raise ValueError("the degree cap must be positive")
        if self.exact_column_cap < 0:
            raise ValueError("the exact column cap must not be negative")


def _parse_mdeg(text):
    """A --multidegree value; bad text is reported like any other bad input, in one line."""
    try:
        d = mdeg(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError("multidegree %r is not a list of counts" % (text,)) from None
    if not d:
        raise ValueError("multidegree %r has no positive entry" % (text,))
    return d


def _parse_q(text):
    """A rational --q; argparse reports ValueError as a usage error, not ZeroDivisionError."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (text,)) from None


def _get_variety(cfg, name, q=None):
    if q is not None and tideal.ALIASES.get(name, name) != "quasi_assosymmetric":
        raise ValueError("--q applies only to quasi_assosymmetric, not %r" % name)
    if cfg.catalog_path:
        extra = tideal.load_catalog_file(cfg.catalog_path)
        key = tideal.ALIASES.get(name, name)
        if key in extra:
            return extra[key]
    return tideal.get_variety(name, q)


def _emit(cfg, payload, text_lines):
    if cfg.fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_dim(cfg, args):
    v = _get_variety(cfg, args.variety, args.q)
    fld = field_by_char(cfg.char)
    ds = [_parse_mdeg(t) for t in args.multidegree]
    results = []
    for d in ds:
        t0 = time.time()
        dim = tideal.quotient_dim(v, d, fld, degree_cap=cfg.degree_cap)
        results.append(engine.report_entry("dim:%s:%s" % (v.name, ",".join(map(str, d))),
                                           "dimension", str(dim), cfg.char, [d],
                                           time.time() - t0))
    _emit(cfg, results, ["%s dim %s = %s" % (v.name, list(d), r["verdict"])
                         for d, r in zip(ds, results)])
    return 0


def cmd_check(cfg, args):
    v = _get_variety(cfg, args.variety, args.q)
    verdict = engine.is_identity(v, args.expr, cfg.char, args.mode,
                                 want_certificate=cfg.certificates,
                                 exact_column_cap=cfg.exact_column_cap,
                                 degree_cap=cfg.degree_cap)
    rep = verdict.as_report("check:%s" % args.expr, "identity-verdict")
    if cfg.certificates and verdict.certificate is not None:
        rep["certificate"] = {str(list(k)): val for k, val in verdict.certificate.items()}
    lines = ["%s on %s (char %d, %s mode): %s"
             % (args.expr, v.name, cfg.char, args.mode, rep["verdict"])]
    for w in verdict.warnings:
        lines.append("  warning: %s" % w)
    _emit(cfg, [rep], lines)
    return 0 if (verdict.is_identity == (not args.expect_nonidentity)) else 1


def cmd_expand(cfg, args):
    flavor = args.flavor
    p = lang.expand(args.expr, flavor)
    if args.star_expand:
        if flavor != COMMUTATIVE:
            raise ValueError("--star-expand needs commutative flavor")
        p = lang.star_expand(p)
    _emit(cfg, [engine.report_entry("expand:%s" % args.expr, "expansion", str(p), cfg.char,
                                    p.components())], [str(p)])
    return 0


def cmd_sigma_q(cfg, args):
    p = lang.apply_sigma_q(lang.expand(args.expr, PLANAR), args.q)
    _emit(cfg, [engine.report_entry("sigma-q:%s" % args.expr, "q-commutator-image", str(p),
                                    cfg.char, p.components())], [str(p)])
    return 0


def cmd_kernel(cfg, args):
    v = _get_variety(cfg, args.variety, args.q)
    d = _parse_mdeg(args.multidegree)
    t0 = time.time()
    kb, comm = engine.plus_identity_kernel(v, d, cfg.char, cfg.degree_cap)
    polys = engine.kernel_polynomials(kb, comm, field_by_char(cfg.char))
    payload = [engine.report_entry(
        "kernel:%s:%s" % (v.name, ",".join(map(str, d))), "plus-identity-kernel",
        "dim %d" % kb.rank, cfg.char, [d], time.time() - t0,
        kernel=[str(p) for p in polys])]
    lines = ["kernel dimension %d at %s" % (kb.rank, list(d))]
    lines += ["  %s" % p for p in payload[0]["kernel"]]
    _emit(cfg, payload, lines)
    return 0


def cmd_equiv(cfg, args):
    ambient = _get_variety(cfg, args.ambient)
    res = engine.systems_equivalent(args.left, args.right, ambient,
                                    [_parse_mdeg(t) for t in args.multidegree], cfg.char,
                                    cfg.degree_cap)
    ok = all(res.values())
    payload = [engine.report_entry(
        "equiv", "identity-systems-equivalent", "pass" if ok else "fail", cfg.char, res,
        per_degree={",".join(map(str, d)): bool(v) for d, v in res.items()})]
    lines = ["%s: %s" % (list(d), "equivalent" if v else "different")
             for d, v in res.items()]
    _emit(cfg, payload, lines)
    return 0 if ok else 1


def cmd_koszul(cfg, args):
    v = tideal.get_variety("assosymmetric")
    dv = tideal.get_variety("dual_assosymmetric")
    order = args.order
    t0 = time.time()
    resid, dims, dual_dims = series.koszul_residual(v, dv, order, field_by_char(cfg.char),
                                                    degree_cap=cfg.degree_cap)
    koszul = resid.is_zero()
    payload = [engine.report_entry(
        "koszul:order-%d" % order, "koszul-composition-residual", "residual %s" % resid,
        cfg.char, [[1] * n for n in range(1, order + 1)], time.time() - t0,
        dims=dims, dual_dims=dual_dims, koszul=koszul)]
    lines = [
        "multilinear dims:      %s" % dims,
        "dual multilinear dims: %s" % dual_dims,
        "composition residual:  %s" % resid,
        "verdict: %s" % ("Koszul up to this order" if koszul else "not Koszul"),
    ]
    _emit(cfg, payload, lines)
    return 0


def cmd_albert(cfg, args):
    t0 = time.time()
    report = albert27.sample_report(args.expr, args.seed, args.samples, args.bound)
    payload = [engine.report_entry(
        "albert:%s" % args.expr, "hermitian-octonion-samples",
        "%d/%d zero" % (report["zero_count"], report["samples"]), 0, [], time.time() - t0,
        report=report)]
    lines = ["%s: %d/%d samples evaluate to zero (seed %d)"
             % (args.expr, report["zero_count"], report["samples"], report["seed"])]
    if report["witness"] is not None:
        lines.append("first nonzero witness at sample %d" % report["witness"]["sample_index"])
    _emit(cfg, payload, lines)
    return 0


def cmd_suite(cfg, args):
    # a suite runs fixed checks: a global flag it would ignore is refused
    for flag, given in [("--degree-cap", cfg.degree_cap != DEFAULT_DEGREE_CAP),
                        ("--exact-column-cap", cfg.exact_column_cap != engine.EXACT_COLUMN_CAP),
                        ("--certificate", cfg.certificates),
                        ("--char", cfg.char and args.name in ("albert", "char3"))]:
        if given:
            raise ValueError("suite %s runs fixed checks: %s does not apply" % (args.name, flag))
    kw = {"char": cfg.char}
    if args.name == "albert":
        kw = {"seed": args.seed, "samples": args.samples}
    if args.name in ("main1", "char3"):
        kw["heavy"] = not args.skip_heavy
    # open --out first: an unwritable path fails before the suite runs
    with open(args.out, "w") if args.out else contextlib.nullcontext() as fh:
        result = engine.theorem_suite(args.name, **kw)
        if fh:
            json.dump(result, fh, indent=2, sort_keys=True)
    lines = []
    for e in result["entries"]:
        lines.append("[%s] %s" % ("PASS" if e["verdict"] == "pass" else "FAIL", e["check"]))
    lines.append("suite %s: %s" % (args.name, "PASS" if result["passed"] else "FAIL"))
    _emit(cfg, result["entries"] if cfg.fmt == "json" else result, lines)
    return 0 if result["passed"] else 1


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors are one line, like every other bad input.

    add_subparsers gives the subcommands the same class.
    """

    def error(self, message):
        self.exit(2, "freealg: error: %s\n" % message)


def build_parser():
    ap = _Parser(
        prog="freealg",
        description="Exact identity verification in free nonassociative algebras")
    ap.add_argument("--char", type=int, default=0, help="field characteristic (0 or prime)")
    ap.add_argument("--degree-cap", type=int, default=DEFAULT_DEGREE_CAP)
    ap.add_argument("--exact-column-cap", type=int, default=engine.EXACT_COLUMN_CAP,
                    help="largest free-coordinate component decided over the rationals")
    ap.add_argument("--format", dest="fmt", choices=["text", "json"], default="text")
    ap.add_argument("--certificate", dest="certificates", action="store_true")
    ap.add_argument("--catalog", dest="catalog_path", default=None,
                    help="extra variety catalog file")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("dim", help="dimension of a relatively-free component")
    p.add_argument("variety")
    p.add_argument("--multidegree", action="append", required=True)
    p.add_argument("--q", type=_parse_q, default=None)
    p.set_defaults(fn=cmd_dim)

    p = sub.add_parser("check", help="identity verdict for an expression")
    p.add_argument("variety")
    p.add_argument("expr")
    p.add_argument("--mode", choices=["direct", "plus"], default="direct")
    p.add_argument("--q", type=_parse_q, default=None)
    p.add_argument("--expect-nonidentity", action="store_true")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("expand", help="expand an expression to a polynomial")
    p.add_argument("expr")
    p.add_argument("--flavor", choices=[PLANAR, COMMUTATIVE], default=PLANAR)
    p.add_argument("--star-expand", action="store_true")
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("sigma-q", help="apply the q-commutator endomorphism")
    p.add_argument("expr")
    p.add_argument("--q", type=_parse_q, required=True)
    p.set_defaults(fn=cmd_sigma_q)

    p = sub.add_parser("kernel", help="plus-identity kernel at a multidegree")
    p.add_argument("variety")
    p.add_argument("--multidegree", required=True)
    p.add_argument("--q", type=_parse_q, default=None)
    p.set_defaults(fn=cmd_kernel)

    p = sub.add_parser("equiv", help="compare consequence spans of identity systems")
    p.add_argument("--left", action="append", required=True)
    p.add_argument("--right", action="append", required=True)
    p.add_argument("--ambient", default="commutative_magmatic")
    p.add_argument("--multidegree", action="append", required=True)
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("koszul", help="operadic composition residual")
    p.add_argument("--order", type=int, default=5)
    p.set_defaults(fn=cmd_koszul)

    p = sub.add_parser("albert", help="sample an expression on the witness model")
    p.add_argument("expr")
    p.add_argument("--seed", type=int, default=20240809)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--bound", type=int, default=3)
    p.set_defaults(fn=cmd_albert)

    p = sub.add_parser("suite", help="run a named check suite")
    p.add_argument("name", choices=sorted(engine.SUITES))
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument("--seed", type=int, default=20240809)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--skip-heavy", action="store_true",
                   help="skip the degree-8 checks in main1/char3")
    p.set_defaults(fn=cmd_suite)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = RunConfig(char=args.char, degree_cap=args.degree_cap,
                        exact_column_cap=args.exact_column_cap, fmt=args.fmt,
                        certificates=args.certificates, catalog_path=args.catalog_path)
        return args.fn(cfg, args)
    except USER_ERRORS as e:
        print("%s: error: %s" % (ap.prog, e), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

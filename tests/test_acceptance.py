"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Runtime budgets are asserted as stated.  The degree-8 checks share the
per-process component caches, so later criteria reuse the heavy builds of
earlier ones exactly as a single verification session would.
"""

import json
import time
from fractions import Fraction

import pytest

from free_oracle import member_of_span
from freealg import albert27, engine, lang, series, tideal
from freealg.term import COMMUTATIVE, PLANAR, QQ, field_by_char

ASSYM = tideal.get_variety("assosymmetric")
DUAL = tideal.get_variety("dual_assosymmetric")
ASSOC = tideal.get_variety("associative")

_RESULTS = {}


def report(num, ok, text):
    _RESULTS[num] = ok
    print("ACCEPTANCE %02d %s: %s" % (num, "PASS" if ok else "FAIL", text))
    assert ok, "criterion %d failed: %s" % (num, text)


def test_criterion_01_degree4_dimension_table():
    t0 = time.time()
    want = {(4,): 3, (3, 1): 7, (2, 2): 9, (2, 1, 1): 16, (1, 1, 1, 1): 29}
    got = {d: tideal.quotient_dim(ASSYM, d, QQ) for d in want}
    dt = time.time() - t0
    report(1, got == want and dt < 60,
           "degree-4 dims %s in %.1fs" % (sorted(got.values()), dt))


def test_criterion_02_multilinear_dimensions():
    t0 = time.time()
    dims = tideal.multilinear_dims(ASSYM, 5, QQ)
    dt = time.time() - t0
    report(2, dims == [1, 2, 7, 29, 136] and dt < 60,
           "multilinear dims %s in %.1fs" % (dims, dt))


def test_criterion_03_dual_multilinear_dimensions():
    t0 = time.time()
    dims = tideal.multilinear_dims(DUAL, 7, QQ)
    dt = time.time() - t0
    report(3, dims == [1, 2, 5, 9, 9, 11, 13] and dt < 600,
           "dual dims %s in %.1fs" % (dims, dt))


def test_criterion_04_lie_triple_plus_identity():
    t0 = time.time()
    v0 = engine.is_identity(ASSYM, "lietriple(t1,t2,t3)", 0, "plus")
    v5 = engine.is_identity(ASSYM, "lietriple(t1,t2,t3)", 5, "plus")
    dt = time.time() - t0
    ok = (v0.is_identity and v5.is_identity
          and v0.multidegrees == [(1, 2, 1)] and dt < 1.0)
    report(4, ok, "lie-triple plus-identity at char 0 and 5 in %.3fs" % dt)


def test_criterion_05_glennie_plus_identity_modular():
    t0 = time.time()
    v = engine.is_identity(ASSYM, "glen(t1,t2,t3)", 0, "plus")
    dt = time.time() - t0
    modular = any("modular" in w for w in v.warnings)
    ok = v.is_identity and v.multidegrees == [(3, 3, 2)] and modular and dt < 1800
    report(5, ok, "glennie plus-identity (two primes, cross-checked) in %.0fs" % dt)


def test_criterion_06_d_element_equals_star_polynomial():
    t0 = time.time()
    v = engine.is_identity(ASSYM, "D(t1,t2,t3) - shest(t1,t2,t3)", 0, "direct")
    dt = time.time() - t0
    exact = not any("modular" in w for w in v.warnings)
    ok = v.is_identity and v.multidegrees == [(3, 3, 1)] and exact and dt < 120
    report(6, ok, "triple-commutator element equals its star form (exact, %.0fs)" % dt)


def test_criterion_07_residual_coordinates():
    def by_text(coords):
        return {m.to_text(): c for m, c in coords.items() if c}

    got4 = by_text(engine.reduce_to_basis(ASSYM, "g4_1(t1)", (4,)))
    ok = got4 == engine._expected_coords(
        {"((t1 t1) t1) t1": -2, "(t1 (t1 t1)) t1": 4, "(t1 t1)(t1 t1)": -2})
    base22 = {"(t1 t1)(t2 t2)": 1, "(t2 (t1 t2)) t1": -2, "((t1 t1) t2) t2": -1,
              "((t2 t1) t2) t1": 2}
    for mu1, mu2 in [(1, 0), (1, -1)]:
        expr = engine._mu_combo([mu1, mu2], ["g22_1(t1,t2)", "g22_1(t2,t1)"])
        got = by_text(engine.reduce_to_basis(ASSYM, expr or "0", (2, 2))) if expr != "0" \
            else {}
        want = engine._expected_coords(
            {k: 6 * (mu1 + mu2) * v for k, v in base22.items()})
        ok = ok and got == want
    base211 = {"(t1 t1)(t2 t3)": 1, "(t3 (t1 t2)) t1": -2, "((t1 t1) t2) t3": -1,
               "((t3 t1) t2) t1": 2}
    for mu in [(1, 0, 0), (1, -1, 0)]:
        expr = engine._mu_combo(list(mu), ["g211_1(t1,t2,t3)", "g211_2(t1,t2,t3)",
                                           "g211_2(t1,t3,t2)"])
        got = by_text(engine.reduce_to_basis(ASSYM, expr, (2, 1, 1)))
        want = engine._expected_coords(
            {k: -6 * sum(mu) * v for k, v in base211.items()})
        ok = ok and got == want
    report(7, ok, "fixed-basis residual coordinates match the pinned multiples")


def test_criterion_08_characteristic_three_branch():
    t0 = time.time()
    vw = engine.is_identity(ASSYM, "wjor(t1,t2,t3,t4)", 3, "plus")
    dt_w = time.time() - t0
    t0 = time.time()
    vg = engine.is_identity(ASSYM, "glen(t1,t2,t3)", 3, "plus")
    dt_g = time.time() - t0
    ok = vw.is_identity and dt_w < 1.0 and vg.is_identity and dt_g < 1800
    report(8, ok, "char-3 plus-identities: wjor %.3fs, glennie %.0fs" % (dt_w, dt_g))


def test_criterion_09_kernel_classification():
    t0 = time.time()
    ok = True
    for d in engine.DEGREE4_TYPES:
        kb, comm = engine.plus_identity_kernel(ASSYM, d, 0)
        jspan = engine.commutative_span(["jor1(t1,t2,t3,t4)"], d, 0)
        ka, _ = engine.plus_identity_kernel(ASSOC, d, 0)
        ok = ok and kb.same_span(jspan)
        ok = ok and all(ka.contains(r) for r in kb.rows)
    dt = time.time() - t0
    report(9, ok and dt < 300,
           "plus-kernels equal the skew-Leibniz span and embed in the associative "
           "kernels (%.1fs)" % dt)


def test_criterion_10_lemma_suite():
    t0 = time.time()
    ok = True
    fails = []
    for name in ["lemmas", "arman", "quasi"]:
        res = engine.theorem_suite(name)
        if not res["passed"]:
            ok = False
            fails += [e["check"] for e in res["entries"] if e["verdict"] != "pass"]
    dt = time.time() - t0
    report(10, ok and dt < 600, "lemma suites in %.0fs%s"
           % (dt, "" if ok else "; failing: %s" % fails))


def test_criterion_11_sigma_q_golden():
    t0 = time.time()
    ok = True
    for q in (2, 3, 5):
        got = lang.apply_sigma_q(lang.expand("lsym(t1,t2,t3)", PLANAR), -q)
        ok = ok and got == engine.sigma_display("lsym", q)
    dt = time.time() - t0
    report(11, ok and dt < 1.0, "q-commutator images match the 12-term displays (%.3fs)" % dt)


def test_criterion_12_koszul_residual():
    dims = tideal.multilinear_dims(ASSYM, 5, QQ)
    dual_dims = tideal.multilinear_dims(DUAL, 5, QQ)
    resid = series.compose(series.from_dims(dims), series.from_dims(dual_dims), 5) \
        - series.TruncatedSeries.identity(5)
    want = series.TruncatedSeries.from_coeffs([0, 0, 0, 0, Fraction(3, 8)])
    report(12, resid == want and not resid.is_zero(),
           "composition residual %s certifies non-Koszulity" % resid)


def test_criterion_13_independence_witness():
    t0 = time.time()
    rj = albert27.sample_report("jor(t1,t2)", seed=20240809, samples=100)
    rl = albert27.sample_report("lietriple(t1,t2,t3)", seed=20240809, samples=100)
    rg = albert27.sample_report("glen(t1,t2,t3)", seed=20240809, samples=100)
    dt = time.time() - t0
    ok = (rj["zero_count"] == 100 and rl["zero_count"] == 100
          and rg["nonzero_count"] >= 1 and rg["witness"] is not None and dt < 300)
    report(13, ok, "witness model: jordan 100/100 zero, lie-triple 100/100 zero, "
           "glennie nonzero at sample %s (%.0fs)"
           % ((rg["witness"] or {}).get("sample_index"), dt))


def test_criterion_14_jordan_vs_lie_triple():
    t0 = time.time()
    jordan = tideal.get_variety("jordan")
    lt = tideal.get_variety("lie_triple")
    _, res1 = member_of_span(
        jordan, lang.expand("lietriple(t1,t2,t3)", COMMUTATIVE), QQ)
    _, res2 = member_of_span(lt, lang.expand("jor(t1,t2)", COMMUTATIVE), QQ)
    dt = time.time() - t0
    ok = (not res1) and bool(res2) and dt < 60
    report(14, ok, "lie-triple follows from the jordan law but not conversely (%.1fs)" % dt)


def _reports_for_criteria_1_to_9():
    """Regenerate the reports behind criteria 1..9; timing zeroed."""
    out = {}
    out["c1"] = {str(list(d)): tideal.quotient_dim(ASSYM, d, QQ)
                 for d in engine.DEGREE4_TYPES}
    out["c2"] = tideal.multilinear_dims(ASSYM, 5, QQ)
    out["c3"] = tideal.multilinear_dims(DUAL, 6, QQ)
    reps = []
    for char in (0, 5):
        v = engine.is_identity(ASSYM, "lietriple(t1,t2,t3)", char, "plus")
        reps.append(v.as_report("lietriple", "c4"))
    out["c4"] = reps
    out["c5"] = engine.is_identity(ASSYM, "glen(t1,t2,t3)", 0, "plus").as_report(
        "glen", "c5")
    out["c6"] = engine.is_identity(ASSYM, "D(t1,t2,t3) - shest(t1,t2,t3)", 0,
                                   "direct").as_report("d-shest", "c6")
    out["c7"] = {m.to_text(): str(c) for m, c in
                 engine.reduce_to_basis(ASSYM, "g4_1(t1)", (4,)).items()}
    out["c8"] = [engine.is_identity(ASSYM, "wjor(t1,t2,t3,t4)", 3, "plus").as_report(
                     "wjor", "c8"),
                 engine.is_identity(ASSYM, "glen(t1,t2,t3)", 3, "plus").as_report(
                     "glen3", "c8")]
    kern = {}
    for d in engine.DEGREE4_TYPES:
        kb, _ = engine.plus_identity_kernel(ASSYM, d, 0)
        jspan = engine.commutative_span(["jor1(t1,t2,t3,t4)"], d, 0)
        kern[str(list(d))] = {"dim": kb.rank, "equal": kb.same_span(jspan)}
    out["c9"] = kern

    def zero_timing(e):
        if isinstance(e, dict):
            return {k: (0.0 if k == "timing" else zero_timing(v)) for k, v in e.items()}
        if isinstance(e, list):
            return [zero_timing(x) for x in e]
        return e

    return json.dumps(zero_timing(out), sort_keys=True)


def test_criterion_15_determinism_across_runs():
    snaps = [_reports_for_criteria_1_to_9() for _ in range(3)]
    ok = snaps[0] == snaps[1] == snaps[2]
    report(15, ok, "criteria 1-9 reports are bit-identical across three regenerations")


def test_all_criteria_ran():
    missing = [n for n in range(1, 16) if n not in _RESULTS]
    assert not missing, "criteria missing from this run: %s" % missing

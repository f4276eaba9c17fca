"""DSL parsing, macro expansion, star expansion, sigma_q and polarization."""

import hashlib
import itertools
import json
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from freealg import lang
from freealg.lang import (MacroError, ParseError, apply_sigma_q, blended_instance,
                          expand, parse, polarize, star_expand)
from freealg.term import COMMUTATIVE, GF, PLANAR, FlavorError, Monomial, Polynomial, QQ

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "expansions.json")


def test_parse_basic_shapes():
    assert parse("[t1,t2]")[0] == "bracket"
    assert parse("A(t1,t2,t3)")[0] == "assoc"
    t = parse("glen(t1,t2,t3)")
    assert t[0] == "call" and t[1] == "glen" and len(t[3]) == 3


def test_parse_errors():
    with pytest.raises(ParseError, match="end of input"):
        parse("t1 +")
    with pytest.raises(ParseError, match="end of input"):
        parse("(t1 t2")
    with pytest.raises(MacroError):
        expand("nosuchmacro(t1)", PLANAR)
    with pytest.raises(MacroError):
        expand("lsym(t1,t2)", PLANAR)
    for text in ("1/0 t1", "q{q=1/0}(t1,t2)", "lsym_q{q=-1/0}(t1,t2,t3)"):
        with pytest.raises(ParseError, match="zero denominator"):
            expand(text, PLANAR)
    for text in ("t99999999999999999999 t1", "t10000000", "t0", "t%d" % (lang.MAX_VARIABLE + 1)):
        with pytest.raises(ParseError, match="outside 1..%d" % lang.MAX_VARIABLE):
            parse(text)
    assert expand("t%d" % lang.MAX_VARIABLE, PLANAR).multidegree()[-1] == 1
    # digit runs past int()'s limit on digits
    for text in ("7" * 5000 + " t1", "t" + "9" * 5000):
        with pytest.raises(ParseError, match="number of 5000 digits is too long") as err:
            expand(text, PLANAR)
        assert err.value.pos == 0


def test_expand_bracket():
    p = expand("[t1,t2]", PLANAR)
    a, b = Monomial.leaf(1), Monomial.leaf(2)
    assert p.terms == {Monomial.pair(a, b): Fraction(1), Monomial.pair(b, a): Fraction(-1)}


def test_expand_plus_associator_eight_terms():
    p = expand("J(t1,t2,t3)", PLANAR)
    want = expand("t1(t2 t3) + t1(t3 t2) + (t2 t3)t1 + (t3 t2)t1"
                  " - (t1 t2)t3 - (t2 t1)t3 - t3(t1 t2) - t3(t2 t1)", PLANAR)
    assert p == want and len(p) == 8


def test_expand_lsym_four_unit_terms():
    p = expand("lsym(t1,t2,t3)", PLANAR)
    assert p == expand("t1(t2 t3) - (t1 t2)t3 - t2(t1 t3) + (t2 t1)t3", PLANAR)
    assert sorted(p.terms.values()) == [-1, -1, 1, 1]


def test_bracket_in_commutative_flavor_warns_to_zero():
    with pytest.warns(UserWarning):
        p = expand("[t1,t2]", COMMUTATIVE)
    assert p.is_zero()


def test_star_expand_examples():
    p = star_expand(expand("t1 t2", COMMUTATIVE))
    assert p == expand("t1 t2 + t2 t1", PLANAR)
    p = star_expand(expand("(t1 t1) t2", COMMUTATIVE))
    assert p == expand("2 ((t1 t1) t2) + 2 (t2 (t1 t1))", PLANAR)
    lt = star_expand(expand("lietriple(t1,t2,t3)", COMMUTATIVE))
    assert len(lt) == 24
    assert lt == expand("J(t1, t2 @ t2, t3) - 2 (t2 @ J(t1,t2,t3))", PLANAR)


def test_sigma_q_display_example():
    got = apply_sigma_q(expand("(t2 t3) t1", PLANAR), Fraction(2))
    want = expand("(t2 t3)t1 + 2 (t3 t2)t1 + 2 t1(t2 t3) + 4 t1(t3 t2)", PLANAR)
    assert got == want


def test_sigma_zero_is_identity():
    p = expand("glen(t1,t2,t3)", PLANAR)
    assert apply_sigma_q(p, 0) == p


@pytest.mark.parametrize("q", [2, 3, 5, Fraction(1, 2)])
def test_sigma_minus_q_of_lsym_matches_display(q):
    from freealg.engine import sigma_display
    assert apply_sigma_q(expand("lsym(t1,t2,t3)", PLANAR), -q) == sigma_display("lsym", q)
    assert apply_sigma_q(expand("rsym(t1,t2,t3)", PLANAR), -q) == sigma_display("rsym", q)


@settings(max_examples=30)
@given(st.sampled_from(["t1 t2", "[t1,t2]", "A(t1,t2,t3)", "t1(t2 t3)"]),
       st.sampled_from(["t3", "t1 t1", "t2 t3"]),
       st.integers(-3, 3))
def test_sigma_q_is_a_homomorphism_to_the_q_product(e_text, f_text, q):
    e = expand(e_text, PLANAR)
    f = expand(f_text, PLANAR)
    lhs = apply_sigma_q(e * f, q)
    se, sf = apply_sigma_q(e, q), apply_sigma_q(f, q)
    rhs = se * sf + (sf * se).scale(q)
    assert lhs == rhs


@settings(max_examples=30)
@given(st.sampled_from(["t1", "t1 t2", "t2(t1 t3)", "t1 t1"]),
       st.sampled_from(["t2", "t3 t1", "t2 t2"]))
def test_star_expand_is_a_homomorphism(a_text, b_text):
    a = expand(a_text, COMMUTATIVE)
    b = expand(b_text, COMMUTATIVE)
    assert star_expand(a * b) == star_expand(a).star(star_expand(b))


def test_expand_is_linear():
    e1, e2 = "lsym(t1,t2,t3)", "A(t1,t2,t3)"
    lhs = expand("2 %s - 3 %s" % (e1, e2), PLANAR)
    rhs = expand(e1, PLANAR).scale(2) - expand(e2, PLANAR).scale(3)
    assert lhs == rhs


def _polarize_oracle(p, var, replacements):
    """Brute force: the sum over all permutations of the replacements, repeats included."""
    acc = Polynomial.zero(p.flavor, QQ)
    for perm in itertools.permutations(replacements):
        for m, c in p.terms.items():
            pos = [i for i, x in enumerate(m.enc) if x == var]
            enc = list(m.enc)
            for slot, v in zip(pos, perm):
                enc[slot] = v
            acc = acc + Polynomial.unit(Monomial.from_enc(p.flavor, tuple(enc)), c)
    return acc


def test_polarize_examples():
    p = polarize(expand("t1 t1", PLANAR), 1, [2, 3])
    assert p == expand("t2 t3 + t3 t2", PLANAR)
    jor = expand("jor(t1,t2)", COMMUTATIVE)
    pol = polarize(jor, 1, [1, 3, 4])
    assert pol.multidegree() == (1, 1, 1, 1)
    # brute-force assignment oracle: sum over all 3! relabelings of the three slots
    assert pol == _polarize_oracle(jor, 1, [1, 3, 4])


@pytest.mark.parametrize("flavor", [PLANAR, COMMUTATIVE])
def test_polarize_counts_repeated_replacements(flavor):
    # t2 replaces two of the three occurrences: each arrangement counts 2! times
    p = expand("(t1 t1) t1 + 2 t1 (t1 t1)", flavor)
    pol = polarize(p, 1, [2, 2, 3])
    assert pol == _polarize_oracle(p, 1, [2, 2, 3])
    assert pol == blended_instance(p, {1: (Monomial.leaf(2, flavor),) * 2
                                          + (Monomial.leaf(3, flavor),)}).scale(2)


def test_polarization_recovers_split_associator_identity():
    # polarizing the squared-middle identity in its repeated variable gives
    # twice the split-middle identity
    sq = expand("A(t1, t3 t3, t2) - 2 t3 A(t1,t3,t2)", COMMUTATIVE)
    pol = polarize(sq, 3, [3, 4])
    split = expand("A(t1, t3 t4, t2) - t3 A(t1,t4,t2) - t4 A(t1,t3,t2)", COMMUTATIVE)
    assert pol == split.scale(2)


def test_polarize_rejects_inhomogeneous():
    p = expand("t1 t1 + t1 t2", PLANAR)
    with pytest.raises(ValueError):
        polarize(p, 1, [2, 3])


def test_blended_instance_is_plain_substitution_when_multilinear():
    f = expand("lsym(t1,t2,t3)", PLANAR)
    (a,) = expand("t1 t2", PLANAR).terms
    inst = blended_instance(f, {1: (a,), 2: (Monomial.leaf(3),), 3: (Monomial.leaf(1),)})
    want = expand("lsym((t1 t2), t3, t1)", PLANAR)
    assert inst == want


def test_blended_instance_identity_assignment():
    f = expand("jor(t1,t2)", COMMUTATIVE)
    triv = blended_instance(f, {1: (Monomial.leaf(1, COMMUTATIVE),) * 3,
                                2: (Monomial.leaf(2, COMMUTATIVE),)})
    assert triv == f


def test_free_algebra_relation_between_associators():
    z = expand("J(t1,t2,t3) - A(t1,t2,t3) + A(t3,t2,t1)"
               " - (t1(t3 t2) - t3(t1 t2) - (t2 t1)t3 + (t2 t3)t1)", PLANAR)
    assert z.is_zero()


def test_jor1_symmetries():
    j1 = expand("jor1(t1,t2,t3,t4)", COMMUTATIVE)
    assert (j1 + expand("jor1(t2,t1,t3,t4)", COMMUTATIVE)).is_zero()
    assert (j1 - expand("jor1(t1,t2,t4,t3)", COMMUTATIVE)).is_zero()


def test_macro_q_parameter():
    p = expand("lsym_q{q=2}(t1,t2,t3)", PLANAR)
    assert p == apply_sigma_q(expand("lsym(t1,t2,t3)", PLANAR), -2)
    with pytest.raises(FlavorError):
        expand("lsym_q{q=2}(t1,t2,t3)", COMMUTATIVE)
    # the sigma_q image tree is made once per q
    body = lang.MACROS["lsym_q"].body
    assert body({"q": Fraction(2)}) is body({"q": Fraction(2)}) is not body({"q": Fraction(3)})


def test_macro_takes_only_its_declared_parameters():
    with pytest.raises(MacroError, match="jor takes no parameter q"):
        expand("jor{q=3}(t1,t2)", PLANAR)
    with pytest.raises(MacroError, match="lsym_q takes no parameter p"):
        expand("lsym_q{p=2}(t1,t2,t3)", PLANAR)
    with pytest.raises(MacroError, match="missing parameter q"):
        expand("rsym_q(t1,t2,t3)", PLANAR)


# Compound arguments for the golden expansions; glen, shest and D, of degree
# 8, 7 and 7, take a shorter third one.
GOLDEN_ARGS = ["t1 t2", "t3 - 1/2 t1", "(t2 t4) t1", "t4 + 2 t2 t3"]
GOLDEN_ARGS_DEEP = ["t1 t2", "t3 - 1/2 t1", "t2 t4"]


def golden_expansion_cases():
    """(expr, flavor, char) for every built-in macro with compound arguments:
    both flavors, or planar at q = 2 and q = -1/3 for the sigma_q macros."""
    out = []
    for name, mac in sorted(lang.MACROS.items()):
        args = ", ".join((GOLDEN_ARGS_DEEP if name in ("glen", "shest", "D")
                          else GOLDEN_ARGS)[:mac.arity])
        if mac.params:
            calls = [("%s{q=%s}(%s)" % (name, q, args), PLANAR) for q in ("2", "-1/3")]
        else:
            calls = [("%s(%s)" % (name, args), flavor) for flavor in (PLANAR, COMMUTATIVE)]
        out += [(expr, flavor, char) for expr, flavor in calls for char in (0, 7)]
    return out


@pytest.mark.filterwarnings("ignore:Lie bracket expands to zero")
def test_macro_expansions_match_golden():
    with open(GOLDEN) as fh:
        golden = {(g["expr"], g["flavor"], g["char"]): g["sha256"] for g in json.load(fh)}
    cases = golden_expansion_cases()
    assert sorted(cases) == sorted(golden)
    for expr, flavor, char in cases:
        p = expand(expr, flavor, QQ if char == 0 else GF(char))
        assert hashlib.sha256(str(p).encode()).hexdigest() == golden[expr, flavor, char], \
            (expr, flavor, char)


def test_q_product_literal():
    p = expand("q{q=2/3}(t1,t2)", PLANAR)
    assert p == expand("t1 t2", PLANAR) + expand("t2 t1", PLANAR).scale(Fraction(2, 3))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([
    "lsym(t1,t2,t3)", "wjor(t1,t2,t3,t4)", "g22_1(t1,t2)",
    "1/2 (t1 @ t2) - 3 t3(t1 t2)", "shest(t1,t2,t3)"]))
def test_print_parse_round_trip(text):
    p = expand(text, PLANAR)
    assert expand(str(p), PLANAR) == p


def test_zero_polynomial_prints_and_parses():
    z = Polynomial.zero(PLANAR)
    assert str(z) == "0"
    assert expand("0", PLANAR).is_zero()

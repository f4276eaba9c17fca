"""Identity DSL: parsing, printing, macro expansion and derived operations.

Grammar (whitespace-insensitive):

    sum      := [sign] term (('+'|'-') term)*
    term     := [rational] product
    product  := factors ('@' factors)*          # '@' is the Jordan star, loosest
    factors  := atom (['*'] atom)*              # juxtaposition / '*': the product
    atom     := var | '(' sum ')' | '[' sum ',' sum ']'
              | 'A' '(' s,s,s ')' | 'J' '(' s,s,s ')'
              | 'q' '{q=' rational '}' '(' s ',' s ')'
              | NAME ['{' NAME '=' rational '}'] '(' args ')'
    var      := 't' digits                      # index in 1..MAX_VARIABLE

Products are left-associative; 'A' is the associator of the ambient product,
'J' the associator of the star.  In commutative flavor the star expands as
2*(product) and a literal Lie bracket expands to zero (with a warning).

A macro call is expanded by substituting its argument trees for t1..tk in
the macro's expression tree; lsym_q and rsym_q build theirs from the sigma_q
image (planar only).  A call may set only the parameters its macro declares,
and must set all of them.
"""

from __future__ import annotations

import itertools
import warnings
from collections import Counter
from fractions import Fraction
from math import factorial, prod

from .term import (COMMUTATIVE, PLANAR, FlavorError, Monomial, Polynomial, QQ, leaf_positions,
                   linear_combination, map_monomials, slot_arrangements)

MAX_VARIABLE = 1000     # largest index k of a variable t_k; the suites use t1..t5


class ParseError(ValueError):
    def __init__(self, msg, pos):
        super().__init__("%s (at position %d)" % (msg, pos))
        self.pos = pos


class MacroError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Tokenizer.
# ---------------------------------------------------------------------------

_SYMBOLS = "()[]{},@*+-=/"


def _tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            toks.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("num", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError("unexpected character %r" % ch, i)
    toks.append(("end", None, n))
    return toks


# ---------------------------------------------------------------------------
# Parser producing expression trees (plain nested tuples, hashable).
# ---------------------------------------------------------------------------

def _describe(tok):
    """A token as error messages name it."""
    return "end of input" if tok[0] == "end" else repr(tok[1])


class _Parser:
    def __init__(self, text):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            raise ParseError("expected %r, got %s" % (kind, _describe(t)), t[2])
        return t

    def parse(self):
        e = self.parse_sum()
        t = self.peek()
        if t[0] != "end":
            raise ParseError("trailing input %r" % (t[1],), t[2])
        return e

    def parse_sum(self):
        terms = []
        sign = Fraction(1)
        t = self.peek()
        if t[0] in "+-":
            self.next()
            sign = Fraction(-1) if t[0] == "-" else Fraction(1)
        terms.append(self.parse_term(sign))
        while True:
            t = self.peek()
            if t[0] == "+":
                self.next()
                terms.append(self.parse_term(Fraction(1)))
            elif t[0] == "-":
                self.next()
                terms.append(self.parse_term(Fraction(-1)))
            else:
                break
        if len(terms) == 1:
            return terms[0]
        return ("sum", tuple(terms))

    def parse_rational(self):
        t = self.expect("num")
        num = t[1]
        if self.peek()[0] == "/":
            self.next()
            den = self.expect("num")
            if den[1] == 0:
                raise ParseError("zero denominator", den[2])
            return Fraction(num, den[1])
        return Fraction(num)

    def parse_term(self, sign):
        coeff = sign
        t = self.peek()
        if t[0] == "num":
            coeff = sign * self.parse_rational()
            # a bare number is only legal as the zero polynomial
            if self.peek()[0] in ("end", "+", "-", ",", ")", "]"):
                if coeff == 0:
                    return ("sum", ())
                raise ParseError("standalone scalar %s (free algebras have no unit)" % coeff, t[2])
        e = self.parse_product()
        if coeff == 1:
            return e
        return ("scale", coeff, e)

    def parse_product(self):
        e = self.parse_factors()
        while self.peek()[0] == "@":
            self.next()
            e = ("star", e, self.parse_factors())
        return e

    def parse_factors(self):
        e = self.parse_atom()
        while True:
            t = self.peek()
            if t[0] == "*":
                self.next()
                e = ("prod", e, self.parse_atom())
            elif t[0] in ("name", "(", "["):
                e = ("prod", e, self.parse_atom())
            else:
                return e

    def parse_args(self, n=None):
        self.expect("(")
        args = [self.parse_sum()]
        while self.peek()[0] == ",":
            self.next()
            args.append(self.parse_sum())
        self.expect(")")
        if n is not None and len(args) != n:
            raise ParseError("expected %d arguments, got %d" % (n, len(args)), self.peek()[2])
        return tuple(args)

    def parse_atom(self):
        t = self.next()
        if t[0] == "(":
            e = self.parse_sum()
            self.expect(")")
            return e
        if t[0] == "[":
            a = self.parse_sum()
            self.expect(",")
            b = self.parse_sum()
            self.expect("]")
            return ("bracket", a, b)
        if t[0] == "name":
            name = t[1]
            if name.startswith("t") and name[1:].isdigit():
                k = int(name[1:])
                if not 1 <= k <= MAX_VARIABLE:
                    raise ParseError("variable index %d outside 1..%d" % (k, MAX_VARIABLE), t[2])
                return ("var", k)
            if name == "A":
                return ("assoc",) + self.parse_args(3)
            if name == "J":
                return ("passoc",) + self.parse_args(3)
            params = ()
            if self.peek()[0] == "{":
                self.next()
                pname = self.expect("name")[1]
                self.expect("=")
                neg = False
                if self.peek()[0] == "-":
                    self.next()
                    neg = True
                pval = self.parse_rational()
                if neg:
                    pval = -pval
                self.expect("}")
                params = ((pname, pval),)
            if name == "q":
                if not params or params[0][0] != "q":
                    raise ParseError("q-product needs {q=...}", t[2])
                args = self.parse_args(2)
                return ("qprod", params[0][1], args[0], args[1])
            args = self.parse_args()
            return ("call", name, params, args)
        if t[0] == "end":
            raise ParseError("unexpected end of input", t[2])
        raise ParseError("unexpected token %r" % (t[1],), t[2])


def parse(text: str):
    """Parse DSL text to an expression tree."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Macro table.
# ---------------------------------------------------------------------------

class MacroDef:
    def __init__(self, arity, body_text=None, builder=None, params=()):
        self.arity = arity
        self.body_text = body_text
        self.builder = builder      # callable(**params) -> planar expression tree in t1..tk
        self.params = params
        self._body = None

    def body(self, params):
        """The macro's expression tree in t1..tk at these parameter values."""
        if self.builder is not None:
            return self.builder(**params)
        if self._body is None:
            self._body = parse(self.body_text)
        return self._body


def _sigma_builder(base_text):
    def build(q):
        image = apply_sigma_q(expand(base_text, PLANAR), -q)
        terms = map_monomials(image, lambda m: ("var", m.enc[0]), lambda a, b: ("prod", a, b))
        return ("sum", tuple(("scale", c, tree) for c, tree in terms))
    return build


MACROS = {
    "lsym": MacroDef(3, "A(t1,t2,t3) - A(t2,t1,t3)"),
    "rsym": MacroDef(3, "A(t1,t2,t3) - A(t1,t3,t2)"),
    "jor": MacroDef(2, "A(t1,t2,t1 t1)"),
    "wjor": MacroDef(4, "A(t2,t1,t3 t4) + A(t3,t1,t4 t2) + A(t4,t1,t2 t3)"),
    "jor1": MacroDef(4, "t1(t2(t3 t4)) - t2(t1(t3 t4)) - t3(t1(t2 t4))"
                        " + t3(t2(t1 t4)) - (t1(t2 t3))t4 + (t2(t1 t3))t4"),
    "jor2": MacroDef(4, "wjor(t1,t2,t3,t4) - wjor(t2,t1,t3,t4)"
                        " + wjor(t3,t1,t2,t4) - wjor(t4,t1,t2,t3)"),
    "lietriple": MacroDef(3, "A(t1, t2 t2, t3) - t2 @ A(t1,t2,t3)"),
    "assder": MacroDef(4, "A(t1, t2 t3, t4) - t2 A(t1,t3,t4) - A(t1,t2,t4) t3"),
    "shest": MacroDef(3, "-3 (J(t1,t3,t2) @ (J(t1,t1, 1/2 (t2 @ t2)) - J(t1,t1,t2) @ t2))"
                         " - 2 J(t1, J(t1, J(t1,t3,t2), t2), t2)"),
    "glen": MacroDef(3, "shest(t1, t2, t3 @ t3) - 2 (t3 @ shest(t1,t2,t3))"),
    "D": MacroDef(3, "[(([t1,t2] @ [t1,t2]) @ [t1,t2]), t3]"),
    "g4_1": MacroDef(1, "A(t1,t1,t1 t1)"),
    "g31_1": MacroDef(2, "A(t1,t2,t1 t1)"),
    "g31_2": MacroDef(2, "t2(t1(t1 t1)) + 2 t1(t1(t1 t2)) - 3 t1(t2(t1 t1))"),
    "g22_1": MacroDef(2, "(t1 t1)(t2 t2) - t1(t1(t2 t2)) - 2 t2(t1(t1 t2)) + 2 (t1 t2)(t1 t2)"),
    "g211_1": MacroDef(3, "A(t1,t1,t2 t3) + A(t2,t1,t3 t1) + A(t3,t1,t1 t2)"),
    "g211_2": MacroDef(3, "2 A(t1,t2,t1 t3) + A(t3,t2,t1 t1)"),
    "g1111_1": MacroDef(4, "wjor(t1,t2,t3,t4)"),
    "h22": MacroDef(2, "g22_1(t2,t1) - g22_1(t1,t2)"),
    "h211_1": MacroDef(3, "g211_1(t1,t2,t3) - g211_2(t1,t2,t3)"),
    "h211_2": MacroDef(3, "g211_2(t1,t2,t3) - g211_2(t1,t3,t2)"),
    "lsym_q": MacroDef(3, builder=_sigma_builder("A(t1,t2,t3) - A(t2,t1,t3)"), params=("q",)),
    "rsym_q": MacroDef(3, builder=_sigma_builder("A(t1,t2,t3) - A(t1,t3,t2)"), params=("q",)),
}


def tree_substitute(tree, mapping):
    """Simultaneously replace ('var', k) leaves by mapping[k] trees."""
    kind = tree[0]
    if kind == "var":
        return mapping.get(tree[1], tree)
    if kind == "sum":
        return ("sum", tuple(tree_substitute(e, mapping) for e in tree[1]))
    if kind == "scale":
        return ("scale", tree[1], tree_substitute(tree[2], mapping))
    if kind == "qprod":
        return ("qprod", tree[1], tree_substitute(tree[2], mapping), tree_substitute(tree[3], mapping))
    if kind == "call":
        return ("call", tree[1], tree[2], tuple(tree_substitute(e, mapping) for e in tree[3]))
    return (kind,) + tuple(tree_substitute(e, mapping) for e in tree[1:])


# ---------------------------------------------------------------------------
# Expansion to sparse polynomials.
# ---------------------------------------------------------------------------

def expand(e, flavor, field=QQ) -> Polynomial:
    """Fully expand an expression tree (or DSL text) in the given flavor."""
    if isinstance(e, str):
        e = parse(e)
    return _expand(e, flavor, field)


def _expand(e, flavor, field):
    kind = e[0]
    if kind == "var":
        return Polynomial.variable(e[1], flavor, field)
    if kind == "sum":
        return linear_combination(flavor, field, [(field.one, _expand(part, flavor, field))
                                                  for part in e[1]])
    if kind == "scale":
        return _expand(e[2], flavor, field).scale(e[1])
    if kind == "prod":
        return _expand(e[1], flavor, field) * _expand(e[2], flavor, field)
    if kind == "star":
        a, b = _expand(e[1], flavor, field), _expand(e[2], flavor, field)
        if flavor == COMMUTATIVE:
            return (a * b).scale(2)
        return a.star(b)
    if kind == "bracket":
        a, b = _expand(e[1], flavor, field), _expand(e[2], flavor, field)
        if flavor == COMMUTATIVE:
            warnings.warn("Lie bracket expands to zero in commutative flavor")
            return Polynomial.zero(flavor, field)
        return a * b - b * a
    if kind == "qprod":
        q = e[1]
        a, b = _expand(e[2], flavor, field), _expand(e[3], flavor, field)
        if flavor == COMMUTATIVE:
            return (a * b).scale(1 + q)
        return a * b + (b * a).scale(q)
    if kind == "assoc":
        a, b, c = (_expand(x, flavor, field) for x in e[1:])
        return a * (b * c) - (a * b) * c
    if kind == "passoc":
        a, b, c = (_expand(x, flavor, field) for x in e[1:])
        if flavor == COMMUTATIVE:
            return ((a * (b * c)) - ((a * b) * c)).scale(4)
        return a.star(b.star(c)) - (a.star(b)).star(c)
    if kind == "call":
        return _expand_call(e, flavor, field)
    raise MacroError("unknown node kind %r" % (kind,))


def _expand_call(e, flavor, field):
    _, name, params, args = e
    mac = MACROS.get(name)
    if mac is None:
        raise MacroError("unknown macro %r" % (name,))
    if len(args) != mac.arity:
        raise MacroError("macro %s expects %d arguments, got %d" % (name, mac.arity, len(args)))
    params = dict(params)
    for pname in params:
        if pname not in mac.params:
            raise MacroError("macro %s takes no parameter %s" % (name, pname))
    for pname in mac.params:
        if pname not in params:
            raise MacroError("missing parameter %s" % pname)
    if mac.builder is not None and flavor != PLANAR:
        raise FlavorError("macro %s expands only in %s flavor" % (name, PLANAR))
    body = tree_substitute(mac.body(params), {i + 1: a for i, a in enumerate(args)})
    return _expand(body, flavor, field)


# ---------------------------------------------------------------------------
# Derived operations.
# ---------------------------------------------------------------------------

def star_expand(p: Polynomial) -> Polynomial:
    """Image of a commutative polynomial under (x.y) -> x*y + y*x into the planar algebra."""
    if p.flavor != COMMUTATIVE:
        raise FlavorError("star_expand takes a commutative polynomial")
    f = p.field
    images = map_monomials(p, lambda m: Polynomial.variable(m.enc[0], PLANAR, f), Polynomial.star)
    return linear_combination(PLANAR, f, images)


def apply_sigma_q(p, q) -> Polynomial:
    """Endomorphism replacing every planar product node x.y by x.y + q*(y.x), bottom-up."""
    if isinstance(p, (str, tuple)):
        p = expand(p, PLANAR)
    if p.flavor != PLANAR:
        raise FlavorError("sigma_q acts on planar polynomials")
    f = p.field
    qf = f.from_fraction(Fraction(q))
    images = map_monomials(p, lambda m: Polynomial.unit(m, 1, f),
                           lambda a, b: a * b + (b * a).scale(qf))
    return linear_combination(PLANAR, f, images)


def polarize(p: Polynomial, var: int, replacements) -> Polynomial:
    """Full multilinearization of the occurrences of one variable.

    Every term must contain `var` exactly len(replacements) times; the result
    sums over all bijective assignments of the occurrences to the replacement
    variables.  That is the blended instance on the replacement leaves, each
    distinct arrangement counted once per permutation of equal replacements.
    """
    repeats = prod(factorial(n) for n in Counter(replacements).values())
    leaves = tuple(Monomial.leaf(r, p.flavor) for r in replacements)
    return blended_instance(p, {var: leaves}).scale(repeats)


def blended_instance(p: Polynomial, assignment: dict) -> Polynomial:
    """Substitution instance with multisets: one consequence row of a T-ideal.

    assignment: variable index -> tuple of Monomials, whose length must equal
    the variable's multiplicity in every term of p.  The result sums, for each
    variable, over the distinct arrangements of its multiset across the
    variable's occurrences (so identifying two replacement monomials never
    introduces spurious factorials; over GF(p) this matters).
    """
    f = p.field
    items = sorted(assignment.items())
    arrangements = []
    for _, ms in items:
        encs = sorted(x.enc for x in ms)
        arrangements.append([tuple(encs[k] for k in perm)
                             for perm in slot_arrangements(tuple(map(encs.index, encs)))])

    def instance(m):
        pos = leaf_positions(m.enc)
        slots = [pos.get(v, ()) for v, _ in items]
        for (v, ms), positions in zip(items, slots):
            if len(positions) != len(ms):
                raise ValueError("term %s has %d occurrences of t%d, multiset has %d"
                                 % (m.to_text(), len(positions), v, len(ms)))
        terms = {}
        for combo in itertools.product(*arrangements):
            rep = {i: sub for positions, arr in zip(slots, combo) for i, sub in zip(positions, arr)}
            enc = tuple(x for i, y in enumerate(m.enc) for x in rep.get(i, (y,)))
            mono = Monomial.from_enc(p.flavor, enc)
            terms[mono] = f.add(terms.get(mono, f.zero), f.one)
        return Polynomial(p.flavor, terms, f)

    return linear_combination(p.flavor, f, [(c, instance(m)) for m, c in p.terms.items()])

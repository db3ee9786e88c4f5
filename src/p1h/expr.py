"""Parsing and printing of polynomial and rational-function expressions.

Grammar (whitespace insensitive):

    ratfun := poly "/" poly | "(" poly ")" "/" "(" poly ")"
    poly   := ["+"|"-"] term (("+"|"-") term)*
    term   := coeff | coeff "*"? VAR ("^" nat)? | VAR ("^" nat)?
    coeff  := int | int "/" int (over Q) | residue (over F_p)

The ratfun separator is found by trying depth-0 "/" positions from the
right; coefficient fractions like 1/2 therefore need no parentheses inside
a poly-only context (matrix entries, --unpointed vectors) but at the top
level an unparenthesized "/" is read as the numerator/denominator split.
As a documented convenience, a depth-0 "+" joining two complete rational
functions denotes their monoid sum.
"""
from __future__ import annotations

from .fields import FieldError, Rationals
from .poly import Poly, poly_str
from .ratmap import PointedRat, UnpointedRat, mk_pointed, mk_unpointed, oplus_all


# Largest exponent accepted in X^k: each term allocates a coefficient list
# of that length, so an unbounded exponent would let one short expression
# exhaust memory.
MAX_EXPONENT = 1000


class ParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def _tokenize(text, var):
    toks = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(("num", text[i:j], i))
            i = j
            continue
        if c in "+-*/^()":
            toks.append((c, c, i))
            i += 1
            continue
        if c.upper() == var.upper():
            toks.append(("var", var, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    toks.append(("end", "", len(text)))
    return toks


class _PolyParser:
    def __init__(self, field, text, var):
        self.field = field
        self.toks = _tokenize(text, var)
        self.k = 0

    def peek(self):
        return self.toks[self.k]

    def take(self, kind=None):
        tok = self.toks[self.k]
        if kind and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        self.k += 1
        return tok

    def parse(self) -> Poly:
        p = self.parse_poly()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return p

    def parse_poly(self) -> Poly:
        field = self.field
        coeffs: dict[int, object] = {}
        sign = 1
        if self.peek()[0] in "+-":
            sign = -1 if self.take()[0] == "-" else 1
        while True:
            exp, c = self.parse_term()
            if sign < 0:
                c = field.neg(c)
            coeffs[exp] = field.add(coeffs.get(exp, field.zero), c)
            tok = self.peek()
            if tok[0] in "+-":
                sign = -1 if self.take()[0] == "-" else 1
                continue
            break
        deg = max(coeffs) if coeffs else 0
        return Poly.make(field, [coeffs.get(i, field.zero) for i in range(deg + 1)])

    def parse_term(self):
        field = self.field
        tok = self.peek()
        if tok[0] == "num":
            c = self.parse_coeff()
            if self.peek()[0] == "*":
                self.take()
                self.take("var")
                return self.parse_power(), c
            if self.peek()[0] == "var":
                self.take()
                return self.parse_power(), c
            return 0, c
        if tok[0] == "var":
            self.take()
            return self.parse_power(), field.one
        raise ParseError(f"expected a term, found {tok[1]!r}", tok[2])

    def parse_power(self):
        if self.peek()[0] == "^":
            self.take()
            tok = self.take("num")
            exp = int(tok[1])
            if exp > MAX_EXPONENT:
                raise ParseError(f"exponent {exp} exceeds {MAX_EXPONENT}", tok[2])
            return exp
        return 1

    def parse_coeff(self):
        field = self.field
        num = int(self.take("num")[1])
        if self.peek()[0] == "/" and isinstance(field, Rationals):
            # only consumed in poly-only contexts; at the ratfun level the
            # split has already removed the separator
            save = self.k
            self.take()
            if self.peek()[0] == "num":
                den = int(self.take("num")[1])
                if den == 0:
                    raise ParseError("zero denominator", self.toks[save][2])
                from fractions import Fraction

                return Fraction(num, den)
            self.k = save
        return field.from_int(num)


def parse_poly(text: str, field, var: str = "X") -> Poly:
    return _PolyParser(field, text, var).parse()


def _strip_outer_parens(text: str) -> str:
    text = text.strip()
    while text.startswith("(") and text.endswith(")"):
        depth = 0
        for i, c in enumerate(text):
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth == 0 and i != len(text) - 1:
                    return text
        text = text[1:-1].strip()
    return text


def _depth0_positions(text: str, ch: str):
    out = []
    depth = 0
    for i, c in enumerate(text):
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif c == ch and depth == 0:
            out.append(i)
    return out


def parse_ratfun(text: str, field):
    """Parse a rational function; pointedness is auto-detected (monic
    numerator of strictly larger degree), otherwise the pair becomes an
    unpointed homogeneous point."""
    body = text.strip()
    slashes = _depth0_positions(body, "/")
    if not slashes:
        raise ParseError("a rational function needs a '/'", len(body))
    last_err = None
    for pos in reversed(slashes):
        try:
            A = parse_poly(_strip_outer_parens(body[:pos]), field)
            B = parse_poly(_strip_outer_parens(body[pos + 1 :]), field)
        except ParseError as exc:
            last_err = exc
            continue
        return _classify_pair(field, A, B)
    raise last_err


def _classify_pair(field, A: Poly, B: Poly):
    if A.degree > B.degree and A.is_monic():
        return mk_pointed(A, B)
    n = max(A.degree, B.degree)
    return mk_unpointed(
        field,
        [A.coeff(i) for i in range(n + 1)],
        [B.coeff(i) for i in range(n + 1)],
    )


def parse_ratfun_sum(text: str, field):
    """Parse `f+g+...` where each part is a complete rational function:
    the documented convenience spelling for the monoid sum."""
    body = text.strip()
    segments = []
    start = 0
    for cut in _depth0_positions(body, "+"):
        seg = body[start:cut]
        if _depth0_positions(seg, "/"):
            segments.append(seg)
            start = cut + 1
    segments.append(body[start:])
    if len(segments) == 1:
        return parse_ratfun(body, field)
    fs = [parse_ratfun(seg, field) for seg in segments]
    if any(isinstance(f, UnpointedRat) for f in fs):
        raise ParseError("monoid sums need pointed summands", 0)
    return oplus_all(fs[0].ring, fs)


def format_ratfun(f) -> str:
    if isinstance(f, PointedRat):
        return f"({poly_str(f.A)})/({poly_str(f.B)})"
    if isinstance(f, UnpointedRat):
        A, B = f.polys()
        return f"({poly_str(A)})/({poly_str(B)})"
    raise FieldError(f"cannot format {f!r}")

"""Parsing and printing of polynomial and rational-function expressions.

Grammar (whitespace insensitive):

    ratfun := poly "/" poly | "(" poly ")" "/" "(" poly ")"
    poly   := ["+"|"-"] term (("+"|"-") term)*
    term   := coeff | coeff "*"? VAR ("^" nat)? | VAR ("^" nat)?
    coeff  := int | int "/" int (over Q) | residue (over F_p)

The ratfun separator is a depth-0 "/"; coefficient fractions like 1/2
therefore need no parentheses inside a poly-only context (matrix entries,
--unpointed vectors) but at the top level an unparenthesized "/" is read as
the numerator/denominator split.  As a documented convenience, a depth-0
"+" joining two complete rational functions denotes their monoid sum.

The text is tokenized once; paren depths, the separator candidates and
the sum's cuts are token indices, and each side is parsed from a slice of
the one token list.  The poly parser consumes a "/" only between two
numbers over Q, and never over F_p, so a depth-0 "/" of any other kind is
the only possible separator, and two of them leave none.  Depth-0 slashes
between numbers are tried from the right: a numerator that fails rules out
the splits whose numerators run past the failure, and a denominator that
fails rules out every split further left, so a few sides are parsed at
most and parsing is linear in the length of the text.  Building the point
of a long sum is not: `parse_ratfun_sum` of `X/1+...+X/1` with 1000 blocks
takes about 0.85 s over Q and 0.07 s over F5, and with 2000 blocks about
5.4 s and 0.14 s (in process, one run each, 2-core host, Python 3.11.7), in
the products of the monoid sums, not in parsing.

A poly sums its terms as plain Python numbers (ints, and a Fraction only
for an a/b coefficient over Q), and Poly.make coerces each sum into the
field once.
"""
from __future__ import annotations

from fractions import Fraction

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
    """Parses the tokens toks[lo:hi] as one poly; the end of input is at
    toks[hi] (a separator, a parenthesis or the end)."""

    def __init__(self, field, toks, lo, hi):
        self.field = field
        self.toks = toks[lo:hi] + [("end", "", toks[hi][2])]
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
        coeffs: dict[int, object] = {}
        sign = 1
        if self.peek()[0] in "+-":
            sign = -1 if self.take()[0] == "-" else 1
        while True:
            exp, c = self.parse_term()
            coeffs[exp] = coeffs.get(exp, 0) + (c if sign > 0 else -c)
            tok = self.peek()
            if tok[0] in "+-":
                sign = -1 if self.take()[0] == "-" else 1
                continue
            break
        return Poly.make(self.field, [coeffs.get(i, 0) for i in range(max(coeffs) + 1)])

    def parse_term(self):
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
            return self.parse_power(), 1
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
        """An int, or over Q a Fraction for a/b."""
        num = int(self.take("num")[1])
        if self.peek()[0] == "/" and isinstance(self.field, Rationals):
            # only consumed in poly-only contexts; at the ratfun level the
            # split has already removed the separator
            save = self.k
            self.take()
            if self.peek()[0] == "num":
                den = int(self.take("num")[1])
                if den == 0:
                    raise ParseError("zero denominator", self.toks[save][2])
                return Fraction(num, den)
            self.k = save
        return num


def parse_poly(text: str, field, var: str = "X") -> Poly:
    toks = _tokenize(text, var)
    return _PolyParser(field, toks, 0, len(toks) - 1).parse()


def _nesting(toks):
    """The paren depth before each token, and for each "(" token that is
    closed, the index of its ")"."""
    depth, opened, close = [], [], {}
    d = 0
    for k, tok in enumerate(toks):
        depth.append(d)
        if tok[0] == "(":
            d += 1
            opened.append(k)
        elif tok[0] == ")":
            d -= 1
            if opened:
                close[opened.pop()] = k
    return depth, close


def _unwrap(toks, close, lo, hi):
    """toks[lo:hi] without the parentheses that enclose all of it (an
    unclosed "(" at lo counts as enclosing)."""
    while (
        hi - lo >= 2
        and toks[lo][0] == "("
        and toks[hi - 1][0] == ")"
        and close.get(lo, hi) >= hi - 1
    ):
        lo, hi = lo + 1, hi - 1
    return lo, hi


def _parse_ratfun_tokens(field, toks, depth, close, lo, hi):
    slashes = [k for k in range(lo, hi) if toks[k][0] == "/" and depth[k] == 0]
    if not slashes:
        raise ParseError("a rational function needs a '/'", toks[hi][2])
    over_q = isinstance(field, Rationals)
    free = [
        k
        for k in slashes
        if not (over_q and toks[k - 1][0] == "num" and toks[k + 1][0] == "num")
    ]
    if len(free) == 1:
        tries = free
    elif free:  # no split exists; the leftmost one reports where it fails
        tries = slashes[:1]
    else:
        tries = slashes[::-1]
    err = None
    for k in tries:
        # a shorter numerator that still runs past err.pos fails there again
        if err is not None and toks[k - 1][2] > err.pos:
            continue
        try:
            A = _PolyParser(field, toks, *_unwrap(toks, close, lo, k)).parse()
        except ParseError as exc:
            err = exc
            continue
        # a denominator that fails fails again on every split further left:
        # it parses on from b as the longer one does from the fraction a/b
        B = _PolyParser(field, toks, *_unwrap(toks, close, k + 1, hi)).parse()
        return _classify_pair(field, A, B)
    raise err


def parse_ratfun(text: str, field):
    """Parse a rational function; pointedness is auto-detected (monic
    numerator of strictly larger degree), otherwise the pair becomes an
    unpointed homogeneous point."""
    toks = _tokenize(text, "X")
    return _parse_ratfun_tokens(field, toks, *_nesting(toks), 0, len(toks) - 1)


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
    the documented convenience spelling for the monoid sum.  A depth-0 "+"
    ends a part when the part has a depth-0 "/"."""
    toks = _tokenize(text, "X")
    depth, close = _nesting(toks)
    parts, lo, slash = [], 0, False
    for k, tok in enumerate(toks):
        if depth[k] == 0 and tok[0] == "/":
            slash = True
        elif depth[k] == 0 and tok[0] == "+" and slash:
            parts.append((lo, k))
            lo, slash = k + 1, False
    parts.append((lo, len(toks) - 1))
    fs = [_parse_ratfun_tokens(field, toks, depth, close, lo, hi) for lo, hi in parts]
    if len(fs) == 1:
        return fs[0]
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

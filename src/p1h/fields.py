"""Exact base fields: the rational numbers and prime fields F_p.

Field elements are plain Python values -- Fraction for Q, int residues in
[0, p) for F_p -- and the field object supplies the arithmetic.  Containers
(polynomials, matrices, invariants) carry the field tag, so every scalar in
the library is unambiguously attached to its field.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


class FieldError(ValueError):
    """Invalid field construction or illegal element operation."""


# Below this bound Miller-Rabin to the prime bases 2..37 proves primality
# (psi_12; Sorenson and Webster, Math. Comp. 2017); above it the test is
# only probabilistic.
MR_BOUND = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2..37: deterministic for n < MR_BOUND."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int:
    """A nontrivial factor of composite odd n: Brent's variant of the rho
    cycle with gcds batched over 128 steps."""
    if n % 2 == 0:
        return 2
    import math

    for c in range(1, 64):
        y, r, q = 2, 1, 1
        g, x, ys = 1, 0, 0
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = (q * abs(x - y)) % n
                g = math.gcd(q, n)
                k += 128
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed on {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer: trial division by the
    primes below 1000, then Miller-Rabin and Pollard rho on what survives
    (resultants at desk scale can still have 10-plus-digit square parts).

    Two memos of constant size serve it, since one decision needs the same
    primes several times: `_factor_pairs` keeps whole integers, and
    `_hard_factor_pairs` keeps what survives trial division and every part
    that rho splits off.  The resultants N a and N b of two points share
    their hard part N, so a decision splits N once.  Every call returns a
    fresh dict."""
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    return dict(_factor_pairs(n))


@lru_cache(maxsize=1)
def _small_primes() -> tuple[int, ...]:
    """The primes below 1000, listed on first use rather than at import."""
    return tuple(d for d in range(2, 1000) if is_prime(d))


@lru_cache(maxsize=4096)
def _factor_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """(prime, exponent) pairs of n > 0, primes ascending."""
    out: dict[int, int] = {}
    for d in _small_primes():
        if d * d > n:
            break
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
    if n > 1:
        for p, e in _hard_factor_pairs(n):
            out[p] = out.get(p, 0) + e
    return tuple(sorted(out.items()))


@lru_cache(maxsize=4096)
def _hard_factor_pairs(m: int) -> tuple[tuple[int, int], ...]:
    """(prime, exponent) pairs of m > 1 left by trial division: m itself if
    Miller-Rabin passes it, else the pairs of the two parts that rho splits
    it into, each found through this memo."""
    if is_prime(m):
        return ((m, 1),)
    f = _rho_factor(m)
    out = dict(_hard_factor_pairs(f))
    for p, e in _hard_factor_pairs(m // f):
        out[p] = out.get(p, 0) + e
    return tuple(sorted(out.items()))


def squarefree_part(n: int) -> int:
    """Squarefree part of a nonzero integer, keeping the sign."""
    if n == 0:
        raise ValueError("squarefree_part(0)")
    sign = -1 if n < 0 else 1
    out = 1
    for p, e in factorize(abs(n)).items():
        if e % 2:
            out *= p
    return sign * out


def _int_root(x: int, k: int):
    """The positive integer r with r^k = x, for x >= 1, or None: Newton's
    iteration on integers from 2^ceil(bits/k), which is at least the root,
    falls to the floor of the k-th root."""
    r = 1 << -(-x.bit_length() // k)
    while True:
        s = ((k - 1) * r + x // r ** (k - 1)) // k
        if s >= r:
            return r if r**k == x else None
        r = s


def rational_root(x: Fraction, k: int):
    """The positive rational r with r^k = x, or None when x <= 0 or has no
    such root.  x is in lowest terms, so r exists exactly when its
    numerator and denominator are k-th powers of integers: two exact
    integer roots, and no factoring."""
    if x <= 0:
        return None
    num, den = _int_root(x.numerator, k), _int_root(x.denominator, k)
    return None if num is None or den is None else Fraction(num, den)


def sqrt_mod(a: int, p: int):
    """The smaller square root of a modulo an odd prime p, or None when a is
    not a square: Euler's criterion, then Tonelli-Shanks (O(log^2 p)
    multiplications)."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
    else:
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
        m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            # least i with t^(2^i) = 1; then 2^(m-i-1)-th power of c fixes it
            i, t2 = 0, t
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return min(r, p - r)


class Rationals:
    """The field Q.  Elements are Fraction values in lowest terms."""

    char = 0

    # All instances are interchangeable; QQ below is the canonical one.
    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"

    # class constants: a Fraction is immutable, so one instance serves
    # every read
    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def coerce(self, a):
        if isinstance(a, Fraction):
            return a
        if isinstance(a, int):
            return Fraction(a)
        raise FieldError(f"cannot coerce {a!r} into Q")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        if a == 0:
            raise FieldError("division by zero in Q")
        return 1 / a

    def div(self, a, b):
        return a * self.inv(b)

    def pow(self, a, e: int):
        return a ** e

    exact_div = div

    def square_class(self, a):
        """Canonical representative of a*Q^{x2}: the squarefree integer with a's sign."""
        a = self.coerce(a)
        if a == 0:
            raise FieldError("square_class(0)")
        return Fraction(squarefree_part(a.numerator * a.denominator))

    def format(self, a) -> str:
        return str(a)

    def parse(self, text: str):
        text = text.strip()
        if "/" in text:
            num, den = text.split("/")
            return self.div(Fraction(int(num)), Fraction(int(den)))
        return Fraction(int(text))


class PrimeField:
    """The prime field F_p.  Elements are ints reduced into [0, p)."""

    def __init__(self, p: int):
        if p >= MR_BOUND:
            raise FieldError(f"{p} is beyond the proven primality bound {MR_BOUND}")
        if not is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.char = p
        self._nonresidue = None
        self._generator = None

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"F{self.p}"

    zero = 0
    one = 1

    def from_int(self, n):
        return n % self.p

    def coerce(self, a):
        if isinstance(a, int):
            return a % self.p
        if isinstance(a, Fraction):
            if a.denominator % self.p == 0:
                raise FieldError(f"denominator of {a} vanishes mod {self.p}")
            return (a.numerator * pow(a.denominator, -1, self.p)) % self.p
        raise FieldError(f"cannot coerce {a!r} into F_{self.p}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def is_unit(self, a):
        return a % self.p != 0

    def inv(self, a):
        if a % self.p == 0:
            raise FieldError(f"division by zero in F_{self.p}")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def pow(self, a, e: int):
        return pow(a, e, self.p)

    exact_div = div

    def elements(self):
        return range(self.p)

    def units(self):
        return range(1, self.p)

    def legendre(self, a) -> int:
        """+1 for a nonzero square, -1 for a nonsquare, 0 for 0 (p odd)."""
        if self.p == 2:
            raise FieldError("legendre symbol needs odd p")
        a %= self.p
        if a == 0:
            return 0
        return 1 if pow(a, (self.p - 1) // 2, self.p) == 1 else -1

    def sqrt(self, a):
        """The smaller square root of a in [0, p), or None for a non-square."""
        if self.p == 2:
            return a % 2
        return sqrt_mod(a, self.p)

    def nonresidue(self):
        """Smallest quadratic non-residue (p odd)."""
        if self._nonresidue is None:
            if self.p == 2:
                raise FieldError("F_2 has no non-residue")
            for a in range(2, self.p):
                if self.legendre(a) == -1:
                    self._nonresidue = a
                    break
        return self._nonresidue

    def generator(self):
        """Smallest generator of the unit group."""
        if self._generator is None:
            order = self.p - 1
            prime_divs = list(factorize(order)) if order > 1 else []
            for g in range(1, self.p):
                if all(pow(g, order // q, self.p) != 1 for q in prime_divs):
                    self._generator = g
                    break
        return self._generator

    def square_class(self, a):
        """1 for squares; the smallest non-residue otherwise.  Always 1 in F_2."""
        a = a % self.p
        if a == 0:
            raise FieldError("square_class(0)")
        if self.p == 2:
            return 1
        return 1 if self.legendre(a) == 1 else self.nonresidue()

    def format(self, a) -> str:
        return str(a % self.p)

    def parse(self, text: str):
        text = text.strip()
        if "/" in text:
            num, den = text.split("/")
            return self.div(int(num) % self.p, int(den) % self.p)
        return int(text) % self.p


QQ = Rationals()

_GF_CACHE: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _GF_CACHE:
        _GF_CACHE[p] = PrimeField(p)
    return _GF_CACHE[p]


def field_from_name(name: str):
    """Parse a CLI field spec: Q | F2 | F3 | F5 | Fp=101.  Only ASCII digits
    may follow F or Fp=: int() alone would also take signs, underscores,
    spaces and other scripts' digits (F1_01 would be F101)."""
    name = name.strip()
    if name in ("Q", "QQ"):
        return QQ
    if name.startswith("F"):
        digits = name[3:] if name.startswith("Fp=") else name[1:]
        if not (digits.isascii() and digits.isdigit()):
            raise FieldError(f"unknown field {name!r}: no prime after F")
        try:
            p = int(digits)
        except ValueError:  # more digits than int() converts
            raise FieldError(f"unknown field {name!r}: prime too long") from None
        return GF(p)
    raise FieldError(f"unknown field {name!r}")


def field_name(field) -> str:
    if isinstance(field, Rationals):
        return "Q"
    return f"F{field.p}"

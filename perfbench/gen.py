"""Seeded input generators for the p1h benchmark.

Every input is expression text plus the truth the benchmark checks the
program's answer against.  The arithmetic here is the benchmark's own
(coefficient lists of Fractions, reduced mod p where needed), so the
program under test never helps build its own expected answers.

Polynomials are lists of coefficients, lowest degree first, trimmed.  Sums
of points are built from polynomial blocks P_1/b_1 (+) ... (+) P_k/b_k
(P_i monic, b_i a unit), the continued-fraction expansion every pointed
function over a field has exactly one of.

The result of `build(workload, seed)` is a JSON-ready dict: a table of
points and a list of operations that refer to them by index.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations, product

WORKLOADS = ("certify-fresh", "certify-shared", "decide-q", "oracle-grid")

# Operations generated per workload: more than a run completes today, so a
# faster program still meets fresh inputs.  Runs stop early rather than
# cycling when a list is used up.
FRESH_OPS = 500
SHARED_F5_SAMPLE = 20000
DECIDE_OPS = 6000
GRID_PASSES = 40

# certify-fresh cycles through these (field, degree) strata in order.
FRESH_MIX = (("F5", 3), ("F31", 3), ("F101", 2), ("F101", 3), ("Q", 2))

# decide-q: one operation in SEMIPRIME_EVERY carries a semiprime resultant.
# Such an operation costs 80-650 ms, almost all of it factoring, and the
# tier takes about a third of a run, so it is drawn to vary little between
# seeds: the j-th semiprime operation of every run uses the j-th number of a
# fixed pool of SEMIPRIME_POOL (drawn once from a constant seed) and the j-th
# of KINDS, and the seed draws the rest of the pair.  With a fresh semiprime
# and kind per operation, the tier's median moved by up to 25 % between seeds.
SEMIPRIME_EVERY = 50
SEMIPRIME_POOL = 48
HEIGHT = 30
DISGUISE = 3
# Plain-tier resultants stay below this, so factoring them needs trial
# division plus at most a short rho run; larger ones with two big prime
# factors are the semiprime tier's job (20-digit factors are left out).
PLAIN_RES_BOUND = 10 ** 12

# certify-shared: in every block of ten operations, one is an unpointed
# pair and one a P^d point; the other eight are pointed fiber pairs.
SHARED_BLOCK = 10

# oracle-grid cells: one per edge kernel, plus the unpointed oracle.
# Expected counts are properties of the cell, recorded at the commit that
# defined the benchmark; `work` is EnumSpec.work_estimate() for the cell.
GRID_CELLS = (
    {"target": "ratfun", "q": 7, "n": 1, "D": 2, "covers": "n=1 kernel",
     "components": 6, "fibers": 6, "bridges": 0, "points": 42, "work": 117649},
    {"target": "ratfun", "q": 7, "n": 2, "D": 1, "covers": "n=2 solver, 15 certified bridges",
     "components": 21, "fibers": 6, "bridges": 15, "points": 2058, "work": 705894},
    {"target": "ratfun", "q": 2, "n": 3, "D": 2, "covers": "packed F2 n=3 kernel",
     "components": 1, "fibers": 1, "bridges": 0, "points": 32, "work": 262144},
    {"target": "symmat", "q": 5, "n": 2, "D": 1, "covers": "symmat kernel, 38 matrix bridges",
     "components": 42, "fibers": 4, "bridges": 38, "points": 100, "work": 15625},
    {"target": "pd", "q": 3, "n": 1, "D": 2, "covers": "pd kernel, n=1",
     "components": 1, "fibers": 1, "bridges": 0, "points": 24, "work": 19683},
    {"target": "pd", "q": 2, "n": 2, "D": 1, "covers": "pd kernel, n=2",
     "components": 1, "fibers": 1, "bridges": 0, "points": 48, "work": 4096},
    {"target": "unpointed", "q": 3, "n": 2, "D": None, "covers": "unpointed oracle",
     "components": 2, "fibers": 2, "bridges": 0, "points": 216, "work": None},
)


# ---------------------------------------------------------------------------
# Coefficient-list arithmetic
# ---------------------------------------------------------------------------


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _add(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def _mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _scale(a, c):
    return _trim([x * c for x in a])


def _ints(a):
    """Integral Fractions back to ints, which keeps later arithmetic fast."""
    return [int(x) if isinstance(x, Fraction) and x.denominator == 1 else x for x in a]


def cf_sum(blocks):
    """(A, B, U, V) of the monoid sum of polynomial blocks [(P, b), ...].

    Tracks the unimodular matrix [A -V; B U] of the running sum; the block
    P/b has U = 0 and V = 1/b, so no gcd is ever needed."""
    A, B, U, V = [Fraction(1)], [], [Fraction(1)], []
    for P, b in blocks:
        b = Fraction(b)
        A, B, U, V = (
            _add(_mul(A, P), _scale(V, -b)),
            _add(_mul(B, P), _scale(U, b)),
            _scale(B, -1 / b),
            _scale(A, 1 / b),
        )
    return tuple(_ints(x) for x in (A, B, U, V))


def _oplus(f, g):
    """(A, B) of f (+) g; only f's Bezout pair (U, V) enters the product."""
    A, B, U, V = f
    return _ints(_add(_mul(A, g[0]), _scale(_mul(V, g[1]), -1))), _ints(_add(_mul(B, g[0]), _mul(U, g[1])))


def resultant(A, B):
    """res_{n,n}(A, B) for integer A monic of degree n and integer B: the
    determinant of multiplication by B on Q[X]/(A), by fraction-free
    (Bareiss) elimination."""
    n = len(A) - 1
    cols, cur = [], list(B) + [0] * (n - len(B))
    for _ in range(n):
        cols.append(cur[:n])
        cur = [0] + cur[:n]
        lead = cur.pop()
        cur = [c - lead * a for c, a in zip(cur, A)]
    M = [[cols[j][i] for j in range(n)] for i in range(n)]
    sign, prev = 1, 1
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if M[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1] if n else 1


def _mod(x, p):
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, p) % p


def _reduce(a, p):
    return _trim([_mod(x, p) for x in a])


def _gcd_mod(a, b, p):
    a, b = _reduce(a, p), _reduce(b, p)
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c, shift = a[-1] * inv % p, len(a) - len(b)
            for i, y in enumerate(b):
                a[i + shift] = (a[i + shift] - c * y) % p
            _trim(a)
        a, b = b, a
    return a


def _is_prime(n):
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for q in small:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Text and canonical encodings (the encodings mirror p1h.serial's output)
# ---------------------------------------------------------------------------


def _coeff_json(x, p):
    if p or isinstance(x, int):
        return int(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _enc(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def poly_text(a, p):
    if not a:
        return "0"
    terms = []
    for i in range(len(a) - 1, -1, -1):
        c = a[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        c = abs(c)
        mono = "" if i == 0 else ("X" if i == 1 else f"X^{i}")
        if c == 1 and mono:
            body = mono
        else:
            num = str(_coeff_json(c, 0))
            body = f"{num}*{mono}" if mono else num
        terms.append((sign, body))
    out = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    for sign, body in terms[1:]:
        out += sign + body
    return out


def pointed_point(field, A, B):
    p = _prime(field)
    return {
        "field": field,
        "text": f"({poly_text(A, p)})/({poly_text(B, p)})",
        "enc": _enc({"A": [_coeff_json(x, p) for x in A], "B": [_coeff_json(x, p) for x in B]}),
    }


class _Table:
    """Points stored once each, so an index identifies a point."""

    def __init__(self):
        self.points, self.ids = [], {}

    def add(self, point):
        key = (point["field"], point["text"])
        if key not in self.ids:
            self.ids[key] = len(self.points)
            self.points.append(point)
        return self.ids[key]


def _prime(field):
    return 0 if field == "Q" else int(field[1:])


# ---------------------------------------------------------------------------
# certify-fresh
# ---------------------------------------------------------------------------


def _monic(rng, d, lo, hi):
    return [rng.randint(lo, hi) for _ in range(d)] + [1]


def _small_unit(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))


def _one_move_pair(rng, field, n):
    """f = (X+a_1)/u_1 (+) ... (+) (X+a_n)/u_n, whose normal form is
    [u_1, ..., u_n], against a disguised normal form one random SL_2 move
    away: u_i, u_{i+1} become c = u_i x^2 + u_{i+1} y^2 and u_i u_{i+1}/c,
    written with fresh translations.  Over F_p both have resultant
    +-prod u_i, the whole invariant for odd p."""
    p = _prime(field)
    unit = (lambda: rng.randint(1, p - 1)) if p else (lambda: _small_unit(rng))
    shift = (lambda: rng.randint(0, p - 1)) if p else (lambda: rng.randint(-9, 9))
    us = [unit() for _ in range(n)]
    while True:
        i = rng.randrange(n - 1)
        if p:
            x, y = rng.randint(0, p - 1), rng.randint(0, p - 1)
            c = (us[i] * x * x + us[i + 1] * y * y) % p
        else:
            x, y = (rng.choice([-1, 1]) * rng.randint(1, 3) for _ in range(2))
            c = us[i] * x * x + us[i + 1] * y * y
        if c and c != us[i]:
            break
    vs = list(us)
    vs[i] = c
    vs[i + 1] = us[i] * us[i + 1] * pow(c, -1, p) % p if p else us[i] * us[i + 1] / c
    out = []
    for units in (us, vs):
        A, B = cf_sum([([shift(), 1], u) for u in units])[:2]
        out.append((_reduce(A, p), _reduce(B, p)) if p else (A, B))
    return out


def certify_fresh(rng):
    table, ops = _Table(), []
    while len(ops) < FRESH_OPS:
        field, n = FRESH_MIX[len(ops) % len(FRESH_MIX)]
        while True:
            f, g = _one_move_pair(rng, field, n)
            pf, pg = pointed_point(field, *f), pointed_point(field, *g)
            if pf["text"] != pg["text"] and not {(field, pf["text"]), (field, pg["text"])} & table.ids.keys():
                break
        ops.append(["pointed", table.add(pf), table.add(pg)])
    return {"points": table.points, "ops": ops}


# ---------------------------------------------------------------------------
# certify-shared
# ---------------------------------------------------------------------------


def fibers_n2(p):
    """All degree-2 points over F_p grouped by resultant (the invariant for
    odd p): res = b1^2 a0 - b1 b0 a1 + b0^2 for (X^2+a1 X+a0)/(b1 X+b0)."""
    out = {}
    for a0, a1, b0, b1 in product(range(p), repeat=4):
        r = (b1 * b1 * a0 - b1 * b0 * a1 + b0 * b0) % p
        if r:
            out.setdefault(r, []).append(([a0, a1, 1], _trim([b0, b1])))
    return [out[r] for r in sorted(out)]


def _sl2(rng, p):
    """A random SL_2(F_p) matrix with nonzero lower-left entry."""
    c = rng.randint(1, p - 1)
    a, d = rng.randint(0, p - 1), rng.randint(0, p - 1)
    b = (a * d - 1) * pow(c, -1, p) % p
    return a, b, c, d


def unpointed_point(rng, p, A, B):
    """(aA + bB)/(cA + dB) for a random SL_2 matrix: the same naive class,
    and not monic-over-lower-degree, so the parser reads it as unpointed."""
    a, b, c, d = _sl2(rng, p)
    n = len(A) - 1
    pad = lambda v: list(v) + [0] * (n + 1 - len(v))
    A2 = [(a * x + b * y) % p for x, y in zip(pad(A), pad(B))]
    B2 = [(c * x + d * y) % p for x, y in zip(pad(A), pad(B))]
    first = next(v for v in A2 + B2 if v)
    inv = pow(first, -1, p)
    return {
        "field": f"F{p}",
        "text": f"({poly_text(_trim(list(A2)), p)})/({poly_text(_trim(list(B2)), p)})",
        "enc": _enc({"A": [x * inv % p for x in A2], "B": [x * inv % p for x in B2], "unpointed": True}),
    }


def pd_point(rng, p, n):
    """A P^2 point (A; B1; B2) over F_p with gcd(A, B1, B2) = 1."""
    while True:
        A = _monic(rng, n, 0, p - 1)
        Bs = [_trim([rng.randint(0, p - 1) for _ in range(n)]) for _ in range(2)]
        if len(_gcd_mod(_gcd_mod(A, Bs[0], p), Bs[1], p)) == 1:
            break
    return {
        "field": f"F{p}",
        "text": " ; ".join(poly_text(x, p) for x in [A] + Bs),
        "enc": _enc({"A": A, "Bs": Bs}),
        "target": _enc({"A": [0] * n + [1], "Bs": [[1], [1]]}),
    }


def certify_shared(rng):
    fibers = {p: fibers_n2(p) for p in (3, 5)}
    table, ids = _Table(), {}
    for p, fibs in fibers.items():
        for k, fib in enumerate(fibs):
            for i, (A, B) in enumerate(fib):
                ids[p, k, i] = table.add(pointed_point(f"F{p}", A, B))
    f5_pairs = [(5, k, i, j) for k, fib in enumerate(fibers[5]) for i, j in combinations(range(len(fib)), 2)]
    pointed = [(3, k, i, j) for k, fib in enumerate(fibers[3]) for i, j in combinations(range(len(fib)), 2)]
    pointed += rng.sample(f5_pairs, min(SHARED_F5_SAMPLE, len(f5_pairs)))
    rng.shuffle(pointed)
    ops = []
    for m, (p, k, i, j) in enumerate(pointed):
        if rng.random() < 0.5:
            i, j = j, i
        ops.append(["pointed", ids[p, k, i], ids[p, k, j]])
        if m % (SHARED_BLOCK - 2) == SHARED_BLOCK - 3:
            p2 = rng.choice((3, 5))
            u, v = rng.sample(rng.choice(fibers[p2]), 2)
            ops.append(["unpointed", table.add(unpointed_point(rng, p2, *u)),
                        table.add(unpointed_point(rng, p2, *v))])
            ops.append(["pd", table.add(pd_point(rng, rng.choice((2, 3)), rng.randint(1, 3)))])
    return {"points": table.points, "ops": ops}


# ---------------------------------------------------------------------------
# decide-q
# ---------------------------------------------------------------------------


def _plain_point(rng, n):
    """A random degree-n point with drawn coefficients of height <= HEIGHT
    and 0 < |res| <= PLAIN_RES_BOUND."""
    if n == 0:
        return [1], []
    while True:
        A = _monic(rng, n, -HEIGHT, HEIGHT)
        B = [rng.randint(-HEIGHT, HEIGHT) for _ in range(rng.randint(0, n - 1))]
        B.append(rng.choice([-1, 1]) * rng.randint(1, HEIGHT))
        if 0 < abs(resultant(A, B)) <= PLAIN_RES_BOUND:
            return A, B


def _disguise(rng, A, B):
    """(A + Q B)/B: the path (A + T Q B)/B has constant resultant, so the
    result is homotopic to A/B."""
    room = len(A) - len(B) - 1
    while True:
        Q = _trim([rng.randint(-DISGUISE, DISGUISE) for _ in range(room + 1)])
        if Q:
            return _add(A, _mul(Q, B)), B


def _semiprimes():
    """The fixed pool: products of two random 9-digit primes."""
    rng = random.Random("decide-q/semiprimes")

    def prime():
        while True:
            x = rng.randrange(10 ** 8, 10 ** 9)
            if _is_prime(x):
                return x

    return [prime() * prime() for _ in range(SEMIPRIME_POOL)]


# X/1 (+) X/1 against a form with equal resultant and another signature,
# and against one with equal resultant and signature but another Hasse
# invariant at 3.
BASES = {
    "signature": ([([0, 1], 1), ([0, 1], 1)], [([0, 1], -1), ([0, 1], -1)]),
    "hasse3": ([([0, 1], 1), ([0, 1], 1)], [([0, 1], 3), ([0, 1], Fraction(1, 3))]),
}


KINDS = ("equal", "signature", "equal", "hasse3")


def _decide_pair(rng, kind, semiprime):
    """(f, g) of the given kind; semiprime is None or the N of the pair's
    (X + a)/N block."""
    lo = 1 if kind == "equal" else 0
    hi = 6 if kind == "equal" else 4
    if semiprime:
        # (X + a)/N (+) h, whose resultant is +-N res(h)
        h = _oplus(cf_sum([([rng.randint(-HEIGHT, HEIGHT), 1], semiprime)]),
                   _plain_point(rng, rng.randint(max(lo - 1, 0), hi - 1)))
    else:
        h = _plain_point(rng, rng.randint(lo, hi))
    if kind == "equal":
        return h, _disguise(rng, *h)
    base_f, base_g = BASES[kind]
    f, g = _oplus(cf_sum(base_f), h), _oplus(cf_sum(base_g), h)
    return _disguise(rng, *f), _disguise(rng, *g)


def decide_q(rng):
    table, ops = _Table(), []
    offset = rng.randrange(SEMIPRIME_EVERY)
    pool = _semiprimes()
    for k in range(DECIDE_OPS):
        if k % SEMIPRIME_EVERY == offset:
            j = k // SEMIPRIME_EVERY
            kind, semiprime = KINDS[j % len(KINDS)], pool[j % SEMIPRIME_POOL]
        else:
            kind, semiprime = rng.choice(KINDS), None
        f, g = _decide_pair(rng, kind, semiprime)
        ops.append(["decide", table.add(pointed_point("Q", *f)), table.add(pointed_point("Q", *g)),
                    kind == "equal", "semiprime" if semiprime else "plain"])
    return {"points": table.points, "ops": ops}


# ---------------------------------------------------------------------------
# oracle-grid
# ---------------------------------------------------------------------------


def oracle_grid(rng):
    ops = []
    for _ in range(GRID_PASSES):
        order = list(range(len(GRID_CELLS)))
        rng.shuffle(order)
        ops += [["cell", i] for i in order]
    return {"points": [], "ops": ops}


MIX = {
    "certify-fresh": (
        "equivalent pointed pairs, one per stratum in turn: F5 n=3, F31 n=3, F101 n=2, "
        "F101 n=3, Q n=2.  Each pair is f = (X+a_1)/u_1 (+) ... (+) (X+a_n)/u_n, normal form "
        "[u_1, ..., u_n], against a disguised normal form one random SL_2 move away (u_i, "
        "u_{i+1} replaced by c = u_i x^2 + u_{i+1} y^2 and u_i u_{i+1}/c, fresh translations).  "
        "Units are random residues over F_p and rationals of height <= 9 over Q.  No point "
        "repeats within a run."),
    "certify-shared": (
        "all 783 equivalent pairs inside the resultant fibers of the F3 n=2 cell (fibers of "
        "36 and 18 points) and a seeded sample of 20000 of the 32250 pairs inside the F5 n=2 "
        "fibers, shuffled.  In every ten operations eight are such pointed pairs, one is an "
        "unpointed pair (SL_2 images of two points of one F3 or F5 fiber) and one a P^2 point "
        "over F2 or F3 with n = 1..3 certified to the base point."),
    "decide-q": (
        "pairs over Q of degree 1..6 with drawn coefficients of height <= 30, then a "
        "disguising homotopy (A + Q B)/B.  Half are equal-class (g is the disguised f), a "
        "quarter differ in signature (X/1 (+) X/1 against X/-1 (+) X/-1, summed with the "
        "same random h) and a quarter in the Hasse invariant at 3 (X/3 (+) X/(1/3)); every "
        "pair has equal exact resultants.  Plain-tier resultants have |res| <= 10^12; one "
        "operation in 50 adds a block (X+a)/N with N the product of two 9-digit primes; the j-th "
        "such operation of every run takes the j-th N of a fixed pool of 48 and the j-th kind "
        "of (equal, signature, equal, hasse3)."),
    "oracle-grid": (
        "cross_check on one cell per edge kernel and unpointed_components(3, 2), in a seeded "
        "order per pass, each cell with cold caches."),
}

# Inputs left out because they are too slow for a benchmark that runs each
# workload 22 times per check.
LEFT_OUT = {
    "certify-fresh": [
        {"input": "Q n=3 connect", "cost": "0.5-9.4 s per pair", "issue": "grid search in diag_chain"},
    ],
    "decide-q": [
        {"input": "semiprime resultants with 20-digit prime factors", "cost": "hang classify",
         "issue": "unbudgeted factoring (ROADMAP defect)"},
    ],
    "oracle-grid": [
        {"input": "pd (3,2,1)", "cost": "50 s", "issue": None},
        {"input": "ratfun (5,2,2)", "cost": "3 s", "issue": "kernel covered by ratfun (7,2,1)"},
        {"input": "symmat (2,3,2)", "cost": "6 s", "issue": "kernel covered by symmat (5,2,1)"},
    ],
}

# Runs stop only at block boundaries, so every run sees whole blocks of
# its mix: one operation per stratum, one semiprime, one P^d point and one
# unpointed pair, one pass over the grid.
BLOCK = {
    "certify-fresh": len(FRESH_MIX),
    "certify-shared": SHARED_BLOCK,
    "decide-q": SEMIPRIME_EVERY,
    "oracle-grid": len(GRID_CELLS),
}

# A fixed list of operations, this many blocks from the start, so that a
# figure taken over it does not scale with the host's or the program's speed:
# a traced run replays exactly this list, and an untraced run reads its peak
# RSS once the list is done.  Each list takes 8-15 s untraced at the commit
# that defined the benchmark, well inside one run.
FIXED_BLOCKS = {
    "certify-fresh": 6,
    "certify-shared": 100,
    "decide-q": 20,
    "oracle-grid": 2,
}

BUILDERS = {
    "certify-fresh": certify_fresh,
    "certify-shared": certify_shared,
    "decide-q": decide_q,
    "oracle-grid": oracle_grid,
}


def build(workload: str, seed: int) -> dict:
    """The inputs of one run; the same (workload, seed) gives the same bytes."""
    return BUILDERS[workload](random.Random(f"{workload}/{seed}"))


def dumps(inputs: dict) -> bytes:
    return json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()

"""Exact arithmetic over the integers and F_p.

Arbitrary-precision number theory (primality, Kronecker symbol), trial
division of small integers (factorize), dense polynomials over F_p
(multiplication, division, gcd, powers of x modulo a monic polynomial,
distinct-degree factoring, irreducible moduli, coefficients of
f^((p-1)/2)), and the rank of a matrix over F_p. Elements of F_p are plain
ints, matrices are sequences of integer rows, and polynomials are dense
little-endian coefficient lists: index = exponent, no trailing zeros above
the degree.

is_prime keeps the Miller-Rabin verdict for the last n it ran on, so the
public entries of one command, each checking its own p, pay for one proof.
factor_degree_profile raises x to the p-th power once and gets every later
x^(p^k) by composition.

half_power_coeffs loops once per coefficient up to the highest one asked for
and keeps each, and factorize loops up to sqrt(n), so their callers bound
those; the pure residue arithmetic here takes arbitrary-precision input.
"""

import random
from array import array
from functools import lru_cache
from math import gcd

import numpy as np

from .errors import DomainError, NotSquarefreeError

# Strong-pseudoprime bases covering all n < 3.317e24, beyond 2**64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DET_BOUND = 3317044064679887385961981
_MR_EXTRA_ROUNDS = 64  # error < 4**-64 = 2**-128 for larger n

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

_BLOCK = 4096  # recurrence steps between writes to the coefficient array


def _mr_witness(a, d, s, n):
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n):
    """Miller-Rabin; deterministic below 3.3e24, 64 extra rounds above."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    return _miller_rabin(n)


@lru_cache(maxsize=1)
def _miller_rabin(n):
    # one entry: a command proves its own p at each public entry, back to back
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        if _mr_witness(a, d, s, n):
            return False
    if n >= _MR_DET_BOUND:
        rng = random.Random(n)
        for _ in range(_MR_EXTRA_ROUNDS):
            a = rng.randrange(2, n - 1)
            if _mr_witness(a, d, s, n):
                return False
    return True


def kronecker(D, n):
    """Kronecker symbol (D/n) for positive n, standard convention at 2."""
    if n <= 0:
        raise DomainError("kronecker: n must be positive")
    r = 1
    while n % 2 == 0:
        n //= 2
        if D % 2 == 0:
            return 0
        if D % 8 in (3, 5):
            r = -r
    a = D % n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                r = -r
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            r = -r
        a %= n
    return r if n == 1 else 0


def factorize(n):
    """{prime: exponent} for n >= 1 by trial division; for small n only."""
    if n < 1:
        raise DomainError("factorize: n must be >= 1")
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = 1
    return out


# ---------------------------------------------------------------------------
# dense polynomials over F_p


def poly_trim(f):
    d = len(f) - 1
    while d > 0 and f[d] == 0:
        d -= 1
    return f[: d + 1]


_SCHOOLBOOK_CUTOFF = 48


def poly_mul(f, g, p):
    """Product over F_p via Kronecker substitution into one big multiply."""
    n, m = len(f), len(g)
    if n == 0 or m == 0:
        return [0]
    if min(n, m) <= _SCHOOLBOOK_CUTOFF:
        out = [0] * (n + m - 1)
        for i, a in enumerate(f):
            if a:
                for j, b in enumerate(g):
                    out[i + j] += a * b
        return [c % p for c in out]
    # chunk wide enough that packed product coefficients never carry over
    bits = 2 * (p - 1).bit_length() + min(n, m).bit_length() + 1
    w = (bits + 7) // 8
    fi = int.from_bytes(b"".join(c.to_bytes(w, "little") for c in f), "little")
    gi = int.from_bytes(b"".join(c.to_bytes(w, "little") for c in g), "little")
    raw = (fi * gi).to_bytes(w * (n + m), "little")
    return [
        int.from_bytes(raw[i * w : (i + 1) * w], "little") % p
        for i in range(n + m - 1)
    ]


def half_power_coeffs(f, p, wanted):
    """{m: x^m coefficient of f**e over F_p, e = (p-1)/2} for m in wanted.

    With f = x^v G(x^s), G(0) a unit and s the gcd of the exponents of f / x^v,
    f**e = x^(ev) H(x^s) for H = G**e, and G H' = e G' H gives k G_0 H_k =
    sum_{i>=1} ((e+1) i - k) G_i H_{k-i}, which fixes H_k mod p when p does not
    divide k. At k = jp, H^2 G = G^p = G(y^p) over F_p does: the y^k coefficient
    of H^2 G is G_j. H up to the highest index asked for is an int32 array, and
    so is the table of inverses mod p of 1, 2, ... up to that index.
    """
    f = [c % p for c in f]
    v = next((i for i, c in enumerate(f) if c), None)
    if v is None:
        raise DomainError("half_power_coeffs: zero polynomial")
    e, s = (p - 1) // 2, gcd(*(i for i, c in enumerate(f[v:]) if c)) or 1
    g = poly_trim(f[v::s])
    ks = {m: (m - e * v) // s for m in wanted if m >= e * v and (m - e * v) % s == 0}
    top = min(max(ks.values(), default=0), e * (len(g) - 1))  # deg H = e deg G
    h = np.zeros(top + 1, dtype=np.int32)
    inv = array("i", [0, 1])  # inv[r] = 1 / r mod p, from p = (p // r) r + p % r
    for r in range(2, min(p, top + 1)):
        inv.append(-(p // r) * inv[p % r] % p)
    u = pow(g[0], -1, p)  # run on G / G_0, so that step k divides by k alone
    terms = [(i, (e + 1) * i * c * u % p, c * u % p) for i, c in enumerate(g[1:], 1) if c]
    n = min(1 << 16, (2**63 - 1) // (p - 1) ** 2)  # int64 products per dot
    last = [0] * len(g)  # last[-i] = H_{k-i}
    for base in range(0, top + 1, p):
        hk = pow(g[0], e, p)
        if base:  # t = [H^2 G]_k - G_j at k = jp, with H_k = 0 so far and H_0 = hk
            t, rev = -(g[base // p] if base // p < len(g) else 0), h[base::-1]
            for i, c in enumerate(g[: base + 1]):
                for a in range(0, base - i + 1, n):
                    y = rev[i + a : i + a + n].astype(np.int64)
                    t += c * int(h[a : a + y.size].astype(np.int64) @ y)
            hk = -t * pow(2 * hk * g[0], -1, p) % p
        h[base] = hk
        last.append(hk)
        for lo in range(1, min(p, top - base + 1), _BLOCK):
            hi = min(lo + _BLOCK, p, top - base + 1)
            for r, w in zip(range(lo, hi), inv[lo:hi]):
                t = 0
                for i, a, c in terms:
                    t += (a - r * c) * last[-i]
                last.append(t % p * w % p)
            h[base + lo : base + hi] = last[lo - hi :]
            del last[: -len(g)]
    return {m: int(h[ks[m]]) if ks.get(m, top + 1) <= top else 0 for m in wanted}


def poly_divmod(f, g, p):
    g = poly_trim([c % p for c in g])
    if g == [0]:
        raise ZeroDivisionError("poly_divmod: division by zero polynomial")
    f = [c % p for c in f]
    dg = len(g) - 1
    inv_lc = pow(g[dg], -1, p)
    q = [0] * max(len(f) - dg, 1)
    r = list(f)
    for i in range(len(r) - 1 - dg, -1, -1):
        c = r[i + dg]
        if c:
            c = c * inv_lc % p
            q[i] = c
            for j, b in enumerate(g):
                r[i + j] = (r[i + j] - c * b) % p
    return poly_trim(q), poly_trim(r[:dg] or [0])


def poly_gcd(f, g, p):
    """Monic gcd over F_p."""
    a = poly_trim([c % p for c in f])
    b = poly_trim([c % p for c in g])
    while b != [0]:
        a, b = b, poly_divmod(a, b, p)[1]
    if a != [0]:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _mulmod(a, b, m, p):
    """a * b mod monic m over F_p, with one % per quotient digit and one per
    output coefficient; the sums in between are plain ints."""
    d = len(m) - 1
    r = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                r[i + j] += x * y
    for i in range(len(r) - 1, d - 1, -1):  # m[d] = 1 clears r[i]
        c = r[i] % p
        if c:
            for j in range(d):
                r[i - d + j] -= c * m[j]
    return poly_trim([c % p for c in r[:d]] or [0])


def poly_xpow(e, m, p):
    """x**e mod monic m over F_p, deg m >= 1, by square and shift."""
    h = [1]
    for bit in bin(e)[2:]:
        h = _mulmod(h, h, m, p)
        if bit == "1":
            h = _mulmod(h, [0, 1], m, p)
    return h


def poly_deriv(f, p):
    return poly_trim([i * c % p for i, c in enumerate(f)][1:] or [0])


def factor_degree_profile(f, p):
    """Degrees of the irreducible factors of squarefree monic f mod p.

    Distinct-degree factorization only; the factors themselves are never
    constructed. Raises NotSquarefreeError when f has a repeated factor mod p,
    which callers must treat as ramified-or-index-divisor and exclude.
    x^p mod f is taken once; since h(x)^p = h(x^p) over F_p, each later
    x^(p^k) = h(x^p) for h = x^(p^(k-1)), by Horner modulo the unfactored v.
    """
    f = poly_trim([c % p for c in f])
    d = len(f) - 1
    if d < 0 or f == [0]:
        raise DomainError("factor_degree_profile: zero polynomial")
    if f[-1] != 1:
        raise DomainError("factor_degree_profile: polynomial must be monic")
    if d == 0:
        return []
    if poly_gcd(f, poly_deriv(f, p), p) != [1]:
        raise NotSquarefreeError(f"not squarefree mod {p}")
    degrees = []
    v = f
    xp = poly_xpow(p, f, p)
    h = [0, 1]
    k = 0
    while True:
        dv = len(v) - 1
        if dv <= 0:
            break
        if 2 * (k + 1) > dv:
            degrees.append(dv)  # remainder has no factor of degree <= dv/2
            break
        k += 1
        acc = [h[-1]]
        for c in reversed(h[:-1]):
            acc = _mulmod(acc, xp, v, p)
            acc[0] = (acc[0] + c) % p
        h = acc
        diff = list(h) + [0] * (2 - len(h))
        diff[1] = (diff[1] - 1) % p
        g = poly_gcd(v, diff, p)
        dg = len(g) - 1
        if dg > 0:
            degrees.extend([k] * (dg // k))
            v = poly_divmod(v, g, p)[0]
            xp = poly_divmod(xp, v, p)[1]
            h = poly_divmod(h, v, p)[1]
    return sorted(degrees)


def find_irreducible(p, k):
    """Monic irreducible of degree k over F_p, the same one on every call."""
    if k < 1:
        raise DomainError("find_irreducible: k must be >= 1")
    if k == 1:
        return [0, 1]
    rng = random.Random(f"irr:0:{p}:{k}")
    while True:
        f = [rng.randrange(p) for _ in range(k)] + [1]
        try:
            if factor_degree_profile(f, p) == [k]:
                return f
        except NotSquarefreeError:
            pass


# ---------------------------------------------------------------------------
# matrices over F_p


def matrix_rank(rows, p):
    """Rank over F_p of a matrix given as a sequence of integer rows."""
    rows = [[c % p for c in r] for r in rows]
    rank = 0
    col = 0
    ncols = len(rows[0]) if rows else 0
    while rank < len(rows) and col < ncols:
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col]
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank

"""Exact arithmetic over the integers and F_p.

Arbitrary-precision number theory (primality, Kronecker symbol), trial
division of small integers (factorize), dense polynomials over F_p
(multiplication, division, gcd, distinct-degree factoring, irreducible
moduli, single coefficients of a power), and the rank of a matrix over F_p.
Elements of F_p are plain ints, matrices are sequences of integer rows, and
polynomials are dense little-endian coefficient lists: index = exponent, no
trailing zeros above the degree.

poly_pow_coeffs loops once per coefficient up to the highest one asked for,
and factorize once per trial divisor up to sqrt(n), so their callers bound
those; the pure residue arithmetic here (is_prime, kronecker, powmod-based
factoring) takes arbitrary-precision input.
"""

import random
from itertools import accumulate
from math import gcd

from .errors import DomainError, NotSquarefreeError

# Strong-pseudoprime bases covering all n < 3.317e24, beyond 2**64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DET_BOUND = 3317044064679887385961981
_MR_EXTRA_ROUNDS = 64  # error < 4**-64 = 2**-128 for larger n

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


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


def _inverses(xs, q):
    """Inverses of the units xs mod q for the price of one modular inversion."""
    prefix = list(accumulate(xs, lambda a, b: a * b % q, initial=1))
    t = pow(prefix[-1], -1, q)
    out = [0] * len(xs)
    for j in range(len(xs) - 1, -1, -1):
        out[j], t = prefix[j] * t % q, t * xs[j] % q
    return out


def poly_pow_coeffs(f, e, p, wanted):
    """{m: x^m coefficient of f**e over F_p} for m in wanted, by a coefficient
    recurrence that never expands f**e and keeps only its last deg f terms.

    With f = x^v F and F(0) a unit, H = F**e obeys F H' = e F' H, so over the
    integers k F_0 H_k = sum_{i>=1} ((e+1) i - k) F_i H_{k-i}. The loop runs
    mod p^N: each factor of p in k is divided out of the sum exactly and costs
    one p-adic digit, so N = 1 + v_p(top!) keeps H_top exact mod p.
    """
    f = [c % p for c in f]
    v = next((i for i, c in enumerate(f) if c), None)
    if v is None or e < 0:
        raise DomainError("poly_pow_coeffs: zero polynomial or negative exponent")
    need = {m - e * v: 0 for m in wanted if m >= e * v}
    top = max(need, default=0)
    digits = 1 + sum(top // p**j for j in range(1, max(top, 1).bit_length()))  # Legendre
    q, f0 = p**digits, f[v]
    terms = [(i, (e + 1) * i * c, c) for i, c in enumerate(f[v + 1 :], 1) if c]
    h = [0] * len(f) + [pow(f0, e, q)]  # zero-padded so that h[-i] is H_{k-i}
    need[0] = h[-1] % p
    for start in range(1, top + 1, 512):
        del h[: -len(f)]
        ks = range(start, min(start + 512, top + 1))
        units = [k if k % p else k // gcd(k, q) for k in ks]  # p-free parts
        for k, u, w in zip(ks, units, _inverses([u * f0 for u in units], q)):
            s = 0
            for i, a, c in terms:
                s += (a - k * c) * h[-i]
            h.append(s % q // (k // u) * w % q)
            if k in need:
                need[k] = h[-1] % p
    return {m: need.get(m - e * v, 0) for m in wanted}


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


def poly_powmod(f, e, m, p):
    """f**e mod m over F_p by square and multiply."""
    acc = [1]
    base = poly_divmod(f, m, p)[1]
    while e:
        if e & 1:
            acc = poly_divmod(poly_mul(acc, base, p), m, p)[1]
        e >>= 1
        if e:
            base = poly_divmod(poly_mul(base, base, p), m, p)[1]
    return acc


def poly_deriv(f, p):
    return poly_trim([i * c % p for i, c in enumerate(f)][1:] or [0])


def factor_degree_profile(f, p):
    """Degrees of the irreducible factors of squarefree monic f mod p.

    Distinct-degree factorization only; the factors themselves are never
    constructed. Raises NotSquarefreeError when f has a repeated factor mod p,
    which callers must treat as ramified-or-index-divisor and exclude.
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
        h = poly_powmod(h, p, v, p)
        diff = list(h) + [0] * (2 - len(h))
        diff[1] = (diff[1] - 1) % p
        g = poly_gcd(v, diff, p)
        dg = len(g) - 1
        if dg > 0:
            degrees.extend([k] * (dg // k))
            v = poly_divmod(v, g, p)[0]
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

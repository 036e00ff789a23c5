"""Exact arithmetic over the integers and F_p.

Arbitrary-precision number theory (primality, Kronecker symbol, square
roots mod p), trial division of small integers (factorize), dense
polynomials over F_p (division, gcd, powers of x modulo a monic polynomial,
distinct-degree factoring, irreducible moduli, coefficients of
f^((p-1)/2)), Cantor's group law on the Jacobian of an odd-degree
hyperelliptic curve, and the rank of a matrix over F_p. Elements of F_p are
plain ints, and polynomials are dense little-endian coefficient lists:
index = exponent, no trailing zeros above the degree. Matrices are rows of
ints (a tuple of row tuples, a list of rows), at any p. numpy is imported by
the functions that build arrays (half_power_coeffs and its helpers), not by
this module, so the pure-int code loads without it.

is_prime decides n < 1009^2 by one gcd with the product of the primes below
1000, proves n below psi_13 with the 13 Miller-Rabin bases 2..41, and from
psi_13 up runs base 2, then 64 rounds seeded by n (error below 4^-64). It
keeps the verdict for the last n it ran on, so the public entries of one
command, each checking its own p, pay for one proof.
factor_degree_profile raises x to the p-th power once and gets every later
x^(p^k) by composition.

half_power_coeffs keeps every coefficient up to the highest one asked for,
in int32, and splits each block of p - 1 of them into about sqrt(8p) chunks
of sqrt(p/8) steps. Once per call, pass 1 runs the chunks of the first block
side by side from unit start states: that keeps each step's row, its
coefficient as a linear form in its chunk's start state (deg G int32 entries
a step), and gives the chunks' transfer matrices. Multiplied up in groups of
about (8p)^(1/4), those give every chunk's start state in about (8p)^(1/4)
numpy steps (pass 2), and a block is then one batched product of rows and
start states. The last block, which no pin reads, reads only the chunks that
hold a coefficient asked for. This holds for p <= 2^31 and
deg G (p - 1)^2 < 2^63 (the int32 history, one int64 sum per step);
factorize loops up to sqrt(n). Their callers bound those; the pure residue
arithmetic here takes arbitrary-precision input.

jacobian_add answers the genus-2 and genus-3 sums that an order check
makes, two coprime degree-g divisors or the double of one, in closed form
on plain ints, with the exact pair that Cantor's general composition and
reduction (`_cantor`) return: about 50 multiplications and two inversions
mod p at genus 2; about 100 for a sum, 120 for a double, and three
inversions at genus 3 (one CRT step, then two reduction steps). `_cantor`
stays the group law at every genus, for the rare pairs the closed forms
leave, and the reference they are tested against.
"""

import random
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt, prod

from .errors import DomainError, NotSquarefreeError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DET_BOUND = 3317044064679887385961981  # psi_13: the bases above prove every n below it
_MR_EXTRA_ROUNDS = 64  # after base 2 from psi_13 up: error < 4**-64 = 2**-128


def _primes_below(n):
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for q in range(2, isqrt(n - 1) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes(len(range(q * q, n, q)))
    return frozenset(compress(range(n), sieve))


_SMALL_PRIMES = _primes_below(1000)
_PRIMORIAL = prod(_SMALL_PRIMES)
_SIEVE_BOUND = 1009**2  # the least composite coprime to _PRIMORIAL

_SLAB = 1 << 15  # int64 entries in one temporary of half_power_coeffs


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
    """Whether the integer n is prime, in three tiers. n < 1000 is looked up
    in a sieve, and one gcd with the product of the primes below 1000 decides
    every n < 1009^2. Below psi_13 = 3317044064679887385961981 (Sorenson and
    Webster, Math. Comp. 86, 2017) the 13 strong-pseudoprime bases 2..41 prove
    primality. From psi_13 up, base 2 runs first, then 64 rounds with bases
    drawn from random.Random(n), so a composite passes with probability below
    4^-64. One proof of a prime takes about 0.11 ms at 64 bits, 1.8 ms at 128
    bits and 6.4 ms at 256 bits (median of five primes, 2-core Xeon)."""
    if n < 1000:
        return n in _SMALL_PRIMES
    if gcd(n, _PRIMORIAL) > 1:
        return False
    return n < _SIEVE_BOUND or _miller_rabin(n)


@lru_cache(maxsize=1)
def _miller_rabin(n):
    # one entry: a command proves its own p at each public entry, back to back
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s, d odd
    d = (n - 1) >> s
    if n < _MR_DET_BOUND:
        return not any(_mr_witness(a, d, s, n) for a in _MR_BASES)
    if _mr_witness(2, d, s, n):  # rejects most search candidates in one round
        return False
    rng = random.Random(n)
    return not any(_mr_witness(rng.randrange(2, n - 1), d, s, n) for _ in range(_MR_EXTRA_ROUNDS))


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


def half_power_coeffs(f, p, wanted):
    """{m: x^m coefficient of f**e over F_p, e = (p-1)/2} for m in wanted.

    With f = x^v G(x^s), G(0) a unit and s the gcd of the exponents of f / x^v,
    f**e = x^(ev) H(x^s) for H = G**e, and G H' = e G' H gives k G_0 H_k =
    sum_{i>=1} ((e+1) i - k) G_i H_{k-i}, which fixes H_k mod p when p does not
    divide k. At k = jp, H^2 G = G^p = G(y^p) over F_p does: the y^k coefficient
    of H^2 G is G_j. Between two such pins the step at k = jp + r multiplies
    H_{k-i} by ((e+1) i G_i / r - G_i) / G_0, which depends on r alone, so
    `_recur` runs each block of up to p - 1 steps as a linear recurrence of
    order deg G, in chunks side by side. H up to the highest index asked for
    is an int32 array, and so are the table of inverses mod p of 1, 2, ... up
    to that index and `_recur`'s rows, deg G entries for each step of the
    first block (rounded up to whole chunks); no other array holds more than
    twice `_SLAB` int64 entries, or 2 deg G^2 of them when deg G^2 > `_SLAB`.
    A step sums deg G products in int64: p > 2^31 or deg G (p - 1)^2 >= 2^63
    raises DomainError.
    """
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view
    f = [c % p for c in f]
    v = next((i for i, c in enumerate(f) if c), None)
    if v is None:
        raise DomainError("half_power_coeffs: zero polynomial")
    e, s = (p - 1) // 2, gcd(*(i for i, c in enumerate(f[v:]) if c)) or 1
    g = poly_trim(f[v::s])
    if p > 2**31 or (len(g) - 1) * (p - 1) ** 2 >= 2**63:
        raise DomainError(f"half_power_coeffs: p = {p}, deg G = {len(g) - 1} out of range;"
                          " needs p <= 2^31 and deg G (p - 1)^2 < 2^63")
    ks = {m: (m - e * v) // s for m in wanted if m >= e * v and (m - e * v) % s == 0}
    top = min(max(ks.values(), default=0), e * (len(g) - 1))  # deg H = e deg G
    h = np.zeros(top + 1, dtype=np.int32)
    inv = _inverses(min(p, top + 1), p)
    u = pow(g[0], -1, p)  # run on G / G_0, so that step k divides by k alone
    # entry j of a and c belongs to H_{k-d+j}, d = deg G, that is to i = d - j
    a = np.array([(e + 1) * i * gi * u % p for i, gi in enumerate(g)][:0:-1], dtype=np.int64)
    c = np.array([gi * u % p for gi in g][:0:-1], dtype=np.int64)
    n = min(_SLAB, (2**63 - 1) // (p - 1) ** 2)  # int64 products per pin sum
    plan = None
    for base in range(0, top + 1, p):
        hk = pow(g[0], e, p)
        if base:  # t = [H^2 G]_k - G_j at k = jp, with H_k = 0 so far and H_0 = hk
            t, sums = -(g[base // p] if base // p < len(g) else 0), np.zeros(len(g), np.int64)
            for lo in range(0, base + 1, n):  # window row i: H_l H_(k-i-l), l in the slab
                x = h[lo : min(lo + n, base + 1)].astype(np.int64)
                y = np.zeros(x.size + len(g) - 1, dtype=np.int64)
                y[: min(y.size, base + 1 - lo)] = h[base - lo :: -1][: y.size]
                sums = (sums + sliding_window_view(y, x.size) @ x % p) % p
            t += sum(gi * int(si) for gi, si in zip(g, sums))
            hk = -t * pow(2 * hk * g[0], -1, p) % p
        h[base] = hk
        if base < top:
            only = [k - base for k in ks.values() if base < k <= top] if base + p > top else None
            plan = _recur(h, base, min(p - 1, top - base), a, c, inv, p, plan, only)
    return {m: int(h[ks[m]]) if ks.get(m, top + 1) <= top else 0 for m in wanted}


def _inverses(n, p):
    """int32 table of 1/r mod p for 0 < r < n <= p, p prime; entry 0 is 0.

    With q the integer nearest p / r, x = q r - p has 0 < |x| <= r / 2 and
    1/r = q / x, so inverses of r in [m, 2m) read the table below m.
    """
    import numpy as np
    inv = np.zeros(n, dtype=np.int32)
    inv[1:2] = 1
    for lo in range(0, n, _SLAB):
        r = np.arange(max(lo, 2), min(lo + _SLAB, n), dtype=np.int64)
        q = r + 2 * p
        q //= r + r
        x = np.multiply(r, q, out=r)
        x -= p
        q *= np.sign(x)
        np.abs(x, out=x)
        m = start = max(lo, 2)
        while m < start + x.size:  # [m, 2m) and the slab, from m = 2, 4, 8, ...
            hi = min(2 * m, start + x.size)
            inv[m:hi] = q[m - start : hi - start] * inv[x[m - start : hi - start]] % p
            m = hi
    return inv


def _recur(h, base, steps, a, c, inv, p, plan=None, only=None):
    """Write H_{base+r} = sum_j (a_j / r - c_j) H_{base+r-d+j}, 1 <= r <= steps;
    given `only`, a list of the wanted r, write at least those.

    The block splits into about sqrt(8 steps) chunks of `size` steps (the
    fastest count measured from p = 107 to 10^6). Step r's factors depend on
    r alone, so pass 1 runs once per call, on the first block, the longest:
    `_rows` carries the d unit start states through every chunk side by
    side, which writes each step's row, H_{base+r} as a linear form in its
    chunk's start window, and gives each chunk's d x d transfer matrix. It
    multiplies those up within groups of q ~ sqrt(chunks) chunks, and the
    plan (size, prefix products, rows) is returned for the later blocks: a
    shorter one keeps the size and takes a prefix. Pass 2 walks the groups'
    full products from the block's start state to each group's, one mat-vec
    a group, and then takes every chunk's start state in one batched
    product; `_product` writes each chunk's H as its rows times its start
    state. With `only`, pass 2 stops at the last chunk that holds a wanted r,
    and the product reads only the chunks that hold one. Pass 1 costs d^2
    multiply-adds per step against d for the product, so a block has at
    most max(1, `_SLAB` / d^2) chunks; with one, pass 2 is trivial.
    """
    import numpy as np
    d = a.size
    if plan is None:
        size = -(-steps // max(1, min(isqrt(8 * steps), _SLAB // (d * d))))
        chunks = -(-steps // size)
        q = isqrt(chunks)
        if 2 * size + 2 * q >= steps:  # no fewer steps than one chunk takes
            size, chunks, q = steps, 1, 1
        rows, ends = _rows(chunks, size, steps, a, c, inv, p)
        groups, eye = -(-chunks // q), np.eye(d, dtype=np.int64)
        moves = np.tile(eye, (groups * q, 1, 1))  # chunk i's start to i + 1's
        moves[: chunks - 1] = ends[:-1]
        moves = moves.reshape(groups, q, d, d)
        pre = np.empty((groups, q + 1, d, d), dtype=np.int64)  # chunk gq's start to gq + j's
        pre[:, 0] = eye
        for j in range(min(q, chunks - 1)):  # one chunk reads pre[0, 0] alone
            pre[:, j + 1] = moves[:, j] @ pre[:, j] % p
        plan = size, pre, rows
    size, pre, rows = plan
    q = pre.shape[1] - 1
    want = (np.arange(-(-steps // size)) if only is None  # the chunks to read
            else np.flatnonzero(np.bincount([(r - 1) // size for r in only])))
    if not want.size:
        return plan
    start = np.zeros((want[-1] // q + 1, d, 1), dtype=np.int64)  # group g's start state
    lo = max(0, base + 1 - d)
    start[0, d - (base + 1 - lo) :, 0] = h[lo : base + 1]
    for g in range(start.shape[0] - 1):
        start[g + 1] = pre[g, q] @ start[g] % p
    state = pre[want // q, want % q] @ start[want // q] % p
    _product(rows, want, state, p, h[base + 1 : base + 1 + steps])
    return plan


def _rows(chunks, size, steps, a, c, inv, p):
    """Run the d unit start states through `size` steps from r = 1 + i size
    for every chunk i < chunks side by side. Return the rows, chunks x size x
    d int32, row t of chunk i holding step r = 1 + i size + t's new value as
    a linear form in the chunk's start window (entry j holding H_{k-d+j}),
    and each chunk's final window, chunks x d x d: its transfer matrix. A
    step past `steps`, in a short last chunk, takes step `steps`' factors;
    no block reads its row."""
    import numpy as np
    d = a.size
    first = 1 + size * np.arange(chunks)
    span = max(1, _SLAB // (chunks * d))  # steps per slab of coefficients
    buf = np.empty((d + span, chunks, d), dtype=np.int64)  # row k: H_k of every chunk
    buf[:d] = np.eye(d, dtype=np.int64)[:, None]
    win = buf.swapaxes(0, 1)  # win[:, t : t + d]: each chunk's window at step t
    rows = np.empty((chunks, size, d), dtype=np.int32)
    quo = np.empty((chunks, 1, d), dtype=np.int64)
    # one pair of coefficient slabs for every round: fresh ones map new
    # pages each round, about 20 ms more at p = 10^6 in a new process
    slab, div = np.empty((2, d, min(span, size), chunks), dtype=np.int64)
    for t0 in range(0, size, span):
        m = min(span, size - t0)
        r = np.arange(t0, t0 + m)[:, None] + first
        cf, q = slab[:, :m], div[:, :m]
        np.multiply(a[:, None, None], inv[np.minimum(r, steps, out=r)], out=cf)
        cf -= c[:, None, None]
        np.floor_divide(cf, p, out=q)
        q *= p
        cf -= q
        cf = cf.transpose(1, 2, 0)[:, :, None]  # step t: (chunks, 1, d)
        for t in range(m):
            new = win[:, d + t, None]
            np.matmul(cf[t], win[:, t : t + d], out=new)
            np.floor_divide(new, p, out=quo)  # new - new // p * p: a floor division by
            quo *= p  # a scalar runs as a multiply by its reciprocal, np.remainder
            new -= quo  # as one hardware division per entry, about twice the time
        rows[:, t0 : t0 + m] = win[:, d : d + m]
        buf[:d] = buf[m : m + d]
    return rows, win[:, :d]


def _product(rows, chunk, state, p, out):
    """Write rows[i, t] . state[n] mod p, the value of step r = 1 + i size + t
    for i = chunk[n] (ascending), to out[r - 1], the block's H_{base+r}; r
    stops at out.size. Each batched product reads at most `_SLAB` row
    entries."""
    import numpy as np
    size, d = rows.shape[1:]
    m = min(size, max(1, _SLAB // d))  # steps per slab
    k = max(1, _SLAB // (m * d))  # chunks per slab
    for i in range(0, chunk.size, k):
        w = chunk[i : i + k]
        for t0 in range(0, size, m):
            x = np.matmul(rows[w, t0 : t0 + m], state[i : i + k])
            x -= x // p * p
            at = (w[:, None] * size + np.arange(t0, t0 + x.shape[1])).ravel()
            n = np.searchsorted(at, out.size)
            out[at[:n]] = x.ravel()[:n]


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


def _pmul(a, b, p):
    r = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                r[i + j] += x * y
    return poly_trim([c % p for c in r])


def _padd(a, b, p, sign=1):
    r = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        r[i] = c
    for i, c in enumerate(b):
        r[i] += sign * c
    return poly_trim([c % p for c in r])


def _xgcd(a, b, p):
    """(d, s): d the monic gcd of a and b over F_p, and s with s a = d mod b."""
    r0, r1, s0, s1 = a, b, [1], [0]
    while r1 != [0]:
        q, r = poly_divmod(r0, r1, p)
        r0, r1, s0, s1 = r1, r, s1, _padd(s0, _pmul(q, s1, p), p, -1)
    inv = pow(r0[-1], -1, p)
    return [c * inv % p for c in r0], [c * inv % p for c in s0]


def sqrt_mod(a, p):
    """A square root of the square a mod the odd prime p (Tonelli-Shanks)."""
    a %= p
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:  # the least non-residue
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t > 1:  # r^2 = a t, and the order of t halves each round
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


# ---------------------------------------------------------------------------
# the Jacobian of y^2 = f(x), deg f = 2g + 1, over F_p (Cantor, Math. Comp.
# 48, 1987): a divisor class is its reduced Mumford pair (u, v), u monic of
# degree <= g, deg v < deg u and u | f - v^2; zero is ([1], [0])


def jacobian_add(d1, d2, f, p):
    """The reduced sum of two divisor classes.

    D + 0 = D and D + (-D) = 0. At genus 2 (deg f = 5), two coprime monic
    quadratics u1, u2, or a doubling with 2v invertible mod u, run Cantor's
    composition and its one reduction step on plain ints: k is linear, the
    inverse of a linear residue mod a monic quadratic comes from their
    resultant, v = v1 + u1 k, u' is the monic quotient (f - v^2) / (u1 u2),
    read off its top three coefficients, and v' = -v mod u'. That gives the
    pair `_cantor` gives. A zero resultant, or k without an x term, runs
    `_cantor`. At genus 3 (deg f = 7), the same pairs of cubics run `_sum3`.
    Every other pair, two points among them, runs `_cantor`, the group law
    at every genus.
    """
    (u1, v1), (u2, v2) = d1, d2
    if u2 == [1]:
        return u1, v1
    if u1 == [1]:
        return u2, v2
    if u1 == u2 and v2 == [-c % p for c in v1]:
        return [1], [0]
    if len(f) == 6 and len(u1) == len(u2) == 3:
        (a0, a1, _), (b0, b1, _) = u1, u2
        y0, y1 = v1[0], v1[1] if len(v1) > 1 else 0
        if d1 == d2:  # k = w / 2v mod u, w = (f - v^2) / u = q3 x^3 + ... + q0
            q3 = f[5]
            q2 = f[4] - a1 * q3
            q1 = f[3] - a1 * q2 - a0 * q3
            q0 = f[2] - y1 * y1 - a1 * q1 - a0 * q2
            w1, w0 = q3 * (a1 * a1 - a0) - a1 * q2 + q1, q3 * a1 * a0 - a0 * q2 + q0
            r1, r0 = 2 * y1, 2 * y0
        else:  # k = w / r mod u2, w = v2 - v1 and r = u1 mod u2
            w1, w0 = (v2[1] if len(v2) > 1 else 0) - y1, v2[0] - y0
            r1, r0 = a1 - b1, a0 - b0
        res = (r0 * r0 - b1 * r0 * r1 + b0 * r1 * r1) % p  # resultant of r and u2
        s1, s0 = -r1, r0 - b1 * r1  # r s = res mod u2
        k1 = (w1 * s0 + w0 * s1 - b1 * w1 * s1) % p
        if res and k1:
            t = pow(res, -1, p)
            k1, k0 = k1 * t % p, (w0 * s0 - b0 * w1 * s1) * t % p
            h2, h1, h0 = (k0 + a1 * k1) % p, (a1 * k0 + a0 * k1 + y1) % p, (a0 * k0 + y0) % p
            # v = k1 x^3 + h2 x^2 + h1 x + h0, and u1 u2 = x^4 + c3 x^3 + c2 x^2 + ...
            c3, c2 = a1 + b1, a0 + b0 + a1 * b1
            q2 = -k1 * k1
            q1 = f[5] - 2 * k1 * h2 - c3 * q2
            q0 = f[4] - h2 * h2 - 2 * k1 * h1 - c3 * q1 - c2 * q2
            t = pow(q2, -1, p)
            e1, e0 = q1 * t % p, q0 * t % p
            # v mod u' by x^2 = -e1 x - e0 and x^3 = (e1^2 - e0) x + e1 e0
            g1 = (k1 * (e1 * e1 - e0) - h2 * e1 + h1) % p
            g0 = (k1 * e1 * e0 - h2 * e0 + h0) % p
            return [e0, e1, 1], [-g0 % p, p - g1] if g1 else [-g0 % p]
    if len(f) == 8 and len(u1) == len(u2) == 4 and (closed := _sum3(d1, d2, f, p)):
        return closed
    return _cantor(d1, d2, f, p)


def _sum3(d1, d2, f, p):
    """Genus 3: Cantor's composition and its two reduction steps, or None.

    k = w / r mod m, with (m, r, w) = (u2, u1 - u2, v2 - v1) for a sum and
    (u1, 2 v1, (f - v1^2) / u1 mod u1) for a double; 1 / r is the first
    column of the adjugate of the matrix of r mod the monic cubic m, over
    its determinant. v = v1 + u1 k has degree 5, so u' = (f - v^2) / (u1 m),
    read off its top five coefficients and made monic, has degree 4; with
    g = v mod u', the second step gives u'' = (f - g^2) / u', made monic,
    and v'' = g mod u''. A zero determinant (u1 and u2 share a root, or 2v
    does with u), or k without an x^2 term, gives None.
    """
    (u1, v1), (u2, v2) = d1, d2
    a0, a1, a2, _ = u1
    y0, y1, y2 = v1 + [0] * (3 - len(v1))
    _, _, _, f3, f4, f5, f6, f7 = f
    if d1 == d2:  # w = W mod u1 for the quotient W = (f - v1^2) / u1 of degree 4
        m0, m1, m2 = a0, a1, a2
        w3 = f6 - a2 * f7
        w2 = f5 - a2 * w3 - a1 * f7
        w1 = f4 - y2 * y2 - a2 * w2 - a1 * w3 - a0 * f7
        w0 = f3 - 2 * y2 * y1 - a2 * w1 - a1 * w2 - a0 * w3
        w3, w2, w1 = (w3 - a2 * f7) % p, w2 - a1 * f7, w1 - a0 * f7
        w2, w1, w0 = (w2 - a2 * w3) % p, (w1 - a1 * w3) % p, (w0 - a0 * w3) % p
        r0, r1, r2 = 2 * y0, 2 * y1, 2 * y2
    else:
        m0, m1, m2, _ = u2
        z0, z1, z2 = v2 + [0] * (3 - len(v2))
        w0, w1, w2 = z0 - y0, z1 - y1, z2 - y2
        r0, r1, r2 = a0 - m0, a1 - m1, a2 - m2
    # the columns x r and x^2 r mod m of the matrix of r, then s with r s = res mod m
    b0, b1, b2 = -r2 * m0 % p, (r0 - r2 * m1) % p, (r1 - r2 * m2) % p
    d0, d1, d2 = -b2 * m0, b0 - b2 * m1, b1 - b2 * m2
    s0, s1, s2 = (b1 * d2 - d1 * b2) % p, (d1 * r2 - r1 * d2) % p, (r1 * b2 - b1 * r2) % p
    res = (r0 * s0 + b0 * s1 + d0 * s2) % p
    if not res:
        return None
    t4, t3 = w2 * s2, w1 * s2 + w2 * s1  # w s, then mod m
    t2, t1, t0 = w0 * s2 + w1 * s1 + w2 * s0, w0 * s1 + w1 * s0, w0 * s0
    t3, t2, t1 = (t3 - m2 * t4) % p, t2 - m1 * t4, t1 - m0 * t4
    k2 = (t2 - m2 * t3) % p
    if not k2:
        return None
    t = pow(res, -1, p)
    k2, k1, k0 = k2 * t % p, (t1 - m1 * t3) * t % p, (t0 - m0 * t3) * t % p
    # v = c5 x^5 + ... + c0, and u1 m = x^6 + U5 x^5 + U4 x^4 + ...
    c5 = k2
    c4 = (k1 + a2 * k2) % p
    c3 = (k0 + a2 * k1 + a1 * k2) % p
    c2 = (a2 * k0 + a1 * k1 + a0 * k2 + y2) % p
    c1 = (a1 * k0 + a0 * k1 + y1) % p
    c0 = (a0 * k0 + y0) % p
    U5, U4 = a2 + m2, a1 + m1 + a2 * m2
    U3, U2 = a0 + m0 + a2 * m1 + a1 * m2, a2 * m0 + a1 * m1 + a0 * m2
    q4 = -c5 * c5
    q3 = -2 * c5 * c4 - U5 * q4
    q2 = -2 * c5 * c3 - c4 * c4 - U5 * q3 - U4 * q4
    q1 = f7 - 2 * (c5 * c2 + c4 * c3) - U5 * q2 - U4 * q3 - U3 * q4
    q0 = f6 - 2 * (c5 * c1 + c4 * c2) - c3 * c3 - U5 * q1 - U4 * q2 - U3 * q3 - U2 * q4
    t = pow(q4, -1, p)
    e3, e2, e1, e0 = q3 * t % p, q2 * t % p, q1 * t % p, q0 * t % p
    c4 -= c5 * e3
    g3 = (c3 - c5 * e2 - c4 * e3) % p
    g2 = (c2 - c5 * e1 - c4 * e2) % p
    g1 = (c1 - c5 * e0 - c4 * e1) % p
    g0 = (c0 - c4 * e0) % p
    h2 = f6 - g3 * g3 - e3 * f7
    h1 = f5 - 2 * g3 * g2 - e3 * h2 - e2 * f7
    h0 = f4 - 2 * g3 * g1 - g2 * g2 - e3 * h1 - e2 * h2 - e1 * f7
    t = pow(f7, -1, p)
    n2, n1, n0 = h2 * t % p, h1 * t % p, h0 * t % p
    return [n0, n1, n2, 1], poly_trim([(g0 - g3 * n0) % p, (g1 - g3 * n1) % p, (g2 - g3 * n2) % p])


def _cantor(d1, d2, f, p):
    """Cantor's general composition and reduction on list polynomials, at
    any genus: d = gcd(u1, u2, v1 + v2) = s1 u1 + s2 u2 + s3 (v1 + v2),
    u = u1 u2 / d^2, v = (s1 u1 v2 + s2 u2 v1 + s3 (v1 v2 + f)) / d mod u,
    then steps u <- (f - v^2) / u made monic, v <- -v mod u while deg u > g."""
    (u1, v1), (u2, v2) = d1, d2
    d0, e1 = _xgcd(u1, u2, p)  # d0 = e1 u1 + e2 u2
    e2 = poly_divmod(_padd(d0, _pmul(e1, u1, p), p, -1), u2, p)[0]
    w = _padd(v1, v2, p)
    d, c1 = _xgcd(d0, w, p)  # d = c1 d0 + c2 w, so s1 = c1 e1, s2 = c1 e2, s3 = c2
    c2 = poly_divmod(_padd(d, _pmul(c1, d0, p), p, -1), w, p)[0] if w != [0] else [0]
    u = poly_divmod(_pmul(u1, u2, p), _pmul(d, d, p), p)[0]
    v = _padd(_pmul(_pmul(c1, e1, p), _pmul(u1, v2, p), p),
              _pmul(_pmul(c1, e2, p), _pmul(u2, v1, p), p), p)
    v = _padd(v, _pmul(c2, _padd(_pmul(v1, v2, p), f, p), p), p)
    v = poly_divmod(poly_divmod(v, d, p)[0], u, p)[1]
    while len(u) > (len(f) + 1) // 2:  # deg u > g
        u = poly_divmod(_padd(f, _pmul(v, v, p), p, -1), u, p)[0]
        inv = pow(u[-1], -1, p)
        u = [c * inv % p for c in u]
        v = poly_divmod([-c % p for c in v], u, p)[1]
    return u, v


def jacobian_mul(terms, f, p):
    """The sum of [n] d over the (n, d) in terms, n >= 0, by one double and
    add pass over the bits of every n at once (Straus): each bit position
    adds the sum of the d whose n has that bit, formed once per subset."""
    zero, sums = ([1], [0]), {}
    out = zero
    for i in range(max(n for n, _ in terms).bit_length() - 1, -1, -1):
        out = jacobian_add(out, out, f, p) if out != zero else out
        subset = tuple(j for j, (n, _) in enumerate(terms) if n >> i & 1)
        if subset:
            if subset not in sums:
                sums[subset] = zero
                for j in subset:
                    sums[subset] = jacobian_add(sums[subset], terms[j][1], f, p)
            out = jacobian_add(out, sums[subset], f, p)
    return out


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
    """Rank over F_p of a matrix given as rows of ints, by forward elimination.

    Entries are reduced mod p once. Each pivot row clears its column from the
    later rows that have a nonzero entry there, by its own nonzero entries.
    """
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is not None:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            inv = pow(rows[rank][col], -1, p)
            support = [(j, x) for j, x in enumerate(rows[rank]) if x]
            for row in rows[rank + 1 :]:
                if row[col]:
                    c = row[col] * inv % p
                    for j, x in support:
                        row[j] = (row[j] - c * x) % p
            rank += 1
    return rank

"""Arithmetic layer: primality, Kronecker symbol, polynomial and matrix ops.

Cross-checks against naive reimplementations with seeded randomness, so the
fast paths (Kronecker-substitution multiply, DDF, echelon rank, the chunked
Cartier-Manin recurrence against its per-coefficient loop, the genus-2 and
genus-3 closed forms of the group law against Cantor's list-polynomial
code) are never the only implementation of themselves.
"""

import itertools
import math
import random
import tracemalloc
from array import array
from math import gcd

import numpy as np
import pytest

from cmreduce import DomainError, NotSquarefreeError, ff_arith
from cmreduce.ff_arith import (
    factor_degree_profile,
    factorize,
    find_irreducible,
    half_power_coeffs,
    is_prime,
    jacobian_add,
    jacobian_mul,
    kronecker,
    matrix_rank,
    poly_deriv,
    poly_divmod,
    poly_gcd,
    poly_trim,
    poly_xpow,
    sqrt_mod,
)
from cmreduce.invariants import ReducedCurve, point_count


# the distinct psi_k, k = 1..13, the least strong pseudoprimes to the first k
# prime bases (Sorenson and Webster, Math. Comp. 86, 2017): psi_8 = psi_9, and
# psi_10 = psi_11 = psi_12 = 399165290221 * 798330580441
PSI = [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
       3825123056546413051, 318665857834031151167461, 3317044064679887385961981]


def trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_small_range():
    # and windows around 997^2, 10^6 and 1009^2 = 1018081, the first composite
    # that the gcd with the primes below 1000 lets through
    windows = (range(lo, lo + 2001) for lo in (993009, 999000, 1017081))
    for n in itertools.chain(range(-3, 2000), *windows):
        assert is_prime(n) == trial_division(n), n


def test_factorize_small_range():
    for n in range(1, 2000):
        fac = factorize(n)
        assert all(trial_division(q) and e >= 1 for q, e in fac.items()), n
        assert math.prod(q**e for q, e in fac.items()) == n
    with pytest.raises(DomainError):
        factorize(0)


def test_is_prime_carmichael_and_strong_pseudoprimes():
    # Carmichael numbers fool the Fermat test for every coprime base
    for n in (561, 1105, 1729, 41041, 825265):
        assert not is_prime(n)
    assert PSI[-2] == 399165290221 * 798330580441
    for n in PSI:
        assert not is_prime(n), n


def test_is_prime_accepts_the_nearest_primes_around_psi13(monkeypatch):
    # the prime below psi_13 is proved by the 13 bases, the one above by base 2
    # and the 64 seeded rounds
    rounds = []
    witness = ff_arith._mr_witness

    def counted(a, d, s, n):
        rounds.append(a)
        return witness(a, d, s, n)

    monkeypatch.setattr(ff_arith, "_mr_witness", counted)
    psi13 = PSI[-1]
    for n, want in ((psi13 - 168, 13), (psi13 + 142, 65)):
        ff_arith._miller_rabin.cache_clear()
        rounds.clear()
        assert is_prime(n), n
        assert len(rounds) == want and rounds[0] == 2, n
    assert not any(is_prime(n) for n in range(psi13 - 167, psi13 + 142))


def test_is_prime_large():
    assert is_prime((1 << 61) - 1)
    assert is_prime((1 << 89) - 1)
    assert not is_prime((1 << 67) - 1)  # 193707721 * 761838257287
    assert is_prime((1 << 128) + 51)
    assert not is_prime((1 << 128) + 49)


def test_is_prime_alternating_large_values():
    # the Miller-Rabin verdict is memoised for the last n only: alternating
    # p and p + 2 must each get their own verdict, first call or repeated.
    # No p + 2 here has a factor below 1000, so each reaches Miller-Rabin
    cases = [(128, 681, False), (128, 993, True), (256, 141, False), (256, 1269, True)]
    for bits, offset, twin in cases:
        p = (1 << (bits - 1)) + offset
        for _ in range(3):
            assert is_prime(p), p
            assert is_prime(p + 2) is twin, p + 2


def naive_jacobi(a, n):
    # odd n > 0 only; standard reciprocity ladder
    assert n > 0 and n % 2 == 1
    a %= n
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def test_kronecker_matches_jacobi_on_odd_moduli():
    for n in range(1, 400, 2):
        for a in range(-30, 30):
            assert kronecker(a, n) == naive_jacobi(a, n), (a, n)


def test_kronecker_at_two():
    # (a/2) is 0 for even a, +1 for a = +-1 mod 8, -1 for a = +-3 mod 8
    want = {0: 0, 1: 1, 2: 0, 3: -1, 4: 0, 5: -1, 6: 0, 7: 1}
    for a in range(-40, 40):
        assert kronecker(a, 2) == want[a % 8]


def test_kronecker_euler_criterion():
    for p in (3, 5, 7, 11, 101, 65537):
        for a in range(1, 25):
            e = pow(a, (p - 1) // 2, p)
            want = 0 if a % p == 0 else (1 if e == 1 else -1)
            assert kronecker(a, p) == want


def test_kronecker_negative_top_and_unit_modulus():
    assert kronecker(5, 1) == 1
    assert kronecker(-1, 5) == 1
    assert kronecker(-1, 7) == -1
    with pytest.raises(DomainError):
        kronecker(12, -3)  # modulus is restricted to positive integers
    with pytest.raises(DomainError):
        kronecker(12, 0)


def naive_mul(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return out


def test_half_power_coeffs_small_cases():
    # (x + 1)^6 at p = 13: binomials mod 13; past the degree reads 0
    assert half_power_coeffs([1, 1], 13, range(9)) == dict(enumerate([1, 6, 2, 7, 2, 6, 1, 0, 0]))
    # a factor x^v shifts the power; indices below it, or negative, read 0
    assert half_power_coeffs([0, 1, 1], 5, [-1, 1, 2, 3, 4, 5]) == {
        -1: 0, 1: 0, 2: 1, 3: 2, 4: 1, 5: 0}
    # (1 + x^2)^3 at p = 7 lives on even exponents only
    assert half_power_coeffs([1, 0, 1], 7, range(9)) == dict(enumerate([1, 0, 3, 0, 3, 0, 1, 0, 0]))
    # at p = 3 the power is f itself; degree 9 pins H_3, H_6 and H_9
    f = [1, 2, 0, 1, 1, 2, 2, 0, 1, 2]
    assert half_power_coeffs(f, 3, range(-2, 12)) == {m: (f + [0, 0])[m] if m >= 0 else 0
                                                      for m in range(-2, 12)}
    for zero in ([0], [0, 0], [3, 6]):
        with pytest.raises(DomainError):
            half_power_coeffs(zero, 3, [1])


@pytest.mark.parametrize("p", [3, 5, 7, 31])
def test_half_power_coeffs_matches_expansion(p):
    # f = x^v G(x^s); at degrees of G from 3 up, H_k at k = p, 2p, ... are pinned
    rng = random.Random(p)
    e = (p - 1) // 2
    for _ in range(20):
        s = rng.choice([1, 2, 3, 5])
        g = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(rng.randrange(0, 17 // s))]
        g[-1] = g[-1] or 1
        f = [0] * rng.randrange(0, 3)
        for c in g:
            f += [c] + [0] * (s - 1)
        f = [c + p * rng.randrange(-2, 3) for c in f[: len(f) - s + 1]]  # unreduced
        full = [1]
        for _ in range(e):
            full = naive_mul(full, f, p)
        # negative, below e v, off-stride and past-the-degree indices included
        wanted = range(-3, len(full) + 2 * s)
        got = half_power_coeffs(f, p, wanted)
        assert got == {m: (full[m] if 0 <= m < len(full) else 0) for m in wanted}, (f, p)


def reference_half_power_coeffs(f, p, wanted):
    """half_power_coeffs as one Python loop per coefficient, with the same
    pins; the library's routine before it ran blocks of steps side by side."""
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
        for lo in range(1, min(p, top - base + 1), 4096):
            hi = min(lo + 4096, p, top - base + 1)
            for r, w in zip(range(lo, hi), inv[lo:hi]):
                t = 0
                for i, a, c in terms:
                    t += (a - r * c) * last[-i]
                last.append(t % p * w % p)
            h[base + lo : base + hi] = last[lo - hi :]
            del last[: -len(g)]
    return {m: int(h[ks[m]]) if ks.get(m, top + 1) <= top else 0 for m in wanted}


def random_stride_poly(rng, p, deg_g, s, v):
    """x^v G(x^s) with G of degree deg_g, G(0) a unit, coefficients lifted
    by random multiples of p."""
    g = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(deg_g)]
    g[-1] = g[-1] or 1
    f = [0] * v
    for c in g:
        f += [c] + [0] * (s - 1)
    return [c + p * rng.randrange(-2, 3) for c in f[: len(f) - s + 1]]


@pytest.mark.parametrize("p, deg_g, s, v, top", [
    (65537, 3, 1, 0, None),  # blocks of 721 chunks in groups of 26, several slabs per pass
    (200003, 3, 1, 1, None),  # inverses of r in [2^17, 2^18) take two slabs
    (101, 50, 1, 0, None),  # _SLAB / 50^2 caps a block's 28 chunks at 13
    (1009, 5, 1, 0, 2 * 1009 + 11),  # 3 blocks of chunks of 12, the last of 10 steps
    (211, 57, 2, 2, None),
    (101, 190, 1, 0, None),  # _SLAB / 190^2 = 0: still one chunk
    (1073741789, 8, 1, 0, 600),  # 8 (p - 1)^2 just below 2^63
    (1358187913, 5, 3, 2, 400),  # 5 (p - 1)^2 just below 2^63
])
def test_half_power_coeffs_matches_reference(p, deg_g, s, v, top):
    rng = random.Random(p + deg_g)
    f = random_stride_poly(rng, p, deg_g, s, v)
    e = (p - 1) // 2
    if top is not None:  # every index from just below e v to e v + s top
        wanted = range(e * v - 3, e * v + s * top)
    elif p < 1000:  # every index, past the degree of f^e too
        wanted = range(-3, e * (len(f) - 1) + 2 * s)
    else:  # the Cartier-Manin indices of genus 3 and random ones below 3p
        wanted = [i * p - j for i in (1, 2, 3) for j in (1, 2, 3)]
        wanted += [rng.randrange(-3, 3 * p) for _ in range(300)]
    assert half_power_coeffs(f, p, wanted) == reference_half_power_coeffs(f, p, wanted)


def test_half_power_coeffs_refuses_moduli_past_int64():
    # one step sums deg G products of residues in int64, and H is int32
    rng = random.Random(31)
    with pytest.raises(DomainError):
        half_power_coeffs(random_stride_poly(rng, 2**31 - 1, 8, 1, 0), 2**31 - 1, [5])
    # 2^32 + 15: 3 (p - 1)^2 < 2^63, but x^5 of (1 + 3x + x^3)^e is
    # 4076863434, which an int32 H cannot hold
    with pytest.raises(DomainError):
        half_power_coeffs([1, 3, 0, 1], 4294967311, [5, 17, 40])


def test_half_power_coeffs_matches_reference_on_random_strides():
    # s > 1, x^v factors, unreduced lifts, every index, p up to 701
    rng = random.Random(15)
    primes = [q for q in range(3, 702) if is_prime(q)]
    for _ in range(60):
        p, s = rng.choice(primes), rng.choice([1, 1, 2, 3])
        f = random_stride_poly(rng, p, rng.randrange(1, 9), s, rng.randrange(0, 3))
        wanted = range(-3, min(len(f) * (p - 1) // 2, 4 * p) + 2 * s)
        assert half_power_coeffs(f, p, wanted) == reference_half_power_coeffs(f, p, wanted), (f, p)


def run_recording_schedule(monkeypatch, f, p, wanted):
    """half_power_coeffs(f, p, wanted), its plan as (size, q, groups), how
    many times pass 1 ran, and the chunks that each block's product read."""
    reads, plans, passes = [], [], []
    rows, product, recur = ff_arith._rows, ff_arith._product, ff_arith._recur

    def recording_rows(*args):
        passes.append(args)
        return rows(*args)

    def recording_product(rows, chunk, state, p, out):
        reads.append(chunk.tolist())
        return product(rows, chunk, state, p, out)

    def recording_recur(*args):
        plans.append(recur(*args))
        return plans[-1]

    monkeypatch.setattr(ff_arith, "_rows", recording_rows)
    monkeypatch.setattr(ff_arith, "_product", recording_product)
    monkeypatch.setattr(ff_arith, "_recur", recording_recur)
    got = half_power_coeffs(f, p, wanted)
    monkeypatch.undo()
    size, pre, _ = plans[0]
    assert len(passes) == 1  # pass 1 runs once per call, on the first block
    return got, (size, pre.shape[1] - 1, pre.shape[0]), reads


# p = 1009, deg G = 5: e deg G = 2520, so the last block starts at k = 2018 and
# runs 502 steps once an index above 2520 clips top to 2520
LAST_BLOCK = {  # the last block's wanted r, from the plan's chunk size and group size
    "first chunk": lambda size, q: [1, size],
    "short last chunk": lambda size, q: [502],
    "several chunks": lambda size, q: [1, size + 1, 3 * size, 502],
    "no wanted index": lambda size, q: [],
    "only its pin": lambda size, q: [0],
    "first group": lambda size, q: [1, 2 * size, q * size],
}


@pytest.mark.parametrize("case", LAST_BLOCK)
def test_half_power_coeffs_runs_the_last_block_on_its_wanted_chunks(monkeypatch, case):
    p, base = 1009, 2018
    f = random_stride_poly(random.Random(5), p, 5, 1, 0)
    _, (size, q, _), _ = run_recording_schedule(monkeypatch, f, p, [p])
    rs = LAST_BLOCK[case](size, q)
    wanted = [*range(-3, 40), *(base + r for r in rs), 2600, 3000]
    got, _, reads = run_recording_schedule(monkeypatch, f, p, wanted)
    assert got == reference_half_power_coeffs(f, p, wanted)
    assert got[2600] == got[3000] == 0  # above deg f^e
    assert reads[:2] == [list(range(-(-(p - 1) // size)))] * 2  # the pins read every H_k
    chunks = sorted({(r - 1) // size for r in rs if r})
    assert reads[2:] == ([chunks] if chunks else [])
    if case == "short last chunk":
        assert 502 % size and chunks == [501 // size]
    if case == "first group":
        assert len(chunks) > 1 and chunks[-1] < q


def test_half_power_coeffs_chunks_need_not_fill_the_last_group(monkeypatch):
    p = 1009
    f = random_stride_poly(random.Random(6), p, 5, 1, 0)
    wanted = range(-3, 2530)  # every index, each block in full
    got, (size, q, groups), reads = run_recording_schedule(monkeypatch, f, p, wanted)
    chunks = -(-(p - 1) // size)
    assert chunks % q and groups == -(-chunks // q)
    assert reads == [list(range(chunks))] * 2 + [list(range(-(-502 // size)))]
    assert got == reference_half_power_coeffs(f, p, wanted)


@pytest.mark.parametrize("p, deg_g", [(7, 3), (53, 200)])
def test_half_power_coeffs_single_group(monkeypatch, p, deg_g):
    # a group of about sqrt(chunks) chunks is the whole block only at one
    # chunk: 6 steps are too few to split, and _SLAB / 200^2 is 0
    f = random_stride_poly(random.Random(p), p, deg_g, 1, 0)
    wanted = range(-3, (p - 1) // 2 * deg_g + 2)
    got, (size, q, groups), reads = run_recording_schedule(monkeypatch, f, p, wanted)
    assert groups == 1 and size == p - 1
    assert reads == [[0]] * len(reads)
    assert got == reference_half_power_coeffs(f, p, wanted)


def test_half_power_coeffs_memory_is_history_plus_slabs():
    # int32 H up to the highest index asked for, an int32 inverse for each r
    # up to it, and pass 1's int32 rows: deg G entries a step of the first
    # block, rounded up to whole chunks (fewer than sqrt(8 steps) steps of
    # padding); every other array is a slab of at most 2 max(_SLAB, deg G^2)
    # int64 entries, and no more than eight of them are alive at once
    weng = [0, 7, 0, 14, 0, 7, 0, 1]  # weng-g3: v = 1, s = 2, G of degree 3
    rng = random.Random(105)
    dense = random_stride_poly(rng, 8009, 105, 1, 0)  # _SLAB / 105^2 < 3: one chunk
    for f, p, deg_g, top in [(weng, 1048573, 3, (3 * 1048573 - 1 - 1048572 // 2) // 2),
                             (dense, 8009, 105, 3 * 8009 - 1)]:
        wanted = [i * p - j for i in (1, 2, 3) for j in (1, 2, 3)]
        steps = min(p - 1, top)
        history, table = top + 1, min(p, top + 1)
        rows = deg_g * (steps + math.isqrt(8 * steps))
        slabs = 8 * 2 * max(ff_arith._SLAB, deg_g**2)
        tracemalloc.start()
        try:
            half_power_coeffs(f, p, wanted)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * (history + table + rows) + 8 * slabs, (p, peak)


def test_poly_divmod_identity():
    p = 101
    rng = random.Random(11)
    for _ in range(30):
        f = [rng.randrange(p) for _ in range(rng.randrange(1, 40))]
        g = [rng.randrange(p) for _ in range(rng.randrange(1, 20))]
        if poly_trim(g) == [0]:
            continue
        q, r = poly_divmod(f, g, p)
        prod = naive_mul(q, [c % p for c in poly_trim(g)], p)
        total = [0] * max(len(prod), len(r), len(f))
        for i, c in enumerate(prod):
            total[i] = (total[i] + c) % p
        for i, c in enumerate(r):
            total[i] = (total[i] + c) % p
        assert poly_trim(total) == poly_trim([c % p for c in f])
        assert len(r) - 1 < len(poly_trim(g)) - 1 or r == [0]


@pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 97, 257, 65537, 2**31 - 1])
def test_sqrt_mod_of_every_square(p):
    # 65537 - 1 = 2^16: Tonelli-Shanks runs its longest loop there
    rng = random.Random(p)
    for x in [0, 1, p - 1] + [rng.randrange(p) for _ in range(200)]:
        r = sqrt_mod(x * x, p)
        assert r * r % p == x * x % p and 0 <= r < p


ZERO = ([1], [0])


def _points(f, p):
    """Every affine F_p-point of y^2 = f(x) as a degree-one divisor class."""
    out = []
    for x in range(p):
        y = sum(c * pow(x, i, p) for i, c in enumerate(f)) % p
        if y == 0 or pow(y, (p - 1) // 2, p) == 1:
            out.append(([-x % p, 1], [sqrt_mod(y, p)] if y else [0]))
    return out


def _jacobian_order(f, p):
    """#J(F_p) = L(1) from the point counts over F_p, ..., F_{p^g}."""
    curve = ReducedCurve(p, f)
    g = curve.genus
    s = [p**k + 1 - point_count(curve, k) for k in range(1, g + 1)]
    e = [1]
    for k in range(1, g + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * s[i - 1] for i in range(1, k + 1)) // k)
    lower = [(-1) ** k * e[k] for k in range(g + 1)]
    return sum(lower) + sum(p**i * lower[g - i] for i in range(1, g + 1))


@pytest.mark.parametrize("p, degree", [(7, 5), (11, 5), (13, 5), (31, 5), (5, 7), (11, 7)])
def test_jacobian_group_law(p, degree):
    # random odd-degree curves of genus 2 and 3: the group is abelian and
    # associative, D - D = 0, Weierstrass points are 2-torsion, and the
    # order from the point counts kills every sum of points
    rng = random.Random(p * degree)
    while True:
        f = [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]
        try:
            order = _jacobian_order(f, p)
            break
        except DomainError:
            continue
    pts = _points(f, p)
    assert len(pts) >= 4
    divs = [jacobian_add(a, b, f, p) for a, b in zip(pts, pts[1:] + pts[:1])] + pts
    for d1, d2, d3 in zip(divs, divs[1:] + divs[:1], divs[2:] + divs[:2]):
        assert jacobian_add(d1, d2, f, p) == jacobian_add(d2, d1, f, p)
        left = jacobian_add(jacobian_add(d1, d2, f, p), d3, f, p)
        assert left == jacobian_add(d1, jacobian_add(d2, d3, f, p), f, p)
        assert jacobian_add(d1, (d1[0], [-c % p for c in d1[1]]), f, p) == ZERO
        assert jacobian_mul([(order, d1)], f, p) == ZERO
        assert jacobian_mul([(3, d1), (2, d2)], f, p) == jacobian_add(
            jacobian_add(jacobian_add(d1, d1, f, p), d1, f, p), jacobian_add(d2, d2, f, p), f, p)
        assert jacobian_add(d1, ZERO, f, p) == d1 and jacobian_mul([(0, d1)], f, p) == ZERO
    for u, v in pts:
        if v == [0]:
            assert jacobian_add((u, v), (u, v), f, p) == ZERO


@pytest.mark.parametrize("p", [3, 5, 7, 11, 31, 101, 397, 1447])
def test_jacobian_closed_form_matches_cantor(p, monkeypatch):
    # seeded random quintics, monic or not: every sum equals Cantor's
    # composition and reduction, and from p = 101 on the closed form answers
    # at least 90% of the sums and doubles of two degree-2 divisors
    rng = random.Random(p)
    cantor, generic = ff_arith._cantor, []
    monkeypatch.setattr(ff_arith, "_cantor", lambda *a: generic.append(a) or cantor(*a))
    closed = total = 0
    for _ in range(6):
        f = [rng.randrange(p) for _ in range(5)] + [rng.choice([1, rng.randrange(1, p)])]
        if poly_gcd(f, poly_deriv(f, p), p) != [1]:
            continue
        pts = _points(f, p)
        rng.shuffle(pts)
        pairs = [(a, b) for a in pts[:6] for b in pts[:6]]  # chords, doubles, P - P
        divs, first = [ZERO], len(pairs)  # then sums of disjoint pairs of points
        pairs += list(zip(pts[:34:2], pts[1:34:2]))
        for i in range(len(pairs) + 300):
            if i >= len(pairs):  # then sums of earlier sums
                a, b = rng.choice(divs), rng.choice(divs)
                pairs += [(a, b), (a, a), (a, (a[0], [-c % p for c in a[1]])), (a, ZERO), (ZERO, b)]
            d1, d2 = pairs[i]
            generic.clear()
            got = jacobian_add(d1, d2, f, p)
            assert got == cantor(d1, d2, f, p), (f, p, d1, d2)
            if len(d1[0]) == len(d2[0]) == 3 and d2 != (d1[0], [-c % p for c in d1[1]]):
                closed, total = closed + (not generic), total + 1
            if i >= first and got != ZERO and len(divs) < 100:
                divs.append(got)
    assert total > 200
    if p >= 101:
        assert closed >= 0.9 * total, (closed, total)


@pytest.mark.parametrize("p", [5, 7, 11, 31, 101, 113, 1009])
def test_jacobian_genus3_closed_form_matches_cantor(p, monkeypatch):
    # seeded random degree-7 models, monic or not: sums and doubles of
    # degree-3 divisors equal Cantor's composition and reduction, and from
    # p = 101 on the closed form answers at least 90% of them; the pairs it
    # must leave (u1 and u2 sharing a root, deg u < 3) run `_cantor`, and
    # D + (-D) is zero before either
    rng = random.Random(p)
    cantor, generic = ff_arith._cantor, []
    monkeypatch.setattr(ff_arith, "_cantor", lambda *a: generic.append(a) or cantor(*a))

    def add(d1, d2):
        generic.clear()
        got = jacobian_add(d1, d2, f, p)
        assert got == cantor(d1, d2, f, p), (f, p, d1, d2)
        return got

    closed = total = 0
    for _ in range(6):
        f = [rng.randrange(p) for _ in range(7)] + [rng.choice([1, rng.randrange(1, p)])]
        if poly_gcd(f, poly_deriv(f, p), p) != [1]:
            continue
        pts = [pt for pt in _points(f, p) if pt[1] != [0]]
        rng.shuffle(pts)
        if len(pts) < 5:
            continue
        p1, p2, p3, p4, p5 = pts[:5]
        two = add(p1, p2)
        shared = add(two, p3), add(add(p1, p4), p5)  # both contain P_1
        for d1, d2 in (shared, (two, shared[1]), (shared[0], p4)):
            add(d1, d2)
            assert generic, (f, p, d1, d2)
        assert add(shared[0], (shared[0][0], [-c % p for c in shared[0][1]])) == ZERO
        assert not generic
        divs = [add(add(a, b), c) for a, b, c in zip(pts[:48:3], pts[1:48:3], pts[2:48:3])]
        for _ in range(150):
            d1, d2 = rng.choice(divs), rng.choice(divs)
            for pair in ((d1, d2), (d1, d1)):
                got = add(*pair)
                if len(pair[0][0]) == len(pair[1][0]) == 4 and got != ZERO:
                    closed, total = closed + (not generic), total + 1
                if got != ZERO and len(divs) < 100:
                    divs.append(got)
    assert total > 100
    if p >= 101:
        assert closed >= 0.9 * total, (closed, total)


def test_poly_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        poly_divmod([1, 2], [0, 0], 7)


def test_poly_gcd_known_factor():
    p = 7
    # -1 is a non-residue mod 7, so x^2 + 1 is irreducible and x + 1 is the gcd
    f = naive_mul([1, 1], [1, 0, 1], p)
    g = naive_mul([1, 1], [4, 1], p)
    assert poly_gcd(f, g, p) == [1, 1]
    assert poly_gcd(f, [1], p) == [1]
    assert poly_gcd([0], [0], p) == [0]


def test_poly_gcd_is_monic():
    p = 11
    f = [c * 3 % p for c in naive_mul([2, 2], [1, 0, 1], p)]
    g = [c * 5 % p for c in [2, 2]]
    assert poly_gcd(f, g, p) == [1, 1]


def naive_powmod(h, e, m, p):
    # h^e mod m by e - 1 schoolbook products
    acc = [1]
    for _ in range(e):
        acc = poly_divmod(naive_mul(acc, h, p), m, p)[1]
    return acc


def test_poly_xpow_fermat():
    # x^(p^3) mod m equals iterating h -> h^p three times from h = x
    p = 5
    m = [2, 0, 1, 1]
    lhs = poly_xpow(p ** 3, m, p)
    h = [0, 1]
    for _ in range(3):
        h = naive_powmod(h, p, m, p)
    assert lhs == h
    # x^q = a^((q-1)/2) x modulo x^2 - a, so x^(q^2) = x
    for q in (10007, (1 << 61) - 1, (1 << 127) - 1):
        for a in (2, 3, 5, 7):
            m = [-a % q, 0, 1]
            assert poly_xpow(q, m, q) == [0, kronecker(a, q) % q], (q, a)
            assert poly_xpow(q * q, m, q) == [0, 1], (q, a)


def test_poly_xpow_matches_repeated_product():
    rng = random.Random(3)
    for p in (2, 3, 7, 10007):
        for _ in range(10):
            m = [rng.randrange(p) for _ in range(rng.randrange(1, 8))] + [1]
            for e in range(0, 24):
                assert poly_xpow(e, m, p) == naive_powmod([0, 1], e, m, p), (m, e, p)


def test_poly_deriv():
    assert poly_deriv([4, 3, 0, 1], 5) == [3, 0, 3]
    assert poly_deriv([9], 5) == [0]


def naive_factors(f, p):
    """Monic irreducible factors of monic f mod p, with multiplicity, by trial
    division over all monic polynomials of rising degree. Tiny inputs only.

    Once every factor of degree < d is divided out, a monic h of degree d
    that divides v is irreducible, and v itself is once 2d > deg v.
    """
    def monics(d):
        for packed in range(p ** d):
            coeffs = []
            x = packed
            for _ in range(d):
                coeffs.append(x % p)
                x //= p
            yield coeffs + [1]

    factors = []
    v = poly_trim([c % p for c in f])
    d = 1
    while len(v) - 1 >= 2 * d:
        for h in monics(d):
            q, r = poly_divmod(v, h, p)
            if r == [0]:
                factors.append(tuple(h))
                v = q
                break
        else:
            d += 1
    if len(v) > 1:
        factors.append(tuple(v))
    return factors


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_factor_degree_profile_matches_brute_force(p):
    # degree up to 10; a quarter of the inputs are a^2 b, so not squarefree
    rng = random.Random(100 + p)

    def monic(lo, hi):
        return [rng.randrange(p) for _ in range(rng.randrange(lo, hi + 1))] + [1]

    for _ in range(40):
        if rng.random() < 0.25:
            a = monic(1, 3)
            f = naive_mul(naive_mul(a, a, p), monic(0, 4), p)
        else:
            f = monic(1, 10)
        factors = naive_factors(f, p)
        if len(set(factors)) < len(factors):
            with pytest.raises(NotSquarefreeError):
                factor_degree_profile(f, p)
        else:
            assert factor_degree_profile(f, p) == sorted(len(h) - 1 for h in factors), (f, p)


def test_factor_degree_profile_known_splits():
    # x^5 - 1: order of p mod 5 decides the shape
    f = [-1, 0, 0, 0, 0, 1]
    assert factor_degree_profile(f, 11) == [1, 1, 1, 1, 1]
    assert factor_degree_profile(f, 19) == [1, 2, 2]
    assert factor_degree_profile(f, 3) == [1, 4]
    assert factor_degree_profile(f, 7) == [1, 4]


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_factor_degree_profile_cyclotomic_large_p(bits):
    # Phi_l mod p splits into (l - 1) / ord_l(p) factors of degree ord_l(p);
    # every fourth p is 1 mod 5 * 7 * 11 * 13, so that Phi_l splits completely
    rng = random.Random(bits)
    for i in range(8):
        step = 5005 if i % 4 == 0 else 2
        p = rng.randrange(1 << (bits - 1), 1 << bits) // step * step + 1
        while not is_prime(p):
            p += step
        for ell in (5, 7, 11, 13):
            order = next(k for k in range(1, ell) if pow(p, k, ell) == 1)
            want = [order] * ((ell - 1) // order)
            assert factor_degree_profile([1] * ell, p) == want, (ell, p)


def test_factor_degree_profile_rejects_bad_input():
    with pytest.raises(NotSquarefreeError):
        factor_degree_profile([0, 0, 1], 5)
    with pytest.raises(NotSquarefreeError):
        factor_degree_profile([-1, 0, 0, 0, 0, 1], 5)  # (x - 1)^5 mod 5
    with pytest.raises(DomainError):
        factor_degree_profile([2, 1, 2], 5)  # not monic
    with pytest.raises(DomainError):
        factor_degree_profile([0], 5)


@pytest.mark.parametrize("p", [3, 7])
def test_factor_degree_profile_of_one_is_empty(p):
    assert factor_degree_profile([1], p) == []


@pytest.mark.parametrize("k", [0, -1])
def test_find_irreducible_refuses_degree_below_one(k):
    with pytest.raises(DomainError, match="^find_irreducible: k must be >= 1$"):
        find_irreducible(7, k)


def test_find_irreducible_is_deterministic_and_irreducible():
    for p, k in [(3, 4), (13, 3), (101, 2), (5, 1)]:
        f = find_irreducible(p, k)
        assert f == find_irreducible(p, k)
        assert len(f) == k + 1 and f[-1] == 1
        assert factor_degree_profile(f, p) == [k]


def naive_rank(rows, p):
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col] % p:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                c = rows[i][col] * inv % p
                rows[i] = [(a - c * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_matrix_rank_matches_gauss_jordan():
    rng = random.Random(42)
    for p in (2, 3, 7, 1048573, 2**31 - 1, 2**61 - 1):
        for _ in range(40):
            n = rng.randrange(1, 6)
            m = rng.randrange(1, 6)
            # entries outside [0, p) too: the rank routine reduces them
            rows = [[rng.randrange(-2 * p, 2 * p) for _ in range(m)] for _ in range(n)]
            if rng.random() < 0.5:  # a dependent row, so that ranks fall short
                c = rng.randrange(p)
                rows.append([x + c * y for x, y in zip(rows[0], rows[-1])])
            assert matrix_rank(rows, p) == naive_rank(rows, p), (p, rows)
    # square n x n products of n x r and r x n factors, up to 64 x 64
    p = 1048573
    for n, r in [(8, 3), (17, 16), (17, 17), (33, 1), (33, 20), (64, 40), (64, 63), (64, 64)]:
        u = [[rng.randrange(p) for _ in range(r)] for _ in range(n)]
        v = [[rng.randrange(p) for _ in range(n)] for _ in range(r)]
        rows = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*v)] for row in u]
        assert matrix_rank(rows, p) == naive_rank(rows, p) <= r, (n, r)


def test_matrix_rank_edge_cases():
    assert matrix_rank([[0, 0], [0, 0]], 5) == 0
    assert matrix_rank([[1, 2], [2, 4]], 5) == 1
    assert matrix_rank([[1, 0], [0, 1]], 5) == 2
    assert matrix_rank([], 5) == 0  # no rows
    assert matrix_rank([[], []], 5) == 0  # rows of no columns
    assert matrix_rank([[0, 0, 0], [1, 2, 3]], 2) == 1  # a zero row
    assert matrix_rank([[1, 1], [1, 1], [0, 1]], 2) == 2  # tall
    assert matrix_rank([[1, 2, 0, 1], [2, 1, 0, 2]], 3) == 1  # wide, row 2 = 2 row 1
    assert matrix_rank([[0, 0, 0, 0]], 3) == 0
    q = 1048573
    assert matrix_rank([[q + 1, 2], [1, q + 2]], q) == 1  # equal rows mod q
    assert matrix_rank([[1, 0, 0], [0, q - 1, 0]], q) == 2
    # rank 1 at a p past 2^31: a product of two entries needs more than 64 bits
    p, a, b = 2**40 + 15, 123456789012, 987654321098
    assert is_prime(p)
    assert matrix_rank([[a, b], [2 * a % p, 2 * b % p]], p) == 1

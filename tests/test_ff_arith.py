"""Arithmetic layer: primality, Kronecker symbol, polynomial and matrix ops.

Cross-checks against naive reimplementations with seeded randomness, so the
fast paths (Kronecker-substitution multiply, DDF, echelon rank) are never the
only implementation of themselves.
"""

import math
import random

import pytest

from cmreduce import DomainError, NotSquarefreeError
from cmreduce.ff_arith import (
    factor_degree_profile,
    factorize,
    find_irreducible,
    half_power_coeffs,
    is_prime,
    kronecker,
    matrix_rank,
    poly_deriv,
    poly_divmod,
    poly_gcd,
    poly_mul,
    poly_trim,
    poly_xpow,
)


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
    for n in range(-3, 2000):
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
    # strong pseudoprime to bases 2, 3, 5, 7 simultaneously
    assert not is_prime(3215031751)


def test_is_prime_large():
    assert is_prime((1 << 61) - 1)
    assert is_prime((1 << 89) - 1)
    assert not is_prime((1 << 67) - 1)  # 193707721 * 761838257287
    assert is_prime((1 << 128) + 51)
    assert not is_prime((1 << 128) + 49)


def test_is_prime_alternating_large_values():
    # the Miller-Rabin verdict is memoised for the last n only: alternating
    # p and p + 2 must each get their own verdict, first call or repeated.
    # No p + 2 here has a factor below 50, so each reaches Miller-Rabin
    cases = [(128, 303, False), (128, 993, True), (256, 141, False), (256, 1269, True)]
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


@pytest.mark.parametrize("p", [2, 3, 97, 10007])
def test_poly_mul_matches_schoolbook(p):
    rng = random.Random(p)
    for _ in range(20):
        f = [rng.randrange(p) for _ in range(rng.randrange(1, 120))]
        g = [rng.randrange(p) for _ in range(rng.randrange(1, 120))]
        assert poly_mul(f, g, p) == naive_mul(f, g, p)


def test_poly_mul_crosses_kronecker_cutoff():
    # force the packed-integer path with degrees well above the cutoff
    p = 1009
    rng = random.Random(7)
    f = [rng.randrange(p) for _ in range(300)]
    g = [rng.randrange(p) for _ in range(257)]
    assert poly_mul(f, g, p) == naive_mul(f, g, p)


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


def test_poly_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        poly_divmod([1, 2], [0, 0], 7)


def test_poly_gcd_known_factor():
    p = 7
    # -1 is a non-residue mod 7, so x^2 + 1 is irreducible and x + 1 is the gcd
    f = poly_mul([1, 1], [1, 0, 1], p)
    g = poly_mul([1, 1], [4, 1], p)
    assert poly_gcd(f, g, p) == [1, 1]
    assert poly_gcd(f, [1], p) == [1]
    assert poly_gcd([0], [0], p) == [0]


def test_poly_gcd_is_monic():
    p = 11
    f = [c * 3 % p for c in poly_mul([2, 2], [1, 0, 1], p)]
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
            f = poly_mul(poly_mul(a, a, p), monic(0, 4), p)
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
    for p in (2, 3, 7, 1048573):  # the last is 2^20 - 3
        for _ in range(40):
            n = rng.randrange(1, 6)
            m = rng.randrange(1, 6)
            # entries outside [0, p) too: the rank routine reduces them
            rows = [[rng.randrange(-2 * p, 2 * p) for _ in range(m)] for _ in range(n)]
            if rng.random() < 0.5:  # a dependent row, so that ranks fall short
                c = rng.randrange(p)
                rows.append([x + c * y for x, y in zip(rows[0], rows[-1])])
            assert matrix_rank(rows, p) == naive_rank(rows, p), (p, rows)


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

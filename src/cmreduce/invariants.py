"""Ground-truth invariants of hyperelliptic curves y^2 = f(x) over F_p.

Everything here is computed from the curve equation alone: the Cartier-Manin
matrix gives the p-rank and a-number, exhaustive point counts over small
extensions give the L-polynomial, and the Newton polygon falls out of the
L-polynomial. At genus 2 and 3 the counts run over F_{p^k} for k < g only:
Manin's congruence L(T) = det(I - T A_0) mod p gives a_g mod p, and the
order of J(F_p), in Cantor's arithmetic, picks its lift within the Weil
bounds that a_1, ..., a_{g-1} leave; the count over F_{p^g} is the fallback
when no divisor tells the lifts apart. Every computed L-polynomial is
checked against the congruence. The group-scheme
classifier maps (p-rank, a-number, slopes) to the p-torsion label at every
genus; the predictor names its profiles through the same classifier.
"""

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import ceil, comb, floor, isqrt, sqrt

from .errors import (
    BadReductionError,
    DomainError,
    InternalInconsistencyError,
    ResourceLimitError,
)
from .ff_arith import (
    find_irreducible,
    half_power_coeffs,
    is_prime,
    jacobian_add,
    jacobian_mul,
    matrix_rank,
    poly_deriv,
    poly_gcd,
    poly_trim,
    poly_xpow,
    sqrt_mod,
)

# largest p^k * max(k, 2)^2 counted. A count fills a p^k-byte table from
# p^k / 2 values of x^2, then evaluates f at about p^k / k elements, k (deg f
# + 1) float64 multiply-adds each. Each coset y + F_p pays up to k - 1
# Frobenius steps of (k-1)^2, each evaluated one deg f - 1 products of k^2
# in F_{p^k}, so at small p the cost grows as k^2 per element. Every field
# of up to 2^26 elements passes at k <= 2, and as 17 * 2^24 exceeds
# 3^13 * 13^2, every k <= g with p^g <= SLOPE_BUDGET passes
POINT_COUNT_BUDGET = 17 << 24
SLOPE_BUDGET = 1 << 21  # largest p^g for which slopes are computed
CARTIER_BUDGET = 1 << 26  # largest deg f * (p-1)/2 + 1 for Cartier-Manin
_CHUNK = 1 << 16  # float64 entries in one product of a point count
_EXACT = 1 << 53  # float64 sums of products stay exact below this
_DIVISORS = 4  # divisors the order check tries before it counts over F_{p^g}
_POINT_DRAWS = 64  # x values it draws for their points


@dataclass(frozen=True)
class ReducedCurve:
    """Nonsingular y^2 = f(x) over F_p, p odd, deg f in {2g+1, 2g+2}. The
    model is refused when p or a coefficient is not an int, when p is 2 or
    not prime, when the leading coefficient vanishes mod p (the model would
    drop degree), or when f mod p has no genus or a repeated root."""

    p: int
    coeffs: tuple

    def __post_init__(self):
        p = self.p
        if any(type(x) is not int for x in (p, *self.coeffs)):  # bools and floats too
            raise DomainError("ReducedCurve: p and the coefficients must be integers")
        if p == 2:
            raise BadReductionError(2, "characteristic 2 is excluded")
        if p < 3 or not is_prime(p):
            raise DomainError(f"ReducedCurve: p = {p} is not an odd prime")
        f = [int(c) % p for c in self.coeffs]
        if f and f[-1] == 0:
            raise BadReductionError(p, "leading coefficient vanishes mod p")
        if len(f) < 4:
            raise DomainError(f"ReducedCurve: degree {len(f) - 1} gives no curve")
        if len(poly_gcd(f, poly_deriv(f, p), p)) != 1:
            raise BadReductionError(p, "f has a repeated root")
        object.__setattr__(self, "coeffs", tuple(f))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def genus(self):
        return (self.degree - 1) // 2


@lru_cache(maxsize=1)
def cartier_manin(curve):
    """The Cartier-Manin matrix A_0, (A_0)_{i,j} = c_{ip-j} for 1 <= i, j <= g,
    where c_m is the x^m coefficient of f^((p-1)/2), as a g-tuple of row
    tuples of ints in [0, p). The c_m lie in F_p, so every A_l, with entries
    c_{ip-j}^(p^l), equals A_0."""
    p, g = curve.p, curve.genus
    d, e = curve.degree, (p - 1) // 2
    if d * e + 1 > CARTIER_BUDGET:
        raise ResourceLimitError(
            f"cartier_manin: deg {d} ** {e} exceeds cap of {CARTIER_BUDGET} coefficients")
    idx = range(1, g + 1)
    c = half_power_coeffs(curve.coeffs, p, [i * p - j for i in idx for j in idx])
    return tuple(tuple(c[i * p - j] for j in idx) for i in idx)


def p_rank(curve):
    """Rank of A_{g-1} ... A_1 A_0 = A_0^g. Ranks of powers of a g x g matrix
    are constant from exponent g on, so squaring A_0 past g gives that rank.
    Row i of m m is the sum of the rows j of m times m_ij, over nonzero m_ij."""
    m, p, g = cartier_manin(curve), curve.p, curve.genus
    k = 1
    while k < g:
        square = []
        for row in m:
            acc = [0] * g
            for c, r in zip(row, m):
                if c:
                    acc = [a + c * x for a, x in zip(acc, r)]
            square.append([a % p for a in acc])
        m, k = square, 2 * k
    return matrix_rank(m, p)


def a_number(curve):
    """g minus the rank of A_0."""
    return curve.genus - matrix_rank(cartier_manin(curve), curve.p)


def _ext_mul(x, y, mul, p):
    # x y over F_{p^k} for float64 columns of k coordinates in [0, p), where
    # column i k + j of mul is z^(i+j) mod the modulus; each sum is below
    # k^2 p^3, which POINT_COUNT_BUDGET keeps under 2^53
    import numpy as np
    r = (mul @ (x[:, None] * y).reshape(-1, x.shape[1])).astype(np.int64)
    return r - r // p * p


def _hasse(h, a, n, p):
    # column j: the j-th Hasse derivative sum_m C(m, j) h_m a^(m-j) mod p
    import numpy as np
    out = np.empty((a.size, n), dtype=np.int64)
    for j in range(n):
        acc = np.full(a.size, comb(len(h) - 1, j) * h[-1] % p)
        for m in range(len(h) - 2, j - 1, -1):
            acc *= a
            acc += comb(m, j) * h[m] % p
            acc -= acc // p * p
        out[:, j] = acc
    return out


def point_count(curve, k=1):
    """#C(F_{p^k}) by exhaustive enumeration, including points at infinity.

    F_{p^k} is F_p[z] modulo find_irreducible(p, k). Each x is a + y, a in
    F_p, y in the span of z, ..., z^(k-1), and h(a + y) = sum_j h_j(a) y^j
    for the Hasse derivatives h_j(a) in F_p, so over n cosets y + F_p the
    values of h are one float64 product (p x (deg h + 1)) @ ((deg h + 1) x
    k n), exact while (deg h + 1)(p - 1)^2 < 2^53 (a count past that is
    refused). At k = 1 the one coset is y = 0 and the values are h_0(a),
    with no product, in chunks of a. As f has F_p coefficients, f(x^p) =
    f(x)^p, and Frobenius permutes the cosets, acting on y by its matrix
    with the constant row and column removed; f is evaluated on the coset
    whose code is the least of its images, weighted by its orbit size.
    Whether f(x) is zero or a square is read from a table of the number of
    square roots of each element of F_{p^k}, built by the same kernel from
    h = x^2 over every coset and a <= (p - 1)/2.
    """
    import numpy as np
    p, coeffs = curve.p, curve.coeffs
    if k < 1:
        raise DomainError("point_count: extension degree must be >= 1")
    q = p**k
    if q * max(k, 2) ** 2 > POINT_COUNT_BUDGET:
        raise ResourceLimitError(
            f"point_count: {p}^{k} * {max(k, 2)}^2 exceeds {POINT_COUNT_BUDGET}"
        )
    terms = len(coeffs) if k > 1 else 1  # Hasse derivatives in each value
    if terms * (p - 1) ** 2 >= _EXACT:
        raise ResourceLimitError(f"point_count: {terms} * ({p} - 1)^2 is not exact in float64")
    modulus = find_irreducible(p, k)

    def zpow(e):  # z^e mod the modulus, k coordinates
        c = poly_xpow(e, modulus, p)
        return np.array(c + [0] * (k - len(c)))

    mul = np.array([zpow(i + j) for i in range(k) for j in range(k)], dtype=float).T
    # Frobenius on the cosets: column j - 1 is z^(jp) without its constant term
    frob = np.array([zpow(j * p)[1:] for j in range(1, k)], dtype=float).T

    def encode(d):  # base-p code of the digit rows of d
        return sum(row * p**i for i, row in enumerate(d))

    def digits(ns):  # the digits of coset codes, at z, ..., z^(k-1)
        return ns // p ** np.arange(k - 1)[:, None] % p

    cosets, block = p ** (k - 1), _CHUNK // k
    image = np.empty(cosets, dtype=np.int64)  # the code of each coset's image
    for c in range(0, cosets, block):
        r = (frob @ digits(np.arange(c, min(c + block, cosets)))).astype(np.int64)
        image[c : c + block] = encode(r - r // p * p)

    def values(h, top, orbits):
        # yields the codes of h(a + y), an (a, n) array for 0 <= a < top and
        # n coset representatives y, with their orbit sizes; n keeps the
        # a x k n product, the (deg h + 1) x k n powers and each k^2 x n
        # outer product in _ext_mul within _CHUNK entries
        n_h = len(h) if k > 1 else 1
        span = top if k > 1 else _CHUNK
        n = max(1, _CHUNK // (k * max(span, n_h, k)))
        for a0 in range(0, top, span):
            hasse = _hasse(h, np.arange(a0, min(a0 + span, top)), n_h, p)
            hasse = hasse if k == 1 else hasse.astype(float)
            for c0 in range(0, cosets, block):
                ns = c = np.arange(c0, min(c0 + block, cosets))
                # a coset is kept when none of its images is smaller; k / (the
                # number of powers of Frobenius fixing it) is its orbit size
                fixed = np.ones(ns.size, dtype=np.int64)
                for _ in range(k - 1 if orbits else 0):
                    c = image[c]
                    fixed += c == ns
                    keep = ns <= c
                    ns, c, fixed = ns[keep], c[keep], fixed[keep]
                d, weight = digits(ns), k // fixed
                for s in range(0, weight.size, n):
                    y = np.zeros((k, min(n, weight.size - s)))  # no constant term
                    y[1:] = d[:, s : s + n]
                    powers = np.zeros((n_h, k, y.shape[1]))
                    powers[0, 0] = 1
                    for j in range(1, n_h):  # y^1 = y needs no product
                        powers[j] = acc = y if j == 1 else _ext_mul(acc, y, mul, p)
                    if k == 1:
                        v = hasse[:, :, None]
                    else:
                        v = (hasse @ powers.reshape(n_h, -1)).astype(np.int64)
                        v -= v // p * p
                        v = v.reshape(len(hasse), k, -1)
                    yield encode(v.transpose(1, 0, 2)), weight[s : s + n]

    # roots[x] = the number of square roots of x in F_{p^k}
    roots = np.zeros(q, dtype=np.uint8)
    for c, _ in values([0, 0, 1], (p + 1) // 2, False):
        roots[c] = 2
    roots[0] = 1
    total = 0
    for c, w in values(coeffs, p, True):
        total += int(roots[c].sum(axis=0, dtype=np.int64) @ w)
    if curve.degree % 2:
        return total + 1
    return total + (2 if roots[coeffs[-1]] else 0)


@lru_cache(maxsize=1)  # one entry: _order_lift and reduction_profile ask for the same A_0
def _manin(a, p):
    """det(I - T a) mod p, little-endian, for a square matrix a of residues,
    by Berkowitz's division-free recurrence (it holds at any p, p <= g too):
    the polynomial of each leading (r+1) x (r+1) block is a Toeplitz matrix
    with first column 1, -a_rr, -R C, -R M C, ..., -R M^(r-1) C times the
    polynomial of the r x r block M, R and C the new row and column."""
    c = [1]
    for r in range(len(a)):
        t, w = [1, -a[r][r]], [a[i][r] for i in range(r)]
        for _ in range(r):
            t.append(-sum(x * y for x, y in zip(a[r], w)) % p)
            w = [sum(x * y for x, y in zip(a[i], w)) % p for i in range(r)]
        c = [sum(t[i - j] * c[j] for j in range(max(0, i - r - 1), min(i, r) + 1)) % p
             for i in range(r + 2)]
    return c


def _weil_range(p, a):
    """[lo, hi] holding a_g of a genus-2 or genus-3 L(T) = 1 + a_1 T + ...,
    given a = [1, a_1, ..., a_{g-1}], by the Weil bounds.

    L(T) = prod (1 - t_i T + p T^2) with real |t_i| <= 2 sqrt(p). At genus
    2, a_2 lies in [2 sqrt(p) |a_1| - 2p, a_1^2 / 4 + 2p], in integers. At
    genus 3, e1 = -a_1 and e2 = a_2 - 3p are the first two elementary
    symmetric functions of the t_i and a_3 = 2p a_1 - e3; the t_i are the
    roots of q(t) - e3, q(t) = t^3 - e1 t^2 + e2 t, so e3 lies between the
    local minimum q(t+) and maximum q(t-) of q, and q(-2 sqrt(p)) <= e3 <=
    q(2 sqrt(p)). Those bounds are taken in floats, rounded outwards.
    """
    a1 = a[1]
    if len(a) == 2:
        b = 4 * p * a1 * a1  # 2 sqrt(p) |a1| = sqrt(b)
        return isqrt(b) + (isqrt(b) ** 2 < b) - 2 * p, a1 * a1 // 4 + 2 * p
    e1, e2 = -a1, a[2] - 3 * p
    d, s = sqrt(max(e1 * e1 - 3 * e2, 0)), 2 * sqrt(p)

    def q(t):
        return ((t - e1) * t + e2) * t

    low, high = max(q((e1 + d) / 3), q(-s)), min(q((e1 - d) / 3), q(s))
    return floor(2 * p * a1 - high), ceil(2 * p * a1 - low)


def _divisor(points, p):
    """The reduced pair (u, v) of P_1 + ... + P_n - n oo for points (x_i, y_i)
    with distinct x_i and n <= g: u = (x - x_1) ... (x - x_n), and v the
    interpolant of degree < n through them, built in Newton's form."""
    u, v = [1], [0]
    for x, y in points:  # v += (y - v(x)) / u(x) u, then u *= x - x_i
        ux = vx = 0
        for c in reversed(u):
            ux = (ux * x + c) % p
        for c in reversed(v):
            vx = (vx * x + c) % p
        k = (y - vx) * pow(ux, -1, p) % p
        v = [(b + k * c) % p for b, c in zip(v + [0] * (len(u) - len(v)), u)]
        u = [(b - x * c) % p for b, c in zip([0] + u, u + [0])]
    return u, poly_trim(v)


def _order_lift(curve, a):
    """a_g of a genus-2 or genus-3 curve whose L(T) starts with a = [1, a_1,
    ..., a_{g-1}], from Manin's congruence and the order of J(F_p), or None
    when this route cannot tell.

    a_g is the T^g coefficient of det(I - T A_0) mod p, and `_weil_range`
    leaves its lifts spaced p apart (at most 5 at genus 2, and at most
    4 sqrt(p) + 2 at genus 3), each giving an order L(1) of J(F_p). The odd
    model takes the least F_p-root r of an even-degree f to infinity,
    t^(2g+2) f(r + 1/t), which leaves L unchanged. Each divisor P_1 + ... +
    P_g, from points of distinct x in a seeded order and built whole by
    `_divisor`, keeps the lifts whose order kills it: no survivor is an
    inconsistency, one is a_g, and a tie after _DIVISORS divisors (or an
    even-degree f with no root, or too few points) gives None.
    """
    import numpy as np
    p, f, g = curve.p, list(curve.coeffs), curve.genus
    res = _manin(cartier_manin(curve), p)[g]
    lo, hi = _weil_range(p, a)
    first = lo + (res - lo) % p
    lifts = range(first, hi + 1, p)
    if curve.degree % 2 == 0:
        for x0 in range(0, p, _CHUNK):
            zeros = np.flatnonzero(_hasse(f, np.arange(x0, min(x0 + _CHUNK, p)), 1, p) == 0)
            if zeros.size:
                break
        else:
            return None
        h, root = [], x0 + int(zeros[0])
        for c in reversed(f):  # h(s) = f(s + root) by Horner, h_0 = f(root) = 0
            h = [(x + root * y) % p for x, y in zip([0] + h, h + [0])]
            h[0] = (h[0] + c) % p
        f = h[:0:-1]
    points = []
    for x in random.Random(f"points:{p}:{f}").sample(range(p), min(p, _POINT_DRAWS)):
        y2 = sum(c * pow(x, i, p) for i, c in enumerate(f)) % p
        if y2 and pow(y2, (p - 1) // 2, p) == 1:
            points.append((x, sqrt_mod(y2, p)))
            if len(points) == g * _DIVISORS:
                break
    # L(1) = q p + r for the first lift, and each next lift adds p
    q, r = divmod(sum(a) + first + sum(p**i * a[g - i] for i in range(1, g + 1)), p)
    alive = set(lifts)
    for i in range(0, len(points) - g + 1, g):
        div = _divisor(points[i : i + g], p)
        step = jacobian_mul([(p, div)], f, p)
        acc = jacobian_mul([(q, step), (r, div)], f, p)
        for j, lift in enumerate(lifts):
            acc = jacobian_add(acc, step, f, p) if j else acc
            if acc != ([1], [0]):
                alive.discard(lift)
        if not alive:
            raise InternalInconsistencyError(
                f"no lift of a_{g} = {res} mod {p} within the Weil bounds for a_0..a_{g - 1}"
                f" = {a} has an order of J(F_{p}) that kills {div}")
        if len(alive) == 1:
            return alive.pop()
    return None


def l_polynomial(curve):
    """Numerator of the zeta function, little-endian, degree 2g.

    a_1, ..., a_{g-1} come from the point counts over F_{p^k}, k < g, via
    Newton's identities. At genus 2 and 3, a_g comes from Manin's congruence
    and the order of J(F_p) (`_order_lift`), with the count over F_{p^g} as
    the fallback; at every other genus it comes from that count. The upper
    half is filled in by a_{g+i} = p^i a_{g-i}.
    """
    g, p = curve.genus, curve.p
    s, e = [], [1]  # power sums and elementary symmetric functions, e_k = (-1)^k a_k
    for k in range(1, g + 1):
        if k == g and g in (2, 3):
            top = _order_lift(curve, [(-1) ** i * c for i, c in enumerate(e)])
            if top is not None:
                e.append((-1) ** g * top)
                break
        s.append(p**k + 1 - point_count(curve, k))
        acc = sum((-1) ** (i - 1) * e[k - i] * s[i - 1] for i in range(1, k + 1))
        if acc % k:
            raise InternalInconsistencyError(
                f"power sums {s} give non-integral coefficient at degree {k}"
            )
        e.append(acc // k)
    a = [(-1) ** k * e[k] for k in range(g + 1)]
    for i in range(1, g + 1):
        a.append(p**i * a[g - i])
    return a


def newton_slopes(lpoly, p):
    """Slopes of the lower convex hull of (i, ord_p(a_i)), with multiplicity,
    ascending. Expects a_0 = 1 and even degree 2g."""
    a = poly_trim(list(lpoly))
    if not a or a[0] != 1:
        raise DomainError("newton_slopes: constant term must be 1")
    d = len(a) - 1
    if d < 2 or d % 2:
        raise DomainError("newton_slopes: degree must be even and positive")
    pts = []
    for i, c in enumerate(a):
        if c:
            v = 0
            while c % p == 0:
                c //= p
                v += 1
            pts.append((i, v))
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (x1 - x0) * (pt[1] - y0) - (y1 - y0) * (pt[0] - x0) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    out = []
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        out.extend([Fraction(y1 - y0, x1 - x0)] * (x1 - x0))
    return out


@dataclass(frozen=True)
class ReductionProfile:
    p_rank: int
    a_number: int
    slopes: tuple | None
    group_scheme: str
    type_name: str
    l_polynomial: tuple | None = None

    def __post_init__(self):
        if self.p_rank < 0 or self.a_number < 0 or self.p_rank + self.a_number < 1:
            raise DomainError("ReductionProfile: need f, a >= 0 and a + f >= 1")


_HALF = Fraction(1, 2)
_THIRDS = [Fraction(1, 3)] * 3 + [Fraction(2, 3)] * 3
# the genus-2 and genus-3 strata strictly between ordinary and superspecial
_STRATA = {
    (2, 1, 1): "L + I_{1,1}",
    (2, 0, 1): "I_{2,1}",
    (3, 2, 1): "L^2 + I_{1,1}",
    (3, 1, 1): "L + I_{2,1}",
    (3, 1, 2): "L + I_{1,1}^2",
    (3, 0, 1): "I_{3,1}",
    (3, 0, 2): "I_{3,2} or I_{1,1} + I_{2,1}",
}


def classify_group_scheme(g, f, a, slopes=None):
    """p-torsion label and stratum name from (p-rank, a-number, slopes), at
    every genus g >= 1.

    The ends are named by formula: f = g is L^g, ordinary, and a = g is
    I_{1,1}^g, superspecial ("L", "I_{1,1}" and supersingular at g = 1).
    Between them the genus-2 and genus-3 strata come from a table, and any
    other stratum is "unclassified (genus g)". The stratum name is
    non-ordinary for f > 0. At f = 0 it is supersingular non-superspecial
    when every slope is 1/2 or g = 2, mixed when the slopes are known and
    not all 1/2 (which also separates I_{3,2} at (3, 0, 2); the slopes there
    must be 1/3 and 2/3), and "mixed or supersingular" without slopes. So
    (3, 0, 2) with all slopes 1/2 stays ambiguous by design.
    """
    if g < 1 or f < 0 or a < 0 or f + a > g or (a == 0) != (f == g):
        raise DomainError(f"classify_group_scheme: invalid (g, f, a) = ({g}, {f}, {a})")
    if slopes is not None:
        slopes = tuple(Fraction(s) for s in slopes)
        if len(slopes) != 2 * g or sum(slopes) != g:
            raise DomainError("classify_group_scheme: slopes must be 2g values summing to g")
        if sum(1 for s in slopes if s == 0) != f:
            raise DomainError(
                "classify_group_scheme: zero-slope multiplicity disagrees with p-rank"
            )
    if f == g:
        scheme, name = ("L" if g == 1 else f"L^{g}"), "ordinary"
    elif a == g:
        scheme = "I_{1,1}" if g == 1 else f"I_{{1,1}}^{g}"
        name = "supersingular" if g == 1 else "superspecial"
    else:
        scheme = _STRATA.get((g, f, a), f"unclassified (genus {g})")
        if f:
            name = "non-ordinary"
        elif g == 2 or slopes is not None and all(s == _HALF for s in slopes):
            name = "supersingular non-superspecial"
        elif slopes is None:
            name = "mixed or supersingular"
        elif g == 3 and sorted(slopes) != _THIRDS:
            raise DomainError(f"classify_group_scheme: impossible slopes for (3, 0, {a})")
        else:
            name = "mixed"
            scheme = "I_{3,2}" if (g, a) == (3, 2) else scheme
    return ReductionProfile(f, a, slopes, scheme, name)


def reduction_profile(curve):
    """Full profile of a reduced curve.

    The L-polynomial, the slopes and the classification detail that needs
    them are computed only when p^g fits SLOPE_BUDGET (read at call time);
    otherwise the profile carries l_polynomial = slopes = None and whatever
    the (f, a) pair alone determines. A computed L(T) must satisfy Manin's
    congruence L(T) = det(I - T A_0) mod p in all g + 1 lower coefficients,
    and the degree of that polynomial mod p must be the p-rank.
    """
    f = p_rank(curve)
    a = a_number(curve)
    g, p = curve.genus, curve.p
    lpoly = slopes = None
    if p**g <= SLOPE_BUDGET:
        lpoly = tuple(l_polynomial(curve))
        manin = _manin(cartier_manin(curve), p)
        if [c % p for c in lpoly[: g + 1]] != manin or len(poly_trim(manin)) - 1 != f:
            raise InternalInconsistencyError(
                f"L(T) = {lpoly[: g + 1]} + ... mod {p}, det(I - T A_0) = {manin}"
                f" and p-rank {f} break Manin's congruence"
            )
        slopes = tuple(newton_slopes(lpoly, p))
    profile = classify_group_scheme(curve.genus, f, a, slopes)
    return replace(profile, l_polynomial=lpoly)

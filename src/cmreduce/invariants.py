"""Ground-truth invariants of hyperelliptic curves y^2 = f(x) over F_p.

Everything here is computed from the curve equation alone: the Cartier-Manin
matrix gives the p-rank and a-number, exhaustive point counts over small
extensions give the L-polynomial, and the Newton polygon falls out of the
L-polynomial. The group-scheme classifier maps (p-rank, a-number, slopes)
to the p-torsion label for genus up to 3.
"""

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import count

import numpy as np

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
    matrix_rank,
    poly_deriv,
    poly_gcd,
    poly_trim,
    poly_xpow,
)

# largest p^k * max(k, 2)^2 counted, as each evaluation grows as k^2: every
# field of up to 2^26 elements passes at k <= 2, and as 17 * 2^24 exceeds
# 3^13 * 13^2, every k <= g with p^g <= SLOPE_BUDGET passes
POINT_COUNT_BUDGET = 17 << 24
SLOPE_BUDGET = 1 << 21  # largest p^g for which slopes are computed
CARTIER_BUDGET = 1 << 26  # largest deg f * (p-1)/2 + 1 for Cartier-Manin
_EXT_CHUNK = 1 << 16


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
    are constant from exponent g on, so squaring A_0 past g gives that rank."""
    # exact in int64 while g (p-1)^2 < 2^63: CARTIER_BUDGET gives
    # (2g+1)(p-1)/2 < 2^26, so g (p-1)^2 < 2^54 / (4g) <= 2^52
    m, p = np.array(cartier_manin(curve), dtype=np.int64), curve.p
    k = 1
    while k < curve.genus:
        m, k = m @ m % p, 2 * k
    return matrix_rank(m, p)


def a_number(curve):
    """g minus the rank of A_0."""
    return curve.genus - matrix_rank(cartier_manin(curve), curve.p)


def _ext_mul_step(acc, d, c, red, p, k):
    # acc*x + c where x runs over the chunk and c is an F_p scalar; with
    # entries in [0, p), each sum before the one reduction is below
    # k p^2 + (k-1) k p^3 + p, which POINT_COUNT_BUDGET keeps under 2^53
    n = d.shape[1]
    s = np.zeros((2 * k - 1, n), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            s[i + j] += acc[i] * d[j]
    r = s[:k]
    for m in range(k, 2 * k - 1):
        for i, v in enumerate(red[m - k]):
            if v:
                r[i] += s[m] * v
    r[0] += c
    return np.subtract(r, q := r // p * p, out=q)  # r % p, twice as fast for r >= 0


def point_count(curve, k=1):
    """#C(F_{p^k}) by exhaustive enumeration, including points at infinity.

    F_{p^k} is F_p[z] modulo find_irreducible(p, k); at k = 1 the modulus is
    z and nothing is reduced. Because f has F_p coefficients, f(x^p) = f(x)^p,
    so whether f(x) is zero or a square is constant on each Frobenius orbit.
    The count therefore evaluates f once per orbit: elements are enumerated
    as base-p digit vectors over a normal basis theta, theta^p, ...,
    theta^(p^(k-1)), in which Frobenius rotates the digits, and an element
    is kept when its encoding is the least among its rotations, weighted by
    its orbit size. The quadratic character of y = f(x) over F_{p^k} is that
    of its norm y * y^p * ... * y^(p^(k-1)) over F_p.
    """
    p, coeffs = curve.p, curve.coeffs
    if k < 1:
        raise DomainError("point_count: extension degree must be >= 1")
    q = p**k
    if q * max(k, 2) ** 2 > POINT_COUNT_BUDGET:
        raise ResourceLimitError(
            f"point_count: {p}^{k} * {max(k, 2)}^2 exceeds {POINT_COUNT_BUDGET}"
        )
    modulus = find_irreducible(p, k)
    # z^m mod the modulus for m = k .. 2k-2, little-endian
    red = [poly_xpow(m, modulus, p) for m in range(k, 2 * k - 1)]
    # Frobenius on the polynomial basis: column j is z^(jp) mod the modulus
    frob = np.zeros((k, k), dtype=np.int64)
    for j in range(k):
        col = poly_xpow(j * p, modulus, p)
        frob[: len(col), j] = col

    def digits(ns):
        d = np.empty((k, ns.size), dtype=np.int64)
        for i in range(k - 1):
            d[i] = ns % p
            ns = ns // p
        d[k - 1] = ns
        return d

    # the normal basis: the first theta in encoding order whose conjugates
    # theta, F theta, ..., F^(k-1) theta are independent; elements of F_p are
    # their own conjugates, so at k > 1 the search starts at z
    for n in count(1 if k == 1 else p):
        basis = [digits(np.array([n]))]
        for _ in range(k - 1):
            basis.append(frob @ basis[-1] % p)
        basis = np.hstack(basis)
        if matrix_rank(basis, p) == k:
            break
    # the nonzero squares mod p
    square = np.zeros(p, dtype=np.bool_)
    for start in range(1, p // 2 + 1, _EXT_CHUNK):
        x = np.arange(start, min(start + _EXT_CHUNK, p // 2 + 1), dtype=np.int64)
        square[x * x % p] = True
    top = p ** (k - 1)
    total = 0
    for start in range(0, q, _EXT_CHUNK):
        ns = np.arange(start, min(start + _EXT_CHUNK, q), dtype=np.int64)
        # n is kept when none of its rotations is smaller; k / (the number of
        # rotations fixing n) is the size of its orbit
        keep = np.ones(ns.size, dtype=np.bool_)
        fixed = np.ones(ns.size, dtype=np.int8)
        r = ns
        for _ in range(k - 1):
            r = r // p + r % p * top
            keep &= ns <= r
            fixed += r == ns
        x = basis @ digits(ns[keep]) % p
        # Horner, its first step lc * x + c_{d-1} needing no reduction rows
        acc = x * coeffs[-1]
        acc[0] += coeffs[-2]
        acc %= p
        for c in reversed(coeffs[:-2]):
            acc = _ext_mul_step(acc, x, c, red, p, k)
        norm, conj = acc, acc
        for _ in range(k - 1):
            conj = frob @ conj % p
            norm = _ext_mul_step(norm, conj, 0, red, p, k)
        zero = ~acc.any(axis=0)
        total += int((k // fixed[keep]) @ (zero + 2 * square[norm[0]]))
    if curve.degree % 2:
        return total + 1
    # every element of F_p is a square in F_{p^k} for even k
    return total + (2 if k % 2 == 0 or square[coeffs[-1]] else 0)


def l_polynomial(curve):
    """Numerator of the zeta function, little-endian, degree 2g.

    Coefficients a_1..a_g come from point counts over F_{p^k}, k <= g, via
    Newton's identities; the upper half is filled in by a_{g+i} = p^i a_{g-i}.
    """
    g, p = curve.genus, curve.p
    s = [p**k + 1 - point_count(curve, k) for k in range(1, g + 1)]
    e = [1]
    for k in range(1, g + 1):
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


def _slope_kind(slopes, g):
    if slopes is None:
        return None
    if all(s == _HALF for s in slopes):
        return "half"
    if g == 3 and sorted(slopes) == [Fraction(1, 3)] * 3 + [Fraction(2, 3)] * 3:
        return "thirds"
    return "other"


def classify_group_scheme(g, f, a, slopes=None):
    """p-torsion label and stratum name from (p-rank, a-number, slopes).

    Follows the genus 1..3 stratification tables. Slopes are only consulted
    where they carry extra information: for g = 3, p-rank 0, they separate
    the mixed strata from the supersingular ones, and the pair (0, 2) with
    all slopes 1/2 stays ambiguous by design.
    """
    if g > 3:
        raise DomainError(f"classify_group_scheme: no table for genus {g}")
    if g < 1 or not (0 <= f <= g) or not (1 <= a + f <= g) or a < 0:
        raise DomainError(f"classify_group_scheme: invalid (g, f, a) = ({g}, {f}, {a})")
    if slopes is not None:
        slopes = tuple(Fraction(s) for s in slopes)
        if len(slopes) != 2 * g or sum(slopes) != g:
            raise DomainError("classify_group_scheme: slopes must be 2g values summing to g")
        if sum(1 for s in slopes if s == 0) != f:
            raise DomainError(
                "classify_group_scheme: zero-slope multiplicity disagrees with p-rank"
            )
    kind = _slope_kind(slopes, g)
    table = {
        (1, 1, 0): ("L", "ordinary"),
        (1, 0, 1): ("I_{1,1}", "supersingular"),
        (2, 2, 0): ("L^2", "ordinary"),
        (2, 1, 1): ("L + I_{1,1}", "non-ordinary"),
        (2, 0, 1): ("I_{2,1}", "supersingular non-superspecial"),
        (2, 0, 2): ("I_{1,1}^2", "superspecial"),
        (3, 3, 0): ("L^3", "ordinary"),
        (3, 2, 1): ("L^2 + I_{1,1}", "non-ordinary"),
        (3, 1, 1): ("L + I_{2,1}", "non-ordinary"),
        (3, 1, 2): ("L + I_{1,1}^2", "non-ordinary"),
        (3, 0, 3): ("I_{1,1}^3", "superspecial"),
    }
    if (g, f, a) in table:
        scheme, name = table[(g, f, a)]
        return ReductionProfile(f, a, slopes, scheme, name)
    if g == 3 and f == 0 and a == 1:
        if kind == "other":
            raise DomainError("classify_group_scheme: impossible slopes for (3, 0, 1)")
        if kind == "half":
            return ReductionProfile(f, a, slopes, "I_{3,1}", "supersingular non-superspecial")
        name = "mixed" if kind == "thirds" else "mixed or supersingular"
        return ReductionProfile(f, a, slopes, "I_{3,1}", name)
    if g == 3 and f == 0 and a == 2:
        if kind == "other":
            raise DomainError("classify_group_scheme: impossible slopes for (3, 0, 2)")
        if kind == "thirds":
            return ReductionProfile(f, a, slopes, "I_{3,2}", "mixed")
        scheme = "I_{3,2} or I_{1,1} + I_{2,1}"
        if kind == "half":
            return ReductionProfile(f, a, slopes, scheme, "supersingular non-superspecial")
        return ReductionProfile(f, a, slopes, scheme, "mixed or supersingular")
    raise DomainError(f"classify_group_scheme: no stratum with (g, f, a) = ({g}, {f}, {a})")


def _coarse_profile(g, f, a, slopes):
    if f == g:
        name = "ordinary"
    elif a == g:
        name = "superspecial"
    elif slopes is not None and all(s == _HALF for s in slopes):
        name = "supersingular non-superspecial"
    elif f == 0:
        name = "mixed or supersingular"
    else:
        name = "non-ordinary"
    return ReductionProfile(f, a, slopes, f"unclassified (genus {g})", name)


def reduction_profile(curve):
    """Full profile of a reduced curve.

    The L-polynomial, the slopes and the classification detail that needs
    them are computed only when p^g fits SLOPE_BUDGET (read at call time);
    otherwise the profile carries l_polynomial = slopes = None and whatever
    the (f, a) pair alone determines.
    """
    f = p_rank(curve)
    a = a_number(curve)
    lpoly = slopes = None
    if curve.p**curve.genus <= SLOPE_BUDGET:
        lpoly = tuple(l_polynomial(curve))
        slopes = tuple(newton_slopes(lpoly, curve.p))
        if sum(1 for s in slopes if s == 0) != f:
            raise InternalInconsistencyError(
                f"p-rank {f} disagrees with zero-slope multiplicity at p = {curve.p}"
            )
    if curve.genus <= 3:
        profile = classify_group_scheme(curve.genus, f, a, slopes)
    else:
        profile = _coarse_profile(curve.genus, f, a, slopes)
    return replace(profile, l_polynomial=lpoly)

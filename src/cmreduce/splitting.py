"""Decomposition of unramified rational primes in cyclic CM fields.

Three independent routes: the residue of p modulo the conductor, Stickelberger
parity via the Kronecker symbol of the discriminant, and factoring defining
polynomials mod p. The routes deliberately stay separate so they can check
each other.
"""

import math
import random
from dataclasses import dataclass

from .errors import (
    DomainError,
    InternalInconsistencyError,
    MissingDataError,
    PrimeSearchTimeout,
    RamifiedPrimeError,
)
from .ff_arith import factor_degree_profile, is_prime, kronecker, poly_trim

FIND_PRIME_ATTEMPT_CAP = 10**6


def _subgroup_closure(gens, f):
    h = {1}
    frontier = [1]
    while frontier:
        a = frontier.pop()
        for g in gens:
            b = a * g % f
            if b not in h:
                h.add(b)
                frontier.append(b)
    return frozenset(h)


def _coset_order(r, h, f):
    x, e = r, 1
    while x not in h:
        x, e = x * r % f, e + 1
    return e


def unit_quotient_log(conductor, h, two_g):
    """{unit r: i} in ascending r, with r in gamma^i * H for gamma the least unit whose
    coset has order 2g: with H = {1} and a prime conductor, the discrete log."""
    units = [r for r in range(1, conductor) if math.gcd(r, conductor) == 1]
    if len(units) != two_g * len(h):
        index = len(units) / len(h)
        raise DomainError(f"CyclicCMField: subgroup has index {index}, expected {two_g}")
    gamma = next((r for r in units if _coset_order(r, h, conductor) == two_g), None)
    if gamma is None:
        raise DomainError("CyclicCMField: unit quotient is not cyclic of order 2g")
    log, x = {}, 1
    for i in range(two_g):
        for u in h:
            log[x * u % conductor] = i
        x = x * gamma % conductor
    return {r: log[r] for r in units}


@dataclass(frozen=True)
class SplittingType:
    num_primes: int
    inertia_degree: int
    ramified: bool = False

    def __post_init__(self):
        if self.num_primes < 1 or self.inertia_degree < 1:
            raise DomainError("SplittingType: counts must be positive")


class CyclicCMField:
    """Degree-2g cyclic CM field described by conductor data and/or
    defining polynomials (little-endian integer coefficients, monic)."""

    def __init__(self, label, two_g, discriminant, defining_polys,
                 conductor=None, h_generators=None):
        numbers = [two_g, discriminant, conductor, *(h_generators or ())]
        numbers += [c for q in defining_polys for c in q]
        if any(type(x) is not int for x in numbers if x is not None):
            raise DomainError("CyclicCMField: field data must be integers")
        if two_g < 2 or two_g % 2:
            raise DomainError("CyclicCMField: degree 2g must be even and >= 2")
        if discriminant == 0:
            raise DomainError("CyclicCMField: discriminant must be nonzero")
        polys = tuple(map(tuple, defining_polys))
        if not polys:
            raise DomainError("CyclicCMField: at least one defining polynomial")
        for q in polys:
            if len(q) < 2 or q[-1] != 1:
                raise DomainError(f"CyclicCMField: {list(q)} is not monic nonconstant")
        self.label = label
        self.two_g = two_g
        self.discriminant = discriminant
        self.defining_polys = polys
        self.conductor = conductor
        if conductor is None:
            self.unit_subgroup = self.inertia_degrees = None
        else:
            if conductor < 3:
                raise DomainError("CyclicCMField: conductor must be >= 3")
            gens = [g % conductor for g in (h_generators or [])]
            if any(math.gcd(g, conductor) != 1 for g in gens):
                raise DomainError("CyclicCMField: subgroup generators must be units")
            h = _subgroup_closure(gens, conductor)
            log = unit_quotient_log(conductor, h, two_g)
            # {unit residue: inertia degree}, the order of its coset
            self.inertia_degrees = {r: two_g // math.gcd(i, two_g) for r, i in log.items()}
            self.unit_subgroup = h

    @property
    def g(self):
        return self.two_g // 2

    def __repr__(self):
        return f"CyclicCMField({self.label!r}, 2g={self.two_g})"


def split_by_residue(field, p):
    """Splitting type from p mod conductor: inertia degree is the order of
    the coset of p in the unit quotient."""
    if not is_prime(p):
        raise DomainError(f"split_by_residue: {p} is not prime")
    if field.conductor is None:
        raise MissingDataError(f"{field.label}: conductor unknown")
    f = field.conductor
    if math.gcd(p, f) != 1:
        raise RamifiedPrimeError(f"p = {p} divides the conductor {f}")
    e = field.inertia_degrees[p % f]
    return SplittingType(field.two_g // e, e)


def residue_class_table(field):
    """Partition of units mod the conductor, keyed by number of primes."""
    if field.conductor is None:
        raise MissingDataError(f"{field.label}: conductor unknown")
    table = {}
    for r, e in field.inertia_degrees.items():
        table.setdefault(field.two_g // e, []).append(r)
    return table


def stickelberger_parity(field, p):
    """Parity of the number of primes above p, from (D/p) = (-1)^(2g - m)."""
    if not is_prime(p):
        raise DomainError(f"stickelberger_parity: {p} is not prime")
    k = kronecker(field.discriminant, p)
    if k == 0:
        raise RamifiedPrimeError(f"p = {p} divides the discriminant")
    return (field.two_g + (0 if k == 1 else 1)) % 2


def split_by_factorization(field, p):
    """Splitting type from defining-polynomial factor degrees mod p.

    Each polynomial cuts out an abelian subfield, so its factors share one
    degree; the compositum's inertia degree is the lcm over the polynomials.
    NotSquarefree propagates: p is then ramified or an index divisor and is
    excluded from this route.
    """
    if not is_prime(p):
        raise DomainError(f"split_by_factorization: {p} is not prime")
    degrees = []
    for q in field.defining_polys:
        qp = poly_trim([c % p for c in q])
        profile = factor_degree_profile(qp, p)
        if len(set(profile)) != 1:
            raise InternalInconsistencyError(
                f"{field.label}: unequal factor degrees {profile} at p = {p},"
                " defining polynomial does not cut out a Galois field"
            )
        degrees.append(profile[0])
    e = math.lcm(*degrees)
    if field.two_g % e:
        raise InternalInconsistencyError(
            f"{field.label}: combined inertia degree {e} does not divide {field.two_g}"
        )
    return SplittingType(field.two_g // e, e)


def find_prime(field, target, bit_size, seed=0):
    """Prime in [2^n, 2^(n+1)) with the requested splitting behaviour.

    target: an integer (the number of primes above p), or a pair
    ("kronecker", v) asking for kronecker(D, p) = v. Residue targets sample
    within the admissible classes mod the conductor; Kronecker targets use
    rejection sampling. Deterministic per seed. The search gives up after
    FIND_PRIME_ATTEMPT_CAP draws, or as soon as every candidate has been
    drawn when the window holds at most that many.
    """
    if bit_size < 2:
        raise DomainError("find_prime: bit size must be >= 2")
    lo = 1 << bit_size
    hi = 1 << (bit_size + 1)
    want = None
    if isinstance(target, tuple) and len(target) == 2 and target[0] == "kronecker":
        want = target[1]
        if type(want) is not int or want not in (-1, 1):
            raise DomainError("find_prime: Kronecker target must be -1 or 1")
        rng = random.Random(f"findprime:{seed}:{field.label}:K{want}:{bit_size}")

        def draw():
            return rng.randrange(lo, hi) | 1

        window = (hi - lo) // 2  # the odd numbers
        wanted = f"with ({field.discriminant}/p) = {want}"
    elif type(target) is int:  # not a bool
        table = residue_class_table(field)
        if target not in table:
            raise PrimeSearchTimeout(
                f"{field.label}: no residue class with {target} primes"
            )
        residues = table[target]
        f = field.conductor
        # per residue r, the range of m with r + f*m in [lo, hi); -(x // f) is ceil
        spans = {r: (-((r - lo) // f), (hi - 1 - r) // f) for r in residues}
        window = sum(max(m_hi - m_lo + 1, 0) for m_lo, m_hi in spans.values())
        if not window:
            raise PrimeSearchTimeout(
                f"{field.label}: no residue class with {target} primes meets"
                f" [2^{bit_size}, 2^{bit_size + 1})"
            )
        rng = random.Random(f"findprime:{seed}:{field.label}:L{target}:{bit_size}")

        def draw():
            r = rng.choice(residues)
            m_lo, m_hi = spans[r]
            return None if m_lo > m_hi else r + f * rng.randrange(m_lo, m_hi + 1)

        wanted = f"with {target} factors near 2^{bit_size}"
    else:
        raise DomainError(f"find_prime: unsupported target {target!r}")
    # rejects are remembered only when they can exhaust the window
    exhaustible = window <= FIND_PRIME_ATTEMPT_CAP
    rejected = set()
    for _ in range(FIND_PRIME_ATTEMPT_CAP):
        p = draw()
        if p is None or p in rejected:
            continue
        if (want is None or kronecker(field.discriminant, p) == want) and is_prime(p):
            return p
        if exhaustible:
            rejected.add(p)
            if len(rejected) == window:
                raise PrimeSearchTimeout(
                    f"{field.label}: no prime {wanted}; every candidate in"
                    f" [2^{bit_size}, 2^{bit_size + 1}) was drawn"
                )
    raise PrimeSearchTimeout(f"no prime {wanted} in {FIND_PRIME_ATTEMPT_CAP} attempts")

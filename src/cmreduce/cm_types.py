"""CM types on cyclic fields of degree 2g as binary strings.

A type is stored as its length-g bit string; the extended length-2g string
appends the complement, so entries at distance g always differ. Exponent-set
view: i is in S exactly when extended bit i is 0, and S picks one embedding
from each conjugate pair tau^i, tau^(i+g). Equivalence is cyclic rotation of
the extended string; the canonical class representative is the
lexicographically least rotation.
"""

import math
from dataclasses import dataclass

from .errors import DomainError, ResourceLimitError
from .ff_arith import factorize

ENUMERATION_CAP = 24  # enumerate_classes scans 2**g strings
# count_E(g) has about 0.3 g digits: 4,210 at g = 14000, under Python's
# default 4,300-digit limit on int-to-str (the last g that fits is 14299)
COUNT_CAP = 14000


def cyclic_period(bits):
    """Smallest k >= 1 such that a cyclic shift by k fixes the string.

    Accepts any 0/1 sequence or string, not only valid extended type strings.
    The minimal shift period always divides the length.
    """
    b = [int(c) for c in bits]
    if not b:
        raise DomainError("cyclic_period: empty string")
    return next(k for k in range(1, len(b) + 1) if b[k:] + b[:k] == b)


@dataclass(frozen=True)
class CMType:
    """Immutable CM type for a cyclic field of degree 2g."""

    bits: tuple

    def __post_init__(self):
        b = tuple(self.bits)
        if not b:
            raise DomainError("CMType: empty bit string")
        if any(type(c) is not int or c not in (0, 1) for c in b):  # bools and floats too
            raise DomainError("CMType: bits must be the ints 0 and 1")
        object.__setattr__(self, "bits", b)

    @property
    def g(self):
        return len(self.bits)

    @classmethod
    def from_exponents(cls, g, exponents):
        s = {e % (2 * g) for e in exponents}
        if len(s) != g:
            raise DomainError(f"CMType: expected {g} distinct exponents mod {2 * g}")
        for i in range(g):
            if (i in s) == (i + g in s):
                raise DomainError(
                    f"CMType: exactly one of {i}, {i + g} must be an exponent"
                )
        return cls(tuple(0 if i in s else 1 for i in range(g)))

    @property
    def extended(self):
        return self.bits + tuple(1 - c for c in self.bits)

    @property
    def exponents(self):
        return frozenset(i for i, c in enumerate(self.extended) if c == 0)

    def period(self):
        return cyclic_period(self.extended)

    def is_primitive(self):
        return self.period() == 2 * self.g

    def reflex(self):
        """Inverse exponent set; defined for primitive types on abelian fields."""
        if not self.is_primitive():
            raise DomainError("reflex: type is imprimitive")
        n = 2 * self.g
        return CMType.from_exponents(self.g, {(-s) % n for s in self.exponents})

    def conjugate(self):
        n = 2 * self.g
        return CMType.from_exponents(self.g, {(s + self.g) % n for s in self.exponents})


@dataclass(frozen=True)
class TypeClass:
    representative: CMType
    period: int

    def __post_init__(self):
        n = 2 * self.representative.g
        if n % self.period or (n // self.period) % 2 == 0:
            raise DomainError("TypeClass: period must divide 2g with odd quotient")

    @property
    def primitive(self):
        return self.period == 2 * self.representative.g


def enumerate_classes(g):
    """One canonical representative per rotation class, with periods.

    Scans all 2**g strings once; a bitmap of visited orbits keeps the total
    work near 2**g. Capped at g = 24. A rotation of a type string is again a
    type string, fixed by its high half, so the least unseen high half v is
    the least rotation of its class.
    """
    if g < 1:
        raise DomainError("enumerate_classes: g must be >= 1")
    if g > ENUMERATION_CAP:
        raise ResourceLimitError(f"enumerate_classes: g capped at {ENUMERATION_CAP}")
    half = (1 << g) - 1
    seen = bytearray((1 << g) // 8 + 1)
    out = []
    for v in range(1 << g):
        if seen[v >> 3] & (1 << (v & 7)):
            continue
        # one rotation of the extended string shifts its high half h, read
        # MSB-first, left and brings in the complement of the bit shifted out
        h, k = v, 0
        while not k or h != v:
            seen[h >> 3] |= 1 << (h & 7)
            h = ((h << 1) & half) | (1 - (h >> (g - 1)))
            k += 1
        out.append(TypeClass(CMType(tuple((v >> (g - 1 - i)) & 1 for i in range(g))), k))
    return out


def _mobius(n):
    e = factorize(n).values()
    return 0 if any(x > 1 for x in e) else (-1) ** len(e)


def _totient(n):
    return math.prod(q ** (e - 1) * (q - 1) for q, e in factorize(n).items())


def count_P(k):
    """Number of extended strings of period exactly k, any ambient g."""
    if k < 2 or k % 2:
        raise DomainError("count_P: k must be even and >= 2")
    if k > 2 * COUNT_CAP:
        raise ResourceLimitError(f"count_P: k capped at {2 * COUNT_CAP}")
    return sum(
        _mobius(x) * 2 ** (k // (2 * x)) for x in range(1, k + 1) if k % x == 0 and x % 2
    )


def count_E(g):
    """Number of rotation classes of CM types at half-degree g."""
    if g < 1:
        raise DomainError("count_E: g must be >= 1")
    if g > COUNT_CAP:
        raise ResourceLimitError(f"count_E: g capped at {COUNT_CAP}")
    total = sum(
        _totient(d) * 2 ** (g // d) for d in range(1, g + 1) if g % d == 0 and d % 2
    )
    assert total % (2 * g) == 0
    return total // (2 * g)


def count_E_primitive(g):
    if g < 1:
        raise DomainError("count_E_primitive: g must be >= 1")
    if g > COUNT_CAP:
        raise ResourceLimitError(f"count_E_primitive: g capped at {COUNT_CAP}")
    cnt = count_P(2 * g)
    assert cnt % (2 * g) == 0
    return cnt // (2 * g)

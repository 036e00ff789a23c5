"""CM types as binary necklaces: periods, canonical forms, census counts.

The enumeration is cross-checked against a brute-force orbit walk over all
2^g strings, and the closed-form counts against a frozen table computed
independently before the fast code existed.
"""

import math

import pytest

from cmreduce import (
    CMType,
    DomainError,
    ResourceLimitError,
    TypeClass,
    count_E,
    count_E_primitive,
    count_P,
    cyclic_period,
    enumerate_classes,
)
from cmreduce.cm_types import COUNT_CAP

# classes of length-2g strings fixed by complement-shift, g = 1..14
TOTAL = [1, 1, 2, 2, 4, 6, 10, 16, 30, 52, 94, 172, 316, 586]
PRIMITIVE = [1, 1, 1, 2, 3, 5, 9, 16, 28, 51, 93, 170, 315, 585]


def test_cyclic_period_raw_sequences():
    assert cyclic_period((1, 0, 1, 0)) == 2
    assert cyclic_period((1, 1, 1, 0)) == 4
    assert cyclic_period((0,)) == 1
    assert cyclic_period((0, 1, 1, 0, 1, 1)) == 3
    with pytest.raises(DomainError):
        cyclic_period(())


def test_from_exponents_round_trip():
    t = CMType.from_exponents(3, {0, 1, 2})
    assert t.exponents == frozenset({0, 1, 2})
    assert t.g == 3
    assert len(t.extended) == 6
    assert CMType(t.bits) == t and hash(CMType(t.bits)) == hash(t)


def test_from_exponents_validation():
    with pytest.raises(DomainError):
        CMType.from_exponents(2, {0, 2})  # both members of a conjugate pair
    with pytest.raises(DomainError):
        CMType.from_exponents(2, {0})  # too few
    with pytest.raises(DomainError):
        CMType.from_exponents(0, set())


@pytest.mark.parametrize("bits", [(0.9, 1), (0, 1.0), (True, 0), (0, False), ("0", "1"), "01"])
def test_cm_type_refuses_bits_that_are_not_the_ints_0_and_1(bits):
    # int() would have read each of these as a valid bit string
    with pytest.raises(DomainError, match="bits must be the ints 0 and 1"):
        CMType(bits)


def test_cm_type_is_immutable():
    t = CMType.from_exponents(2, {0, 1})
    with pytest.raises(AttributeError):
        t.bits = (0, 0, 0, 0)


def test_period_and_primitivity():
    assert CMType.from_exponents(3, {0, 1, 2}).period() == 6
    assert CMType.from_exponents(3, {0, 1, 2}).is_primitive()
    # alternating exponents come from the degree-2 subfield
    lifted = CMType.from_exponents(5, {0, 2, 4, 6, 8})
    assert lifted.period() == 2
    assert not lifted.is_primitive()


def test_reflex_and_conjugate():
    t = CMType.from_exponents(3, {0, 1, 2})
    assert t.reflex().exponents == frozenset({0, 4, 5})
    assert t.conjugate().exponents == frozenset({3, 4, 5})
    # reflex of the reflex recovers the type for this self-paired example
    assert t.reflex().reflex().exponents == t.exponents


def test_reflex_requires_primitive():
    lifted = CMType.from_exponents(5, {0, 2, 4, 6, 8})
    with pytest.raises(DomainError):
        lifted.reflex()


def test_conjugate_is_disjoint_complement():
    for g in range(1, 7):
        for cls in enumerate_classes(g):
            t = cls.representative
            conj = t.conjugate().exponents
            assert conj.isdisjoint(t.exponents)
            assert conj | t.exponents == frozenset(range(2 * g))


def test_repr_round_trips():
    t = CMType.from_exponents(3, {0, 1, 2})
    assert repr(t) == "CMType(bits=(0, 0, 0))"
    for g in range(1, 5):
        for cls in enumerate_classes(g):
            t = cls.representative
            assert eval(repr(t)) == t


def test_type_class_validation():
    t = CMType.from_exponents(3, {0, 1, 2})
    with pytest.raises(DomainError):
        TypeClass(t, 4)  # 6/4 is not an odd integer
    cls = TypeClass(t, 6)
    assert cls.primitive


def test_counts_match_frozen_table():
    assert [count_E(g) for g in range(1, 15)] == TOTAL
    assert [count_E_primitive(g) for g in range(1, 15)] == PRIMITIVE


def test_count_P_values_and_domain():
    assert count_P(2) == 2
    assert count_P(6) == 6
    assert count_P(10) == 30
    assert count_P(12) == 60
    for bad in (0, 1, 3, 7):
        with pytest.raises(DomainError):
            count_P(bad)


@pytest.mark.parametrize("count, n, error, message", [
    (count_P, 2 * COUNT_CAP + 2, ResourceLimitError, f"count_P: k capped at {2 * COUNT_CAP}"),
    (count_E, 0, DomainError, "count_E: g must be >= 1"),
    (count_E_primitive, 0, DomainError, "count_E_primitive: g must be >= 1"),
    (count_E_primitive, COUNT_CAP + 1, ResourceLimitError,
     f"count_E_primitive: g capped at {COUNT_CAP}"),
], ids=["count_P-above-cap", "count_E-0", "count_E_primitive-0", "count_E_primitive-above-cap"])
def test_counts_refuse_arguments_out_of_range(count, n, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        count(n)


def test_primitive_strings_sum_to_all_strings():
    # every string has a unique primitive core: sum of P(k) over k | 2g
    # with odd cofactor recovers 2^g
    for g in range(1, 15):
        total = sum(
            count_P(k)
            for k in range(2, 2 * g + 1, 2)
            if (2 * g) % k == 0 and ((2 * g) // k) % 2 == 1
        )
        assert total == 1 << g


def test_total_classes_partition_by_primitive_core():
    for g in range(1, 15):
        parts = sum(
            count_E_primitive(h)
            for h in range(1, g + 1)
            if g % h == 0 and (g // h) % 2 == 1
        )
        assert count_E(g) == parts


def least_rotation(t):
    """First g bits of the least rotation of t's extended string."""
    ext = t.extended
    return min(ext[i:] + ext[:i] for i in range(len(ext)))[: t.g]


def naive_classes(g):
    """Orbit walk over all 2^g strings, no bit packing."""
    n = 2 * g
    seen = set()
    out = []
    for v in range(1 << g):
        top = tuple((v >> (g - 1 - i)) & 1 for i in range(g))
        ext = top + tuple(1 - b for b in top)
        if ext in seen:
            continue
        rots = [ext[i:] + ext[:i] for i in range(n)]
        for r in rots:
            seen.add(r)
        period = next(i for i in range(1, n + 1) if rots[i % n] == ext)
        out.append((min(rots), period))
    return sorted(out)


@pytest.mark.parametrize("g", range(1, 9))
def test_enumerate_matches_naive_walk(g):
    fast = sorted(
        (cls.representative.extended, cls.period) for cls in enumerate_classes(g)
    )
    assert fast == naive_classes(g)


def test_enumerate_counts_up_to_twelve():
    for g in range(1, 13):
        classes = enumerate_classes(g)
        assert len(classes) == count_E(g)
        assert sum(1 for c in classes if c.primitive) == count_E_primitive(g)


def test_enumerate_class_sizes_cover_all_strings():
    for g in range(1, 11):
        assert sum(c.period for c in enumerate_classes(g)) == 1 << g


def test_enumerate_periods_have_odd_cofactor():
    for g in range(1, 11):
        for cls in enumerate_classes(g):
            q, r = divmod(2 * g, cls.period)
            assert r == 0 and q % 2 == 1


def test_enumerate_domain_and_cap():
    with pytest.raises(DomainError):
        enumerate_classes(0)
    with pytest.raises(ResourceLimitError):
        enumerate_classes(25)


# hand-listed pairwise inequivalent representatives for small g
REPRESENTATIVES = {
    4: [{0, 1, 2, 3}, {0, 1, 3, 6}],
    5: [{0, 1, 2, 3, 4}, {0, 1, 2, 4, 8}, {0, 1, 3, 4, 7}, {0, 2, 4, 6, 8}],
    6: [
        {0, 1, 2, 3, 4, 5},
        {0, 1, 2, 3, 5, 10},
        {0, 1, 2, 4, 5, 9},
        {0, 1, 2, 5, 9, 10},
        {0, 1, 3, 5, 8, 10},
        {0, 1, 4, 5, 8, 9},
    ],
}


@pytest.mark.parametrize("g", sorted(REPRESENTATIVES))
def test_representative_lists_are_complete(g):
    reps = [CMType.from_exponents(g, s) for s in REPRESENTATIVES[g]]
    canon = {least_rotation(t) for t in reps}
    assert len(canon) == len(reps)  # pairwise inequivalent
    enumerated = {c.representative.bits for c in enumerate_classes(g)}
    assert canon == enumerated


def test_equivalence_is_rotation_invariant():
    # each rotation of a representative's extended string is a type whose
    # least rotation is the representative
    for g in (3, 4, 5):
        for cls in enumerate_classes(g):
            ext = cls.representative.extended
            for i in range(2 * g):
                # a rotation of an extended string is one again
                rot = ext[i:] + ext[:i]
                t = CMType(rot[:g])
                assert t.extended == rot
                assert least_rotation(t) == cls.representative.bits


def test_reflex_preserves_primitivity():
    for g in (3, 4, 5, 6):
        for cls in enumerate_classes(g):
            if not cls.primitive:
                continue
            r = cls.representative.reflex()
            assert r.is_primitive()
            assert math.gcd(r.period(), 2 * g) == 2 * g

"""Prime splitting in cyclic CM fields by three independent routes.

The residue-class route (conductor data), the factorization route (defining
polynomials), and the Stickelberger parity must never disagree on an
unramified non-index prime. Frozen spot values pin down each route alone.
"""

import math
import random
import time
from types import SimpleNamespace

import pytest

from cmreduce import (
    CyclicCMField,
    DomainError,
    MissingDataError,
    NotSquarefreeError,
    PrimeSearchTimeout,
    RamifiedPrimeError,
    SplittingType,
    catalog_load,
    find_prime,
    residue_class_table,
    split_by_factorization,
    split_by_residue,
    splitting,
    stickelberger_parity,
)
from cmreduce.ff_arith import is_prime, kronecker

QUARTIC = CyclicCMField(
    label="quartic-5-65-845",
    two_g=4,
    discriminant=21125,
    defining_polys=[[845, 0, 65, 0, 1]],
    conductor=65,
    h_generators=[19],
)

SEXTIC = CyclicCMField(
    label="sextic-5-2",
    two_g=6,
    discriminant=-153664,
    defining_polys=[[1, -2, -1, 1], [1, 0, 1]],
)

CYCLO5 = CyclicCMField(
    label="cyclotomic-5",
    two_g=4,
    discriminant=125,
    defining_polys=[[1, 1, 1, 1, 1]],
    conductor=5,
    h_generators=[],
)


def test_field_validation():
    with pytest.raises(DomainError):
        CyclicCMField("x", 3, 5, [[1, 1]])  # odd degree
    with pytest.raises(DomainError):
        CyclicCMField("x", 4, 0, [[1, 0, 0, 0, 1]])  # zero discriminant
    with pytest.raises(DomainError):
        CyclicCMField("x", 4, 5, [[1, 0, 0, 0, 2]])  # not monic
    with pytest.raises(DomainError):
        CyclicCMField("x", 4, 5, [[7]])  # constant
    with pytest.raises(DomainError):
        CyclicCMField("x", 4, 5, [[1, 0, 0, 0, 1]], conductor=2)
    with pytest.raises(DomainError):
        # 6 is not a unit mod 65, cannot generate a subgroup
        CyclicCMField("x", 4, 5, [[1, 0, 0, 0, 1]], conductor=65, h_generators=[13])
    with pytest.raises(DomainError):
        # subgroup of the wrong index: [19, 2] generates too much
        CyclicCMField("x", 4, 5, [[1, 0, 0, 0, 1]], conductor=65, h_generators=[19, 2])


@pytest.mark.parametrize("data", [
    dict(two_g=4.0),
    dict(two_g=True),
    dict(discriminant=21125.7),  # int() would truncate it to 21125
    dict(defining_polys=[[845, 0, 65.5, 0, 1]]),
    dict(defining_polys=[[845, 0, 65, 0, True]]),
    dict(conductor=65.0),
    dict(h_generators=[19.0]),
    dict(h_generators=[True]),
])
def test_field_refuses_non_integer_data(data):
    # called directly, without the catalog loader's checks in front of it
    args = dict(label="x", two_g=4, discriminant=21125,
                defining_polys=[[845, 0, 65, 0, 1]], conductor=65, h_generators=[19])
    CyclicCMField(**args)
    with pytest.raises(DomainError, match="must be integers"):
        CyclicCMField(**(args | data))


@pytest.mark.parametrize("two_g, discriminant, message", [
    (4, -21125, "must have sign"),  # a quartic CM field has D > 0
    (6, 153664, "must have sign"),  # a sextic one D < 0
    (2, 4, "must have sign"),
    (4, 21127, "not 0 or 1 mod 4"),  # Stickelberger
    (6, -153662, "not 0 or 1 mod 4"),
])
def test_field_refuses_an_impossible_discriminant(two_g, discriminant, message):
    with pytest.raises(DomainError, match=message):
        CyclicCMField("x", two_g, discriminant, [[1] * (two_g + 1)])


@pytest.mark.parametrize("build, args, message", [
    (CyclicCMField, ("x", 4, 5, []), "CyclicCMField: at least one defining polynomial"),
    (SplittingType, (0, 1), "SplittingType: counts must be positive"),
    (SplittingType, (1, 0), "SplittingType: counts must be positive"),
], ids=["field-without-polynomials", "no-primes", "inertia-degree-0"])
def test_splitting_data_refuses_empty_shapes(build, args, message):
    with pytest.raises(DomainError) as e:
        build(*args)
    assert str(e.value) == message


def test_field_refuses_a_unit_quotient_that_is_not_cyclic():
    # (Z/15)^* is Z/2 x Z/4: order 8, but no unit of order 8
    with pytest.raises(DomainError, match="not cyclic of order 2g"):
        CyclicCMField("x", 8, 5, [[1, 0, 0, 0, 1]], conductor=15, h_generators=[])
    with pytest.raises(DomainError, match=r"subgroup has index 8\.0, expected 4"):
        CyclicCMField("x", 4, 5, [[1, 0, 0, 0, 1]], conductor=15, h_generators=[])


def test_field_refuses_polynomials_of_another_degree():
    # x^6 + x^3 + 1 cuts out Q(zeta_9), of degree 6; lcm(3, 2) = 6 is not 4
    with pytest.raises(DomainError, match="give degree 6, not 8"):
        CyclicCMField("x", 8, 3**10, [[1, 0, 0, 1, 0, 0, 1]])
    with pytest.raises(DomainError, match="give degree 6, not 4"):
        CyclicCMField("x", 4, 5, [[1, 1, 1, 1], [1, 0, 1]])


ODD_PRIMES = [ell for ell in range(3, 200) if is_prime(ell)]


@pytest.mark.parametrize("label", ["quartic-5-65-845", "sextic-5-2"]
                         + [f"cyclotomic-{ell}" for ell in ODD_PRIMES])
def test_inertia_degrees_match_brute_force(catalog, label):
    # the inertia degree of r is the least e with r^e in H
    field = catalog.field(label)
    n, h = field.conductor, field.unit_subgroup
    units = [r for r in range(1, n) if math.gcd(r, n) == 1]
    want = {r: next(e for e in range(1, n) if pow(r, e, n) in h) for r in units}
    assert field.inertia_degrees == want
    assert list(field.inertia_degrees) == units  # ascending, as the tables list them


@pytest.mark.parametrize("ell", ODD_PRIMES)
def test_cyclotomic_cm_type_is_the_discrete_log(catalog, ell):
    # exponents: the logs of 1..g to the least primitive root mod ell
    root = next(a for a in range(2, ell)
                if len({pow(a, k, ell) for k in range(ell - 1)}) == ell - 1)
    log = {pow(root, k, ell): k for k in range(ell - 1)}
    g = (ell - 1) // 2
    want = {log[a] for a in range(1, g + 1)}
    assert catalog.record(f"cyclo-{ell}").cm_type.exponents == frozenset(want)


def test_large_cyclotomic_record_sets_up_quickly():
    # one walk of the units mod 20011, not one per unit (22.6 s when it was)
    start = time.perf_counter()
    catalog_load().record("cyclo-20011")
    assert time.perf_counter() - start < 3


def test_quartic_unit_subgroup():
    assert QUARTIC.g == 2
    assert QUARTIC.unit_subgroup == frozenset(
        {1, 16, 19, 24, 34, 36, 44, 51, 54, 56, 59, 61}
    )


def test_quartic_residue_table_partition():
    table = residue_class_table(QUARTIC)
    assert set(table) == {1, 2, 4}

    def norm(vals):
        return sorted(v % 65 for v in vals)

    assert table[4] == norm([-31, -29, -21, -14, -11, -9, -6, -4, 1, 16, 19, 24])
    assert table[2] == norm([-24, -19, -16, -1, 4, 6, 9, 11, 14, 21, 29, 31])
    assert table[1] == norm(
        [2, 3, 7, 8, 12, 17, 18, 22, 23, 27, 28, 32,
         -2, -3, -7, -8, -12, -17, -18, -22, -23, -27, -28, -32]
    )
    # the three classes partition the units mod 65
    union = sorted(r for vals in table.values() for r in vals)
    assert union == [r for r in range(1, 65) if math.gcd(r, 65) == 1]


def test_split_by_residue_quartic():
    # 2^128 + 51 is 47 = -18 mod 65, one of the inert residues
    p = (1 << 128) + 51
    s = split_by_residue(QUARTIC, p)
    assert s == SplittingType(num_primes=1, inertia_degree=4)
    assert split_by_residue(QUARTIC, 131).num_primes == 4  # 131 = 1 mod 65
    assert split_by_residue(QUARTIC, 69 + 2 * 65).num_primes == 2  # 199 = 4 mod 65


def test_split_by_residue_errors():
    with pytest.raises(DomainError, match="21 is not prime"):
        split_by_residue(QUARTIC, 21)  # 21 is a unit mod 65
    with pytest.raises(RamifiedPrimeError):
        split_by_residue(QUARTIC, 5)
    with pytest.raises(RamifiedPrimeError):
        split_by_residue(QUARTIC, 13)
    with pytest.raises(MissingDataError):
        split_by_residue(SEXTIC, 11)  # no conductor data on this field


def test_split_by_residue_cyclotomic():
    # splitting mod 5 is the order of p in (Z/5)*
    for p, ell in [(11, 4), (19, 2), (7, 1), (3, 1), (13, 1)]:
        s = split_by_residue(CYCLO5, p)
        assert s.num_primes == ell
        assert s.num_primes * s.inertia_degree == 4


def test_split_by_factorization_sextic():
    for p, ell in [(13, 6), (43, 3), (17, 2), (11, 1), (3, 1), (5, 2)]:
        s = split_by_factorization(SEXTIC, p)
        assert (s.num_primes, s.num_primes * s.inertia_degree) == (ell, 6)


def test_split_by_factorization_errors():
    with pytest.raises(NotSquarefreeError):
        split_by_factorization(QUARTIC, 2)
    with pytest.raises(NotSquarefreeError):
        split_by_factorization(QUARTIC, 5)
    with pytest.raises(DomainError):
        split_by_factorization(SEXTIC, 15)  # not prime


def test_split_routes_agree_on_quartic():
    for p in range(3, 2000):
        if not is_prime(p) or 65 % p == 0 or p % 5 == 0 or p % 13 == 0:
            continue
        try:
            fact = split_by_factorization(QUARTIC, p)
        except NotSquarefreeError:
            continue  # index divisor, no claim made
        assert fact == split_by_residue(QUARTIC, p), p


@pytest.mark.parametrize("bits", [64, 128, 256])
@pytest.mark.parametrize("label", ["quartic-5-65-845", "sextic-5-2"])
def test_split_routes_agree_at_large_p(catalog, label, bits):
    # primes drawn by residue class for every splitting the field has, plus
    # plain random ones; the factor degrees must give the residue verdict
    field = catalog.field(label)
    primes = [find_prime(field, m, bits - 1, seed=s)
              for m in residue_class_table(field) for s in range(2)]
    rng = random.Random(f"{label}:{bits}")
    while len(primes) < 12:
        p = rng.randrange(1 << (bits - 1), 1 << bits) | 1
        if is_prime(p):
            primes.append(p)
    for p in primes:
        assert split_by_factorization(field, p) == split_by_residue(field, p), p


def test_stickelberger_parity_values():
    # discriminant 21125: inert primes must have odd prime count
    p = (1 << 128) + 51
    assert kronecker(21125, p) == -1
    assert stickelberger_parity(QUARTIC, p) == 1
    assert stickelberger_parity(QUARTIC, 131) == 0  # splits into 4
    assert stickelberger_parity(CYCLO5, 7) == 1  # inert in the quartic field


def test_stickelberger_parity_errors():
    with pytest.raises(RamifiedPrimeError):
        stickelberger_parity(QUARTIC, 5)  # divides the discriminant
    with pytest.raises(DomainError):
        stickelberger_parity(QUARTIC, 21)


def test_stickelberger_matches_residue_split():
    for field in (QUARTIC, CYCLO5):
        for p in range(3, 3000):
            if not is_prime(p) or field.conductor % p == 0:
                continue
            if kronecker(field.discriminant, p) == 0:
                continue
            want = split_by_residue(field, p).num_primes % 2
            assert stickelberger_parity(field, p) == want, (field.label, p)


def test_splitting_type_value_semantics():
    assert SplittingType(2, 2) == SplittingType(2, 2)
    assert SplittingType(2, 2) != SplittingType(1, 4)
    assert not SplittingType(2, 2).ramified


def test_find_prime_by_num_primes():
    # bit_size n means the window [2^n, 2^(n+1))
    p = find_prime(QUARTIC, 1, 40)
    assert is_prime(p)
    assert 1 << 40 <= p < 1 << 41
    assert split_by_residue(QUARTIC, p).num_primes == 1
    # determinism per seed
    assert find_prime(QUARTIC, 1, 40) == p
    assert find_prime(QUARTIC, 1, 40, seed=3) != p  # overwhelmingly likely


def test_find_prime_by_splitting_type():
    # a target is a number of primes or a Kronecker pair, not a SplittingType
    with pytest.raises(DomainError, match="unsupported target"):
        find_prime(QUARTIC, SplittingType(2, 2), 32)
    p = find_prime(QUARTIC, 2, 32)
    assert split_by_residue(QUARTIC, p) == SplittingType(2, 2)


def test_find_prime_by_kronecker():
    p = find_prime(QUARTIC, ("kronecker", -1), 48)
    assert is_prime(p)
    assert kronecker(QUARTIC.discriminant, p) == -1
    q = find_prime(QUARTIC, ("kronecker", 1), 48)
    assert kronecker(QUARTIC.discriminant, q) == 1


def test_find_prime_empty_class_times_out_immediately():
    # the quartic field has no primes with 3 factors
    with pytest.raises(PrimeSearchTimeout):
        find_prime(QUARTIC, 3, 32)


def test_find_prime_empty_window_times_out_immediately(monkeypatch):
    # no class mod 28 with 6 primes meets [4, 8): fail before any sampling
    field = catalog_load().field("sextic-5-2")
    assert field.conductor == 28

    def no_sampling(*args):
        raise AssertionError("find_prime sampled an empty window")

    monkeypatch.setattr(splitting, "is_prime", no_sampling)
    monkeypatch.setattr(splitting, "random", SimpleNamespace(Random=no_sampling))
    with pytest.raises(PrimeSearchTimeout):
        find_prime(field, 6, 2)


@pytest.mark.parametrize("field_label, target", [
    ("cyclotomic-5", 2),  # cyclo-5 superspecial: the 3-bit candidates are 9 and 14
    ("quartic-5-65-845", ("kronecker", -1)),  # wamelen-c1 ssing-non-sspec: 9..15
])
def test_find_prime_window_without_primes_times_out_quickly(
        monkeypatch, field_label, target):
    # the window holds candidates but no prime: stop once each one is drawn.
    # Kronecker calls count too: no 9..15 has (21125/p) = -1, so a search
    # over that window never reaches is_prime
    field = catalog_load().field(field_label)
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(args)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(splitting, "is_prime", counted(is_prime))
    monkeypatch.setattr(splitting, "kronecker", counted(kronecker))
    with pytest.raises(PrimeSearchTimeout, match=r"in \[2\^3, 2\^4\)"):
        find_prime(field, target, 3)
    assert len(calls) < 100


def test_find_prime_rejects_bad_arguments():
    with pytest.raises(DomainError):
        find_prime(QUARTIC, 1, 1)
    with pytest.raises(DomainError):
        find_prime(QUARTIC, ("kronecker", 2), 32)
    # a bool is an int to isinstance; True must not search as the count 1
    with pytest.raises(DomainError, match="unsupported target"):
        find_prime(QUARTIC, True, 20)
    with pytest.raises(DomainError, match="must be -1 or 1"):
        find_prime(QUARTIC, ("kronecker", True), 20)
    with pytest.raises(MissingDataError):
        find_prime(SEXTIC, 1, 32)  # residue targets need conductor data


def test_find_prime_exhausts_attempts(monkeypatch):
    # attempts too few to ever hit a prime of this size reliably
    monkeypatch.setattr(splitting, "FIND_PRIME_ATTEMPT_CAP", 1)
    with pytest.raises(PrimeSearchTimeout, match="in 1 attempts"):
        find_prime(QUARTIC, 1, 128)

"""Reduction-type predictions from splitting data, and the combinatorial
checks (type norm orbits, endomorphism degree bounds) that drive the proofs."""

import pytest

from cmreduce import (
    CMType,
    DomainError,
    RamifiedPrimeError,
    SplittingType,
    enumerate_classes,
    m_small_compose,
    predict_for_genus,
    predict_g1,
    predict_g2,
    predict_g3,
    predict_general,
    rm_endo_degree,
    type_norm_orbit,
)


def test_predict_g1():
    p = predict_g1(SplittingType(2, 1))
    assert (p.profile.p_rank, p.profile.a_number) == (1, 0)
    assert p.certainty == "exact"
    p = predict_g1(SplittingType(1, 2))
    assert (p.profile.p_rank, p.profile.a_number) == (0, 1)
    assert p.profile.type_name == "supersingular"
    # ramified primes of the quadratic field also give supersingular reduction
    p = predict_g1(SplittingType(1, 1, ramified=True))
    assert p.profile.type_name == "supersingular"


def test_predict_g2():
    cases = {
        4: (2, 0, "ordinary"),
        2: (0, 2, "superspecial"),
        1: (0, 1, "supersingular non-superspecial"),
    }
    for ell, (f, a, name) in cases.items():
        pred = predict_g2(SplittingType(ell, 4 // ell))
        assert pred.certainty == "exact"
        assert (pred.profile.p_rank, pred.profile.a_number) == (f, a)
        assert pred.profile.type_name == name
    with pytest.raises(RamifiedPrimeError):
        predict_g2(SplittingType(2, 2, ramified=True))


def test_predict_g3():
    pred = predict_g3(SplittingType(6, 1))
    assert pred.certainty == "exact"
    assert (pred.profile.p_rank, pred.profile.a_number) == (3, 0)
    pred = predict_g3(SplittingType(3, 2))
    assert pred.certainty == "exact"
    assert (pred.profile.p_rank, pred.profile.a_number) == (0, 3)
    # inertia 3 and 6 pin down (f, a) but not the finer structure
    pred = predict_g3(SplittingType(2, 3))
    assert pred.certainty == "partial"
    assert (pred.profile.p_rank, pred.profile.a_number) == (0, 2)
    assert pred.profile.slopes is None
    pred = predict_g3(SplittingType(1, 6))
    assert pred.certainty == "partial"
    assert (pred.profile.p_rank, pred.profile.a_number) == (0, 1)
    assert pred.profile.group_scheme == "I_{3,1}"


def test_predict_general():
    pred = predict_general(5, SplittingType(10, 1))
    assert pred.certainty == "exact"
    assert (pred.profile.p_rank, pred.profile.a_number) == (5, 0)
    assert pred.profile.group_scheme == "L^5"
    pred = predict_general(5, SplittingType(5, 2))
    assert (pred.profile.p_rank, pred.profile.a_number) == (0, 5)
    assert pred.profile.group_scheme == "I_{1,1}^5"
    assert pred.profile.slopes.count(0) == 0
    pred = predict_general(5, SplittingType(2, 5))
    assert pred.certainty == "undetermined"
    assert pred.profile is None


def test_predict_split_shape_must_fit():
    with pytest.raises(DomainError):
        predict_g2(SplittingType(3, 1))  # 3 * 1 != 4
    with pytest.raises(DomainError):
        predict_general(4, SplittingType(8, 2))


def test_predict_for_genus_dispatch():
    assert predict_for_genus(1, SplittingType(2, 1)).source == "Deuring reduction criterion"
    assert predict_for_genus(2, SplittingType(4, 1)).source == "Goren quartic reduction theorem"
    assert predict_for_genus(3, SplittingType(6, 1)).source == "sextic cyclic reduction theorem"
    assert predict_for_genus(4, SplittingType(8, 1)).source == "general-degree CM reduction theorem"


PHI3 = CMType.from_exponents(3, {0, 1, 2})


def test_type_norm_orbit_sextic_cases():
    # reflex exponents of {0,1,2} are {0,4,5}
    assert type_norm_orbit(PHI3, 6).exponents == (1, 0, 0, 0, 1, 1)
    orbit = type_norm_orbit(PHI3, 3)
    assert orbit.exponents == (1, 1, 1)
    assert orbit.is_constant
    assert type_norm_orbit(PHI3, 2).exponents == (2, 1)
    assert not type_norm_orbit(PHI3, 2).is_constant
    assert type_norm_orbit(PHI3, 1).exponents == (3,)


def test_type_norm_orbit_domain():
    with pytest.raises(DomainError):
        type_norm_orbit(PHI3, 4)  # 4 does not divide 6
    with pytest.raises(DomainError):
        type_norm_orbit(PHI3, 0)


def test_type_norm_orbit_constant_at_g_primes():
    # with g primes (inertia 2) the norm is always a power of (p)
    for g in (2, 3, 4, 5):
        for cls in enumerate_classes(g):
            if not cls.primitive:
                continue
            assert type_norm_orbit(cls.representative, g).is_constant


def test_type_norm_orbit_split_case_support():
    # with 2g primes the reflex exponents are distinct residues: g ones, g zeros
    for g in (2, 3, 4):
        for cls in enumerate_classes(g):
            if not cls.primitive:
                continue
            counts = type_norm_orbit(cls.representative, 2 * g).exponents
            assert sorted(counts) == [0] * g + [1] * g


def test_rm_endo_degree():
    assert rm_endo_degree(5) == 1
    assert rm_endo_degree(13) == 9
    assert rm_endo_degree(8) == 64
    assert rm_endo_degree(12) == 144
    assert rm_endo_degree(21) == 25


def test_rm_endo_degree_rejects_non_fundamental():
    for bad in (0, 1, 2, 3, 9, 16, 20, 25, 45):
        with pytest.raises(DomainError):
            rm_endo_degree(bad)


def test_m_small_compose():
    assert m_small_compose(3) == 9
    assert m_small_compose(3, 2) == 12
    assert m_small_compose(1, 1) == 1
    with pytest.raises(DomainError):
        m_small_compose(0)
    with pytest.raises(DomainError):
        m_small_compose(2, 0)

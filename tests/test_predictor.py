"""Reduction-type predictions from splitting data, and the type-norm
combinatorics that drives the proofs."""

from fractions import Fraction

import pytest

from cmreduce import (
    CMReduceError,
    CMType,
    DomainError,
    Prediction,
    RamifiedPrimeError,
    SplittingType,
    classify_group_scheme,
    enumerate_classes,
    predict_for_genus,
    type_norm_orbit,
)


def test_predict_g1():
    p = predict_for_genus(1, SplittingType(2, 1))
    assert (p.profile.p_rank, p.profile.a_number) == (1, 0)
    assert p.certainty == "exact"
    p = predict_for_genus(1, SplittingType(1, 2))
    assert (p.profile.p_rank, p.profile.a_number) == (0, 1)
    assert p.profile.type_name == "supersingular"
    # ramified primes of the quadratic field also give supersingular reduction
    p = predict_for_genus(1, SplittingType(1, 1, ramified=True))
    assert p.profile.type_name == "supersingular"


def test_predict_g2():
    cases = {
        4: (2, 0, "ordinary"),
        2: (0, 2, "superspecial"),
        1: (0, 1, "supersingular non-superspecial"),
    }
    for ell, (f, a, name) in cases.items():
        pred = predict_for_genus(2, SplittingType(ell, 4 // ell))
        assert pred.certainty == "exact"
        assert (pred.profile.p_rank, pred.profile.a_number) == (f, a)
        assert pred.profile.type_name == name
    with pytest.raises(RamifiedPrimeError):
        predict_for_genus(2, SplittingType(2, 2, ramified=True))


def test_predict_g3():
    pred = predict_for_genus(3, SplittingType(6, 1))
    assert pred.certainty == "exact"
    assert (pred.profile.p_rank, pred.profile.a_number) == (3, 0)
    pred = predict_for_genus(3, SplittingType(3, 2))
    assert pred.certainty == "exact"
    assert (pred.profile.p_rank, pred.profile.a_number) == (0, 3)
    # inertia 3 and 6 pin down (f, a) but not the finer structure
    pred = predict_for_genus(3, SplittingType(2, 3))
    assert pred.certainty == "partial"
    assert (pred.profile.p_rank, pred.profile.a_number) == (0, 2)
    assert pred.profile.slopes is None
    pred = predict_for_genus(3, SplittingType(1, 6))
    assert pred.certainty == "partial"
    assert (pred.profile.p_rank, pred.profile.a_number) == (0, 1)
    assert pred.profile.group_scheme == "I_{3,1}"


def test_predict_general():
    pred = predict_for_genus(5, SplittingType(10, 1))
    assert pred.certainty == "exact"
    assert (pred.profile.p_rank, pred.profile.a_number) == (5, 0)
    assert pred.profile.group_scheme == "L^5"
    pred = predict_for_genus(5, SplittingType(5, 2))
    assert (pred.profile.p_rank, pred.profile.a_number) == (0, 5)
    assert pred.profile.group_scheme == "I_{1,1}^5"
    assert pred.profile.slopes.count(0) == 0
    pred = predict_for_genus(5, SplittingType(2, 5))
    assert pred.certainty == "undetermined"
    assert pred.profile is None
    with pytest.raises(DomainError):
        predict_for_genus(0, SplittingType(1, 1))


def test_predict_split_shape_must_fit():
    with pytest.raises(DomainError):
        predict_for_genus(2, SplittingType(3, 1))  # 3 * 1 != 4
    with pytest.raises(DomainError):
        predict_for_genus(4, SplittingType(8, 2))


@pytest.mark.parametrize("certainty, message", [
    ("sure", "Prediction: bad certainty 'sure'"),
    ("exact", "Prediction: profile exactly when determined"),
    ("partial", "Prediction: profile exactly when determined"),
])
def test_prediction_without_profile_must_be_undetermined(certainty, message):
    with pytest.raises(DomainError) as e:
        Prediction(None, certainty, "a theorem")
    assert str(e.value) == message


def test_predict_for_genus_dispatch():
    assert predict_for_genus(1, SplittingType(2, 1)).source == "Deuring reduction criterion"
    assert predict_for_genus(2, SplittingType(4, 1)).source == "Goren quartic reduction theorem"
    assert predict_for_genus(3, SplittingType(6, 1)).source == "sextic cyclic reduction theorem"
    assert predict_for_genus(4, SplittingType(8, 1)).source == "general-degree CM reduction theorem"


def test_prediction_matches_compares_the_pinned_pair():
    exact = predict_for_genus(3, SplittingType(6, 1))
    assert exact.matches(classify_group_scheme(3, 3, 0)) is True
    assert exact.matches(classify_group_scheme(3, 2, 1)) is False
    partial = predict_for_genus(3, SplittingType(2, 3))  # pins (0, 2), no slopes
    thirds = (Fraction(1, 3),) * 3 + (Fraction(2, 3),) * 3
    assert partial.matches(classify_group_scheme(3, 0, 2, thirds)) is True
    assert partial.matches(classify_group_scheme(3, 0, 1)) is False
    undetermined = predict_for_genus(4, SplittingType(1, 8))
    assert undetermined.matches(classify_group_scheme(4, 0, 1)) is None


PHI3 = CMType.from_exponents(3, {0, 1, 2})


def test_type_norm_orbit_sextic_cases():
    # reflex exponents of {0,1,2} are {0,4,5}
    assert type_norm_orbit(PHI3, 6) == (1, 0, 0, 0, 1, 1)
    orbit = type_norm_orbit(PHI3, 3)
    assert orbit == (1, 1, 1)
    assert len(set(orbit)) == 1
    assert type_norm_orbit(PHI3, 2) == (2, 1)
    assert len(set(type_norm_orbit(PHI3, 2))) != 1
    assert type_norm_orbit(PHI3, 1) == (3,)


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
            assert len(set(type_norm_orbit(cls.representative, g))) == 1


def test_type_norm_orbit_split_case_support():
    # with 2g primes the reflex exponents are distinct residues: g ones, g zeros
    for g in (2, 3, 4):
        for cls in enumerate_classes(g):
            if not cls.primitive:
                continue
            counts = type_norm_orbit(cls.representative, 2 * g)
            assert sorted(counts) == [0] * g + [1] * g


# Every prediction for g = 1..6, every m | 2g with inertia 2g/m, plus two
# shapes that do not fit degree 2g, ramified and not. Values are (certainty,
# source, p-rank, a-number, slopes as runs "value*count", group scheme, type
# name), or the exception the predictor raises.
DEURING = "Deuring reduction criterion"
GOREN = "Goren quartic reduction theorem"
SEXTIC = "sextic cyclic reduction theorem"
GENERAL = "general-degree CM reduction theorem"

FROZEN_TABLE = {
    (1, 1, 2, False): ("exact", DEURING, 0, 1, "1/2*2", "I_{1,1}", "supersingular"),
    (1, 1, 2, True): ("exact", DEURING, 0, 1, "1/2*2", "I_{1,1}", "supersingular"),
    (1, 2, 1, False): ("exact", DEURING, 1, 0, "0*1 1*1", "L", "ordinary"),
    (1, 2, 1, True): ("exact", DEURING, 0, 1, "1/2*2", "I_{1,1}", "supersingular"),
    (1, 1, 1, False): "DomainError",
    (1, 1, 1, True): ("exact", DEURING, 0, 1, "1/2*2", "I_{1,1}", "supersingular"),
    (1, 2, 2, False): "DomainError",
    (1, 2, 2, True): ("exact", DEURING, 0, 1, "1/2*2", "I_{1,1}", "supersingular"),
    (2, 1, 4, False): ("exact", GOREN, 0, 1, "1/2*4",
        "I_{2,1}", "supersingular non-superspecial"),
    (2, 1, 4, True): "RamifiedPrimeError",
    (2, 2, 2, False): ("exact", GOREN, 0, 2, "1/2*4", "I_{1,1}^2", "superspecial"),
    (2, 2, 2, True): "RamifiedPrimeError",
    (2, 4, 1, False): ("exact", GOREN, 2, 0, "0*2 1*2", "L^2", "ordinary"),
    (2, 4, 1, True): "RamifiedPrimeError",
    (2, 1, 1, False): "DomainError",
    (2, 1, 1, True): "RamifiedPrimeError",
    (2, 4, 2, False): "DomainError",
    (2, 4, 2, True): "RamifiedPrimeError",
    (3, 1, 6, False): ("partial", SEXTIC, 0, 1, None, "I_{3,1}", "mixed or supersingular"),
    (3, 1, 6, True): "RamifiedPrimeError",
    (3, 2, 3, False): ("partial", SEXTIC, 0, 2, None,
        "I_{3,2} or I_{1,1} + I_{2,1}", "mixed or supersingular"),
    (3, 2, 3, True): "RamifiedPrimeError",
    (3, 3, 2, False): ("exact", SEXTIC, 0, 3, "1/2*6", "I_{1,1}^3", "superspecial"),
    (3, 3, 2, True): "RamifiedPrimeError",
    (3, 6, 1, False): ("exact", SEXTIC, 3, 0, "0*3 1*3", "L^3", "ordinary"),
    (3, 6, 1, True): "RamifiedPrimeError",
    (3, 1, 1, False): "DomainError",
    (3, 1, 1, True): "RamifiedPrimeError",
    (3, 6, 2, False): "DomainError",
    (3, 6, 2, True): "RamifiedPrimeError",
    (4, 1, 8, False): ("undetermined", GENERAL),
    (4, 1, 8, True): "RamifiedPrimeError",
    (4, 2, 4, False): ("undetermined", GENERAL),
    (4, 2, 4, True): "RamifiedPrimeError",
    (4, 4, 2, False): ("exact", GENERAL, 0, 4, "1/2*8", "I_{1,1}^4", "superspecial"),
    (4, 4, 2, True): "RamifiedPrimeError",
    (4, 8, 1, False): ("exact", GENERAL, 4, 0, "0*4 1*4", "L^4", "ordinary"),
    (4, 8, 1, True): "RamifiedPrimeError",
    (4, 1, 1, False): "DomainError",
    (4, 1, 1, True): "RamifiedPrimeError",
    (4, 8, 2, False): "DomainError",
    (4, 8, 2, True): "RamifiedPrimeError",
    (5, 1, 10, False): ("undetermined", GENERAL),
    (5, 1, 10, True): "RamifiedPrimeError",
    (5, 2, 5, False): ("undetermined", GENERAL),
    (5, 2, 5, True): "RamifiedPrimeError",
    (5, 5, 2, False): ("exact", GENERAL, 0, 5, "1/2*10", "I_{1,1}^5", "superspecial"),
    (5, 5, 2, True): "RamifiedPrimeError",
    (5, 10, 1, False): ("exact", GENERAL, 5, 0, "0*5 1*5", "L^5", "ordinary"),
    (5, 10, 1, True): "RamifiedPrimeError",
    (5, 1, 1, False): "DomainError",
    (5, 1, 1, True): "RamifiedPrimeError",
    (5, 10, 2, False): "DomainError",
    (5, 10, 2, True): "RamifiedPrimeError",
    (6, 1, 12, False): ("undetermined", GENERAL),
    (6, 1, 12, True): "RamifiedPrimeError",
    (6, 2, 6, False): ("undetermined", GENERAL),
    (6, 2, 6, True): "RamifiedPrimeError",
    (6, 3, 4, False): ("undetermined", GENERAL),
    (6, 3, 4, True): "RamifiedPrimeError",
    (6, 4, 3, False): ("undetermined", GENERAL),
    (6, 4, 3, True): "RamifiedPrimeError",
    (6, 6, 2, False): ("exact", GENERAL, 0, 6, "1/2*12", "I_{1,1}^6", "superspecial"),
    (6, 6, 2, True): "RamifiedPrimeError",
    (6, 12, 1, False): ("exact", GENERAL, 6, 0, "0*6 1*6", "L^6", "ordinary"),
    (6, 12, 1, True): "RamifiedPrimeError",
    (6, 1, 1, False): "DomainError",
    (6, 1, 1, True): "RamifiedPrimeError",
    (6, 12, 2, False): "DomainError",
    (6, 12, 2, True): "RamifiedPrimeError",
}


def _slope_runs(slopes):
    runs = []
    for s in slopes:
        if runs and runs[-1][0] == s:
            runs[-1][1] += 1
        else:
            runs.append([s, 1])
    return " ".join(f"{s}*{n}" for s, n in runs)


def _table_row(g, split):
    try:
        pred = predict_for_genus(g, split)
    except CMReduceError as e:
        return type(e).__name__
    prof = pred.profile
    if prof is None:
        return (pred.certainty, pred.source)
    slopes = None if prof.slopes is None else _slope_runs(prof.slopes)
    return (pred.certainty, pred.source, prof.p_rank, prof.a_number, slopes,
            prof.group_scheme, prof.type_name)


def test_predictor_table_frozen():
    got = {}
    for g in range(1, 7):
        n = 2 * g
        shapes = [(m, n // m) for m in range(1, n + 1) if n % m == 0] + [(1, 1), (n, 2)]
        for m, f in shapes:
            for ramified in (False, True):
                got[(g, m, f, ramified)] = _table_row(g, SplittingType(m, f, ramified))
    assert got == FROZEN_TABLE

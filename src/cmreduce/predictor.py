"""Reduction-type predictions from prime splitting, without touching a curve.

The g = 1 rule is Deuring's, g = 2 is Goren's, and the sextic and
general-degree rules cover cyclic fields with primitive CM type and principal
p. Alongside the predictors sit the symbolic tools their proofs run on:
type-norm ideal exponents and the small-endomorphism degree bounds.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, RamifiedPrimeError
from .ff_arith import factorize
from .invariants import ReductionProfile, classify_group_scheme

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class Prediction:
    profile: ReductionProfile | None
    certainty: str  # "exact", "partial", "undetermined"
    source: str

    def __post_init__(self):
        if self.certainty not in ("exact", "partial", "undetermined"):
            raise DomainError(f"Prediction: bad certainty {self.certainty!r}")
        if (self.profile is None) != (self.certainty == "undetermined"):
            raise DomainError("Prediction: profile exactly when determined")


def _ordinary_slopes(g):
    return (Fraction(0),) * g + (Fraction(1),) * g


def _half_slopes(g):
    return (_HALF,) * (2 * g)


def _check_split(split, g, who):
    if split.ramified:
        raise RamifiedPrimeError(f"{who}: prediction excludes ramified primes")
    if split.num_primes * split.inertia_degree != 2 * g:
        raise DomainError(
            f"{who}: splitting type {split} does not fit degree {2 * g}"
        )


def predict_g1(split):
    """Split p gives ordinary reduction; inert or ramified gives supersingular."""
    if split.ramified:
        profile = classify_group_scheme(1, 0, 1, _half_slopes(1))
        return Prediction(profile, "exact", "Deuring reduction criterion")
    _check_split(split, 1, "predict_g1")
    if split.num_primes == 2:
        profile = classify_group_scheme(1, 1, 0, _ordinary_slopes(1))
    else:
        profile = classify_group_scheme(1, 0, 1, _half_slopes(1))
    return Prediction(profile, "exact", "Deuring reduction criterion")


def predict_g2(split):
    """Cyclic quartic field: 4 primes ordinary, 2 superspecial, inert
    supersingular non-superspecial. All three cases are exact."""
    _check_split(split, 2, "predict_g2")
    ell = split.num_primes
    if ell == 4:
        profile = classify_group_scheme(2, 2, 0, _ordinary_slopes(2))
    elif ell == 2:
        profile = classify_group_scheme(2, 0, 2, _half_slopes(2))
    else:
        profile = classify_group_scheme(2, 0, 1, _half_slopes(2))
    return Prediction(profile, "exact", "Goren quartic reduction theorem")


def predict_g3(split):
    """Cyclic sextic field, primitive type, principal p.

    6 primes and 3 primes give exact verdicts; 2 primes and inert pin only
    the p-rank and a-number, so those predictions are partial.
    """
    _check_split(split, 3, "predict_g3")
    ell = split.num_primes
    src = "sextic cyclic reduction theorem"
    if ell == 6:
        return Prediction(classify_group_scheme(3, 3, 0, _ordinary_slopes(3)), "exact", src)
    if ell == 3:
        return Prediction(classify_group_scheme(3, 0, 3, _half_slopes(3)), "exact", src)
    if ell == 2:
        return Prediction(classify_group_scheme(3, 0, 2, None), "partial", src)
    return Prediction(classify_group_scheme(3, 0, 1, None), "partial", src)


def predict_general(g, split):
    """Any degree: 2g primes gives ordinary, g primes (inertia 2) gives
    superspecial, everything else is undetermined."""
    if g < 1:
        raise DomainError("predict_general: g must be >= 1")
    _check_split(split, g, "predict_general")
    src = "general-degree CM reduction theorem"
    ell = split.num_primes
    if ell == 2 * g:
        if g <= 3:
            profile = classify_group_scheme(g, g, 0, _ordinary_slopes(g))
        else:
            label = "L" if g == 1 else f"L^{g}"
            profile = ReductionProfile(g, 0, _ordinary_slopes(g), label, "ordinary")
        return Prediction(profile, "exact", src)
    if ell == g:
        if g <= 3:
            profile = classify_group_scheme(g, 0, g, _half_slopes(g))
        else:
            label = "I_{1,1}" if g == 1 else f"I_{{1,1}}^{g}"
            profile = ReductionProfile(0, g, _half_slopes(g), label, "superspecial")
        return Prediction(profile, "exact", src)
    return Prediction(None, "undetermined", src)


def predict_for_genus(g, split):
    """Sharpest available predictor for the genus."""
    if g == 1:
        return predict_g1(split)
    if g == 2:
        return predict_g2(split)
    if g == 3:
        return predict_g3(split)
    return predict_general(g, split)


@dataclass(frozen=True)
class TypeNormOrbit:
    exponents: tuple

    @property
    def is_constant(self):
        return len(set(self.exponents)) == 1

    def __str__(self):
        return "(" + ", ".join(map(str, self.exponents)) + ")"


def type_norm_orbit(phi, num_primes):
    """Ideal exponents of the reflex type norm of the first prime above p.

    With the primes indexed so the field automorphism shifts i to i+1 mod
    num_primes, entry j counts reflex exponents congruent to j mod num_primes.
    A constant vector means the norm is a power of (p), which forces the
    p-torsion to be local-local.
    """
    n = 2 * phi.g
    if num_primes < 1 or n % num_primes:
        raise DomainError(f"type_norm_orbit: {num_primes} does not divide {n}")
    refl = phi.reflex().exponents
    counts = [0] * num_primes
    for s in refl:
        counts[s % num_primes] += 1
    return TypeNormOrbit(tuple(counts))


def rm_endo_degree(d):
    """Degree bound for the extra real-multiplication endomorphism on the
    superspecial reduction: (d-1)^2/16 when d is 1 mod 4, else d^2."""
    if d <= 1:
        raise DomainError("rm_endo_degree: need a fundamental discriminant > 1")
    if d % 4 == 1:
        m = d
    elif d % 4 == 0 and (d // 4) % 4 in (2, 3):
        m = d // 4
    else:
        raise DomainError(f"rm_endo_degree: {d} is not a fundamental discriminant")
    if any(e > 1 for e in factorize(m).values()):
        raise DomainError(f"rm_endo_degree: {d} is not a fundamental discriminant")
    if d % 4 == 1:
        return (d - 1) ** 2 // 16
    return d * d


def m_small_compose(m_bound, isogeny_degree=None):
    """Smallness bound for a superspecial product (M^2) or for a variety
    isogenous to one by a degree-N isogeny (M N^2)."""
    if m_bound < 1:
        raise DomainError("m_small_compose: bound must be >= 1")
    if isogeny_degree is None:
        return m_bound * m_bound
    if isogeny_degree < 1:
        raise DomainError("m_small_compose: isogeny degree must be >= 1")
    return m_bound * isogeny_degree * isogeny_degree

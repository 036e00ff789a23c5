"""Reduction-type predictions from prime splitting, without touching a curve.

For a cyclic CM field with primitive CM type and principal p, the reduction
theorems (Deuring for g = 1, Goren for cyclic quartic fields, the sextic and
general-degree theorems) read only m, the number of primes above p: m = 2g
gives ordinary reduction and m = g superspecial. Strictly between them, at
g = 2 and 3, the p-rank is 0 and the a-number m, with every slope 1/2 at
g = 2 and the slopes open at g = 3; from g = 4 on nothing is pinned.
Deuring's criterion also covers ramified p at g = 1. Predicted profiles are
named by the classifier that names computed ones. Alongside sits the
type-norm combinatorics the proofs run on.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, RamifiedPrimeError
from .invariants import ReductionProfile, classify_group_scheme

_SOURCES = {1: "Deuring reduction criterion", 2: "Goren quartic reduction theorem",
            3: "sextic cyclic reduction theorem"}
_GENERAL_SOURCE = "general-degree CM reduction theorem"


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

    def matches(self, profile):
        """Whether a computed profile has the pinned (p-rank, a-number); None
        when the prediction is undetermined."""
        want = self.profile
        if want is None:
            return None
        return (profile.p_rank, profile.a_number) == (want.p_rank, want.a_number)


def predict_for_genus(g, split):
    """Prediction at a p that splits as `split` in a genus-g CM field. Ramified
    p above g = 1 raises RamifiedPrimeError, and m * f != 2g DomainError."""
    if g < 1:
        raise DomainError("predict_for_genus: g must be >= 1")
    source = _SOURCES.get(g, _GENERAL_SOURCE)
    half = (Fraction(1, 2),) * (2 * g)
    if split.ramified:
        if g == 1:
            return Prediction(classify_group_scheme(1, 0, 1, half), "exact", source)
        raise RamifiedPrimeError("predict_for_genus: prediction excludes ramified primes")
    m = split.num_primes
    if m * split.inertia_degree != 2 * g:
        raise DomainError(
            f"predict_for_genus: splitting type {split} does not fit degree {2 * g}"
        )
    if m == 2 * g:
        slopes = (Fraction(0),) * g + (Fraction(1),) * g
        return Prediction(classify_group_scheme(g, g, 0, slopes), "exact", source)
    if m == g:
        return Prediction(classify_group_scheme(g, 0, g, half), "exact", source)
    if g == 2:
        return Prediction(classify_group_scheme(2, 0, m, half), "exact", source)
    if g == 3:
        return Prediction(classify_group_scheme(3, 0, m, None), "partial", source)
    return Prediction(None, "undetermined", source)


def type_norm_orbit(phi, num_primes):
    """Ideal exponents of the reflex type norm of the first prime above p.

    With the primes indexed so the field automorphism shifts i to i+1 mod
    num_primes, entry j counts reflex exponents congruent to j mod num_primes.
    A constant tuple means the norm is a power of (p), which forces the
    p-torsion to be local-local.
    """
    n = 2 * phi.g
    if num_primes < 1 or n % num_primes:
        raise DomainError(f"type_norm_orbit: {num_primes} does not divide {n}")
    refl = phi.reflex().exponents
    counts = [0] * num_primes
    for s in refl:
        counts[s % num_primes] += 1
    return tuple(counts)

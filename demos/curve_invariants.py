"""Invariants of one genus 3 curve at four primes.

y^2 = x^7 + 7x^5 + 14x^3 + 7x has CM by a sextic cyclic field. Reducing
mod p gives, depending only on how p splits, an ordinary, a mixed, a
supersingular, or a superspecial abelian threefold. The four primes below
hit all four behaviours.
"""

from cmreduce import (
    a_number,
    catalog_load,
    l_polynomial,
    newton_slopes,
    p_rank,
    point_count,
    reduce_curve,
    reduction_profile,
    split_by_factorization,
)

catalog = catalog_load()
record = catalog.record("weng-g3")
print(f"{record.label}: y^2 = f(x), f coefficients {list(record.f_coeffs)}")
print(f"field {record.field.label}, CM type exponents {sorted(record.cm_type.exponents)}")
print()

for p in (13, 43, 17, 11):
    curve = reduce_curve(record, p)
    split = split_by_factorization(record.field, p)
    L = l_polynomial(curve)
    slopes = newton_slopes(L, p)
    profile = reduction_profile(curve)
    counts = [point_count(curve, k) for k in (1, 2)]
    print(f"p = {p}: {split.num_primes} prime(s) above p")
    print(f"  points over F_p, F_p^2: {counts}")
    print(f"  L-polynomial: {L}")
    print(f"  slopes: {[str(s) for s in slopes]}")
    print(f"  p-rank {p_rank(curve)}, a-number {a_number(curve)}")
    print(f"  group scheme {profile.group_scheme} ({profile.type_name})")
    print()

# Slopes need the full L-polynomial, hence g point counts up to p^g.
# Past the budget the profile falls back to the ranks alone, which the
# Cartier-Manin matrix delivers for any small-coefficient prime.
big = 65011
curve = reduce_curve(record, big)
profile = reduction_profile(curve)
print(f"p = {big}: slopes computed: {profile.slopes is not None},"
      f" (f, a) = ({profile.p_rank}, {profile.a_number})")

"""Constructing supersingular and superspecial curves to order.

Pick a catalog curve, name a reduction type, and the generator searches for
a prime whose splitting forces that type. Small primes get their invariants
recomputed as an independent check; cryptographic sizes rely on the
prediction, which is exactly what the theorems license.
"""

from cmreduce import catalog_load, generate, split_by_residue, sweep

catalog = catalog_load()

# superspecial genus 2 from the cyclotomic quintic, small enough to verify
res = generate(catalog.record("cyclo-5"), "superspecial", 16)
v = res.verified_profile
print(f"cyclo-5, superspecial: p = {res.p} = {res.p % 5} mod 5")
print(f"  predicted ({res.prediction.profile.p_rank},"
      f" {res.prediction.profile.a_number})"
      f" [{res.prediction.certainty}: {res.prediction.source}]")
print(f"  verified  ({v.p_rank}, {v.a_number}) {v.group_scheme}")

# superspecial genus 3
res = generate(catalog.record("weng-g3"), "superspecial", 14)
v = res.verified_profile
print(f"weng-g3, superspecial: p = {res.p},"
      f" verified ({v.p_rank}, {v.a_number}) {v.group_scheme}")

# supersingular but not superspecial genus 2 at a 128-bit prime: the
# invariants are far out of reach, the splitting condition is not
res = generate(catalog.record("wamelen-c1"), "ssing-non-sspec", 128)
print()
print(f"wamelen-c1, supersingular non-superspecial, 128 bits:")
print(f"  p = {res.p}")
print(f"  prediction: {res.prediction.profile.type_name}"
      f" [{res.prediction.certainty}]")
print(f"  verified: {res.verified_profile}")

split = split_by_residue(catalog.record("wamelen-c1").field, res.p)
print(f"  splitting re-check: {split.num_primes} prime, inertia degree {split.inertia_degree}")

# a sweep replays every good small prime and compares prediction against
# recomputation, the same machinery the acceptance gate runs
result = sweep(catalog.record("cyclo-5"), 100)
print()
print(f"cyclo-5 sweep to 100: {result.verified} verified,"
      f" {len(result.mismatches)} mismatches,"
      f" bad reduction at {list(result.bad_primes)}")
for r in result.reports[:6]:
    fa = f"({r.profile.p_rank},{r.profile.a_number})"
    print(f"  p = {r.p:>2}: computed {fa}, match {r.match}")

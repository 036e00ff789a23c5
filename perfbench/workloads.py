"""Seeded op lists for the three benchmark workloads, and the reference data
the correctness checks compare against.

Nothing here imports cmreduce: the op list a seed produces must not depend
on the program under test, so two commits are always measured on the same
inputs. Curve and field data are copied from the shipped catalog (and the
cyclotomic family rule) so the checks do not trust the program's copy.

A workload is a list of rounds. Every round has the same slots (command,
curve or field, and a narrow prime band); the seed picks the prime inside
each band, the generate targets and seeds, and the order of ops inside the
round. The runner only stops between rounds, so every run sees the same mix
of cheap and expensive ops whatever the seed, which keeps ops_per_s and the
latency percentiles comparable across seeds.
"""

import random

WORKLOADS = ("sweep-small-p", "verify-large-p", "predict-crypto")

# label: (genus, f coefficients little-endian, field label)
CURVES = {
    "weng-g3": (3, (0, 7, 0, 14, 0, 7, 0, 1), "sextic-5-2"),
    "cyclo-7": (3, (-1, 0, 0, 0, 0, 0, 0, 1), "cyclotomic-7"),
    "wamelen-c1": (2, (-552, -748, -8800, -4760, 6160, 1936, -1331), "quartic-5-65-845"),
    "wamelen-c2": (2, (-79888, 293172, 0, -348400, 0, -29744, -103259), "quartic-5-65-845"),
    "cyclo-5": (2, (-1, 0, 0, 0, 0, 1), "cyclotomic-5"),
}

# label: (degree 2g, conductor, generators of the subgroup H of units)
FIELDS = {
    "quartic-5-65-845": (4, 65, (19,)),
    "sextic-5-2": (6, 28, (13,)),
    "cyclotomic-5": (4, 5, ()),
    "cyclotomic-7": (6, 7, ()),
}

# number of primes above p that each generate target asks for, by genus
TARGET_PRIMES = {
    "ordinary": lambda g: 2 * g,
    "superspecial": lambda g: g,
    "ssing-non-sspec": lambda g: 1,
}
GENUS2_TARGETS = ("ordinary", "superspecial", "ssing-non-sspec")
GENUS3_TARGETS = ("ordinary", "superspecial")

VERIFY_CAP = 1 << 20  # the program verifies generated primes below this


def targets_for(curve):
    return GENUS2_TARGETS if CURVES[curve][0] == 2 else GENUS3_TARGETS


# ---------------------------------------------------------------------------
# number theory used to draw inputs and to check outputs

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


def is_probable_prime(n):
    """Miller-Rabin to the first 20 prime bases; deterministic below 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_between(lo, hi):
    """Primes p with lo <= p <= hi."""
    return [p for p in range(max(lo, 2), hi + 1) if is_probable_prime(p)]


def random_prime(rng, bits):
    """Uniform odd draws in [2^(bits-1), 2^bits) until one is prime."""
    while True:
        n = rng.randrange(1 << (bits - 1), 1 << bits) | 1
        if is_probable_prime(n):
            return n


def residue_split(field, p):
    """(number of primes, inertia degree) of an unramified p, from the order
    of p modulo the conductor in the unit group modulo H."""
    two_g, conductor, gens = FIELDS[field]
    h = {1}
    frontier = [1]
    while frontier:
        a = frontier.pop()
        for g in gens:
            b = a * g % conductor
            if b not in h:
                h.add(b)
                frontier.append(b)
    x, e = p % conductor, 1
    while x not in h:
        x = x * p % conductor
        e += 1
    return two_g // e, e


def _trim(f):
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    return f


def _poly_rem(f, g, p):
    f = list(f)
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    for i in range(len(f) - 1 - dg, -1, -1):
        c = f[i + dg] * inv % p
        if c:
            for j, b in enumerate(g):
                f[i + j] = (f[i + j] - c * b) % p
    return _trim(f[:dg] or [0])


def is_bad_prime(curve, p):
    """Bad reduction: characteristic 2, the leading coefficient vanishes, or
    f acquires a repeated root mod p (gcd(f, f') is not constant)."""
    coeffs = CURVES[curve][1]
    if p == 2 or coeffs[-1] % p == 0:
        return True
    a = _trim([c % p for c in coeffs])
    b = _trim([i * c % p for i, c in enumerate(coeffs)][1:])
    while any(b):
        a, b = b, _poly_rem(a, b, p)
    return len(a) > 1


def reduce_mod(curve, p):
    return _trim([c % p for c in CURVES[curve][1]])


# ---------------------------------------------------------------------------
# op lists


def _op(kind, argv, **meta):
    return {"kind": kind, "argv": argv + ["--json"], **meta}


def _verify(kind, curve, p):
    return _op(kind, [kind, "--curve", curve, "--p", str(p)], curve=curve, p=p)


def _generate(curve, target, bits, seed):
    return _op(
        "generate",
        ["generate", "--curve", curve, "--type", target, "--bits", str(bits),
         "--seed", str(seed)],
        curve=curve, target=target, bits=bits,
    )


# Slots per curve and round: (command, lowest p, highest p). The bands are
# narrow so that an op's cost varies little with the prime the seed picks;
# g = 3 point counts grow as p^3 and genus 2 ones as p^2, which is why the
# bands are placed differently. Every prime is at or below the slope-budget
# edge (p <= 127 at g = 3, p <= 1447 at g = 2), so every verify and
# invariants op computes the L-polynomial.
_SMALL_P_SLOTS = {
    3: (("verify", 3, 29), ("invariants", 31, 59), ("verify", 61, 89),
        ("verify", 97, 113)),
    2: (("verify", 3, 397), ("invariants", 701, 761), ("verify", 1009, 1103),
        ("verify", 1301, 1447)),
}

# Above the slope edge only Cartier-Manin runs, at a cost growing about as
# p^1.8. Three verify ops per curve share one band, so that the median and
# the tail percentile each fall inside a group of like ops; generate runs
# one octave lower and stays below them.
_LARGE_P_BAND = (12289, 13313)
_LARGE_P_VERIFY_PER_CURVE = 3
_LARGE_P_GENERATE_BITS = 12


def _draw_primes(rng, curves, lo, hi, per_round, max_rounds):
    """Primes in [lo, hi] for each curve: {curve: [round][slot] -> p}.

    A curve never gets the same prime twice in a run. Repeating a (curve, p)
    pair would let the in-process lru_cache on the Cartier-Manin rows serve
    one op from another op's work, which separate CLI invocations never get.
    Curves are taken in pairs; the second of a pair takes, in the sorted
    band, the mirror image of the first's prime, so the pair's cost barely
    depends on the draw. The number of rounds is capped by the band size."""
    band = primes_between(lo, hi)
    n = min(max_rounds, len(band) // per_round)
    out = {}
    for j, curve in enumerate(curves):
        if j % 2 == 0:
            idx = rng.sample(range(len(band)), n * per_round)
        else:
            idx = [len(band) - 1 - i for i in idx]
        out[curve] = [
            [band[i] for i in idx[r * per_round:(r + 1) * per_round]] for r in range(n)
        ]
    return n, out


def _sweep_small_p(rng, max_rounds):
    rounds = [[] for _ in range(max_rounds)]
    n = max_rounds
    for genus, slots in _SMALL_P_SLOTS.items():
        curves = [c for c, (g, _, _) in CURVES.items() if g == genus]
        for kind, lo, hi in slots:
            got, drawn = _draw_primes(rng, curves, lo, hi, 1, max_rounds)
            n = min(n, got)
            for curve in curves:
                for r, (p,) in enumerate(drawn[curve]):
                    rounds[r].append(_verify(kind, curve, p))
    for ops in rounds[:n]:
        rng.shuffle(ops)
    return rounds[:n]


def _verify_large_p(rng, max_rounds):
    n, drawn = _draw_primes(rng, list(CURVES), *_LARGE_P_BAND,
                            _LARGE_P_VERIFY_PER_CURVE, max_rounds)
    rounds = []
    for r in range(n):
        ops = [_verify("verify", curve, p) for curve in CURVES for p in drawn[curve][r]]
        # generate picks its own prime, which may coincide with a drawn one;
        # the runner clears the package's caches between ops for that case
        ops += [
            _generate(curve, rng.choice(targets_for(curve)), _LARGE_P_GENERATE_BITS,
                      rng.randrange(1 << 30))
            for curve in CURVES
        ]
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


_SPLIT_BITS = (64, 128, 256)
_SPLIT_METHODS = ("residue", "factor", "stickelberger")
_COUNT_TYPES_G = (10, 14)


def _predict_crypto(rng, max_rounds):
    rounds = []
    for _ in range(max_rounds):
        ops = [
            _generate(curve, target, bits, rng.randrange(1 << 30))
            for curve in CURVES
            for target in targets_for(curve)
            for bits in (128, 256)
        ]
        for field in FIELDS:
            for bits in _SPLIT_BITS:
                p = random_prime(rng, bits)
                ops += [
                    _op("split", ["split", "--field", field, "--p", str(p),
                                  "--method", m], field=field, p=p, method=m)
                    for m in _SPLIT_METHODS
                ]
        for g in _COUNT_TYPES_G:
            ops.append(_op("count-types", ["count-types", "--g", str(g), "--enumerate"], g=g))
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


_BUILDERS = {
    "sweep-small-p": _sweep_small_p,
    "verify-large-p": _verify_large_p,
    "predict-crypto": _predict_crypto,
}

MAX_ROUNDS = 40


def build_rounds(workload, seed, max_rounds=MAX_ROUNDS):
    """The op list of a workload: a list of rounds, each a list of ops."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    return _BUILDERS[workload](rng, max_rounds)

"""Acceptance gate. Eight checks, each printing one PASS/FAIL line.

Run `pytest tests/test_acceptance.py -s` to see the lines as they happen;
without -s they still appear in captured output on failure. Each check
enforces its own runtime budget where one is part of the contract.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

from cmreduce import (
    BadReductionError,
    NotSquarefreeError,
    catalog_load,
    count_E,
    count_E_primitive,
    enumerate_classes,
    generate,
    generator,
    l_polynomial,
    newton_slopes,
    p_rank,
    reduce_curve,
    reduction_profile,
    residue_class_table,
    split_by_factorization,
    split_by_residue,
    stickelberger_parity,
    sweep,
    verify,
)
from cmreduce.cm_types import CMType
from cmreduce.ff_arith import is_prime, kronecker
from cmreduce.invariants import SLOPE_BUDGET
from cmreduce.predictor import type_norm_orbit


@contextmanager
def criterion(n, label, budget=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {n}: {label}")
        raise
    dt = time.perf_counter() - t0
    if budget is not None and dt >= budget:
        print(f"[FAIL] criterion {n}: {label} ({dt:.2f}s, budget {budget:g}s)")
        raise AssertionError(f"criterion {n} exceeded its {budget:g}s budget: {dt:.2f}s")
    extra = f", budget {budget:g}s" if budget is not None else ""
    print(f"[PASS] criterion {n}: {label} ({dt:.2f}s{extra})")


def primes_below(n):
    return [p for p in range(2, n) if is_prime(p)]


def test_acceptance_1_type_census():
    total = [1, 1, 2, 2, 4, 6, 10, 16, 30, 52, 94, 172, 316, 586]
    primitive = [1, 1, 1, 2, 3, 5, 9, 16, 28, 51, 93, 170, 315, 585]
    with criterion(1, "CM type census, closed forms and enumeration", budget=10):
        assert [count_E(g) for g in range(1, 15)] == total
        assert [count_E_primitive(g) for g in range(1, 15)] == primitive
        for g in range(1, 13):
            classes = enumerate_classes(g)
            assert len(classes) == total[g - 1]
            assert sum(1 for c in classes if c.primitive) == primitive[g - 1]


def test_acceptance_2_quartic_residue_table():
    with criterion(2, "three-class residue partition mod 65", budget=1):
        table = residue_class_table(catalog_load().field("quartic-5-65-845"))
        assert set(table) == {1, 2, 4}
        want = {
            4: [-31, -29, -21, -14, -11, -9, -6, -4, 1, 16, 19, 24],
            2: [-24, -19, -16, -1, 4, 6, 9, 11, 14, 21, 29, 31],
            1: [2, 3, 7, 8, 12, 17, 18, 22, 23, 27, 28, 32,
                -2, -3, -7, -8, -12, -17, -18, -22, -23, -27, -28, -32],
        }
        for ell, vals in want.items():
            assert set(table[ell]) == {v % 65 for v in vals}, ell


def test_acceptance_3_worked_reductions():
    want = {
        11: ((0, 1), [1, 0, 0, 0, 0, 0, 1331], [Fraction(1, 2)] * 6),
        13: ((3, 0), [1, 4, 7, 40, 91, 676, 2197], [0, 0, 0, 1, 1, 1]),
        17: ((0, 2), [1, 0, 0, -136, 0, 0, 4913],
             [Fraction(1, 3)] * 3 + [Fraction(2, 3)] * 3),
        43: ((0, 3), [1, 0, 129, 0, 5547, 0, 79507], [Fraction(1, 2)] * 6),
    }
    with criterion(3, "four worked sextic reductions, exact", budget=30):
        record = catalog_load().record("weng-g3")
        for p, (fa, L, slopes) in want.items():
            report = verify(record, p)
            assert report.match is True, p
            assert (report.profile.p_rank, report.profile.a_number) == fa, p
            assert l_polynomial(reduce_curve(record, p)) == L, p
            assert list(report.profile.slopes) == [Fraction(s) for s in slopes], p


def test_acceptance_4_cyclotomic_quintic_law():
    def pattern(p):
        r = p % 5
        if r == 1:
            return (2, 0)  # ordinary
        if r == 4:
            return (0, 2)  # superspecial
        return (0, 1)

    with criterion(4, "quintic reduction law for all good p < 500", budget=60):
        record = catalog_load().record("cyclo-5")
        checked = 0
        for p in primes_below(500):
            if p in (2, 5):
                continue
            profile = reduction_profile(reduce_curve(record, p))
            assert (profile.p_rank, profile.a_number) == pattern(p), p
            checked += 1
        assert checked == 93  # every odd prime below 500 except 5


def test_acceptance_5_cross_oracle_splitting():
    with criterion(5, "residue vs factorization vs parity, p < 10^4", budget=60):
        cat = catalog_load()
        checks = 0
        for label in cat.fields:
            field = cat.field(label)
            for p in primes_below(10 ** 4):
                if field.conductor % p == 0:
                    continue
                try:
                    fact = split_by_factorization(field, p)
                except NotSquarefreeError:
                    continue  # index divisor, excluded by contract
                res = split_by_residue(field, p)
                assert fact == res, (label, p)
                if kronecker(field.discriminant, p) != 0:
                    assert stickelberger_parity(field, p) == res.num_primes % 2, (label, p)
                checks += 1
        assert checks > 3000  # non-vacuous across the three fields


def test_acceptance_6_end_to_end_sweeps():
    with criterion(6, "prediction sweeps to 300 on all three CM curves", budget=300):
        cat = catalog_load()
        for label in ("wamelen-c1", "wamelen-c2", "weng-g3"):
            result = sweep(cat.record(label), 300)
            assert result.mismatches == [], label
            assert result.verified == len(result.reports), label
            assert result.verified > 50, label  # the sweep actually ran


def test_acceptance_7_large_prime_generation():
    with criterion(7, "128-bit inert prime search, 100 seeds", budget=10):
        record = catalog_load().record("wamelen-c1")
        _, inert = generator._resolve_target(record, "ssing-non-sspec")

        def accepts(p):
            split = generator._split_auto(record.field, p)
            return is_prime(p) and generator._meets_target(record.field, inert, p, split)

        target = (1 << 128) + 51
        assert accepts(target)
        assert kronecker(21125, target) == -1
        assert split_by_residue(record.field, target).num_primes == 1
        seen = set()
        for seed in range(100):
            p = generate(record, "ssing-non-sspec", 128, seed=seed).p
            assert accepts(p), seed
            assert p >> 128, seed
            seen.add(p)
        assert len(seen) > 90  # seeds genuinely vary the search


def test_acceptance_8_property_suites():
    with criterion(8, "L-polynomial laws, slope zero count, norm orbits"):
        cat = catalog_load()
        pairs = 0
        for label in cat.curves:
            record = cat.record(label)
            g = record.genus
            for p in primes_below(120):
                if p == 2 or p ** g > SLOPE_BUDGET:
                    continue
                try:
                    curve = reduce_curve(record, p)
                except BadReductionError:
                    continue  # nothing to check at a bad prime
                L = l_polynomial(curve)
                assert L[0] == 1 and len(L) == 2 * g + 1
                for i in range(g + 1):
                    assert L[g + i] == p ** i * L[g - i], (label, p)
                for i, a in enumerate(L):
                    assert abs(a) <= math.comb(2 * g, i) * p ** (i / 2) + 1e-9
                slopes = newton_slopes(L, p)
                assert sorted(1 - s for s in slopes) == slopes
                assert sum(slopes) == g
                assert sum(1 for s in slopes if s == 0) == p_rank(curve), (label, p)
                pairs += 1
        assert pairs > 60

        phi = CMType.from_exponents(3, {0, 1, 2})
        assert type_norm_orbit(phi, 6) == (1, 0, 0, 0, 1, 1)
        assert type_norm_orbit(phi, 3) == (1, 1, 1)
        assert len(set(type_norm_orbit(phi, 3))) == 1
        assert type_norm_orbit(phi, 2) == (2, 1)

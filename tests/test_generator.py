"""Curve catalog, reduction at primes, generation targets, verification."""

import json
import random
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from importlib import resources

import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from cmreduce import (
    BadReductionError,
    CatalogError,
    CMCurveRecord,
    CMType,
    DomainError,
    InternalInconsistencyError,
    RamifiedPrimeError,
    ReducedCurve,
    ResourceLimitError,
    SplittingType,
    catalog_load,
    generate,
    generator,
    predict_for_genus,
    reduce_curve,
    reduction_profile,
    split_by_residue,
    sweep,
    verify,
)
from cmreduce.cli import main
from cmreduce.ff_arith import is_prime, kronecker, poly_trim
from cmreduce.splitting import CyclicCMField


SHIPPED = (resources.files("cmreduce") / "catalog.json").read_text()


def test_shipped_catalog_labels(catalog):
    assert list(catalog.curves) == ["wamelen-c1", "wamelen-c2", "weng-g3", "cyclo-5"]
    assert list(catalog.fields) == ["quartic-5-65-845", "sextic-5-2", "cyclotomic-5"]


def test_shipped_catalog_loads_every_key(catalog):
    # every key of every raw entry reaches the loaded field or curve
    raw = json.loads(SHIPPED)
    assert raw["version"] == 1
    assert list(catalog.fields) == [rf["label"] for rf in raw["fields"]]
    for rf in raw["fields"]:
        field = catalog.field(rf["label"])
        assert set(rf) == {"label", "two_g", "conductor", "H_generators",
                           "discriminant", "defining_polys"}
        assert (field.label, field.two_g, field.conductor, field.discriminant) == (
            rf["label"], rf["two_g"], rf["conductor"], rf["discriminant"])
        assert field.defining_polys == tuple(map(tuple, rf["defining_polys"]))
        # H_generators through the subgroup of units they generate
        n, h = rf["conductor"], {1}
        while (grown := h | {x * y % n for x in h for y in rf["H_generators"]}) != h:
            h = grown
        assert field.unit_subgroup == h
    assert list(catalog.curves) == [rc["label"] for rc in raw["curves"]]
    for rc in raw["curves"]:
        rec = catalog.record(rc["label"])
        assert set(rc) == {"label", "genus", "f_coeffs", "field_label", "provenance",
                           "cm_type"}
        assert (rec.label, rec.genus, rec.f_coeffs, rec.field.label, rec.provenance) == (
            rc["label"], rc["genus"], tuple(rc["f_coeffs"]), rc["field_label"],
            rc["provenance"])
        # cm_type through its exponents
        assert rec.cm_type.exponents == frozenset(rc["cm_type"])


def test_shipped_field_data(catalog):
    quartic = catalog.field("quartic-5-65-845")
    assert quartic.conductor == 65
    assert quartic.discriminant == 21125
    sextic = catalog.field("sextic-5-2")
    assert sextic.conductor == 28
    assert sextic.unit_subgroup == frozenset({1, 13})
    assert sextic.discriminant == -(2 ** 6) * 7 ** 4
    assert len(sextic.defining_polys) == 2


def test_shipped_curve_data(catalog):
    weng = catalog.record("weng-g3")
    assert weng.genus == 3
    assert weng.f_coeffs == (0, 7, 0, 14, 0, 7, 0, 1)
    assert weng.field.label == "sextic-5-2"
    assert weng.cm_type.exponents == frozenset({0, 1, 2})
    c1 = catalog.record("wamelen-c1")
    assert c1.genus == 2
    assert c1.cm_type.exponents == frozenset({0, 1})
    assert "van Wamelen" in c1.provenance


def test_cyclotomic_records_synthesized_on_demand(catalog):
    rec = catalog.record("cyclo-7")
    assert rec.genus == 3
    assert rec.f_coeffs == (-1, 0, 0, 0, 0, 0, 0, 1)
    assert rec.field.conductor == 7
    assert rec.field.discriminant == -(7 ** 5)
    assert rec.field.two_g == 6
    assert rec.cm_type.exponents == frozenset({0, 1, 2})
    # synthesis is cached: same object back
    assert catalog.record("cyclo-7") is rec
    assert catalog.field("cyclotomic-7") is rec.field


def test_cyclotomic_synthesis_rejects_bad_moduli(catalog):
    with pytest.raises(CatalogError):
        catalog.record("cyclo-4")  # even
    with pytest.raises(CatalogError):
        catalog.record("cyclo-9")  # prime power, not prime
    with pytest.raises(CatalogError, match=r"^unknown curve label 'no-such-curve'$"):
        catalog.record("no-such-curve")
    with pytest.raises(CatalogError, match=r"^unknown field label 'no-such-field'$"):
        catalog.field("no-such-field")


def test_family_labels_are_not_found_as_the_other_kind():
    # a synthesized member is cached per family, so a lookup of one kind
    # never hands the other kind's entry back under the same label
    catalog = catalog_load()
    catalog.field("cyclotomic-7")
    with pytest.raises(CatalogError, match=r"^unknown curve label 'cyclotomic-7'$"):
        catalog.record("cyclotomic-7")
    catalog.record("cyclo-7")
    with pytest.raises(CatalogError, match=r"^unknown field label 'cyclo-7'$"):
        catalog.field("cyclo-7")


def test_family_member_is_synthesized_once_per_ell():
    catalog = catalog_load()
    rec = catalog.record("cyclo-007")
    assert rec.label == "cyclo-7"
    assert catalog.record("cyclo-7") is rec
    assert catalog.field("cyclotomic-07") is rec.field


def test_family_labels_find_the_listed_member(catalog):
    # the shipped catalog lists cyclo-5 and cyclotomic-5: other spellings of
    # their labels find the same record, not a second one
    assert catalog.record("cyclo-05") is catalog.record("cyclo-5")
    assert catalog.field("cyclotomic-005") is catalog.field("cyclotomic-5")


@pytest.mark.parametrize("kind, label", [("fields", "cyclotomic-05"), ("curves", "cyclo-005")])
def test_listed_family_labels_take_no_leading_zero(tmp_path, kind, label):
    # every spelling looks up the canonical label, so such an entry would
    # never be found; the shipped cyclotomic-5 and cyclo-5 come last
    def mutate(data):
        data[kind][-1]["label"] = label

    with pytest.raises(CatalogError, match=rf"^{kind}\[\d\]: label '{label}' has a leading zero$"):
        load_variant(tmp_path, mutate)


@pytest.mark.parametrize("label", ["cyclo-\u0667", "cyclo-\uff17", "cyclo-\U0001d7d5"])
def test_family_labels_take_only_ascii_digits(label):
    # Arabic-Indic, fullwidth and mathematical bold sevens: \d matches each
    with pytest.raises(CatalogError, match=r"^unknown curve label "):
        catalog_load().record(label)


def load_variant(tmp_path, mutate):
    data = json.loads(SHIPPED)
    mutate(data)
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(data))
    return catalog_load(path)


def test_catalog_load_rejects_malformed(tmp_path, catalog):
    with pytest.raises(CatalogError):
        load_variant(tmp_path, lambda d: d.update(version=2))
    with pytest.raises(CatalogError):
        # a duplicate curve label
        load_variant(tmp_path, lambda d: d["curves"].append(dict(d["curves"][0])))
    with pytest.raises(CatalogError):
        load_variant(tmp_path, lambda d: d["curves"][0].pop("f_coeffs"))
    with pytest.raises(CatalogError):
        load_variant(tmp_path, lambda d: d["fields"][0].update(two_g=3))
    with pytest.raises(CatalogError):
        load_variant(tmp_path, lambda d: d["curves"][0].update(field_label="missing"))
    for bad_type in ("01", [0, "1"], [0, 2], [0, 1, 2], []):
        with pytest.raises(CatalogError, match=r"curves\[0\]"):
            load_variant(tmp_path, lambda d: d["curves"][0].update(cm_type=bad_type))
    # the unmutated file still loads
    assert list(load_variant(tmp_path, lambda d: None).curves) == list(catalog.curves)


@pytest.fixture
def builds(monkeypatch):
    """The labels of the fields and curves built, and the squarefree proofs run."""
    seen = {"fields": [], "curves": [], "proofs": 0}

    def counted(cls, key):
        def build(**kw):
            seen[key].append(kw["label"])
            return cls(**kw)
        return build

    def proof(coeffs, real=generator._rational_squarefree):
        seen["proofs"] += 1
        return real(coeffs)

    monkeypatch.setattr(generator, "CyclicCMField", counted(CyclicCMField, "fields"))
    monkeypatch.setattr(generator, "CMCurveRecord", counted(CMCurveRecord, "curves"))
    monkeypatch.setattr(generator, "_rational_squarefree", proof)
    return seen


def test_catalog_load_builds_nothing(builds):
    catalog_load()
    assert builds == {"fields": [], "curves": [], "proofs": 0}


@pytest.mark.parametrize("argv, fields, curves", [
    (["verify", "--curve", "weng-g3", "--p", "101"], ["sextic-5-2"], ["weng-g3"]),
    (["verify", "--curve", "cyclo-7", "--p", "29"], ["cyclotomic-7"], ["cyclo-7"]),
    (["split", "--field", "sextic-5-2", "--p", "101"], ["sextic-5-2"], []),
])
def test_a_command_builds_only_what_it_reads(builds, capsys, argv, fields, curves):
    assert main(argv + ["--json"]) == 0
    assert builds == {"fields": fields, "curves": curves, "proofs": len(curves)}


def test_a_user_catalog_builds_each_entry_once_at_load(builds):
    user = catalog_load(resources.files("cmreduce") / "catalog.json")
    at_load = {"fields": list(user.fields), "curves": list(user.curves),
               "proofs": len(user.curves)}
    assert builds == at_load
    for label in user.fields:
        user.field(label)
    for label in user.curves:
        user.record(label)
    assert builds == at_load


def test_lazy_and_eager_catalogs_build_equal_records(catalog):
    # the packaged catalog builds on lookup, the same file as a user catalog at load
    user = catalog_load(resources.files("cmreduce") / "catalog.json")
    family = [3, 7, 11, 13]
    for label in [*catalog.fields, *(f"cyclotomic-{ell}" for ell in family)]:
        assert vars(user.field(label)) == vars(catalog.field(label))
    for label in [*catalog.curves, *(f"cyclo-{ell}" for ell in family)]:
        rec, want = dict(vars(user.record(label))), dict(vars(catalog.record(label)))
        assert vars(rec.pop("field")) == vars(want.pop("field"))
        assert rec == want


def test_shipped_fields_pass_the_polynomial_check(catalog, monkeypatch):
    # the packaged catalog and the cyclotomic family are checked here, not at
    # load: catalog_load() runs no check, a user catalog one per field
    family = [f"cyclotomic-{ell}" for ell in (3, 7, 11, 13)]
    for label in [*catalog.fields, *family]:
        generator._check_field_polys(catalog.field(label), label)
    checked = []
    monkeypatch.setattr(generator, "_check_field_polys", lambda f, where: checked.append(f))
    catalog_load()
    assert checked == []
    catalog_load(resources.files("cmreduce") / "catalog.json")
    assert [f.label for f in checked] == list(catalog.fields)


@pytest.mark.parametrize("label, poly, p", [
    # a quartic that is no Galois field: unequal factor degrees at p = 3
    ("cyclotomic-5", [2, 1, 1, 1, 1], 3),
    # Q(zeta_5), where the conductor describes the other quartic field
    ("quartic-5-65-845", [1, 1, 1, 1, 1], 11),
])
def test_catalog_load_refuses_polynomials_of_another_field(tmp_path, label, poly, p):
    def mutate(d):
        next(f for f in d["fields"] if f["label"] == label)["defining_polys"] = [poly]

    with pytest.raises(CatalogError, match=rf"^fields\[\d\]: .*{label} .* at p = {p}$"):
        load_variant(tmp_path, mutate)


@pytest.mark.parametrize("mutate", [
    pytest.param(lambda d: d["curves"][0].update(genus="2"), id="string-genus"),
    pytest.param(lambda d: d["curves"][0].update(genus=True), id="bool-genus"),
    pytest.param(lambda d: d["fields"][0].update(two_g="4"), id="string-two_g"),
    pytest.param(lambda d: d["fields"][0].update(conductor="65"), id="string-conductor"),
    pytest.param(lambda d: d["fields"][0].update(discriminant="x"), id="text-discriminant"),
    pytest.param(lambda d: d["fields"][0].update(discriminant="21125"),
                 id="numeric-string-discriminant"),
    pytest.param(lambda d: d["fields"][0].update(H_generators="19"),
                 id="string-H_generators"),
    pytest.param(lambda d: d["fields"][0].update(H_generators=[19.0]),
                 id="float-generator"),
    pytest.param(lambda d: d["fields"][0].update(defining_polys=[[845.5, 0, 65, 0, 1]]),
                 id="float-poly-coefficient"),
    # int() would truncate these to another curve
    pytest.param(lambda d: d["curves"][0].update(
        f_coeffs=[c + 0.5 for c in d["curves"][0]["f_coeffs"]]), id="float-f_coeffs"),
    pytest.param(lambda d: d["curves"][0].update(f_coeffs=[True, 0, 0, 0, 0, 1]),
                 id="bool-f_coeffs"),
    pytest.param(lambda d: d["fields"][0].update(label=["quartic"]), id="list-field-label"),
    pytest.param(lambda d: d["curves"][0].update(label=3), id="int-curve-label"),
    pytest.param(lambda d: d["curves"][0].update(field_label=["quartic"]),
                 id="list-field_label"),
    pytest.param(lambda d: d["curves"][0].update(provenance=3), id="int-provenance"),
    pytest.param(lambda d: d["curves"][0].update(genus=None), id="null-genus"),
])
def test_catalog_load_rejects_malformed_values(tmp_path, mutate):
    # each malformed value names its entry instead of crashing or changing the curve
    with pytest.raises(CatalogError, match=r"^(fields|curves)\[0\]: "):
        load_variant(tmp_path, mutate)


def test_cm_types_come_from_the_catalog_file(tmp_path, catalog):
    # a user's genus-2 curve named weng-g3 gets no CM type from the shipped one
    data = json.loads(SHIPPED)
    data["curves"] = [c for c in data["curves"] if c["label"] != "weng-g3"]
    data["curves"][0].update(label="weng-g3")
    data["curves"][0].pop("cm_type")
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(data))
    user = catalog_load(path)
    rec = user.record("weng-g3")
    assert (rec.genus, rec.cm_type) == (2, None)
    assert user.record("cyclo-5").cm_type.exponents == frozenset({0, 1})


def test_record_validation(catalog):
    sextic = catalog.field("sextic-5-2")
    quartic = catalog.field("quartic-5-65-845")
    with pytest.raises(CatalogError):
        CMCurveRecord("x", 2, (1, 1, 0, 0, 0, 1), sextic, "t")  # field degree 6
    with pytest.raises(CatalogError):
        CMCurveRecord("x", 2, (1, 1, 1), quartic, "t")  # degree 2 fits no genus-2 model
    with pytest.raises(CatalogError):
        CMCurveRecord("x", 1, (1, 0, 2, 0, 1), quartic, "t")  # (x^2+1)^2 over Q
    with pytest.raises(CatalogError):
        CMCurveRecord("x", 2, (1, 1, 0, 0, 0, 0), quartic, "t")  # zero leading coeff
    with pytest.raises(CatalogError):
        CMCurveRecord(
            "x", 2, (1, 1, 0, 0, 0, 1), quartic, "t",
            cm_type=CMType.from_exponents(3, {0, 1, 2}),
        )


def rational_squarefree_reference(coeffs):
    """Euclid over Q in Fractions: f is squarefree when gcd(f, f') is a constant."""
    f = [Fraction(c) for c in coeffs]
    g = [Fraction(i * c) for i, c in enumerate(coeffs)][1:]
    while any(g):
        while len(f) >= len(g):
            q = f[-1] / g[-1]
            for i in range(len(g)):
                f[len(f) - len(g) + i] -= q * g[i]
            f.pop()
            while f and f[-1] == 0:
                f.pop()
        f, g = g, f
    return len(f) == 1


def int_poly_mul(*fs):
    out = [1]
    for f in fs:
        r = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                r[i + j] += a * b
        out = r
    return out


def test_repeated_rational_factor_is_refused_by_the_squarefree_check(catalog):
    quartic = catalog.field("quartic-5-65-845")
    # (x^2+1)^2 (x-3): degree, field and leading coefficient all fit genus 2,
    # and every prime sees the square, so only the resultant bound refuses it
    f = tuple(int_poly_mul([1, 0, 1], [1, 0, 1], [-3, 1]))
    with pytest.raises(CatalogError, match="repeated rational root"):
        CMCurveRecord("x", 2, f, quartic, "t")
    # squarefree over Q, with a repeated root mod 2, 3, 5 and 7
    f = tuple(int_poly_mul(*([-210 * i, 1] for i in range(5))))
    assert CMCurveRecord("x", 2, f, quartic, "t").f_coeffs == f


def test_rational_squarefree_matches_euclid_over_q():
    # half the inputs are a^2 b, the other half a b, which is mostly squarefree
    rng = random.Random(16)

    def poly(lo, hi, size):
        f = [rng.randint(-size, size) for _ in range(rng.randint(lo, hi))]
        return f + [rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])]

    for k in range(2000):
        a, b = poly(1, 3, 9), poly(0, 5, rng.choice([2, 9, 99]))
        f = int_poly_mul(a, a, b) if k % 2 else int_poly_mul(a, b)
        assert generator._rational_squarefree(f) == rational_squarefree_reference(f), f


def test_reduce_curve(catalog):
    weng = catalog.record("weng-g3")
    c = reduce_curve(weng, 13)
    assert c.coeffs == (0, 7, 0, 1, 0, 7, 0, 1)
    assert c.genus == 3
    with pytest.raises(BadReductionError):
        reduce_curve(weng, 7)
    with pytest.raises(BadReductionError):
        reduce_curve(weng, 2)
    with pytest.raises(DomainError):
        reduce_curve(weng, 15)
    # leading coefficient -1331 vanishes at 11: the model degenerates
    with pytest.raises(BadReductionError):
        reduce_curve(catalog.record("wamelen-c1"), 11)


def meets(record, target_type, p):
    """Whether p meets the target generate resolves target_type to."""
    _, target = generator._resolve_target(record, target_type)
    split = generator._split_auto(record.field, p)
    return generator._meets_target(record.field, target, p, split)


def test_generation_predicate_quartic_inert(catalog):
    c1 = catalog.record("wamelen-c1")
    p = (1 << 128) + 51
    assert meets(c1, "ssing-non-sspec", p)
    assert kronecker(21125, p) == -1
    assert not meets(c1, "ssing-non-sspec", 131)  # splits completely, Kronecker symbol +1
    # generate draws primes only; (1 << 128) + 49 is composite
    assert not is_prime((1 << 128) + 49)
    res = generate(c1, "ssing-non-sspec", 128)
    assert is_prime(res.p) and meets(c1, "ssing-non-sspec", res.p)


def test_generation_predicate_residue_targets(catalog):
    rec = catalog.record("cyclo-5")
    assert meets(rec, "superspecial", 19) and meets(rec, "superspecial", 29)
    assert not meets(rec, "superspecial", 11)  # split
    assert not meets(rec, "superspecial", 7)  # inert
    assert meets(rec, "ordinary", 11) and meets(rec, "ordinary", 31)
    assert not meets(rec, "ordinary", 19)
    for target in ("superspecial", "ordinary"):
        assert meets(rec, target, generate(rec, target, 8).p)


def test_generation_predicate_accepts_spelling_variants(catalog):
    c1 = catalog.record("wamelen-c1")
    p = (1 << 128) + 51
    for name in ("ssing-non-sspec", "ssing non sspec", "Supersingular-Non-Superspecial"):
        assert meets(c1, name, p)
        res = generate(c1, name, 64)
        assert res.target_type == "supersingular-non-superspecial"
        assert res.p == generate(c1, "ssing-non-sspec", 64).p


def test_generation_targets_rejected_per_genus(catalog):
    with pytest.raises(DomainError, match="^supersingular is ambiguous above genus 1"):
        generate(catalog.record("wamelen-c1"), "supersingular", 16)
    with pytest.raises(DomainError, match="^ssing-non-sspec generation is only supported"):
        generate(catalog.record("weng-g3"), "ssing-non-sspec", 16)
    with pytest.raises(DomainError, match="^unknown target type 'half-ordinary'"):
        generate(catalog.record("cyclo-5"), "half-ordinary", 16)


def test_generate_small_superspecial(catalog):
    res = generate(catalog.record("cyclo-5"), "superspecial", 12)
    assert res.p == 6329
    assert res.p % 5 == 4
    assert res.prediction.profile.a_number == 2
    assert res.verified_profile is not None
    assert (res.verified_profile.p_rank, res.verified_profile.a_number) == (0, 2)
    # deterministic per seed
    assert generate(catalog.record("cyclo-5"), "superspecial", 12).p == res.p
    assert generate(catalog.record("cyclo-5"), "superspecial", 12, seed=1).p != res.p


def test_generate_weng_superspecial(catalog):
    res = generate(catalog.record("weng-g3"), "superspecial", 8)
    assert res.p == 307
    assert res.verified_profile.a_number == 3
    assert res.target_type == "superspecial"


def test_generate_ordinary(catalog):
    res = generate(catalog.record("cyclo-5"), "ordinary", 10)
    assert res.p % 5 == 1
    assert res.verified_profile.p_rank == 2
    assert res.curve.p == res.p


def test_generate_large_prime_skips_verification(catalog):
    res = generate(catalog.record("wamelen-c1"), "ssing-non-sspec", 24)
    assert res.verified_profile is None  # past the verification cap
    assert res.prediction.profile.type_name == "supersingular non-superspecial"


def test_generate_refuses_bits_above_the_cap_without_searching(catalog, monkeypatch):
    def search(*args, **kwargs):
        raise AssertionError("find_prime ran")

    monkeypatch.setattr(generator, "find_prime", search)
    with pytest.raises(ResourceLimitError, match="at most 1024"):
        generate(catalog.record("cyclo-5"), "ordinary", generator.BITS_CAP + 1)
    with pytest.raises(AssertionError, match="find_prime ran"):
        generate(catalog.record("cyclo-5"), "ordinary", generator.BITS_CAP)


def test_generate_retries_after_bad_reduction(catalog, monkeypatch):
    # seed 3's first search draws 31, where wamelen-c2 has bad reduction
    drawn = []
    search = generator.find_prime

    def record(*args, **kwargs):
        drawn.append(search(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(generator, "find_prime", record)
    record_c2 = catalog.record("wamelen-c2")
    res = generate(record_c2, "superspecial", 4, seed=3)
    assert drawn == [31, 29]
    assert res.p == 29
    with pytest.raises(BadReductionError):
        reduce_curve(record_c2, 31)


def test_generate_factors_once_per_prime(catalog, monkeypatch):
    calls = []
    split = generator.split_by_factorization

    def counted(field, p):
        calls.append(p)
        return split(field, p)

    monkeypatch.setattr(generator, "split_by_factorization", counted)
    for label in ("weng-g3", "wamelen-c1"):
        calls.clear()
        res = generate(catalog.record(label), "ordinary", 128)
        assert calls == [res.p]
        assert res.prediction.profile.type_name == "ordinary"


def test_generate_cross_checks_residue_search(catalog, monkeypatch):
    # find_prime picks p by residue class; a factorization verdict that
    # disagrees with the target is a bug, not a retry
    monkeypatch.setattr(
        generator, "split_by_factorization", lambda field, p: SplittingType(1, 6)
    )
    with pytest.raises(InternalInconsistencyError):
        generate(catalog.record("weng-g3"), "ordinary", 64)


def test_generate_returns_a_contradiction(tmp_path):
    # wamelen-c2 with its x^4 coefficient moved from 0 to 1 lacks CM by its
    # field; the result carries the prediction and the computed profile
    def mutate(data):
        data["curves"][1]["f_coeffs"][4] = 1

    res = generate(load_variant(tmp_path, mutate).record("wamelen-c2"), "superspecial", 16)
    assert res.p == 91139
    assert (res.verified_profile.p_rank, res.verified_profile.a_number) == (2, 0)
    assert res.prediction.matches(res.verified_profile) is False


def test_verify_worked_primes(catalog):
    weng = catalog.record("weng-g3")
    r = verify(weng, 13)
    assert r.match is True
    assert r.splitting.num_primes == 6
    assert r.prediction.certainty == "exact"
    assert r.profile.slopes == (0, 0, 0, 1, 1, 1)
    assert r.notes == ()

    r = verify(weng, 43)
    assert r.match is True
    assert r.profile.type_name == "superspecial"

    r = verify(weng, 17)
    assert r.match is True
    assert any("partial" in n for n in r.notes)

    r = verify(weng, 11)
    assert r.match is True
    assert any("outlier" in n for n in r.notes)


@pytest.mark.parametrize("label, p", [
    ("cyclo-11", 23), ("cyclo-11", 43), ("cyclo-11", 67), ("cyclo-11", 89),
    ("cyclo-13", 53), ("cyclo-13", 79), ("cyclo-13", 103),
])
def test_verify_names_the_predicted_profile_above_genus_3(catalog, label, p):
    # p = 1 mod l splits completely (ordinary), p = -1 mod l is superspecial
    r = verify(catalog.record(label), p)
    want = r.prediction.profile
    assert r.match is True and r.prediction.certainty == "exact"
    assert (r.profile.group_scheme, r.profile.type_name) == (want.group_scheme, want.type_name)
    assert "unclassified" not in r.profile.group_scheme


@pytest.mark.parametrize("bits", [8, 9, 10])
@pytest.mark.parametrize("target", ["ordinary", "superspecial"])
def test_generate_names_the_predicted_profile_above_genus_3(catalog, target, bits):
    res = generate(catalog.record("cyclo-11"), target, bits)
    got, want = res.verified_profile, res.prediction.profile
    assert (got.group_scheme, got.type_name) == (want.group_scheme, want.type_name)
    assert want.type_name == target


def test_verify_skips_prediction_without_splitting(catalog):
    # good reduction at a ramified prime: profile computed, no prediction
    quartic = catalog.field("quartic-5-65-845")
    rec = CMCurveRecord("synthetic", 2, (1, 1, 0, 0, 0, 1), quartic, "test fixture")
    r = verify(rec, 5)
    assert r.match is None
    assert r.prediction is None
    assert any("ramified" in n for n in r.notes)
    assert r.profile is not None


def test_verify_refuses_large_p(catalog):
    with pytest.raises(ResourceLimitError):
        verify(catalog.record("weng-g3"), (1 << 20) + 7)


def test_sweep_weng(catalog):
    s = sweep(catalog.record("weng-g3"), 50)
    assert s.bad_primes == (2, 7)
    assert len(s.reports) == 13
    assert s.mismatches == []
    assert s.verified == 13
    assert [r.p for r in s.reports] == sorted(r.p for r in s.reports)
    by_p = {r.p: r for r in s.reports}
    assert (by_p[3].profile.p_rank, by_p[3].profile.a_number) == (0, 1)
    assert (by_p[5].profile.p_rank, by_p[5].profile.a_number) == (0, 2)


def test_sweep_respects_cap(catalog):
    with pytest.raises(ResourceLimitError):
        sweep(catalog.record("cyclo-5"), 1 << 21)


# curve label -> bound on p for its random models (p^g stays near 2^18)
MODEL_CURVES = {"wamelen-c1": 400, "wamelen-c2": 400, "cyclo-5": 400,
                "weng-g3": 60, "cyclo-7": 60}


def model_change(f, g, a, b, c, d, e, p):
    """e (cx + d)^(2g+2) f((ax + b)/(cx + d)) mod p, little-endian."""
    out = [0] * (2 * g + 3)
    for i, fi in enumerate(f):
        term = [e * fi]
        for lin, n in (([b, a], i), ([d, c], 2 * g + 2 - i)):
            for _ in range(n):
                term = [x * lin[0] + y * lin[1] for x, y in zip(term + [0], [0] + term)]
        out = [x + y for x, y in zip(out, term)]
    return poly_trim([x % p for x in out])


@lru_cache(maxsize=None)
def catalog_side(label, p):
    """The catalog model's profile at p and the prediction from its field,
    None for a ramified p."""
    record = catalog_load().record(label)
    profile = reduction_profile(reduce_curve(record, p))
    try:
        return profile, predict_for_genus(record.genus, split_by_residue(record.field, p))
    except RamifiedPrimeError:
        return profile, None


@st.composite
def models(draw):
    label = draw(st.sampled_from(sorted(MODEL_CURVES)))
    p = draw(st.sampled_from([q for q in range(3, MODEL_CURVES[label]) if is_prime(q)]))
    a, b, c, d, e = (draw(st.integers(0, p - 1)) for _ in range(5))
    assume((a * d - b * c) % p and e)
    return label, p, a, b, c, d, e


@settings(max_examples=150, deadline=None, derandomize=True)
@example(("weng-g3", 13, 0, 1, 1, 0, 2))  # x -> 1/x keeps degree 7, a twist by 2
@example(("cyclo-5", 11, 0, 1, 1, 0, 1))  # x -> 1/x takes degree 5 to 6
@example(("wamelen-c1", 31, 2, 1, 1, 0, 3))  # f(2) = 0: x -> (2x + 1)/x, degree 6 to 5
@given(models())
def test_random_models_keep_the_reduction_type(model):
    # a model change is an isomorphism and e a quadratic twist: the p-torsion
    # invariants stay, L(T) becomes L(chi(e) T), and the field's prediction,
    # which never sees the model, still matches
    label, p, a, b, c, d, e = model
    record = catalog_load().record(label)
    g = record.genus
    try:
        want, prediction = catalog_side(label, p)
    except BadReductionError:
        reject()
    f = [x % p for x in record.f_coeffs]
    curve = ReducedCurve(p, model_change(f, g, a, b, c, d, e, p))
    got = reduction_profile(curve)
    assert replace(got, l_polynomial=None) == replace(want, l_polynomial=None)
    chi = 1 if pow(e, (p - 1) // 2, p) == 1 else -1
    assert list(got.l_polynomial) == [chi**i * x for i, x in enumerate(want.l_polynomial)]
    if prediction is not None and prediction.profile is not None:
        pinned = prediction.profile
        assert (got.p_rank, got.a_number) == (pinned.p_rank, pinned.a_number)
        assert pinned.slopes is None or pinned.slopes == got.slopes

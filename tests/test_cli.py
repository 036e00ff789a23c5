"""Console entry point: subcommands, JSON envelopes, exit codes."""

import argparse
import json
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from importlib import resources

import pytest

from cmreduce import (
    InternalInconsistencyError,
    catalog_load,
    cli,
    cm_types,
    count_E,
    count_E_primitive,
    ff_arith,
    generator,
    invariants,
)
from cmreduce.cli import _slopes_text, main
from cmreduce.ff_arith import is_prime

P128 = str((1 << 128) + 51)  # inert in the quartic field
SHIPPED = (resources.files("cmreduce") / "catalog.json").read_text()


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_count_types_text(capsys):
    code, out, _ = run(capsys, "count-types", "--g", "6")
    assert code == 0
    assert "g = 6: 6 classes (5 primitive, 1 imprimitive)" in out


def test_count_types_singular_grammar(capsys):
    code, out, _ = run(capsys, "count-types", "--g", "3", "--primitive")
    assert code == 0
    assert "1 primitive class" in out
    assert "classes" not in out


def test_count_types_enumerate_primitive_only(capsys):
    code, out, _ = run(capsys, "count-types", "--g", "3", "--primitive", "--enumerate")
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()[1:]] == ["000111"]


def test_count_types_enumerate_json(capsys):
    code, doc, _ = run_json(capsys, "count-types", "--g", "4", "--enumerate")
    assert code == 0
    assert doc["schema_version"] == 1
    assert doc["command"] == "count-types"
    res = doc["result"]
    assert (res["total"], res["primitive"]) == (2, 2)
    assert len(res["classes"]) == 2
    for cls in res["classes"]:
        assert set(cls) == {"extended", "exponents", "period", "primitive"}
        assert len(cls["extended"]) == 8
        assert len(cls["exponents"]) == 4


def test_count_types_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        main(["count-types", "--g", "0"])
    assert e.value.code == 2


def test_count_types_at_count_cap(capsys):
    g = cm_types.COUNT_CAP
    total, prim = count_E(g), count_E_primitive(g)
    code, doc, _ = run_json(capsys, "count-types", "--g", str(g))
    assert code == 0
    assert doc["result"] == {
        "g": g, "total": total, "primitive": prim, "imprimitive": total - prim,
    }
    code, out, _ = run(capsys, "count-types", "--g", str(g))
    assert code == 0
    assert out == f"g = {g}: {total} classes ({prim} primitive, {total - prim} imprimitive)\n"


def test_count_types_above_count_cap_json_envelope(capsys, monkeypatch):
    # refused before any counting: the arithmetic helpers must not run
    def no_work(n):
        raise AssertionError("counted above the cap")

    monkeypatch.setattr(cm_types, "_totient", no_work)
    monkeypatch.setattr(cm_types, "_mobius", no_work)
    g = str(cm_types.COUNT_CAP + 1)
    for extra in ((), ("--primitive",)):
        code, out, err = run(capsys, "count-types", "--g", g, *extra, "--json")
        assert code == 4
        doc = json.loads(out)
        assert doc["command"] == "count-types"
        assert doc["error"]["type"] == "ResourceLimitError"
        assert str(cm_types.COUNT_CAP) in doc["error"]["message"]
        assert err.startswith("error:")


def test_split_residue_json(capsys):
    p = str((1 << 128) + 51)
    code, doc, _ = run_json(capsys, "split", "--field", "quartic-5-65-845", "--p", p)
    assert code == 0
    res = doc["result"]
    assert res["method"] == "residue"
    assert res["num_primes"] == 1
    assert res["inertia_degree"] == 4


def test_split_json_key_order(capsys):
    code, doc, _ = run_json(capsys, "split", "--field", "sextic-5-2", "--p", "17",
                            "--method", "factor")
    assert code == 0
    assert list(doc["result"]) == ["field", "p", "method", "num_primes",
                                   "inertia_degree", "ramified"]


def test_split_factor_text(capsys):
    code, out, _ = run(capsys, "split", "--field", "sextic-5-2", "--p", "17",
                       "--method", "factor")
    assert code == 0
    assert "2 primes" in out and "inertia degree 3" in out


def test_split_inert_wording(capsys):
    code, out, _ = run(capsys, "split", "--field", "cyclotomic-5", "--p", "7")
    assert code == 0
    assert "inert" in out


def test_split_stickelberger(capsys):
    code, doc, _ = run_json(capsys, "split", "--field", "cyclotomic-5", "--p", "7",
                            "--method", "stickelberger")
    assert code == 0
    assert doc["result"]["parity"] == 1


def test_split_ramified_is_domain_error(capsys):
    code, out, err = run(capsys, "split", "--field", "quartic-5-65-845", "--p", "5")
    assert code == 3
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("ell", ["28019", "7" * 5000], ids=["28019", "5000-digits"])
@pytest.mark.parametrize("argv", [("split", "--field", "cyclotomic"),
                                  ("invariants", "--curve", "cyclo")], ids=["field", "curve"])
def test_cyclotomic_family_above_the_genus_cap_exit_4(capsys, argv, ell):
    # (l - 1) / 2 > COUNT_CAP: 28019 is the first prime above 28001, and the
    # 5000-digit l is refused before int() reads it
    argv = [*argv[:2], f"{argv[2]}-{ell}"]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--p", "3", "--json")
    assert time.perf_counter() - start < 1
    assert code == 4
    assert json.loads(out)["error"]["type"] == "ResourceLimitError"
    assert err == f"error: cyclotomic family: l capped at {2 * cm_types.COUNT_CAP + 1}\n"


def test_cyclotomic_family_at_the_genus_cap(capsys):
    # l = 28001 is prime and has (l - 1) / 2 = COUNT_CAP
    code, out, _ = run(capsys, "split", "--field", "cyclotomic-28001", "--p", "3")
    assert code == 0
    assert "inert, inertia degree 28000" in out


@pytest.mark.parametrize("argv", [
    ("invariants", "--curve", "cyclo-\u0667", "--p", "11"),  # ARABIC-INDIC DIGIT SEVEN
    ("split", "--field", "cyclotomic-\uff17", "--p", "11"),  # FULLWIDTH DIGIT SEVEN
], ids=["curve", "field"])
def test_family_labels_take_only_ascii_digits(capsys, argv):
    # \d would read both as l = 7
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == f"error: unknown {argv[1][2:]} label {argv[2]!r}\n"


def test_split_non_prime(capsys):
    # each route refuses p itself, also psi_12 = 399165290221 * 798330580441,
    # a strong pseudoprime to the 12 bases 2..37 that base 41 refuses
    for p in ("21", "318665857834031151167461"):
        for method in ("residue", "factor", "stickelberger", "auto"):
            code, out, err = run(capsys, "split", "--field", "cyclotomic-5", "--p", p,
                                 "--method", method)
            assert (code, out) == (3, ""), (p, method)
            assert f"{p} is not prime" in err, (p, method)


def test_invariants_json(capsys):
    code, doc, _ = run_json(capsys, "invariants", "--curve", "cyclo-5", "--p", "19")
    assert code == 0
    res = doc["result"]
    assert res["genus"] == 2
    assert (res["p_rank"], res["a_number"]) == (0, 2)
    assert res["slopes"] == ["1/2", "1/2", "1/2", "1/2"]
    assert res["l_polynomial"] == [1, 0, 38, 0, 361]
    assert res["group_scheme"] == "I_{1,1}^2"
    assert res["type_name"] == "superspecial"


def test_invariants_names_mixed_slopes_above_genus_3(capsys):
    # slopes 1/5 and 4/5 rule out supersingular
    code, doc, _ = run_json(capsys, "invariants", "--curve", "cyclo-11", "--p", "3")
    assert code == 0
    res = doc["result"]
    assert res["slopes"] == ["1/5"] * 5 + ["4/5"] * 5
    assert (res["group_scheme"], res["type_name"]) == ("unclassified (genus 5)", "mixed")
    code, out, _ = run(capsys, "invariants", "--curve", "cyclo-11", "--p", "3")
    assert "group scheme unclassified (genus 5) (mixed)" in out


@pytest.mark.parametrize("curve, p, slopes", [
    ("cyclo-5", "7", "1/2 x4"),
    ("cyclo-5", "11", "0 x2, 1 x2"),
    ("cyclo-11", "3", "1/5 x5, 4/5 x5"),
    ("weng-g3", "12289", "not computed"),  # above the slope edge
])
def test_invariants_text_slope_runs(capsys, curve, p, slopes):
    code, out, _ = run(capsys, "invariants", "--curve", curve, "--p", p)
    assert code == 0
    assert f"  slopes: {slopes}\n" in out


def test_slopes_text_counts_each_run():
    half = Fraction(1, 2)
    assert _slopes_text((Fraction(0), half, half, Fraction(1))) == "0, 1/2 x2, 1"


def test_invariants_text_formats_l_polynomial(capsys):
    code, out, _ = run(capsys, "invariants", "--curve", "weng-g3", "--p", "43")
    assert code == 0
    assert "L(T) = 79507T^6 + 5547T^4 + 129T^2 + 1" in out
    assert "p-rank 0, a-number 3" in out


def test_invariants_counts_points_once(capsys, monkeypatch):
    # the L-polynomial comes with the profile: one point count per k < g
    # (k = 1 alone at g = 2, k = 1, 2 at g = 3), and one Cartier-Manin
    # matrix serves the p-rank, the a-number, Manin's congruence and a_g
    counts, cartier = [], []
    count, half = invariants.point_count, invariants.half_power_coeffs

    def counted(curve, k=1):
        counts.append(k)
        return count(curve, k)

    def counted_half(*args):
        cartier.append(args)
        return half(*args)

    monkeypatch.setattr(invariants, "point_count", counted)
    monkeypatch.setattr(invariants, "half_power_coeffs", counted_half)
    for argv, ks in (
        # the order of J(F_p) gives a_g: no count over F_{p^g}
        (["invariants", "--curve", "weng-g3", "--p", "59"], [1, 2]),
        (["verify", "--curve", "weng-g3", "--p", "59"], [1, 2]),
        (["invariants", "--curve", "cyclo-5", "--p", "1447"], [1]),
        # 12-bit p is past the slope edge at g = 3: no point counts
        (["generate", "--curve", "weng-g3", "--type", "ordinary", "--bits", "12"], []),
    ):
        invariants.cartier_manin.cache_clear()  # no matrix left by an earlier command
        counts.clear()
        cartier.clear()
        code, doc, _ = run_json(capsys, *argv)
        assert code == 0, argv
        assert sorted(counts) == ks, argv
        assert len(cartier) == 1, argv
        if argv[:3] == ["invariants", "--curve", "weng-g3"]:
            assert doc["result"]["l_polynomial"] == [1, 0, 0, 0, 0, 0, 205379]


@pytest.mark.parametrize("argv, proofs", [
    pytest.param(["invariants", "--curve", "weng-g3", "--p", "59"], 1, id="invariants"),
    # the reduced curve, then the split
    pytest.param(["verify", "--curve", "weng-g3", "--p", "59"], 2, id="verify"),
    *[pytest.param(["split", "--field", "quartic-5-65-845", "--p", P128, "--method", m],
                   1, id=f"split-{m}")
      for m in ("residue", "factor", "stickelberger", "auto")],
    # find_prime, the reduced curve, and the split that cross-checks the search
    *[pytest.param(["generate", "--curve", c, "--type", t, "--bits", "128"], 3,
                   id=f"generate-{t}")
      for c, t in (("weng-g3", "ordinary"), ("wamelen-c1", "ssing-non-sspec"))],
])
def test_each_entry_proves_its_prime_once(capsys, monkeypatch, argv, proofs):
    # every entry checks p itself, but the Miller-Rabin rounds run once: none
    # below 1009^2 (the gcd sieve decides), the 13 bases below psi_13, and
    # base 2 then the 64 seeded rounds from psi_13 up
    calls = Counter()
    rounds = Counter()
    witness = ff_arith._mr_witness

    def counted(n):
        calls[n] += 1
        return is_prime(n)

    def counted_witness(a, d, s, n):
        rounds[n] += 1
        return witness(a, d, s, n)

    for name, module in list(sys.modules.items()):
        if name.startswith("cmreduce") and getattr(module, "is_prime", None) is is_prime:
            monkeypatch.setattr(module, "is_prime", counted)
    monkeypatch.setattr(ff_arith, "_mr_witness", counted_witness)
    ff_arith._miller_rabin.cache_clear()  # no verdict left by an earlier test
    code, doc, _ = run_json(capsys, *argv)
    assert code == 0
    p = int(argv[argv.index("--p") + 1]) if "--p" in argv else doc["result"]["p"]
    assert 1 <= calls[p] <= proofs
    want = 0 if p < 10**6 else 13 if p < ff_arith._MR_DET_BOUND else 1 + 64
    assert rounds[p] == want


def test_invariants_bad_reduction_exit(capsys):
    code, _, err = run(capsys, "invariants", "--curve", "weng-g3", "--p", "7")
    assert code == 3
    assert "bad reduction" in err


def test_invariants_resource_exit_with_json_envelope(capsys):
    p = str((1 << 20) + 7)
    code, out, err = run(capsys, "invariants", "--curve", "weng-g3", "--p", p, "--json")
    assert code == 4
    doc = json.loads(out)
    assert doc["command"] == "invariants"
    assert doc["error"]["type"] == "ResourceLimitError"
    assert err.startswith("error:")


def test_internal_inconsistency_exit_with_json_envelope(capsys, monkeypatch):
    def disagree(curve):
        raise InternalInconsistencyError("p-rank disagrees with zero-slope multiplicity")

    monkeypatch.setattr(invariants, "reduction_profile", disagree)
    code, out, err = run(capsys, "invariants", "--curve", "cyclo-5", "--p", "19", "--json")
    assert code == 6
    doc = json.loads(out)
    assert doc["command"] == "invariants"
    assert doc["error"]["type"] == "InternalInconsistencyError"
    assert err.startswith("error:")


def test_unknown_curve_label(capsys):
    code, _, err = run(capsys, "invariants", "--curve", "nope", "--p", "3")
    assert code == 3
    assert "nope" in err


def test_generate_json(capsys):
    code, doc, _ = run_json(capsys, "generate", "--curve", "cyclo-5",
                            "--type", "superspecial", "--bits", "12")
    assert code == 0
    res = doc["result"]
    assert res["p"] == 6329
    assert res["seed"] == 0
    assert res["prediction"]["certainty"] == "exact"
    assert res["verified_profile"]["a_number"] == 2
    assert res["reduced_curve"]["label"] == "cyclo-5-mod-p"


def test_generate_bits_above_the_cap_exit_4(capsys):
    code, out, err = run(capsys, "generate", "--curve", "cyclo-5", "--type", "ordinary",
                         "--bits", "1025", "--json")
    assert code == 4
    assert json.loads(out)["error"]["type"] == "ResourceLimitError"
    assert "at most 1024" in err


def test_generate_gives_up_after_its_prime_searches(capsys):
    # 11 is the only prime in [2^3, 2^4) split into two primes in quartic-5-65-845,
    # and wamelen-c1's leading coefficient -1331 vanishes mod 11
    code, out, err = run(capsys, "generate", "--curve", "wamelen-c1",
                         "--type", "superspecial", "--bits", "3")
    assert code == 3
    assert out == ""
    assert err == ("error: bad reduction at p = 11:"
                   " no good-reduction prime in 64 prime searches\n")


def user_catalog(tmp_path, name, mutate):
    data = json.loads(SHIPPED)
    mutate({c["label"]: c for c in data["curves"] + data["fields"]})
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_generate_contradiction_exit_5(capsys, tmp_path):
    # wamelen-c2 with its x^4 coefficient moved from 0 to 1 lacks CM by its
    # field, and reduces ordinary at the prime picked as superspecial: a
    # mismatch, as verify reports it, not a bug
    def mutate(entries):
        entries["wamelen-c2"]["f_coeffs"][4] = 1

    path = user_catalog(tmp_path, "c2.json", mutate)
    argv = ("generate", "--curve", "wamelen-c2", "--type", "superspecial", "--bits", "16",
            "--catalog", path)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (5, "")
    assert out.splitlines()[1:] == [
        "p = 91139",
        "reduced: y^2 = 79019x^6 + 61395x^5 + x^4 + 16156x^3 + 19755x + 11251",
        "prediction: (0, 2) superspecial [exact: Goren quartic reduction theorem]",
        "verified: p-rank 2, a-number 0, group scheme L^2",
        "MISMATCH: computed (2, 0) contradicts the prediction",
    ]
    code, doc, _ = run_json(capsys, *argv)
    assert code == 5
    res = doc["result"]
    assert res["p"] == 91139
    assert [res["prediction"]["profile"][k] for k in ("p_rank", "a_number")] == [0, 2]
    assert [res["verified_profile"][k] for k in ("p_rank", "a_number")] == [2, 0]
    code, _, _ = run(capsys, "verify", "--curve", "wamelen-c2", "--pmax", "60",
                     "--catalog", path)
    assert code == 5


def test_family_label_spellings_answer_alike(capsys, tmp_path):
    # a user catalog that lists cyclo-5 as y^2 = x^5 - 2 and cyclotomic-5
    # without residue data: every spelling of the labels finds the listed
    # entries, not the family's synthesized x^5 - 1 and conductor-5 field
    def mutate(entries):
        entries["cyclo-5"]["f_coeffs"][0] = -2
        del entries["cyclotomic-5"]["conductor"], entries["cyclotomic-5"]["H_generators"]

    path = user_catalog(tmp_path, "cyclo5.json", mutate)
    answers = [run(capsys, "invariants", "--curve", label, "--p", "11", "--catalog", path)
               for label in ("cyclo-5", "cyclo-05", "cyclo-005")]
    assert answers[0][0] == 0
    assert "  L(T) = 121T^4 - 99T^3 + 41T^2 - 9T + 1\n" in answers[0][1]
    assert answers[1:] == answers[:1] * 2
    answers = [run(capsys, "split", "--field", label, "--p", "11", "--method", "residue",
                   "--catalog", path) for label in ("cyclotomic-5", "cyclotomic-05")]
    assert answers[0][0] == 3
    assert answers[1] == answers[0]


def test_generate_text_skips_verification_for_large_p(capsys):
    code, out, _ = run(capsys, "generate", "--curve", "wamelen-c1",
                       "--type", "ssing-non-sspec", "--bits", "24")
    assert code == 0
    assert "verified: skipped" in out


def test_generate_text_names_the_verify_cap(capsys, monkeypatch):
    argv = ("generate", "--curve", "cyclo-5", "--type", "ordinary", "--bits", "24")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "verified: skipped (p >= 2^20)" in out
    monkeypatch.setattr(generator, "VERIFY_CAP", 1 << 10)
    code, out, _ = run(capsys, *argv[:-1], "12")
    assert code == 0
    assert "verified: skipped (p >= 2^10)" in out
    monkeypatch.setattr(generator, "VERIFY_CAP", 1000)
    code, out, _ = run(capsys, *argv[:-1], "12")
    assert "verified: skipped (p >= 1000)" in out


def test_verify_single_prime_json(capsys):
    code, doc, _ = run_json(capsys, "verify", "--curve", "weng-g3", "--p", "13")
    assert code == 0
    rows = doc["result"]["rows"]
    assert len(rows) == 1
    assert rows[0]["predicted"] == [3, 0]
    assert rows[0]["computed"] == [3, 0]
    assert rows[0]["match"] is True
    assert list(rows[0]["splitting"]) == ["num_primes", "inertia_degree", "ramified"]
    assert doc["result"]["mismatches"] == []


def test_verify_sweep_text(capsys):
    code, out, _ = run(capsys, "verify", "--curve", "weng-g3", "--pmax", "50")
    assert code == 0
    assert "13 verified, 0 mismatches" in out
    assert "bad reduction at 2, 7" in out
    assert out.count(" ok") == 13
    assert "MISMATCH" not in out


def make_imposter_catalog(tmp_path):
    # pair the cyclotomic quintic curve with the unrelated quartic field, so
    # predictions are wrong at primes where the two splitting laws disagree
    data = json.loads(SHIPPED)
    data["curves"] = [
        {
            "label": "imposter",
            "genus": 2,
            "f_coeffs": [-1, 0, 0, 0, 0, 1],
            "field_label": "quartic-5-65-845",
            "provenance": "deliberately mismatched pairing for tests",
        }
    ]
    path = tmp_path / "imposter.json"
    path.write_text(json.dumps(data))
    return path


def test_verify_mismatch_exit_code(capsys, tmp_path):
    # 19 is in the split class mod 65 (predicting ordinary) but x^5 - 1
    # reduces superspecially at 19
    path = make_imposter_catalog(tmp_path)
    code, doc, _ = run_json(capsys, "verify", "--curve", "imposter", "--p", "19",
                            "--catalog", str(path))
    assert code == 5
    assert doc["result"]["mismatches"] == [19]
    row = doc["result"]["rows"][0]
    assert row["predicted"] == [2, 0]
    assert row["computed"] == [0, 2]
    assert row["match"] is False


def test_malformed_catalog_json_envelope(capsys, tmp_path):
    # int() would have truncated the coefficients to another curve, one with
    # good reduction at 13 (the shipped wamelen-c1 has bad reduction there)
    data = json.loads(SHIPPED)
    data["curves"][0]["f_coeffs"] = [c + 0.5 for c in data["curves"][0]["f_coeffs"]]
    path = tmp_path / "floats.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--curve", "wamelen-c1", "--p", "13",
                         "--catalog", str(path), "--json")
    assert code == 3
    doc = json.loads(out)
    assert doc["command"] == "verify"
    assert doc["error"]["type"] == "CatalogError"
    assert doc["error"]["message"] == "curves[0]: f_coeffs must be a list of integers"
    assert err.startswith("error:")


@pytest.mark.parametrize("method", ["factor", "residue", "auto"])
def test_catalog_polynomial_of_another_field_exits_3(capsys, tmp_path, method):
    # x^4 + x^3 + x^2 + x + 2 cuts out no Galois field; the factor route met
    # it at p = 19 as "unequal factor degrees [1, 3]", exit 6, while the
    # residue route answered; now every route refuses the catalog at load
    data = json.loads(SHIPPED)
    next(f for f in data["fields"] if f["label"] == "cyclotomic-5")["defining_polys"] = [
        [2, 1, 1, 1, 1]]
    path = tmp_path / "other.json"
    path.write_text(json.dumps(data))
    code, doc, _ = run_json(capsys, "split", "--field", "cyclotomic-5", "--p", "19",
                            "--method", method, "--catalog", str(path))
    assert code == 3
    assert doc["error"] == {"type": "CatalogError", "message": "fields[2]: the defining"
                            " polynomials of cyclotomic-5 disagree with its conductor and"
                            " subgroup at p = 3"}


def test_catalog_model_change_verifies_alike(capsys, tmp_path):
    # weng-g3 with x -> (x + 1)/x: x^8 f((x + 1)/x), of degree 8 with leading
    # coefficient f(1) = 29. The same curve, so every row matches the shipped
    # model's, except at 29, where this model's leading coefficient vanishes
    data = json.loads(SHIPPED)
    data["curves"] = [{
        "label": "weng-g3-moved",
        "genus": 3,
        "f_coeffs": [0, 1, 7, 28, 70, 119, 133, 91, 29],
        "field_label": "sextic-5-2",
        "provenance": "weng-g3 under x -> (x + 1)/x",
        "cm_type": [0, 1, 2],
    }]
    path = tmp_path / "moved.json"
    path.write_text(json.dumps(data))
    code, moved, _ = run_json(capsys, "verify", "--curve", "weng-g3-moved", "--pmax", "60",
                              "--catalog", str(path))
    assert code == 0
    code, shipped, _ = run_json(capsys, "verify", "--curve", "weng-g3", "--pmax", "60")
    assert code == 0
    assert moved["result"]["bad_reduction"] == [2, 7, 29]
    assert moved["result"]["rows"] == [r for r in shipped["result"]["rows"] if r["p"] != 29]
    assert moved["result"]["mismatches"] == []


def test_catalog_discriminant_of_another_field_exits_3(capsys, tmp_path):
    # 21124 has the sign and the residue mod 4 of a quartic CM discriminant;
    # the Kronecker search for an inert prime drew 1439, which splits in the
    # field, and generate exited 6 ("fails its own target predicate")
    data = json.loads(SHIPPED)
    data["fields"][0]["discriminant"] = 21124
    path = tmp_path / "disc.json"
    path.write_text(json.dumps(data))
    code, doc, _ = run_json(capsys, "generate", "--curve", "wamelen-c1", "--type",
                            "ssing-non-sspec", "--bits", "10", "--catalog", str(path))
    assert code == 3
    assert doc["error"] == {"type": "CatalogError", "message": "fields[0]: the discriminant"
                            " of quartic-5-65-845 disagrees with its splitting at p = 3"}


def integer_sites(node, path=()):
    """The key paths of every integer in a JSON document."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [site for key, v in items for site in integer_sites(v, path + (key,))]
    return [path] if type(node) is int else []


MUTATIONS = (lambda x: x + 1, lambda x: x - 1, lambda x: -x, lambda x: 0, lambda x: 2 * x)
COMMAND_SECONDS = 2  # wall time allowed to one command on a mutated catalog


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_one_mutated_catalog_integer_exits_cleanly(capsys, tmp_path, seed):
    # exit 6 or a traceback here is a bug to fix in the program, not a case to skip
    shipped = json.loads(SHIPPED)
    sites = integer_sites(shipped)
    fields = [f["label"] for f in shipped["fields"]]
    curves = [c["label"] for c in shipped["curves"]]
    primes = [p for p in range(3, 1500) if is_prime(p)]
    types = ("ordinary", "superspecial", "supersingular", "ssing-non-sspec")
    path = tmp_path / "mutated.json"
    rng = random.Random(seed)
    for _ in range(30):
        data = json.loads(SHIPPED)
        *head, last = rng.choice(sites)
        node = data
        for key in head:
            node = node[key]
        node[last] = rng.choice(MUTATIONS)(node[last])
        path.write_text(json.dumps(data))
        p, curve = str(rng.choice(primes)), rng.choice(curves)
        for argv in (["split", "--field", rng.choice(fields), "--p", p],
                     ["invariants", "--curve", curve, "--p", p],
                     ["verify", "--curve", curve, "--p", p],
                     ["generate", "--curve", curve, "--type", rng.choice(types),
                      "--bits", str(rng.randint(8, 32))]):
            start = time.perf_counter()
            code, out, _ = run(capsys, *argv, "--catalog", str(path), "--json")
            assert time.perf_counter() - start < COMMAND_SECONDS, (head, last, argv)
            assert code in (0, 2, 3, 4, 5), (head, last, argv)
            assert json.loads(out)["command"] == argv[0]


def write_user_cyclotomic_catalog(tmp_path):
    # fields named like the family's, with no conductor data
    data = json.loads(SHIPPED)
    data["fields"] += [
        {"label": "cyclotomic-7", "two_g": 6, "discriminant": -16807,
         "defining_polys": [[1] * 7]},
        {"label": "cyclotomic-9", "two_g": 6, "discriminant": -(3**9),
         "defining_polys": [[1, 0, 0, 1, 0, 0, 1]]},
    ]
    path = tmp_path / "cyclo.json"
    path.write_text(json.dumps(data))
    return path


def test_user_cyclotomic_field_without_conductor(capsys, tmp_path):
    # the CM type of cyclo-l comes from l itself, not from the conductor of
    # whatever field the catalog file names cyclotomic-l
    path = write_user_cyclotomic_catalog(tmp_path)
    record = catalog_load(path).record("cyclo-7")
    assert record.field.conductor is None
    assert record.cm_type.exponents == frozenset({0, 1, 2})
    code, out, _ = run(capsys, "verify", "--curve", "cyclo-7", "--p", "29",
                       "--catalog", str(path))
    assert code == 0
    assert "1 verified, 0 mismatches" in out


def test_user_cyclotomic_field_does_not_extend_the_family(capsys, tmp_path):
    # a field named cyclotomic-9 does not make 9 a member of the family
    path = write_user_cyclotomic_catalog(tmp_path)
    code, _, err = run(capsys, "verify", "--curve", "cyclo-9", "--p", "29",
                       "--catalog", str(path))
    assert code == 3
    assert "needs an odd prime, got 9" in err


def test_split_auto_without_conductor_factors(capsys, tmp_path):
    # auto takes the residue route only when the field has a conductor
    path = write_user_cyclotomic_catalog(tmp_path)
    argv = ["split", "--field", "cyclotomic-7", "--p", "29", "--catalog", str(path)]
    code, doc, _ = run_json(capsys, *argv)
    assert code == 0
    assert doc["result"]["method"] == "factor"
    assert doc["result"]["num_primes"] == 6
    code, doc, _ = run_json(capsys, *argv, "--method", "residue")
    assert code == 3
    assert doc["error"]["type"] == "MissingDataError"


def test_field_whose_polynomials_miss_its_degree_is_refused(capsys, tmp_path):
    # x^6 + x^3 + 1 generates Q(zeta_9), of degree 6, not the 8 the entry claims
    data = json.loads(SHIPPED)
    data["fields"].append({"label": "cyclotomic-9", "two_g": 8, "discriminant": 3**10,
                           "defining_polys": [[1, 0, 0, 1, 0, 0, 1]]})
    path = tmp_path / "degree.json"
    path.write_text(json.dumps(data))
    code, doc, _ = run_json(capsys, "split", "--field", "cyclotomic-9", "--p", "13",
                            "--catalog", str(path))
    assert code == 3
    assert doc["error"]["type"] == "CatalogError"
    assert doc["error"]["message"] == (
        f"fields[{len(data['fields']) - 1}]: CyclicCMField: defining polynomials give degree 6,"
        " not 8")


@pytest.mark.parametrize("argv", [
    ("split", "--field", "quartic-5-65-845", "--p", "19", "--method", "stickelberger"),
    ("generate", "--curve", "wamelen-c1", "--type", "ssing-non-sspec", "--bits", "64",
     "--seed", "3"),
])
def test_field_with_a_negated_discriminant_is_refused(capsys, tmp_path, argv):
    # a quartic CM field has two pairs of complex embeddings, so D > 0; read
    # with -D, Stickelberger answered "odd" at an inert p (exit 0) and generate
    # drew a prime that failed its own target (exit 6)
    data = json.loads(SHIPPED)
    data["fields"][0]["discriminant"] = -21125
    path = tmp_path / "negated.json"
    path.write_text(json.dumps(data))
    code, doc, _ = run_json(capsys, *argv, "--catalog", str(path))
    assert code == 3
    assert doc["error"]["type"] == "CatalogError"
    assert doc["error"]["message"] == (
        "fields[0]: CyclicCMField: discriminant -21125 of a degree-4 CM field must have"
        " sign (-1)^2")


def test_verify_falls_back_to_residues_at_an_index_divisor(capsys, tmp_path):
    # x^2 + 9 = x^2 mod 3 although 3 is unramified in Q(i): the residue of 3
    # mod the conductor 4 makes it inert, and y^2 = x^3 - x is supersingular
    data = json.loads(SHIPPED)
    data["fields"].append({"label": "gauss", "two_g": 2, "discriminant": -4,
                           "defining_polys": [[9, 0, 1]], "conductor": 4})
    data["curves"].append({"label": "y2-x3-x", "genus": 1, "f_coeffs": [0, -1, 0, 1],
                           "field_label": "gauss", "provenance": "CM by Z[i]",
                           "cm_type": [0]})
    path = tmp_path / "gauss.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "--curve", "y2-x3-x", "--p", "3", "--catalog", str(path))
    assert code == 0
    assert out.splitlines()[0].split() == ["p=3", "l=1", "predicted", "(0,1)", "computed",
                                           "(0,1)", "ok"]


def test_verify_skips_a_splitting_no_theorem_covers(capsys):
    # g = 5 and m = 2: strictly between the ends above genus 3
    code, out, _ = run(capsys, "verify", "--curve", "cyclo-11", "--p", "3")
    assert code == 0
    assert out.splitlines() == ["  p=3       l=2   predicted -      computed (0,2)  skip",
                                "0 verified, 0 mismatches"]
    code, doc, _ = run_json(capsys, "verify", "--curve", "cyclo-11", "--p", "3")
    assert doc["result"]["rows"][0]["notes"] == [
        "no covering reduction theorem for this splitting"]


def unreadable_catalog(tmp_path, kind):
    if kind == "missing":
        return tmp_path / "nonexistent.json"
    if kind == "directory":
        return tmp_path
    path = tmp_path / f"{kind}.json"
    if kind == "undecodable":
        path.write_bytes(b"\xff\xfe" + SHIPPED.encode())
    elif kind == "invalid":
        path.write_text(SHIPPED.rstrip()[:-1])  # without its closing brace
    else:  # valid JSON nested deeper than the parser recurses
        path.write_text("[" * 200_000 + "]" * 200_000)
    return path


@pytest.mark.parametrize("via", ["flag", "env"])
@pytest.mark.parametrize("kind", ["missing", "directory", "undecodable", "nested", "invalid"])
def test_unreadable_catalog_exit_3(capsys, tmp_path, monkeypatch, kind, via):
    path = unreadable_catalog(tmp_path, kind)
    argv = ["split", "--field", "cyclotomic-5", "--p", "7", "--json"]
    if via == "flag":
        argv += ["--catalog", str(path)]
    else:
        monkeypatch.setenv("CM_REDUCE_CATALOG", str(path))
    code, out, err = run(capsys, *argv)
    assert code == 3
    doc = json.loads(out)
    assert doc["command"] == "split"
    assert doc["error"]["type"] == "CatalogError"
    want = "catalog is not valid JSON: " if kind == "invalid" else f"cannot read catalog {path}: "
    assert doc["error"]["message"].startswith(want)
    assert err.startswith(f"error: {want}")


def test_catalog_env_variable(capsys, tmp_path, monkeypatch):
    path = make_imposter_catalog(tmp_path)
    monkeypatch.setenv("CM_REDUCE_CATALOG", str(path))
    code, doc, _ = run_json(capsys, "invariants", "--curve", "imposter", "--p", "3")
    assert code == 0
    assert doc["result"]["p_rank"] == 0
    # explicit flag beats the environment
    code, _, err = run(capsys, "invariants", "--curve", "weng-g3", "--p", "13",
                       "--catalog", str(path))
    assert code == 3 and "weng-g3" in err


def test_console_script_runs(src_env):
    proc = subprocess.run(
        [sys.executable, "-m", "cmreduce.cli", "count-types", "--g", "3"],
        env=src_env, capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "2 classes" in proc.stdout


def test_prediction_commands_do_not_load_numpy(src_env):
    # numpy is imported by the functions that build arrays, so only the
    # curve invariants pay for it
    script = f"""
import sys
import cmreduce, cmreduce.cli
assert "numpy" not in sys.modules, "import"
for argv in (
    ["split", "--field", "sextic-5-2", "--p", "{P128}"],
    ["count-types", "--g", "10", "--enumerate"],
    ["generate", "--curve", "weng-g3", "--type", "superspecial", "--bits", "128"],
):
    assert cmreduce.cli.main(argv) == 0, argv
    assert "numpy" not in sys.modules, argv
assert cmreduce.cli.main(["invariants", "--curve", "weng-g3", "--p", "101", "--json"]) == 0
assert "numpy" in sys.modules, "invariants"
"""
    proc = subprocess.run([sys.executable, "-c", script], env=src_env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# argv lines for help, usage errors and each command's arguments
PARSE_CORPUS = [
    ["--help"], ["-h"], ["-h", "verify"], [],
    *([name, "--help"] for name in ("count-types", "split", "invariants", "generate", "verify")),
    ["bogus"], ["bogus", "--curve", "cyclo-5"], ["-5", "verify"], ["--json"],
    ["--json", "verify", "--curve", "cyclo-5", "--p", "11"],
    ["--", "verify", "--curve", "cyclo-5", "--p", "11"],
    ["verify", "--cur", "cyclo-5", "--p", "11", "--json"],
    ["verify", "--curve", "cyclo-5"],
    ["count-types", "--g", "x"],
    ["count-types", "--g", "0"],
    ["count-types", "--g", "6", "--enumerate", "--primitive"],
    ["count-types", "--g", "3", "extra"],
    ["split", "--field", "cyclotomic-5", "--p", "11", "--method", "nope"],
    ["split", "--field", "cyclotomic-5", "--p", "11", "--method", "factor"],
    ["invariants", "--curve", "cyclo-5"],
    ["generate", "--curve", "weng-g3", "--type", "ordinary", "--bits", "64",
     "--catalog", "c.json"],
]


class _Built(Exception):
    pass


def parsed(parser, argv, capsys):
    try:
        outcome = parser.parse_args(argv)
    except SystemExit as e:
        outcome = e.code
    return outcome, capsys.readouterr()


@pytest.mark.parametrize("argv", PARSE_CORPUS, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_command_parser_parses_like_the_full_one(capsys, monkeypatch, argv):
    # the Namespace, or the exit code with stdout and stderr, of the parser main
    # builds for argv against the full tree's, in one process
    built = []

    def stop(command=None):
        built.append(command)
        raise _Built

    monkeypatch.setattr(cli, "build_parser", stop)
    with pytest.raises(_Built):
        main(argv)
    monkeypatch.undo()
    mine = parsed(cli.build_parser(*built), argv, capsys)
    assert mine == parsed(cli.build_parser(), argv, capsys)


@pytest.mark.parametrize("command", [None, *cli._COMMANDS])
def test_build_parser_adds_arguments_only_to_its_command(command):
    # every command registers its name and help; only `command` gets a parser
    sub = next(a for a in cli.build_parser(command)._actions
               if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(cli._COMMANDS)
    assert [a.dest for a in sub._choices_actions] == list(cli._COMMANDS)
    for name, parser in sub.choices.items():
        if command not in (None, name):
            assert parser is None, name
            continue
        flags = [a.option_strings[-1] for a in parser._actions[1:]]  # after --help
        _, _, arguments = cli._COMMANDS[name]
        assert flags == [f for f, _ in cli._COMMON + arguments], name
        assert parser.prog == f"cmreduce {name}"

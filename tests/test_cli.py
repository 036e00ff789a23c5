"""Console entry point: subcommands, JSON envelopes, exit codes."""

import json
import subprocess
import sys
from collections import Counter
from importlib import resources

import pytest

from cmreduce import (
    InternalInconsistencyError,
    catalog_load,
    cm_types,
    count_E,
    count_E_primitive,
    ff_arith,
    invariants,
)
from cmreduce.cli import main
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


def test_split_non_prime(capsys):
    # each route refuses p itself
    for method in ("residue", "factor", "stickelberger", "auto"):
        code, _, err = run(capsys, "split", "--field", "cyclotomic-5", "--p", "21",
                           "--method", method)
        assert code == 3, method
        assert "21 is not prime" in err, method


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


def test_invariants_text_formats_l_polynomial(capsys):
    code, out, _ = run(capsys, "invariants", "--curve", "weng-g3", "--p", "43")
    assert code == 0
    assert "L(T) = 79507T^6 + 5547T^4 + 129T^2 + 1" in out
    assert "p-rank 0, a-number 3" in out


def test_invariants_counts_points_once(capsys, monkeypatch):
    # the L-polynomial comes with the profile: one point count per k <= g,
    # and one Cartier-Manin matrix serves both the p-rank and the a-number
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
        (["invariants", "--curve", "weng-g3", "--p", "59"], [1, 2, 3]),
        (["verify", "--curve", "weng-g3", "--p", "59"], [1, 2, 3]),
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
        if argv[0] == "invariants":
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
    # every entry checks p itself, but the Miller-Rabin rounds run once
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
    extra = ff_arith._MR_EXTRA_ROUNDS if p >= ff_arith._MR_DET_BOUND else 0
    assert rounds[p] == len(ff_arith._MR_BASES) + extra


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


def test_generate_text_skips_verification_for_large_p(capsys):
    code, out, _ = run(capsys, "generate", "--curve", "wamelen-c1",
                       "--type", "ssing-non-sspec", "--bits", "24")
    assert code == 0
    assert "verified: skipped" in out


def test_verify_single_prime_json(capsys):
    code, doc, _ = run_json(capsys, "verify", "--curve", "weng-g3", "--p", "13")
    assert code == 0
    rows = doc["result"]["rows"]
    assert len(rows) == 1
    assert rows[0]["predicted"] == [3, 0]
    assert rows[0]["computed"] == [3, 0]
    assert rows[0]["match"] is True
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


def write_user_cyclotomic_catalog(tmp_path):
    # fields named like the family's, with no conductor data
    data = json.loads(SHIPPED)
    data["fields"] += [
        {"label": "cyclotomic-7", "two_g": 6, "discriminant": -16807,
         "defining_polys": [[1] * 7]},
        {"label": "cyclotomic-9", "two_g": 8, "discriminant": 3**10,
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

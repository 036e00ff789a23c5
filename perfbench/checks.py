"""Correctness checks for one op's JSON envelope, each against a route other
than the one that produced the answer.

The reference route is the benchmark's own: its residue-class splitting,
its Miller-Rabin, its bad-prime test and its reduction of the catalog
polynomials (all in workloads.py), with the reduction theorems applied
through the program's public `predict_for_genus`. The program's own answer
comes from factoring defining polynomials, Cartier-Manin matrices or point
counts, so agreement is evidence, not a tautology.

Importing this module imports cmreduce, so the worker imports it only after
timing the package's own import.
"""

import hashlib
import json

from cmreduce import SplittingType, predict_for_genus
from workloads import (
    CURVES,
    FIELDS,
    TARGET_PRIMES,
    VERIFY_CAP,
    is_bad_prime,
    is_probable_prime,
    reduce_mod,
    residue_split,
)

EXIT_OK = 0
EXIT_DOMAIN = 3
SLOPE_EDGE = 1 << 21  # p^g at or below this has its L-polynomial computed


def digest(op, code, doc):
    """Short hash of an op's canonical output."""
    text = json.dumps([op["argv"], code, doc], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class CheckFailed(Exception):
    pass


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _residue_route(field, p):
    """Splitting by residue class, or None when p divides the conductor."""
    if FIELDS[field][1] % p == 0:
        return None
    return residue_split(field, p)


def _check_fa(curve, p, f, a):
    """(p-rank, a-number) against the theorem applied to the residue-route
    splitting, where that prediction is exact."""
    genus, _, field = CURVES[curve]
    split = _residue_route(field, p)
    if split is None:
        return
    pred = predict_for_genus(genus, SplittingType(*split))
    if pred.certainty == "exact":
        want = (pred.profile.p_rank, pred.profile.a_number)
        _require((f, a) == want, f"computed (f, a) = {(f, a)}, residue route predicts {want}")


def _check_slopes(curve, p, f, slopes):
    genus = CURVES[curve][0]
    if p**genus <= SLOPE_EDGE:
        _require(slopes is not None, "slopes missing below the slope edge")
    if slopes is not None:
        _require(len(slopes) == 2 * genus, f"{len(slopes)} slopes for genus {genus}")
        zeros = sum(1 for s in slopes if s == "0")
        _require(zeros == f, f"{zeros} zero slopes but p-rank {f}")


def _check_verify(res, op):
    curve, p = op["curve"], op["p"]
    _require(res["curve"] == curve and len(res["rows"]) == 1, "unexpected verify rows")
    row = res["rows"][0]
    _require(row["p"] == p, "verify row for another prime")
    _require(row["match"] is not False, "prediction does not match computed invariants")
    f, a = row["computed"]
    genus, _, field = CURVES[curve]
    split = _residue_route(field, p)
    if split is not None:
        # the program falls back to residues when factoring fails, so it
        # gives no splitting only where p divides the conductor
        _require(row["splitting"] is not None, "no splitting at an unramified prime")
        got = (row["splitting"]["num_primes"], row["splitting"]["inertia_degree"])
        _require(got == split, f"splitting {got}, residue route gives {split}")
        if predict_for_genus(genus, SplittingType(*split)).profile is not None:
            _require(row["match"] is not None, "no match verdict though a theorem applies")
    _check_slopes(curve, p, f, row["slopes"])
    _check_fa(curve, p, f, a)


def _check_invariants(res, op):
    curve, p = op["curve"], op["p"]
    genus = CURVES[curve][0]
    _require(res["curve"] == curve and res["p"] == p and res["genus"] == genus,
             "invariants for another curve or prime")
    _require(res["f_coeffs_mod_p"] == reduce_mod(curve, p), "reduced polynomial differs")
    lpoly = res["l_polynomial"]
    if lpoly is not None:
        _require(len(lpoly) == 2 * genus + 1 and lpoly[0] == 1, "malformed L-polynomial")
        for i in range(1, genus + 1):
            _require(lpoly[genus + i] == p**i * lpoly[genus - i],
                     "L-polynomial breaks the functional equation")
    _check_slopes(curve, p, res["p_rank"], res["slopes"])
    _check_fa(curve, p, res["p_rank"], res["a_number"])


def _check_generate(res, op):
    curve, bits = op["curve"], op["bits"]
    genus, _, field = CURVES[curve]
    p = res["p"]
    _require(res["curve"] == curve and res["bits"] == bits, "generate for another request")
    _require(1 << bits <= p < 1 << (bits + 1), f"p = {p} outside [2^{bits}, 2^{bits + 1})")
    _require(is_probable_prime(p), f"p = {p} is composite")
    _require(not is_bad_prime(curve, p), f"generated a bad prime {p}")
    split = _residue_route(field, p)
    want = TARGET_PRIMES[op["target"]](genus)
    _require(split is not None and split[0] == want,
             f"residue route splits p into {split}, target needs {want} primes")
    _require(res["reduced_curve"]["f_coeffs"] == reduce_mod(curve, p), "reduced polynomial differs")
    pred = predict_for_genus(genus, SplittingType(*split))
    got = res["prediction"]
    _require(got["certainty"] == pred.certainty, "prediction certainty differs")
    if pred.profile is not None:
        want_fa = [pred.profile.p_rank, pred.profile.a_number]
        _require([got["profile"]["p_rank"], got["profile"]["a_number"]] == want_fa,
                 "prediction differs from the residue route")
        verified = res["verified_profile"]
        if p < VERIFY_CAP:
            _require(verified is not None
                     and [verified["p_rank"], verified["a_number"]] == want_fa,
                     "verified profile differs from the prediction")
    if p >= VERIFY_CAP:
        _require(res["verified_profile"] is None, "verified a prime above the cap")


def _check_split(res, op):
    field, p = op["field"], op["p"]
    _require(res["field"] == field and res["p"] == p, "split for another field or prime")
    num, inertia = residue_split(field, p)
    if op["method"] == "stickelberger":
        _require(res["parity"] == num % 2, f"parity {res['parity']} but {num} primes")
    else:
        got = (res["num_primes"], res["inertia_degree"])
        _require(got == (num, inertia), f"{op['method']} gives {got}, residue route {(num, inertia)}")


def _check_count_types(res, op):
    classes = res["classes"]
    _require(res["g"] == op["g"], "count for another g")
    _require(len(classes) == res["total"], f"{len(classes)} classes listed, total {res['total']}")
    prim = sum(1 for c in classes if c["primitive"])
    _require(prim == res["primitive"] and res["total"] == prim + res["imprimitive"],
             "primitive and imprimitive counts disagree with the listing")


_CHECKS = {
    "verify": _check_verify,
    "invariants": _check_invariants,
    "generate": _check_generate,
    "split": _check_split,
    "count-types": _check_count_types,
}


def check_op(op, code, doc):
    """Raise CheckFailed unless the op's exit code and envelope are right."""
    if op["kind"] in ("verify", "invariants") and is_bad_prime(op["curve"], op["p"]):
        _require(code == EXIT_DOMAIN and doc.get("error", {}).get("type") == "BadReductionError",
                 f"bad prime {op['p']} not refused (exit {code})")
        return
    _require(code == EXIT_OK, f"exit {code}: {doc.get('error')}")
    _require(doc.get("schema_version") == 1 and doc.get("command") == op["kind"],
             "malformed envelope")
    _CHECKS[op["kind"]](doc["result"], op)

"""Curve catalog, reduction mod p, prime-searching construction, and
end-to-end verification of predictions against computed invariants.

The shipped catalog holds the CM curves and fields every other module is
exercised against; members of the y^2 = x^l - 1 family are synthesized on
demand for odd primes l. The catalog file is versioned JSON, checked key by
key as it loads.
"""

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .cm_types import CMType
from .errors import (
    BadReductionError,
    CatalogError,
    DomainError,
    InternalInconsistencyError,
    NotSquarefreeError,
    ResourceLimitError,
)
from .ff_arith import is_prime, kronecker
from .invariants import ReducedCurve, reduction_profile
from .predictor import predict_for_genus
from .splitting import (
    CyclicCMField,
    find_prime,
    split_by_factorization,
    split_by_residue,
    unit_quotient_log,
)

CATALOG_VERSION = 1
VERIFY_CAP = 1 << 20
_GENERATE_RETRIES = 64
_CYCLO_LABEL = re.compile(r"cyclo-(\d+)\Z")
_CYCLO_FIELD_LABEL = re.compile(r"cyclotomic-(\d+)\Z")


def _rational_squarefree(coeffs):
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


@dataclass(frozen=True)
class CMCurveRecord:
    label: str
    genus: int
    f_coeffs: tuple
    field: CyclicCMField
    provenance: str
    cm_type: CMType | None = None

    def __post_init__(self):
        d = len(self.f_coeffs) - 1
        if self.genus < 1 or d not in (2 * self.genus + 1, 2 * self.genus + 2):
            raise CatalogError(
                f"{self.label}: degree {d} does not fit genus {self.genus}"
            )
        if self.f_coeffs[-1] == 0:
            raise CatalogError(f"{self.label}: leading coefficient is zero")
        if not _rational_squarefree(list(self.f_coeffs)):
            raise CatalogError(f"{self.label}: f has a repeated rational root")
        if self.field.two_g != 2 * self.genus:
            raise CatalogError(
                f"{self.label}: field degree {self.field.two_g} is not 2*genus"
            )
        if self.cm_type is not None and self.cm_type.g != self.genus:
            raise CatalogError(f"{self.label}: CM type size does not match genus")


def _check_cyclo(ell):
    if ell < 3 or not is_prime(ell):
        raise CatalogError(f"cyclotomic family needs an odd prime, got {ell}")


def _cyclo_field(ell):
    _check_cyclo(ell)
    disc = (-1) ** ((ell - 1) // 2) * ell ** (ell - 2)
    return CyclicCMField(
        label=f"cyclotomic-{ell}",
        two_g=ell - 1,
        discriminant=disc,
        defining_polys=[[1] * ell],
        conductor=ell,
    )


def _cyclo_record(ell, field):
    _check_cyclo(ell)  # a catalog file may define the field cyclotomic-ell itself
    # CM exponents: the discrete logs of 1..g to the least primitive root mod ell
    g, log = (ell - 1) // 2, unit_quotient_log(ell, {1}, ell - 1)
    coeffs = tuple([-1] + [0] * (ell - 1) + [1])
    return CMCurveRecord(
        label=f"cyclo-{ell}",
        genus=g,
        f_coeffs=coeffs,
        field=field,
        provenance=f"cyclotomic family y^2 = x^l - 1, l = {ell}",
        cm_type=CMType.from_exponents(g, {log[a] for a in range(1, g + 1)}),
    )


class Catalog:
    def __init__(self, fields, curves):
        self.fields = {f.label: f for f in fields}
        self.curves = {c.label: c for c in curves}
        self._synth_fields = {}
        self._synth_curves = {}

    def field(self, label):
        if label in self.fields:
            return self.fields[label]
        if label in self._synth_fields:
            return self._synth_fields[label]
        m = _CYCLO_FIELD_LABEL.match(label)
        if m:
            f = _cyclo_field(int(m.group(1)))
            self._synth_fields[label] = f
            return f
        raise CatalogError(f"unknown field label {label!r}")

    def record(self, label):
        if label in self.curves:
            return self.curves[label]
        if label in self._synth_curves:
            return self._synth_curves[label]
        m = _CYCLO_LABEL.match(label)
        if m:
            ell = int(m.group(1))
            c = _cyclo_record(ell, self.field(f"cyclotomic-{ell}"))
            self._synth_curves[label] = c
            return c
        raise CatalogError(f"unknown curve label {label!r}")


def _require(cond, where, msg):
    if not cond:
        raise CatalogError(f"{where}: {msg}")


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_ints(x):
    return isinstance(x, list) and all(map(_is_int, x))


def _require_entry(raw, where, required, optional):
    """Every required key is set (present, not null), and every set key has one
    JSON type: strings for labels and provenance, integer lists, or ints."""
    _require(isinstance(raw, dict), where, "must be an object")
    for key in required + optional:
        v = raw.get(key)
        _require(v is not None or key in optional, where, f"missing {key}")
        if key in ("label", "field_label", "provenance"):
            ok, kind = isinstance(v, str), "a string"
        elif key == "defining_polys":
            ok, kind = isinstance(v, list) and all(map(_is_ints, v)), "a list of integer lists"
        elif key in ("f_coeffs", "H_generators", "cm_type"):
            ok, kind = _is_ints(v), "a list of integers"
        else:
            ok, kind = _is_int(v), "an integer"
        _require(ok or v is None, where, f"{key} must be {kind}")


def catalog_load(path=None):
    """Catalog from a JSON file; the packaged one when no path is given."""
    if path is None:
        text = resources.files("cmreduce").joinpath("catalog.json").read_text()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise CatalogError(f"catalog is not valid JSON: {e}") from e
    _require(isinstance(data, dict), "catalog", "top level must be an object")
    _require(_is_int(data.get("version")) and data["version"] == CATALOG_VERSION, "catalog",
             f"version must be {CATALOG_VERSION}")
    raw_fields = data.get("fields")
    raw_curves = data.get("curves")
    _require(isinstance(raw_fields, list), "catalog", "fields must be a list")
    _require(isinstance(raw_curves, list), "catalog", "curves must be a list")
    fields = []
    for i, rf in enumerate(raw_fields):
        where = f"fields[{i}]"
        _require_entry(rf, where, ("label", "two_g", "discriminant", "defining_polys"),
                       ("conductor", "H_generators"))
        try:
            fields.append(
                CyclicCMField(
                    label=rf["label"],
                    two_g=rf["two_g"],
                    discriminant=rf["discriminant"],
                    defining_polys=rf["defining_polys"],
                    conductor=rf.get("conductor"),
                    h_generators=rf.get("H_generators"),
                )
            )
        except DomainError as e:
            raise CatalogError(f"{where}: {e}") from e
    by_label = {f.label: f for f in fields}
    _require(len(by_label) == len(fields), "catalog", "duplicate field labels")
    curves = []
    for i, rc in enumerate(raw_curves):
        where = f"curves[{i}]"
        _require_entry(rc, where, ("label", "genus", "f_coeffs", "field_label", "provenance"),
                       ("cm_type",))
        _require(rc["field_label"] in by_label, where,
                 f"unknown field_label {rc['field_label']!r}")
        exponents = rc.get("cm_type")
        try:
            curves.append(
                CMCurveRecord(
                    label=rc["label"],
                    genus=rc["genus"],
                    f_coeffs=tuple(rc["f_coeffs"]),
                    field=by_label[rc["field_label"]],
                    provenance=rc["provenance"],
                    # a CM type has one exponent per conjugate pair: g of them
                    cm_type=None if exponents is None
                    else CMType.from_exponents(len(exponents), exponents),
                )
            )
        except DomainError as e:
            raise CatalogError(f"{where}: {e}") from e
    labels = {c.label for c in curves}
    _require(len(labels) == len(curves), "catalog", "duplicate curve labels")
    return Catalog(fields, curves)


def reduce_curve(record, p):
    """The stored model mod p; bad reduction (vanishing leading coefficient,
    repeated roots, characteristic 2) is refused by ReducedCurve."""
    return ReducedCurve(p, record.f_coeffs)


def _split_auto(field, p):
    """Factorization oracle with residue fallback; None when p is ramified
    or an index divisor for every available route."""
    try:
        return split_by_factorization(field, p)
    except NotSquarefreeError:
        if field.conductor is not None and math.gcd(p, field.conductor) == 1:
            return split_by_residue(field, p)
        return None


def _normalize_target(name):
    t = name.strip().lower().replace(" ", "-").replace("_", "-")
    aliases = {
        "ssing-non-sspec": "supersingular-non-superspecial",
        "supersingular-non-superspecial": "supersingular-non-superspecial",
        "ordinary": "ordinary",
        "superspecial": "superspecial",
        "supersingular": "supersingular",
    }
    if t not in aliases:
        raise DomainError(
            f"unknown target type {name!r}; use ordinary, superspecial,"
            " supersingular (g = 1), or ssing-non-sspec (g = 2)"
        )
    return aliases[t]


def _resolve_target(record, target_type):
    """(normalized name, find_prime target) for this record's genus."""
    t = _normalize_target(target_type)
    g = record.genus
    if t == "ordinary":
        return t, 2 * g
    if t == "superspecial":
        return t, g
    if t == "supersingular":
        if g == 1:
            return t, 1
        raise DomainError(
            "supersingular is ambiguous above genus 1; ask for superspecial"
            " or ssing-non-sspec"
        )
    # supersingular non-superspecial: inert primes, reached through the
    # Kronecker-symbol shortcut on quartic fields
    if g != 2:
        raise DomainError(
            "ssing-non-sspec generation is only supported at genus 2"
        )
    return t, ("kronecker", -1)


def _meets_target(field, target, p, split):
    """Whether the prime p meets a resolved target. split is _split_auto's
    verdict at p; a Kronecker target also holds where there is none."""
    if isinstance(target, tuple):
        return kronecker(field.discriminant, p) == -1 and (
            split is None or split.num_primes == 1)
    return split is not None and split.num_primes == target


def generation_predicate(record, target_type):
    """The predicate a generated prime must satisfy, reusable post hoc."""
    _, target = _resolve_target(record, target_type)
    field = record.field

    def check(p):
        return is_prime(p) and _meets_target(field, target, p, _split_auto(field, p))

    return check


@dataclass(frozen=True)
class GenerationResult:
    p: int
    curve: ReducedCurve
    prediction: object
    verified_profile: object
    target_type: str


def generate(record, target_type, bit_size, seed=0):
    """A prime of the requested size and splitting behaviour together with
    the reduced curve and its predicted type; invariants are verified when
    the prime is small enough."""
    name, target = _resolve_target(record, target_type)
    p = None
    curve = None
    for attempt in range(_GENERATE_RETRIES):
        p = find_prime(record.field, target, bit_size, seed=f"{seed}.{attempt}")
        try:
            curve = reduce_curve(record, p)
            break
        except BadReductionError:
            continue
    if curve is None:
        raise BadReductionError(
            p, f"no good-reduction prime in {_GENERATE_RETRIES} prime searches"
        )
    # find_prime chose p by residue class or Kronecker symbol; the split
    # cross-checks it
    split = _split_auto(record.field, p)
    if not _meets_target(record.field, target, p, split):
        raise InternalInconsistencyError(
            f"generated prime {p} fails its own target predicate"
        )
    if split is None:
        raise InternalInconsistencyError(
            f"generated prime {p} has no splitting verdict"
        )
    prediction = predict_for_genus(record.genus, split)
    verified = None
    if p < VERIFY_CAP:
        verified = reduction_profile(curve)
        want = prediction.profile
        if want is not None and (verified.p_rank, verified.a_number) != (
            want.p_rank,
            want.a_number,
        ):
            raise InternalInconsistencyError(
                f"{record.label} at p = {p}: computed ({verified.p_rank},"
                f" {verified.a_number}) contradicts the prediction"
            )
    return GenerationResult(p, curve, prediction, verified, name)


@dataclass(frozen=True)
class VerifyReport:
    p: int
    splitting: object
    prediction: object
    profile: object
    match: bool | None
    notes: tuple


def verify(record, p):
    """Prediction against computed invariants at one prime.

    The match verdict compares (p-rank, a-number); it is None when no
    prediction applies (ramified or index-divisor p, or a splitting shape
    the theorems do not cover).
    """
    if p >= VERIFY_CAP:
        raise ResourceLimitError(f"verify: p must be below {VERIFY_CAP}")
    curve = reduce_curve(record, p)
    profile = reduction_profile(curve)
    notes = []
    split = _split_auto(record.field, p)
    prediction = None
    match = None
    if split is None:
        notes.append("p is ramified or an index divisor; prediction skipped")
    else:
        prediction = predict_for_genus(record.genus, split)
        if prediction.profile is None:
            notes.append("no covering reduction theorem for this splitting")
        else:
            want = prediction.profile
            match = (profile.p_rank, profile.a_number) == (
                want.p_rank,
                want.a_number,
            )
            if prediction.certainty == "partial":
                notes.append("prediction is partial: only (f, a) is pinned")
    half = Fraction(1, 2)
    if (
        profile.slopes is not None
        and profile.p_rank == 0
        and profile.a_number < curve.genus
        and all(s == half for s in profile.slopes)
    ):
        notes.append(
            "supersingular outlier: slopes all 1/2 without superspeciality"
        )
    if " or " in profile.group_scheme:
        notes.append("group scheme not separated by (f, a, slopes)")
    return VerifyReport(p, split, prediction, profile, match, tuple(notes))


@dataclass(frozen=True)
class SweepResult:
    label: str
    pmax: int
    reports: tuple
    bad_primes: tuple

    @property
    def mismatches(self):
        return [r.p for r in self.reports if r.match is False]

    @property
    def verified(self):
        return sum(1 for r in self.reports if r.match is not None)


def sweep(record, pmax):
    """verify() per good prime p <= pmax, ascending; bad-reduction primes
    are collected, not verified."""
    if pmax >= VERIFY_CAP:
        raise ResourceLimitError(f"sweep: pmax must be below {VERIFY_CAP}")
    reports = []
    bad = []
    for p in range(2, pmax + 1):
        if not is_prime(p):
            continue
        try:
            reports.append(verify(record, p))
        except BadReductionError:
            bad.append(p)
    return SweepResult(record.label, pmax, tuple(reports), tuple(bad))

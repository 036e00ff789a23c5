"""Curve catalog, reduction mod p, prime-searching construction, and
end-to-end verification of predictions against computed invariants.

The shipped catalog holds the CM curves and fields every other module is
exercised against; members of the y^2 = x^l - 1 family are synthesized on
demand for odd primes l. The catalog file is versioned JSON, its shape checked
as it loads and each record on its first lookup (a user catalog's at load).
"""

import json
import math
import re
from dataclasses import dataclass
from importlib import resources
from itertools import count

from .cm_types import COUNT_CAP, CMType
from .errors import (
    BadReductionError,
    CatalogError,
    DomainError,
    InternalInconsistencyError,
    NotSquarefreeError,
    ResourceLimitError,
)
from .ff_arith import is_prime, kronecker, poly_deriv, poly_gcd
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
BITS_CAP = 1024  # largest bit size generate searches
_GENERATE_RETRIES = 64
_FIELD_CHECK_PRIMES = 8  # primes at which a user catalog's two field descriptions must agree


def _rational_squarefree(coeffs):
    """Res(f, f') != 0. One prime p not dividing lc(f) with gcd(f, f') = 1 mod p
    shows it; primes that see a repeated factor each divide Res, so once their
    product passes sqrt(B), B = |f|^(2(n-1)) |f'|^(2n) >= Res^2 (Hadamard's
    bound on the Sylvester matrix), Res = 0."""
    n, df = len(coeffs) - 1, [i * c for i, c in enumerate(coeffs)][1:]
    bound = sum(c * c for c in coeffs) ** (n - 1) * sum(c * c for c in df) ** n
    p, seen = 1, 1
    while seen * seen <= bound:
        p += 1
        if coeffs[-1] % p and is_prime(p):
            if poly_gcd(coeffs, poly_deriv(coeffs, p), p) == [1]:
                return True
            seen *= p
    return False


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


def _family_ell(family, label):
    """(family-l, l) for a label family-l, l in ASCII digits, else (label, None).
    An l with (l - 1) / 2 above COUNT_CAP is refused from the length of its
    digits, before int() reads them."""
    m = re.fullmatch(family + r"-([0-9]+)", label)
    if m is None:
        return label, None
    digits = m.group(1).lstrip("0") or "0"
    if len(digits) > len(str(2 * COUNT_CAP + 1)) or int(digits) > 2 * COUNT_CAP + 1:
        raise ResourceLimitError(f"cyclotomic family: l capped at {2 * COUNT_CAP + 1}")
    return f"{family}-{digits}", int(digits)


def _cyclo_field(ell):
    return {"label": f"cyclotomic-{ell}", "two_g": ell - 1,
            "discriminant": (-1) ** ((ell - 1) // 2) * ell ** (ell - 2),
            "defining_polys": [[1] * ell], "conductor": ell}


def _cyclo_record(ell):
    # CM exponents: the discrete logs of 1..g to the least primitive root mod ell
    g, log = (ell - 1) // 2, unit_quotient_log(ell, {1}, ell - 1)
    return {"label": f"cyclo-{ell}", "genus": g, "f_coeffs": [-1] + [0] * (ell - 1) + [1],
            "field_label": f"cyclotomic-{ell}",
            "provenance": f"cyclotomic family y^2 = x^l - 1, l = {ell}",
            "cm_type": [log[a] for a in range(1, g + 1)]}


class Catalog:
    """fields and curves map each listed label to its JSON entry, in file order.
    field() and record() build a listed or family (cyclotomic-l, cyclo-l) entry
    on its first lookup, with every check of its kind, and hand the same object
    back after; a listed member answers to cyclo-05 as to cyclo-5."""

    def __init__(self, fields, curves):
        self.fields = fields
        self.curves = curves
        self._built = {}

    def field(self, label):
        return self._build("field", *_family_ell("cyclotomic", label))

    def record(self, label):
        return self._build("curve", *_family_ell("cyclo", label))

    def _build(self, kind, label, ell=None):
        """The one builder of each kind, for listed entries and family
        member ell alike; a listed entry's errors name its index."""
        key = (kind, label)  # so a label is never found as the other kind
        if key in self._built:
            return self._built[key]
        listed = self.fields if kind == "field" else self.curves
        if label in listed:
            entry, where = listed[label], f"{kind}s[{list(listed).index(label)}]"
        elif ell is None:
            raise CatalogError(f"unknown {kind} label {label!r}")
        elif ell < 3 or not is_prime(ell):
            raise CatalogError(f"cyclotomic family needs an odd prime, got {ell}")
        else:
            entry, where = (_cyclo_field if kind == "field" else _cyclo_record)(ell), label
        try:
            if kind == "field":
                built = CyclicCMField(
                    label=entry["label"],
                    two_g=entry["two_g"],
                    discriminant=entry["discriminant"],
                    defining_polys=entry["defining_polys"],
                    conductor=entry.get("conductor"),
                    h_generators=entry.get("H_generators"),
                )
            else:
                exponents = entry.get("cm_type")
                built = CMCurveRecord(
                    label=entry["label"],
                    genus=entry["genus"],
                    f_coeffs=tuple(entry["f_coeffs"]),
                    field=self._build("field", entry["field_label"], ell),
                    provenance=entry["provenance"],
                    # a CM type has one exponent per conjugate pair: g of them
                    cm_type=None if exponents is None
                    else CMType.from_exponents(len(exponents), exponents),
                )
        except DomainError as e:
            raise CatalogError(f"{where}: {e}") from e
        self._built[key] = built
        return built


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


def _check_field_polys(field, where):
    """Refuse a field whose defining polynomials split one of the first
    _FIELD_CHECK_PRIMES primes not dividing the conductor otherwise than its
    conductor and subgroup do, or into a number of primes whose parity is not
    the one its discriminant gives (Stickelberger): all three must describe one
    field. A prime where a polynomial is not squarefree (an index divisor) is
    passed over. A field without a conductor must have polynomials squarefree
    over Q, and at the first _FIELD_CHECK_PRIMES primes where each is
    squarefree, so unramified, each must split into factors of one degree
    (it cuts out a Galois field) and their splitting must match the
    discriminant."""
    if field.conductor is None:
        polys = [list(q) for q in field.defining_polys]
        for q in polys:
            _require(_rational_squarefree(q), where,
                     f"defining polynomial {q} of {field.label} is not squarefree")
        primes = (p for p in count(2) if is_prime(p)
                  and all(poly_gcd(q, poly_deriv(q, p), p) == [1] for q in polys))
    else:
        primes = (p for p in count(2) if is_prime(p) and field.conductor % p)
    for _, p in zip(range(_FIELD_CHECK_PRIMES), primes):
        try:
            split = split_by_factorization(field, p)
            ok = field.conductor is None or split == split_by_residue(field, p)
        except NotSquarefreeError:  # p divides the index of this polynomial's order
            continue
        except InternalInconsistencyError:  # unequal factor degrees
            ok = False
        _require(ok, where, f"the defining polynomials of {field.label} " + (
            "disagree with its conductor and subgroup" if field.conductor
            else "cut out no Galois field") + f" at p = {p}")
        # (D/p) = (-1)^(2g - m) for the m primes above an unramified p
        _require(kronecker(field.discriminant, p) == (-1) ** (field.two_g - split.num_primes),
                 where, f"the discriminant of {field.label} disagrees with its splitting"
                 f" at p = {p}")


def catalog_load(path=None):
    """Catalog from a JSON file; the packaged one when no path is given.

    Every entry's shape, label and field_label is checked here; a record is
    built and checked on its first lookup. A user catalog is built whole here,
    each field followed by `_check_field_polys`, so its errors come at load; a
    test checks the packaged fields, so that no command pays for it."""
    try:
        if path is None:
            text = resources.files("cmreduce").joinpath("catalog.json").read_text()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise CatalogError(f"catalog is not valid JSON: {e}") from e
    except (OSError, UnicodeDecodeError, RecursionError) as e:  # RecursionError: deep nesting
        raise CatalogError(f"cannot read catalog {path}: {e}") from e
    _require(isinstance(data, dict), "catalog", "top level must be an object")
    _require(_is_int(data.get("version")) and data["version"] == CATALOG_VERSION, "catalog",
             f"version must be {CATALOG_VERSION}")
    raw_fields = data.get("fields")
    raw_curves = data.get("curves")
    _require(isinstance(raw_fields, list), "catalog", "fields must be a list")
    _require(isinstance(raw_curves, list), "catalog", "curves must be a list")
    fields = {}
    for i, rf in enumerate(raw_fields):
        where = f"fields[{i}]"
        _require_entry(rf, where, ("label", "two_g", "discriminant", "defining_polys"),
                       ("conductor", "H_generators"))
        # a lookup of cyclotomic-05 asks for cyclotomic-5, so this label is never found
        _require(not re.fullmatch(r"cyclotomic-0[0-9]+", rf["label"]), where,
                 f"label {rf['label']!r} has a leading zero")
        fields[rf["label"]] = rf
    _require(len(fields) == len(raw_fields), "catalog", "duplicate field labels")
    curves = {}
    for i, rc in enumerate(raw_curves):
        where = f"curves[{i}]"
        _require_entry(rc, where, ("label", "genus", "f_coeffs", "field_label", "provenance"),
                       ("cm_type",))
        _require(not re.fullmatch(r"cyclo-0[0-9]+", rc["label"]), where,
                 f"label {rc['label']!r} has a leading zero")
        _require(rc["field_label"] in fields, where,
                 f"unknown field_label {rc['field_label']!r}")
        curves[rc["label"]] = rc
    _require(len(curves) == len(raw_curves), "catalog", "duplicate curve labels")
    catalog = Catalog(fields, curves)
    if path is not None:
        for i, label in enumerate(fields):
            _check_field_polys(catalog._build("field", label), f"fields[{i}]")
        for label in curves:
            catalog._build("curve", label)
    return catalog


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


def _resolve_target(record, target_type):
    """(normalized name, find_prime target) for this record's genus."""
    t = target_type.strip().lower().replace(" ", "-").replace("_", "-")
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
    if t not in ("ssing-non-sspec", "supersingular-non-superspecial"):
        raise DomainError(
            f"unknown target type {target_type!r}; use ordinary, superspecial,"
            " supersingular (g = 1), or ssing-non-sspec (g = 2)"
        )
    # supersingular non-superspecial: inert primes, reached through the
    # Kronecker-symbol shortcut on quartic fields
    if g != 2:
        raise DomainError(
            "ssing-non-sspec generation is only supported at genus 2"
        )
    return "supersingular-non-superspecial", ("kronecker", -1)


def _meets_target(field, target, p, split):
    """Whether the prime p meets a resolved target. split is _split_auto's
    verdict at p; a Kronecker target also holds where there is none."""
    if isinstance(target, tuple):
        return kronecker(field.discriminant, p) == -1 and (
            split is None or split.num_primes == 1)
    return split is not None and split.num_primes == target


@dataclass(frozen=True)
class GenerationResult:
    p: int
    curve: ReducedCurve
    prediction: object
    verified_profile: object
    target_type: str


def generate(record, target_type, bit_size, seed=0):
    """A prime of the requested size and splitting behaviour together with
    the reduced curve and its predicted type; below VERIFY_CAP the computed
    profile comes too, and prediction.matches(verified_profile) is False
    when the two contradict each other. A bit size above BITS_CAP is refused
    before any search."""
    if bit_size > BITS_CAP:
        raise ResourceLimitError(f"generate: bit size must be at most {BITS_CAP}")
    name, target = _resolve_target(record, target_type)
    for attempt in range(_GENERATE_RETRIES):
        p = find_prime(record.field, target, bit_size, seed=f"{seed}.{attempt}")
        try:
            curve = reduce_curve(record, p)
            break
        except BadReductionError:
            continue
    else:
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
    verified = reduction_profile(curve) if p < VERIFY_CAP else None
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
    profile = reduction_profile(reduce_curve(record, p))
    notes = []
    split = _split_auto(record.field, p)
    prediction = match = None
    if split is None:
        notes.append("p is ramified or an index divisor; prediction skipped")
    else:
        prediction = predict_for_genus(record.genus, split)
        match = prediction.matches(profile)
        if match is None:
            notes.append("no covering reduction theorem for this splitting")
        elif prediction.certainty == "partial":
            notes.append("prediction is partial: only (f, a) is pinned")
    if profile.slopes is not None and profile.type_name == "supersingular non-superspecial":
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

"""Command-line front end: count-types, split, invariants, generate, verify.

Every command takes --json for machine-readable output: exactly one JSON
document on stdout (schema_version 1), diagnostics on stderr. Exit codes:
0 success, 2 usage, 3 domain error (ramified prime, bad reduction, unknown
label), 4 resource limit or prime-search timeout, 5 verification mismatch,
6 internal inconsistency (two routes that must agree did not: a bug).
"""

import argparse
import dataclasses
import itertools
import json
import os
import sys

from . import generator, invariants, splitting
from .cm_types import count_E, count_E_primitive, enumerate_classes
from .errors import (
    DomainError,
    InternalInconsistencyError,
    PrimeSearchTimeout,
    ResourceLimitError,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_RESOURCE = 4
EXIT_MISMATCH = 5
EXIT_INTERNAL = 6


class UsageError(Exception):
    pass


def _load_catalog(args):
    path = args.catalog or os.environ.get("CM_REDUCE_CATALOG") or None
    return generator.catalog_load(path)


def _record(args):
    return _load_catalog(args).record(args.curve)


def format_poly(coeffs, var="T"):
    """Little-endian integer coefficients as a descending-power string."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else str(mag)
            body = f"{head}{var}" if i == 1 else f"{head}{var}^{i}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(terms) if terms else "0"


def _slopes_json(slopes):
    if slopes is None:
        return None
    return [str(s) for s in slopes]


def _slopes_text(slopes):
    if slopes is None:
        return "not computed"
    runs = ((s, len(list(run))) for s, run in itertools.groupby(slopes))
    return ", ".join(f"{s} x{n}" if n > 1 else f"{s}" for s, n in runs)


def _profile_json(profile):
    if profile is None:
        return None
    return {
        "p_rank": profile.p_rank,
        "a_number": profile.a_number,
        "slopes": _slopes_json(profile.slopes),
        "group_scheme": profile.group_scheme,
        "type_name": profile.type_name,
    }


def _split_json(split):
    return None if split is None else dataclasses.asdict(split)


def _prediction_json(pred):
    return {
        "certainty": pred.certainty,
        "source": pred.source,
        "profile": _profile_json(pred.profile),
    }


def cmd_count_types(args):
    if args.g < 1:
        raise UsageError("--g must be >= 1")
    total = count_E(args.g)
    prim = count_E_primitive(args.g)
    if args.primitive:
        result = {"g": args.g, "primitive": prim}
        lines = [f"g = {args.g}: {prim} primitive {'class' if prim == 1 else 'classes'}"]
    else:
        result = {"g": args.g, "total": total, "primitive": prim, "imprimitive": total - prim}
        lines = [f"g = {args.g}: {total} {'class' if total == 1 else 'classes'}"
                 f" ({prim} primitive, {total - prim} imprimitive)"]
    if args.enumerate:
        result["classes"] = []
        for c in enumerate_classes(args.g):
            if args.primitive and not c.primitive:
                continue
            ext = "".join(map(str, c.representative.extended))
            exps = sorted(c.representative.exponents)
            result["classes"].append(
                {"extended": ext, "exponents": exps, "period": c.period, "primitive": c.primitive})
            tag = "primitive" if c.primitive else "imprimitive"
            lines.append(f"  {ext}  period {c.period:>2}  {tag}"
                         f"  exponents {{{','.join(map(str, exps))}}}")
    return result, lines, EXIT_OK


def cmd_split(args):
    field = _load_catalog(args).field(args.field)
    p = args.p
    method = args.method
    if method == "auto":
        method = "factor" if field.conductor is None else "residue"
    if method == "stickelberger":
        parity = splitting.stickelberger_parity(field, p)
        result = {"field": field.label, "p": p, "method": method, "parity": parity}
        word = "odd" if parity else "even"
        return result, [f"p = {p} in {field.label}: number of primes is {word}"], EXIT_OK
    route = splitting.split_by_residue if method == "residue" else splitting.split_by_factorization
    split = route(field, p)
    result = {"field": field.label, "p": p, "method": method}
    result.update(_split_json(split))
    shape = {1: "inert"}.get(split.num_primes, f"{split.num_primes} primes")
    lines = [
        f"p = {p} in {field.label} ({method}): {shape},"
        f" inertia degree {split.inertia_degree}"
    ]
    return result, lines, EXIT_OK


def cmd_invariants(args):
    record = _record(args)
    if args.p >= generator.VERIFY_CAP:
        raise ResourceLimitError(
            f"invariants: p must be below {generator.VERIFY_CAP}"
        )
    curve = generator.reduce_curve(record, args.p)
    profile = invariants.reduction_profile(curve)
    lpoly = profile.l_polynomial
    result = {
        "curve": record.label,
        "p": args.p,
        "genus": curve.genus,
        "f_coeffs_mod_p": list(curve.coeffs),
        "p_rank": profile.p_rank,
        "a_number": profile.a_number,
        "slopes": _slopes_json(profile.slopes),
        "l_polynomial": lpoly,
        "group_scheme": profile.group_scheme,
        "type_name": profile.type_name,
    }
    lines = [
        f"{record.label} at p = {args.p}: genus {curve.genus}",
        f"  p-rank {profile.p_rank}, a-number {profile.a_number}",
        f"  slopes: {_slopes_text(profile.slopes)}",
    ]
    if lpoly is not None:
        lines.append(f"  L(T) = {format_poly(lpoly)}")
    lines.append(f"  group scheme {profile.group_scheme} ({profile.type_name})")
    return result, lines, EXIT_OK


def cmd_generate(args):
    record = _record(args)
    out = generator.generate(record, args.type, args.bits, seed=args.seed)
    result = {
        "curve": record.label,
        "target_type": out.target_type,
        "bits": args.bits,
        "seed": args.seed,
        "p": out.p,
        "reduced_curve": {
            "label": f"{record.label}-mod-p",
            "genus": out.curve.genus,
            "f_coeffs": list(out.curve.coeffs),
            "field_label": record.field.label,
            "provenance": f"reduction of {record.label} at a generated prime",
        },
        "prediction": _prediction_json(out.prediction),
        "verified_profile": _profile_json(out.verified_profile),
    }
    lines = [
        f"{record.label}, target {out.target_type}, {args.bits} bits, seed {args.seed}",
        f"p = {out.p}",
        f"reduced: y^2 = {format_poly(out.curve.coeffs, var='x')}",
    ]
    pred = out.prediction
    lines.append(
        f"prediction: ({pred.profile.p_rank}, {pred.profile.a_number})"
        f" {pred.profile.type_name} [{pred.certainty}: {pred.source}]"
    )
    code = EXIT_OK
    if out.verified_profile is not None:
        v = out.verified_profile
        lines.append(
            f"verified: p-rank {v.p_rank}, a-number {v.a_number},"
            f" group scheme {v.group_scheme}"
        )
        if pred.matches(v) is False:
            lines.append(f"MISMATCH: computed ({v.p_rank}, {v.a_number}) contradicts"
                         " the prediction")
            code = EXIT_MISMATCH
    else:
        cap = generator.VERIFY_CAP
        bound = f"2^{cap.bit_length() - 1}" if cap & (cap - 1) == 0 else cap
        lines.append(f"verified: skipped (p >= {bound})")
    return result, lines, code


def cmd_verify(args):
    record = _record(args)
    if args.p is not None:
        report = generator.verify(record, args.p)
        res = generator.SweepResult(record.label, args.p, (report,), ())
    else:
        res = generator.sweep(record, args.pmax)
    rows = []
    lines = []
    for r in res.reports:
        pred_fa = None
        if r.prediction is not None and r.prediction.profile is not None:
            pred_fa = [r.prediction.profile.p_rank, r.prediction.profile.a_number]
        rows.append(
            {
                "p": r.p,
                "splitting": _split_json(r.splitting),
                "predicted": pred_fa,
                "computed": [r.profile.p_rank, r.profile.a_number],
                "slopes": _slopes_json(r.profile.slopes),
                "group_scheme": r.profile.group_scheme,
                "match": r.match,
                "notes": list(r.notes),
            }
        )
        shape = "-" if r.splitting is None else f"l={r.splitting.num_primes}"
        pred_txt = "-" if pred_fa is None else f"({pred_fa[0]},{pred_fa[1]})"
        comp_txt = f"({r.profile.p_rank},{r.profile.a_number})"
        if r.match is None:
            flag = "skip"
        else:
            flag = "ok" if r.match else "MISMATCH"
        lines.append(
            f"  p={r.p:<7} {shape:<5} predicted {pred_txt:<6}"
            f" computed {comp_txt:<6} {flag}"
        )
    summary = f"{res.verified} verified, {len(res.mismatches)} mismatches"
    if res.bad_primes:
        summary += f"; bad reduction at {', '.join(map(str, res.bad_primes))}"
    lines.append(summary)
    result = {
        "curve": record.label,
        "pmax": res.pmax,
        "rows": rows,
        "bad_reduction": list(res.bad_primes),
        "verified": res.verified,
        "mismatches": res.mismatches,
    }
    code = EXIT_MISMATCH if res.mismatches else EXIT_OK
    return result, lines, code


_COMMON = (
    ("--json", dict(action="store_true", help="machine-readable output")),
    ("--catalog", dict(help="catalog file (default: packaged; env CM_REDUCE_CATALOG)")),
)

# name: (handler, help, arguments after _COMMON's)
_COMMANDS = {
    "count-types": (cmd_count_types, "count CM type classes at half-degree g", (
        ("--g", dict(type=int, required=True)),
        ("--primitive", dict(action="store_true", help="primitive classes only")),
        ("--enumerate", dict(action="store_true", help="list canonical representatives")))),
    "split": (cmd_split, "splitting type of a prime in a catalog field", (
        ("--field", dict(required=True)),
        ("--p", dict(type=int, required=True)),
        ("--method", dict(choices=["residue", "factor", "stickelberger", "auto"],
                          default="auto")))),
    "invariants": (cmd_invariants, "computed invariants of a catalog curve mod p", (
        ("--curve", dict(required=True)),
        ("--p", dict(type=int, required=True)))),
    "generate": (cmd_generate, "find a prime giving a requested reduction type", (
        ("--curve", dict(required=True)),
        ("--type", dict(required=True,
                        help="ordinary, superspecial, supersingular, ssing-non-sspec")),
        ("--bits", dict(type=int, required=True)),
        ("--seed", dict(type=int, default=0)))),
    "verify": (cmd_verify, "sweep predictions against computed invariants", (
        ("--curve", dict(required=True)),
        ("--pmax", dict(type=int, default=300)),
        ("--p", dict(type=int, help="verify a single prime instead of sweeping")))),
}


def build_parser(command=None):
    """Every command registers its name and help, so the top-level help and
    usage never change; only `command` (every one when None) gets a parser."""
    parser = argparse.ArgumentParser(
        prog="cmreduce",
        description="Predict and verify reduction types of CM curves.",
    )

    def command_parser(prog, **kw):  # prog is "cmreduce <name>"; the others map to None
        return argparse.ArgumentParser(prog, **kw) if command in (None, prog.split()[-1]) else None

    sub = parser.add_subparsers(dest="command", required=True, parser_class=command_parser)
    for name, (func, text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if p is not None:
            for flag, kwargs in _COMMON + arguments:
                p.add_argument(flag, **kwargs)
            p.set_defaults(func=func)
    return parser


def _emit(args, command, result, lines, code):
    if args.json:
        doc = {"schema_version": SCHEMA_VERSION, "command": command, "result": result}
        print(json.dumps(doc, indent=2))
    else:
        for line in lines:
            print(line)
    return code


def _emit_error(args, command, exc, code):
    print(f"error: {exc}", file=sys.stderr)
    if getattr(args, "json", False):
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        print(json.dumps(doc, indent=2))
    return code


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    # argparse takes the first token without a leading "-" as the command
    parser = build_parser(next((a for a in argv if not a.startswith("-")), None))
    args = parser.parse_args(argv)
    try:
        result, lines, code = args.func(args)
    except UsageError as e:
        parser.error(str(e))
    except (ResourceLimitError, PrimeSearchTimeout) as e:
        return _emit_error(args, args.command, e, EXIT_RESOURCE)
    except DomainError as e:
        return _emit_error(args, args.command, e, EXIT_DOMAIN)
    except InternalInconsistencyError as e:
        return _emit_error(args, args.command, e, EXIT_INTERNAL)
    return _emit(args, args.command, result, lines, code)


if __name__ == "__main__":
    sys.exit(main())
